import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from dispdecomp import EstimationError, fit_ols, partial_r2
from dispdecomp.regress import INTERCEPT, RANK_TOL, _dependent_set

# Constants below were computed once with exact rational arithmetic
# (normal equations over fractions.Fraction), independent of this
# package's QR-based solver, and frozen here.

LINE_X = np.array([0.0, 1.0, 2.0])
LINE_Y = np.array([1.0, 1.0, 4.0])
LINE_INTERCEPT = 0.5  # 1/2
LINE_SLOPE = 1.5  # 3/2
LINE_SSR = 1.5  # 3/2
LINE_R2 = 0.75  # 3/4

PR2_W = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
PR2_Z = np.array([1.0, 0.0, 2.0, 1.0, 3.0, 2.0])
PR2_Y = np.array([1.0, 2.0, 2.0, 4.0, 5.0, 5.0])
PR2_VALUE = 9.0 / 464.0  # 0.019396551724137931
PR2_REDUCED_R2 = 2883.0 / 3115.0
PR2_FULL_R2 = 165.0 / 178.0


class TestFitOls:
    def test_frozen_line_fit(self):
        fit = fit_ols({"x": LINE_X}, LINE_Y)
        npt.assert_allclose(fit.intercept, LINE_INTERCEPT, rtol=1e-12)
        npt.assert_allclose(fit.coef("x"), LINE_SLOPE, rtol=1e-12)
        npt.assert_allclose(fit.residuals @ fit.residuals, LINE_SSR, rtol=1e-12)
        npt.assert_allclose(fit.residual_sd, np.sqrt(LINE_SSR / 1.0), rtol=1e-12)
        npt.assert_allclose(fit.r_squared, LINE_R2, rtol=1e-12)
        assert fit.n == 3 and fit.p == 2

    def test_coefficients_keep_design_order(self):
        rng = np.random.default_rng(1)
        cols = {"b": rng.normal(size=9), "a": rng.normal(size=9)}
        fit = fit_ols(cols, rng.normal(size=9))
        assert list(fit.coefficients) == [INTERCEPT, "b", "a"]

    def test_interpolating_fit_n_equals_p(self):
        fit = fit_ols({"x": np.array([1.0, 3.0])}, np.array([5.0, 9.0]))
        npt.assert_allclose(fit.coef("x"), 2.0, rtol=1e-12)
        npt.assert_allclose(fit.intercept, 3.0, rtol=1e-12)
        assert fit.residual_sd == 0.0
        npt.assert_allclose(fit.residuals, [0.0, 0.0], atol=1e-12)

    def test_insufficient_observations(self):
        with pytest.raises(EstimationError, match="insufficient observations: 2 rows for 3"):
            fit_ols({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, np.array([1.0, 2.0]))

    def test_rank_deficiency_names_dependent_columns(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(EstimationError, match="linearly dependent") as err:
            fit_ols({"a": x, "b": 2.0 * x, "c": np.array([1.0, -1.0, 1.0, -1.0])}, x)
        named = str(err.value).split(": ", 1)[1].split(", ")
        assert sorted(named) == ["a", "b"]

    def test_constant_column_collides_with_intercept(self):
        with pytest.raises(EstimationError, match="linearly dependent") as err:
            fit_ols(
                {"k": np.ones(4), "x": np.array([1.0, 2.0, 3.0, 4.0])},
                np.array([1.0, 2.0, 3.0, 5.0]),
            )
        assert INTERCEPT in str(err.value) and "'k'" in str(err.value) or "k" in str(err.value)

    def test_constant_response_with_intercept(self):
        fit = fit_ols({"x": LINE_X}, np.full(3, 7.0))
        npt.assert_allclose(fit.intercept, 7.0, rtol=1e-12)
        npt.assert_allclose(fit.coef("x"), 0.0, atol=1e-12)
        assert fit.r_squared == 1.0  # zero total variation convention

    def test_line_through_the_origin_still_gets_an_intercept(self):
        y = np.array([1.0, 2.0, 3.0])
        fit = fit_ols({"x": np.array([1.0, 2.0, 3.0])}, y)
        assert list(fit.coefficients) == [INTERCEPT, "x"]
        npt.assert_allclose(fit.intercept, 0.0, atol=1e-12)
        npt.assert_allclose(fit.coef("x"), 1.0, rtol=1e-12)
        npt.assert_allclose(fit.r_squared, 1.0, rtol=1e-12)

    def test_r_squared_clamped_to_unit_interval(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=12)
        fit = fit_ols({"x": rng.normal(size=12)}, y)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(EstimationError, match="non-finite"):
            fit_ols({"x": np.array([1.0, np.nan, 3.0])}, LINE_Y)
        with pytest.raises(EstimationError, match="non-finite"):
            fit_ols({"x": LINE_X}, np.array([1.0, np.inf, 3.0]))

    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([-8.0, -0.25, 0.5, 3.0, 64.0]))
    def test_scale_equivariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        cols = {"a": rng.normal(size=14), "b": rng.normal(size=14)}
        y = rng.normal(size=14)
        base = fit_ols(cols, y)
        scaled = fit_ols({"a": cols["a"] * scale, "b": cols["b"]}, y)
        npt.assert_allclose(scaled.coef("a"), base.coef("a") / scale, rtol=1e-9)
        npt.assert_allclose(scaled.coef("b"), base.coef("b"), rtol=1e-9)
        npt.assert_allclose(scaled.r_squared, base.r_squared, rtol=1e-9)
        npt.assert_allclose(scaled.residual_sd, base.residual_sd, rtol=1e-9)

    def test_unscaled_variances_frozen_line_fit(self):
        # X'X = [[3, 3], [3, 5]], whose inverse has diagonal 5/6 and 1/2.
        fit = fit_ols({"x": LINE_X}, LINE_Y)
        variances = fit.unscaled_variances()
        assert list(variances) == [INTERCEPT, "x"]
        npt.assert_allclose([variances[INTERCEPT], variances["x"]], [5 / 6, 1 / 2], rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_unscaled_variances_match_inverse_gram_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        cols = {"a": rng.normal(size=20) * 1e3, "b": rng.normal(size=20), "c": rng.normal(size=20)}
        fit = fit_ols(cols, rng.normal(size=20))
        design = np.column_stack([np.ones(20)] + list(cols.values()))
        expected = np.diag(np.linalg.inv(design.T @ design))
        npt.assert_allclose(list(fit.unscaled_variances().values()), expected, rtol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_orthogonal_column_leaves_coefficients_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        cols = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
        y = rng.normal(size=n)
        base = fit_ols(cols, y)
        # Residualize a fresh vector against the design and the response so
        # the added column is orthogonal to everything already present.
        design = np.column_stack([np.ones(n), cols["a"], cols["b"], y])
        fresh = rng.normal(size=n)
        ortho = fresh - design @ np.linalg.lstsq(design, fresh, rcond=None)[0]
        assume(np.linalg.norm(ortho) > 1e-6)
        extended = fit_ols({**cols, "q": ortho}, y)
        npt.assert_allclose(extended.coef("a"), base.coef("a"), rtol=1e-8, atol=1e-10)
        npt.assert_allclose(extended.coef("b"), base.coef("b"), rtol=1e-8, atol=1e-10)
        npt.assert_allclose(extended.coef("q"), 0.0, atol=1e-8)


class TestPartialR2:
    def test_frozen_six_row_example(self):
        cols = {"w": PR2_W, "z": PR2_Z}
        npt.assert_allclose(partial_r2(cols, PR2_Y, "z", ["w"]), PR2_VALUE, rtol=1e-12)
        npt.assert_allclose(fit_ols({"w": PR2_W}, PR2_Y).r_squared, PR2_REDUCED_R2, rtol=1e-12)
        npt.assert_allclose(fit_ols(cols, PR2_Y).r_squared, PR2_FULL_R2, rtol=1e-12)

    def test_focal_in_controls_rejected(self):
        with pytest.raises(EstimationError, match="also appears in controls"):
            partial_r2({"w": PR2_W, "z": PR2_Z}, PR2_Y, "z", ["w", "z"])

    def test_unknown_column_rejected(self):
        with pytest.raises(EstimationError, match="unknown column 'q'"):
            partial_r2({"w": PR2_W, "z": PR2_Z}, PR2_Y, "z", ["q"])

    def test_reduced_model_perfect_rejected(self):
        with pytest.raises(EstimationError, match="fully explained without focal column"):
            partial_r2({"w": PR2_W, "z": PR2_Z}, 2.0 * PR2_W + 1.0, "z", ["w"])

    def test_zero_for_irrelevant_focal(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=40)
        z = rng.normal(size=40)
        y = 2.0 * w + rng.normal(size=40)
        value = partial_r2({"w": w, "z": z}, y, "z", ["w"])
        assert 0.0 <= value < 0.2

    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.sampled_from([-3.0, -0.5, 0.75, 2.0]),
        b=st.sampled_from([-1.0, 0.0, 4.0]),
        mix=st.sampled_from([0.0, 0.5, -2.0]),
    )
    def test_invariant_under_invertible_recoding_of_controls(self, seed, a, b, mix):
        rng = np.random.default_rng(seed)
        n = 18
        w1 = rng.normal(size=n)
        w2 = rng.normal(size=n)
        z = rng.normal(size=n)
        y = w1 - w2 + 0.5 * z + rng.normal(size=n)
        base = partial_r2({"w1": w1, "w2": w2, "z": z}, y, "z", ["w1", "w2"])
        recoded = partial_r2(
            {"w1": a * w1 + b, "w2": w2 + mix * w1, "z": z}, y, "z", ["w1", "w2"]
        )
        npt.assert_allclose(recoded, base, rtol=1e-8, atol=1e-12)


def reference_fit_ols(columns, response):
    """fit_ols as written on scipy.linalg.qr and solve_triangular.

    Returns (coefficients, residuals, residual_sd, r_squared, r_factor,
    pivots). fit_ols calls the LAPACK routines behind these two functions
    directly and must reproduce every value bit for bit.
    """
    y = np.asarray(response, dtype=np.float64)
    if y.ndim != 1:
        raise EstimationError("response must be one-dimensional")
    n = y.size
    names = [INTERCEPT] + list(columns)
    p = len(names)
    design = np.empty((n, p))
    design[:, 0] = 1.0
    for j, (name, col) in enumerate(columns.items(), start=1):
        arr = np.asarray(col, dtype=np.float64)
        if arr.shape != (n,):
            raise EstimationError(f"column {name!r} has shape {arr.shape}, expected ({n},)")
        design[:, j] = arr
    if n < p:
        raise EstimationError(f"insufficient observations: {n} rows for {p} design columns")
    if not np.isfinite(design).all() or not np.isfinite(y).all():
        raise EstimationError("non-finite values in design or response")
    q, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    top = diag[0] if diag.size else 0.0
    deficient = np.nonzero(diag <= RANK_TOL * top)[0]
    if top == 0.0 or deficient.size:
        k = 0 if top == 0.0 else int(deficient[0])
        dep = _dependent_set(r, piv, k, names)
        raise EstimationError("design columns are linearly dependent: " + ", ".join(dep))
    beta_piv = scipy.linalg.solve_triangular(r, q.T @ y, check_finite=False)
    beta = np.empty(p)
    beta[piv] = beta_piv
    resid0 = y - design @ beta
    delta = scipy.linalg.solve_triangular(r, q.T @ resid0, check_finite=False)
    beta[piv] += delta
    residuals = y - design @ beta
    ssr = float(residuals @ residuals)
    residual_sd = 0.0 if n == p else float(np.sqrt(max(ssr, 0.0) / (n - p)))
    centered = y - y.mean()
    sst = float(centered @ centered)
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    r_squared = min(1.0, max(0.0, r_squared))
    coefficients = {name: float(b) for name, b in zip(names, beta)}
    return coefficients, residuals, residual_sd, r_squared, r, piv


def random_columns(rng, n, k, scales=(1.0,)):
    return {f"x{j}": rng.normal(size=n) * scales[j % len(scales)] for j in range(k)}


class TestFitOlsMatchesScipyReference:
    """fit_ols equals the scipy.linalg formulation bit for bit (== throughout)."""

    def assert_same(self, columns, response):
        coefficients, residuals, residual_sd, r_squared, r, piv = reference_fit_ols(columns, response)
        fit = fit_ols(columns, response)
        assert fit.coefficients == coefficients
        assert np.array_equal(fit.residuals, residuals)
        assert fit.residual_sd == residual_sd
        assert fit.r_squared == r_squared
        assert np.array_equal(fit.r_factor, r)
        assert fit.r_factor.flags.c_contiguous == r.flags.c_contiguous
        assert np.array_equal(fit.pivots, piv)
        return fit

    @pytest.mark.parametrize("seed", range(40))
    def test_random_designs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 300))
        k = int(rng.integers(0, 7))
        self.assert_same(random_columns(rng, n, k), rng.normal(size=n) + 3.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_intercept_fit_passes_through_the_means(self, seed):
        # Residuals average to zero and the fit at the column means is the
        # response mean: what regression standardization and KOB's
        # additivity rely on.
        rng = np.random.default_rng(100 + seed)
        columns, response = random_columns(rng, 50, 1 + seed % 4), rng.normal(size=50)
        fit = self.assert_same(columns, response)
        assert next(iter(fit.coefficients)) == INTERCEPT
        npt.assert_allclose(fit.residuals.mean(), 0.0, atol=1e-14)
        at_means = fit.intercept + sum(fit.coef(name) * col.mean() for name, col in columns.items())
        npt.assert_allclose(at_means, response.mean(), rtol=0, atol=1e-14)

    def test_intercept_only_design(self):
        columns, response = {}, np.array([1.0, 4.0, 2.0, 7.0])
        fit = self.assert_same(columns, response)
        assert list(fit.coefficients) == [INTERCEPT]
        npt.assert_allclose(fit.intercept, 3.5, rtol=1e-15)
        npt.assert_allclose(fit.r_squared, 0.0, atol=1e-15)
        at_means = fit.intercept + sum(fit.coef(name) * col.mean() for name, col in columns.items())
        npt.assert_allclose(at_means, 3.5, rtol=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_n_equals_p(self, p):
        rng = np.random.default_rng(p)
        fit = self.assert_same(random_columns(rng, p, p - 1), rng.normal(size=p))
        assert fit.residual_sd == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_scaled_by_powers_of_ten(self, seed):
        rng = np.random.default_rng(200 + seed)
        cols = random_columns(rng, 120, 5, scales=(1e-3, 1e3, 1.0, 1e3, 1e-3))
        self.assert_same(cols, rng.normal(size=120) * 1e3)

    def test_covariate_just_above_rank_tol(self):
        rng = np.random.default_rng(3)
        n = 40
        c = rng.normal(size=n)
        cols = {"c": c, "x": c + 1e-9 * rng.normal(size=n), "z": rng.normal(size=n)}
        fit = self.assert_same(cols, rng.normal(size=n))
        diag = np.abs(fit.r_factor.diagonal())
        assert RANK_TOL < diag[-1] / diag[0] < 10 * RANK_TOL

    def test_wide_design_takes_the_blocked_lapack_path(self):
        # dgeqp3 and dorgqr switch to blocked code beyond about 128 columns,
        # and only with the optimal workspace size.
        rng = np.random.default_rng(7)
        self.assert_same(random_columns(rng, 400, 140), rng.normal(size=400))

    @pytest.mark.parametrize(
        "columns, response",
        [
            ({"a": np.arange(5.0), "b": 2.0 * np.arange(5.0), "c": np.ones(5)}, np.arange(5.0)),
            ({"k": np.full(6, 3.0), "x": np.arange(6.0)}, np.arange(6.0)),
            ({"a": np.zeros(4)}, np.ones(4)),
            ({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, np.array([1.0, 2.0])),
            ({"x": np.array([1.0, np.nan, 3.0])}, np.ones(3)),
            ({"x": np.arange(3.0)}, np.array([1.0, np.inf, 3.0])),
            ({"x": np.arange(3.0)}, np.ones((3, 1))),
            ({"x": np.arange(4.0)}, np.ones(3)),
        ],
    )
    def test_same_error_text(self, columns, response):
        with pytest.raises(EstimationError) as expected:
            reference_fit_ols(columns, response)
        with pytest.raises(EstimationError) as got:
            fit_ols(columns, response)
        assert str(got.value) == str(expected.value)
