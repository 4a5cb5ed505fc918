import ctypes
import importlib.machinery
import json
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, given
from hypothesis import strategies as st

import dispdecomp.regress as regress_module
from conftest import random_dataset, src_env, write_dataset_csv
from dispdecomp import EstimationError, fit_ols, partial_r2
from dispdecomp.regress import INTERCEPT, RANK_TOL, _dependent_set, _pivoted_qr, _residuals, _solve_upper

# Loads scipy's _flapack file in a fresh interpreter, apart from regress's
# own lookup, and reports whether it loaded without scipy's package.
FLAPACK_ALONE_SCRIPT = """
import importlib.machinery, importlib.util, json, os, sys
from pathlib import Path

linalg = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
libs = linalg.parent.parent / "scipy.libs"
if hasattr(os, "add_dll_directory") and libs.is_dir():
    os.add_dll_directory(str(libs))
loaded = False
for suffix in importlib.machinery.EXTENSION_SUFFIXES:
    if (linalg / f"_flapack{suffix}").is_file():
        loader = importlib.machinery.ExtensionFileLoader("probe._flapack", str(linalg / f"_flapack{suffix}"))
        try:
            loaded = hasattr(loader.create_module(importlib.util.spec_from_loader(loader.name, loader)), "dgeqp3")
        except ImportError:
            pass
        break
print(json.dumps(loaded and "scipy" not in sys.modules))
"""


def flapack_loads_alone():
    """Whether scipy's _flapack file loads on its own, without scipy's package."""
    proc = subprocess.run([sys.executable, "-c", FLAPACK_ALONE_SCRIPT], capture_output=True, text=True, timeout=120)
    return proc.returncode == 0 and json.loads(proc.stdout)


needs_flapack_file = pytest.mark.skipif(
    not flapack_loads_alone(), reason="scipy's _flapack file does not load without scipy's package here"
)


def bundles_openblas():
    """Whether scipy's wheel bundles an OpenBLAS with its thread-count controls."""
    for path in regress_module._bundled_openblas("scipy"):
        try:
            ctypes.CDLL(str(path)).scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        return True
    return False


needs_bundled = pytest.mark.skipif(not bundles_openblas(), reason="scipy bundles no OpenBLAS here")


@pytest.fixture
def scipy_linalg_path(monkeypatch):
    """fit_ols on scipy.linalg.lapack, as where scipy's _flapack file is
    missing: the file lookup finds nothing."""
    monkeypatch.setattr(regress_module, "_flapack_file", lambda: None)
    module = regress_module._load_flapack()
    assert module is scipy.linalg.lapack
    monkeypatch.setattr(regress_module, "_FLAPACK", module)


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
        with pytest.raises(EstimationError, match="^fit has no coefficient for 'missing'$"):
            fit.coef("missing")

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

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_sums_of_squares_beyond_the_float_range(self, scale):
        # The sums of squares of a response near 1e160 pass the float range
        # (with no warning: warnings are errors here), while its residual sd
        # does not.
        data = random_dataset(6, n=60, n_baseline=2, n_intermediate=2)
        columns = {name: data.column(name) for name in ("R", "X1", "X2", "C1", "C2")}
        base = fit_ols(columns, data.column("M"))
        fit = fit_ols(columns, scale * data.column("M"))
        npt.assert_allclose(fit.residual_sd, scale * base.residual_sd, rtol=1e-12)
        npt.assert_allclose(fit.r_squared, base.r_squared, rtol=1e-12)
        npt.assert_allclose(fit.coef("X1"), scale * base.coef("X1"), rtol=1e-12)

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


@pytest.mark.usefixtures("scipy_linalg_path")
class TestFitOlsErrorsOnScipyLinalg:
    """The n < p and rank-deficiency errors where scipy's _flapack file is
    missing and fits go through scipy.linalg.lapack."""

    test_insufficient_observations = TestFitOls.test_insufficient_observations
    test_rank_deficiency_names_dependent_columns = TestFitOls.test_rank_deficiency_names_dependent_columns
    test_constant_column_collides_with_intercept = TestFitOls.test_constant_column_collides_with_intercept


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
    pivots). fit_ols makes the same calls on a Fortran-ordered copy of the
    design that the factorization overwrites, and must reproduce every
    value bit for bit.
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


@pytest.mark.usefixtures("scipy_linalg_path")
class TestFitOlsMatchesScipyReferenceOnScipyLinalg(TestFitOlsMatchesScipyReference):
    """Every case above, where scipy's _flapack file is missing and fits go
    through scipy.linalg.lapack. The class above runs on the default path:
    the same functions, loaded from scipy's _flapack file wherever that file
    loads on its own."""


class TestLoadFlapack:
    """The module regress calls LAPACK through: scipy's _flapack file, or
    scipy.linalg.lapack where that file is missing or does not load."""

    @needs_flapack_file
    def test_loads_scipys_file_and_leaves_sys_modules_as_it_was(self):
        before = dict(sys.modules)
        module = regress_module._load_flapack()
        assert sys.modules == before
        assert module is not scipy.linalg.lapack
        assert module.__file__ == str(regress_module._flapack_file())
        assert module.dgeqp3.__doc__ == scipy.linalg.lapack.dgeqp3.__doc__

    def test_missing_file_gives_scipy_linalg_lapack(self, monkeypatch):
        monkeypatch.setattr(regress_module, "_flapack_file", lambda: None)
        assert regress_module._load_flapack() is scipy.linalg.lapack

    def test_file_that_fails_to_load_gives_scipy_linalg_lapacks_functions(self, monkeypatch, tmp_path):
        path = tmp_path / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        path.write_bytes(b"not a shared library")
        monkeypatch.setattr(regress_module, "_flapack_file", lambda: path)
        module = regress_module._load_flapack()
        lapack = scipy.linalg.lapack
        assert (module.dgeqp3, module.dorgqr, module.dtrtrs) == (lapack.dgeqp3, lapack.dorgqr, lapack.dtrtrs)
        assert "dispdecomp._flapack" not in sys.modules


class TestLapackPathsAgree:
    """_pivoted_qr and _solve_upper equal scipy.linalg.qr and
    solve_triangular, bit for bit (==)."""

    @staticmethod
    def assert_same_arrays(got, expected):
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a, b)
            assert (a.dtype, a.flags.c_contiguous, a.flags.f_contiguous) == (
                b.dtype, b.flags.c_contiguous, b.flags.f_contiguous
            )

    @pytest.mark.parametrize("n, k", [(1, 0), (7, 6), (60, 3), (300, 9), (400, 140)])
    def test_qr_and_every_solve(self, n, k):
        rng = np.random.default_rng(n + k)
        design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        q, r, piv = _pivoted_qr(design)
        expected = scipy.linalg.qr(design, mode="economic", pivoting=True, check_finite=False)
        self.assert_same_arrays((q, r, piv), expected)
        p = k + 1
        rhs = [q.T @ rng.normal(size=n), np.eye(p)]
        # The leading blocks _dependent_set solves, the 1 x 1 one included,
        # which is contiguous in both orders.
        cases = [(r, b) for b in rhs] + [(r[:j, :j], r[:j, j]) for j in range(1, p)]
        for a, b in cases:
            self.assert_same_arrays([_solve_upper(a, b)], [scipy.linalg.solve_triangular(a, b, check_finite=False)])

    def test_unscaled_variances(self):
        rng = np.random.default_rng(5)
        fit = fit_ols(random_columns(rng, 80, 4, scales=(1e-3, 1.0, 1e3)), rng.normal(size=80))
        r_inv = scipy.linalg.solve_triangular(fit.r_factor, np.eye(fit.p), check_finite=False)
        diag = np.empty(fit.p)
        diag[fit.pivots] = np.einsum("ij,ij->i", r_inv, r_inv)
        assert fit.unscaled_variances() == dict(zip(fit.coefficients, diag.tolist()))


@pytest.mark.usefixtures("scipy_linalg_path")
class TestLapackPathsAgreeOnScipyLinalg(TestLapackPathsAgree):
    """Every case above, where fits go through scipy.linalg.lapack."""


# Imports dispdecomp, makes one fit and one CLI command, then reports what
# it loaded.
NO_SCIPY_SCRIPT = """
import json, sys
import numpy as np
import dispdecomp
from dispdecomp import cli, regress

rng = np.random.default_rng(0)
dispdecomp.fit_ols({"x": rng.normal(size=20)}, rng.normal(size=20))
argv = ["decompose", "--data", sys.argv[1], "--group", "R", "--outcome", "Y",
        "--mediator", "M", "--baseline", "C1", "--intermediate", "X1", "--method", "all"]
code = cli.main(argv)
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules,
                  "controls": len(regress._openblas_controls())}))
"""

# Sets scipy's bundled OpenBLAS to two threads, then reads its count inside
# and after _one_blas_thread.
SCIPY_THREADS_SCRIPT = """
import ctypes, json, os, sys
from dispdecomp import regress

for path in regress._bundled_openblas("scipy"):
    try:
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        break
    except (OSError, AttributeError):
        continue
set_(2)
before = get()
with regress._one_blas_thread():
    inside = get()
print(json.dumps({"scipy": "scipy" in sys.modules, "counts": [before, inside, get()]}))
"""


@needs_flapack_file
class TestWithoutScipy:
    """Where scipy's _flapack file loads on its own, no command imports
    scipy's Python modules."""

    @staticmethod
    def run(script, *args):
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_fit_and_command_leave_scipy_unimported(self, tmp_path):
        path = tmp_path / "small.csv"
        write_dataset_csv(random_dataset(3, n=60), path)
        report = self.run(NO_SCIPY_SCRIPT, str(path))
        # The same bundled builds, numpy's and scipy's, as in this process,
        # which imports scipy.
        assert report == {"code": 0, "scipy": False, "controls": len(regress_module._openblas_controls())}

    @needs_bundled
    def test_one_blas_thread_holds_scipys_build_to_one_thread_and_restores_it(self):
        report = self.run(SCIPY_THREADS_SCRIPT)
        if report["counts"][0] != 2:
            pytest.skip("OpenBLAS does not run 2 threads here")
        assert report == {"scipy": False, "counts": [2, 1, 2]}


class TestResidualsFromCoefficients:
    """The residuals CDA's draw forms from a fit's coefficients and its data
    (_residuals) are fit_ols's own, bit for bit (==)."""

    @staticmethod
    def assert_same(columns, response):
        fit = fit_ols(columns, response)
        assert np.array_equal(_residuals(fit, columns, response), fit.residuals)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_designs(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(8, 300))
        self.assert_same(random_columns(rng, n, int(rng.integers(0, 7))), rng.normal(size=n) + 3.0)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_n_equals_p(self, p):
        rng = np.random.default_rng(p)
        self.assert_same(random_columns(rng, p, p - 1), rng.normal(size=p))

    @pytest.mark.parametrize("offset_response", [False, True])
    def test_columns_offset_by_1e8(self, offset_response):
        rng = np.random.default_rng(11)
        columns = random_columns(rng, 200, 3)
        columns["x0"] = 1e8 + 1e7 * columns["x0"]
        response = rng.normal(size=200) + (1e8 if offset_response else 0.0)
        self.assert_same(columns, response)
