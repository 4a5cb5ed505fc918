import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import dispdecomp.decompose as decompose_module
import dispdecomp.regress as regress_module
from dispdecomp import (
    CdaSettings,
    EstimationError,
    ScenarioConfig,
    SensitivityParams,
    adjust,
    benchmark,
    decompose_cda,
    decompose_dic,
    generate,
    grid,
    sensitivity,
)
from dispdecomp.regress import RANK_TOL, partial_r2

from conftest import build_dataset, random_dataset

# Eight-row dataset with one baseline covariate, chosen so the benchmark
# partial R-squared values come out as simple rationals (verified against
# an exact rational-arithmetic computation).
BENCH_COLUMNS = {
    "R": [0, 0, 0, 0, 1, 1, 1, 1],
    "Z": [1, 2, 3, 4, 2, 3, 4, 5],
    "M": [2, 1, 3, 2, 4, 3, 5, 4],
    "Y": [1, 2, 2, 3, 3, 4, 4, 6],
}
BENCH_R2_WITH_Y = 25.0 / 27.0
BENCH_R2_WITH_M = 1.0 / 10.0


def _residual_sd(design_cols, response):
    design = np.column_stack([np.ones(len(response)), *design_cols])
    coef, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    resid = response - design @ coef
    dof = len(response) - design.shape[1]
    return math.sqrt(float(resid @ resid) / dof)


def _refit_strengths(data):
    """Each covariate's (r2_with_y, r2_with_m) from partial_r2 on its own fits."""
    roles = data.roles
    design = {
        roles.group: data.column(roles.group),
        **{name: data.column(name) for name in roles.covariates},
        roles.mediator: data.column(roles.mediator),
    }
    mediator_design = {k: v for k, v in design.items() if k != roles.mediator}
    out = {}
    for name in roles.covariates:
        out[name] = (
            partial_r2(design, data.column(roles.outcome), name, [c for c in design if c != name]),
            partial_r2(
                mediator_design,
                data.column(roles.mediator),
                name,
                [c for c in mediator_design if c != name],
            ),
        )
    return out


def _outcome_is_group():
    return build_dataset(
        {
            "R": [0, 0, 0, 1, 1, 1],
            "Z": [1, 2, 4, 1, 3, 4],
            "M": [2, 1, 3, 1, 2, 4],
            "Y": [0, 0, 0, 1, 1, 1],
        },
        baseline=("Z",),
    )


def _exact_sum_covariate():
    rng = np.random.default_rng(5)
    n = 30
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    return build_dataset(
        {
            "R": np.repeat([0.0, 1.0], n // 2),
            "Z1": z1,
            "Z2": z2,
            "Z3": z1 + z2,
            "M": rng.normal(size=n) + 0.5 * z1,
            "Y": rng.normal(size=n),
        },
        baseline=("Z1", "Z2", "Z3"),
    )


def _outcome_exact():
    """Y an exact linear function of R, C, X and M."""
    rng = np.random.default_rng(21)
    n = 60
    r = np.repeat([0.0, 1.0], n // 2)
    c, x = rng.normal(size=n), rng.normal(size=n)
    m = rng.normal(size=n) + 0.5 * c - 0.3 * r
    y = 1.0 + 0.5 * r + 0.7 * c - 0.4 * x + 0.9 * m
    return build_dataset(
        {"R": r, "C": c, "X": x, "M": m, "Y": y}, baseline=("C",), intermediate=("X",)
    )


def _mediator_nearly_exact():
    """M = 1 + R + C + X up to 1e-7 noise: the mediator fit is perfect to
    1e-12 in R-squared, while the outcome design stays above RANK_TOL."""
    rng = np.random.default_rng(22)
    n = 60
    r = np.repeat([0.0, 1.0], n // 2)
    c, x = rng.normal(size=n), rng.normal(size=n)
    m = 1.0 + r + c + x + 1e-7 * rng.normal(size=n)
    y = rng.normal(size=n) + 0.4 * m + 0.5 * r
    return build_dataset(
        {"R": r, "C": c, "X": x, "M": m, "Y": y}, baseline=("C",), intermediate=("X",)
    )


def _exact_ssr(columns, response):
    """Residual sum of squares of an intercept fit, in exact rational arithmetic."""
    design = [[Fraction(1)] * len(response)] + [[Fraction(float(v)) for v in c] for c in columns]
    y = [Fraction(float(v)) for v in response]
    p = len(design)
    rows = [
        [sum(a * b for a, b in zip(design[i], design[j])) for j in range(p)]
        + [sum(a * b for a, b in zip(design[i], y))]
        for i in range(p)
    ]
    for i in range(p):
        for k in range(p):
            if k != i:
                f = rows[k][i] / rows[i][i]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
    beta = [rows[i][p] / rows[i][i] for i in range(p)]
    resid = [y[t] - sum(b * col[t] for b, col in zip(beta, design)) for t in range(len(y))]
    return sum(r * r for r in resid)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="r2_yu"):
            SensitivityParams(r2_yu=1.0, r2_mu=0.2)
        with pytest.raises(ValueError, match="r2_mu"):
            SensitivityParams(r2_yu=0.2, r2_mu=-0.1)
        with pytest.raises(ValueError, match="sign"):
            SensitivityParams(r2_yu=0.2, r2_mu=0.2, sign=0)

    def test_boundary_values_allowed(self):
        SensitivityParams(r2_yu=0.0, r2_mu=0.0)
        SensitivityParams(r2_yu=0.999, r2_mu=0.999, sign=-1)


class TestAdjust:
    def test_zero_params_change_nothing(self):
        data = random_dataset(41, n=30, n_baseline=1, n_intermediate=1)
        cda = decompose_cda(data, CdaSettings(seed=1))
        adjusted = adjust(cda, data, SensitivityParams(r2_yu=0.0, r2_mu=0.0))
        assert adjusted.bias == 0.0
        assert adjusted.delta_adjusted == cda.explained
        assert adjusted.zeta_adjusted == cda.unexplained
        assert adjusted.tau == cda.initial

    @pytest.mark.parametrize(
        "params",
        [SensitivityParams(0, 0.5), SensitivityParams(np.float64(0.3), 0.2, sign=-1)],
        ids=["int", "numpy-float"],
    )
    def test_returns_the_params_it_was_given(self, params):
        data = random_dataset(41, n=30, n_baseline=1, n_intermediate=1)
        assert adjust(decompose_cda(data), data, params).params == params

    def test_bias_matches_independent_computation(self):
        data = random_dataset(41, n=30, n_baseline=1, n_intermediate=1)
        cda = decompose_cda(data, CdaSettings(seed=1))
        params = SensitivityParams(r2_yu=0.3, r2_mu=0.2)
        adjusted = adjust(cda, data, params)

        r = data.column("R")
        c = data.column("C1")
        x = data.column("X1")
        m = data.column("M")
        y = data.column("Y")
        sd_y_perp = _residual_sd([r, x, c, m], y)
        sd_m_perp = _residual_sd([r, x, c], m)
        mask0, mask1 = data.group_mask(0), data.group_mask(1)
        preds = {}
        for g, mask in ((0, mask0), (1, mask1)):
            design = np.column_stack([np.ones(mask.sum()), c[mask]])
            coef, _, _, _ = np.linalg.lstsq(design, m[mask], rcond=None)
            preds[g] = coef[0] + coef[1] * c[mask1]
        gap = float((preds[1] - preds[0]).mean())
        expected = (
            math.sqrt(0.3 * 0.2 / 0.8) * (sd_y_perp / sd_m_perp) * abs(gap)
        ) * (1 if gap >= 0 else -1)

        npt.assert_allclose(adjusted.bias, expected, rtol=1e-10)
        npt.assert_allclose(adjusted.delta_adjusted, cda.explained - expected, rtol=1e-10)
        npt.assert_allclose(adjusted.zeta_adjusted, cda.unexplained + expected, rtol=1e-10)

    def test_scales_come_from_pooled_regressions(self):
        # The groups have different noise levels, so the residual sds of the
        # pooled regressions (with R) differ from those of the group-1
        # outcome and group-0 mediator regressions. The bias uses the pooled
        # ones: outcome on R, X, C, M and mediator on R, X, C.
        rng = np.random.default_rng(8)
        n = 200
        r = np.repeat([0.0, 1.0], n // 2)
        c = rng.normal(size=n)
        x = rng.normal(0.4 * r, 1.0)
        m = 1.0 - 0.6 * r + 0.3 * c + 0.2 * x + rng.normal(size=n) * np.where(r == 1, 2.0, 0.5)
        y = 0.5 * r + 0.25 * x + 0.4 * m + rng.normal(size=n) * np.where(r == 1, 3.0, 0.5)
        data = build_dataset(
            {"R": r, "C": c, "X": x, "M": m, "Y": y}, baseline=("C",), intermediate=("X",)
        )
        cda = decompose_cda(data, CdaSettings(seed=1))
        bias = adjust(cda, data, SensitivityParams(r2_yu=0.3, r2_mu=0.2)).bias
        mask0, mask1 = data.group_mask(0), data.group_mask(1)
        preds = {}
        for g, mask in ((0, mask0), (1, mask1)):
            design = np.column_stack([np.ones(mask.sum()), c[mask]])
            coef, _, _, _ = np.linalg.lstsq(design, m[mask], rcond=None)
            preds[g] = coef[0] + coef[1] * c[mask1]
        gap = float((preds[1] - preds[0]).mean())
        factor = math.sqrt(0.3 * 0.2 / 0.8) * gap
        pooled = _residual_sd([r, x, c, m], y) / _residual_sd([r, x, c], m)
        by_group = _residual_sd([x[mask1], c[mask1], m[mask1]], y[mask1]) / _residual_sd(
            [c[mask0]], m[mask0]
        )
        assert abs(pooled / by_group - 1.0) > 0.2
        npt.assert_allclose(bias, factor * pooled, rtol=1e-10)
        assert abs(bias - factor * by_group) > 0.2 * abs(factor * by_group)

    def test_sign_flips_bias_exactly(self):
        data = random_dataset(42, n=26, n_baseline=1)
        cda = decompose_cda(data, CdaSettings(seed=2))
        plus = adjust(cda, data, SensitivityParams(r2_yu=0.4, r2_mu=0.3, sign=+1))
        minus = adjust(cda, data, SensitivityParams(r2_yu=0.4, r2_mu=0.3, sign=-1))
        assert plus.bias == -minus.bias
        assert plus.bias != 0.0
        assert plus.tau == minus.tau

    @given(
        r2_yu=st.floats(0.0, 0.95),
        r2_mu=st.floats(0.0, 0.95),
        sign=st.sampled_from([-1, +1]),
    )
    def test_split_total_preserved(self, r2_yu, r2_mu, sign):
        data = random_dataset(43, n=24, n_baseline=1)
        cda = decompose_cda(data, CdaSettings(seed=3))
        adjusted = adjust(cda, data, SensitivityParams(r2_yu=r2_yu, r2_mu=r2_mu, sign=sign))
        npt.assert_allclose(
            adjusted.delta_adjusted + adjusted.zeta_adjusted,
            adjusted.tau,
            rtol=1e-12,
            atol=1e-12,
        )
        assert adjusted.params == SensitivityParams(r2_yu=r2_yu, r2_mu=r2_mu, sign=sign)

    def test_raw_mediator_gap_used_without_baseline_covariates(self):
        data = build_dataset(
            {"R": [0, 0, 0, 1, 1, 1], "M": [1, 2, 3, 3, 4, 5], "Y": [2, 1, 4, 5, 4, 7]}
        )
        cda = decompose_cda(data, CdaSettings(seed=5))
        params = SensitivityParams(r2_yu=0.5, r2_mu=0.5)
        adjusted = adjust(cda, data, params)
        m, y, r = data.column("M"), data.column("Y"), data.column("R")
        gap = m[3:].mean() - m[:3].mean()  # 4 - 2 = 2
        sd_y_perp = _residual_sd([r, m], y)
        sd_m_perp = _residual_sd([r], m)
        expected = math.sqrt(0.25 / 0.5) * (sd_y_perp / sd_m_perp) * gap
        npt.assert_allclose(adjusted.bias, expected, rtol=1e-10)

    @pytest.mark.parametrize("scenario", ["none", "cx", "both"])
    def test_cda_explained_is_the_group_1_slope_times_this_gap(self, scenario):
        data = generate(ScenarioConfig(scenario, n=300, seed=9), 0)
        cda = decompose_cda(data)
        roles = data.roles
        outcome_model = decompose_module._fit(data, 1, roles.covariates + (roles.mediator,), roles.outcome)
        gap = sensitivity._bias_inputs(data)[2]
        assert cda.explained == outcome_model.coef(roles.mediator) * gap

    def test_rejects_non_cda_result(self):
        data = random_dataset(44, n=20)
        dic = decompose_dic(data)
        with pytest.raises(ValueError, match="CDA"):
            adjust(dic, data, SensitivityParams(r2_yu=0.1, r2_mu=0.1))

    def test_degenerate_mediator_regression_rejected(self, monkeypatch):
        # A mediator this close to the covariate span normally trips the
        # rank guard on the outcome design first; narrowing the rank
        # tolerance exposes the dedicated degeneracy check behind it.
        import dispdecomp.regress as regress_module

        monkeypatch.setattr(regress_module, "RANK_TOL", 1e-16)
        c = np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0])
        r = np.repeat([0.0, 1.0], 4)
        wiggle = np.array([0.0, 1.0, -1.0, 0.0, 0.0, -1.0, 1.0, 0.0]) * 1e-13
        m = r + 2.0 * c + wiggle
        y = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 5.0, 8.0])
        data = build_dataset({"R": r, "C": c, "M": m, "Y": y}, baseline=("C",))
        with pytest.raises(EstimationError, match="mediator fully explained"):
            adjust(_fake_cda(), data, SensitivityParams(r2_yu=0.2, r2_mu=0.2))

    def test_failing_pooled_fit_is_tagged_with_its_model(self):
        with pytest.raises(EstimationError) as info:
            adjust(_fake_cda(), _exact_sum_covariate(), SensitivityParams(r2_yu=0.1, r2_mu=0.1))
        assert str(info.value) == "pooled outcome model: design columns are linearly dependent: Z1, Z2, Z3"


def _fake_cda():
    from dispdecomp.decompose import DecompositionResult

    return DecompositionResult(
        method="CDA",
        initial=1.0,
        explained=0.5,
        unexplained=0.5,
        proportion_explained_pct=50.0,
    )


class TestBenchmark:
    def test_frozen_example(self):
        data = build_dataset(BENCH_COLUMNS, baseline=("Z",))
        out = benchmark(data)
        assert len(out) == 1
        assert out[0].name == "Z"
        npt.assert_allclose(out[0].r2_with_y, BENCH_R2_WITH_Y, rtol=1e-9)
        npt.assert_allclose(out[0].r2_with_m, BENCH_R2_WITH_M, rtol=1e-9)

    def test_sorted_strongest_first(self):
        data = random_dataset(45, n=40, n_baseline=2, n_intermediate=2)
        out = benchmark(data)
        assert len(out) == 4
        strengths = [b.r2_with_y for b in out]
        assert strengths == sorted(strengths, reverse=True)
        assert {b.name for b in out} == {"C1", "C2", "X1", "X2"}

    def test_outcome_near_1e160_gives_the_strengths_of_the_unscaled_outcome(self):
        # The squared coefficients and residual sd of Y x 1e160 pass the
        # float range; its t statistics are those of Y.
        data = random_dataset(6, n=60)
        scaled = build_dataset(
            {**data.columns, "Y": 1e160 * data.column("Y")}, baseline=("C1",), intermediate=("X1",)
        )
        plain, big = benchmark(data), benchmark(scaled)
        assert [b.name for b in big] == [b.name for b in plain]
        for b, p in zip(big, plain):
            npt.assert_allclose((b.r2_with_y, b.r2_with_m), (p.r2_with_y, p.r2_with_m), rtol=1e-12)

    def test_empty_without_covariates(self):
        data = build_dataset({"R": [0, 0, 1, 1], "M": [1, 2, 3, 4], "Y": [1, 3, 2, 5]})
        assert benchmark(data) == ()

    def test_failure_names_covariate(self):
        # The outcome equals the group indicator exactly, so the pooled
        # outcome fit is perfect and the partial R-squared for Z is
        # undefined.
        with pytest.raises(EstimationError, match="outcome fully explained by group, covariates and mediator"):
            benchmark(_outcome_is_group())

    @pytest.mark.parametrize("seed", range(12))
    def test_two_fits_match_per_covariate_partial_r2(self, seed):
        n = (10, 24, 60, 400)[seed % 4]
        data = random_dataset(100 + seed, n=n, n_baseline=1 + seed % 3, n_intermediate=seed % 4)
        expected = _refit_strengths(data)
        for b in benchmark(data):
            npt.assert_allclose((b.r2_with_y, b.r2_with_m), expected[b.name], rtol=0, atol=1e-12)

    def test_near_collinear_covariate_matches_partial_r2(self):
        rng = np.random.default_rng(11)
        n = 50
        r = np.repeat([0.0, 1.0], n // 2)
        c = rng.normal(size=n)
        x = c + 1e-3 * rng.normal(size=n)
        m = rng.normal(size=n) + 0.5 * c - 0.3 * r
        y = rng.normal(size=n) + 0.4 * m + 0.2 * x + 0.5 * r
        data = build_dataset(
            {"R": r, "C": c, "X": x, "M": m, "Y": y}, baseline=("C",), intermediate=("X",)
        )
        expected = _refit_strengths(data)
        for b in benchmark(data):
            npt.assert_allclose((b.r2_with_y, b.r2_with_m), expected[b.name], rtol=0, atol=1e-12)

    def test_covariate_just_above_rank_tol(self):
        # X differs from C by 1e-9 of its scale, so its pivot in both designs
        # sits within one decade of RANK_TOL. Double precision then fixes a
        # partial R-squared only to about eps / pivot ratio, whatever the
        # algorithm, so the two-fit path and the per-covariate refits are
        # both held to 10 * eps / ratio of the exact rational value.
        rng = np.random.default_rng(3)
        n = 40
        r = np.repeat([0.0, 1.0], n // 2)
        c = rng.normal(size=n)
        u = rng.normal(size=n)
        x = c + 1e-9 * u
        m = rng.normal(size=n) + 0.5 * c - 0.3 * r
        y = rng.normal(size=n) + 0.4 * m + 0.2 * x + 0.5 * r + 0.7 * u
        data = build_dataset(
            {"R": r, "C": c, "X": x, "M": m, "Y": y}, baseline=("C",), intermediate=("X",)
        )
        strengths = {b.name: (b.r2_with_y, b.r2_with_m) for b in benchmark(data)}
        refits = _refit_strengths(data)
        designs = (({"R": r, "X": x, "C": c, "M": m}, y), ({"R": r, "X": x, "C": c}, m))
        for axis, (columns, response) in enumerate(designs):
            design = np.column_stack([np.ones(n), *columns.values()])
            pivots = np.abs(np.diag(scipy.linalg.qr(design, mode="r", pivoting=True)[0]))
            ratio = pivots[-1] / pivots[0]
            assert RANK_TOL < ratio < 10 * RANK_TOL
            tol = 10 * np.finfo(float).eps / ratio
            full = _exact_ssr(columns.values(), response)
            for name in ("X", "C"):
                others = [v for k, v in columns.items() if k != name]
                exact = float(1 - full / _exact_ssr(others, response))
                assert abs(strengths[name][axis] - exact) < tol
                assert abs(refits[name][axis] - exact) < tol

    def test_two_fits_without_partial_r2(self, monkeypatch):
        calls = []
        fit_ols = decompose_module.fit_ols

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return fit_ols(*args, **kwargs)

        # benchmark fits through decompose._fit, which calls decompose's fit_ols.
        monkeypatch.setattr(decompose_module, "fit_ols", counting_fit)
        data = random_dataset(49, n=40, n_baseline=2, n_intermediate=2)
        assert len(benchmark(data)) == 4
        assert len(calls) == 2

    def test_exact_sum_covariate_names_dependent_columns(self):
        with pytest.raises(EstimationError) as info:
            benchmark(_exact_sum_covariate())
        assert str(info.value) == "pooled outcome model: design columns are linearly dependent: Z1, Z2, Z3"

    @pytest.mark.parametrize(
        "make, message, fits",
        [
            (_outcome_exact, "outcome fully explained by group, covariates and mediator", 2),
            (_mediator_nearly_exact, "mediator fully explained by group and covariates", 2),
            (_outcome_is_group, "outcome fully explained by group, covariates and mediator", 2),
            (
                _exact_sum_covariate,
                "pooled outcome model: design columns are linearly dependent: Z1, Z2, Z3",
                1,
            ),
        ],
        ids=["outcome-exact", "mediator-nearly-exact", "outcome-is-group", "exact-sum-covariate"],
    )
    def test_degenerate_input_raises_after_the_pooled_fits_alone(self, monkeypatch, make, message, fits):
        # Both bindings are counted, so a fit made through partial_r2 would
        # show up too.
        calls = []

        def counting(fit_ols):
            def fit(*args, **kwargs):
                calls.append(1)
                return fit_ols(*args, **kwargs)
            return fit

        monkeypatch.setattr(decompose_module, "fit_ols", counting(decompose_module.fit_ols))
        monkeypatch.setattr(regress_module, "fit_ols", counting(regress_module.fit_ols))
        with pytest.raises(EstimationError) as info:
            benchmark(make())
        assert str(info.value) == message
        assert len(calls) == fits


class TestSharedPooledFits:
    GRID = ((0.05, 0.2), (0.1, 0.3))

    @staticmethod
    def data():
        return generate(ScenarioConfig("cx", n=500, reps=1, seed=2), 0)

    def test_benchmark_after_grid_makes_no_fit(self, monkeypatch):
        calls = []
        fit_ols = decompose_module.fit_ols

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return fit_ols(*args, **kwargs)

        monkeypatch.setattr(decompose_module, "fit_ols", counting_fit)
        data = self.data()
        cda = decompose_cda(data, CdaSettings(seed=3))
        after_cda = len(calls)
        swept = grid(cda, data, *self.GRID)
        after_grid = len(calls)
        strengths = benchmark(data)
        assert (after_cda, after_grid, len(calls)) == (3, 5, 5)

        monkeypatch.undo()
        assert grid(cda, self.data(), *self.GRID) == swept
        assert benchmark(self.data()) == strengths

    def test_grid_after_benchmark_reuses_the_pooled_fits(self, monkeypatch):
        calls = []
        fit_ols = decompose_module.fit_ols

        def counting_fit(columns, response, **kwargs):
            calls.append(tuple(columns))
            return fit_ols(columns, response, **kwargs)

        monkeypatch.setattr(decompose_module, "fit_ols", counting_fit)
        data = self.data()
        strengths = benchmark(data)
        cda = decompose_cda(data, CdaSettings(seed=3))
        swept = grid(cda, data, *self.GRID)
        # The pooled outcome and mediator fits once each, then CDA's three;
        # the standardized gap reuses CDA's group-0 mediator model.
        assert calls == [
            ("R", "X1", "X2", "X3", "C", "M"),
            ("R", "X1", "X2", "X3", "C"),
            ("C",),
            ("C",),
            ("X1", "X2", "X3", "C", "M"),
        ]
        monkeypatch.undo()
        assert grid(cda, self.data(), *self.GRID) == swept
        assert benchmark(self.data()) == strengths


class TestGrid:
    def test_matches_individual_adjust_calls(self):
        data = random_dataset(46, n=30, n_baseline=1)
        cda = decompose_cda(data, CdaSettings(seed=6))
        yu, mu = (0.1, 0.3), (0.2, 0.5)
        g = grid(cda, data, yu, mu, sign=-1)
        assert g.r2_yu_values == yu
        assert g.r2_mu_values == mu
        assert g.sign == -1
        assert len(g.cells) == 4
        for i, a in enumerate(yu):
            for j, b in enumerate(mu):
                single = adjust(cda, data, SensitivityParams(r2_yu=a, r2_mu=b, sign=-1))
                assert g.cell(i, j) == single

    def test_cells_in_row_major_order(self):
        data = random_dataset(46, n=30, n_baseline=1)
        cda = decompose_cda(data, CdaSettings(seed=6))
        g = grid(cda, data, (0.1, 0.3), (0.2, 0.5))
        assert [c.params.r2_yu for c in g.cells] == [0.1, 0.1, 0.3, 0.3]
        assert [c.params.r2_mu for c in g.cells] == [0.2, 0.5, 0.2, 0.5]

    def test_bias_magnitude_monotone_in_each_axis(self):
        data = random_dataset(47, n=30, n_baseline=1)
        cda = decompose_cda(data, CdaSettings(seed=7))
        g = grid(cda, data, (0.1, 0.4), (0.1, 0.4))
        assert abs(g.cell(1, 0).bias) > abs(g.cell(0, 0).bias)
        assert abs(g.cell(0, 1).bias) > abs(g.cell(0, 0).bias)
        assert abs(g.cell(1, 1).bias) > abs(g.cell(1, 0).bias)

    def test_group_0_mediator_model_failure_is_tagged(self):
        # Baseline C1 is constant in group 0 only: the pooled fits stand,
        # and the group-0 mediator model of the standardized gap does not.
        other = random_dataset(49, n=40, n_baseline=1)
        columns = dict(other.columns)
        columns["C1"] = np.where(columns["R"] == 0.0, 1.0, columns["C1"])
        data = build_dataset(columns, baseline=("C1",), intermediate=("X1",))
        dependent = "design columns are linearly dependent: intercept, C1"
        with pytest.raises(EstimationError, match=f"^group 0 mediator model: {dependent}$"):
            grid(decompose_cda(other), data, (0.1,), (0.1,))
        with pytest.raises(EstimationError, match=f"^baseline models: {dependent}$"):
            decompose_cda(data)

    def test_validation(self):
        data = random_dataset(48, n=24, n_baseline=1)
        cda = decompose_cda(data, CdaSettings(seed=8))
        dic = decompose_dic(data)
        with pytest.raises(ValueError, match="CDA"):
            grid(dic, data, (0.1,), (0.1,))
        with pytest.raises(ValueError, match="at least one value"):
            grid(cda, data, (), (0.1,))
        with pytest.raises(ValueError, match="at least one value"):
            grid(cda, data, (0.1,), ())
        with pytest.raises(ValueError, match="r2_yu"):
            grid(cda, data, (1.5,), (0.1,))
