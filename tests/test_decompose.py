import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dispdecomp import (
    CdaSettings,
    Dataset,
    EstimationError,
    SensitivityParams,
    adjust,
    benchmark,
    bootstrap,
    decompose_cda,
    decompose_dic,
    decompose_kob,
    fit_ols,
    grid,
    run_harness,
)
from dispdecomp import METHODS, DecompositionResult, ScenarioConfig, generate
from dispdecomp._streams import stream_seed, substream
from dispdecomp.regress import GRAM_TOL, RANK_TOL
from dispdecomp.simulate import SCENARIOS
import dispdecomp._streams as streams_module
import dispdecomp.decompose as decompose_module

from conftest import build_dataset, random_dataset


def assert_within_gram_tol(actual, expected):
    """Equal to GRAM_TOL, relative to the largest magnitude compared."""
    expected = np.asarray(expected, dtype=np.float64)
    npt.assert_allclose(actual, expected, rtol=0, atol=GRAM_TOL * np.max(np.abs(expected)))


def resample_rows(data, seed, b, attempt=0):
    """The bootstrap's within-group resample (b, attempt) of data, as row indices."""
    idx0, idx1 = data._rows
    rng = substream(seed, b, attempt)
    return np.concatenate(
        [idx0[rng.integers(0, idx0.size, idx0.size)], idx1[rng.integers(0, idx1.size, idx1.size)]]
    )


class TestDic:
    def test_worked_example(self, worked_dic_dataset):
        res = decompose_dic(worked_dic_dataset)
        assert res.method == "DIC"
        npt.assert_allclose(res.initial, 3.0, rtol=1e-9)
        npt.assert_allclose(res.explained, 2.0, rtol=1e-9)
        npt.assert_allclose(res.unexplained, 1.0, rtol=1e-9)
        npt.assert_allclose(res.proportion_explained_pct, 200.0 / 3.0, rtol=1e-9)
        npt.assert_allclose(res.detail.group_coef_without_mediator, 3.0, rtol=1e-9)
        npt.assert_allclose(res.detail.group_coef_with_mediator, 1.0, rtol=1e-9)
        npt.assert_allclose(res.detail.mediator_coef, 2.0, rtol=1e-9)

    def test_orthogonal_mediator_explained_exactly_zero(self, orthogonal_mediator_dataset):
        res = decompose_dic(orthogonal_mediator_dataset)
        assert res.explained == 0.0
        npt.assert_allclose(res.initial, 1.0, rtol=1e-12)
        npt.assert_allclose(res.unexplained, 1.0, rtol=1e-12)

    def test_additivity(self):
        res = decompose_dic(random_dataset(11))
        npt.assert_allclose(res.initial, res.explained + res.unexplained, atol=1e-12)

    def test_proportion_undefined_for_zero_initial(self):
        data = build_dataset({"R": [0, 0, 1, 1], "M": [-1, 1, -1, 1], "Y": [-1, 1, -1, 1]})
        res = decompose_dic(data)
        assert abs(res.initial) < 1e-12
        assert res.proportion_explained_pct is None

    def test_covariates_enter_both_models(self):
        data = random_dataset(5, n_baseline=1, n_intermediate=2)
        res = decompose_dic(data)
        fit_without = res.detail.group_coef_without_mediator
        plain = decompose_dic(
            build_dataset(
                {k: data.columns[k] for k in ("R", "M", "Y")},
            )
        )
        assert fit_without != plain.detail.group_coef_without_mediator


class TestKob:
    def test_worked_example(self, worked_kob_dataset):
        res = decompose_kob(worked_kob_dataset)
        assert res.method == "KOB"
        npt.assert_allclose(res.initial, 5.0, rtol=1e-9)
        npt.assert_allclose(res.explained, 2.0, rtol=1e-9)
        npt.assert_allclose(res.unexplained, 3.0, rtol=1e-9)
        detail = res.detail
        npt.assert_allclose(detail.explained_by["M"], 2.0, rtol=1e-9)
        npt.assert_allclose(detail.intercept_gap, 1.0, rtol=1e-9)
        npt.assert_allclose(detail.slope_gaps["M"], 2.0, rtol=1e-9)
        npt.assert_allclose(detail.total(), 5.0, rtol=1e-9)

    def test_identical_groups_all_terms_zero(self):
        data = build_dataset(
            {"R": [0, 0, 0, 1, 1, 1], "M": [1, 2, 4, 1, 2, 4], "Y": [2, 3, 8, 2, 3, 8]}
        )
        res = decompose_kob(data)
        assert res.initial == 0.0
        assert res.explained == 0.0
        assert res.detail.intercept_gap == 0.0
        assert all(v == 0.0 for v in res.detail.explained_by.values())
        assert all(v == 0.0 for v in res.detail.slope_gaps.values())

    @given(seed=st.integers(0, 2**32 - 1))
    def test_terms_sum_to_raw_gap(self, seed):
        data = random_dataset(seed, n=26, n_baseline=1, n_intermediate=2)
        res = decompose_kob(data)
        y = data.column("Y")
        raw_gap = y[data.group_mask(1)].mean() - y[data.group_mask(0)].mean()
        npt.assert_allclose(res.detail.total(), raw_gap, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(res.initial, raw_gap, rtol=1e-12, atol=1e-14)
        npt.assert_allclose(res.initial, res.explained + res.unexplained, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_label_swap_negates_initial(self, seed):
        data = random_dataset(seed, n=20)
        swapped = build_dataset(
            {**{k: v for k, v in data.columns.items() if k != "R"}, "R": 1.0 - data.column("R")},
            baseline=("C1",),
            intermediate=("X1",),
        )
        assert decompose_kob(swapped).initial == -decompose_kob(data).initial

    def test_group_error_is_tagged(self):
        # Group 0's mediator is constant, so its design is rank deficient.
        data = build_dataset(
            {"R": [0, 0, 0, 1, 1, 1], "M": [2, 2, 2, 1, 2, 4], "Y": [1, 2, 3, 2, 3, 8]}
        )
        with pytest.raises(EstimationError, match="group 0:"):
            decompose_kob(data)

    def test_detail_order_covariates_then_mediator(self):
        data = random_dataset(3, n=30, n_baseline=1, n_intermediate=2)
        res = decompose_kob(data)
        assert list(res.detail.explained_by) == ["X1", "X2", "C1", "M"]


class TestCda:
    def test_worked_example(self, worked_cda_dataset):
        res = decompose_cda(worked_cda_dataset, CdaSettings(seed=9))
        assert res.method == "CDA"
        npt.assert_allclose(res.initial, -1.0, rtol=1e-9)
        npt.assert_allclose(res.explained, -1.0, rtol=1e-9)
        npt.assert_allclose(res.unexplained, 0.0, atol=1e-9)

    def test_identical_noise_free_groups_exact_zero(self):
        # Y depends only on C (zero residuals, zero mediator slope), and the
        # mediator is nonlinear in C so the outcome design stays full rank.
        data = build_dataset(
            {
                "R": [0, 0, 0, 1, 1, 1],
                "C": [0, 1, 2, 0, 1, 2],
                "M": [0, 1, 0, 0, 1, 0],
                "Y": [0, 1, 2, 0, 1, 2],
            },
            baseline=("C",),
        )
        res = decompose_cda(data, CdaSettings(seed=4))
        assert res.initial == 0.0
        assert res.explained == 0.0
        assert res.unexplained == 0.0

    def test_without_baseline_covariates_initial_is_the_group_1_mean_less_the_group_0_intercept(self):
        data = random_dataset(7, n=30, n_baseline=0, n_intermediate=1)
        mean1 = data.column("Y")[data._rows[1]].mean()
        assert decompose_cda(data).initial == mean1 - decompose_module._fit(data, 0, (), "Y").intercept

    @given(seed=st.integers(0, 2**32 - 1))
    def test_additivity_exact(self, seed):
        data = random_dataset(seed, n=24, n_baseline=1, n_intermediate=1)
        res = decompose_cda(data, CdaSettings(mc_draws_per_unit=7, seed=seed % 97))
        npt.assert_allclose(res.initial, res.explained + res.unexplained, atol=1e-12)

    def test_deterministic_given_seed(self):
        data = random_dataset(8, n_baseline=1)
        a = decompose_cda(data, CdaSettings(mc_draws_per_unit=100, seed=123))
        b = decompose_cda(data, CdaSettings(mc_draws_per_unit=100, seed=123))
        c = decompose_cda(data, CdaSettings(mc_draws_per_unit=100, seed=124))
        assert (a.initial, a.explained, a.unexplained) == (b.initial, b.explained, b.unexplained)
        assert a.explained != c.explained  # different stream, different draws

    def test_zero_residual_mediator_model_is_draw_count_invariant(self, worked_cda_dataset):
        low = decompose_cda(worked_cda_dataset, CdaSettings(mc_draws_per_unit=1, seed=0))
        high = decompose_cda(worked_cda_dataset, CdaSettings(mc_draws_per_unit=64, seed=5))
        assert low.explained == high.explained
        assert low.unexplained == high.unexplained

    def test_monte_carlo_error_shrinks_with_draws(self):
        data = random_dataset(21, n=60, n_baseline=1)
        # With a linear outcome model the only Monte-Carlo noise is the mean
        # of the residual draws, so the estimate converges to the plug-in
        # value at rate 1/sqrt(n1 * draws).
        small = decompose_cda(data, CdaSettings(mc_draws_per_unit=50, seed=3))
        big = decompose_cda(data, CdaSettings(mc_draws_per_unit=5000, seed=4))
        plug_in = decompose_cda(data, CdaSettings(mc_draws_per_unit=200000, seed=11))
        gap_small = abs(small.explained - plug_in.explained)
        gap_big = abs(big.explained - plug_in.explained)
        assert gap_big < gap_small
        assert gap_big < 0.01

    def test_initial_matches_regression_standardization(self):
        data = random_dataset(17, n=40, n_baseline=1)
        res = decompose_cda(data, CdaSettings(seed=2))
        mask0, mask1 = data.group_mask(0), data.group_mask(1)
        c, y = data.column("C1"), data.column("Y")
        design = np.column_stack([np.ones(mask0.sum()), c[mask0]])
        coef = np.linalg.lstsq(design, y[mask0], rcond=None)[0]
        ref = (coef[0] + coef[1] * c[mask1]).mean()
        npt.assert_allclose(res.initial, y[mask1].mean() - ref, rtol=1e-10)

    @pytest.mark.parametrize("seed, n_baseline, n_intermediate", [(3, 1, 1), (4, 2, 1), (5, 3, 2), (6, 2, 0)])
    def test_explained_matches_a_least_squares_reference(self, seed, n_baseline, n_intermediate):
        # Slope of M in the group-1 outcome model times the mean gap between
        # group 1's mediator and its group-0 prediction.
        data = random_dataset(seed, n=60, n_baseline=n_baseline, n_intermediate=n_intermediate)
        res = decompose_cda(data)
        mask0, mask1 = data.group_mask(0), data.group_mask(1)
        roles = data.roles
        c = np.column_stack([data.column(name) for name in roles.baseline])
        x = np.column_stack([data.column(name) for name in roles.intermediate] + [c])
        m, y = data.column("M"), data.column("Y")
        design1 = np.column_stack([np.ones(mask1.sum()), x[mask1], m[mask1]])
        slope = np.linalg.lstsq(design1, y[mask1], rcond=None)[0][-1]
        design0 = np.column_stack([np.ones(mask0.sum()), c[mask0]])
        coef = np.linalg.lstsq(design0, m[mask0], rcond=None)[0]
        mu0 = np.column_stack([np.ones(mask1.sum()), c[mask1]]) @ coef
        npt.assert_allclose(res.explained, slope * (m[mask1].mean() - mu0.mean()), rtol=1e-10)

    @pytest.mark.parametrize("seed, n_intermediate", [(7, 0), (8, 1), (9, 3)])
    def test_explained_is_kob_without_baseline_covariates(self, seed, n_intermediate):
        # With nothing to standardize on, the mediator gap is the raw one.
        data = random_dataset(seed, n=40, n_baseline=0, n_intermediate=n_intermediate)
        npt.assert_allclose(decompose_cda(data).explained, decompose_kob(data).explained, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("draws", [1, 7, 30, 100])
    def test_monte_carlo_estimate_within_four_sd_of_the_draw_limit(self, scenario, draws):
        # The sd shrinks with the draw count; the default computes the limit.
        data = generate(ScenarioConfig(scenario, seed=11), 0)
        settings = CdaSettings(mc_draws_per_unit=draws, seed=6)
        mc = decompose_cda(data, settings)
        limit = decompose_cda(data)
        roles = data.roles
        fit = decompose_module._fit
        slope = fit(data, 1, roles.covariates + (roles.mediator,), roles.outcome).coef(roles.mediator)
        residual_sd = fit(data, 0, roles.baseline, roles.mediator).residual_sd
        n1 = data._rows[1].size
        sd = abs(slope) * residual_sd / np.sqrt(n1 * settings.mc_draws_per_unit)
        assert sd > 0
        assert mc.initial == limit.initial
        assert abs(mc.explained - limit.explained) <= 4 * sd
        assert abs(mc.unexplained - limit.unexplained) <= 4 * sd

    def test_explicit_draw_has_the_law_of_the_residual_mean(self):
        # explained - exact is -slope times the mean of n1 * draws residuals
        # drawn with replacement from group 0's: mean 0 and sd
        # |slope| * sd0 / sqrt(n1 * draws), sd0 the sd of those residuals.
        data = generate(ScenarioConfig("cx", n=400, seed=12), 0)
        draws = 20
        exact = decompose_cda(data).explained
        errors = np.array(
            [decompose_cda(data, CdaSettings(mc_draws_per_unit=draws, seed=s)).explained - exact for s in range(200)]
        )
        roles = data.roles
        fit = decompose_module._fit
        slope = fit(data, 1, roles.covariates + (roles.mediator,), roles.outcome).coef(roles.mediator)
        sd0 = fit(data, 0, roles.baseline, roles.mediator).residuals.std()
        predicted = abs(slope) * sd0 / np.sqrt(data._rows[1].size * draws)
        sd = errors.std(ddof=1)
        assert abs(errors.mean()) <= 4 * sd / np.sqrt(errors.size)
        assert abs(sd / predicted - 1.0) <= 0.2

    def test_draw_limit_equals_the_draws_when_residuals_are_zero(self, worked_cda_dataset):
        assert decompose_cda(worked_cda_dataset) == decompose_cda(
            worked_cda_dataset, CdaSettings(mc_draws_per_unit=100, seed=9)
        )

    def test_default_is_the_draw_limit_bit_for_bit_with_no_draw(self, monkeypatch):
        # Explained is the group-1 mediator slope times the standardized
        # mediator gap, whatever the seed.
        data = generate(ScenarioConfig("both", n=400, seed=2), 0)
        roles = data.roles
        gap = decompose_module._standardized_gap
        initial = gap(data, roles.outcome)
        slope = decompose_module._fit(data, 1, roles.covariates + (roles.mediator,), roles.outcome).coef(
            roles.mediator
        )
        explained = slope * gap(data, roles.mediator)
        limit = DecompositionResult(
            method="CDA",
            initial=initial,
            explained=explained,
            unexplained=initial - explained,
            proportion_explained_pct=100.0 * explained / initial,
        )

        def no_stream(*args):
            raise AssertionError("substream called without draws")

        monkeypatch.setattr(decompose_module, "substream", no_stream)
        assert decompose_cda(data) == limit
        assert decompose_cda(data, CdaSettings(seed=5)) == limit
        assert decompose_cda(data, CdaSettings(mc_draws_per_unit=0, seed=2**63)) == limit

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="mc_draws_per_unit must be >= 0, got -1"):
            CdaSettings(mc_draws_per_unit=-1)
        assert CdaSettings(mc_draws_per_unit=0) == CdaSettings()

    def test_settings_are_the_draw_count_and_the_seed(self):
        fields = [f.name for f in dataclasses.fields(CdaSettings)]
        assert fields == ["mc_draws_per_unit", "seed"]

    @pytest.mark.parametrize("field", ["mc_draws_per_unit", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None, True, False])
    def test_settings_reject_a_non_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            CdaSettings(**{field: value})

    def test_settings_accept_numpy_integers(self):
        settings = CdaSettings(mc_draws_per_unit=np.int64(4), seed=np.uint64(2**63))
        data = random_dataset(8, n=30, n_baseline=1)
        assert decompose_cda(data, settings) == decompose_cda(
            data, CdaSettings(mc_draws_per_unit=4, seed=2**63)
        )

    def test_baseline_model_error_tagged(self):
        # Constant baseline covariate collides with the intercept in the
        # group-0 models.
        data = build_dataset(
            {
                "R": [0, 0, 1, 1],
                "C": [1, 1, 1, 1],
                "M": [1, 2, 1, 2],
                "Y": [1, 2, 3, 4],
            },
            baseline=("C",),
        )
        with pytest.raises(EstimationError, match="baseline models:"):
            decompose_cda(data)

    def test_baseline_error_in_group_1_only_takes_precedence(self):
        # C is constant in group 1 only: the group-0 models fit, and the
        # group-1 outcome-on-baseline model fails before the outcome model.
        data = build_dataset(
            {
                "R": [0, 0, 0, 1, 1, 1],
                "C": [0, 1, 2, 1, 1, 1],
                "X": [1, 0, 2, 0, 2, 1],
                "M": [1, 3, 2, 0, 1, 3],
                "Y": [1, 2, 3, 2, 3, 5],
            },
            baseline=("C",),
            intermediate=("X",),
        )
        with pytest.raises(
            EstimationError,
            match="^baseline models: design columns are linearly dependent: intercept, C$",
        ):
            decompose_cda(data)

    def test_outcome_model_error_tagged(self):
        # Group 1's mediator equals its baseline covariate, so the group-1
        # outcome design is rank deficient while group-0 models are fine.
        data = build_dataset(
            {
                "R": [0, 0, 0, 1, 1, 1],
                "C": [0, 1, 2, 0, 1, 2],
                "M": [1, 3, 2, 0, 1, 2],
                "Y": [1, 2, 3, 2, 3, 4],
            },
            baseline=("C",),
        )
        with pytest.raises(EstimationError, match="group 1 outcome model:"):
            decompose_cda(data)

    @pytest.mark.parametrize("draws", [1, 3, 11])
    def test_draw_counts_weigh_the_group_zero_residuals(self, monkeypatch, draws):
        # All n1 * draws draws land on one residual, so the mean residual is
        # that residual and explained moves by -slope times it.
        data = random_dataset(5, n=25, n_baseline=1, n_intermediate=1)
        roles = data.roles
        fit = decompose_module._fit
        slope = fit(data, 1, roles.covariates + (roles.mediator,), roles.outcome).coef(roles.mediator)
        residuals = fit(data, 0, roles.baseline, roles.mediator).residuals
        calls = []

        class OneResidual:
            def multinomial(self, total, pvals):
                calls.append((total, np.asarray(pvals)))
                counts = np.zeros(len(pvals), dtype=np.int64)
                counts[2] = total
                return counts

        def stream(seed):
            calls.append(seed)
            return OneResidual()

        monkeypatch.setattr(decompose_module, "substream", stream)
        exact = decompose_cda(data)
        drawn = decompose_cda(data, CdaSettings(mc_draws_per_unit=draws, seed=3))
        assert calls[0] == 3
        total, pvals = calls[1]
        assert total == data._rows[1].size * draws
        assert pvals.shape == (residuals.size,) and np.all(pvals == 1.0 / residuals.size)
        assert drawn.initial == exact.initial
        npt.assert_allclose(drawn.explained, exact.explained - slope * residuals[2], rtol=1e-12)

    def test_memory_does_not_grow_with_draw_count(self):
        # Two million draws held at once take 32 MB; one count per group-0
        # residual keeps the peak near the O(n0) working arrays.
        data = random_dataset(3, n=2000)
        tracemalloc.start()
        try:
            decompose_cda(data, CdaSettings(mc_draws_per_unit=2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("int_type", [int, np.int64])
    def test_draw_total_beyond_a_64_bit_count_is_a_value_error(self, int_type):
        # numpy's count draw takes totals up to 2**63 - 1; one more per unit
        # would overflow it.
        data = random_dataset(3, n=40)
        limit = 2**63 - 1
        most = limit // 20  # 20 group-1 units
        assert np.isfinite(decompose_cda(data, CdaSettings(int_type(most), 1)).explained)
        message = f"20 group-1 units x {most + 1} draws per unit exceeds the limit of {limit} draws in total"
        with pytest.raises(ValueError) as info:
            decompose_cda(data, CdaSettings(int_type(most + 1), 1))
        assert str(info.value) == message


class TestBootstrap:
    def test_intervals_attached_to_point_estimate(self):
        data = random_dataset(31, n=30)
        plain = decompose_dic(data)
        booted = bootstrap(data, "DIC", B=25, seed=5)
        assert booted.initial == plain.initial
        assert booted.explained == plain.explained
        assert set(booted.intervals) == {"initial", "explained", "unexplained"}
        for lo, hi in booted.intervals.values():
            assert lo <= hi

    def test_deterministic(self):
        data = random_dataset(32, n=26)
        a = bootstrap(data, "KOB", B=17, seed=2)
        b = bootstrap(data, "KOB", B=17, seed=2)
        assert a.intervals == b.intervals
        assert a.intervals != bootstrap(data, "KOB", B=17, seed=3).intervals

    def test_b2_bounds_are_min_and_max(self):
        data = random_dataset(33, n=24)
        booted = bootstrap(data, "DIC", B=2, seed=9)
        idx0 = np.nonzero(data.group_mask(0))[0]
        idx1 = np.nonzero(data.group_mask(1))[0]
        replicates = []
        for b in range(2):
            rng = substream(9, b, 0)
            resample = np.concatenate(
                [
                    idx0[rng.integers(0, idx0.size, idx0.size)],
                    idx1[rng.integers(0, idx1.size, idx1.size)],
                ]
            )
            replicates.append(decompose_dic(data.take(resample)))
        values = [r.explained for r in replicates]
        # Replicate fits come from Gram solves, within GRAM_TOL of fit_ols.
        assert_within_gram_tol(booted.intervals["explained"], (min(values), max(values)))

    @pytest.mark.parametrize("method", ["DIC", "KOB", "CDA"])
    def test_equals_a_loop_over_validated_takes(self, method):
        # The same replicates through take(), fit_ols and the default BLAS
        # threading: the loop's Gram-filled fits agree to GRAM_TOL.
        data = generate(ScenarioConfig("both", n=500, seed=3), 0)
        settings = CdaSettings(mc_draws_per_unit=20, seed=4)
        booted = bootstrap(data, method, settings=settings, B=40, seed=6)
        idx0 = np.nonzero(data.group_mask(0))[0]
        idx1 = np.nonzero(data.group_mask(1))[0]
        samples = []
        for b in range(40):
            rng = substream(6, b, 0)
            resample = np.concatenate(
                [
                    idx0[rng.integers(0, idx0.size, idx0.size)],
                    idx1[rng.integers(0, idx1.size, idx1.size)],
                ]
            )
            replicate_settings = dataclasses.replace(settings, seed=stream_seed(6, b, 0, 1))
            res = decompose_module._ESTIMATORS[method](data.take(resample), replicate_settings)
            samples.append((res.initial, res.explained, res.unexplained))
        samples = np.array(samples)
        for i, name in enumerate(DecompositionResult.QUANTITIES):
            assert_within_gram_tol(booted.intervals[name], decompose_module._percentile_bounds(samples[:, i]))

    def test_noise_free_outcome_gives_zero_width_intervals(self):
        # Y equals R exactly, so every resample recovers the same
        # coefficients and the percentile interval collapses to a point.
        data = build_dataset(
            {"R": [0, 0, 0, 1, 1, 1], "M": [1, 2, 4, 1, 3, 4], "Y": [0, 0, 0, 1, 1, 1]}
        )
        booted = bootstrap(data, "DIC", B=12, seed=1)
        for name, (lo, hi) in booted.intervals.items():
            assert hi - lo < 1e-12
            assert abs(booted.quantity(name) - lo) < 1e-12
        npt.assert_allclose(booted.initial, 1.0, rtol=1e-12)
        assert abs(booted.explained) < 1e-12

    def test_cda_bootstrap_deterministic(self):
        data = random_dataset(34, n=24, n_baseline=1)
        settings = CdaSettings(mc_draws_per_unit=9, seed=77)
        a = bootstrap(data, "CDA", settings=settings, B=7, seed=4)
        b = bootstrap(data, "CDA", settings=settings, B=7, seed=4)
        assert a.intervals == b.intervals

    @pytest.mark.parametrize("settings, calls", [(None, 5), (CdaSettings(mc_draws_per_unit=100, seed=2), 16)])
    def test_cda_substream_calls(self, monkeypatch, settings, calls):
        # One resample per replicate; with draws, also the point estimate's
        # draw, and a stream_seed and a draw per replicate.
        made = []

        def counting(*args):
            made.append(args)
            return substream(*args)

        monkeypatch.setattr(decompose_module, "substream", counting)
        monkeypatch.setattr(streams_module, "substream", counting)
        bootstrap(random_dataset(34, n=24, n_baseline=1), "CDA", settings=settings, B=5, seed=4)
        assert len(made) == calls

    def test_unknown_method_and_tiny_b_rejected(self):
        data = random_dataset(35, n=20)
        with pytest.raises(ValueError, match="unknown method"):
            bootstrap(data, "XYZ", B=5)
        with pytest.raises(ValueError, match="B >= 2"):
            bootstrap(data, "DIC", B=1)

    def test_failed_resamples_are_retried(self, monkeypatch):
        data = random_dataset(36, n=20)
        point = decompose_dic(data)
        calls = {"count": 0}

        def stub(d, settings):
            calls["count"] += 1
            if calls["count"] == 1:
                return point  # point estimate
            if calls["count"] in (2, 3):  # first replicate fails twice
                raise EstimationError("synthetic failure")
            return dataclasses.replace(point, initial=float(calls["count"]))

        monkeypatch.setitem(decompose_module._ESTIMATORS, "DIC", stub)
        booted = bootstrap(data, "DIC", B=2, seed=0)
        # Replicates came from calls 4 and 5 after two retries.
        assert booted.intervals["initial"] == (4.0, 5.0)

    def test_retry_budget_exhaustion_reports_counts(self, monkeypatch):
        data = random_dataset(37, n=20)
        point = decompose_dic(data)
        calls = {"count": 0}

        def stub(d, settings):
            calls["count"] += 1
            if calls["count"] == 1:
                return point
            raise EstimationError("synthetic failure")

        monkeypatch.setitem(decompose_module._ESTIMATORS, "DIC", stub)
        with pytest.raises(
            EstimationError, match=r"bootstrap abandoned: 21 failed resamples \(limit 20\)"
        ):
            bootstrap(data, "DIC", B=2, seed=0)


def assert_fit_agrees(gram, qr, replicate, key):
    """A Gram-filled fit against fit_ols on the same rows, field by field, to GRAM_TOL."""
    group, names, _ = key
    rows = slice(None) if group is None else replicate._rows[group]
    design = np.column_stack([np.ones(qr.n)] + [replicate.column(name)[rows] for name in names])
    norms = np.linalg.norm(design, axis=0)
    assert list(gram.coefficients) == list(qr.coefficients)
    assert (gram.n, gram.p) == (qr.n, qr.p)
    # Coefficients times their column norms, relative to that vector's norm.
    scaled = np.array(list(gram.coefficients.values())) * norms
    expected = np.array(list(qr.coefficients.values())) * norms
    assert np.max(np.abs(scaled - expected)) <= GRAM_TOL * np.linalg.norm(expected)
    assert np.max(np.abs(gram.residuals - qr.residuals)) <= GRAM_TOL * np.max(np.abs(qr.residuals))
    npt.assert_allclose(gram.residual_sd, qr.residual_sd, rtol=GRAM_TOL)
    assert abs(gram.r_squared - qr.r_squared) <= GRAM_TOL
    npt.assert_allclose(
        list(gram.unscaled_variances().values()), list(qr.unscaled_variances().values()), rtol=GRAM_TOL
    )
    # r_factor and pivots describe the unshifted design: design[:, pivots] = Q R.
    r, permuted = gram.r_factor, design[:, gram.pivots]
    assert np.all(np.tril(r, -1) == 0.0)
    gap = np.abs(r.T @ r - permuted.T @ permuted)
    assert np.all(gap <= GRAM_TOL * np.outer(norms[gram.pivots], norms[gram.pivots]))


class TestGramReplicateFits:
    """The fits the bootstrap fills into a first resample's memo, against fit_ols."""

    @staticmethod
    def accepted(data, count=20, seed=1):
        """Compare every Gram fit on count resamples; how many each memo key got."""
        for method in METHODS:
            decompose_module._ESTIMATORS[method](data, None)
        resamples = [resample_rows(data, seed, b) for b in range(count)]
        accepted = dict.fromkeys(data._fits, 0)
        for resample, memo in zip(resamples, decompose_module._GramReplicates(data).memos(resamples)):
            replicate = data.take(resample)
            for key, fit in memo.items():
                accepted[key] += 1
                assert_fit_agrees(fit, decompose_module._fit(replicate, *key), replicate, key)
        return accepted

    @pytest.mark.parametrize("seed", range(4))
    def test_random_datasets_take_the_gram_path_and_agree(self, seed):
        data = random_dataset(seed, n=60, n_baseline=2, n_intermediate=2)
        accepted = self.accepted(data)
        assert len(accepted) == 6
        assert set(accepted.values()) == {20}

    @pytest.mark.parametrize("role", ["intermediate", "baseline"])
    def test_at_the_rank_tolerance_only_models_without_the_pair_are_solved(self, role):
        data = TestCovariateAtTheRankTolerance.data(5e-10, role)
        accepted = self.accepted(data)
        pair = {key: count for key, count in accepted.items() if {"C", "Z"} <= set(key[1])}
        assert pair and set(pair.values()) == {0}
        assert all(count == 20 for key, count in accepted.items() if key not in pair)

    @pytest.mark.parametrize("column, sd, solved", [("C1", 1e7, 6), ("M", 1e7, 6), ("Y", 1.0, 1)])
    def test_columns_offset_by_1e8_take_or_match_the_qr_path(self, column, sd, solved):
        # Y = 1e8 + N(0, 1) is stored to 1.5e-8, so fit_ols's Y models carry
        # errors far above GRAM_TOL relative to their residuals: those go to
        # fit_ols. The group-0 M-on-baseline model never reads Y.
        data = random_dataset(5, n=200, n_baseline=2, n_intermediate=1)
        columns = dict(data.columns)
        columns[column] = 1e8 + sd * columns[column]
        data = build_dataset(columns, baseline=("C1", "C2"), intermediate=("X1",))
        accepted = self.accepted(data)
        assert sum(count == 20 for count in accepted.values()) == solved
        assert sum(count == 0 for count in accepted.values()) == 6 - solved

    def test_cda_with_explicit_draws_agrees_through_the_gram_residuals(self):
        data = generate(ScenarioConfig("both", n=400, seed=2), 0)
        settings = CdaSettings(mc_draws_per_unit=50, seed=3)
        decompose_cda(data, settings)
        resamples = [resample_rows(data, 4, b) for b in range(10)]
        for resample, memo in zip(resamples, decompose_module._GramReplicates(data).memos(resamples)):
            assert (0, data.roles.baseline, "M") in memo
            filled = data.take(resample)
            filled._fits.update(memo)
            drawn = decompose_cda(filled, settings)
            assert all(filled._fits[key] is fit for key, fit in memo.items())
            qr = decompose_cda(data.take(resample), settings)
            assert_within_gram_tol(
                [drawn.initial, drawn.explained, drawn.unexplained], [qr.initial, qr.explained, qr.unexplained]
            )


# The 10-row CSV of the CLI's bootstrap test: five rows per group, so a
# group resample now and then repeats one mediator value and is retried (at
# seed 3 and B = 300, once for KOB and once for CDA). At eps = 1.2e-10 the
# pair C, Z of the rank-tolerance design has a pivot ratio just above
# RANK_TOL, so each method retries many resamples, each a different number.
# A baseline column of scale 2e-10 is well conditioned once scaled, but its
# pivot ratio in fit_ols sits near RANK_TOL, so KOB and CDA retry resamples
# that a Gram solve alone would accept.
RETRY_ROWS = {
    "R": [0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
    "M": [1.0, 2.0, 3.0, 1.5, 2.5, 2.0, 3.0, 4.0, 2.5, 3.5],
    "Y": [2.1, 2.9, 4.2, 2.4, 3.6, 4.9, 6.1, 7.2, 5.4, 6.6],
}


def _tiny_baseline(data):
    return _with_columns(data, C1=2e-10 * (data.column("C1") - 1.0))


LOOP_CASES = {
    "retry-csv": (lambda: build_dataset(RETRY_ROWS), None, 300),
    "rank-tol": (lambda: TestCovariateAtTheRankTolerance.data(1.2e-10, "baseline"), None, 20),
    "tiny-column": (lambda: _tiny_baseline(random_dataset(4, n=60)), None, 20),
    "draws": (
        lambda: generate(ScenarioConfig("both", n=300, seed=3), 0),
        CdaSettings(mc_draws_per_unit=20, seed=4),
        20,
    ),
}


class TestOneResampleLoop:
    @staticmethod
    def qr_loop_resamples(data, method, settings, B, seed):
        """The resamples one method's loop tried, in order, with its estimates or None
        where it failed; every fit by fit_ols."""
        used = []
        for b in range(B):
            attempt = 0
            while True:
                resample = resample_rows(data, seed, b, attempt)
                replicate_settings = settings
                if settings is not None:
                    replicate_settings = dataclasses.replace(settings, seed=stream_seed(seed, b, attempt, 1))
                try:
                    result = decompose_module._ESTIMATORS[method](data.take(resample), replicate_settings)
                except EstimationError:
                    used.append((tuple(resample), None))
                    attempt += 1
                    continue
                used.append((tuple(resample), (result.initial, result.explained, result.unexplained)))
                break
        return used

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_each_method_tries_the_resamples_of_its_own_qr_loop(self, case, monkeypatch):
        make, settings, B = LOOP_CASES[case]
        expected = {method: self.qr_loop_resamples(make(), method, settings, B, 3) for method in METHODS}
        if case != "draws":
            assert any(estimates is None for used in expected.values() for _, estimates in used)
        taken, used = {}, {method: [] for method in METHODS}
        take = Dataset.take

        def recording_take(self, indices):
            replicate = take(self, indices)
            taken[id(replicate)] = tuple(indices)
            return replicate

        def recording(method, estimator):
            def run(data, settings):
                try:
                    result = estimator(data, settings)
                except EstimationError:
                    used[method].append((taken[id(data)], None))
                    raise
                if id(data) in taken:
                    estimates = (result.initial, result.explained, result.unexplained)
                    used[method].append((taken[id(data)], estimates))
                return result
            return run

        monkeypatch.setattr(Dataset, "take", recording_take)
        for method in METHODS:
            monkeypatch.setitem(
                decompose_module._ESTIMATORS, method, recording(method, decompose_module._ESTIMATORS[method])
            )
        decompose_module._bootstrap(make(), list(METHODS), settings, B, 3)
        for method in METHODS:
            assert [rows for rows, _ in used[method]] == [rows for rows, _ in expected[method]]
            for (_, estimates), (_, reference) in zip(used[method], expected[method]):
                if reference is None:
                    assert estimates is None
                else:
                    assert_within_gram_tol(estimates, reference)

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_one_loop_equals_one_bootstrap_per_method(self, case):
        make, settings, B = LOOP_CASES[case]
        together = decompose_module._bootstrap(make(), list(METHODS), settings, B, 3)
        assert together == [bootstrap(make(), method, settings, B, 3) for method in METHODS]

    def test_every_method_gets_the_same_intervals_alone_or_together(self):
        # X1 is nearly constant in group 0, so KOB's group-0 model is too
        # ill-conditioned for a Gram solve while every model of DIC and CDA
        # takes one: a fallback that KOB causes must not reach them.
        def make():
            data = random_dataset(8, n=80, n_baseline=1, n_intermediate=1)
            rows0 = data._rows[0]
            x1 = data.column("X1").copy()
            x1[rows0] = 1.0 + 1e-7 * x1[rows0]
            return _with_columns(data, X1=x1)

        data = make()
        together = decompose_module._bootstrap(data, list(METHODS), None, 50, 2)
        memos = decompose_module._GramReplicates(data).memos([resample_rows(data, 2, 0)])
        assert set(data._fits) - set(next(memos)) == {(0, ("X1", "C1", "M"), "Y")}
        for methods in (["DIC"], ["KOB"], ["CDA"], ["DIC", "CDA"], ["CDA", "KOB"]):
            for result in decompose_module._bootstrap(make(), methods, None, 50, 2):
                assert result == together[METHODS.index(result.method)]

    def test_memory_does_not_grow_with_the_replicate_count(self):
        # Held at once: one block's Gram matrices and solves, one resample's
        # rows and copy, and B samples per method; never B resamples.
        n, q = 2000, 8
        peaks = []
        for B in (50, 1000):
            data = random_dataset(3, n=n, n_baseline=2, n_intermediate=2)
            tracemalloc.start()
            try:
                decompose_module._bootstrap(data, list(METHODS), None, B, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (1000 - 50) * 256
        assert peaks[1] < decompose_module._GRAM_BLOCK * n * q * 8


class TestFitMemo:
    def test_repeated_request_returns_the_same_fit(self):
        data = random_dataset(60, n_intermediate=2)
        names = ("X1", "X2", "C1")
        first = decompose_module._fit(data, None, names, "Y")
        assert decompose_module._fit(data, None, names, "Y") is first
        assert decompose_module._fit(data, 1, names, "Y") is not first
        assert decompose_module._fit(data, None, names, "M") is not first
        # Another column order is another fit: pivoted QR may round differently.
        assert decompose_module._fit(data, None, ("C1", "X1", "X2"), "Y") is not first
        assert len(data._fits) == 4

    def test_group_fit_matches_fit_ols_on_the_group_rows(self):
        data = random_dataset(61)
        rows = data.group_mask(0)
        fit = decompose_module._fit(data, 0, ("C1",), "M")
        expected = fit_ols({"C1": data.column("C1")[rows]}, data.column("M")[rows])
        assert fit.coefficients == expected.coefficients
        assert np.array_equal(fit.residuals, expected.residuals)

    def test_failed_fit_is_not_kept(self):
        data = build_dataset(
            {"R": [0, 0, 0, 1, 1, 1], "C": [1, 2, 4, 5, 5, 5], "M": [1, 0, 2, 3, 1, 2], "Y": [0, 1, 1, 2, 3, 5]},
            baseline=("C",),
        )
        with pytest.raises(EstimationError, match="intercept, C"):
            decompose_module._fit(data, 1, ("C",), "Y")
        assert data._fits == {}

    def test_take_starts_an_empty_memo(self):
        data = random_dataset(62)
        decompose_dic(data)
        assert len(data._fits) == 2
        assert data.take(np.arange(data.n))._fits == {}

    def test_memo_is_outside_repr_and_eq(self):
        data = random_dataset(63)
        before = repr(data)
        decompose_kob(data)
        assert data._fits
        assert repr(data) == before
        assert "_fits" not in before
        memo = {f.name: f for f in dataclasses.fields(Dataset)}["_fits"]
        assert not memo.repr and not memo.compare and not memo.init


class TestGroupMeans:
    def test_each_named_column_by_group(self):
        data = build_dataset({"R": [0, 0, 1], "M": [1, 3, 5], "Y": [2, 4, 9]})
        assert decompose_module._group_means(data, 0, ("R", "M", "Y")) == {"R": 0.0, "M": 2.0, "Y": 3.0}
        assert decompose_module._group_means(data, 1, ("Y", "M")) == {"Y": 9.0, "M": 5.0}


class TestGroupSplit:
    def test_estimators_read_the_split_made_at_validation(self, monkeypatch):
        # Every fit, the CDA standardization and the bootstrap take their
        # group rows from Dataset._rows; none recomputes the group mask.
        def no_mask(self, value):
            raise AssertionError("group_mask called")

        config = ScenarioConfig("both", n=120, reps=3, seed=5)
        data = generate(config, 0)
        monkeypatch.setattr(Dataset, "group_mask", no_mask)
        settings = CdaSettings(mc_draws_per_unit=5, seed=1)
        decompose_dic(data)
        decompose_kob(data)
        cda = decompose_cda(data, settings)
        adjust(cda, data, SensitivityParams(0.1, 0.1))
        grid(cda, data, (0.0, 0.1), (0.0, 0.2))
        benchmark(data)
        for method in ("DIC", "KOB", "CDA"):
            bootstrap(data, method, settings=settings, B=3, seed=2)
        report = run_harness(config, sensitivity=True)
        assert report.reps == 3


class TestOneRegressorOrder:
    """Every design lists its columns as group, intermediates, baseline,
    mediator, so KOB and CDA share their group-1 outcome fit."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        fit_ols = decompose_module.fit_ols

        def counting(*args, **kwargs):
            calls.append(1)
            return fit_ols(*args, **kwargs)

        monkeypatch.setattr(decompose_module, "fit_ols", counting)
        return calls

    @staticmethod
    def data():
        return generate(ScenarioConfig("cx", n=300, reps=1, seed=5), 0)

    def test_cda_after_kob_reuses_the_group_1_outcome_fit(self, monkeypatch):
        calls = self.counted(monkeypatch)
        fit = decompose_module._fit
        returned = {}

        def recording(data, group, names, response):
            returned[(group, names, response)] = fit(data, group, names, response)
            return returned[(group, names, response)]

        data = self.data()
        roles = data.roles
        key = (1, roles.covariates + (roles.mediator,), roles.outcome)
        decompose_kob(data)
        assert len(calls) == 2
        kob_group_1 = data._fits[key]
        monkeypatch.setattr(decompose_module, "_fit", recording)
        decompose_cda(data, CdaSettings(seed=1))
        assert len(calls) == 2 + 2
        assert returned[key] is kob_group_1
        assert len(data._fits) == 4

    def test_kob_after_cda_makes_one_fit(self, monkeypatch):
        calls = self.counted(monkeypatch)
        data = self.data()
        decompose_cda(data, CdaSettings(seed=1))
        after_cda = len(calls)
        decompose_kob(data)
        assert (after_cda, len(calls) - after_cda) == (3, 1)

    def test_every_fit_adds_one_memo_key(self, monkeypatch):
        # No estimator fits outside the memo: each fit_ols call is a new key.
        calls = self.counted(monkeypatch)
        data = generate(ScenarioConfig("both", n=300, reps=1, seed=5), 0)
        decompose_dic(data)
        assert len(calls) == len(data._fits) == 2
        decompose_kob(data)
        assert len(calls) == len(data._fits) == 4
        cda = decompose_cda(data, CdaSettings(seed=1))
        assert len(calls) == len(data._fits) == 6
        adjust(cda, data, SensitivityParams(r2_yu=0.1, r2_mu=0.1))
        assert len(calls) == len(data._fits) == 7

    def test_every_memo_key_follows_the_role_order(self):
        data = self.data()
        roles = data.roles
        decompose_dic(data)
        decompose_kob(data)
        cda = decompose_cda(data, CdaSettings(seed=1))
        adjust(cda, data, SensitivityParams(r2_yu=0.1, r2_mu=0.1))
        benchmark(data)
        order = (roles.group,) + roles.covariates + (roles.mediator,)
        assert len(data._fits) == 7
        for _, names, _ in data._fits:
            assert names == tuple(name for name in order if name in names)


def _with_columns(data, **changes):
    columns = {**data.columns, **changes}
    return Dataset(columns, data.roles)


ESTIMATES = {
    "DIC": lambda data: decompose_dic(data),
    "KOB": lambda data: decompose_kob(data),
    "CDA": lambda data: decompose_cda(data, CdaSettings(mc_draws_per_unit=30, seed=8)),
    "CDA-limit": lambda data: decompose_cda(data),
}


class TestAffineEquivariance:
    """Y -> a + bY scales every estimate by b; M -> a + cM moves none of them."""

    @pytest.mark.parametrize("method", list(ESTIMATES))
    @pytest.mark.parametrize("shift, scale", [(50.0, 1.0), (0.0, -3.0), (-7.5, 0.25)])
    def test_outcome(self, method, shift, scale):
        data = random_dataset(40, n=60, n_baseline=1, n_intermediate=2)
        base = ESTIMATES[method](data)
        moved = ESTIMATES[method](_with_columns(data, Y=shift + scale * data.column("Y")))
        for name in DecompositionResult.QUANTITIES:
            npt.assert_allclose(moved.quantity(name), scale * base.quantity(name), rtol=1e-9, atol=1e-11)
        if base.proportion_explained_pct is not None:
            npt.assert_allclose(moved.proportion_explained_pct, base.proportion_explained_pct, rtol=1e-9)
        if method == "DIC":
            npt.assert_allclose(moved.detail.mediator_coef, scale * base.detail.mediator_coef, rtol=1e-9)

    @pytest.mark.parametrize("method", list(ESTIMATES))
    @pytest.mark.parametrize("shift, scale", [(50.0, 1.0), (0.0, -3.0), (-7.5, 0.25)])
    def test_mediator(self, method, shift, scale):
        data = random_dataset(41, n=60, n_baseline=1, n_intermediate=2)
        moved_data = _with_columns(data, M=shift + scale * data.column("M"))
        base, moved = ESTIMATES[method](data), ESTIMATES[method](moved_data)
        for name in DecompositionResult.QUANTITIES:
            npt.assert_allclose(moved.quantity(name), base.quantity(name), rtol=1e-9, atol=1e-11)
        if method == "DIC":
            npt.assert_allclose(moved.detail.mediator_coef, base.detail.mediator_coef / scale, rtol=1e-9)


class TestGroupOneAsSmallAsItsOutcomeModel:
    """n1 == p: the group-1 outcome model interpolates, with residual_sd 0."""

    # Group 1 lies exactly on Y = 1 + 2C + 0.5M; 3 rows for intercept, C, M.
    C1, M1 = [0.0, 1.0, 2.0], [0.0, 1.0, 3.0]

    def data(self):
        rng = np.random.default_rng(5)
        c0 = rng.normal(0.5, 1.0, 12)
        m0 = rng.normal(1.0 + 0.3 * c0, 1.0)
        y0 = rng.normal(0.2 + c0 + 0.4 * m0, 1.0)
        c1, m1 = np.array(self.C1), np.array(self.M1)
        return build_dataset(
            {
                "R": [0.0] * 12 + [1.0] * 3,
                "C": np.concatenate([c0, c1]),
                "M": np.concatenate([m0, m1]),
                "Y": np.concatenate([y0, 1.0 + 2.0 * c1 + 0.5 * m1]),
            },
            baseline=("C",),
        )

    def test_outcome_fit_interpolates(self):
        fit = decompose_module._fit(self.data(), 1, ("C", "M"), "Y")
        assert (fit.n, fit.p, fit.residual_sd) == (3, 3, 0.0)
        npt.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        npt.assert_allclose([fit.intercept, fit.coef("C"), fit.coef("M")], [1.0, 2.0, 0.5], rtol=1e-12)

    def test_kob_explained_uses_the_exact_group_1_slope(self):
        data = self.data()
        res = decompose_kob(data)
        m = data.column("M")
        gap = m[data.group_mask(1)].mean() - m[data.group_mask(0)].mean()
        npt.assert_allclose(res.explained, 0.5 * gap, rtol=1e-12)
        npt.assert_allclose(res.detail.total(), res.initial, rtol=1e-12)

    def test_cda_explained_uses_the_exact_group_1_slope(self):
        data = self.data()
        c, m = data.column("C"), data.column("M")
        g0, g1 = data.group_mask(0), data.group_mask(1)
        a, b = np.polynomial.polynomial.polyfit(c[g0], m[g0], 1)
        limit = decompose_cda(data)
        npt.assert_allclose(limit.explained, 0.5 * (m[g1] - (a + b * c[g1])).mean(), rtol=1e-10)
        res = decompose_cda(data, CdaSettings(mc_draws_per_unit=50, seed=2))
        assert np.isfinite([res.initial, res.explained, res.unexplained]).all()
        npt.assert_allclose(res.initial, res.explained + res.unexplained, atol=1e-12)

    def test_one_row_fewer_is_an_estimation_error(self):
        data = self.data()
        short = data.take(np.arange(data.n - 1))
        with pytest.raises(EstimationError, match="insufficient observations: 2 rows for 3"):
            decompose_kob(short)


class TestCovariateAtTheRankTolerance:
    """Z = C + eps * U, with Z's pivot ratio within a decade of RANK_TOL."""

    ESTIMATORS = {
        "DIC": decompose_dic,
        "KOB": decompose_kob,
        "CDA": lambda data: decompose_cda(data, CdaSettings(seed=1)),
    }

    @staticmethod
    def data(eps, role):
        rng = np.random.default_rng(3)
        n = 200
        r = np.repeat([0.0, 1.0], n // 2)
        c = rng.normal(size=n)
        u = rng.normal(size=n)
        m = rng.normal(size=n) + 0.5 * c - 0.3 * r
        y = rng.normal(size=n) + 0.4 * m + 0.2 * c + 0.5 * r + 0.7 * u
        columns = {"R": r, "C": c, "Z": c + eps * u, "M": m, "Y": y}
        if role == "baseline":
            return build_dataset(columns, baseline=("C", "Z"))
        return build_dataset(columns, baseline=("C",), intermediate=("Z",))

    @staticmethod
    def pooled_pivot_ratio(data):
        names = ("R", "C", "Z", "M")
        design = np.column_stack([np.ones(data.n)] + [data.column(k) for k in names])
        diag = np.abs(np.diag(scipy.linalg.qr(design, mode="r", pivoting=True)[0]))
        return diag[-1] / diag[0]

    @pytest.mark.parametrize("role", ["intermediate", "baseline"])
    @pytest.mark.parametrize("method", ["DIC", "KOB", "CDA"])
    def test_just_above_gives_finite_additive_results(self, method, role):
        data = self.data(5e-10, role)
        assert RANK_TOL < self.pooled_pivot_ratio(data) < 10 * RANK_TOL
        res = self.ESTIMATORS[method](data)
        assert np.isfinite([res.initial, res.explained, res.unexplained]).all()
        gap = abs(res.explained + res.unexplained - res.initial)
        assert gap <= 1e-9 * max(1.0, abs(res.initial))
        # Every fit the method made on both C and Z sat at the edge too.
        edge = [fit for (_, names, _), fit in data._fits.items() if {"C", "Z"} <= set(names)]
        assert edge
        for fit in edge:
            diag = np.abs(fit.r_factor.diagonal())
            assert RANK_TOL < diag[-1] / diag[0] < 10 * RANK_TOL

    @pytest.mark.parametrize(
        "role, method, prefix, columns",
        [
            ("intermediate", "DIC", "", "Z, C"),
            ("intermediate", "KOB", "group 1: ", "Z, C"),
            ("intermediate", "CDA", "group 1 outcome model: ", "Z, C"),
            ("baseline", "DIC", "", "C, Z"),
            ("baseline", "KOB", "group 1: ", "C, Z"),
            ("baseline", "CDA", "baseline models: ", "C, Z"),
        ],
    )
    def test_just_below_names_the_dependent_columns(self, role, method, prefix, columns):
        data = self.data(5e-11, role)
        assert RANK_TOL / 10 < self.pooled_pivot_ratio(data) < RANK_TOL
        with pytest.raises(EstimationError) as info:
            self.ESTIMATORS[method](data)
        assert str(info.value) == f"{prefix}design columns are linearly dependent: {columns}"
