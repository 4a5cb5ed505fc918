"""Three decompositions of a group disparity in an outcome.

All three attribute part of the mean outcome gap between group 1 and
group 0 to a mediator, but they answer different questions:

* difference-in-coefficients (DIC): how much does the group coefficient in
  a pooled outcome regression shrink when the mediator is added?
* Kitagawa-Oaxaca-Blinder (KOB): split the raw mean gap into parts
  explained by group differences in covariate/mediator levels (weighted by
  group-1 slopes) and an unexplained remainder (intercept and slope gaps).
* causal decomposition (CDA): contrast group-1 outcomes against a
  counterfactual in which each group-1 unit's mediator is drawn from the
  group-0 mediator distribution at the same baseline-covariate values.
  Both models are linear in the mediator, so the counterfactual mean is
  computed exactly by default; Monte-Carlo imputation is kept as an
  explicit option. The initial disparity here is
  standardized to the group-1 baseline-covariate distribution, so baseline
  pathways are excluded from it by design.

A within-group resampling bootstrap provides percentile intervals for any
of the three on a single dataset.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._streams import stream_seed, substream
from .regress import EstimationError, OlsFit, _one_blas_thread, fit_ols
from .tabular import Dataset, group_means

__all__ = [
    "DicDetail",
    "KobDetail",
    "CdaSettings",
    "DecompositionResult",
    "decompose_dic",
    "decompose_kob",
    "decompose_cda",
    "bootstrap",
    "METHODS",
]

METHODS = ("DIC", "KOB", "CDA")

# |initial| below 1e-9 x the outcome scale makes the explained proportion
# meaningless; it is reported as an explicit undefined marker instead.
PROPORTION_EPS = 1e-9

# Residual draws made per block in decompose_cda (at least one unit's worth).
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class DicDetail:
    """Coefficients behind a DIC result.

    group_coef_without_mediator is the group coefficient with the mediator
    excluded; group_coef_with_mediator is the same coefficient once the
    mediator enters; mediator_coef is the mediator's own coefficient in
    that second model.
    """

    group_coef_without_mediator: float
    group_coef_with_mediator: float
    mediator_coef: float


@dataclass(frozen=True)
class KobDetail:
    """Every term of the KOB breakdown.

    explained_by[z] = (group-1 slope of z) x (group mean gap of z), for each
    intermediate covariate, baseline covariate, and the mediator.
    intercept_gap and slope_gaps[z] = (slope1 - slope0) x (group-0 mean of z)
    make up the unexplained part. All terms sum to the raw mean outcome gap.
    """

    explained_by: dict[str, float]
    intercept_gap: float
    slope_gaps: dict[str, float]

    def total(self) -> float:
        return (
            sum(self.explained_by.values())
            + self.intercept_gap
            + sum(self.slope_gaps.values())
        )


@dataclass(frozen=True)
class CdaSettings:
    """CDA's Monte-Carlo knobs: residual draws per group-1 unit, and their seed.

    The default of 0 draws computes the counterfactual mean exactly, as the
    limit of infinitely many draws, and never reads the seed. A positive
    count runs the Monte-Carlo imputation with that many draws per unit.
    """

    mc_draws_per_unit: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("mc_draws_per_unit", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mc_draws_per_unit < 0:
            raise ValueError(f"mc_draws_per_unit must be >= 0, got {self.mc_draws_per_unit}")


@dataclass(frozen=True)
class DecompositionResult:
    """A decomposition of the initial disparity into explained + unexplained.

    proportion_explained_pct is None when the initial disparity is too close
    to zero for the percentage to mean anything. intervals, when present,
    maps quantity name -> (lower, upper) percentile bounds from a bootstrap.
    """

    method: str
    initial: float
    explained: float
    unexplained: float
    proportion_explained_pct: float | None
    detail: DicDetail | KobDetail | None = None
    intervals: dict[str, tuple[float, float]] | None = None

    QUANTITIES = ("initial", "explained", "unexplained")

    def quantity(self, name: str) -> float:
        if name not in self.QUANTITIES:
            raise ValueError(f"unknown quantity {name!r}")
        return float(getattr(self, name))


def _proportion(initial: float, explained: float, outcome: np.ndarray) -> float | None:
    scale = float(np.max(np.abs(outcome)))
    if abs(initial) <= PROPORTION_EPS * scale:
        return None
    return 100.0 * explained / initial


def _columns(data: Dataset, names: tuple[str, ...], rows: np.ndarray | None = None) -> dict[str, np.ndarray]:
    if rows is None:
        return {name: data.column(name) for name in names}
    return {name: data.column(name)[rows] for name in names}


def _fit(data: Dataset, group: int | None, names: tuple[str, ...], response: str) -> OlsFit:
    """fit_ols of response on the named columns, over one group's rows or all (None).

    Each (group, names, response) is fitted once per Dataset: a repeated
    request returns the same OlsFit. Names are kept in their order, because
    pivoted QR of the same columns in another order can differ in the last
    bits. A fit that raises is not kept.
    """
    key = (group, names, response)
    fit = data._fits.get(key)
    if fit is None:
        rows = None if group is None else data._rows[group]
        y = data.column(response)
        fit = fit_ols(_columns(data, names, rows), y if rows is None else y[rows])
        data._fits[key] = fit
    return fit


def decompose_dic(data: Dataset) -> DecompositionResult:
    """Difference-in-coefficients decomposition on pooled regressions.

    Fits the outcome on group + intermediate + baseline covariates, then
    refits with the mediator added. The drop in the group coefficient is
    the explained disparity; the remaining coefficient is unexplained.
    """
    roles = data.roles
    y = data.column(roles.outcome)
    base = (roles.group,) + roles.covariates
    without_m = _fit(data, None, base, roles.outcome)
    with_m = _fit(data, None, base + (roles.mediator,), roles.outcome)
    alpha = without_m.coef(roles.group)
    beta = with_m.coef(roles.group)
    explained = alpha - beta
    return DecompositionResult(
        method="DIC",
        initial=alpha,
        explained=explained,
        unexplained=beta,
        proportion_explained_pct=_proportion(alpha, explained, y),
        detail=DicDetail(
            group_coef_without_mediator=alpha,
            group_coef_with_mediator=beta,
            mediator_coef=with_m.coef(roles.mediator),
        ),
    )


def _group_fit(data: Dataset, g: int, names: tuple[str, ...]) -> OlsFit:
    try:
        return _fit(data, g, names, data.roles.outcome)
    except EstimationError as exc:
        raise EstimationError(f"group {g}: {exc}") from exc


def decompose_kob(data: Dataset) -> DecompositionResult:
    """Kitagawa-Oaxaca-Blinder decomposition with group-specific models.

    The initial disparity is the raw mean outcome gap. The headline
    explained term is only the mediator's contribution
    slope1_M x (mean1_M - mean0_M); the full per-variable breakdown,
    including the covariate contributions and the intercept/slope gaps,
    lives in the attached KobDetail.
    """
    roles = data.roles
    variables = roles.covariates + (roles.mediator,)
    fit1 = _group_fit(data, 1, variables)
    fit0 = _group_fit(data, 0, variables)
    means = group_means(data)
    initial = means[1][roles.outcome] - means[0][roles.outcome]
    explained_by = {
        z: fit1.coef(z) * (means[1][z] - means[0][z]) for z in variables
    }
    slope_gaps = {
        z: (fit1.coef(z) - fit0.coef(z)) * means[0][z] for z in variables
    }
    explained = explained_by[roles.mediator]
    return DecompositionResult(
        method="KOB",
        initial=initial,
        explained=explained,
        unexplained=initial - explained,
        proportion_explained_pct=_proportion(
            initial, explained, data.column(roles.outcome)
        ),
        detail=KobDetail(
            explained_by=explained_by,
            intercept_gap=fit1.intercept - fit0.intercept,
            slope_gaps=slope_gaps,
        ),
    )


@dataclass(frozen=True)
class _CdaModels:
    """The fitted parts of a CDA on the group-1 units, before any draw.

    mu0 is each unit's predicted mediator under the group-0 model; the
    outcome model is collapsed to unit_base + unit_slope * m per unit.
    """

    mediator_model: OlsFit
    mu0: np.ndarray
    unit_base: np.ndarray
    unit_slope: np.ndarray
    observed_mean: float
    standardized_ref: float
    outcome: np.ndarray

    def result(self, mean_m_star: np.ndarray) -> DecompositionResult:
        """The decomposition, given each unit's mean counterfactual mediator."""
        n1 = self.mu0.size
        counterfactual = float((self.unit_base + self.unit_slope * mean_m_star).sum() / n1)
        initial = self.observed_mean - self.standardized_ref
        explained = self.observed_mean - counterfactual
        unexplained = counterfactual - self.standardized_ref
        return DecompositionResult(
            method="CDA",
            initial=initial,
            explained=explained,
            unexplained=unexplained,
            proportion_explained_pct=_proportion(initial, explained, self.outcome),
        )


def _cda_models(data: Dataset) -> _CdaModels:
    """Fit the models of decompose_cda; the errors name the failing one."""
    roles = data.roles
    rows1 = data._rows[1]
    y = data.column(roles.outcome)
    y1 = y[rows1]
    n1 = rows1.size

    try:
        mediator_model = _fit(data, 0, roles.baseline, roles.mediator)
        outcome_on_c0 = _fit(data, 0, roles.baseline, roles.outcome)
    except EstimationError as exc:
        raise EstimationError(f"baseline models: {exc}") from exc

    c1 = _columns(data, roles.baseline, rows1)
    covariates1 = _columns(data, roles.covariates, rows1)
    try:
        outcome_model = _fit(data, 1, roles.covariates + (roles.mediator,), roles.outcome)
    except EstimationError as exc:
        # Both group-specific outcome-on-baseline models are preconditions
        # whose failure is reported first. The group-1 one is fitted only
        # here: its design is a column subset of the outcome model's, so a
        # rank deficiency in it also sinks the outcome model.
        try:
            _fit(data, 1, roles.baseline, roles.outcome)
        except EstimationError as base_exc:
            raise EstimationError(f"baseline models: {base_exc}") from base_exc
        raise EstimationError(f"group 1 outcome model: {exc}") from exc

    # The outcome model is linear in the mediator given the unit's own
    # covariates, so collapse it to per-unit intercept + slope before
    # averaging over draws.
    unit_base = outcome_model.predict({**covariates1, roles.mediator: np.zeros(n1)}, n=n1)
    unit_slope = outcome_model.predict({**covariates1, roles.mediator: np.ones(n1)}, n=n1) - unit_base
    return _CdaModels(
        mediator_model=mediator_model,
        mu0=mediator_model.predict(c1, n=n1),
        unit_base=unit_base,
        unit_slope=unit_slope,
        observed_mean=float(y1.sum() / n1),
        standardized_ref=float(outcome_on_c0.predict(c1, n=n1).sum() / n1),
        outcome=y,
    )


def decompose_cda(data: Dataset, settings: CdaSettings | None = None) -> DecompositionResult:
    """Causal decomposition by mediator imputation.

    Over the group-1 units (the standardization population):

    * initial = mean observed outcome minus the group-0 outcome-on-baseline
      regression evaluated at group-1 baseline values (regression
      standardization);
    * the counterfactual mean redraws each unit's mediator from the group-0
      mediator-on-baseline model (its prediction plus a residual resampled
      with replacement from that model's residuals) and
      pushes the draws through the group-1 outcome model;
    * explained = mean observed outcome - counterfactual mean;
      unexplained = counterfactual mean - standardized group-0 mean.

    The group-1 outcome model is linear in the mediator, so only each
    unit's mean counterfactual mediator matters. With the default
    settings.mc_draws_per_unit of 0 that mean is exact: mu0 + s, mu0 being
    the unit's group-0 prediction and s the mean of the residuals, which
    is what the draws converge to. A positive draw count estimates it by
    Monte-Carlo instead, adding zero-mean noise with sd about
    |mean unit_slope| * residual_sd / sqrt(n1 * draws) to the
    counterfactual mean. Deterministic given data (and settings.seed when
    drawing); explained + unexplained equals the initial disparity by
    construction.
    """
    settings = settings or CdaSettings()
    models = _cda_models(data)
    residuals = models.mediator_model.residuals
    draws = settings.mc_draws_per_unit
    if draws == 0:
        return models.result(models.mu0 + float(residuals.sum() / residuals.size))

    # Each unit's counterfactual mediator draws are reduced to their mean
    # one block of whole units at a time, so memory stays O(n1) whatever
    # the draw count. The generator carries its stream across calls and
    # each row mean is reduced alone, so the result equals one (n1, draws)
    # draw bit for bit.
    mu0 = models.mu0
    n1 = mu0.size
    rng = substream(settings.seed)
    rows = max(1, _DRAW_BLOCK // draws)
    mean_m_star = np.empty(n1)
    for start in range(0, n1, rows):
        block = mu0[start:start + rows]
        eps = rng.choice(residuals, size=(block.size, draws), replace=True)
        eps += block[:, None]
        mean_m_star[start:start + rows] = eps.sum(axis=1) / draws
    return models.result(mean_m_star)


_ESTIMATORS = {
    "DIC": lambda data, settings: decompose_dic(data),
    "KOB": lambda data, settings: decompose_kob(data),
    "CDA": lambda data, settings: decompose_cda(data, settings),
}


def _percentile_bounds(values: np.ndarray) -> tuple[float, float]:
    """2.5/97.5 order-statistic bounds: value at 1-based index ceil(q*B).

    The one percentile rule, for bootstrap intervals and simulation reports.

    Indices use integer arithmetic (q = num/den) so binary floating-point
    cannot shift a boundary case (0.025*200 != 5 exactly in floats).
    """
    ordered = np.sort(values)
    b = ordered.size

    def at(num: int, den: int) -> float:
        idx = -((-num * b) // den)  # ceil(num*b/den)
        return float(ordered[max(idx, 1) - 1])

    return at(25, 1000), at(975, 1000)


def bootstrap(
    data: Dataset,
    method: str,
    settings: CdaSettings | None = None,
    B: int = 1000,
    seed: int = 0,
) -> DecompositionResult:
    """Within-group resampling bootstrap for one estimator.

    Resamples rows with replacement separately within each group (group
    sizes preserved), recomputes the estimator B times, and attaches
    2.5/97.5 percentile intervals for initial/explained/unexplained to the
    point estimate on the original data. Replicate b draws from a stream
    keyed by (seed, b), so results do not depend on evaluation order. For
    CDA the point estimate uses settings as given. With the default exact
    expectation the replicates make no draw and derive no seed; with a
    positive draw count each replicate keeps only that count and takes the
    seed stream_seed(seed, b, attempt, 1).
    Resamples that break an estimator precondition (e.g. a degenerate
    design) are retried with fresh draws, up to 10*B failures in total.
    The resample loop holds the OpenBLAS that numpy and scipy bundle to one
    thread, since a second one only spins on these small fits, and
    restores its thread count afterwards; the point estimate keeps the
    caller's threading (one thread under the CLI).
    """
    if method not in _ESTIMATORS:
        raise ValueError(f"unknown method {method!r}")
    if B < 2:
        raise ValueError(f"bootstrap needs B >= 2 replicates, got {B}")
    estimator = _ESTIMATORS[method]
    point = estimator(data, settings)
    derive_seeds = method == "CDA" and (settings or CdaSettings()).mc_draws_per_unit > 0

    idx0, idx1 = data._rows
    failures = 0
    max_failures = 10 * B
    samples = np.empty((B, 3))
    with _one_blas_thread():
        for b in range(B):
            attempt = 0
            while True:
                rng = substream(seed, b, attempt)
                resample = np.concatenate(
                    [
                        idx0[rng.integers(0, idx0.size, idx0.size)],
                        idx1[rng.integers(0, idx1.size, idx1.size)],
                    ]
                )
                replicate_settings = settings
                if derive_seeds:
                    replicate_settings = replace(settings, seed=stream_seed(seed, b, attempt, 1))
                try:
                    result = estimator(data.take(resample), replicate_settings)
                except EstimationError:
                    failures += 1
                    attempt += 1
                    if failures > max_failures:
                        raise EstimationError(
                            f"bootstrap abandoned: {failures} failed resamples "
                            f"(limit {max_failures}) for method {method}"
                        ) from None
                    continue
                samples[b] = (result.initial, result.explained, result.unexplained)
                break

    intervals = {
        name: _percentile_bounds(samples[:, i])
        for i, name in enumerate(DecompositionResult.QUANTITIES)
    }
    return replace(point, intervals=intervals)
