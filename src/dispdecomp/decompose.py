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
  group-0 mediator distribution at the same baseline-covariate values,
  estimated by Monte-Carlo imputation. The initial disparity here is
  standardized to the group-1 baseline-covariate distribution, so baseline
  pathways are excluded from it by design.

A within-group resampling bootstrap provides percentile intervals for any
of the three on a single dataset.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._streams import stream_seed, substream
from .regress import EstimationError, OlsFit, fit_ols
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

RESIDUAL_MODES = ("empirical-resample", "parametric-normal")

# |initial| below 1e-9 x the outcome scale makes the explained proportion
# meaningless; it is reported as an explicit undefined marker instead.
PROPORTION_EPS = 1e-9


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
    """Knobs for the Monte-Carlo imputation estimator."""

    mc_draws_per_unit: int = 100
    residual_mode: str = "empirical-resample"
    seed: int = 0
    interactions: bool = False

    def __post_init__(self) -> None:
        if self.mc_draws_per_unit < 1:
            raise ValueError(
                f"mc_draws_per_unit must be >= 1, got {self.mc_draws_per_unit}"
            )
        if self.residual_mode not in RESIDUAL_MODES:
            raise ValueError(
                f"residual_mode must be one of {RESIDUAL_MODES}, got {self.residual_mode!r}"
            )


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


def _columns(data: Dataset, names: tuple[str, ...], mask: np.ndarray | None = None) -> dict[str, np.ndarray]:
    if mask is None:
        return {name: data.column(name) for name in names}
    return {name: data.column(name)[mask] for name in names}


def decompose_dic(data: Dataset) -> DecompositionResult:
    """Difference-in-coefficients decomposition on pooled regressions.

    Fits the outcome on group + intermediate + baseline covariates, then
    refits with the mediator added. The drop in the group coefficient is
    the explained disparity; the remaining coefficient is unexplained.
    """
    roles = data.roles
    y = data.column(roles.outcome)
    base = _columns(data, (roles.group,) + roles.intermediate + roles.baseline)
    without_m = fit_ols(base, y)
    with_m = fit_ols({**base, roles.mediator: data.column(roles.mediator)}, y)
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
    mask = data.group_mask(g)
    y = data.column(data.roles.outcome)[mask]
    try:
        return fit_ols(_columns(data, names, mask), y)
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


def _interaction_columns(
    mediator: str, m: np.ndarray, covariates: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    return {f"{mediator}:{name}": m * col for name, col in covariates.items()}


def decompose_cda(data: Dataset, settings: CdaSettings | None = None) -> DecompositionResult:
    """Causal decomposition by Monte-Carlo mediator imputation.

    Over the group-1 units (the standardization population):

    * initial = mean observed outcome minus the group-0 outcome-on-baseline
      regression evaluated at group-1 baseline values (regression
      standardization);
    * the counterfactual mean redraws each unit's mediator from the group-0
      mediator-on-baseline model (its prediction plus a residual draw) and
      pushes the draws through the group-1 outcome model;
    * explained = mean observed outcome - counterfactual mean;
      unexplained = counterfactual mean - standardized group-0 mean.

    Deterministic given (data, settings.seed); explained + unexplained
    equals the initial disparity by construction.
    """
    settings = settings or CdaSettings()
    roles = data.roles
    mask1 = data.group_mask(1)
    mask0 = data.group_mask(0)
    y = data.column(roles.outcome)
    n1 = int(mask1.sum())

    c0 = _columns(data, roles.baseline, mask0)
    c1 = _columns(data, roles.baseline, mask1)
    try:
        mediator_model = fit_ols(c0, data.column(roles.mediator)[mask0])
        outcome_on_c0 = fit_ols(c0, y[mask0])
        outcome_on_c1 = fit_ols(c1, y[mask1])
    except EstimationError as exc:
        raise EstimationError(f"baseline models: {exc}") from exc

    x1 = _columns(data, roles.intermediate, mask1)
    m1 = data.column(roles.mediator)[mask1]
    g1_cols: dict[str, np.ndarray] = {**c1, **x1, roles.mediator: m1}
    if settings.interactions:
        g1_cols.update(_interaction_columns(roles.mediator, m1, {**c1, **x1}))
    try:
        outcome_model = fit_ols(g1_cols, y[mask1])
    except EstimationError as exc:
        raise EstimationError(f"group 1 outcome model: {exc}") from exc

    mu0 = mediator_model.predict(c1, n=n1)
    rng = substream(settings.seed)
    draws = settings.mc_draws_per_unit
    if settings.residual_mode == "empirical-resample":
        eps = rng.choice(mediator_model.residuals, size=(n1, draws), replace=True)
    else:
        eps = rng.normal(0.0, mediator_model.residual_sd, size=(n1, draws))
    m_star = mu0[:, None] + eps

    # The outcome model is linear in the mediator given the unit's own
    # covariates, so collapse it to per-unit intercept + slope before
    # averaging over draws.
    unit_base = outcome_model.predict(
        {**c1, **x1, roles.mediator: np.zeros(n1),
         **_interaction_columns(roles.mediator, np.zeros(n1), {**c1, **x1})},
        n=n1,
    )
    unit_slope = (
        outcome_model.predict(
            {**c1, **x1, roles.mediator: np.ones(n1),
             **_interaction_columns(roles.mediator, np.ones(n1), {**c1, **x1})},
            n=n1,
        )
        - unit_base
    )
    counterfactual = float(np.mean(unit_base + unit_slope * m_star.mean(axis=1)))

    observed_mean = float(y[mask1].mean())
    standardized_ref = float(outcome_on_c0.predict(c1, n=n1).mean())
    # outcome_on_c1 is fitted for the precondition that both group-specific
    # outcome-on-baseline models exist; its fitted mean over group 1 equals
    # the observed mean used below.
    del outcome_on_c1
    initial = observed_mean - standardized_ref
    explained = observed_mean - counterfactual
    unexplained = counterfactual - standardized_ref
    return DecompositionResult(
        method="CDA",
        initial=initial,
        explained=explained,
        unexplained=unexplained,
        proportion_explained_pct=_proportion(initial, explained, y),
    )


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
    keyed by (seed, b), so results do not depend on evaluation order.
    Resamples that break an estimator precondition (e.g. a degenerate
    design) are retried with fresh draws, up to 10*B failures in total.
    """
    if method not in _ESTIMATORS:
        raise ValueError(f"unknown method {method!r}")
    if B < 2:
        raise ValueError(f"bootstrap needs B >= 2 replicates, got {B}")
    estimator = _ESTIMATORS[method]
    point = estimator(data, settings)

    idx0 = np.nonzero(data.group_mask(0))[0]
    idx1 = np.nonzero(data.group_mask(1))[0]
    failures = 0
    max_failures = 10 * B
    samples = np.empty((B, 3))
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
            if method == "CDA":
                replicate_settings = replace(
                    settings or CdaSettings(), seed=stream_seed(seed, b, attempt, 1)
                )
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
