"""Sensitivity analysis for unmeasured mediator-outcome confounding.

The causal decomposition assumes no unmeasured confounding of the
mediator-outcome relation. This module quantifies how a hypothetical
unmeasured confounder would shift the explained/unexplained split,
parameterized by two partial R-squared values in the style of the
omitted-variable-bias framework of Cinelli & Hazlett (2020):

    r2_yu  share of outcome residual variance (given group, covariates,
           and mediator) the confounder would explain;
    r2_mu  share of mediator residual variance (given group and
           covariates) the confounder would explain;
    sign   direction of the product of the confounder's mediator and
           outcome associations.

The implied absolute bias of the explained portion is

    sqrt(r2_yu * r2_mu / (1 - r2_mu)) * (sd_y_perp / sd_m_perp) * |gap_m|

where sd_y_perp and sd_m_perp are the residual standard deviations of the
pooled outcome and mediator regressions and gap_m is the
baseline-standardized mediator gap. The bias moves between the explained
and unexplained portions; their total is untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import DecompositionResult, _fit, _standardized_gap
from .regress import EstimationError, OlsFit
from .tabular import Dataset

__all__ = [
    "SensitivityParams",
    "AdjustedResult",
    "CovariateBenchmark",
    "SensitivityGrid",
    "adjust",
    "benchmark",
    "grid",
]


@dataclass(frozen=True)
class SensitivityParams:
    """Hypothesized strength and direction of an unmeasured confounder."""

    r2_yu: float
    r2_mu: float
    sign: int = +1

    def __post_init__(self) -> None:
        for name in ("r2_yu", "r2_mu"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class AdjustedResult:
    """Bias-adjusted explained/unexplained split; the total is unchanged."""

    bias: float
    delta_adjusted: float
    zeta_adjusted: float
    tau: float
    params: SensitivityParams


@dataclass(frozen=True)
class CovariateBenchmark:
    """Observed strength of one covariate, for calibrating the parameters."""

    name: str
    r2_with_y: float
    r2_with_m: float


@dataclass(frozen=True)
class SensitivityGrid:
    """Adjustments over a grid of parameter pairs, in input order."""

    r2_yu_values: tuple[float, ...]
    r2_mu_values: tuple[float, ...]
    sign: int
    cells: tuple[AdjustedResult, ...]

    def cell(self, i: int, j: int) -> AdjustedResult:
        """Cell for the i-th outcome value and j-th mediator value."""
        return self.cells[i * len(self.r2_mu_values) + j]


def _pooled_fits(data: Dataset) -> tuple[OlsFit, OlsFit]:
    """The pooled outcome fit (outcome on group, covariates, and mediator)
    and the pooled mediator fit (mediator on group and covariates), shared
    through the Dataset. A fit's own error is tagged with its model."""
    roles = data.roles
    regressors = (roles.group,) + roles.covariates
    models = (
        ("outcome", regressors + (roles.mediator,), roles.outcome),
        ("mediator", regressors, roles.mediator),
    )
    fits = []
    for label, names, response in models:
        try:
            fits.append(_fit(data, None, names, response))
        except EstimationError as exc:
            raise EstimationError(f"pooled {label} model: {exc}") from exc
    return fits[0], fits[1]


def _bias_inputs(data: Dataset) -> tuple[float, float, float]:
    """Observable scale factors: (sd_y_perp, sd_m_perp, mediator gap).

    sd_y_perp is the residual sd of the pooled outcome regression (outcome
    on group, covariates, and mediator); sd_m_perp the residual sd of the
    pooled mediator regression (mediator on group and covariates); the gap
    is the baseline-standardized mediator gap: the group-1 mean mediator
    minus the group-0 mediator-on-baseline model at the group-1 baseline
    means, with no group-1 mediator model. CDA's explained is the group-1
    mediator slope times this same gap.
    """
    outcome_fit, mediator_fit = _pooled_fits(data)
    m = data.column(data.roles.mediator)
    sd_m_perp = mediator_fit.residual_sd
    scale = float(np.max(np.abs(m))) or 1.0
    if sd_m_perp <= 1e-12 * scale:
        raise EstimationError("mediator fully explained by observed covariates")
    try:
        gap_m = _standardized_gap(data, data.roles.mediator)
    except EstimationError as exc:
        raise EstimationError(f"group 0 mediator model: {exc}") from exc
    return outcome_fit.residual_sd, sd_m_perp, gap_m


def _adjust_from_inputs(
    cda: DecompositionResult,
    inputs: tuple[float, float, float],
    params: SensitivityParams,
) -> AdjustedResult:
    sd_y_perp, sd_m_perp, gap_m = inputs
    magnitude = (
        math.sqrt(params.r2_yu * params.r2_mu / (1.0 - params.r2_mu))
        * (sd_y_perp / sd_m_perp)
        * abs(gap_m)
    )
    direction = params.sign * (-1 if gap_m < 0 else +1)
    bias = direction * magnitude
    return AdjustedResult(
        bias=bias,
        delta_adjusted=cda.explained - bias,
        zeta_adjusted=cda.unexplained + bias,
        tau=cda.initial,
        params=params,
    )


def adjust(cda: DecompositionResult, data: Dataset, params: SensitivityParams) -> AdjustedResult:
    """Bias-adjust a causal decomposition for a hypothesized confounder.

    The bias estimate combines the hypothesized partial R-squared pair with
    three observable scale factors: the residual sd of the pooled outcome
    regression, the residual sd of the pooled mediator regression, and the
    baseline-standardized mediator gap. Its sign is params.sign times the
    sign of the mediator gap. The adjusted split subtracts the bias from
    the explained portion and adds it to the unexplained portion,
    preserving their total exactly.
    """
    if cda.method != "CDA":
        raise ValueError(f"adjust applies to CDA results, got method {cda.method!r}")
    return _adjust_from_inputs(cda, _bias_inputs(data), params)


def _partial_r2_from_t(fit: OlsFit, names: list[str]) -> dict[str, float]:
    """Partial R-squared of each named column given the fit's other columns.

    Uses partial R2 = t^2 / (t^2 + df), with the coefficient's t-statistic
    and the fit's residual degrees of freedom (Cinelli & Hazlett 2020).
    This equals partial_r2 with every other design column as a control.
    """
    variances = fit.unscaled_variances()
    df = fit.n - fit.p
    out = {}
    for name in names:
        t_sq = fit.coef(name) ** 2 / (variances[name] * fit.residual_sd**2)
        out[name] = t_sq / (t_sq + df)
    return out


def benchmark(data: Dataset) -> tuple[CovariateBenchmark, ...]:
    """Observed covariate strengths on the two partial R-squared axes.

    For each covariate Z (intermediate or baseline): its partial R-squared
    with the outcome given the group, the mediator, and the other
    covariates; and with the mediator given the group and the other
    covariates. An unmeasured confounder "as strong as Z" would sit at
    that coordinate pair. Sorted by r2_with_y, strongest first; ties keep
    role-order.

    All values come from the t-statistics of two fits: the outcome on
    every column and the mediator on every column. These are the pooled
    fits of adjust and grid, so a Dataset shares them, and benchmark makes
    no other fit. A pooled fit that fails raises its own error, tagged
    with its model. A perfect fit (R-squared within 1e-12 of 1) leaves the
    partial R-squared values undefined and raises EstimationError: first
    for the outcome, then for the mediator.
    """
    names = list(data.roles.covariates)
    if not names:
        return ()
    outcome_fit, mediator_fit = _pooled_fits(data)
    if outcome_fit.r_squared >= 1.0 - 1e-12:
        raise EstimationError("outcome fully explained by group, covariates and mediator")
    if mediator_fit.r_squared >= 1.0 - 1e-12:
        raise EstimationError("mediator fully explained by group and covariates")
    with_y, with_m = _partial_r2_from_t(outcome_fit, names), _partial_r2_from_t(mediator_fit, names)
    out = [
        CovariateBenchmark(name=name, r2_with_y=with_y[name], r2_with_m=with_m[name])
        for name in names
    ]
    out.sort(key=lambda b: -b.r2_with_y)
    return tuple(out)


def grid(
    cda: DecompositionResult,
    data: Dataset,
    r2_yu_values: tuple[float, ...],
    r2_mu_values: tuple[float, ...],
    sign: int = +1,
) -> SensitivityGrid:
    """Adjust over every (r2_yu, r2_mu) pair, rows in input order."""
    if cda.method != "CDA":
        raise ValueError(f"grid applies to CDA results, got method {cda.method!r}")
    yu = tuple(float(v) for v in r2_yu_values)
    mu = tuple(float(v) for v in r2_mu_values)
    if not yu or not mu:
        raise ValueError("grid needs at least one value on each axis")
    inputs = _bias_inputs(data)
    cells = tuple(
        _adjust_from_inputs(cda, inputs, SensitivityParams(r2_yu=a, r2_mu=b, sign=sign))
        for a in yu
        for b in mu
    )
    return SensitivityGrid(r2_yu_values=yu, r2_mu_values=mu, sign=sign, cells=cells)
