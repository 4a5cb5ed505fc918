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

from dataclasses import dataclass

import numpy as np

from .decompose import DecompositionResult, _gap, _Source, _source
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


def _pooled_fits(source: _Source) -> tuple[OlsFit, OlsFit]:
    """The pooled outcome fit (outcome on group, covariates, and mediator)
    and the pooled mediator fit (mediator on group and covariates), from
    source; a Dataset's are shared through its fit memo. A fit's own error
    is tagged with its model."""
    roles = source.roles
    regressors = (roles.group,) + roles.covariates
    models = (
        ("outcome", regressors + (roles.mediator,), roles.outcome),
        ("mediator", regressors, roles.mediator),
    )
    fits = []
    for label, names, response in models:
        try:
            fits.append(source.fit(None, names, response))
        except EstimationError as exc:
            raise EstimationError(f"pooled {label} model: {exc}") from exc
    return fits[0], fits[1]


def _explained_away(sd_m_perp, m_max):
    """Whether the pooled mediator fit leaves too little residual for the
    bias's scale factor: sd_m_perp at most 1e-12 times max |M| (m_max; a
    zero reads as 1). Scalars or arrays."""
    return sd_m_perp <= 1e-12 * np.where(m_max == 0.0, 1.0, m_max)


def _bias_inputs(data: Dataset) -> tuple[float, float, float]:
    """Observable scale factors: (sd_y_perp, sd_m_perp, mediator gap).

    The sds are the residual sds of the two _pooled_fits, and the gap is
    CDA's baseline-standardized mediator gap (_gap).
    """
    source = _source(data)
    outcome_fit, mediator_fit = _pooled_fits(source)
    sd_m_perp = mediator_fit.residual_sd
    if _explained_away(sd_m_perp, float(np.max(np.abs(data.column(data.roles.mediator))))):
        raise EstimationError("mediator fully explained by observed covariates")
    try:
        gap_m = _gap(source, data.roles.mediator)
    except EstimationError as exc:
        raise EstimationError(f"group 0 mediator model: {exc}") from exc
    return outcome_fit.residual_sd, sd_m_perp, gap_m


def _adjusted(explained, unexplained, inputs, params: SensitivityParams):
    """(bias, explained - bias, unexplained + bias), from the bias inputs
    (sd_y_perp, sd_m_perp, gap_m); scalars or arrays."""
    sd_y_perp, sd_m_perp, gap_m = inputs
    magnitude = (
        np.sqrt(params.r2_yu * params.r2_mu / (1.0 - params.r2_mu))
        * (sd_y_perp / sd_m_perp)
        * np.abs(gap_m)
    )
    bias = params.sign * np.where(gap_m < 0, -1, +1) * magnitude
    return bias, explained - bias, unexplained + bias


def adjust(cda: DecompositionResult, data: Dataset, params: SensitivityParams) -> AdjustedResult:
    """Bias-adjust a causal decomposition for a hypothesized confounder.

    The bias estimate combines the hypothesized partial R-squared pair with
    three observable scale factors: the residual sd of the pooled outcome
    regression, the residual sd of the pooled mediator regression, and the
    baseline-standardized mediator gap. Its sign is params.sign times the
    sign of the mediator gap. The adjusted split subtracts the bias from
    the explained portion and adds it to the unexplained portion,
    preserving their total exactly. It is the one cell of
    grid(cda, data, (params.r2_yu,), (params.r2_mu,), params.sign).
    """
    if cda.method != "CDA":
        raise ValueError(f"adjust applies to CDA results, got method {cda.method!r}")
    return grid(cda, data, (params.r2_yu,), (params.r2_mu,), params.sign).cells[0]


def _partial_r2_from_t(fit: OlsFit, names: list[str]) -> dict[str, float]:
    """Partial R-squared of each named column given the fit's other columns.

    Uses partial R2 = t^2 / (t^2 + df), with the coefficient's t-statistic
    and the fit's residual degrees of freedom (Cinelli & Hazlett 2020).
    This equals partial_r2 with every other design column as a control.
    t is formed before it is squared: it does not depend on the response's
    scale, while the squared coefficient and residual sd can overflow.
    """
    variances = fit.unscaled_variances()
    df = fit.n - fit.p
    out = {}
    for name in names:
        t = fit.coef(name) / (variances[name] ** 0.5 * fit.residual_sd)
        out[name] = t * t / (t * t + df)
    return out


def benchmark(data: Dataset) -> tuple[CovariateBenchmark, ...]:
    """Observed covariate strengths on the two partial R-squared axes.

    For each covariate Z (intermediate or baseline): its partial R-squared
    with the outcome given the group, the mediator, and the other
    covariates; and with the mediator given the group and the other
    covariates. An unmeasured confounder "as strong as Z" would sit at
    that coordinate pair. Sorted by r2_with_y, strongest first; ties keep
    role-order.

    All values come from the t-statistics of the two pooled fits of adjust
    and grid, which a Dataset shares; benchmark makes no other fit. A
    pooled fit that fails raises its own error, tagged with its model. A
    perfect fit (R-squared within 1e-12 of 1) leaves the partial R-squared
    values undefined and raises EstimationError: first for the outcome,
    then for the mediator.
    """
    names = list(data.roles.covariates)
    if not names:
        return ()
    outcome_fit, mediator_fit = _pooled_fits(_source(data))
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
    cells = []
    for a in yu:
        for b in mu:
            params = SensitivityParams(r2_yu=a, r2_mu=b, sign=sign)
            bias, delta, zeta = _adjusted(cda.explained, cda.unexplained, inputs, params)
            cells.append(AdjustedResult(float(bias), float(delta), float(zeta), cda.initial, params))
    return SensitivityGrid(r2_yu_values=yu, r2_mu_values=mu, sign=sign, cells=tuple(cells))
