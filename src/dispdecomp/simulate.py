"""Linear-SEM scenario generator, analytic truth oracle, and replication harness.

The data-generating model, in topological order (coefficients below are the
defaults; every scenario uses the subset of variables it declares):

    R ~ Bernoulli(p_r)                                  group indicator
    C = 1.0 - 0.5 R + N(0, 1)                           baseline covariate
    U ~ N(0, 1)                                         unmeasured confounder
    X_k = 0.4 R + 0.2 C + lam_x U + N(0, 1), k = 1..3   intermediate covariates
    M = 1 - 0.6 R + 0.1 C + 0.2 sum(X) + lam_m U + N(0, 1)
    Y = 0.5 R + 0.3 C + 0.25 sum(X) + 0.4 M + lam_y U + N(0, 1)

Scenario tags select which variables exist and which confounder loadings
may be nonzero (active loadings default to 0.5):

    none     no C, no X, no U
    c-only   C only
    x-only   X only
    cx       C and X
    xm-conf  C, X, and U loading on X and M (collider structure)
    my-conf  C, X, and U loading on M and Y (mediator-outcome confounding)
    both     C, X, and U loading on X, M, and Y

One table (_STRUCTURE) gives each scenario's structure, and one list of
equations (_equations) gives the SEM after R; the generator and the truth
oracle both read that list. Truths come from closed-form moment
propagation, never from sampling: the implied means/covariances give
population regression projections for the pooled and group-specific
models, and a noise-free walk of the equations gives the
conditional-expectation estimands for the causal decomposition. Because
estimator targets are defined by each method's own assumptions, the truth
oracle evaluates projections on the confounder-free twin of the
configuration (the equations without their U terms); for unconfounded
scenarios the twin is the scenario itself, and the causal estimands are
identical either way since the confounder is mean-zero and independent of
the group and baseline variables. The oracle's independence from the
generator is held by the tests: a hand-expanded copy of the generator,
hand-derived truths, and a 10^6-row brute-force check.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ._streams import substream
from .decompose import (
    _ESTIMATORS,
    METHODS,
    _cda,
    _check_integers,
    _dic,
    _gap,
    _GramReplicates,
    _kob,
    _percentile_bounds,
    _Source,
)
from .regress import EstimationError, _one_blas_thread
from .sensitivity import SensitivityParams, _adjusted, _explained_away, _pooled_fits, adjust
from .tabular import DataError, Dataset, RoleSpec

__all__ = [
    "SCENARIOS",
    "BaselineEquation",
    "IntermediateEquation",
    "MediatorEquation",
    "OutcomeEquation",
    "SemCoefficients",
    "ScenarioConfig",
    "MethodTruth",
    "TrueValues",
    "CellSummary",
    "SimulationReport",
    "default_coefficients",
    "config_from_json",
    "generate",
    "compute_truths",
    "baseline_pathway_contribution",
    "intermediate_pathway_contribution",
    "oracle_sensitivity_params",
    "oracle_explained_bias",
    "run_harness",
]

class _Structure(NamedTuple):
    baseline: bool  # C exists
    intermediate: bool  # X1..Xk exist
    loads: tuple[str, ...]  # which of X, M and Y the confounder U loads on


_STRUCTURE = {
    "none": _Structure(False, False, ()),
    "c-only": _Structure(True, False, ()),
    "x-only": _Structure(False, True, ()),
    "cx": _Structure(True, True, ()),
    "xm-conf": _Structure(True, True, ("X", "M")),
    "my-conf": _Structure(True, True, ("M", "Y")),
    "both": _Structure(True, True, ("X", "M", "Y")),
}

SCENARIOS = tuple(_STRUCTURE)

ACTIVE_LOADING = 0.5

# Kept for perfbench/workloads.py, which checks sim-suite reports against it.
HARNESS_METHODS = METHODS
ADJUSTED_METHOD = "CDA_adjusted"


def _structure(scenario: str) -> _Structure:
    try:
        return _STRUCTURE[scenario]
    except (KeyError, TypeError):
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}") from None


@dataclass(frozen=True)
class BaselineEquation:
    intercept: float = 1.0
    on_group: float = -0.5
    noise_sd: float = 1.0


@dataclass(frozen=True)
class IntermediateEquation:
    intercept: float = 0.0
    on_group: float = 0.4
    on_baseline: float = 0.2
    on_confounder: float = 0.0
    noise_sd: float = 1.0


@dataclass(frozen=True)
class MediatorEquation:
    intercept: float = 1.0
    on_group: float = -0.6
    on_baseline: float = 0.1
    on_intermediate: tuple[float, ...] = (0.2, 0.2, 0.2)
    on_confounder: float = 0.0
    noise_sd: float = 1.0


@dataclass(frozen=True)
class OutcomeEquation:
    intercept: float = 0.0
    on_group: float = 0.5
    on_baseline: float = 0.3
    on_intermediate: tuple[float, ...] = (0.25, 0.25, 0.25)
    on_mediator: float = 0.4
    on_confounder: float = 0.0
    noise_sd: float = 1.0


@dataclass(frozen=True)
class SemCoefficients:
    """Structural coefficients; the confounder is always standard normal."""

    p_r: float = 0.5
    baseline: BaselineEquation = BaselineEquation()
    intermediate: tuple[IntermediateEquation, ...] = (
        IntermediateEquation(),
        IntermediateEquation(),
        IntermediateEquation(),
    )
    mediator: MediatorEquation = MediatorEquation()
    outcome: OutcomeEquation = OutcomeEquation()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intermediate", tuple(self.intermediate))
        object.__setattr__(
            self, "mediator", replace(self.mediator, on_intermediate=tuple(self.mediator.on_intermediate))
        )
        object.__setattr__(
            self, "outcome", replace(self.outcome, on_intermediate=tuple(self.outcome.on_intermediate))
        )
        if not 0.0 < self.p_r < 1.0:
            raise ValueError(f"p_r must be in (0,1), got {self.p_r}")
        sds = (
            [self.baseline.noise_sd, self.mediator.noise_sd, self.outcome.noise_sd]
            + [eq.noise_sd for eq in self.intermediate]
        )
        for sd in sds:
            if not sd > 0.0:
                raise ValueError(f"noise sds must be > 0, got {sd}")
        k = len(self.intermediate)
        if len(self.mediator.on_intermediate) != k or len(self.outcome.on_intermediate) != k:
            raise ValueError(
                "mediator/outcome on_intermediate lengths must match the "
                f"number of intermediate equations ({k})"
            )


def default_coefficients(scenario: str) -> SemCoefficients:
    """Default coefficient set with the scenario's active confounder loadings."""
    loads = _structure(scenario).loads
    coefs = SemCoefficients()

    def load(eq, variable: str):
        return replace(eq, on_confounder=ACTIVE_LOADING) if variable in loads else eq

    return replace(
        coefs,
        intermediate=tuple(load(eq, "X") for eq in coefs.intermediate),
        mediator=load(coefs.mediator, "M"),
        outcome=load(coefs.outcome, "Y"),
    )


_BOUNDS = {"n": (50, 10**7), "reps": (1, 10**6)}


def _decimal(value: int) -> str:
    """value in decimal, or its digit count when str() refuses to write that many."""
    try:
        return str(value)
    except ValueError:  # more than sys.get_int_max_str_digits()
        size = abs(int(value))
        digits = int((size.bit_length() - 1) * math.log10(2))  # at most the count
        while 10**digits <= size:
            digits += 1
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {digits} digits, too many to show"


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation. n, reps and seed are integers (not bool), with
    50 <= n <= 10**7 and 1 <= reps <= 10**6; coefficients=None takes the
    scenario's defaults. run_harness's peak memory is about 27 float64
    values per row (2.2 GB at the top): replication 0's columns and fits,
    held while its last fit_ols factors a design. Later replications hold
    about 18."""

    scenario: str
    n: int = 2000
    reps: int = 200
    seed: int = 0
    coefficients: SemCoefficients | None = None

    def __post_init__(self) -> None:
        loads = _structure(self.scenario).loads
        _check_integers(n=self.n, reps=self.reps, seed=self.seed)
        for name, (low, high) in _BOUNDS.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {_decimal(value)}")
            if value > high:
                raise ValueError(f"{name} must be <= {high}, got {_decimal(value)}")
        if self.coefficients is None:
            object.__setattr__(self, "coefficients", default_coefficients(self.scenario))
        coefs = self.coefficients
        labelled = [(f"X{i}", eq) for i, eq in enumerate(coefs.intermediate, start=1)]
        for label, eq in labelled + [("M", coefs.mediator), ("Y", coefs.outcome)]:
            if eq.on_confounder != 0.0 and label[0] not in loads:  # X, M or Y
                raise ValueError(
                    f"scenario {self.scenario!r} forbids a confounder loading on {label}"
                )


class _LongInteger(str):
    """Stands for a JSON integer with more digits than int() reads; its text
    is what an error shows. No field takes one."""


def _parse_int(text: str) -> int | _LongInteger:
    try:
        return int(text)
    except ValueError:  # more than sys.get_int_max_str_digits()
        return _LongInteger(f"an integer of {len(text.lstrip('-'))} digits, too many to read")


def _shown(value) -> str:
    """value as an error message shows it: its JSON text, or what _LongInteger says."""
    return value if isinstance(value, _LongInteger) else json.dumps(value)


def _checked(value, kind: str, path: str):
    """value if it is a JSON value of kind ("integer", "number", "object"),
    else a ValueError naming its key path. A number must be finite as a float:
    json.loads also parses NaN, Infinity and -Infinity, which are not JSON
    numbers, and integers beyond the float range (abs(NaN) <= max is False)."""
    types = {"integer": int, "number": (int, float), "object": dict}[kind]
    if (
        isinstance(value, bool)
        or not isinstance(value, types)
        or (kind == "number" and not abs(value) <= sys.float_info.max)
    ):
        raise ValueError(f"{path} must be a JSON {kind}, got {_shown(value)}")
    return value


def _merged(default, value, path: str):
    """The JSON value merged over default, whose type gives the value's kind.

    A dataclass takes an object, merged field by field in declaration order
    (the class ScenarioConfig stands for the document, whose scenario names
    the defaults); a tuple takes an array of its first element's kind,
    non-empty for equations; an int takes a JSON integer and a float a JSON
    number; the scenario name passes on for ScenarioConfig to check. A wrong
    value raises a ValueError naming its key path, in which the keys of the
    document and of its coefficients stand bare.
    """
    if is_dataclass(default):
        spec = _checked(value, "object", path)
        unknown = sorted(set(spec) - {f.name for f in fields(default)})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {path}")
        if default is ScenarioConfig:  # the document: its scenario gives the defaults
            if "scenario" not in spec:
                raise ValueError("scenario config must name a scenario")
            default = ScenarioConfig(spec["scenario"])
        prefix = "" if path in ("scenario config", "coefficients") else f"{path}."
        for f in fields(default):
            if f.name in spec:
                new = {f.name: _merged(getattr(default, f.name), spec[f.name], prefix + f.name)}
                if f.name == "intermediate":
                    # A new list of equations resizes both couplings (broadcasting
                    # their first entry) in the same replace: the lengths must match.
                    k = len(new["intermediate"])
                    for eq in ("mediator", "outcome"):
                        coupling = getattr(default, eq).on_intermediate[:1] * k
                        new[eq] = replace(getattr(default, eq), on_intermediate=coupling)
                default = replace(default, **new)
        return default
    if isinstance(default, tuple):
        equations = is_dataclass(default[0])
        if not isinstance(value, list) or (equations and not value):
            items = "non-empty JSON array of equation objects" if equations else "JSON array of numbers"
            raise ValueError(f"{path} must be a {items}, got {_shown(value)}")
        return tuple(_merged(default[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(default, (int, float)):
        return _checked(value, "integer" if isinstance(default, int) else "number", path)
    return value


def config_from_json(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON document.

    The document's keys are the dataclass fields, merged over the named
    scenario's defaults (see _merged); omitted fields keep those defaults,
    including the scenario's active confounder loadings.
    """
    try:
        return _merged(ScenarioConfig, json.loads(text, parse_int=_parse_int), "scenario config")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON scenario config: {exc}") from exc
    except RecursionError:  # json.loads, or json.dumps quoting a deep value in a message
        raise ValueError("invalid JSON scenario config: nested too deeply") from None


@dataclass(frozen=True)
class MethodTruth:
    initial: float
    explained: float
    unexplained: float

    def quantity(self, name: str) -> float:
        return float(getattr(self, name))


@dataclass(frozen=True)
class TrueValues:
    dic: MethodTruth
    kob: MethodTruth
    cda: MethodTruth

    def for_method(self, method: str) -> MethodTruth:
        if method == ADJUSTED_METHOD:
            return self.cda
        try:
            return getattr(self, method.lower())
        except AttributeError:
            raise ValueError(f"unknown method {method!r}") from None


# ---------------------------------------------------------------------------
# Moment propagation and population projections


class _Moments:
    """Implied means and covariances of the SEM variables, built in order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.mean = np.empty(0)
        self.cov = np.empty((0, 0))

    def add_root(self, name: str, mean: float, var: float) -> None:
        self._append(name, mean, np.zeros(len(self.names)), var)

    def add_linear(self, name: str, intercept: float, weights: dict[str, float], noise_sd: float) -> None:
        w = np.zeros(len(self.names))
        for parent, coef in weights.items():
            w[self.names.index(parent)] = coef
        cross = self.cov @ w
        self._append(name, intercept + float(w @ self.mean), cross, float(w @ cross) + noise_sd**2)

    def _append(self, name: str, mean: float, cross: np.ndarray, var: float) -> None:
        k = len(self.names)
        new_cov = np.zeros((k + 1, k + 1))
        new_cov[:k, :k] = self.cov
        new_cov[:k, k] = cross
        new_cov[k, :k] = cross
        new_cov[k, k] = var
        self.names.append(name)
        self.mean, self.cov = np.append(self.mean, mean), new_cov

    def mean_of(self, name: str) -> float:
        return float(self.mean[self.names.index(name)])

    def project(self, target: str, regressors: list[str]) -> tuple[float, dict[str, float], float]:
        """Population linear projection: intercept, slopes, residual variance."""
        t = self.names.index(target)
        idx = [self.names.index(r) for r in regressors]
        sxx = self.cov[np.ix_(idx, idx)]
        sxy = self.cov[idx, t]
        try:
            coef = np.linalg.solve(sxx, sxy)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                "implied design covariance is singular; degenerate coefficient choice"
            ) from exc
        intercept = self.mean[t] - float(coef @ self.mean[idx])
        resid_var = float(self.cov[t, t] - coef @ sxy)
        return intercept, dict(zip(regressors, (float(c) for c in coef))), max(resid_var, 0.0)


# Marks the place in an equation's terms where its noise is added.
_NOISE = (None, 1.0)


def _x_names(config: ScenarioConfig) -> list[str]:
    if not _structure(config.scenario).intermediate:
        return []
    assert config.coefficients is not None
    return [f"X{i}" for i in range(1, len(config.coefficients.intermediate) + 1)]


def _covariates(config: ScenarioConfig) -> list[str]:
    """Intermediate then baseline covariates, as in RoleSpec.covariates."""
    return _x_names(config) + (["C"] if _structure(config.scenario).baseline else [])


def _equations(config: ScenarioConfig, confounded: bool) -> list[tuple[str, float, list, float]]:
    """The SEM after R in topological order: (name, intercept, terms, noise_sd).

    terms are (parent, coefficient) pairs in the order generate adds them,
    with _NOISE where the noise goes; parents the scenario lacks are left
    out. confounded=False gives the confounder-free twin: no U and no U
    terms. generate, implied_moments and the conditional means all read the
    structural equations from here.
    """
    coefs = config.coefficients
    assert coefs is not None
    structure = _structure(config.scenario)
    has_c = structure.baseline
    loads = structure.loads if confounded else ()

    def given(present: bool, parent: str, coef: float) -> list[tuple[str, float]]:
        return [(parent, coef)] if present else []

    xs = _x_names(config)
    base, med, out = coefs.baseline, coefs.mediator, coefs.outcome
    equations = []
    if has_c:
        equations.append(("C", base.intercept, [("R", base.on_group), _NOISE], base.noise_sd))
    if loads:
        equations.append(("U", 0.0, [_NOISE], 1.0))
    for name, eq in zip(xs, coefs.intermediate):
        terms = [
            ("R", eq.on_group),
            *given(has_c, "C", eq.on_baseline),
            *given("X" in loads, "U", eq.on_confounder),
            _NOISE,
        ]
        equations.append((name, eq.intercept, terms, eq.noise_sd))
    terms = [
        ("R", med.on_group),
        *given("M" in loads, "U", med.on_confounder),
        _NOISE,
        *given(has_c, "C", med.on_baseline),
        *zip(xs, med.on_intermediate),
    ]
    equations.append(("M", med.intercept, terms, med.noise_sd))
    terms = [
        ("R", out.on_group),
        ("M", out.on_mediator),
        *given("Y" in loads, "U", out.on_confounder),
        _NOISE,
        *given(has_c, "C", out.on_baseline),
        *zip(xs, out.on_intermediate),
    ]
    equations.append(("Y", out.intercept, terms, out.noise_sd))
    return equations


def _walk(equations: list, values: dict, noise: Callable[[float], np.ndarray] | None = None) -> dict:
    """Evaluate the equations in order into values; pinned names are kept.

    noise(sd) draws an equation's noise where its terms place it. With
    noise=None every noise is zero.
    """
    for name, intercept, terms, sd in equations:
        if name in values:
            continue
        value = intercept
        for parent, coef in terms:
            if parent is not None:
                value = value + coef * values[parent]
            elif noise is not None:
                value = value + noise(sd)
        values[name] = value
    return values


def implied_moments(
    config: ScenarioConfig, group: int | None = None, confounded: bool = True
) -> _Moments:
    """Propagate the SEM to implied moments.

    group=0/1 conditions on the group indicator (its variance drops to 0);
    confounded=False evaluates the confounder-free twin (loadings zeroed).
    The confounder variable U appears in the moment set only when the
    scenario has one and confounded=True. A noise sd whose square is
    beyond the float range raises a ValueError that names it; so does an
    equation whose coefficients make a mean or covariance that is not
    finite, as soon as that equation is added.
    """
    coefs = config.coefficients
    assert coefs is not None
    fields = {"C": "baseline", "M": "mediator", "Y": "outcome"}
    fields.update({x: f"intermediate[{i}]" for i, x in enumerate(_x_names(config))})
    mom = _Moments()
    if group is None:
        mom.add_root("R", coefs.p_r, coefs.p_r * (1.0 - coefs.p_r))
    else:
        mom.add_root("R", float(group), 0.0)
    for name, intercept, terms, sd in _equations(config, confounded):
        try:
            # An overflow is raised below as an error that names the equation.
            with np.errstate(over="ignore", invalid="ignore"):
                mom.add_linear(name, intercept, {p: c for p, c in terms if p is not None}, sd)
        except OverflowError:  # noise_sd**2 beyond the float range
            raise ValueError(
                f"coefficients.{fields[name]}.noise_sd = {sd!r} is too large: the variance of {name} overflows"
            ) from None
        if not (np.isfinite(mom.mean[-1]) and np.isfinite(mom.cov[-1]).all()):
            raise ValueError(
                f"coefficients.{fields[name]} are too large: the implied mean or covariances of {name} overflow"
            )
    return mom


def _standardized_means(config: ScenarioConfig) -> tuple[dict, dict]:
    """Means of every variable given R = 1 and given R = 0, at the group-1 baseline mean.

    Noise-free walks with U = 0. Exact without any normality assumption:
    the confounder and the noises are mean-zero and independent of (group,
    baseline), so they drop out.
    """
    equations = _equations(config, confounded=False)
    treated = _walk(equations, {"R": 1.0})
    control = _walk(equations, {"R": 0.0, "C": treated.get("C", 0.0)})
    return treated, control


def _cda_truth(config: ScenarioConfig) -> MethodTruth:
    """Closed-form causal estimands, standardized to the group-1 baseline mean.

    All conditional expectations are linear in the baseline value, so
    averaging over the group-1 baseline distribution is evaluation at its
    mean. The counterfactual walks Y with every other group-1 mean pinned
    and M at its group-0 mean. decompose_cda takes the same shortcut: it
    reads its group-0 fits at the group-1 baseline means. A product term
    such as M x C would break both.
    """
    treated, control = _standardized_means(config)
    pinned = {name: v for name, v in treated.items() if name != "Y"}
    counterfactual = _walk(_equations(config, confounded=False), {**pinned, "M": control["M"]})["Y"]
    return MethodTruth(
        initial=treated["Y"] - control["Y"],
        explained=treated["Y"] - counterfactual,
        unexplained=counterfactual - control["Y"],
    )


def compute_truths(config: ScenarioConfig) -> TrueValues:
    """Population truths per method, from implied moments (no sampling).

    Projections are evaluated on the confounder-free twin configuration:
    each method's target is defined under its own no-unmeasured-confounding
    assumption, and in unconfounded scenarios the twin is the scenario
    itself. The causal estimands are computed structurally and are
    unaffected by the confounder either way.
    """
    covariates = _covariates(config)

    pooled = implied_moments(config, confounded=False)
    _, coefs_a, _ = pooled.project("Y", ["R"] + covariates)
    _, coefs_b, _ = pooled.project("Y", ["R"] + covariates + ["M"])
    alpha = coefs_a["R"]
    beta = coefs_b["R"]
    dic = MethodTruth(initial=alpha, explained=alpha - beta, unexplained=beta)

    mom1 = implied_moments(config, group=1, confounded=False)
    mom0 = implied_moments(config, group=0, confounded=False)
    _, coefs_g1, _ = mom1.project("Y", covariates + ["M"])
    raw_gap = mom1.mean_of("Y") - mom0.mean_of("Y")
    explained = coefs_g1["M"] * (mom1.mean_of("M") - mom0.mean_of("M"))
    kob = MethodTruth(initial=raw_gap, explained=explained, unexplained=raw_gap - explained)

    return TrueValues(dic=dic, kob=kob, cda=_cda_truth(config))


def baseline_pathway_contribution(config: ScenarioConfig) -> float:
    """Group effect on the outcome routed through the baseline covariate.

    This is the analytic discrepancy between the raw-gap initial disparity
    (KOB) and the baseline-standardized one (CDA): the group shifts the
    baseline covariate, which feeds the outcome directly, through the
    mediator, and through any intermediate covariates.
    """
    if not _structure(config.scenario).baseline:
        return 0.0
    coefs = config.coefficients
    assert coefs is not None
    med, out = coefs.mediator, coefs.outcome
    dy_dc = out.on_baseline + out.on_mediator * med.on_baseline
    if _structure(config.scenario).intermediate:
        for eq, b_x, a_x in zip(coefs.intermediate, out.on_intermediate, med.on_intermediate):
            dy_dc += eq.on_baseline * (b_x + out.on_mediator * a_x)
    return coefs.baseline.on_group * dy_dc


def intermediate_pathway_contribution(config: ScenarioConfig) -> float:
    """Group effect on the outcome routed through the intermediate covariates
    (directly and via the mediator), excluding any baseline routing.

    This is the analytic discrepancy between the baseline-standardized
    initial disparity (CDA), which keeps intermediate pathways, and the
    fully covariate-adjusted one (DIC), which removes them.
    """
    if not _structure(config.scenario).intermediate:
        return 0.0
    coefs = config.coefficients
    assert coefs is not None
    med, out = coefs.mediator, coefs.outcome
    return sum(
        eq.on_group * (b_x + out.on_mediator * a_x)
        for eq, b_x, a_x in zip(coefs.intermediate, out.on_intermediate, med.on_intermediate)
    )


def oracle_sensitivity_params(config: ScenarioConfig) -> SensitivityParams:
    """Population sensitivity parameters of the scenario's confounder.

    Partial R-squared of the confounder with the outcome given group,
    covariates, and mediator; with the mediator given group and covariates;
    and the sign of the product of its mediator and outcome loadings.
    Scenarios without a confounder get (0, 0, +1).
    """
    if not _structure(config.scenario).loads:
        return SensitivityParams(r2_yu=0.0, r2_mu=0.0, sign=+1)
    coefs = config.coefficients
    assert coefs is not None
    mom = implied_moments(config, confounded=True)
    covariates = _covariates(config)

    def partial(target: str, controls: list[str]) -> float:
        _, _, v_without = mom.project(target, controls)
        _, _, v_with = mom.project(target, controls + ["U"])
        if v_without <= 0.0:
            raise EstimationError(f"{target} fully explained without the confounder")
        return min(1.0, max(0.0, 1.0 - v_with / v_without))

    r2_mu = partial("M", ["R"] + covariates)
    r2_yu = partial("Y", ["R"] + covariates + ["M"])
    product = coefs.mediator.on_confounder * coefs.outcome.on_confounder
    return SensitivityParams(r2_yu=r2_yu, r2_mu=r2_mu, sign=-1 if product < 0 else +1)


def oracle_explained_bias(config: ScenarioConfig) -> float:
    """Population bias of the explained (delta) estimate under mediator-
    outcome confounding, in closed form from the structural coefficients.

    Equals lam_y * (lam_m * var_U / var_M_perp) * Delta_M, where var_M_perp
    is the residual variance of the mediator given group and covariates and
    Delta_M the baseline-standardized mediator gap. Zero when either
    loading is zero.
    """
    coefs = config.coefficients
    assert coefs is not None
    lam_m = coefs.mediator.on_confounder
    lam_y = coefs.outcome.on_confounder
    if lam_m == 0.0 or lam_y == 0.0 or not _structure(config.scenario).loads:
        return 0.0
    mom = implied_moments(config, confounded=True)
    _, _, var_m_perp = mom.project("M", ["R"] + _covariates(config))
    treated, control = _standardized_means(config)
    return lam_y * (lam_m * 1.0 / var_m_perp) * (treated["M"] - control["M"])


# ---------------------------------------------------------------------------
# Generation and the replication harness


def _draw_block(config: ScenarioConfig, reps: range) -> dict[str, np.ndarray]:
    """The observed columns of replications reps, each a (len(reps), n)
    array whose row k is replication reps[k]'s.

    Each replication draws from its own substream, in topological order: R,
    then each equation's noise where its terms place it. The equations are
    evaluated once on the stacked rows, element by element as on one
    replication's columns, so a row does not depend on the others.
    """
    coefs = config.coefficients
    assert coefs is not None
    n = config.n
    rngs = [substream(config.seed, rep, 0) for rep in reps]
    r = np.empty((len(rngs), n))
    for row, rng in zip(r, rngs):
        row[:] = rng.random(n) < coefs.p_r

    def noise(sd: float) -> np.ndarray:
        # sd * z is what rng.normal(0.0, sd, n) draws, as 0.0 + sd * z (only a
        # zero's sign could differ), without its per-call argument handling.
        z = np.empty_like(r)
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        return np.multiply(sd, z, out=z)

    columns = _walk(_equations(config, True), {"R": r}, noise)
    columns.pop("U", None)  # the confounder is unobserved
    return columns


def generate(config: ScenarioConfig, rep_index: int) -> Dataset:
    """One synthetic dataset for replication rep_index (an integer >= 0).

    Deterministic given (config.seed, rep_index); variables are drawn in
    topological order from a per-replication substream. It is the one row
    of a block of one replication, so the harness's blocks hold the same
    columns. Absent variables are omitted from the Dataset entirely.
    """
    _check_integers(rep_index=rep_index)
    if rep_index < 0:
        raise ValueError(f"rep_index must be >= 0, got {rep_index}")
    columns = _draw_block(config, range(rep_index, rep_index + 1))
    roles = RoleSpec(
        group="R",
        outcome="Y",
        mediator="M",
        baseline=("C",) if "C" in columns else (),
        intermediate=tuple(_x_names(config)),
    )
    return Dataset({name: column[0] for name, column in columns.items()}, roles)


@dataclass(frozen=True)
class CellSummary:
    """Aggregate of one (method, quantity) across replications."""

    method: str
    quantity: str
    mean: float
    lower: float
    upper: float
    truth: float
    covered: bool
    mc_standard_error: float
    estimates: tuple[float, ...]


@dataclass(frozen=True)
class SimulationReport:
    scenario: str
    n: int
    reps: int
    seed: int
    cells: tuple[CellSummary, ...]
    warnings: tuple[str, ...]

    def cell(self, method: str, quantity: str) -> CellSummary:
        for c in self.cells:
            if c.method == method and c.quantity == quantity:
                return c
        raise KeyError(f"no cell for ({method}, {quantity})")

    @property
    def methods(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.cells:
            if c.method not in seen:
                seen.append(c.method)
        return tuple(seen)


# Replications generated together: as many as make up this many rows (16
# at the default n of 2000), and at least one. A block holds its columns
# as (block, n) arrays and the rows of one replication at a time; it is
# freed before the next is drawn. The Gram matrices of as many replications
# as make up this many floats (2 * q^2 each) are solved together.
_BLOCK_ROWS = 2**15


@contextlib.contextmanager
def _replication(rep: int) -> Iterator[None]:
    """Names replication rep in a data or estimation error raised in the body."""
    try:
        yield
    except (DataError, EstimationError) as exc:
        raise EstimationError(f"replication {rep}: {exc}") from exc


def _estimates(data: Dataset, params: SensitivityParams | None) -> dict[str, tuple[float, float, float]]:
    results = {method: _ESTIMATORS[method](data, None) for method in METHODS}
    out = {method: (res.initial, res.explained, res.unexplained) for method, res in results.items()}
    if params is not None:
        adj = adjust(results["CDA"], data, params)
        out[ADJUSTED_METHOD] = (adj.tau, adj.delta_adjusted, adj.zeta_adjusted)
    return out


def _block_rows(
    config: ScenarioConfig, gram: _GramReplicates, roles: RoleSpec, reps: range
) -> Iterator[tuple[np.ndarray, int, float]]:
    """Each replication of reps, in order, from one _draw_block of them all,
    as _GramReplicates.blocks takes it: its rows of z (gram.rows) with
    group 0's n0 first, n0, and its max |M| as its tag. The block's columns
    are freed once its last replication is taken, before the next block
    is drawn.

    Nothing here checks what Dataset rejects. A value that is not finite
    makes the Gram matrix of the pooled model that holds its column
    non-finite, and a group with no rows makes its group's Gram matrices
    zero: _GramFits rejects both, so the replication runs on generate's
    Dataset, which raises. R itself is always 0 or 1 (rng.random(n) < p_r);
    only a patched _draw_block could put another value in it.
    """
    columns = _draw_block(config, reps)
    r = columns[roles.group]
    m_max = np.abs(columns[roles.mediator]).max(axis=1)
    for k in range(len(reps)):
        replication = {name: column[k] for name, column in columns.items()}
        rows0, rows1 = np.flatnonzero(r[k] == 0.0), np.flatnonzero(r[k] == 1.0)
        yield gram.rows(replication, np.concatenate([rows0, rows1])), rows0.size, float(m_max[k])


def _block_estimates(
    gram: _GramReplicates, roles: RoleSpec, grams: np.ndarray, m_max: np.ndarray, params: SensitivityParams | None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The estimates by method, (K, 3) arrays, of the K replications whose
    Gram matrices grams (2, K, q, q) holds and whose max |M| is m_max, and a
    mask of the replications whose rows hold them.

    Each model is solved once over the K replications, and the estimator
    bodies and the adjustment run once, with each model's coefficients, the
    group means and the pooled residual sds as length-K arrays. A
    replication is left out of the mask when any of its models is rejected,
    a residual sd's quadratic form is not finite and positive, its mediator
    fails the adjustment's check, or any of its estimates is not finite.
    The arithmetic runs with numpy's floating-point warnings off: the rows
    it marks are recomputed.
    """
    fits = gram.fits(grams)
    source = _Source(roles, lambda *key: fits[key], lambda g, names: gram.means(grams[g], names))
    with np.errstate(all="ignore"):
        splits = {"DIC": _dic(source)[0], "KOB": _kob(source)[0], "CDA": _cda(source)}
        valid = np.logical_and.reduce([model.accepted for model in fits.values()])
        if params is not None:
            outcome_fit, mediator_fit = _pooled_fits(source)
            inputs = (outcome_fit.residual_sd, mediator_fit.residual_sd, _gap(source, roles.mediator))
            initial, explained, unexplained = splits["CDA"]
            _, delta, zeta = _adjusted(explained, unexplained, inputs, params)
            splits[ADJUSTED_METHOD] = (initial, delta, zeta)
            valid &= ~_explained_away(inputs[1], m_max) & np.isfinite(inputs[:2]).all(axis=0)
        estimates = {method: np.column_stack(split) for method, split in splits.items()}
        for values in estimates.values():
            valid &= np.isfinite(values).all(axis=1)
    return estimates, valid


def _replications(config: ScenarioConfig, params: SensitivityParams | None) -> dict[str, np.ndarray]:
    """Every replication's (initial, explained, unexplained) by method, a
    (reps, 3) array; the first failure, in index order, raises.

    Replication 0 runs the public estimators, and the fits they made name
    the models of every later one. Later replications are drawn in blocks
    of _BLOCK_ROWS rows (_block_rows), with no Dataset each, and give only
    their per-group Gram matrices, rows shifted by the population means of
    the configuration. _GramReplicates.blocks gathers those of as many
    replications as _BLOCK_ROWS floats hold (at least one; all 199 later
    ones on the defaults), freeing each replication's rows once they are
    written. Each model is solved once over such a block, and
    _block_estimates gives their estimates as arrays. A replication it
    leaves out runs the public estimators on generate's Dataset of it, in
    index order, so that Dataset or those estimators raise the first
    failure. Replication 0's Dataset is released once its fits have named
    the models.
    """
    methods = METHODS + ((ADJUSTED_METHOD,) if params is not None else ())
    results = {method: np.empty((config.reps, 3)) for method in methods}

    def run(rep: int) -> Dataset:
        with _replication(rep):
            data = generate(config, rep)
            for method, values in _estimates(data, params).items():
                results[method][rep] = values
        return data

    data = run(0)
    moments = implied_moments(config)
    roles = data.roles
    gram = _GramReplicates(roles, data._fits, {name: moments.mean_of(name) for name in roles.all_roles()})
    del data
    q = gram.shift.size
    chunk = max(1, min(_BLOCK_ROWS // (2 * q * q), config.reps - 1))
    block = max(1, _BLOCK_ROWS // config.n)
    draws = itertools.chain.from_iterable(
        _block_rows(config, gram, roles, range(start, min(start + block, config.reps)))
        for start in range(1, config.reps, block)
    )
    for done, (m_max, grams) in zip(range(1, config.reps, chunk), gram.blocks(draws, chunk)):
        estimates, valid = _block_estimates(gram, roles, grams, np.array(m_max), params)
        for method, values in estimates.items():
            results[method][done : done + len(m_max)] = values
        for k in np.flatnonzero(~valid):
            run(done + int(k))
    return results


def run_harness(config: ScenarioConfig, sensitivity: bool = False, workers: int = 1) -> SimulationReport:
    """Replicate generate + estimate, aggregate against the truth oracle.

    Every replication runs DIC, KOB and CDA (METHODS), CDA with its
    exact counterfactual mean, so no replication makes a Monte-Carlo draw.
    sensitivity=True additionally runs the bias adjustment on every
    replication's CDA result with oracle-true parameters computed from the
    configuration's coefficients. Replication 0 runs the public
    estimators on generate's data of it. Later replications are drawn with
    the same bits as generate and estimated by the estimators' own
    arithmetic from Gram solves, which agree with fit_ols on the same rows
    to GRAM_TOL relative (_replications); a replication whose conditioning
    cannot promise that runs the public estimators instead, so its
    estimates, and any error, are theirs. The first replication to fail,
    in index order, raises an EstimationError that names it. A
    replication's estimates do not depend on reps or on the other
    replications that share its block or its solve. Replications run one
    after another in this thread; workers (an
    integer >= 1) is kept for compatibility and changes nothing, and
    per-index substreams make the report byte-identical for any value of
    it. The replications hold the OpenBLAS that numpy and scipy bundle
    to one thread, since a second one only spins on these small fits and
    solves, and restore its thread count afterwards; library callers of
    the estimators outside this loop keep their own threading.
    """
    _check_integers(workers=workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    params = oracle_sensitivity_params(config) if sensitivity else None
    truths = compute_truths(config)

    reps = config.reps
    with _one_blas_thread():
        results = _replications(config, params)

    cells: list[CellSummary] = []
    for method, per_rep in results.items():
        truth = truths.for_method(method)
        for qi, quantity in enumerate(("initial", "explained", "unexplained")):
            values = per_rep[:, qi]
            lower, upper = _percentile_bounds(values)
            t = truth.quantity(quantity)
            mcse = (
                float(values.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("nan")
            )
            cells.append(
                CellSummary(
                    method=method,
                    quantity=quantity,
                    mean=float(values.mean()),
                    lower=lower,
                    upper=upper,
                    truth=t,
                    covered=bool(lower <= t <= upper),
                    mc_standard_error=mcse,
                    estimates=tuple(float(v) for v in values),
                )
            )
    warnings: tuple[str, ...] = ()
    if reps < 20:
        warnings = ("interval unreliable: fewer than 20 replications",)
    return SimulationReport(
        scenario=config.scenario,
        n=config.n,
        reps=reps,
        seed=config.seed,
        cells=tuple(cells),
        warnings=warnings,
    )
