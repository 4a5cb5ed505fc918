"""Three decompositions of a group disparity in an outcome.

All three attribute part of the mean outcome gap between group 1 and
group 0 to a mediator, but they answer different questions:

* difference-in-coefficients (DIC): how much does the group coefficient in
  a pooled outcome regression shrink when the mediator is added?
* Kitagawa-Oaxaca-Blinder (KOB): split the raw mean gap into parts
  explained by group differences in covariate/mediator levels (weighted by
  group-1 slopes) and an unexplained remainder (intercept and slope gaps).
* causal decomposition (CDA): contrast group-1 outcomes against a
  counterfactual in which each group-1 unit's mediator follows the
  group-0 mediator model at the same baseline-covariate values. Every
  model is linear with an intercept, so the counterfactual mean is the
  group-0 fits read at the group-1 baseline means, computed exactly by
  default; Monte-Carlo imputation is kept as an explicit option. The
  initial disparity here is standardized to the group-1
  baseline-covariate distribution, so baseline pathways are excluded from
  it by design.

A within-group resampling bootstrap provides percentile intervals for any
of the three on a single dataset.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from ._streams import stream_seed, substream
from .regress import INTERCEPT, EstimationError, OlsFit, _GramFits, _one_blas_thread, _ReplicateFit, _residuals, fit_ols
from .tabular import Dataset, RoleSpec

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

# The largest draw total Generator.multinomial accepts: a signed 64-bit count.
_MAX_DRAWS = np.iinfo(np.int64).max


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


def _check_integers(**values: object) -> None:
    """Raise ValueError unless each value is an int or numpy integer, not a bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CdaSettings:
    """CDA's Monte-Carlo knobs: residual draws per group-1 unit, and their seed.

    The default of 0 draws computes the counterfactual mean exactly, as the
    limit of infinitely many draws, and never reads the seed. A positive
    count runs the Monte-Carlo imputation with that many draws per unit,
    made as one multinomial count draw from substream(seed).
    """

    mc_draws_per_unit: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(mc_draws_per_unit=self.mc_draws_per_unit, seed=self.seed)
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


def _result(
    method: str, split: tuple[float, float, float], data: Dataset, detail: DicDetail | KobDetail | None = None
) -> DecompositionResult:
    """The DecompositionResult of a body's (initial, explained, unexplained) on data."""
    initial, explained, unexplained = split
    scale = float(np.max(np.abs(data.column(data.roles.outcome))))
    proportion = None if abs(initial) <= PROPORTION_EPS * scale else 100.0 * explained / initial
    return DecompositionResult(method, initial, explained, unexplained, proportion, detail)


def _fit(data: Dataset, group: int | None, names: tuple[str, ...], response: str) -> OlsFit | _ReplicateFit:
    """fit_ols of response on the named columns, over one group's rows or all (None).

    Each (group, names, response) is fitted once per Dataset: a repeated
    request returns the same OlsFit. Names are kept in their order, because
    pivoted QR of the same columns in another order can differ in the last
    bits. A fit that raises is not kept. A bootstrap replicate's memo may
    already hold a _ReplicateFit (Gram-solved coefficients) for the key,
    which is returned as it is.
    """
    key = (group, names, response)
    fit = data._fits.get(key)
    if fit is None:
        rows = slice(None) if group is None else data._rows[group]
        fit = fit_ols({name: data.column(name)[rows] for name in names}, data.column(response)[rows])
        data._fits[key] = fit
    return fit


class _Source(NamedTuple):
    """What an estimator body reads: the roles, fit(group, names, response)
    as _fit takes them, and means(group, names) as _group_means takes them.

    For one Dataset (_source) the fits are OlsFits (or a bootstrap
    replicate's _ReplicateFits) and every value is a float; for a block of
    replicates the coefficients and means are length-K arrays. No body
    reads residuals. Each estimator's arithmetic is written once, for both.
    """

    roles: RoleSpec
    fit: Callable[[int | None, tuple[str, ...], str], OlsFit | _ReplicateFit | _GramFits]
    means: Callable[[int, tuple[str, ...]], Mapping[str, float | np.ndarray]]


def _source(data: Dataset) -> _Source:
    return _Source(data.roles, partial(_fit, data), partial(_group_means, data))


def _split(initial, explained):
    """(initial, explained, unexplained): the part not explained is the rest."""
    return initial, explained, initial - explained


def _dic(source: _Source):
    """DIC's (initial, explained, unexplained) and its DicDetail."""
    roles = source.roles
    base = (roles.group,) + roles.covariates
    without_m = source.fit(None, base, roles.outcome)
    with_m = source.fit(None, base + (roles.mediator,), roles.outcome)
    alpha = without_m.coef(roles.group)
    beta = with_m.coef(roles.group)
    detail = DicDetail(
        group_coef_without_mediator=alpha,
        group_coef_with_mediator=beta,
        mediator_coef=with_m.coef(roles.mediator),
    )
    return (alpha, alpha - beta, beta), detail


def decompose_dic(data: Dataset) -> DecompositionResult:
    """Difference-in-coefficients decomposition on pooled regressions.

    Fits the outcome on group + intermediate + baseline covariates, then
    refits with the mediator added. The drop in the group coefficient is
    the explained disparity; the remaining coefficient is unexplained.
    """
    split, detail = _dic(_source(data))
    return _result("DIC", split, data, detail)


def _group_means(data: Dataset, g: int, names: tuple[str, ...]) -> dict[str, float]:
    """Mean of each named column over group g's rows."""
    rows = data._rows[g]
    return {name: float(data.column(name)[rows].sum() / rows.size) for name in names}


def _group_fit(source: _Source, g: int, names: tuple[str, ...]) -> OlsFit:
    try:
        return source.fit(g, names, source.roles.outcome)
    except EstimationError as exc:
        raise EstimationError(f"group {g}: {exc}") from exc


def _kob(source: _Source):
    """KOB's (initial, explained, unexplained) and its KobDetail."""
    roles = source.roles
    variables = roles.covariates + (roles.mediator,)
    fit1 = _group_fit(source, 1, variables)
    fit0 = _group_fit(source, 0, variables)
    mean1, mean0 = (source.means(g, variables + (roles.outcome,)) for g in (1, 0))
    explained_by = {z: fit1.coef(z) * (mean1[z] - mean0[z]) for z in variables}
    detail = KobDetail(
        explained_by=explained_by,
        intercept_gap=fit1.intercept - fit0.intercept,
        slope_gaps={z: (fit1.coef(z) - fit0.coef(z)) * mean0[z] for z in variables},
    )
    return _split(mean1[roles.outcome] - mean0[roles.outcome], explained_by[roles.mediator]), detail


def decompose_kob(data: Dataset) -> DecompositionResult:
    """Kitagawa-Oaxaca-Blinder decomposition with group-specific models.

    The initial disparity is the raw mean outcome gap. The headline
    explained term is only the mediator's contribution
    slope1_M x (mean1_M - mean0_M); the full per-variable breakdown,
    including the covariate contributions and the intercept/slope gaps,
    lives in the attached KobDetail.
    """
    split, detail = _kob(_source(data))
    return _result("KOB", split, data, detail)


def _gap(source: _Source, response: str):
    """Group-1 mean of response minus its group-0 regression standardization.

    The group-0 fit of response on the baseline covariates is linear with
    an intercept, so averaging it over the group-1 baseline values is
    evaluating it at their means.
    """
    baseline = source.roles.baseline
    mean1 = source.means(1, baseline + (response,))
    fit = source.fit(0, baseline, response)
    return mean1[response] - (fit.intercept + sum(fit.coef(z) * mean1[z] for z in baseline))


def _cda(source: _Source, mean_draw: Callable[[OlsFit | _ReplicateFit], float] | None = None):
    """CDA's (initial, explained, unexplained).

    mean_draw(fit), when given, is the Monte-Carlo mean of residual draws
    from the residuals of fit, the group-0 mediator model; it is
    subtracted from the mediator gap once every model is fitted.
    """
    roles = source.roles
    try:
        mediator_gap = _gap(source, roles.mediator)
        initial = _gap(source, roles.outcome)
    except EstimationError as exc:
        raise EstimationError(f"baseline models: {exc}") from exc
    try:
        outcome_model = source.fit(1, roles.covariates + (roles.mediator,), roles.outcome)
    except EstimationError as exc:
        # Both group-specific outcome-on-baseline models are preconditions
        # whose failure is reported first. The group-1 one is fitted only
        # here: its design is a column subset of the outcome model's, so a
        # rank deficiency in it also sinks the outcome model.
        try:
            source.fit(1, roles.baseline, roles.outcome)
        except EstimationError as base_exc:
            raise EstimationError(f"baseline models: {base_exc}") from base_exc
        raise EstimationError(f"group 1 outcome model: {exc}") from exc
    if mean_draw is not None:
        mediator_gap -= mean_draw(source.fit(0, roles.baseline, roles.mediator))
    return _split(initial, outcome_model.coef(roles.mediator) * mediator_gap)


def decompose_cda(data: Dataset, settings: CdaSettings | None = None) -> DecompositionResult:
    """Causal decomposition by mediator imputation.

    Over the group-1 units (the standardization population):

    * initial = mean observed outcome minus the group-0 outcome-on-baseline
      regression evaluated at group-1 baseline values (regression
      standardization);
    * the counterfactual gives each unit a mediator from the group-0
      mediator-on-baseline model (its prediction plus a residual of that
      model) and pushes it through the group-1 outcome model;
    * explained = mean observed outcome - counterfactual mean;
      unexplained = initial - explained.

    Both models are linear, so explained is the group-1 outcome model's
    mediator slope times the standardized mediator gap: the group-1 mean
    mediator minus the group-0 mediator model at the group-1 baseline
    means. KOB's explained is the same slope times the raw mediator gap.
    With the default settings.mc_draws_per_unit of 0 the residual adds its
    mean, 0. A positive draw count instead draws n1 * draws residuals with
    replacement, as multinomial counts over the n0 residuals of the group-0
    mediator model (formed from data's group-0 rows and that model's
    coefficients, as fit_ols forms them), and subtracts their mean from the
    gap. This adds zero-mean noise with sd |slope| * sd0 / sqrt(n1 * draws)
    to explained, sd0 being the sd of those residuals. Deterministic given
    data (and settings.seed when drawing). A draw total n1 * draws above
    2**63 - 1, more than the count draw can hold, raises ValueError.
    """
    settings = settings or CdaSettings()

    def mean_draw(fit: OlsFit | _ReplicateFit) -> float:
        n1 = data._rows[1].size
        total = n1 * int(settings.mc_draws_per_unit)
        if total > _MAX_DRAWS:
            raise ValueError(
                f"{n1} group-1 units x {settings.mc_draws_per_unit} draws per unit exceeds "
                f"the limit of {_MAX_DRAWS} draws in total"
            )
        # Only the grand mean of the n1 * draws residual draws enters
        # explained. Drawing with replacement from n0 residuals, it is
        # counts @ residuals / total with multinomial counts, in O(n0)
        # memory whatever the draw count.
        rows = data._rows[0]
        baseline = {name: data.column(name)[rows] for name in data.roles.baseline}
        residuals = _residuals(fit, baseline, data.column(data.roles.mediator)[rows])
        counts = substream(settings.seed).multinomial(total, np.full(rows.size, 1.0 / rows.size))
        return float(counts @ residuals / total)

    return _result("CDA", _cda(_source(data), mean_draw if settings.mc_draws_per_unit else None), data)


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


# Resamples whose fits are solved together: as many as make up this many
# rows (32 at n = 2000) and whose Gram matrices (2 * q^2 floats each) make
# up no more than this many floats, and at least one. A block holds each
# resample's indices until it is used, and their Gram matrices and
# solutions; a resample's rows of z, O(n * q), are gathered in turn.
_GRAM_BLOCK = 2**16


class _GramReplicates:
    """Per-group Gram matrices of blocks of replicates, and their models' solves.

    keys are fit-memo keys (group, names, response), as _fit makes them:
    the models every replicate needs. A replicate's rows are
    z = [1, v - means[v], ...] over the role columns in all_roles() order,
    the group column unshifted; the two groups' Gram matrices add up to the
    pooled one. means must not depend on which replicates share a block,
    so a replicate's fits do not either.
    """

    def __init__(self, roles: RoleSpec, keys: Iterable[tuple], means: Mapping[str, float]) -> None:
        self.index = {name: j for j, name in enumerate(roles.all_roles(), start=1)}
        self.shift = np.zeros(len(self.index) + 1)
        for name, j in self.index.items():
            if name != roles.group:
                self.shift[j] = means[name]
        self.models = []
        for key in keys:
            _, names, response = key
            columns = np.array([0] + [self.index[name] for name in names] + [self.index[response]])
            self.models.append((key, columns, [INTERCEPT, *names]))

    def rows(self, columns: Mapping[str, np.ndarray], order: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The rows of z over equal-length columns by name, in the given order
        of their rows: the transpose of a (q, n) array, so that each column
        of z is written in one contiguous pass."""
        z = np.empty((self.shift.size, len(columns[next(iter(self.index))])))
        z[0] = 1.0
        for name, j in self.index.items():
            np.subtract(columns[name][order], self.shift[j], out=z[j])
        return z.T

    def grams(self, rows: np.ndarray, n0: int, out: np.ndarray) -> None:
        """Write the Gram matrices of one replicate's rows of z, group 0's n0
        rows first, into out, (2, q, q) by group. A product that overflows
        raises no warning: _GramFits rejects it and leaves it to fit_ols."""
        with np.errstate(over="ignore", invalid="ignore"):
            for g, part in enumerate((rows[:n0], rows[n0:])):
                np.matmul(part.T, part, out=out[g])

    def fits(self, grams: np.ndarray) -> dict:
        """A _GramFits of each model over the Gram matrices grams, (2, K, q, q)
        by group, by its key."""
        with np.errstate(over="ignore", invalid="ignore"):
            by_group = {0: grams[0], 1: grams[1], None: grams[0] + grams[1]}
            return {key: _GramFits(by_group[key[0]], self.shift, columns, names) for key, columns, names in self.models}

    def means(self, grams: np.ndarray, names: tuple[str, ...]) -> dict[str, np.ndarray]:
        """Each replicate's mean of each named column over the rows of its
        Gram matrix in grams (K, q, q), from that matrix's first row."""
        count = grams[:, 0, 0]
        return {name: grams[:, 0, self.index[name]] / count + self.shift[self.index[name]] for name in names}

    def blocks(
        self, replicates: Iterable[tuple[np.ndarray, int, object]], size: int
    ) -> Iterator[tuple[list, np.ndarray]]:
        """The replicates, (rows, n0, tag) as grams takes them, in blocks of
        size (the last may be shorter): each block's tags, in order, and
        its Gram matrices, (2, K, q, q) by group. A replicate's rows are
        freed once written, before the next is drawn. Every block is
        written into the same buffer, so a block must be used up before the
        next is asked for."""
        grams = np.empty((2, size, self.shift.size, self.shift.size))
        tags = []
        for rows, n0, tag in replicates:
            self.grams(rows, n0, grams[:, len(tags)])
            del rows
            tags.append(tag)
            if len(tags) == size:
                yield tags, grams
                tags = []
        if tags:
            yield tags, grams[:, : len(tags)]


def _bootstrap(
    data: Dataset,
    methods: list[str],
    settings: CdaSettings | None = None,
    B: int = 1000,
    seed: int = 0,
) -> list[DecompositionResult]:
    """[bootstrap(data, method, settings, B, seed) for method in methods], from one resample loop.

    Resample b's first attempt is drawn, and its Gram matrices written, by
    _GramReplicates.blocks, as the harness's replications are; the block
    keeps its indices, as its tag, for the estimators' Dataset.take.
    """
    for method in methods:
        if method not in _ESTIMATORS:
            raise ValueError(f"unknown method {method!r}")
    _check_integers(B=B, seed=seed)
    if B < 2:
        raise ValueError(f"bootstrap needs B >= 2 replicates, got {B}")
    points = [_ESTIMATORS[method](data, settings) for method in methods]
    derive_seeds = (settings or CdaSettings()).mc_draws_per_unit > 0
    roles = data.roles
    gram = _GramReplicates(roles, data._fits, {name: data.column(name).sum() / data.n for name in roles.all_roles()})
    shifted = gram.rows(data.columns)

    idx0, idx1 = data._rows

    def resample(b: int, attempt: int) -> np.ndarray:
        rng = substream(seed, b, attempt)
        return np.concatenate(
            [idx0[rng.integers(0, idx0.size, idx0.size)], idx1[rng.integers(0, idx1.size, idx1.size)]]
        )

    failures = [0] * len(methods)
    max_failures = 10 * B
    samples = np.empty((len(methods), B, 3))
    block = max(1, min(B, _GRAM_BLOCK // data.n, _GRAM_BLOCK // (2 * gram.shift.size**2)))
    firsts = ((shifted[rows], idx0.size, rows) for rows in (resample(b, 0) for b in range(B)))
    with _one_blas_thread():
        for start, (first, grams) in zip(range(0, B, block), gram.blocks(firsts, block)):
            solved = gram.fits(grams)
            for k, b in enumerate(range(start, start + len(first))):
                # Each slot is emptied as it is used, so the block frees its resamples as it goes.
                rows, first[k] = first[k], None
                fits = {key: _ReplicateFit(model, k) for key, model in solved.items() if model.accepted[k]}
                pending = range(len(methods))
                attempt = 0
                while pending:
                    if attempt:
                        rows, fits = resample(b, attempt), {}
                    replicate = data.take(rows)
                    replicate._fits.update(fits)
                    failed = []
                    for i in pending:
                        replicate_settings = settings
                        if derive_seeds and methods[i] == "CDA":
                            replicate_settings = replace(settings, seed=stream_seed(seed, b, attempt, 1))
                        try:
                            result = _ESTIMATORS[methods[i]](replicate, replicate_settings)
                        except EstimationError:
                            failures[i] += 1
                            if failures[i] > max_failures:
                                raise EstimationError(
                                    f"bootstrap abandoned: {failures[i]} failed resamples "
                                    f"(limit {max_failures}) for method {methods[i]}"
                                ) from None
                            failed.append(i)
                            continue
                        samples[i, b] = (result.initial, result.explained, result.unexplained)
                    pending = failed
                    attempt += 1

    return [
        replace(point, intervals={
            name: _percentile_bounds(samples[i, :, j])
            for j, name in enumerate(DecompositionResult.QUANTITIES)
        })
        for i, point in enumerate(points)
    ]


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
    B (at least 2) and seed must be ints or numpy integers, not bools.

    Several methods share one loop (the CLI's --method all): each resample
    is drawn and copied once (Dataset.take) for every method that needs it,
    and each method keeps its own attempt count and failure budget, so it
    sees the resamples it would see alone and gets the same results.
    The point estimates are pivoted-QR fits (fit_ols); the fits they made
    name the models that every replicate needs. A first attempt's fit memo
    gets them before the estimators run, as its coefficients solved from
    per-group cross-product (Gram) matrices, in blocks of resamples whose
    rows are each gathered once; they agree with fit_ols on the same rows
    to GRAM_TOL relative. A block is as many resamples as make up 2**16
    rows (32 at n = 2000; one above n = 32 768), but no more than 2**16
    floats of Gram matrices hold. It holds their indices until each is
    used, so the loop's traced peak beyond the data is about 30 float64
    values per row at n = 5e4, where blocks of 32 resamples read 67.5; at
    n = 2e5 the one-resample blocks, each solving every model, ran about
    12% slower than blocks of 32 (B = 64, on 2 vCPUs). Such a fit holds
    no residuals: CDA with explicit draws forms them from the resample's
    data, as on any data. A model too ill-conditioned to promise that
    agreement, and every model of a retried resample, is fitted by
    fit_ols, so resamples are retried exactly when fit_ols rejects them.
    The resample loop holds the OpenBLAS that numpy and scipy bundle to one
    thread, since a second one only spins on these small fits and solves,
    and restores its thread count afterwards; the point estimate keeps the
    caller's threading (one thread under the CLI).
    """
    return _bootstrap(data, [method], settings, B, seed)[0]
