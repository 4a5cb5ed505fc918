"""Least-squares fitting with named columns.

Ordinary least squares through a column-pivoted Householder QR (never the
normal equations), with rank deficiency reported as a hard error that
names a minimal set of linearly dependent columns. The QR and the
triangular solves are scipy's own LAPACK wrappers, the dgeqp3, dorgqr and
dtrtrs of scipy.linalg.lapack, called as scipy.linalg.qr and
solve_triangular call them, so every bit is scipy.linalg's. They are
loaded from their file, so scipy's package is imported only where that
file does not load on its own. Everything downstream is built on fit_ols.
The one exception is the replicate fits of the bootstrap and of the
simulation harness (_GramFits): they solve the normal equations, but only
where the conditioning guarantees agreement with fit_ols to GRAM_TOL, and
leave the rest to fit_ols. Such a fit is its coefficients only; a caller
that needs residuals forms them (_residuals).
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

__all__ = ["EstimationError", "OlsFit", "fit_ols", "partial_r2"]

# Relative pivot threshold below which a diagonal entry of R marks the
# corresponding column as linearly dependent on the better-pivoted ones.
RANK_TOL = 1e-10

# Relative agreement with fit_ols that _GramFits guarantees for every fit
# it accepts; designs it cannot guarantee it for are left to fit_ols.
GRAM_TOL = 1e-10

INTERCEPT = "intercept"


class EstimationError(ValueError):
    """Raised when a model cannot be estimated from the given data."""


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Result of a least-squares fit.

    coefficients maps design column names ("intercept" first) to
    estimates, in design order. residual_sd uses the n - p denominator, p
    counting the intercept. r_factor and pivots are the column-pivoted QR
    factorization of the design (design[:, pivots] = Q R).
    """

    coefficients: dict[str, float]
    residuals: np.ndarray
    residual_sd: float
    r_squared: float
    n: int
    p: int
    r_factor: np.ndarray = field(repr=False)
    pivots: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.residuals.setflags(write=False)

    @property
    def intercept(self) -> float:
        return self.coefficients[INTERCEPT]

    def coef(self, name: str) -> float:
        try:
            return self.coefficients[name]
        except KeyError:
            raise EstimationError(f"fit has no coefficient for {name!r}") from None

    def unscaled_variances(self) -> dict[str, float]:
        """Diagonal of (X'X)^-1 by coefficient name, X being the design.

        Times residual_sd**2 this is each coefficient's squared standard
        error. Computed from the stored R factor on each call.
        """
        r_inv = _solve_upper(self.r_factor, np.eye(self.p))
        diag = np.empty(self.p)
        diag[self.pivots] = np.einsum("ij,ij->i", r_inv, r_inv)
        return {name: float(v) for name, v in zip(self.coefficients, diag)}


def _dependent_set(r: np.ndarray, piv: np.ndarray, k: int, names: list[str]) -> list[str]:
    """Minimal set of mutually dependent columns, from the pivoted R factor.

    Column piv[k] is the first one whose pivot collapsed; expressing it in
    the basis of the k preceding pivot columns and keeping the columns with
    non-negligible weight yields a minimal dependent set.
    """
    dep = names[piv[k]]
    if k == 0:
        return [dep]
    coef = _solve_upper(r[:k, :k], r[:k, k])
    scale = np.max(np.abs(coef)) if coef.size else 0.0
    if scale == 0.0:
        return [dep]
    involved = [names[piv[j]] for j in range(k) if abs(coef[j]) > 1e-8 * scale]
    members = involved + [dep]
    return sorted(members, key=names.index)


# The OpenBLAS builds that the numpy and scipy wheels bundle in
# <package>.libs/, with the symbol pattern of their thread-count controls.
_BUNDLED_OPENBLAS = (
    ("numpy", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "scipy_openblas_{}_num_threads"),
)


def _bundled_openblas(package: str) -> list[Path]:
    """The OpenBLAS builds in package's <package>.libs/, found without
    importing package."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return []
    return sorted((Path(spec.origin).parent.parent / f"{package}.libs").glob("*openblas*"))


@functools.cache
def _openblas_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of each bundled OpenBLAS in this process.

    Looked up on first use. A library is opened only if it is already
    loaded (RTLD_NOLOAD), so no second copy is ever brought in. Builds
    without these symbols (MKL, Accelerate, a system OpenBLAS) give none.
    """
    controls = []
    for package, symbol in _BUNDLED_OPENBLAS:
        for path in _bundled_openblas(package):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get, set_ = (getattr(lib, symbol.format(verb)) for verb in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with every bundled OpenBLAS on one thread; restore after.

    For loops over many small fits, where a second BLAS thread only spins;
    results are bit-identical on those designs. The CLI runs every command
    inside it too: the last bits of tall designs with many columns depend
    on the thread count, and one thread keeps them from depending on the
    machine. Does nothing when no bundled OpenBLAS is found.
    """
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def _flapack_file() -> Path | None:
    """scipy's f2py LAPACK module, scipy/linalg/_flapack<suffix>, found
    without importing scipy; None where scipy has no such file."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    linalg = Path(spec.origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if (linalg / f"_flapack{suffix}").is_file():
            return linalg / f"_flapack{suffix}"
    return None


def _load_flapack():
    """The module whose dgeqp3, dorgqr and dtrtrs scipy.linalg.qr and
    solve_triangular call, loaded here so that set-up counts it.

    scipy/linalg/_flapack is loaded from its file, under a name of this
    package that is left out of sys.modules, so scipy's package is not
    imported. Where that file is missing or does not load on its own,
    scipy.linalg.lapack, which holds the same functions, is imported.
    """
    path = _flapack_file()
    if path is not None:
        # Windows wheels keep the libraries _flapack links to in scipy.libs,
        # which scipy's __init__ adds to the DLL search path.
        libs = path.parents[2] / "scipy.libs"
        if hasattr(os, "add_dll_directory") and libs.is_dir():
            os.add_dll_directory(str(libs))
        loader = importlib.machinery.ExtensionFileLoader("dispdecomp._flapack", str(path))
        try:
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
        except ImportError:
            pass
        finally:
            # Python registers a single-phase extension module as it creates it.
            sys.modules.pop(loader.name, None)
    import scipy.linalg.lapack

    return scipy.linalg.lapack


_FLAPACK = _load_flapack()


def _safecall(routine, *args, **kwargs) -> list[np.ndarray]:
    """routine's outputs before work and info, with its optimal workspace,
    queried first (lwork = -1), as scipy.linalg's safecall does: a smaller
    one makes LAPACK switch to its unblocked code on wide designs, which
    rounds differently."""
    *_, work, info = routine(*args, lwork=-1, **kwargs)
    *outputs, work, info = routine(*args, lwork=int(work[0]), **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return outputs


def _pivoted_qr(design: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economic column-pivoted QR, design[:, piv] = q @ r, for n >= p:
    scipy.linalg.qr(design, mode="economic", pivoting=True). dgeqp3 factors
    a Fortran-ordered copy in place; r is taken from it before dorgqr forms
    Q in its place."""
    qr, jpvt, tau = _safecall(_FLAPACK.dgeqp3, np.array(design, order="F"), overwrite_a=1)
    jpvt -= 1
    r = np.triu(qr[: design.shape[1]])
    (q,) = _safecall(_FLAPACK.dorgqr, qr, tau, overwrite_a=1)
    return q, r, jpvt


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r x = b for upper-triangular r with a nonzero diagonal:
    scipy.linalg.solve_triangular(r, b). dtrtrs reads a C-ordered r as its
    transpose, so that is solved as the lower system, transposed."""
    if r.flags.f_contiguous:
        x, info = _FLAPACK.dtrtrs(r, b)
    else:
        x, info = _FLAPACK.dtrtrs(r.T, b, lower=1, trans=1)
    if info != 0:
        raise ValueError(f"dtrtrs failed with info {info}")
    return x


def _design(columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """The (n, p) design of an intercept and the named columns, each of n rows."""
    design = np.empty((n, len(columns) + 1))
    design[:, 0] = 1.0
    for j, (name, col) in enumerate(columns.items(), start=1):
        arr = np.asarray(col, dtype=np.float64)
        if arr.shape != (n,):
            raise EstimationError(
                f"column {name!r} has shape {arr.shape}, expected ({n},)"
            )
        design[:, j] = arr
    return design


def _residuals(fit: OlsFit | _ReplicateFit, columns: Mapping[str, np.ndarray], response: np.ndarray) -> np.ndarray:
    """response - design @ beta, for a fit's coefficients beta on the columns
    it was fitted to: fit_ols's own residuals of an OlsFit, bit for bit."""
    return response - _design(columns, response.size) @ np.fromiter(fit.coefficients.values(), np.float64)


def fit_ols(columns: Mapping[str, np.ndarray], response: np.ndarray) -> OlsFit:
    """Least squares of response on an intercept and the named columns
    (column-pivoted QR, then triangular solves: scipy.linalg.lapack's
    dgeqp3, dorgqr and dtrtrs, called as scipy.linalg.qr and
    solve_triangular call them).

    Every caller relies on the intercept: CDA's regression standardization,
    KOB's terms summing to the raw gap, and the centred R-squared of
    partial_r2. Raises EstimationError when n < p (insufficient
    observations) or when the design is rank deficient; the rank error
    names a minimal set of linearly dependent columns so the caller can see
    what to drop. An n == p full-rank design interpolates (residual_sd 0,
    zero residuals).
    """
    y = np.asarray(response, dtype=np.float64)
    if y.ndim != 1:
        raise EstimationError("response must be one-dimensional")
    n = y.size
    names = [INTERCEPT] + list(columns)
    p = len(names)
    design = _design(columns, n)
    if n < p:
        raise EstimationError(
            f"insufficient observations: {n} rows for {p} design columns"
        )
    if not np.isfinite(design).all() or not np.isfinite(y).all():
        raise EstimationError("non-finite values in design or response")

    # LAPACK factors a copy: the design itself is read again by the refinement.
    q, r, piv = _pivoted_qr(design)
    diag = np.abs(r.diagonal())
    top = diag[0]
    deficient = np.nonzero(diag <= RANK_TOL * top)[0]
    if top == 0.0 or deficient.size:
        k = 0 if top == 0.0 else int(deficient[0])
        dep = _dependent_set(r, piv, k, names)
        raise EstimationError(
            "design columns are linearly dependent: " + ", ".join(dep)
        )

    beta_piv = _solve_upper(r, q.T @ y)
    beta = np.empty(p)
    beta[piv] = beta_piv
    # One step of iterative refinement; on well-scaled problems this lands
    # small-integer solutions exactly instead of within a few ulp.
    resid0 = y - design @ beta
    beta[piv] += _solve_upper(r, q.T @ resid0)
    residuals = y - design @ beta
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        ssr = float(residuals @ residuals)
        centered = y - y.sum() / n
        sst = float(centered @ centered)
    if not (np.isfinite(ssr) and np.isfinite(sst)):
        # Finite data whose sums of squares overflow: both are taken in units
        # of max |y|, where neither exceeds n (|residuals| <= |y|), and the
        # units cancel in r_squared.
        scale = float(np.max(np.abs(y)))
        residuals_s, y_s = residuals / scale, y / scale
        ssr = float(residuals_s @ residuals_s)
        centered = y_s - y_s.sum() / n
        sst = float(centered @ centered)
    # n == p is an interpolating fit: residuals are identically zero and
    # there are no degrees of freedom left, so residual_sd is 0 by convention.
    residual_sd = 0.0 if n == p else scale * float(np.sqrt(max(ssr, 0.0) / (n - p)))
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    r_squared = min(1.0, max(0.0, r_squared))
    coefficients = {name: float(b) for name, b in zip(names, beta)}
    return OlsFit(
        coefficients=coefficients,
        residuals=residuals,
        residual_sd=residual_sd,
        r_squared=r_squared,
        n=n,
        p=p,
        r_factor=r,
        pivots=piv,
    )


def _scaled(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each Gram matrix with unit diagonal, and the column norms it was scaled by.

    A zero column keeps a zero diagonal, so it reads as singular.
    """
    norms = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    scale = np.where(norms > 0.0, norms, 1.0)
    return gram / scale[..., :, None] / scale[..., None, :], norms


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j], added in order of j.

    A matmul or a numpy sum picks its order of addition by the shape of its
    operands, so the last bits of one replicate's value could depend on
    how many replicates share its block; here they do not.
    """
    total = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j] * b[..., j]
    return total


class _GramFits:
    """fit_ols of one model on each of K replicates, from cross-product matrices.

    The replicates' rows are z = [1, v_1 - shift_1, ...]: an intercept,
    then data columns each shifted by a constant (shift[0] is 0). gram[k]
    is z'z over replicate k's rows. columns indexes z: the design
    (intercept first, named by names), then the response. The solves are
    made for all K at once. coef, intercept and residual_sd give every
    replicate's values as length-K arrays; _ReplicateFit(fits, k) is
    replicate k's coefficients as the estimators read an OlsFit.

    The normal equations square the condition number, so replicate k is
    accepted only when both hold, for the column-scaled Gram matrix of
    design and response together:
    * 2 * (p + 1) * eps times its condition number is at most GRAM_TOL,
      both shifted, as solved here, and unshifted, as fit_ols factors it.
      Both solutions then agree with the exact one to about GRAM_TOL:
      coefficients times their column norms relative to that vector's
      norm, and residuals relative to theirs;
    * sqrt(lambda_min) * min_j |x_j| / max_j |x_j| > 2 * RANK_TOL, with
      the unshifted lambda_min (at most the design's own) and the design
      columns' norms. That bounds sigma_min(X) / max_j |x_j|, and so
      fit_ols's pivot ratio |r_pp / r_11|, from below: fit_ols would
      accept the design too.
    """

    def __init__(self, gram: np.ndarray, shift: np.ndarray, columns: np.ndarray, names: list[str]) -> None:
        design, response = columns[:-1], columns[-1]
        k, p = gram.shape[0], design.size
        model = gram[:, columns[:, None], columns]
        # The unshifted columns are the shifted ones times unshift.
        unshift = np.eye(p + 1)
        unshift[0, 1:] = shift[columns[1:]]
        scaled, norms = _scaled(model)
        unshifted, unshifted_norms = _scaled(unshift.T @ model @ unshift)
        # A Gram matrix that overflowed reads as all zeros: singular, so rejected.
        both = np.concatenate([scaled, unshifted])
        eig = np.linalg.eigvalsh(np.where(np.isfinite(both).all(axis=(1, 2))[:, None, None], both, 0.0))
        limit = 2 * (p + 1) * np.finfo(np.float64).eps / GRAM_TOL
        conditioned = (eig[:, 0] > limit * eig[:, -1]).reshape(2, k).all(axis=0)
        low = np.sqrt(np.maximum(eig[k:, 0], 0.0))
        design_norms = unshifted_norms[:, :p]
        separated = low * design_norms.min(axis=1) > 2 * RANK_TOL * design_norms.max(axis=1)
        self.accepted = conditioned & separated

        ok = np.flatnonzero(self.accepted)
        system = scaled[ok]
        solved = np.zeros((k, p))
        scaled_solution = np.linalg.solve(system[:, :p, :p], system[:, :p, p:])[..., 0]
        solved[ok] = scaled_solution * norms[ok, p:] / norms[ok, :p]
        # The residual's weights on the model's columns of z: design, then response.
        self._weights = np.column_stack([-solved, np.ones(k)])
        self._model = model
        self._coefficients = solved
        self._coefficients[:, 0] += shift[response] - _dot_rows(solved, shift[design])
        self._names = names

    def coef(self, name: str) -> np.ndarray:
        """Each replicate's coefficient of the named design column."""
        return self._coefficients[:, self._names.index(name)]

    @property
    def intercept(self) -> np.ndarray:
        return self._coefficients[:, 0]

    @property
    def residual_sd(self) -> np.ndarray:
        """Each replicate's residual sd, n - p denominator, from the quadratic
        form w'Gw of its Gram matrix, w being the residual's weights;
        NaN where that form is not finite and positive.

        For an accepted replicate the form's relative rounding error is
        about (p + 1)^2 * eps / lambda_min of the column-scaled Gram matrix,
        which acceptance holds below (p + 1) * GRAM_TOL / 2; w's own error
        enters only to second order, since w minimizes the form.
        """
        w = self._weights
        ssr = _dot_rows(w, _dot_rows(self._model, w[:, None, :]))
        n, p = self._model[:, 0, 0], len(self._names)
        return np.where(np.isfinite(ssr) & (ssr > 0.0), np.sqrt(np.abs(ssr) / (n - p)), np.nan)


class _ReplicateFit:
    """Replicate k (accepted) of a _GramFits, read as the estimators read an
    OlsFit: its solved coefficients, and no residuals (see _residuals)."""

    def __init__(self, fits: _GramFits, k: int) -> None:
        self.coefficients = dict(zip(fits._names, fits._coefficients[k].tolist()))

    @property
    def intercept(self) -> float:
        return self.coefficients[INTERCEPT]

    coef = OlsFit.coef


# Kept public for perfbench/workloads.py, which traces it by name.
def partial_r2(
    columns: Mapping[str, np.ndarray],
    response: np.ndarray,
    focal: str,
    controls: Iterable[str],
) -> float:
    """Partial R-squared of the focal column given the control columns.

    Both models include an intercept. Defined as
    (R2_full - R2_reduced) / (1 - R2_reduced), clamped to [0, 1]; raises
    EstimationError when the reduced model is already perfect.
    """
    control_names = list(controls)
    if focal in control_names:
        raise EstimationError(f"focal column {focal!r} also appears in controls")
    missing = [c for c in control_names + [focal] if c not in columns]
    if missing:
        raise EstimationError(f"unknown column {missing[0]!r}")
    reduced = fit_ols({c: columns[c] for c in control_names}, response)
    if reduced.r_squared >= 1.0 - 1e-12:
        raise EstimationError(
            f"response fully explained without focal column {focal!r}"
        )
    full = fit_ols({c: columns[c] for c in control_names + [focal]}, response)
    value = (full.r_squared - reduced.r_squared) / (1.0 - reduced.r_squared)
    return min(1.0, max(0.0, value))
