"""Weighted and generalized least squares with residual-scale conventions.

Every fit runs one batched kernel, :func:`_wls_kernel`, on whitened problems
(rows scaled by sqrt(w), or solved with the lower Cholesky factor of Omega),
each passed as the augmented array [Xw | yw]. The kernel is an R-only QR of
that array followed by :func:`_fit_from_r`, the fit from its R factor alone,
which the Monte Carlo engine also calls on an R it derives without a QR over
J rows. The QR, :func:`_qr_r`, runs numpy's own LAPACK kernel (the gufunc
``np.linalg.qr`` runs) on the caller's array, which it overwrites, rather
than on a copy of it: a Monte Carlo chunk's problems are C x J x (p + 1)
values, and their copy would be the chunk's largest allocation after its
buffers. So every caller of the kernel hands over an array it owns and does
not read again. A once-per-process probe keeps numpy's kernel only where it
gives ``np.linalg.qr``'s bits, and :func:`_qr_r` is ``np.linalg.qr``
elsewhere. :func:`_design` builds every design matrix: the intercept column
first when asked, then the covariates, each row scaled by 1 or, to whiten,
by sqrt(w), all written into one array. :func:`fit_wls` takes the design,
the response and the weight vector w (the semantic se(beta_Yj)^-2) and
whitens [X | y] with :func:`_design`; :func:`fit_gls` takes Omega in place
of w, factors a copy of it in place with :func:`_cholesky_in_place`, the one
Cholesky routine, and whitens [X | y] against that factor with
:func:`_whiten`, the one triangular solve. The estimators divide the rows of
[X | y] by se_Y themselves, then call :func:`fit_wls` with unit weights for
independent variants; for correlated ones the attached
:class:`mrkit.data.CorrelationMatrix` whitens the divided rows with
:func:`_whiten` and the factor it computed in place at load, so no
estimator factors or builds Omega. That dense J x J work (a Cholesky
factor, a triangular whitening) runs on one BLAS thread, inside
:func:`_one_blas_thread`, so ``OPENBLAS_NUM_THREADS`` changes neither the
results nor the CPU cost of ``mrkit analyze --corr``.
None of these adds an intercept: the caller puts one first with
:func:`_design`. Each fits one problem and raises :class:`RankError` on the
kernel's full-rank flag, and :class:`NonFiniteFitError` when a finite
problem's whitened values or fit overflow, with no floating-point warning.
The Monte Carlo engine builds each chunk's whitened (C, J, p + 1) problems,
intercept first and response last, with the same :func:`_design`, fits them
from their R factors, and counts a rank-deficient or non-finite replicate as
failed. R of Xw, Q'yw and the residual norm |r_(p+1,p+1)| all come from the
one R factor of [Xw | yw], and no Q or residual vector is formed; the
coefficients are R^-1 Q'yw through the same inverse of R that gives the
standard errors. Before it is inverted, each column of R is scaled by the
power of two that brings its largest |entry| into [0.5, 1), which is exact.
So the full-rank flag (smallest singular value of that scaled R at least
RANK_TOL times the largest) does not depend on the units of the columns,
and a fit whose inverse or variances would leave the float range unscaled
keeps its digits; every other fit keeps its bits. sigma_hat =
sqrt(weighted RSS / df), with the RSS the square of that residual norm, and
is exactly 0 when df = 0 or the RSS is at most (100 eps)^2 times the
weighted total sum of squares.

The coefficient standard errors returned by the fit functions are "unscaled":
square roots of the diagonal of the unit-variance coefficient covariance
(X'WX)^-1 (or (X'Omega^-1 X)^-1 for the generalized fit). Inference-time
scaling is applied by :func:`scaled_se` according to the chosen
:class:`WeightScheme`:

* fixed-effect: the residual standard error is forced to 1, so the unscaled
  standard error is used as-is;
* multiplicative random-effects: the unscaled standard error is multiplied by
  max(sigma_hat, 1) — inflated under overdispersion, never deflated below the
  fixed-effect value.

Point estimates never depend on the scheme.
"""
from __future__ import annotations

import ctypes
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

__all__ = [
    "RankError",
    "NonFiniteFitError",
    "FactorizationError",
    "WeightScheme",
    "RegressionFit",
    "fit_wls",
    "fit_gls",
    "scaled_se",
    "weighted_var",
    "weighted_cov",
]

# Singular values below RANK_TOL * largest are treated as zero, in R with
# its columns scaled to a largest |entry| in [0.5, 1).
RANK_TOL = 1e-10


class RankError(ValueError):
    """Design matrix is rank deficient (collinear or zero columns)."""


class NonFiniteFitError(ValueError):
    """A finite problem's whitened values or fit overflowed the float range."""


class FactorizationError(ValueError):
    """Covariance matrix factorization failed (not positive definite)."""


# The (get, set) thread-count functions of an OpenBLAS: numpy's wheel,
# scipy's wheel, a system library.
_OPENBLAS_THREAD_APIS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_BLAS_THREADS_LOCK = threading.RLock()


@cache
def _openblas_thread_apis() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS loaded.

    Looks each API up in every shared object this process has mapped, as
    listed in /proc/self/maps, without loading anything new; an extension
    that links OpenBLAS resolves the same function, so each is kept once, by
    address. Empty when /proc cannot be read or no OpenBLAS is loaded.

    The answer is cached at the first call, so an OpenBLAS loaded later is
    never found. Importing mrkit loads no scipy module, so each caller of
    :func:`_one_blas_thread` imports the scipy module it calls before it
    enters: :func:`_cholesky_in_place` and :func:`_whiten` import
    scipy.linalg first, and the eigenvalue message of
    :class:`mrkit.data.CorrelationMatrix` runs only after
    :func:`_cholesky_in_place` has.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.rstrip("\n").split(None, 5) for line in maps]
    except OSError:
        return ()
    paths = sorted({f[5] for f in fields if len(f) == 6 and ".so" in f[5]})
    apis, seen = [], set()
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for names in _OPENBLAS_THREAD_APIS:
            get, set_ = (getattr(library, name, None) for name in names)
            if get is None or set_ is None:
                continue
            address = ctypes.cast(get, ctypes.c_void_p).value
            if address not in seen:
                seen.add(address)
                apis.append((get, set_))
    return tuple(apis)


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread.

    Dense J x J work gains nothing from a second BLAS thread here, and after
    each threaded call the idle worker busy-waits for about a tenth of a
    second; a threaded factor also differs in its last bits from the
    one-thread factor. The saved counts come back on exit, also when the body
    raises, and a module lock keeps concurrent callers from interleaving
    save and restore. Without OpenBLAS it does nothing.
    """
    with _BLAS_THREADS_LOCK:
        apis = _openblas_thread_apis()
        saved = [get() for get, _ in apis]
        try:
            for _, set_ in apis:
                set_(1)
            yield
        finally:
            for (_, set_), count in zip(apis, saved):
                set_(count)


class WeightScheme(Enum):
    FIXED_EFFECT = "fixed"
    MULTIPLICATIVE_RANDOM_EFFECT = "random"


@dataclass(frozen=True)
class RegressionFit:
    """Result of a (generalized) weighted least-squares fit.

    coefficients: length p, intercept first when present.
    unscaled_se: sqrt of the diagonal of the unit-variance covariance.
    residual_scale: sigma_hat = sqrt(weighted RSS / df_residual); 0 with the
        exact_fit flag set when df_residual = 0 or the fit is exact.
    """

    coefficients: np.ndarray
    unscaled_se: np.ndarray
    residual_scale: float
    df_residual: int
    exact_fit: bool


def _as_problem(design: np.ndarray,
                response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J x p design (a vector is one column), length-J response, J >= p."""
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("design must be a J x p matrix")
    y = np.asarray(response, dtype=float)
    j, p = x.shape
    if y.shape != (j,):
        raise ValueError("response length does not match design")
    if j < p:
        raise ValueError(f"J={j} observations < {p} parameters")
    return x, y


def _design(columns, intercept: bool, row_scale=1.0,
            out: np.ndarray | None = None) -> np.ndarray:
    """The design [1, c_1, ..., c_k], each row scaled by ``row_scale``.

    ``columns`` holds k arrays of one shape, (J,) or (C, J); the column of
    ones comes first only with ``intercept``. A ``row_scale`` of sqrt(w)
    whitens a weighted fit (the ones column becomes sqrt(w)); the default 1
    leaves every value as it is. The result is one (..., J, intercept + k)
    array, written in place column by column into ``out`` (a new array when
    not given). With the response as the last column it is the kernel's
    augmented problem [Xw | yw].
    """
    first = int(intercept)
    design = out if out is not None else np.empty(
        np.shape(columns[0]) + (first + len(columns),))
    if intercept:
        design[..., 0] = row_scale
    for i, column in enumerate(columns):
        np.multiply(column, row_scale, out=design[..., first + i])
    return design


# Weighted RSS at or below this fraction of the weighted total sum of squares
# is rounding noise: an exactly-linear response would otherwise get
# sigma ~ 1e-16 instead of 0.
_EXACT_FIT_RATIO = (100.0 * np.finfo(float).eps) ** 2


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError(
        "Incorrect argument found while performing QR factorization")


def _run_qr_kernel(kernel, problems: np.ndarray) -> np.ndarray:
    """Run numpy's R-only QR kernel over ``problems`` as np.linalg.qr does.

    The kernel leaves R in the upper triangle of each problem's top rows and
    the Householder vectors below it. R is returned as np.linalg.qr returns
    it: a new (C, min(J, n), n) array, the upper triangle of those rows.
    LAPACK argument faults raise LinAlgError, and the arithmetic raises no
    warning.
    """
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        kernel(problems, signature="d->d")
    rows, columns = problems.shape[-2:]
    return np.triu(problems[..., :min(rows, columns), :])


@cache
def _in_place_qr():
    """numpy's R-only QR kernel, or None where it cannot be trusted in place.

    ``np.linalg.qr(a, mode="r")`` copies the whole of ``a`` and then runs
    the gufunc ``numpy.linalg._umath_linalg.qr_r_raw`` on the copy, which
    factors each problem through a Fortran-ordered buffer of its own and
    writes the result back over its input. Run on the caller's batch, it
    needs no copy. It is a private name, so it is kept only if it exists
    and, once per process, gives exactly ``np.linalg.qr``'s R on a batch
    laid out as the Monte Carlo chunk buffers are: planes of (C, J) values
    seen as (C, J, n).
    """
    try:
        from numpy.linalg import _umath_linalg

        kernel = _umath_linalg.qr_r_raw
        # Generic full-rank values, made without a random generator, whose
        # first use would cost this process more memory than the probe.
        batch = np.cos(np.arange(135.0) ** 2).reshape(5, 3, 9)
        batch = batch.transpose(1, 2, 0)
        want = np.linalg.qr(batch, mode="r")
        got = _run_qr_kernel(kernel, batch)
    # A private kernel may be missing or take other arguments.
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    return kernel if got.tobytes() == want.tobytes() else None


def _qr_r(problems: np.ndarray) -> np.ndarray:
    """The R factor of each problem of a (C, J, n) batch, factored in place.

    ``problems`` must be a writeable, aligned float64 array, and this
    overwrites it with the factorization (R over Householder vectors). The
    result is exactly ``np.linalg.qr(problems, mode="r")``: a new
    (C, min(J, n), n) array, the size of R alone, in the same layout, so a
    fit from it keeps its bits. Where numpy's kernel fails its probe (see
    :func:`_in_place_qr`), this is ``np.linalg.qr``, which copies the batch
    and leaves it as it was.
    """
    if not (problems.dtype == np.float64 and problems.flags.writeable
            and problems.flags.aligned):
        raise ValueError("needs a writeable, aligned float64 array")
    kernel = _in_place_qr()
    if kernel is None:
        return np.linalg.qr(problems, mode="r")
    return _run_qr_kernel(kernel, problems)


def _wls_kernel(problem: np.ndarray):
    """Least squares on C whitened problems at once; never raises on values.

    ``problem`` is the (C, J, p + 1) augmented array [Xw | yw] with J >= p,
    writeable float64, and the fit overwrites it: its QR (:func:`_qr_r`)
    runs in place, so every caller hands over an array it owns and does not
    read again (the single-dataset fits the output of :func:`_design` or
    :func:`_whiten`, the Monte Carlo engine its chunk buffers). Returns
    (coefficients (C, p), unscaled se (C, p), residual scale (C,), full-rank
    flag (C,)). A problem that is not full rank, or whose design is not
    finite, gets NaN in every numeric output.
    """
    return _fit_from_r(_qr_r(problem), problem.shape[-2])


def _fit_from_r(r: np.ndarray, rows: int):
    """The :func:`_wls_kernel` fit of C problems of ``rows`` rows from their R.

    ``r`` is the (C, min(rows, p + 1), p + 1) R factor of the augmented
    problems [Xw | yw], or of any array with the same R up to the signs of
    its rows: its leading p x p block is R of Xw, the top of its last column
    is Q'yw, and the rest of that column has the norm of the residuals (it
    is empty when rows = p).
    """
    p = r.shape[-1] - 1
    r_x, tail = r[:, :p, :p], r[:, :, p]
    # Scale each column of R by the power of two that brings its largest
    # |entry| into [0.5, 1): R D is the R of X D, and a power of two scales
    # exactly, so neither the rank test nor the inverse depends on the
    # columns' units.
    _, exponents = np.frexp(np.max(np.abs(r_x), axis=1))
    r_x = np.ldexp(r_x, -exponents[:, None, :])
    # Triangular R is invertible exactly when its diagonal has no zero; the
    # others invert the identity, so the batch cannot fail, and are flagged.
    full_rank = (np.all(np.diagonal(r_x, axis1=1, axis2=2) != 0.0, axis=1)
                 & np.all(np.isfinite(r_x), axis=(1, 2)))
    if not full_rank.all():
        r_x = np.where(full_rank[:, None, None], r_x, np.eye(p))
    r_inv = np.linalg.inv(r_x)
    # (X'WX)^-1 = R^-1 R^-T, so its diagonal is the row sums of squares of R^-1.
    variance = np.sum(r_inv ** 2, axis=2)
    # Rank test: the smallest singular value of R is at least RANK_TOL times
    # the largest. Their ratio is at least 1 / (||R||_F ||R^-1||_F), so only
    # problems that bound cannot clear pay for an SVD.
    bound = np.einsum("cij,cij->c", r_x, r_x) * np.sum(variance, axis=1)
    unclear = full_rank & ~(bound < RANK_TOL ** -2)
    if unclear.any():
        singular_values = np.linalg.svd(r_x[unclear], compute_uv=False)
        full_rank[unclear] = (singular_values[:, -1]
                              >= RANK_TOL * singular_values[:, 0])
    # (R D)^-1 = D^-1 R^-1: the scaled fit's rows are D^-1 times the fit's.
    unscaled_se = np.ldexp(np.sqrt(variance), -exponents)
    beta = np.ldexp(np.einsum("cij,cj->ci", r_inv, tail[:, :p]), -exponents)
    # Q is orthogonal, so the whole last column has the norm of yw. einsum
    # lets a sum of squares past the float range become inf without a warning.
    rss = np.einsum("ci,ci->c", tail[:, p:], tail[:, p:])
    tss = np.einsum("ci,ci->c", tail, tail)
    df = rows - p
    sigma = np.sqrt(rss / df) if df > 0 else np.zeros_like(rss)
    # The relative cutoff means nothing once the total sum of squares
    # overflows; an overflowing RSS then leaves sigma infinite.
    sigma[(rss <= _EXACT_FIT_RATIO * tss) & np.isfinite(tss)] = 0.0
    failed = ~full_rank
    if failed.any():
        beta[failed] = unscaled_se[failed] = sigma[failed] = np.nan
    return beta, unscaled_se, sigma, full_rank


_NON_FINITE_FIT = ("fit is not finite: the whitened problem or its fit "
                   "overflowed")


def _fit_one(problem: np.ndarray, *inputs: np.ndarray) -> RegressionFit:
    """Fit one whitened problem at C = 1.

    ``problem`` is the (J, p + 1) array [Xw | yw] the kernel fits, and
    ``inputs`` the arrays it was whitened from, where they may not be
    finite. It is finite unless an input is, which raises numpy's
    ValueError "array must not contain infs or NaNs", or unless the
    whitening overflowed. That, and a fit that is not finite, raise
    NonFiniteFitError, with no floating-point warning. RankError on the
    kernel's full-rank flag.
    """
    if not np.isfinite(problem).all():
        for array in inputs:
            np.asarray_chkfinite(array)
        raise NonFiniteFitError(_NON_FINITE_FIT)
    with np.errstate(all="ignore"):
        beta, unscaled_se, sigma, full_rank = (
            out[0] for out in _wls_kernel(problem[None]))
    if not full_rank:
        raise RankError("design matrix is rank deficient")
    if not (math.isfinite(sigma) and np.isfinite((beta, unscaled_se)).all()):
        raise NonFiniteFitError(_NON_FINITE_FIT)
    return RegressionFit(
        coefficients=beta,
        unscaled_se=unscaled_se,
        residual_scale=float(sigma),
        df_residual=problem.shape[0] - problem.shape[1] + 1,
        exact_fit=bool(sigma == 0.0),
    )


def fit_wls(design: np.ndarray, response: np.ndarray,
            weights: np.ndarray) -> RegressionFit:
    """Weighted least squares: minimize sum_j w_j (y_j - x_j' b)^2.

    ``weights`` carry the semantic se(beta_Yj)^-2 and must be positive and
    finite. The caller supplies any intercept column explicitly.
    """
    x, y = _as_problem(design, response)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ValueError("weights must be a vector")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValueError("weights must be positive and finite")
    if weights.shape != y.shape:
        raise ValueError("weights length does not match design")
    # Whitening a finite problem may overflow; _fit_one raises on that.
    with np.errstate(over="ignore"):
        problem = _design((*x.T, y), False, np.sqrt(weights))
    return _fit_one(problem, x, y)


def fit_gls(design: np.ndarray, response: np.ndarray,
            omega: np.ndarray) -> RegressionFit:
    """Generalized least squares with full error covariance Omega.

    Coefficients equal (X' Omega^-1 X)^-1 X' Omega^-1 y, computed by
    Cholesky-transforming to an ordinary fit; unscaled_se[i] is the square
    root of ((X' Omega^-1 X)^-1)_ii, and sigma_hat is defined on the
    decorrelated scale, where the model has unit error variance. The caller
    supplies any intercept column explicitly.
    """
    x, y = _as_problem(design, response)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (y.size, y.size):
        raise ValueError("omega must be J x J")
    # _whiten trusts the factor to be finite.
    factor = np.asarray_chkfinite(omega).copy()
    if not _cholesky_in_place(factor):
        raise FactorizationError(
            "omega is not positive definite (factorization failed)")
    return _fit_one(_whiten(factor, _design((*x.T, y), False)), x, y)


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Factor the symmetric matrix held by a's lower triangle, in place.

    ``a`` is a writeable C-contiguous (J, J) float64 array; any other
    raises ValueError. On success its lower triangle and diagonal hold the
    lower Cholesky factor L of the symmetric matrix its lower triangle and
    diagonal held (that matrix = L L'), its strict upper triangle is left as
    it was, and the result is True. LAPACK factors a's transpose, a
    Fortran-ordered array, as an upper factor L' = U, so nothing is copied.
    False when the matrix is not positive definite; the lower triangle and
    the diagonal are then partly overwritten, the strict upper triangle
    still not. Runs on one BLAS thread.
    """
    # Imported here, its only use, so that importing mrkit does not load
    # scipy.linalg; imported before the BLAS thread counts are read, so that
    # scipy's OpenBLAS is among them.
    from scipy.linalg import lapack

    # LAPACK would factor a copy of any other layout, leaving ``a`` as it
    # was, and would write to a read-only array.
    if not (a.dtype == np.float64 and a.flags.c_contiguous
            and a.flags.writeable):
        raise ValueError("needs a writeable C-contiguous float64 array")
    with _one_blas_thread():
        _, info = lapack.dpotrf(a.T, lower=0, overwrite_a=1, clean=0)
    return info == 0


def _whiten(factor: np.ndarray, problem: np.ndarray) -> np.ndarray:
    """L^-1 ``problem``, a new array, for the lower Cholesky factor L.

    One triangular solve, on one BLAS thread, whitens the (J, n) rows of
    ``problem``. It reads only the lower triangle and the diagonal of
    ``factor``, so L may share its array with anything above it, as in the
    packed array of a :class:`mrkit.data.CorrelationMatrix` and the factor
    :func:`fit_gls` makes. L must be finite, as both of those are; a
    non-finite problem leaves the result non-finite, which :func:`_fit_one`
    reports.
    """
    # Imported here, its only use, so that importing mrkit does not load
    # scipy.linalg; imported before the BLAS thread counts are read, so that
    # scipy's OpenBLAS is among them.
    from scipy.linalg import solve_triangular

    with _one_blas_thread():
        return solve_triangular(factor, problem, lower=True,
                                check_finite=False)


def _random_effects_se(unscaled_se: np.ndarray, sigma) -> np.ndarray:
    """unscaled_se * max(sigma, 1), for one fit or a (C, p) batch.

    sigma is 0 when df = 0, so max() keeps the exact-fit case finite.
    """
    return unscaled_se * np.maximum(sigma, 1.0)[..., None]


def scaled_se(fit: RegressionFit, scheme: WeightScheme) -> np.ndarray:
    """Inference-time coefficient standard errors under the given scheme."""
    if scheme is WeightScheme.FIXED_EFFECT:
        return fit.unscaled_se.copy()
    return _random_effects_se(fit.unscaled_se, fit.residual_scale)


def _check_moment_args(values: np.ndarray, weights: np.ndarray) -> None:
    if values.shape != weights.shape or values.ndim != 1:
        raise ValueError("values and weights must be vectors of equal length")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")


def weighted_var(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted central second moment, normalized by the total weight."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _check_moment_args(values, weights)
    centered = values - np.sum(values * weights) / np.sum(weights)
    return float(np.sum(weights * centered ** 2) / np.sum(weights))


def weighted_cov(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Weighted central cross moment, normalized by the total weight."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _check_moment_args(a, weights)
    _check_moment_args(b, weights)
    total = np.sum(weights)
    a_centered = a - np.sum(a * weights) / total
    b_centered = b - np.sum(b * weights) / total
    return float(np.sum(weights * a_centered * b_centered) / total)
