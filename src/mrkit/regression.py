"""Weighted and generalized least squares with residual-scale conventions.

Every fit runs one batched kernel, :func:`_wls_kernel`, on whitened problems
(rows scaled by sqrt(w), or solved with the lower Cholesky factor of Omega),
each passed as the augmented array [Xw | yw]. :func:`_design` builds every
design matrix: the intercept column first when asked, then the covariates,
each row scaled by 1 or, to whiten, by sqrt(w), all written into one array.
:func:`fit_wls` takes the design, the response
and the weight vector w (the semantic se(beta_Yj)^-2) and whitens [X | y]
with :func:`_design`; :func:`fit_gls` takes Omega in place of w, factors it
and hands the factor to :func:`_factored_fit`, the one triangular-whitening
step. The correlated-variant estimators call :func:`_factored_fit` directly
with diag(se_Y) L, where L is the factor their correlation matrix stored at
load, so they never factor or build Omega. None of these adds an intercept:
the caller puts one first with :func:`_design`. Each fits one problem and
raises :class:`RankError` on the kernel's full-rank flag (smallest singular
value of R below RANK_TOL times the largest). The Monte Carlo engine builds
each chunk's whitened (C, J, p + 1) problems, intercept first and response
last, with the same :func:`_design`, fits them with the kernel, and counts a
rank-deficient replicate as failed. The kernel takes one R-only QR of
[Xw | yw]: R of Xw, Q'yw and the residual norm |r_(p+1,p+1)| all come from
that one factor, and no Q or residual vector is formed. sigma_hat =
sqrt(weighted RSS / df), with the RSS the square of that residual norm, and
is exactly 0 when df = 0 or the RSS is at most (100 eps)^2 times the weighted
total sum of squares.

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

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "RankError",
    "FactorizationError",
    "WeightScheme",
    "RegressionFit",
    "fit_wls",
    "fit_gls",
    "scaled_se",
    "weighted_mean",
    "weighted_var",
    "weighted_cov",
]

# Singular values below RANK_TOL * largest are treated as zero.
RANK_TOL = 1e-10


class RankError(ValueError):
    """Design matrix is rank deficient (collinear or zero columns)."""


class FactorizationError(ValueError):
    """Covariance matrix factorization failed (not positive definite)."""


_NOT_POSITIVE_DEFINITE = "omega is not positive definite (factorization failed)"


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
    fitted / residuals are on the original (unweighted) response scale.
    """

    coefficients: np.ndarray
    unscaled_se: np.ndarray
    residual_scale: float
    df_residual: int
    fitted: np.ndarray
    residuals: np.ndarray
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


def _wls_kernel(problem: np.ndarray):
    """Least squares on C whitened problems at once; never raises.

    ``problem`` is the (C, J, p + 1) augmented array [Xw | yw] with J >= p.
    Returns (coefficients (C, p), unscaled se (C, p), residual scale (C,),
    full-rank flag (C,)). A problem that is not full rank, or whose design is
    not finite, gets NaN in every numeric output.
    """
    p = problem.shape[-1] - 1
    # One R-only QR of [Xw | yw]: its leading p x p block is R of Xw, the top
    # of its last column is Q'yw, and the rest of that column has the norm of
    # the residuals (it is empty when J = p).
    r = np.linalg.qr(problem, mode="r")
    r_x, tail = r[:, :p, :p], r[:, :, p]
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
    unscaled_se = np.sqrt(variance)
    beta = np.linalg.solve(r_x, tail[:, :p, None])[..., 0]
    # Q is orthogonal, so the whole last column has the norm of yw. einsum
    # lets a sum of squares past the float range become inf without a warning.
    rss = np.einsum("ci,ci->c", tail[:, p:], tail[:, p:])
    tss = np.einsum("ci,ci->c", tail, tail)
    df = problem.shape[-2] - p
    sigma = np.sqrt(rss / df) if df > 0 else np.zeros_like(rss)
    # The relative cutoff means nothing once the total sum of squares
    # overflows; an overflowing RSS then leaves sigma infinite.
    sigma[(rss <= _EXACT_FIT_RATIO * tss) & np.isfinite(tss)] = 0.0
    failed = ~full_rank
    if failed.any():
        beta[failed] = unscaled_se[failed] = sigma[failed] = np.nan
    return beta, unscaled_se, sigma, full_rank


def _fit_one(x: np.ndarray, y: np.ndarray, kernel_out) -> RegressionFit:
    """Single-dataset fit from the kernel at C = 1; RankError on its flag."""
    beta, unscaled_se, sigma, full_rank = (out[0] for out in kernel_out)
    if not full_rank:
        raise RankError("design matrix is rank deficient")
    fitted = x @ beta
    df = x.shape[0] - x.shape[1]
    return RegressionFit(
        coefficients=beta,
        unscaled_se=unscaled_se,
        residual_scale=float(sigma),
        df_residual=df,
        fitted=fitted,
        residuals=y - fitted,
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
    problem = _design((*x.T, y), False, np.sqrt(weights))
    return _fit_one(x, y, _wls_kernel(problem[None]))


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
    try:
        factor = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise FactorizationError(_NOT_POSITIVE_DEFINITE) from None
    return _factored_fit(x, y, factor)


def _factored_fit(x: np.ndarray, y: np.ndarray,
                  factor: np.ndarray) -> RegressionFit:
    """GLS fit given the lower Cholesky factor of the error covariance.

    Whitens [x | y] with one triangular solve against ``factor``, then fits
    it with the kernel at C = 1; fitted values and residuals stay on the
    original scale.
    """
    problem = solve_triangular(factor, np.column_stack([x, y]), lower=True)
    return _fit_one(x, y, _wls_kernel(problem[None]))


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


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _check_moment_args(values, weights)
    return float(np.sum(values * weights) / np.sum(weights))


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
