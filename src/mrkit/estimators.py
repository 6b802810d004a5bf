"""Summary-data Mendelian randomization estimators.

Four weighted-regression estimators over per-variant association estimates,
tagged UI/UE/MI/ME throughout:

* UI — univariable inverse-variance weighted (zero-intercept regression of
  outcome associations on risk-factor associations, weights se_Y^-2, fitted
  as the unweighted regression of beta_Y / se_Y on beta_X / se_Y);
* UE — univariable MR-Egger (same regression with a free intercept, which
  estimates the average direct (pleiotropic) effect per allele);
* MI — multivariable IVW (zero-intercept regression on K association
  columns);
* ME — multivariable MR-Egger (K columns plus a free intercept).

Egger-type estimators require the dataset to be orientation-normalized with
respect to a reference risk factor (see :mod:`mrkit.orientation`): the
intercept is only identified once the per-variant sign convention is fixed.

All six public estimators share one precondition check, made in this order
before any fit, with one message per condition: the confidence level; K = 1
for UI and UE; a correlation matrix attached for ``ivw_correlated`` and
``egger_correlated`` and absent for the others; orientation to the reference
risk factor for UE and ME; then J. An intercept fit (UE, ME) needs
J >= K + 2; an intercept-free fit (UI, MI) needs J > K, or is the
single-variant ratio J = K = 1.

Inference is t-based with the residual degrees of freedom of each regression:
J-1 (UI), J-2 (UE), J-K (MI), J-(K+1) (ME). Fixed-effect and multiplicative
random-effects standard errors are as in :func:`mrkit.regression.scaled_se`;
point estimates are identical under both schemes. One array step tests a
fit's coefficients and its intercept together, and the results hold Python
floats. Its t distribution functions come from scipy.special, imported at
the first t inference, so importing mrkit loads numpy and no scipy module;
scipy.linalg likewise loads with the first correlation matrix, which it
factors. The Monte Carlo engine needs only whether each t test rejects:
one array step over a chunk compares |theta / se| with the critical value,
which the standard library's math computes once per df, so a simulation
loads no scipy module. Each decision is the p-value's except within about
2e-13, relative, of the critical value, where the two may round apart.

All six public estimators are one regression of outcome on risk-factor
associations, fitted and packaged by one private core: with or without an
intercept, over one column or K. It is generalized least squares with error
covariance Omega_st = se_Ys * se_Yt * rho_st, and rho = I for independent
variants, where it is weighted least squares with weights se_Y^-2. One step
whitens every fit: it divides each row of [X | y] by se_Y and by the
attached matrix's orientation sign. Independent variants are then fitted
with unit weights; correlated ones are whitened with the Cholesky factor
the correlation matrix computed in place when it was loaded, which every
attached matrix has: one J x J array holds the loaded matrix's upper
triangle and that factor, the oriented matrix shares it, and the whitening
reads only the factor. So no estimator factors a matrix, copies the factor
out or builds diag(se_Y) L; an identity matrix gives the independent fit
bit for bit; and a fit sees beta_Y and se_Y only through the divided rows,
so beta_Y and se_Y times a power of two scale each estimate, se and
interval by that power exactly and keep every p-value. The range limits
are on the quotients: the squared norm of the whitened residuals must stay
finite, which |beta_Y / se_Y| up to about 1e154 ensures, and a quotient
past the float range raises NonFiniteFitError.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import SummaryDataset
from .orientation import reference_column
from .regression import (
    _NON_FINITE_FIT,
    NonFiniteFitError,
    WeightScheme,
    _design,
    _factored_fit,
    fit_gls,  # unused here; perfbench traces it as mrkit.estimators.fit_gls
    fit_wls,
    scaled_se,
    weighted_cov,
    weighted_var,
)

__all__ = [
    "MethodTag",
    "CausalEstimate",
    "InterceptTest",
    "MRResult",
    "ivw_univariable",
    "egger_univariable",
    "ivw_multivariable",
    "egger_multivariable",
    "ivw_correlated",
    "egger_correlated",
    "inside_bias_oracle",
    "f_statistic",
]

DEFAULT_SCHEME = WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT


class _Model(NamedTuple):
    label: str
    intercept: bool
    univariable: bool


# The four models by tag, in report order: IVW or MR-Egger (no intercept or a
# free one) on one risk factor or on K.
_MODELS = {
    "UI": _Model("univariable IVW", False, True),
    "UE": _Model("univariable MR-Egger", True, True),
    "MI": _Model("multivariable IVW", False, False),
    "ME": _Model("multivariable MR-Egger", True, False),
}


@dataclass(frozen=True)
class MethodTag:
    """Which estimator produced a result: UI/UE/MI/ME x scheme x variant set."""

    estimator: str  # "UI" | "UE" | "MI" | "ME"
    scheme: WeightScheme
    variants: str  # "independent" | "correlated"

    def __str__(self) -> str:
        return f"{self.estimator}/{self.scheme.value}/{self.variants}"


@dataclass(frozen=True)
class CausalEstimate:
    """Causal effect of one risk factor: log odds ratio per SD, with t inference.

    ``df`` is the residual degrees of freedom of the underlying regression;
    when it is zero the point estimate and standard error are still reported
    but ``p_value``/``ci_low``/``ci_high`` are NaN. Every number is a Python
    ``float``, and ``df`` an ``int``.
    """

    risk_factor: str
    theta_hat: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float
    df: int
    method: MethodTag


@dataclass(frozen=True)
class InterceptTest:
    """Egger intercept: average direct effect per allele, and its t test.

    Every field is a Python ``float``.
    """

    theta_0: float
    se: float
    p_value: float


@dataclass(frozen=True)
class MRResult:
    """One estimator's full output on one dataset."""

    estimates: tuple[CausalEstimate, ...]
    intercept: InterceptTest | None
    residual_scale: float
    orientation_reference: str | None = None
    experimental: bool = False

    def estimate_for(self, risk_factor: str) -> CausalEstimate:
        for estimate in self.estimates:
            if estimate.risk_factor == risk_factor:
                return estimate
        raise KeyError(risk_factor)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")


def _t_pvalue(theta, se, df: int):
    """Two-sided t p-value of theta / se for df > 0 (stdtr is t.sf, unchecked)."""
    # Imported here, its only use, so that importing mrkit does not load
    # scipy.special.
    from scipy.special import stdtr

    return 2.0 * stdtr(df, -np.abs(theta / se))


_LOG_GAMMA_HALF = 0.5 * math.log(math.pi)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2).

    For a >= 50, by its asymptotic series in 1 / a, good to about 2e-15:
    lgamma(a) - lgamma(a + 1/2) would cancel the leading digits of two
    large terms (an error of 3.5e-9 at a = 5e6).
    """
    if a < 50.0:
        return math.lgamma(a) + _LOG_GAMMA_HALF - math.lgamma(a + 0.5)
    return (_LOG_GAMMA_HALF - 0.5 * math.log(a) + 1.0 / (8.0 * a)
            - 1.0 / (192.0 * a ** 3) + 1.0 / (640.0 * a ** 5))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """I_x(a, b) a B(a, b) / (x^a (1 - x)^b), a continued fraction.

    Evaluated by the modified Lentz method, which puts 1e-300 in place of a
    zero denominator (one arises at t = 2 with df = 8); the fraction
    converges fast for x below about (a + 1) / (a + b + 2).
    """
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or 1e-300)
    h = d
    for m in range(1, 10_000):
        for term in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x
                     / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / ((1.0 + term * d) or 1e-300)
            c = (1.0 + term / c) or 1e-300
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"I_x({a}, {b}) at x = {x} did not converge")


def _t_tail(t: float, df: int) -> float:
    """Two-sided p-value of t > 0: I_x(df/2, 1/2), with x = df / (df + t^2)."""
    a, x, y = df / 2.0, df / (df + t * t), t * t / (df + t * t)
    front = math.exp(a * math.log1p(-y) + 0.5 * math.log(y)
                     - _log_beta_half(a))
    # I_x(a, 1/2) = 1 - I_y(1/2, a), y = 1 - x. Each fraction is well
    # conditioned on its own side of t^2 = df: the one in x loses digits as
    # x nears 1, as it does near the critical value at large df.
    if t * t > df:
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


@functools.cache
def _t_critical(df: int, alpha: float) -> float:
    """The two-sided critical value of t with df >= 1 at level alpha.

    Bisection to the smallest float where :func:`_t_tail` is at most alpha;
    standard library only, so no scipy module loads.
    """
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df) > alpha:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if _t_tail(mid, df) > alpha else (lo, mid)
    return hi


def _t_rejects(theta, se, df, alpha: float):
    """Whether the two-sided t test of each theta / se rejects at alpha.

    ``theta`` and ``se`` are arrays of one shape, and ``df``, ints >= 1
    that broadcast against them (the engine passes one per row). Returns
    1.0 where |theta / se| exceeds :func:`_t_critical`, 0.0 where it does
    not, and NaN where theta / se is NaN; no scipy module loads. Each flag
    is ``_t_pvalue(theta, se, df) < alpha`` unless |theta / se| is within
    about 2e-13, relative, of the critical value, which is as close as
    :func:`_t_critical` and scipy's ``stdtrit`` agree.
    """
    t = np.abs(theta / se)
    critical = np.reshape([_t_critical(int(d), alpha) for d in np.ravel(df)],
                          np.shape(df))
    return np.where(np.isnan(t), np.nan, t > critical)


def _inference(theta, se, df: int, level: float):
    """Two-sided t p-values and CIs of theta / se, element by element.

    One call tests a whole fit: ``theta`` and ``se`` are its coefficient and
    standard-error arrays (or scalars). Returns (p_value, ci_low, ci_high),
    all NaN when no residual df remain.
    """
    if df <= 0:
        nan = np.full_like(theta, np.nan, dtype=float)
        return nan, nan, nan
    # Imported here, its only use, so that importing mrkit does not load
    # scipy.special.
    from scipy.special import stdtrit

    half_width = stdtrit(df, 0.5 + level / 2.0) * se
    return _t_pvalue(theta, se, df), theta - half_width, theta + half_width


def _fit_model(dataset: SummaryDataset, estimator: str, intercept: bool,
               scheme: WeightScheme, level: float,
               reference: str | None = None) -> MRResult:
    """Regress beta_Y on beta_X (intercept column first if asked); package it.

    The fit is generalized least squares with Omega = se_Y se_Y' * rho, and
    rho = I for independent variants, which is weighted least squares with
    weights se_Y^-2. One step whitens both: it divides each row of the
    problem [X | y] by se_Y times S. For independent variants S = I, and the
    rows go to :func:`fit_wls` with unit weights. With a matrix attached,
    rho = S rho0 S, with S its signs and rho0 the matrix it factored at load
    into L0, kept in the lower triangle of its packed array, so Omega's
    factor is diag(se_Y) S L0 S; the divided rows are whitened against L0.
    That is exact: (S L0 S)^-1 [X | y] = S L0^-1 S [X | y], and the left S
    changes only the signs of the rows of the QR's R factor, which the fit
    ignores. So with rho = I both fits are the same computation, bit for
    bit. An intercept fit also reports the intercept test, and is
    experimental when the variants are correlated.
    """
    correlation = dataset.correlation
    correlated = correlation is not None
    problem = _design((*dataset.beta_x_matrix().T, dataset.beta_y_vector()),
                      intercept)
    se_y = dataset.se_y_vector()
    # Dividing by s * se_y is dividing by se_y, then multiplying by s, bit
    # for bit. A finite quotient past the float range makes the fit not
    # finite.
    with np.errstate(over="ignore"):
        problem /= (se_y * correlation._signs if correlated else se_y)[:, None]
    if not np.isfinite(problem).all():
        raise NonFiniteFitError(_NON_FINITE_FIT)
    x, y = problem[:, :-1], problem[:, -1]
    if correlated:
        fit = _factored_fit(x, y, correlation._packed)
    else:
        fit = fit_wls(x, y, np.ones_like(y))
    se = scaled_se(fit, scheme)
    tag = MethodTag(estimator, scheme,
                    "correlated" if correlated else "independent")
    df = fit.df_residual
    p_value, ci_low, ci_high = _inference(fit.coefficients, se, df, level)
    # One row of Python floats per coefficient, the intercept first:
    # theta, se, CI low, CI high, p.
    table = np.column_stack(
        [fit.coefficients, se, ci_low, ci_high, p_value]).tolist()
    estimates = tuple(CausalEstimate(name, *table[intercept + i], df, tag)
                      for i, name in enumerate(dataset.risk_factor_names))
    test = None
    if intercept:
        theta_0, se_0, _, _, p_0 = table[0]
        test = InterceptTest(theta_0=theta_0, se=se_0, p_value=p_0)
    return MRResult(estimates=estimates, intercept=test,
                    residual_scale=fit.residual_scale,
                    orientation_reference=reference,
                    experimental=correlated and intercept)


def _checked_fit(dataset: SummaryDataset, estimator: str, op: str,
                 attached: bool, scheme: WeightScheme, level: float,
                 reference: str | None = None) -> MRResult:
    """Check a model's preconditions in the module's order, then fit it.

    ``estimator`` is a key of ``_MODELS``; ``op``, the public estimator named
    in the correlation messages; ``attached``, whether it fits correlated
    variants; ``reference``, the risk factor an intercept model is oriented
    to.
    """
    model = _MODELS[estimator]
    _check_level(level)
    j, k = dataset.j, dataset.k
    if model.univariable and k != 1:
        raise ValueError(f"univariable estimator requires K=1, got K={k}")
    if attached and dataset.correlation is None:
        raise ValueError(f"{op} requires an attached correlation matrix")
    if not attached and dataset.correlation is not None:
        raise ValueError(
            f"{op} assumes independent variants but a correlation matrix is "
            f"attached; use the correlated-variant estimator instead")
    if model.intercept:
        if np.any(reference_column(dataset, reference) < 0):
            raise ValueError(
                f"dataset is not orientation-normalized: negative {reference} "
                f"associations present; run orient() first")
        if j < k + 2:
            raise ValueError(
                f"MR-Egger requires J >= K + 2, got J={j}, K={k} "
                f"(needs J >= {k + 2})")
    elif j <= k and (j, k) != (1, 1):
        raise ValueError(
            f"need J > K for the intercept-free model, got J={j}, K={k}")
    return _fit_model(dataset, estimator, model.intercept, scheme, level,
                      reference)


def ivw_univariable(dataset: SummaryDataset,
                    scheme: WeightScheme = DEFAULT_SCHEME,
                    level: float = 0.95) -> MRResult:
    """Univariable inverse-variance weighted estimate (df = J - 1).

    Equivalent to the classical weighted mean of per-variant ratio estimates
    and computed as a zero-intercept weighted regression; the two forms agree
    by algebra. Sign-flip invariant, so no orientation is required.
    """
    return _checked_fit(dataset, "UI", "ivw_univariable", False, scheme, level)


def egger_univariable(dataset: SummaryDataset,
                      scheme: WeightScheme = DEFAULT_SCHEME,
                      level: float = 0.95) -> MRResult:
    """Univariable MR-Egger: free-intercept weighted regression (df = J - 2).

    The intercept estimates the average direct effect of a variant on the
    outcome; its t test (same df) is the usual test of directional
    pleiotropy. Requires an oriented dataset and J >= 3.
    """
    return _checked_fit(dataset, "UE", "egger_univariable", False, scheme,
                        level, dataset.risk_factor_names[0])


def ivw_multivariable(dataset: SummaryDataset,
                      scheme: WeightScheme = DEFAULT_SCHEME,
                      level: float = 0.95) -> MRResult:
    """Multivariable IVW: zero-intercept regression on K columns (df = J - K).

    Each coefficient is the direct causal effect of its risk factor holding
    the others fixed. With K=1 this reduces exactly to the univariable
    estimator. Zero or collinear columns raise RankError rather than being
    dropped, because silently dropping a column changes every remaining
    coefficient from a direct to a total effect.
    """
    return _checked_fit(dataset, "MI", "ivw_multivariable", False, scheme,
                        level)


def egger_multivariable(dataset: SummaryDataset, reference: str,
                        scheme: WeightScheme = DEFAULT_SCHEME,
                        level: float = 0.95) -> MRResult:
    """Multivariable MR-Egger: K columns plus intercept (df = J - (K + 1)).

    The dataset must be orientation-normalized with respect to ``reference``
    (the risk factor of primary interest): all its associations non-negative,
    with the other columns and the outcome recoded consistently per variant.
    """
    return _checked_fit(dataset, "ME", "egger_multivariable", False, scheme,
                        level, reference)


def ivw_correlated(dataset: SummaryDataset,
                   scheme: WeightScheme = DEFAULT_SCHEME,
                   level: float = 0.95) -> MRResult:
    """IVW for correlated variants via generalized least squares.

    The error covariance is Omega_st = se_Ys * se_Yt * rho_st; with an
    identity correlation this reproduces the independent-variant estimator
    bit for bit. Works for any K >= 1 (df = J - K).
    """
    return _checked_fit(dataset, "MI" if dataset.k > 1 else "UI",
                        "ivw_correlated", True, scheme, level)


def egger_correlated(dataset: SummaryDataset, reference: str,
                     scheme: WeightScheme = DEFAULT_SCHEME,
                     level: float = 0.95) -> MRResult:
    """MR-Egger for correlated variants via generalized least squares.

    Flagged experimental: the behaviour of the Egger intercept under variant
    correlation has not been characterized in depth, so treat results as
    exploratory. Requires an oriented dataset; note that orientation flips
    must be applied to the correlation matrix as well (orient() does this).
    """
    return _checked_fit(dataset, "ME" if dataset.k > 1 else "UE",
                        "egger_correlated", True, scheme, level, reference)


def inside_bias_oracle(true_alpha: np.ndarray, true_beta_x: np.ndarray,
                       weights: np.ndarray, target: int = 0) -> float:
    """Asymptotic bias of the Egger slope when direct effects are known.

    Given the realized per-variant direct effects ``true_alpha`` and the true
    risk-factor associations, returns the additive bias of the Egger estimate
    for the ``target`` risk factor (0-based column index):

    * K=1: weighted cov(alpha, x) / weighted var(x) — zero exactly when the
      instrument strength is uncorrelated with the direct effects (the InSIDE
      condition);
    * K=2: the same quantity after partialling the other column out of both,
      i.e. the target coefficient of the weighted population regression of
      alpha on the two columns.

    Larger K has no closed form here and raises ValueError.
    """
    alpha = np.asarray(true_alpha, dtype=float)
    beta_x = np.asarray(true_beta_x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if beta_x.ndim == 1:
        beta_x = beta_x[:, None]
    if beta_x.ndim != 2 or beta_x.shape[1] not in (1, 2):
        raise ValueError("true_beta_x must have one or two columns")
    j, k = beta_x.shape
    if alpha.shape != (j,) or weights.shape != (j,):
        raise ValueError("true_alpha and weights must have length J")
    if not 0 <= target < k:
        raise ValueError(f"target index {target} out of range for K={k}")

    if k == 1:
        denominator = weighted_var(beta_x[:, 0], weights)
        if denominator == 0.0:
            raise ValueError("zero weighted variance of the target column")
        return weighted_cov(alpha, beta_x[:, 0], weights) / denominator

    x_target = beta_x[:, target]
    x_other = beta_x[:, 1 - target]
    var_target = weighted_var(x_target, weights)
    var_other = weighted_var(x_other, weights)
    cross = weighted_cov(x_target, x_other, weights)
    determinant = var_target * var_other - cross ** 2
    if determinant == 0.0:
        raise ValueError("weighted covariance of the columns is singular")
    return (weighted_cov(alpha, x_target, weights) * var_other
            - weighted_cov(alpha, x_other, weights) * cross) / determinant


def f_statistic(n: int, k: int, r2: float) -> float:
    """Instrument-strength F-statistic: ((n-k-1)/k) * (r2/(1-r2)).

    ``n`` participants, ``k`` variants, ``r2`` the proportion of risk-factor
    variance explained by the variants jointly.
    """
    if not 0.0 <= r2 < 1.0:
        raise ValueError(f"r2 must be in [0, 1), got {r2}")
    if n <= k + 1:
        raise ValueError(f"need n > k + 1 for k variants, got n={n}, k={k}")
    return ((n - k - 1) / k) * (r2 / (1.0 - r2))
