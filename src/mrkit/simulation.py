"""Monte Carlo study engine for the multivariable pleiotropy-robust estimators.

Data-generating process (per replicate): true associations of J variants with
three risk factors are drawn jointly normal with means (0.08, 0.03, -0.05),
variances (0.03, 0.02, 0.04), and a configurable correlation; per-variant
direct (pleiotropic) effects alpha'_j are N(mu, sigma_alpha_sq) — optionally
correlated 0.3 with the first risk-factor association — and the outcome
association is

    beta_Yj = alpha'_j + theta1*|bX1j| + theta2*(bX2j + gamma*|bX1j|)
              + theta3*bX3j + eps_j,        eps_j ~ N(0, 1).

gamma > 0 makes risk factor 2 partially mediate risk factor 1, so the
univariable slope targets the total effect theta1 + gamma*theta2 while the
multivariable slope targets the direct effect theta1. The analysis covariates
are |bX1|, bX2 + gamma*|bX1|, bX3 — the dataset a two-sample analysis would
observe, already expressed relative to the risk-factor-1-increasing allele.

Outcome standard errors feed the regression weights. Two conventions are
selectable via ``weight_mode``:

* ``"realized"`` (default): se^2 = eps_j^2 + sigma_alpha_sq, the realized
  per-variant error magnitude — univariable fits add the variance explained
  by the other risk factors, theta2^2*s2 + theta3^2*s3
  (+ (theta2*gamma)^2*s1 + 2*theta2*gamma*rho12*sqrt(s1*s2) under mediation);
* ``"variance_component"``: the same with eps_j^2 replaced by Var(eps) = 1,
  constant across variants.

The realized convention is the default: multivariable IVW mean se is
~ 0.045 in the no-pleiotropy independent setting, and nominal tests stay
near their stated size. The variance-component weights are far more
conservative (mean se ~ 0.41 in the same setting).

Determinism: replicate r of a scenario with seed s draws its (J, 5) standard
normals from ``default_rng(SeedSequence([s, r]))`` in one call.
``generate_dataset`` builds that generator for its one replicate, through
``_replicate_normals``. ``run_scenario`` seeds a whole chunk at once: it runs
the SeedSequence hash of every [s, r] in the chunk as uint32 array
operations, turns each result into the PCG64 state numpy would set, and
re-seeds one generator per chunk with it, so row r of the chunk's one
(C, J, 5) block holds the same stream, bit for bit. Each chunk checks its
first replicate's state against numpy's own seeding and raises RuntimeError
on a mismatch. Replicates are processed in fixed-size chunks written to
index-ordered arrays, so summaries are bit-identical for any chunk size and
any worker count (set via the ``MRKIT_THREADS`` environment variable,
default min(4, cpu count)).
"""
from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import SummaryDataset
from .estimators import _t_pvalue
from .regression import _design, _random_effects_se, _wls_kernel

__all__ = [
    "ScenarioConfig",
    "GeneratedTruth",
    "EstimatorSummary",
    "SimulationSummary",
    "GridRow",
    "scenario_config",
    "generate_dataset",
    "run_scenario",
    "run_scenario_grid",
    "DEFAULT_REPLICATES",
    "DESK_REPLICATES",
    "DEFAULT_SEED",
]

DEFAULT_REPLICATES = 10_000
# Desk-scale preset: ~5x faster than the full study with Monte Carlo error
# still below the three-decimal reporting precision of the summaries.
DESK_REPLICATES = 2_000
DEFAULT_SEED = 20260819

# Correlation between alpha' and the signed first risk-factor association
# when the instrument-strength-independence condition is violated.
INSIDE_CORRELATION = 0.3

CORRELATED_RHOS = (0.2, -0.3, 0.1)
POWER_ALPHA = 0.05
_CHUNK = 128

# The tabulated estimators, in summary order, and whether each fit has an
# intercept.
_ESTIMATORS = (("MI", False), ("UE", True), ("ME", True))


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setting.

    ``theta`` is (theta1, theta2, theta3); ``mu`` and ``sigma_alpha_sq`` give
    the direct-effect distribution; ``inside_violated`` draws alpha'
    correlated 0.3 with the signed first association; ``gamma`` is the
    mediated effect of risk factor 1 on risk factor 2; ``no_pleiotropy``
    forces alpha'_j = 0 exactly (and requires mu = sigma_alpha_sq = 0).
    """

    theta: tuple[float, float, float] = (0.0, 0.1, -0.3)
    mu: float = 0.0
    sigma_alpha_sq: float = 0.004
    inside_violated: bool = False
    beta_means: tuple[float, float, float] = (0.08, 0.03, -0.05)
    sigmas_sq: tuple[float, float, float] = (0.03, 0.02, 0.04)
    rhos: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gamma: float = 0.0
    j_variants: int = 185
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED
    no_pleiotropy: bool = False
    weight_mode: str = "realized"

    def __post_init__(self) -> None:
        for name in ("theta", "beta_means", "sigmas_sq", "rhos"):
            value = tuple(float(v) for v in getattr(self, name))
            if len(value) != 3:
                raise ValueError(f"{name} must have exactly 3 entries")
            object.__setattr__(self, name, value)
        for name in ("theta", "beta_means", "sigmas_sq", "rhos", "mu",
                     "sigma_alpha_sq", "gamma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if any(s <= 0 for s in self.sigmas_sq):
            raise ValueError("sigmas_sq entries must be positive")
        if any(abs(r) > 1 for r in self.rhos):
            raise ValueError("rhos entries must lie in [-1, 1]")
        if self.sigma_alpha_sq < 0:
            raise ValueError("sigma_alpha_sq must be non-negative")
        if self.no_pleiotropy and (self.mu != 0 or self.sigma_alpha_sq != 0):
            raise ValueError(
                "no_pleiotropy means alpha' = 0 exactly; set mu and "
                "sigma_alpha_sq to 0")
        if self.inside_violated and self.sigma_alpha_sq == 0:
            raise ValueError(
                "inside_violated requires sigma_alpha_sq > 0 (a degenerate "
                "alpha' cannot be correlated with anything)")
        if self.j_variants < 5:
            raise ValueError("j_variants must be at least 5 (J >= K + 2)")
        if self.replicates < 1:
            raise ValueError("replicates must be a positive integer")
        _check_seed(self.seed)
        if self.weight_mode not in ("realized", "variance_component"):
            raise ValueError(
                "weight_mode must be 'realized' or 'variance_component'")
        # Fails on a non-PSD risk-factor correlation; when inside_violated,
        # also certifies the induced joint law of (bX1, bX2, bX3, alpha').
        _draw_coefficients(self)

    @property
    def scenario_label(self) -> str:
        if self.no_pleiotropy:
            return "none"
        if self.inside_violated:
            return "directional, InSIDE violated"
        if self.mu == 0:
            return "balanced"
        return "directional, InSIDE satisfied"


@dataclass(frozen=True)
class GeneratedTruth:
    """Per-replicate latent draws behind one generated dataset.

    ``beta_x`` holds the raw signed associations; the dataset's covariate
    columns are derived from them (|bX1|, bX2 + gamma*|bX1|, bX3).
    ``beta_y`` reconstructs exactly as
    alpha_prime + theta1*|bX1| + theta2*(bX2 + gamma*|bX1|) + theta3*bX3
    + epsilon.
    """

    beta_x: np.ndarray
    alpha_prime: np.ndarray
    epsilon: np.ndarray
    beta_y: np.ndarray


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo operating characteristics of one estimator.

    Powers are fractions of replicates with p < 0.05; ``power_intercept`` is
    None for intercept-free estimators.
    """

    estimator: str
    mean_theta1: float
    mean_se: float
    power_causal: float
    power_intercept: float | None
    replicates_used: int


@dataclass(frozen=True)
class SimulationSummary:
    """Scenario-level results for the three tabulated estimators."""

    mi: EstimatorSummary
    ue: EstimatorSummary
    me: EstimatorSummary
    failures: int

    def for_estimator(self, name: str) -> EstimatorSummary:
        try:
            return {"MI": self.mi, "UE": self.ue, "ME": self.me}[name.upper()]
        except KeyError:
            raise KeyError(f"no summary for estimator {name!r}") from None


@dataclass(frozen=True)
class GridRow:
    """One row of the scenario grid, with its resolved config and summary."""

    index: int
    mediation: bool
    correlated: bool
    theta1: float
    scenario: int
    mu: float
    seed: int
    summary: SimulationSummary = field(repr=False)


def scenario_config(scenario: int, theta1: float = 0.0, mu: float = 0.0,
                    correlated: bool = False, mediation: bool = False,
                    j_variants: int = 185,
                    replicates: int = DEFAULT_REPLICATES,
                    seed: int = DEFAULT_SEED,
                    weight_mode: str = "realized") -> ScenarioConfig:
    """Build a config for one of the four standard pleiotropy scenarios.

    1 — no pleiotropy; 2 — balanced (mu = 0); 3 — directional with the
    instrument-strength-independence condition satisfied; 4 — directional
    with it violated. Scenarios 3 and 4 require mu > 0.
    """
    if scenario not in (1, 2, 3, 4):
        raise ValueError(f"scenario must be 1-4, got {scenario}")
    if scenario in (3, 4) and mu <= 0:
        raise ValueError(f"scenario {scenario} needs mu > 0, got {mu}")
    if scenario in (1, 2) and mu != 0:
        raise ValueError(f"scenario {scenario} fixes mu = 0, got {mu}")
    return ScenarioConfig(
        theta=(theta1, 0.1, -0.3),
        mu=mu,
        sigma_alpha_sq=0.0 if scenario == 1 else 0.004,
        inside_violated=(scenario == 4),
        rhos=CORRELATED_RHOS if correlated else (0.0, 0.0, 0.0),
        gamma=0.5 if mediation else 0.0,
        j_variants=j_variants,
        replicates=replicates,
        seed=seed,
        no_pleiotropy=(scenario == 1),
        weight_mode=weight_mode,
    )


def _draw_coefficients(config: ScenarioConfig) -> np.ndarray:
    """Cholesky factor of the risk-factor correlation, validated PD/PSD."""
    r12, r13, r23 = config.rhos
    correlation = np.array([
        [1.0, r12, r13],
        [r12, 1.0, r23],
        [r13, r23, 1.0],
    ])
    try:
        chol = np.linalg.cholesky(correlation)
    except np.linalg.LinAlgError:
        raise ValueError(
            "risk-factor correlation implied by rhos is not positive "
            "definite") from None
    if config.inside_violated:
        # Joint covariance of (bX1, bX2, bX3, alpha') under the conditional
        # construction: alpha' loads on bX1 only, inheriting the bX1-bX2/bX3
        # correlations. PSD holds whenever |INSIDE_CORRELATION| <= 1; checked
        # here so the stated invariant is certified, not assumed.
        sd = np.sqrt(np.array(config.sigmas_sq))
        sd_alpha = np.sqrt(config.sigma_alpha_sq)
        joint = np.zeros((4, 4))
        joint[:3, :3] = correlation * np.outer(sd, sd)
        joint[3, 3] = config.sigma_alpha_sq
        cross = INSIDE_CORRELATION * sd_alpha * sd * correlation[0, :3]
        joint[3, :3] = joint[:3, 3] = cross
        if np.linalg.eigvalsh(joint).min() < -1e-10:
            raise ValueError(
                "induced covariance of (beta_x, alpha') is not positive "
                "semi-definite")
    return chol


def _replicate_normals(config: ScenarioConfig, replicate_index: int, j: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """One replicate's (J, 5) standard normals, written into ``out`` if given."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(config.seed), int(replicate_index)]))
    return rng.standard_normal((j, 5), out=out)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe: a 4-word pool, the
# entropy words mixed into it, then the output words hashed from it) and
# PCG64's seeding from its first four 64-bit output words, written so that
# one chunk of replicates is hashed at once.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int,
                    calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) word of each of ``calls`` successive hashmixes."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


# mix_entropy makes 4 + 4 * 3 hashmix calls and generate_state(4, uint64)
# hashes 8 output words; each sequence has its own constants.
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    return words ^ (words >> 16)


def _seed_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for each r.

    ``indices`` is a vector of replicate indices below 2**64; the result is
    (len(indices), 4) uint64. The entropy [seed, r] is the 32-bit words of
    seed then of r, at most four, so it fits the pool; a short entropy is
    zero-padded, which the hash does not tell from the missing words.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    pool = np.zeros((indices.size, 4), dtype=np.uint32)
    pool[:, 0] = seed & _MASK32
    first = 1 if seed <= _MASK32 else 2
    if first == 2:
        pool[:, 1] = seed >> 32
    pool[:, first] = indices & _MASK32
    pool[:, first + 1] = indices >> np.uint64(32)
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MUL[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hashmix(pool[:, src, None], _MIX_XOR[calls], _MIX_MUL[calls])
        mixed = pool[:, dst] * np.uint32(_MIX_MULT_L) - hashed * np.uint32(
            _MIX_MULT_R)
        pool[:, dst] = mixed ^ (mixed >> 16)
    state = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MUL)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words: list[int]) -> tuple[int, int]:
    """PCG64's (state, inc) when seeded with four SeedSequence output words."""
    initstate = words[0] << 64 | words[1]
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULTIPLIER + inc) & _MASK128, inc


def _chunk_normals(config: ScenarioConfig, start: int, out: np.ndarray) -> None:
    """Fill ``out``, a (C, J, 5) block, with replicates start..start+C-1's draws.

    Row i holds exactly what ``_replicate_normals(config, start + i, J)``
    draws. The chunk's seeds are hashed at once, and one generator is
    re-seeded per replicate. A guard checks the first replicate's state
    against numpy's own seeding and raises RuntimeError on a mismatch,
    rather than draw other numbers.
    """
    seed = int(config.seed)
    words = _seed_words(
        seed, np.arange(start, start + len(out), dtype=np.uint64))
    states = [_pcg64_state(w) for w in words.tolist()]
    bit_generator = np.random.PCG64(np.random.SeedSequence([seed, start]))
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    if states[0] != (state["state"]["state"], state["state"]["inc"]):
        raise RuntimeError(
            "vectorized seeding disagrees with numpy's SeedSequence/PCG64 "
            f"for seed {seed}, replicate {start}")
    for (pcg_state, inc), z_r in zip(states, out):
        state["state"] = {"state": pcg_state, "inc": inc}
        bit_generator.state = state
        generator.standard_normal(z_r.shape, out=z_r)


def _latent_draws(config: ScenarioConfig, z: np.ndarray,
                  chol: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Map standard normals z (..., J, 5) to (beta_x columns, alpha', eps).

    Works in place: the results are the five columns of ``z``, overwritten
    (alpha' first, then the beta_x columns from the last, so every column
    is read before it is replaced). Written as scalar-coefficient
    elementwise arithmetic (no matmul) so the single-replicate and chunked
    paths produce bit-identical values.
    """
    acc, term = np.empty((2,) + z.shape[:-1])
    alpha_prime = z[..., 3]
    if config.no_pleiotropy:
        alpha_prime.fill(0.0)
    elif config.inside_violated:
        sd_alpha = float(np.sqrt(config.sigma_alpha_sq))
        loading = float(np.sqrt(1.0 - INSIDE_CORRELATION ** 2))
        # z[..., 0] is exactly the standardized bX1 (chol[0, 0] = 1).
        np.multiply(loading, alpha_prime, out=alpha_prime)
        np.add(np.multiply(INSIDE_CORRELATION, z[..., 0], out=term),
               alpha_prime, out=alpha_prime)
        np.multiply(sd_alpha, alpha_prime, out=alpha_prime)
        np.add(config.mu, alpha_prime, out=alpha_prime)
    else:
        sd_alpha = float(np.sqrt(config.sigma_alpha_sq))
        np.multiply(sd_alpha, alpha_prime, out=alpha_prime)
        np.add(config.mu, alpha_prime, out=alpha_prime)

    for i in (2, 1, 0):
        np.multiply(chol[i, 0], z[..., 0], out=acc)
        for k in range(1, i + 1):
            np.add(acc, np.multiply(chol[i, k], z[..., k], out=term), out=acc)
        np.multiply(float(np.sqrt(config.sigmas_sq[i])), acc, out=acc)
        np.add(config.beta_means[i], acc, out=z[..., i])
    return [z[..., 0], z[..., 1], z[..., 2]], alpha_prime, z[..., 4]


def _observables(config: ScenarioConfig, beta_cols: list[np.ndarray],
                 alpha_prime: np.ndarray, epsilon: np.ndarray,
                 out: np.ndarray | None = None):
    """Covariate columns, outcome associations, and squared outcome ses.

    |bX1|, bX2, beta_Y and the squared ses are written into ``out``, a
    (4, ..., J) array (a new one when not given); bX3 is ``beta_cols[2]``.
    """
    theta1, theta2, theta3 = config.theta
    if out is None:
        out = np.empty((4,) + np.shape(epsilon))
    abs_x1, x2, beta_y, se2_mv = out
    x3 = beta_cols[2]
    np.abs(beta_cols[0], out=abs_x1)
    np.add(beta_cols[1], np.multiply(config.gamma, abs_x1, out=x2), out=x2)
    # beta_Y = alpha' + theta1 |bX1| + theta2 bX2 + theta3 bX3 + eps, summed
    # left to right; se2_mv holds each product until it is written last.
    np.add(alpha_prime, np.multiply(theta1, abs_x1, out=beta_y), out=beta_y)
    np.add(beta_y, np.multiply(theta2, x2, out=se2_mv), out=beta_y)
    np.add(beta_y, np.multiply(theta3, x3, out=se2_mv), out=beta_y)
    np.add(beta_y, epsilon, out=beta_y)
    if config.weight_mode == "realized":
        np.add(np.square(epsilon, out=se2_mv), config.sigma_alpha_sq,
               out=se2_mv)
    else:
        se2_mv.fill(1.0 + config.sigma_alpha_sq)
    return abs_x1, x2, x3, beta_y, se2_mv


def _univariable_extra_variance(config: ScenarioConfig) -> float:
    """Variance the other risk factors add to a univariable fit's errors."""
    _, theta2, theta3 = config.theta
    s1, s2, s3 = config.sigmas_sq
    rho12 = config.rhos[0]
    return (theta2 ** 2 * s2 + theta3 ** 2 * s3
            + (theta2 * config.gamma) ** 2 * s1
            + 2.0 * theta2 * config.gamma * rho12 * float(np.sqrt(s1 * s2)))


def generate_dataset(config: ScenarioConfig,
                     replicate_index: int) -> tuple[SummaryDataset, GeneratedTruth]:
    """Generate one replicate's summary dataset and its latent truth.

    The dataset carries the multivariable-analysis outcome standard errors;
    risk-factor standard errors are the (synthetic) marginal draw scales
    sqrt(sigmas_sq).
    """
    if not 0 <= replicate_index < config.replicates:
        raise ValueError(
            f"replicate_index must be in [0, {config.replicates}), "
            f"got {replicate_index}")
    chol = _draw_coefficients(config)
    z = _replicate_normals(config, replicate_index, config.j_variants)
    beta_cols, alpha_prime, epsilon = _latent_draws(config, z, chol)
    abs_x1, x2, x3, beta_y, se2_mv = _observables(
        config, beta_cols, alpha_prime, epsilon)

    j = config.j_variants
    dataset = SummaryDataset(
        risk_factor_names=("x1", "x2", "x3"),
        variant_ids=np.char.add(
            "v", np.char.zfill(np.arange(1, j + 1).astype(str), 5)),
        effect_alleles=np.full(j, "A"),
        other_alleles=np.full(j, "G"),
        beta_x=np.column_stack([abs_x1, x2, x3]),
        se_x=np.broadcast_to(np.sqrt(np.asarray(config.sigmas_sq, dtype=float)),
                             (j, 3)),
        beta_y=beta_y,
        se_y=np.sqrt(se2_mv),
    )
    truth = GeneratedTruth(
        beta_x=np.column_stack(beta_cols),
        alpha_prime=np.asarray(alpha_prime, dtype=float),
        epsilon=np.asarray(epsilon, dtype=float),
        beta_y=np.asarray(beta_y, dtype=float),
    )
    return dataset, truth


def _thread_count() -> int:
    env = os.environ.get("MRKIT_THREADS")
    if env is not None:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(
                f"MRKIT_THREADS must be a positive integer, got {env!r}"
            ) from None
        if count < 1:
            raise ValueError(
                f"MRKIT_THREADS must be a positive integer, got {env!r}")
        return count
    return min(4, os.cpu_count() or 1)


class _ChunkBuffers:
    """One worker thread's arrays for chunks of up to ``size`` replicates.

    A chunk's draws, observables, weights and fit inputs are written into
    these arrays, so the thread allocates them once per ``run_scenario``
    call instead of once per chunk: arrays freed after every chunk were
    returned to the system and page-faulted back in by the next. They are
    views of one allocation because glibc returns the free top of its heap
    once it passes twice the largest block it has unmapped; one block stays
    under that and is reused by the next call, where separate arrays are not.
    """

    def __init__(self, size: int, j: int) -> None:
        z, me, ue, observables, sqrt_w = np.split(
            np.empty(18 * size * j), np.cumsum([5, 5, 3, 4]) * size * j)
        self.z = z.reshape(size, j, 5)
        self.me = me.reshape(size, j, 5)
        self.ue = ue.reshape(size, j, 3)
        self.observables = observables.reshape(4, size, j)
        self.sqrt_w = sqrt_w.reshape(size, j)


def _whitened_problems(config: ScenarioConfig, chol: np.ndarray,
                       uv_extra: float, start: int, end: int,
                       buffers: _ChunkBuffers):
    """Whitened [design | response] of MI, UE and ME for replicates start..end-1.

    Every array is a leading slice of ``buffers``: the draws fill its
    (C, J, 5) block, which the latent draws overwrite, and the observables
    fill its four (C, J) columns. MI's problem is a view of the last four
    columns of ME's; UE's outcome errors are widened by the univariable
    extra variance ``uv_extra``.
    """
    c = end - start
    z = buffers.z[:c]
    _chunk_normals(config, start, z)
    beta_cols, alpha_prime, epsilon = _latent_draws(config, z, chol)
    abs_x1, x2, x3, beta_y, se2_mv = _observables(
        config, beta_cols, alpha_prime, epsilon, buffers.observables[:, :c])
    sqrt_w = buffers.sqrt_w[:c]
    np.sqrt(np.divide(1.0, se2_mv, out=sqrt_w), out=sqrt_w)
    me = _design((abs_x1, x2, x3, beta_y), True, sqrt_w, out=buffers.me[:c])
    np.add(se2_mv, uv_extra, out=sqrt_w)
    np.sqrt(np.divide(1.0, sqrt_w, out=sqrt_w), out=sqrt_w)
    ue = _design((abs_x1, beta_y), True, sqrt_w, out=buffers.ue[:c])
    return me[..., 1:], ue, me


def run_scenario(config: ScenarioConfig) -> SimulationSummary:
    """Monte Carlo summary of MI / UE / ME over config.replicates datasets.

    All three estimators use multiplicative random-effects standard errors
    and two-sided t tests at the 5% level; the univariable fit regresses on
    the first covariate only, with its errors widened by the variance the
    omitted risk factors explain. Replicates yielding any non-finite result,
    or whose design is rank deficient (the same test behind ``RankError``),
    are counted in ``failures`` and excluded from the affected summaries.
    Raises ValueError when every replicate fails for some estimator.
    """
    reps = config.replicates
    j = config.j_variants
    chol = _draw_coefficients(config)
    uv_extra = _univariable_extra_variance(config)
    # Per estimator and replicate: theta1, its se, its p-value and the
    # intercept p-value (left unset for intercept-free fits).
    results = np.empty((len(_ESTIMATORS), 4, reps))
    chunk = min(_CHUNK, reps)
    local = threading.local()

    def work(start: int, end: int) -> None:
        if not hasattr(local, "buffers"):
            local.buffers = _ChunkBuffers(chunk, j)
        problems = _whitened_problems(config, chol, uv_extra, start, end,
                                      local.buffers)
        for out, (_, intercept), problem in zip(
                results[:, :, start:end], _ESTIMATORS, problems):
            beta, unscaled_se, sigma, _ = _wls_kernel(problem)
            se = _random_effects_se(unscaled_se, sigma)
            first = 1 if intercept else 0
            df = j - (problem.shape[-1] - 1)
            out[0], out[1] = beta[:, first], se[:, first]
            out[2] = _t_pvalue(out[0], out[1], df)
            if intercept:
                out[3] = _t_pvalue(beta[:, 0], se[:, 0], df)

    bounds = [(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]
    workers = _thread_count()
    if workers == 1 or len(bounds) == 1:
        for start, end in bounds:
            work(start, end)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Materialize to surface any worker exception.
            list(pool.map(lambda b: work(*b), bounds))

    summaries = []
    all_ok = np.ones(reps, dtype=bool)
    for (estimator, intercept), fields in zip(_ESTIMATORS, results):
        theta, se, p, p0 = fields
        ok = np.all(np.isfinite(fields[:4 if intercept else 3]), axis=0)
        used = int(ok.sum())
        if used == 0:
            raise ValueError(
                f"every replicate failed for estimator {estimator}")
        summaries.append(EstimatorSummary(
            estimator=estimator,
            mean_theta1=float(np.mean(theta[ok])),
            mean_se=float(np.mean(se[ok])),
            power_causal=float(np.mean(p[ok] < POWER_ALPHA)),
            power_intercept=(float(np.mean(p0[ok] < POWER_ALPHA))
                             if intercept else None),
            replicates_used=used,
        ))
        all_ok &= ok
    mi, ue, me = summaries
    return SimulationSummary(mi=mi, ue=ue, me=me,
                             failures=int(np.sum(~all_ok)))


# Scenario rows of each grid block, in table order: no pleiotropy; balanced;
# directional mu = 0.01/0.05/0.1; the same three with the
# instrument-strength-independence condition violated.
_GRID_SCENARIOS = ((1, 0.0), (2, 0.0), (3, 0.01), (3, 0.05), (3, 0.1),
                   (4, 0.01), (4, 0.05), (4, 0.1))


def run_scenario_grid(replicates: int = DEFAULT_REPLICATES,
                      seed: int = DEFAULT_SEED, *,
                      mediation_only: bool = False) -> tuple[GridRow, ...]:
    """Run the 64-row scenario grid, or only its 32 mediation rows.

    Rows 0-31 are the main grid (independent then correlated risk factors,
    theta1 = 0 then 0.3, eight pleiotropy rows each); rows 32-63 repeat the
    layout with mediation (gamma = 0.5). With ``mediation_only`` the main
    rows are skipped before any draw or fit, and only rows 32-63 are run.
    Each row runs under its own seed derived from (seed, row index), and
    keeps its full-grid index, so any subset of rows is reproducible in
    isolation.
    """
    _check_seed(seed)
    layout = itertools.product((False, True), (False, True), (0.0, 0.3),
                               _GRID_SCENARIOS)
    rows = []
    for index, (mediation, correlated, theta1, (scenario, mu)) in enumerate(
            layout):
        if mediation_only and not mediation:
            continue
        row_seed = int(np.random.SeedSequence(
            [int(seed), index]).generate_state(1, np.uint64)[0])
        config = scenario_config(
            scenario, theta1=theta1, mu=mu, correlated=correlated,
            mediation=mediation, replicates=replicates, seed=row_seed)
        rows.append(GridRow(
            index=index,
            mediation=mediation,
            correlated=correlated,
            theta1=theta1,
            scenario=scenario,
            mu=mu,
            seed=row_seed,
            summary=run_scenario(config),
        ))
    return tuple(rows)
