"""Monte Carlo study engine for the multivariable pleiotropy-robust estimators.

Data-generating process (per replicate): true associations of J variants with
three risk factors are drawn jointly normal with means ``BETA_MEANS``,
variances ``SIGMAS_SQ``, and correlations 0 or ``CORRELATED_RHOS``;
per-variant direct (pleiotropic) effects alpha'_j are N(mu, sigma_alpha_sq)
— in scenario 4 correlated ``INSIDE_CORRELATION`` with the first risk-factor
association — and the outcome association is

    beta_Yj = alpha'_j + theta1*|bX1j| + theta2*(bX2j + gamma*|bX1j|)
              + theta3*bX3j + eps_j,        eps_j ~ N(0, 1).

A :class:`ScenarioConfig` holds only the settings the study varies; theta2,
theta3, sigma_alpha_sq and gamma come from the module constants below.

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
``generate_dataset`` builds that generator for its one replicate.
The Monte Carlo engine hashes a whole chunk's seeds at once: it runs the
SeedSequence hash of every [s, r] in the chunk, whichever config's seed s
each replicate has, as uint32 array operations, and hands each replicate's
four output words to numpy's PCG64 through numpy's ``ISeedSequence``
interface, so numpy seeds the generator as ``SeedSequence([s, r])`` would
and replicate r's row of the chunk's (C, J, 5) block holds the same stream,
bit for bit. A guard checks the words of the first replicate of each config
in the chunk against numpy's own SeedSequence and raises RuntimeError on a
mismatch. Replicates are processed in fixed-size chunks
written to index-ordered arrays, so summaries are bit-identical for any
chunk size and any worker count (set via the ``MRKIT_THREADS`` environment
variable, default min(4, cpu count)).
One private engine, ``_replicate_results``, plans the chunks for both
``run_scenario`` and ``run_scenario_grid``: it packs consecutive configs
smaller than a chunk into shared chunks, and each replicate keeps its
config's seed and its own index, so every grid row's summary is bit for bit
the one it gets alone.
Per replicate and tested coefficient the engine keeps the estimate, its
random-effects se and whether its two-sided t test rejects at
``POWER_ALPHA``: 1.0 or 0.0, and NaN where theta / se is NaN. It keeps no
p-value and loads no scipy module: each decision compares |theta / se| with
the critical value (see :func:`mrkit.estimators._t_rejects`).
"""
from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import SummaryDataset
from .estimators import _t_rejects
from .regression import _design, _fit_from_r, _random_effects_se, _wls_kernel

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
# Desk-scale preset: ~5x faster than the full study. Its Monte Carlo error
# is above the reporting precision (theta1 to 3 decimals, power to 0.1
# points): over the 64-row grid at the default seed, the Monte Carlo SE of
# mean_theta1 (sd / sqrt(n)) is 0.0011-0.0044, and that of a power
# (sqrt(p (1 - p) / n)) is up to 1.1 percentage points.
DESK_REPLICATES = 2_000
DEFAULT_SEED = 20260819

# The fixed parts of the data-generating process.
THETA2, THETA3 = 0.1, -0.3
BETA_MEANS = (0.08, 0.03, -0.05)
SIGMAS_SQ = (0.03, 0.02, 0.04)
# Direct-effect variance in scenarios 2-4 (scenario 1 has none).
SIGMA_ALPHA_SQ = 0.004
# Effect of risk factor 1 on risk factor 2 under mediation.
MEDIATION_GAMMA = 0.5
# (rho12, rho13, rho23) of correlated risk factors.
CORRELATED_RHOS = (0.2, -0.3, 0.1)
# Correlation between alpha' and the signed first risk-factor association
# when the instrument-strength-independence condition is violated.
INSIDE_CORRELATION = 0.3

# Cholesky factors of the independent and the correlated risk-factor
# correlation, indexed by ``correlated``.
_RISK_FACTOR_CHOLESKY = tuple(
    np.linalg.cholesky(np.array([[1.0, r12, r13], [r12, 1.0, r23],
                                 [r13, r23, 1.0]]))
    for r12, r13, r23 in ((0.0, 0.0, 0.0), CORRELATED_RHOS))
_INSIDE_LOADING = float(np.sqrt(1.0 - INSIDE_CORRELATION ** 2))

POWER_ALPHA = 0.05
# Replicates per Monte Carlo chunk: at most _CHUNK, and fewer where a worker
# thread's chunk buffers (88 bytes per replicate and variant) would pass
# _CHUNK_BYTES. The paper's J = 185 keeps chunks of 128 (2.1 MB).
_CHUNK = 128
_CHUNK_BYTES = 4 << 20

# The tabulated estimators, in summary order.
_ESTIMATORS = ("MI", "UE", "ME")
# Each chunk tests five coefficients, in this order: theta1 of each estimator,
# then the intercepts, as (estimator, coefficient column) pairs.
_TESTS = ((0, 0), (1, 1), (2, 1), (1, 0), (2, 0))
# The row of _TESTS that tests each intercept, by estimator.
_INTERCEPT_ROWS = {estimator: row for row, (estimator, _) in enumerate(_TESTS)
                   if row >= len(_ESTIMATORS)}


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class ScenarioConfig:
    """One setting of the simulation study.

    ``scenario`` is the pleiotropy scenario: 1 — none (every alpha'_j is
    exactly 0); 2 — balanced (mu = 0); 3 — directional with the
    instrument-strength-independence (InSIDE) condition satisfied; 4 —
    directional with it violated. Scenarios 3 and 4 require mu > 0.
    ``correlated`` correlates the risk factors by ``CORRELATED_RHOS``;
    ``mediation`` makes risk factor 1 act partly through risk factor 2
    (gamma = ``MEDIATION_GAMMA``). ``scenario_config`` is this class.
    """

    scenario: int
    theta1: float = 0.0
    mu: float = 0.0
    correlated: bool = False
    mediation: bool = False
    j_variants: int = 185
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED
    weight_mode: str = "realized"

    def __post_init__(self) -> None:
        scenario, mu = self.scenario, self.mu
        if scenario not in (1, 2, 3, 4):
            raise ValueError(f"scenario must be 1-4, got {scenario}")
        if scenario in (3, 4) and mu <= 0:
            raise ValueError(f"scenario {scenario} needs mu > 0, got {mu}")
        if scenario in (1, 2) and mu != 0:
            raise ValueError(f"scenario {scenario} fixes mu = 0, got {mu}")
        # A NaN or +inf mu passes the checks of scenarios 3 and 4.
        for name in ("theta1", "mu"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.j_variants < 5:
            raise ValueError("j_variants must be at least 5 (J >= K + 2)")
        if self.replicates < 1:
            raise ValueError("replicates must be a positive integer")
        _check_seed(self.seed)
        if self.weight_mode not in ("realized", "variance_component"):
            raise ValueError(
                "weight_mode must be 'realized' or 'variance_component'")

    @property
    def theta(self) -> tuple[float, float, float]:
        """(theta1, theta2, theta3)."""
        return (self.theta1, THETA2, THETA3)

    @property
    def sigma_alpha_sq(self) -> float:
        """Variance of the direct effects alpha'_j."""
        return 0.0 if self.scenario == 1 else SIGMA_ALPHA_SQ

    @property
    def gamma(self) -> float:
        """Mediated effect of risk factor 1 on risk factor 2."""
        return MEDIATION_GAMMA if self.mediation else 0.0


scenario_config = ScenarioConfig


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


@dataclass(frozen=True)
class GridRow:
    """One row of the scenario grid, with its resolved config and summary."""

    index: int
    config: ScenarioConfig
    summary: SimulationSummary = field(repr=False)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe: a 4-word pool, the
# entropy words mixed into it, then the output words hashed from it), written
# so that one chunk of replicates is hashed at once.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


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


def _seed_words(seeds: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for each pair.

    ``indices`` is a vector of replicate indices and ``seeds`` one seed per
    index, or one seed for all, each below 2**64; the result is
    (len(indices), 4) uint64. The entropy [seed, r] is the 32-bit words of
    seed then of r, at most four, so it fits the pool; a short entropy is
    zero-padded, which the hash does not tell from the missing words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    indices = np.asarray(indices, dtype=np.uint64)
    high = np.uint64(32)
    # A seed below 2**32 is one word, and r's words follow it directly;
    # assigning to the uint32 pool keeps each value's low word.
    narrow = seeds <= _MASK32
    pool = np.empty((indices.size, 4), dtype=np.uint32)
    pool[:, 0] = seeds
    pool[:, 1] = np.where(narrow, indices, seeds >> high)
    pool[:, 2] = np.where(narrow, indices >> high, indices)
    pool[:, 3] = np.where(narrow, 0, indices >> high)
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


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed that hands PCG64 one replicate's hashed SeedSequence words.

    ``words`` is a row of :func:`_seed_words`: what
    ``SeedSequence([seed, r]).generate_state(4, np.uint64)`` returns, the one
    request PCG64 makes of its seed, so numpy's own seeding gives the
    generator exactly the state ``SeedSequence([seed, r])`` would. Any other
    request, such as another bit generator's, raises RuntimeError.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                "hashed seed words seed only PCG64: it asks for 4 uint64 "
                f"words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _chunk_normals(segments: list[tuple[int, int, int]],
                   out: np.ndarray) -> None:
    """Fill ``out``, a (C, J, 5) block, with the draws of a chunk's segments.

    ``segments`` are (seed, start, end) triples, and replicates start..end-1
    of each fill the block's rows in turn. The row of replicate r holds
    exactly what ``default_rng(SeedSequence([seed, r])).standard_normal((J,
    5))`` draws. The seeds of the whole chunk are hashed at once, and each
    replicate's PCG64 is seeded from its words by numpy. The guard checks
    the words of the first replicate of each segment against numpy's own
    SeedSequence and raises RuntimeError, rather than let other numbers be
    drawn, on a mismatch.
    """
    counts = [end - start for _, start, end in segments]
    seeds = np.repeat(np.array([seed for seed, _, _ in segments],
                               dtype=np.uint64), counts)
    indices = np.concatenate([np.arange(start, end, dtype=np.uint64)
                              for _, start, end in segments])
    words = _seed_words(seeds, indices)
    first = 0
    for (seed, start, _), count in zip(segments, counts):
        if not np.array_equal(words[first], np.random.SeedSequence(
                [seed, start]).generate_state(4, np.uint64)):
            raise RuntimeError(
                "vectorized seeding disagrees with numpy's SeedSequence "
                f"for seed {seed}, replicate {start}")
        first += count
    for row, z_r in zip(words, out):
        np.random.Generator(np.random.PCG64(_SeedWords(row))).standard_normal(
            z_r.shape, out=z_r)


def _latent_draws(config: ScenarioConfig,
                  z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Map standard normals z (..., J, 5) to (beta_x columns, alpha', eps).

    Works in place: the results are the five columns of ``z``, overwritten
    (alpha' first, then the beta_x columns from the last, so every column
    is read before it is replaced). Written as scalar-coefficient
    elementwise arithmetic (no matmul), so a replicate's values do not
    depend on the chunk size or on how chunks are packed.
    """
    chol = _RISK_FACTOR_CHOLESKY[bool(config.correlated)]
    acc, term = np.empty((2,) + z.shape[:-1])
    alpha_prime = z[..., 3]
    if config.scenario == 4:
        # z[..., 0] is exactly the standardized bX1 (chol[0, 0] = 1).
        np.multiply(_INSIDE_LOADING, alpha_prime, out=alpha_prime)
        np.add(np.multiply(INSIDE_CORRELATION, z[..., 0], out=term),
               alpha_prime, out=alpha_prime)
    np.multiply(float(np.sqrt(config.sigma_alpha_sq)), alpha_prime,
                out=alpha_prime)
    np.add(config.mu, alpha_prime, out=alpha_prime)

    for i in (2, 1, 0):
        np.multiply(chol[i, 0], z[..., 0], out=acc)
        for k in range(1, i + 1):
            np.add(acc, np.multiply(chol[i, k], z[..., k], out=term), out=acc)
        np.multiply(float(np.sqrt(SIGMAS_SQ[i])), acc, out=acc)
        np.add(BETA_MEANS[i], acc, out=z[..., i])
    return [z[..., 0], z[..., 1], z[..., 2]], alpha_prime, z[..., 4]


def _observables(config: ScenarioConfig, beta_cols: list[np.ndarray],
                 alpha_prime: np.ndarray, epsilon: np.ndarray, out):
    """Covariate columns, outcome associations, and squared outcome ses.

    |bX1|, bX2, beta_Y and the squared ses are written into ``out``, four
    arrays of one shape (..., J) or a (4, ..., J) array; bX3 is
    ``beta_cols[2]``. ``out`` may alias the inputs, as the Monte Carlo
    engine's call does: |bX1| over bX1, bX2 over its input and beta_Y over
    alpha'. The squared ses hold each product made here until they are
    written last, so they alias no input.
    """
    theta1, theta2, theta3 = config.theta
    abs_x1, x2, beta_y, se2_mv = out
    x3 = beta_cols[2]
    np.abs(beta_cols[0], out=abs_x1)
    np.add(beta_cols[1], np.multiply(config.gamma, abs_x1, out=se2_mv), out=x2)
    # beta_Y = alpha' + theta1 |bX1| + theta2 bX2 + theta3 bX3 + eps, summed
    # left to right.
    np.add(alpha_prime, np.multiply(theta1, abs_x1, out=se2_mv), out=beta_y)
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
    s1, s2, s3 = SIGMAS_SQ
    rho12 = CORRELATED_RHOS[0] if config.correlated else 0.0
    return (THETA2 ** 2 * s2 + THETA3 ** 2 * s3
            + (THETA2 * config.gamma) ** 2 * s1
            + 2.0 * THETA2 * config.gamma * rho12 * float(np.sqrt(s1 * s2)))


def generate_dataset(config: ScenarioConfig,
                     replicate_index: int) -> tuple[SummaryDataset, GeneratedTruth]:
    """Generate one replicate's summary dataset and its latent truth.

    The dataset carries the multivariable-analysis outcome standard errors;
    risk-factor standard errors are the (synthetic) marginal draw scales
    sqrt(SIGMAS_SQ).
    """
    if not 0 <= replicate_index < config.replicates:
        raise ValueError(
            f"replicate_index must be in [0, {config.replicates}), "
            f"got {replicate_index}")
    j = config.j_variants
    z = np.random.default_rng(np.random.SeedSequence(
        [int(config.seed), int(replicate_index)])).standard_normal((j, 5))
    beta_cols, alpha_prime, epsilon = _latent_draws(config, z)
    abs_x1, x2, x3, beta_y, se2_mv = _observables(
        config, beta_cols, alpha_prime, epsilon, np.empty((4, j)))
    dataset = SummaryDataset(
        risk_factor_names=("x1", "x2", "x3"),
        variant_ids=[f"v{s:05d}" for s in range(1, j + 1)],
        effect_alleles=["A"] * j,
        other_alleles=["G"] * j,
        beta_x=np.column_stack([abs_x1, x2, x3]),
        se_x=np.broadcast_to(np.sqrt(SIGMAS_SQ), (j, 3)),
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
    if env is None:
        return min(4, os.cpu_count() or 1)
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"MRKIT_THREADS must be a positive integer, got {env!r}")
    return count


class _ChunkBuffers:
    """One worker thread's arrays for chunks of up to ``size`` replicates.

    They hold 11 float64 values, 88 bytes, per replicate and variant: the
    size that _replicate_results bounds by ``_CHUNK_BYTES``.

    ``z`` is the chunk's (C, J, 5) block of draws. ``slots`` is a
    (6, C, J) array of one (C, J) plane per variable: the draws are moved
    into planes 1-5, where the latent draws, the observables and then ME's
    problem [w, |x1|w, x2 w, x3 w, y w] overwrite them in place, so ``me``
    is planes 0-4 seen as (C, J, 5). Once the draws are moved, z's block is
    free, and UE's (3, C, J) problem and its (C, J) weights are views of it.
    A thread allocates these once, not once per chunk: arrays freed after
    every chunk were returned to the system and page-faulted back in by the
    next. They are views of one allocation because glibc returns the free
    top of its heap once it passes twice the largest block it has unmapped;
    one block stays under that and is reused by the next call, where
    separate arrays are not.
    Each column of each replicate's ME and UE problem is J contiguous
    values, so building a column writes, and the QR copies, contiguous
    memory.
    """

    def __init__(self, size: int, j: int) -> None:
        z, slots = np.split(np.empty(11 * size * j), [5 * size * j])
        self.z = z.reshape(size, j, 5)
        self.slots = slots.reshape(6, size, j)
        self.me = self.slots[:5].transpose(1, 2, 0)
        self.ue = z[:3 * size * j].reshape(3, size, j).transpose(1, 2, 0)
        self.ue_weights = z[3 * size * j:4 * size * j].reshape(size, j)


def _whitened_problems(config: ScenarioConfig, buffers: _ChunkBuffers,
                       rows: slice) -> None:
    """Whitened [design | response] of ME and UE for ``rows`` of a chunk.

    ``rows`` of planes 1-5 of ``buffers.slots`` hold the draws of this
    config's replicates. The latent draws and then the observables
    overwrite them, the squared ses go to plane 0, and UE's problem is
    written to those rows of ``buffers.ue``. ME's is then built in place
    over planes 0-4 from the arrays :func:`_observables` returned. MI's
    problem is ME's without its intercept column, so it is not built:
    :func:`_chunk_tests` fits it from ME's R. UE's outcome errors are
    widened by the univariable extra variance.
    """
    slots = buffers.slots[:, rows]
    beta_cols, alpha_prime, epsilon = _latent_draws(
        config, slots[1:].transpose(1, 2, 0))
    abs_x1, x2, x3, beta_y, se2_mv = _observables(
        config, beta_cols, alpha_prime, epsilon,
        (slots[1], slots[2], slots[4], slots[0]))
    sqrt_w = buffers.ue_weights[rows]
    np.add(se2_mv, _univariable_extra_variance(config), out=sqrt_w)
    np.sqrt(np.divide(1.0, sqrt_w, out=sqrt_w), out=sqrt_w)
    _design((abs_x1, beta_y), True, sqrt_w, out=buffers.ue[rows])
    # ME's weights go over the squared ses, where its intercept column is.
    sqrt_w = np.sqrt(np.divide(1.0, se2_mv, out=se2_mv), out=se2_mv)
    _design((abs_x1, x2, x3, beta_y), True, sqrt_w, out=buffers.me[rows])


def _chunk_tests(me: np.ndarray, ue: np.ndarray, out: np.ndarray) -> None:
    """Fit MI, UE and ME to a chunk and test the five coefficients of _TESTS.

    ``me`` and ``ue`` are the chunk's whitened (C, J, p + 1) problems. MI's
    problem is ME's without its first column, so MI's R is the R of ME's R
    without that column: a (C, 5, 4) QR in place of one over J rows. Each
    coefficient's estimate, random-effects se and two-sided t test decision
    at ``POWER_ALPHA`` are written to ``out[0]``, ``out[1]`` and ``out[2]``,
    (5, C) arrays. A decision is 1.0 where the test rejects, 0.0 where it
    does not and NaN where theta / se is NaN; the five rows are decided in
    one call.
    """
    j = me.shape[-2]
    r_me = np.linalg.qr(me, mode="r")
    fits = (_fit_from_r(np.linalg.qr(r_me[..., 1:], mode="r"), j),
            _wls_kernel(ue), _fit_from_r(r_me, j))
    theta, se, rejects = out
    for row, (estimator, column) in enumerate(_TESTS):
        beta, unscaled_se, sigma, _ = fits[estimator]
        theta[row] = beta[:, column]
        se[row] = _random_effects_se(unscaled_se, sigma)[:, column]
    df = [[j - fits[estimator][0].shape[1]] for estimator, _ in _TESTS]
    rejects[:] = _t_rejects(theta, se, df, POWER_ALPHA)


def _summarise(results: np.ndarray) -> SimulationSummary:
    """One config's summary from its (3, len(_TESTS), replicates) results.

    An estimator uses the replicates whose estimate, se and test decisions
    are finite. A power is the share of those replicates whose decision is
    1.0, a rejection; a count of 0.0 and 1.0 values is exact. When every
    value is finite, each mean and power comes from one reduction along the
    contiguous replicate axis, which sums each row as ``np.mean`` of that
    row does. Raises ValueError when every replicate fails for some
    estimator.
    """
    theta, se, rejects = results
    n, e = results.shape[-1], len(_ESTIMATORS)
    if np.isfinite(results).all():
        used = [n] * e
        mean_theta, mean_se = np.add.reduce(results[:2, :e], axis=-1) / n
        powers = np.count_nonzero(rejects, axis=-1) / n
        failures = 0
    else:
        ok = np.isfinite(results[:, :e]).all(axis=0)
        for estimator, row in _INTERCEPT_ROWS.items():
            ok[estimator] &= np.isfinite(rejects[row])
        used = ok.sum(axis=-1).tolist()
        for estimator, count in zip(_ESTIMATORS, used):
            if count == 0:
                raise ValueError(
                    f"every replicate failed for estimator {estimator}")
        mean_theta = [np.mean(theta[i][ok[i]]) for i in range(e)]
        mean_se = [np.mean(se[i][ok[i]]) for i in range(e)]
        powers = [np.mean(rejects[row][ok[i]])
                  for row, (i, _) in enumerate(_TESTS)]
        failures = int(np.sum(~ok.all(axis=0)))
    mi, ue, me = (EstimatorSummary(
        estimator=estimator,
        mean_theta1=float(mean_theta[i]),
        mean_se=float(mean_se[i]),
        power_causal=float(powers[i]),
        power_intercept=(float(powers[_INTERCEPT_ROWS[i]])
                         if i in _INTERCEPT_ROWS else None),
        replicates_used=used[i],
    ) for i, estimator in enumerate(_ESTIMATORS))
    return SimulationSummary(mi=mi, ue=ue, me=me, failures=failures)


def _replicate_results(configs: list[ScenarioConfig]) -> Iterator[np.ndarray]:
    """Yield each config's per-replicate results, in order.

    A config's results are a (3, len(_TESTS), replicates) array: per tested
    coefficient (see _TESTS) and replicate, the estimate, its random-effects
    se and its t test decision (see :func:`_chunk_tests`). This is the one
    owner of the chunk plan. A chunk holds ``_CHUNK`` replicates, or fewer
    where a worker thread's buffers would pass ``_CHUNK_BYTES``.
    Consecutive configs whose replicates fit in one chunk share it, laid end
    to end, and a larger config is cut into chunks of its own. A chunk draws
    all its replicates at once, each under its config's seed and its own
    index, builds their problems one config's segment at a time, and then
    fits and tests them at once. Every step is per replicate, so each
    config's results are bit for bit what it gets when run alone. Groups of
    configs run one after another, and a group's chunks go to worker
    threads only when it has more than one. A group's results are yielded
    as soon as it has run, so a grid holds one group's results at a time.
    The configs must share j_variants.
    """
    j = configs[0].j_variants
    if any(config.j_variants != j for config in configs):
        raise ValueError("configs run together must share j_variants")
    chunk = min(max(_CHUNK_BYTES // (88 * j), 1), _CHUNK)
    groups = []  # per group: its replicate count and (config, first) pairs
    for config in configs:
        if not groups or groups[-1][0] + config.replicates > chunk:
            groups.append([0, []])
        groups[-1][1].append((config, groups[-1][0]))
        groups[-1][0] += config.replicates
    size = min(chunk, max(total for total, _ in groups))
    local = threading.local()
    workers = _thread_count()

    def work(segments, results, start: int, end: int) -> None:
        if not hasattr(local, "buffers"):
            local.buffers = _ChunkBuffers(size, j)
        buffers, c = local.buffers, end - start
        # Per config in the chunk: its first and end replicate index, and
        # its rows of the chunk buffers. Every config of the group has some:
        # a group of several configs is one chunk.
        parts = []
        for config, first in segments:
            lo, hi = max(start, first), min(end, first + config.replicates)
            parts.append((config, lo - first, hi - first,
                          slice(lo - start, hi - start)))
        _chunk_normals([(int(config.seed), lo, hi)
                        for config, lo, hi, _ in parts], buffers.z[:c])
        # The draws move to the planes of slots; z's block is then free.
        np.copyto(buffers.slots[1:, :c], buffers.z[:c].transpose(2, 0, 1))
        # A replicate whose values overflow is a failure _summarise counts,
        # so the chunk's arithmetic raises no floating-point warning; the
        # error state is per thread.
        with np.errstate(all="ignore"):
            for config, _, _, rows in parts:
                _whitened_problems(config, buffers, rows)
            _chunk_tests(buffers.me[:c], buffers.ue[:c],
                         results[:, :, start:end])

    for total, segments in groups:
        results = np.empty((3, len(_TESTS), total))
        bounds = [(s, min(s + size, total)) for s in range(0, total, size)]
        if workers == 1 or len(bounds) == 1:
            for start, end in bounds:
                work(segments, results, start, end)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # Materialize to surface any worker exception.
                list(pool.map(lambda b: work(segments, results, *b), bounds))
        for config, first in segments:
            yield results[:, :, first:first + config.replicates]


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
    return _summarise(next(_replicate_results([config])))


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
    isolation. The rows go to the Monte Carlo engine as one list, and the
    engine packs rows smaller than a chunk into shared chunks, each
    replicate under its own row's seed, so every summary is bit for bit the
    one ``run_scenario`` gives that row alone.
    """
    _check_seed(seed)
    layout = itertools.product((False, True), (False, True), (0.0, 0.3),
                               _GRID_SCENARIOS)
    configs = {}
    for index, (mediation, correlated, theta1, (scenario, mu)) in enumerate(
            layout):
        if mediation_only and not mediation:
            continue
        row_seed = int(np.random.SeedSequence(
            [int(seed), index]).generate_state(1, np.uint64)[0])
        configs[index] = ScenarioConfig(
            scenario, theta1=theta1, mu=mu, correlated=correlated,
            mediation=mediation, replicates=replicates, seed=row_seed)
    results = _replicate_results(list(configs.values()))
    return tuple(GridRow(index, config, _summarise(next(results)))
                 for index, config in configs.items())
