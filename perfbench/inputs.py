"""Seeded input generator for the benchmark (numpy only, never imports mrkit).

Two files feed the ``analyze`` workloads:

* a summary CSV in mrkit's schema with K risk factors: realistic GWAS-scale
  association magnitudes, about half the variants with a negative ``x1``
  association (so orientation flips them), and no exact zeros;
* optionally a headerless J x J AR(1) correlation CSV, rho_st = rho^|s-t|,
  with the outcome noise drawn from the same correlation.

Every number is written with 6 significant digits and then parsed back, so
the arrays returned to the caller are exactly what mrkit reads from disk.
The same seed always gives the same files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# True causal effects used to build the outcome associations.
THETA = (0.3, 0.1, -0.2)
AR1_RHO = 0.3
_ALLELES = ("A", "C", "G", "T")


@dataclass(frozen=True)
class SummaryInputs:
    """The generated dataset, as mrkit will parse it."""

    beta_x: np.ndarray  # (J, K)
    beta_y: np.ndarray  # (J,)
    se_y: np.ndarray  # (J,)
    correlation: np.ndarray | None  # (J, J) or None


def _six_digits(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Format to 6 significant digits; return the parsed values and strings."""
    text = [f"{v:.6g}" for v in values.ravel().tolist()]
    parsed = np.array([float(t) for t in text]).reshape(values.shape)
    return parsed, text


def _ar1_noise(rng: np.random.Generator, j: int, rho: float) -> np.ndarray:
    """Unit-variance stationary AR(1) draws: corr(e_s, e_t) = rho^|s-t|."""
    z = rng.standard_normal(j)
    e = np.empty(j)
    e[0] = z[0]
    scale = np.sqrt(1.0 - rho * rho)
    for t in range(1, j):
        e[t] = rho * e[t - 1] + scale * z[t]
    return e


def write_summary(path: Path, seed: int, j: int, k: int,
                  ar1: bool = False) -> SummaryInputs:
    """Write the summary CSV (and return its parsed contents).

    With ``ar1`` the outcome noise follows the AR(1) correlation that
    :func:`write_ar1_correlation` writes; the correlation itself is returned
    by that function, not here.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), j, k]))
    magnitude = 0.02 + np.abs(rng.normal(0.0, 0.04, size=(j, k)))
    sign = np.where(rng.random((j, k)) < 0.5, -1.0, 1.0)
    beta_x, bx_text = _six_digits(sign * magnitude)
    se_x, sx_text = _six_digits(rng.uniform(0.004, 0.012, size=(j, k)))
    se_y, sy_text = _six_digits(rng.uniform(0.005, 0.02, size=j))
    theta = np.resize(np.array(THETA), k)
    noise = _ar1_noise(rng, j, AR1_RHO) if ar1 else rng.standard_normal(j)
    # Balanced pleiotropy plus sampling noise; |beta_y| > 0 almost surely,
    # and a value that rounds to zero is nudged away from it.
    beta_y = beta_x @ theta + rng.normal(0.0, 0.005, size=j) + se_y * noise
    beta_y = np.where(np.abs(beta_y) < 1e-7, 1e-7, beta_y)
    beta_y, by_text = _six_digits(beta_y)

    header = ["variant_id", "effect_allele", "other_allele"]
    for i in range(1, k + 1):
        header += [f"beta_x{i}", f"se_x{i}"]
    header += ["beta_y", "se_y"]
    effect = rng.integers(0, 4, size=j)
    other = (effect + rng.integers(1, 4, size=j)) % 4
    lines = [",".join(header)]
    for row in range(j):
        cells = [f"rs{row + 1}", _ALLELES[effect[row]], _ALLELES[other[row]]]
        for col in range(k):
            cells += [bx_text[row * k + col], sx_text[row * k + col]]
        cells += [by_text[row], sy_text[row]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SummaryInputs(beta_x=beta_x, beta_y=beta_y, se_y=se_y,
                         correlation=None)


def write_ar1_correlation(path: Path, j: int,
                          rho: float = AR1_RHO) -> np.ndarray:
    """Write the J x J AR(1) correlation CSV; return the parsed matrix.

    Entry (s, t) depends only on |s - t|, so each of the J distinct values is
    formatted once and every row is a join of two slices of that list.
    """
    powers, text = _six_digits(rho ** np.arange(j, dtype=float))
    with path.open("w", encoding="utf-8") as handle:
        for s in range(j):
            handle.write(",".join(text[s:0:-1] + text[:j - s]))
            handle.write("\n")
    lags = np.abs(np.arange(j)[:, None] - np.arange(j)[None, :])
    return powers[lags]
