"""Shared builders for the test suite."""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import mrkit
from mrkit import CorrelationMatrix, SummaryDataset


def subprocess_env(**overrides: str) -> dict[str, str]:
    """The environment plus overrides, with mrkit's source first on PYTHONPATH.

    pyproject's pytest ``pythonpath`` reaches only the pytest process, so a
    ``python -m mrkit`` subprocess gets the source tree from PYTHONPATH.
    """
    src = str(Path(mrkit.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def make_dataset(beta_x, beta_y, se_y, names=("x1",), corr=None,
                 se_x=None) -> SummaryDataset:
    """Build a dataset from plain arrays; beta_x is (J,) or (J, K)."""
    beta_x = np.atleast_2d(np.asarray(beta_x, dtype=float))
    if beta_x.shape[0] == 1 and len(beta_y) > 1:
        beta_x = beta_x.T
    j, k = beta_x.shape
    if se_x is None:
        se_x = np.ones((j, k))
    else:
        se_x = np.broadcast_to(np.asarray(se_x, dtype=float), (j, k))
    correlation = CorrelationMatrix(corr) if corr is not None else None
    return SummaryDataset(risk_factor_names=tuple(names),
                          variant_ids=[f"v{i}" for i in range(j)],
                          effect_alleles=["A"] * j, other_alleles=["G"] * j,
                          beta_x=beta_x, se_x=se_x, beta_y=beta_y, se_y=se_y,
                          correlation=correlation)


def random_dataset(rng: np.random.Generator, j: int, k: int = 1,
                   positive_x: bool = False, corr: bool = False) -> SummaryDataset:
    """Random well-conditioned dataset for property checks."""
    beta_x = rng.normal(0.2, 0.5, size=(j, k))
    if positive_x:
        beta_x[:, 0] = np.abs(beta_x[:, 0]) + 0.05
    beta_y = rng.normal(0.0, 0.4, size=j)
    se_y = rng.uniform(0.3, 2.0, size=j)
    correlation = random_correlation(rng, j) if corr else None
    return make_dataset(beta_x, beta_y, se_y,
                        names=tuple(f"x{i + 1}" for i in range(k)),
                        corr=correlation)


def random_correlation(rng: np.random.Generator, j: int) -> np.ndarray:
    """Random strictly positive-definite correlation matrix."""
    a = rng.normal(size=(j, j + 2))
    cov = a @ a.T + np.eye(j) * 0.5
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)
