"""Allele orientation for sign-convention-sensitive estimators.

Regression-through-the-origin estimators are invariant to per-variant sign
flips, but any estimator with an intercept is not: the intercept picks up an
arbitrary sign unless every variant is coded so that its association with a
chosen reference risk factor is non-negative. :func:`orient` recodes a dataset
to that convention, swapping effect/other alleles and negating every
association (all risk factors and the outcome) for flipped variants. Standard
errors are sign-free and unchanged. Recoding keeps every dataset invariant, so
the oriented dataset is not validated again: it holds new read-only allele and
association arrays and shares the input's ids and standard errors. An
attached variant correlation matrix is sign-conjugated (rho'_st = s_s * s_t *
rho_st) so that it continues to refer to the recoded alleles: the flipped
matrix negates its (J,) sign vector where a variant flipped and shares the
input's packed array of rho and its Cholesky factor, so it is neither
validated, factored nor copied again.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import SummaryDataset

__all__ = ["OrientationReport", "orient"]


@dataclass(frozen=True)
class OrientationReport:
    """What :func:`orient` did: which variants flipped, which were ambiguous."""

    reference: str
    flipped_ids: tuple[str, ...]
    zero_ids: tuple[str, ...]

    @property
    def n_flipped(self) -> int:
        return len(self.flipped_ids)


def orient(dataset: SummaryDataset,
           reference: str) -> tuple[SummaryDataset, OrientationReport]:
    """Recode variants so the reference risk-factor association is >= 0.

    Variants whose reference association is exactly zero have no defined
    orientation; they are left as-is, reported in ``zero_ids``, and a warning
    is emitted because intercept-based estimates remain coding-dependent for
    those rows.
    """
    column = reference_column(dataset, reference)
    flip = column < 0.0
    zeros = dataset.variant_ids[column == 0.0].tolist()
    flipped = dataset.variant_ids[flip].tolist()

    if zeros:
        warnings.warn(
            f"{len(zeros)} variant(s) have a zero association with "
            f"{reference} and were left unoriented: {', '.join(zeros)}",
            UserWarning,
            stacklevel=2,
        )

    oriented = dataset
    if flipped:
        correlation = dataset.correlation
        if correlation is not None:
            correlation = correlation.sign_flipped(flip)
        oriented = dataset._derive(
            effect_alleles=np.where(flip, dataset.other_alleles,
                                    dataset.effect_alleles),
            other_alleles=np.where(flip, dataset.effect_alleles,
                                   dataset.other_alleles),
            beta_x=np.where(flip[:, None], -dataset.beta_x, dataset.beta_x),
            beta_y=np.where(flip, -dataset.beta_y, dataset.beta_y),
            correlation=correlation,
        )
    report = OrientationReport(
        reference=reference,
        flipped_ids=tuple(flipped),
        zero_ids=tuple(zeros),
    )
    return oriented, report


def reference_column(dataset: SummaryDataset, name: str) -> np.ndarray:
    """The (J,) associations with risk factor ``name``; DataError naming the
    dataset's risk factors when it has none of that name."""
    return dataset.beta_x[:, dataset._risk_factor_index(name)]

