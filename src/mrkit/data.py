"""Domain model and ingestion for variant-level summary statistics.

The CSV schema (header required, comma-separated, UTF-8) is::

    variant_id,effect_allele,other_allele,beta_x1,se_x1,...,beta_xK,se_xK,beta_y,se_y

Correlation files hold J lines of J comma-separated reals, no header, in
dataset row order. All types are immutable after construction and safe to
share across threads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "VariantRecord",
    "SummaryDataset",
    "CorrelationMatrix",
    "load_dataset",
    "load_correlation",
    "write_dataset",
    "select_risk_factor",
]


class DataError(ValueError):
    """Malformed input file or violated dataset invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataError(message)


@dataclass(frozen=True)
class VariantRecord:
    """Per-variant association estimates for K risk factors and one outcome.

    beta_x / se_x are per-allele associations with each risk factor
    (risk-factor SD units); beta_y / se_y the association with the outcome
    (log odds ratio or outcome units). Allele labels are carried but not
    biologically validated: harmonization correctness is sign logic, not
    nucleotide chemistry.
    """

    variant_id: str
    effect_allele: str
    other_allele: str
    beta_x: tuple[float, ...]
    se_x: tuple[float, ...]
    beta_y: float
    se_y: float

    def __post_init__(self) -> None:
        _require(bool(self.variant_id), "empty variant_id")
        _require(bool(self.effect_allele) and bool(self.other_allele),
                 f"empty allele label for variant '{self.variant_id}'")
        _require(len(self.beta_x) == len(self.se_x),
                 f"beta_x/se_x length mismatch for variant '{self.variant_id}'")
        values = (*self.beta_x, *self.se_x, self.beta_y, self.se_y)
        _require(all(np.isfinite(v) for v in values),
                 f"non-finite value for variant '{self.variant_id}'")
        _require(all(s > 0 for s in self.se_x) and self.se_y > 0,
                 f"non-positive standard error for variant '{self.variant_id}'")


@dataclass(frozen=True)
class CorrelationMatrix:
    """J x J variant correlation matrix: symmetric, unit diagonal, PSD.

    Positive semi-definiteness is checked by attempted factorization;
    empirical correlation matrices are often numerically indefinite, so
    eigenvalues down to -1e-10 are accepted (treated as zero downstream).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        _require(entries.ndim == 2 and entries.shape[0] == entries.shape[1],
                 "correlation matrix must be square")
        _require(np.all(np.isfinite(entries)), "non-finite correlation entry")
        _require(np.max(np.abs(entries - entries.T)) <= 1e-8,
                 "correlation matrix asymmetric beyond tolerance 1e-8")
        _require(np.max(np.abs(np.diag(entries) - 1.0)) <= 1e-8,
                 "correlation matrix diagonal differs from 1 beyond tolerance 1e-8")
        _require(np.max(np.abs(entries)) <= 1.0 + 1e-8, "correlation out of range")
        try:
            np.linalg.cholesky(entries)
        except np.linalg.LinAlgError:
            # Not strictly PD; accept if the smallest eigenvalue is only
            # negligibly negative (numerical PSD).
            smallest = float(np.linalg.eigvalsh(entries)[0])
            _require(smallest >= -1e-10,
                     "correlation matrix is not positive semi-definite "
                     f"(smallest eigenvalue {smallest:.3e})")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SummaryDataset:
    """Ordered collection of variant records sharing one risk-factor list."""

    risk_factor_names: tuple[str, ...]
    variants: tuple[VariantRecord, ...]
    correlation: CorrelationMatrix | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "risk_factor_names", tuple(self.risk_factor_names))
        object.__setattr__(self, "variants", tuple(self.variants))
        _require(len(self.risk_factor_names) >= 1, "at least one risk factor required")
        _require(len(self.variants) >= 1, "at least one variant required")
        k = len(self.risk_factor_names)
        for v in self.variants:
            _require(len(v.beta_x) == k,
                     f"variant '{v.variant_id}' has {len(v.beta_x)} risk-factor "
                     f"associations, expected {k}")
        ids = [v.variant_id for v in self.variants]
        _require(len(set(ids)) == len(ids), "duplicate variant_id")
        if self.correlation is not None:
            _require(self.correlation.dimension == len(self.variants),
                     "correlation dimension does not match variant count")

    @property
    def j(self) -> int:
        """Number of variants."""
        return len(self.variants)

    @property
    def k(self) -> int:
        """Number of risk factors."""
        return len(self.risk_factor_names)

    def beta_x_matrix(self) -> np.ndarray:
        """(J, K) matrix of risk-factor associations in dataset order."""
        return np.array([v.beta_x for v in self.variants], dtype=float)

    def beta_y_vector(self) -> np.ndarray:
        return np.array([v.beta_y for v in self.variants], dtype=float)

    def se_y_vector(self) -> np.ndarray:
        return np.array([v.se_y for v in self.variants], dtype=float)

    def with_correlation(self, correlation: CorrelationMatrix | None) -> "SummaryDataset":
        """Return a copy with the correlation matrix attached (or detached)."""
        return replace(self, correlation=correlation)


def _expected_header(k: int) -> list[str]:
    header = ["variant_id", "effect_allele", "other_allele"]
    for i in range(1, k + 1):
        header += [f"beta_x{i}", f"se_x{i}"]
    return header + ["beta_y", "se_y"]


def load_dataset(path: str | Path, k: int) -> SummaryDataset:
    """Load and validate a summary-statistics CSV with K risk factors.

    Row order is preserved. Every malformed input raises :class:`DataError`
    with the offending 1-based file line; a partially constructed dataset is
    never returned.
    """
    if k < 1:
        raise DataError("k must be a positive integer")
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        expected = _expected_header(k)
        if len(header) != len(expected):
            raise DataError(
                f"{path}: column count mismatch: expected {len(expected)} columns "
                f"for k={k}, found {len(header)}")
        if [h.strip() for h in header] != expected:
            raise DataError(
                f"{path}: malformed header: expected {','.join(expected)}")

        variants: list[VariantRecord] = []
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataError(
                    f"{path}: column count mismatch at row {line_no}: "
                    f"expected {len(expected)} fields, found {len(row)}")
            variant_id = row[0].strip()
            if variant_id in seen:
                raise DataError(
                    f"{path}: duplicate variant_id '{variant_id}' at row {line_no}")
            seen.add(variant_id)
            numeric: list[float] = []
            for column, cell in zip(expected[3:], row[3:]):
                try:
                    numeric.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value '{cell.strip()}' in column "
                        f"{column} at row {line_no}") from None
            beta_x = tuple(numeric[0:2 * k:2])
            se_x = tuple(numeric[1:2 * k:2])
            beta_y, se_y = numeric[2 * k], numeric[2 * k + 1]
            if any(s <= 0 for s in se_x) or se_y <= 0:
                raise DataError(
                    f"{path}: non-positive standard error at row {line_no}")
            if not all(np.isfinite(v) for v in numeric):
                raise DataError(f"{path}: non-finite value at row {line_no}")
            variants.append(VariantRecord(
                variant_id=variant_id,
                effect_allele=row[1].strip(),
                other_allele=row[2].strip(),
                beta_x=beta_x,
                se_x=se_x,
                beta_y=beta_y,
                se_y=se_y,
            ))
    if not variants:
        raise DataError(f"{path}: no data rows")
    names = tuple(f"x{i}" for i in range(1, k + 1))
    return SummaryDataset(risk_factor_names=names, variants=tuple(variants))


def load_correlation(path: str | Path, dataset: SummaryDataset) -> CorrelationMatrix:
    """Load a J x J correlation matrix whose row order matches ``dataset``."""
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric correlation entry at row {line_no}") from None
    j = dataset.j
    if len(rows) != j or any(len(r) != j for r in rows):
        raise DataError(
            f"{path}: correlation matrix must be {j}x{j} to match the dataset")
    return CorrelationMatrix(np.array(rows, dtype=float))


def write_dataset(dataset: SummaryDataset, path: str | Path) -> None:
    """Write a dataset back to the CSV schema at 12 significant digits."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_expected_header(dataset.k))
        for v in dataset.variants:
            numeric: list[float] = []
            for b, s in zip(v.beta_x, v.se_x):
                numeric += [b, s]
            numeric += [v.beta_y, v.se_y]
            writer.writerow([v.variant_id, v.effect_allele, v.other_allele]
                            + [f"{value:.12g}" for value in numeric])


def select_risk_factor(dataset: SummaryDataset, name: str) -> SummaryDataset:
    """Project a K-factor dataset down to the single named risk factor.

    The correlation matrix (variant-level) is carried over unchanged.
    """
    if name not in dataset.risk_factor_names:
        raise DataError(f"unknown risk factor '{name}'")
    idx = dataset.risk_factor_names.index(name)
    variants = tuple(
        replace(v, beta_x=(v.beta_x[idx],), se_x=(v.se_x[idx],))
        for v in dataset.variants)
    return SummaryDataset(
        risk_factor_names=(name,),
        variants=variants,
        correlation=dataset.correlation,
    )
