"""Domain model and ingestion for variant-level summary statistics.

The CSV schema (header required, comma-separated, UTF-8) is::

    variant_id,effect_allele,other_allele,beta_x1,se_x1,...,beta_xK,se_xK,beta_y,se_y

Correlation files hold J lines of J comma-separated reals, no header, in
dataset row order. A :class:`SummaryDataset` stores the file's columns as
read-only arrays; :class:`VariantRecord` is the view of one row. All types are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from itertools import compress
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


# A row check: the mask of failing rows (None when no row fails) and the
# message for a failing row.
_Check = tuple[np.ndarray | None, Callable[[int], str]]


@dataclass(frozen=True)
class VariantRecord:
    """One variant's association estimates: a row of a :class:`SummaryDataset`.

    beta_x / se_x are per-allele associations with each risk factor
    (risk-factor SD units); beta_y / se_y the association with the outcome
    (log odds ratio or outcome units). Datasets hand these out through
    :attr:`SummaryDataset.variants` and are built from them with
    :meth:`SummaryDataset.from_records`.
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
        _require(all(map(math.isfinite, values)),
                 f"non-finite value for variant '{self.variant_id}'")
        _require(all(s > 0 for s in self.se_x) and self.se_y > 0,
                 f"non-positive standard error for variant '{self.variant_id}'")


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """J x J variant correlation matrix: symmetric, unit diagonal, PSD.

    Positive semi-definiteness is checked by attempted Cholesky factorization,
    and the lower factor L (rho = L L') is kept as :attr:`factor`, read-only
    and excluded from equality: every generalized least-squares fit whitens
    with diag(se_Y) L, so the matrix is factored once however many estimators
    use it. Empirical correlation matrices are often numerically indefinite,
    so a matrix with no factor still loads when its smallest eigenvalue is at
    least -1e-10; it then has no factor (``factor is None``) and its
    :attr:`smallest_eigenvalue` is kept instead. Such a singular matrix (a
    duplicated variant with rho = 1, say) makes every correlated estimator
    raise FactorizationError naming the singular variant correlation matrix.
    """

    entries: np.ndarray
    factor: np.ndarray | None = field(init=False, repr=False)
    smallest_eigenvalue: float | None = field(init=False, repr=False)

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
        factor, smallest = None, None
        try:
            factor = np.linalg.cholesky(entries)
        except np.linalg.LinAlgError:
            # Not strictly PD; accept if the smallest eigenvalue is only
            # negligibly negative (numerical PSD).
            smallest = float(np.linalg.eigvalsh(entries)[0])
            _require(smallest >= -1e-10,
                     "correlation matrix is not positive semi-definite "
                     f"(smallest eigenvalue {smallest:.3e})")
        self._set(entries, factor, smallest)

    def _set(self, entries: np.ndarray, factor: np.ndarray | None,
             smallest: float | None) -> None:
        for array in (entries, factor):
            if array is not None:
                array.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "smallest_eigenvalue", smallest)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        return bool(np.array_equal(self.entries, other.entries))

    __hash__ = None  # the entries are an ndarray, which has no hash

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def sign_flipped(self, flip: np.ndarray) -> "CorrelationMatrix":
        """S rho S for S = diag(-1 where ``flip`` is set, else 1), unvalidated.

        Negation is exact and S L S is lower triangular with L's positive
        diagonal, so it is the Cholesky factor of S rho S: the flipped matrix
        keeps the factor (or the smallest eigenvalue) without another
        validation or factorization.
        """
        signs = np.where(flip, -1.0, 1.0)
        factor = self.factor
        if factor is not None:
            factor = signs[:, None] * factor * signs
        flipped = object.__new__(CorrelationMatrix)
        flipped._set(signs[:, None] * self.entries * signs, factor,
                     self.smallest_eigenvalue)
        return flipped


def _row_checks(ids: np.ndarray, effect_alleles: np.ndarray,
                other_alleles: np.ndarray, beta_x: np.ndarray, se_x: np.ndarray,
                beta_y: np.ndarray, se_y: np.ndarray) -> list[_Check]:
    """Row invariants of a dataset, in the order they are reported for one row."""
    return [
        (_repeats(ids), lambda row: f"duplicate variant_id '{ids[row]}'"),
        (_rows(se_x <= 0, se_y <= 0), lambda row: "non-positive standard error"),
        (_rows(~np.isfinite(beta_x), ~np.isfinite(se_x), ~np.isfinite(beta_y),
               ~np.isfinite(se_y)), lambda row: "non-finite value"),
        (_rows(ids == ""), lambda row: "empty variant_id"),
        (_rows(effect_alleles == "", other_alleles == ""),
         lambda row: "empty allele label"),
    ]


def _rows(*masks: np.ndarray) -> np.ndarray | None:
    """Rows where any (J,) or (J, K) mask is set; None when none is.

    The per-row reduction runs only when some entry is set, so a valid
    dataset pays for whole-array tests alone.
    """
    if not any(mask.any() for mask in masks):
        return None
    return np.logical_or.reduce(
        [mask if mask.ndim == 1 else mask.any(axis=1) for mask in masks])


def _repeats(ids: np.ndarray) -> np.ndarray | None:
    """Rows whose variant_id appeared in an earlier row; None when none did."""
    if len(set(ids.tolist())) == ids.size:
        return None
    mask = np.ones(ids.shape, dtype=bool)
    mask[np.unique(ids, return_index=True)[1]] = False
    return mask


def _first_fault(checks: list[_Check]) -> tuple[int, str] | None:
    """The earliest failing row and its message; within a row, the first check."""
    faults = [(int(np.flatnonzero(mask)[0]), rank)
              for rank, (mask, _) in enumerate(checks) if mask is not None]
    if not faults:
        return None
    row, rank = min(faults)
    return row, checks[rank][1](row)


@dataclass(frozen=True, eq=False)
class SummaryDataset:
    """J variants' associations with K risk factors and one outcome, as columns.

    Row s of every column describes variant s, in file order:

    * ``variant_ids``, ``effect_alleles``, ``other_alleles``: (J,) str arrays,
      unique non-empty ids and non-empty allele labels;
    * ``beta_x``, ``se_x``: (J, K) float64 per-allele associations with each
      risk factor (risk-factor SD units) and their standard errors;
    * ``beta_y``, ``se_y``: (J,) float64 association with the outcome (log
      odds ratio or outcome units) and its standard error.

    Values are finite and standard errors positive. The constructor copies
    every column into a read-only array, so a dataset never changes after
    construction; :attr:`variants` is a row view built on demand, and
    :meth:`from_records` builds a dataset from rows. Allele labels are
    carried but not biologically validated: harmonization correctness is
    sign logic, not nucleotide chemistry.
    """

    risk_factor_names: tuple[str, ...]
    variant_ids: np.ndarray
    effect_alleles: np.ndarray
    other_alleles: np.ndarray
    beta_x: np.ndarray
    se_x: np.ndarray
    beta_y: np.ndarray
    se_y: np.ndarray
    correlation: CorrelationMatrix | None = None

    def __post_init__(self) -> None:
        names = tuple(self.risk_factor_names)
        _require(len(names) >= 1, "at least one risk factor required")
        ids = np.array(self.variant_ids, dtype=str)
        _require(ids.ndim == 1 and ids.size >= 1, "at least one variant required")
        j, k = ids.size, len(names)
        object.__setattr__(self, "risk_factor_names", names)
        for name, dtype, shape in (
                ("variant_ids", str, (j,)),
                ("effect_alleles", str, (j,)),
                ("other_alleles", str, (j,)),
                ("beta_x", np.float64, (j, k)),
                ("se_x", np.float64, (j, k)),
                ("beta_y", np.float64, (j,)),
                ("se_y", np.float64, (j,))):
            array = np.array(getattr(self, name), dtype=dtype, order="C")
            _require(array.shape == shape,
                     f"{name} has shape {array.shape}, expected {shape}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        fault = _first_fault(_row_checks(
            self.variant_ids, self.effect_alleles, self.other_alleles,
            self.beta_x, self.se_x, self.beta_y, self.se_y))
        if fault is not None:
            raise DataError(f"{fault[1]} at variant index {fault[0]}")
        if self.correlation is not None:
            _require(self.correlation.dimension == j,
                     "correlation dimension does not match variant count")

    @classmethod
    def from_records(cls, risk_factor_names: tuple[str, ...],
                     records: Iterable[VariantRecord],
                     correlation: CorrelationMatrix | None = None,
                     ) -> "SummaryDataset":
        """Stack :class:`VariantRecord` rows into a dataset."""
        records = tuple(records)
        k = len(records[0].beta_x) if records else len(risk_factor_names)
        for v in records:
            _require(len(v.beta_x) == k,
                     f"variant '{v.variant_id}' has {len(v.beta_x)} risk-factor "
                     f"associations, expected {k}")
        return cls(
            risk_factor_names=tuple(risk_factor_names),
            variant_ids=[v.variant_id for v in records],
            effect_alleles=[v.effect_allele for v in records],
            other_alleles=[v.other_allele for v in records],
            beta_x=np.reshape([v.beta_x for v in records], (len(records), k)),
            se_x=np.reshape([v.se_x for v in records], (len(records), k)),
            beta_y=[v.beta_y for v in records],
            se_y=[v.se_y for v in records],
            correlation=correlation,
        )

    @property
    def variants(self) -> tuple[VariantRecord, ...]:
        """Row view: one :class:`VariantRecord` per variant, built on each access."""
        return tuple(map(
            VariantRecord,
            self.variant_ids.tolist(),
            self.effect_alleles.tolist(),
            self.other_alleles.tolist(),
            map(tuple, self.beta_x.tolist()),
            map(tuple, self.se_x.tolist()),
            self.beta_y.tolist(),
            self.se_y.tolist(),
        ))

    @property
    def j(self) -> int:
        """Number of variants."""
        return self.variant_ids.size

    @property
    def k(self) -> int:
        """Number of risk factors."""
        return len(self.risk_factor_names)

    def beta_x_matrix(self) -> np.ndarray:
        """(J, K) read-only matrix of risk-factor associations."""
        return self.beta_x

    def beta_y_vector(self) -> np.ndarray:
        """(J,) read-only vector of outcome associations."""
        return self.beta_y

    def se_y_vector(self) -> np.ndarray:
        """(J,) read-only vector of outcome standard errors."""
        return self.se_y

    def with_correlation(self, correlation: CorrelationMatrix | None) -> "SummaryDataset":
        """Return a copy with the correlation matrix attached (or detached)."""
        return replace(self, correlation=correlation)


def _expected_header(k: int) -> list[str]:
    header = ["variant_id", "effect_allele", "other_allele"]
    for i in range(1, k + 1):
        header += [f"beta_x{i}", f"se_x{i}"]
    return header + ["beta_y", "se_y"]


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DataError:
    """DataError for a file that is not UTF-8, at the line of its first bad byte.

    A reader decodes in chunks, so ``exc`` places the byte only within its
    chunk; the file is read again whole to find the line.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        # A sentinel byte makes the line holding the bad byte count too.
        line = len((data[:whole.start] + b"x").splitlines())
        return DataError(f"{path}: not UTF-8 text ({whole.reason}) at line {line}")
    # The file changed after the failed read.
    return DataError(f"{path}: not UTF-8 text ({exc.reason})")


def load_dataset(path: str | Path, k: int) -> SummaryDataset:
    """Load and validate a summary-statistics CSV with K risk factors.

    Row order is preserved. Every malformed input raises :class:`DataError`
    with the first offending 1-based file line; a partially constructed
    dataset is never returned. Numeric cells are parsed as Python's
    ``float()`` parses them, and labels are stripped of surrounding
    whitespace.
    """
    if k < 1:
        raise DataError("k must be a positive integer")
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            expected = _expected_header(k)
            if len(header) != len(expected):
                raise DataError(
                    f"{path}: column count mismatch: expected {len(expected)} "
                    f"columns for k={k}, found {len(header)}")
            if [h.strip() for h in header] != expected:
                raise DataError(
                    f"{path}: malformed header: expected {','.join(expected)}")
            rows = list(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise DataError(f"{path}: {exc} at line {reader.line_num}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None

    lines = np.arange(2, len(rows) + 2)
    if not all(rows):  # a blank line reads as an empty row
        kept = np.fromiter(map(bool, rows), dtype=bool, count=len(rows))
        rows, lines = list(compress(rows, kept)), lines[kept]
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    ragged = np.flatnonzero(widths != len(expected))
    # Rows from the first ragged one on cannot be split into columns; any
    # fault before it is reported first.
    end = int(ragged[0]) if ragged.size else len(rows)
    cells = np.array(rows[:end], dtype=object).reshape(end, len(expected))
    labels = np.char.strip(cells[:, :3].astype(str))
    values, bad_cell = _parse_numeric(cells[:, 3:])

    checks = _row_checks(labels[:, 0], labels[:, 1], labels[:, 2],
                         values[:, 0:2 * k:2], values[:, 1:2 * k:2],
                         values[:, 2 * k], values[:, 2 * k + 1])
    if bad_cell is not None:
        row, column = bad_cell
        checks.insert(1, (
            np.arange(end) == row,
            lambda _: (f"non-numeric value '{cells[row, 3 + column].strip()}' "
                       f"in column {expected[3 + column]}")))
    fault = _first_fault(checks)
    if fault is not None:
        raise DataError(f"{path}: {fault[1]} at row {lines[fault[0]]}")
    if ragged.size:
        raise DataError(
            f"{path}: column count mismatch at row {lines[end]}: "
            f"expected {len(expected)} fields, found {widths[end]}")
    if end == 0:
        raise DataError(f"{path}: no data rows")
    return SummaryDataset(
        risk_factor_names=tuple(f"x{i}" for i in range(1, k + 1)),
        variant_ids=labels[:, 0],
        effect_alleles=labels[:, 1],
        other_alleles=labels[:, 2],
        beta_x=values[:, 0:2 * k:2],
        se_x=values[:, 1:2 * k:2],
        beta_y=values[:, 2 * k],
        se_y=values[:, 2 * k + 1],
    )


def _parse_numeric(cells: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Parse a (J, C) block of numeric cells with ``float()``.

    Returns the values and ``None``, or, when a cell does not parse, the
    values of the rows before it (later rows NaN) and the cell's (row,
    column).
    """
    try:
        return cells.astype(np.float64), None
    except ValueError:
        pass
    for row, column in np.ndindex(cells.shape):
        try:
            float(cells[row, column])
        except ValueError:
            break
    values = np.full(cells.shape, np.nan)
    values[:row] = cells[:row].astype(np.float64)
    return values, (row, column)


def load_correlation(path: str | Path, dataset: SummaryDataset) -> CorrelationMatrix:
    """Load a J x J correlation matrix whose row order matches ``dataset``.

    Cells are parsed as Python's ``float()`` parses them; blank and
    whitespace-only lines are skipped. A file that does not parse as a whole
    J x J array is parsed again row by row, which reports its first
    offending 1-based line.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # An empty file warns here; the row parse reports it.
            warnings.simplefilter("ignore")
            entries = np.loadtxt(path, dtype=float, delimiter=",",
                                 comments=None, ndmin=2,
                                 encoding="utf-8-sig")
    except ValueError:  # UnicodeDecodeError too: the row parse reports it
        entries = None
    if entries is None or entries.shape != (dataset.j, dataset.j):
        entries = _parse_correlation_rows(path, dataset.j)
    return CorrelationMatrix(entries)


def _parse_correlation_rows(path: Path, j: int) -> list[list[float]]:
    """Parse a correlation file line by line; DataError at the first bad row."""
    rows: list[list[float]] = []
    line_nos: list[int] = []
    with path.open(encoding="utf-8-sig") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    raise DataError(f"{path}: non-numeric correlation entry "
                                    f"at row {line_no}") from None
                line_nos.append(line_no)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    mismatch = f"{path}: correlation matrix must be {j}x{j} to match the dataset"
    for line_no, row in zip(line_nos, rows):
        if len(row) != j:
            raise DataError(f"{mismatch}: row {line_no} has {len(row)} entries")
    if len(rows) != j:
        raise DataError(f"{mismatch}: found {len(rows)} rows")
    return rows


def write_dataset(dataset: SummaryDataset, path: str | Path) -> None:
    """Write a dataset back to the CSV schema at 12 significant digits."""
    path = Path(path)
    numeric = np.empty((dataset.j, 2 * dataset.k + 2))
    numeric[:, 0:-2:2] = dataset.beta_x
    numeric[:, 1:-2:2] = dataset.se_x
    numeric[:, -2] = dataset.beta_y
    numeric[:, -1] = dataset.se_y
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_expected_header(dataset.k))
        for variant_id, effect, other, values in zip(
                dataset.variant_ids.tolist(), dataset.effect_alleles.tolist(),
                dataset.other_alleles.tolist(), numeric.tolist()):
            writer.writerow([variant_id, effect, other]
                            + [f"{value:.12g}" for value in values])


def select_risk_factor(dataset: SummaryDataset, name: str) -> SummaryDataset:
    """Project a K-factor dataset down to the single named risk factor.

    The correlation matrix (variant-level) is carried over unchanged.
    """
    if name not in dataset.risk_factor_names:
        raise DataError(f"unknown risk factor '{name}'")
    i = dataset.risk_factor_names.index(name)
    return replace(dataset, risk_factor_names=(name,),
                   beta_x=dataset.beta_x[:, i:i + 1],
                   se_x=dataset.se_x[:, i:i + 1])
