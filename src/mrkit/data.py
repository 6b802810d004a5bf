"""Domain model and ingestion for variant-level summary statistics.

The CSV schema (header required, comma-separated, UTF-8) is::

    variant_id,effect_allele,other_allele,beta_x1,se_x1,...,beta_xK,se_xK,beta_y,se_y

Correlation files hold J lines of J comma-separated reals, no header, in
dataset row order. A :class:`SummaryDataset` stores the file's columns as
read-only arrays; :class:`VariantRecord` is the view of one row, checked only
when records become a dataset. All types are immutable after construction and
safe to share across threads. A fault in a summary file is named by the
1-based line it is on; a quoted field may hold a line break, and a record
that spans lines is named by the line it ends on. A quote left open to the
end of the file is named by the line it opens on.
"""
from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .regression import _cholesky_in_place, _one_blas_thread

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
    :meth:`SummaryDataset.from_records`. A record is a plain row view and
    checks nothing itself: records are checked when they become a dataset,
    with the constructor's messages.
    """

    variant_id: str
    effect_allele: str
    other_allele: str
    beta_x: tuple[float, ...]
    se_x: tuple[float, ...]
    beta_y: float
    se_y: float


@dataclass(frozen=True, eq=False, init=False, repr=False)
class CorrelationMatrix:
    """J x J variant correlation matrix: symmetric, unit diagonal, definite.

    A matrix is accepted only if it has a Cholesky factor, because every
    generalized least-squares fit needs one: a singular matrix (a duplicated
    variant with rho = 1, say) or an indefinite one raises DataError here,
    at load, with its smallest eigenvalue.

    The matrix is S rho0 S for a validated matrix rho0 and a (J,) vector of
    signs S, all ones at load; :meth:`sign_flipped` negates signs and
    nothing else. rho0 and its lower factor L0 (rho0 = L0 L0') share one
    J x J array, in LAPACK's own layout: L0 in the lower triangle and on the
    diagonal, rho0's strict upper triangle above it, and rho0's diagonal
    kept as a (J,) vector. The factor is computed in place, once however
    many estimators use it and however the matrix is flipped, on one BLAS
    thread, so ``OPENBLAS_NUM_THREADS`` changes neither the factor nor the
    CPU cost of ``mrkit analyze --corr``. The estimators whiten against
    that array, which reads only L0, with their rows multiplied by the
    signs; :attr:`entries` (S rho0 S) and :attr:`factor` (S L0 S) are
    read-only J x J arrays built each time they are read.

    The constructor validates and factors a copy of the entries it is given;
    :func:`load_correlation` instead adopts the array it parsed, so a loaded
    matrix is held in one J x J array. The checks make no J x J temporary:
    symmetry is tested in blocks of rows, the range by ``max`` and ``min``.
    A matrix that is asymmetric within the tolerance is factored from its
    lower triangle and keeps its upper one, so its :attr:`entries` are the
    symmetric matrix of its upper triangle.
    """

    _packed: np.ndarray
    _diagonal: np.ndarray
    _signs: np.ndarray

    def __init__(self, entries) -> None:
        self._validate_and_factor(np.array(entries, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "CorrelationMatrix":
        """Validate and factor ``entries`` itself, with no defensive copy.

        For a C-contiguous float64 array that nothing else holds; it becomes
        the matrix's read-only packed array.
        """
        matrix = object.__new__(cls)
        matrix._validate_and_factor(entries)
        return matrix

    def _validate_and_factor(self, entries: np.ndarray) -> None:
        _require(entries.ndim == 2 and entries.shape[0] == entries.shape[1],
                 "correlation matrix must be square")
        _require(entries.size > 0, "correlation matrix is empty")
        _require(bool(np.isfinite(entries).all()), "non-finite correlation entry")
        _require(_asymmetry(entries) <= 1e-8,
                 "correlation matrix asymmetric beyond tolerance 1e-8")
        diagonal = entries.diagonal().copy()
        _require(np.max(np.abs(diagonal - 1.0)) <= 1e-8,
                 "correlation matrix diagonal differs from 1 beyond tolerance 1e-8")
        _require(max(entries.max(), -entries.min()) <= 1.0 + 1e-8,
                 "correlation out of range")
        if not _cholesky_in_place(entries):
            # The strict upper triangle is intact. eigvalsh reads the lower
            # triangle, so on the transpose it reads that one, and the
            # eigenvalue is the full matrix's, bit for bit.
            np.fill_diagonal(entries, diagonal)
            with _one_blas_thread():
                smallest = float(np.linalg.eigvalsh(entries.T)[0])
            raise DataError(
                "correlation matrix is not positive definite (smallest "
                f"eigenvalue {smallest:.3e})")
        self._set(entries, diagonal, np.ones_like(diagonal))

    def _set(self, packed: np.ndarray, diagonal: np.ndarray,
             signs: np.ndarray) -> None:
        for name, array in (("_packed", packed), ("_diagonal", diagonal),
                            ("_signs", signs)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def _conjugated(self, matrix: np.ndarray) -> np.ndarray:
        """S M S, in place, read-only: two exact multiplications by +-1."""
        matrix *= self._signs[:, None]
        matrix *= self._signs
        matrix.setflags(write=False)
        return matrix

    @property
    def entries(self) -> np.ndarray:
        """rho, as a new read-only J x J array."""
        lower = np.tri(self.dimension, k=-1, dtype=bool)
        entries = np.where(lower, self._packed.T, self._packed)
        np.fill_diagonal(entries, self._diagonal)
        return self._conjugated(entries)

    @property
    def factor(self) -> np.ndarray:
        """The lower Cholesky factor L, as a new read-only J x J array."""
        return self._conjugated(np.tril(self._packed))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        # rho is its diagonal and its strict upper triangle, row by row.
        return (self.dimension == other.dimension
                and np.array_equal(self._diagonal, other._diagonal)
                and all(np.array_equal(self._upper_row(s), other._upper_row(s))
                        for s in range(self.dimension)))

    def _upper_row(self, s: int) -> np.ndarray:
        """Row ``s`` of rho's strict upper triangle."""
        return self._packed[s, s + 1:] * (self._signs[s] * self._signs[s + 1:])

    __hash__ = None  # the entries are an ndarray, which has no hash

    @property
    def dimension(self) -> int:
        return self._diagonal.size

    def sign_flipped(self, flip: np.ndarray) -> "CorrelationMatrix":
        """S rho S for S = diag(-1 where ``flip`` is set, else 1), unvalidated.

        S L S is lower triangular with L's positive diagonal, so it is the
        Cholesky factor of S rho S: the flipped matrix negates its signs
        where ``flip`` is set and shares this one's packed array and
        diagonal, with no validation, factorization or J x J array.
        """
        flipped = object.__new__(CorrelationMatrix)
        flipped._set(self._packed, self._diagonal,
                     np.where(flip, -self._signs, self._signs))
        return flipped


# Rows per block of the symmetry test, whose one temporary is 64 x J.
_SYMMETRY_BLOCK = 64


def _asymmetry(entries: np.ndarray) -> float:
    """max |entries - entries'|, one block of rows at a time."""
    worst = 0.0
    for start in range(0, entries.shape[0], _SYMMETRY_BLOCK):
        rows = slice(start, start + _SYMMETRY_BLOCK)
        block = np.subtract(entries[rows], entries[:, rows].T)
        worst = max(worst, float(np.abs(block, out=block).max()))
    return worst


# The most characters of a cell a message echoes; a longer cell is cut.
_ECHO_LIMIT = 40


def _printable(text: str) -> str:
    """``text`` on one line, for a message or a report.

    A character that does not print, such as a line break a quoted field
    holds, is written as its Python escape (``\\n``, ``\\x00``). Text that
    prints whole, as nearly all does, is returned after one C-level check.
    """
    return text if text.isprintable() else "".join(
        c if c.isprintable() else repr(c)[1:-1] for c in text)


def _echo(cell: str) -> str:
    """``cell`` quoted for a message, by :func:`_printable` and cut.

    The cut comes after the escaping, so the echo is at most
    ``_ECHO_LIMIT`` characters as printed.
    """
    cell = _printable(cell)
    if len(cell) > _ECHO_LIMIT:
        cell = cell[:_ECHO_LIMIT - 3] + "..."
    return f"'{cell}'"


def _row_checks(variant_ids: np.ndarray, effect_alleles: np.ndarray,
                other_alleles: np.ndarray, beta_x: np.ndarray, se_x: np.ndarray,
                beta_y: np.ndarray, se_y: np.ndarray) -> list[_Check]:
    """Row invariants of a dataset, in the order they are reported for one row."""
    return [
        (_repeats(variant_ids),
         lambda row: f"duplicate variant_id {_echo(variant_ids[row])}"),
        (_rows(se_x <= 0, se_y <= 0), lambda row: "non-positive standard error"),
        (_rows(~np.isfinite(beta_x), ~np.isfinite(se_x), ~np.isfinite(beta_y),
               ~np.isfinite(se_y)), lambda row: "non-finite value"),
        (_rows(variant_ids == ""), lambda row: "empty variant_id"),
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


# Labels as Python strs: each stripped of surrounding whitespace, as the
# loaders keep them, or made with ``str()``, as the constructor keeps them.
_strip = np.frompyfunc(str.strip, 1, 1)
_to_str = np.frompyfunc(str, 1, 1)


def _str_objects(values) -> np.ndarray:
    """``values`` as a new object array holding ``str(value)`` for each value."""
    array = np.array(values, dtype=object)
    return _to_str(array, out=array)


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

    * ``variant_ids``, ``effect_alleles``, ``other_alleles``: (J,) object
      arrays of ``str``, unique non-empty ids and non-empty allele labels,
      kept exactly as parsed apart from surrounding whitespace;
    * ``beta_x``, ``se_x``: (J, K) float64 per-allele associations with each
      risk factor (risk-factor SD units) and their standard errors;
    * ``beta_y``, ``se_y``: (J,) float64 association with the outcome (log
      odds ratio or outcome units) and its standard error.

    Values are finite and standard errors positive. Every column is a
    read-only array, so a dataset never changes after construction. The
    constructor (and so :meth:`from_records` and ``dataclasses.replace``)
    copies and validates what it is given, holding each label as ``str()``
    makes it. The program's own datasets are checked once, where their
    columns enter: :func:`load_dataset` checks the file's rows, and
    :meth:`with_correlation`, :func:`select_risk_factor` and
    :func:`mrkit.orientation.orient` derive new datasets that share their
    parent's unchanged columns, without a copy or another check.
    :attr:`variants` is a row view built on demand. Allele labels are
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
        ids = _str_objects(self.variant_ids)
        _require(ids.ndim == 1 and ids.size >= 1, "at least one variant required")
        j, k = ids.size, len(names)
        object.__setattr__(self, "risk_factor_names", names)
        for name, dtype, shape in (
                ("variant_ids", object, (j,)),
                ("effect_alleles", object, (j,)),
                ("other_alleles", object, (j,)),
                ("beta_x", np.float64, (j, k)),
                ("se_x", np.float64, (j, k)),
                ("beta_y", np.float64, (j,)),
                ("se_y", np.float64, (j,))):
            value = getattr(self, name)
            array = (_str_objects(value) if dtype is object
                     else np.array(value, dtype=dtype, order="C"))
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
    def _checked(cls, **columns) -> "SummaryDataset":
        """A dataset from every field's value, already known to be valid.

        No copy and no check: the arrays become read-only and are held as
        given. For columns that satisfy every invariant by construction.
        """
        dataset = object.__new__(cls)
        for name, value in columns.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(dataset, name, value)
        return dataset

    def _derive(self, **changes) -> "SummaryDataset":
        """This dataset with some fields replaced by valid ones; the rest shared."""
        return self._checked(**{**vars(self), **changes})

    @classmethod
    def from_records(cls, risk_factor_names: tuple[str, ...],
                     records: Iterable[VariantRecord],
                     correlation: CorrelationMatrix | None = None,
                     ) -> "SummaryDataset":
        """Stack :class:`VariantRecord` rows into a dataset.

        Each record must hold K beta_x and K se_x values, K those of the
        first record; every other invariant is the constructor's to check.
        """
        records = tuple(records)
        k = len(records[0].beta_x) if records else len(risk_factor_names)
        for v in records:
            _require(len(v.beta_x) == len(v.se_x) == k,
                     f"beta_x/se_x length mismatch for variant "
                     f"'{v.variant_id}': {len(v.beta_x)} and {len(v.se_x)} "
                     f"values, expected {k}")
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

    def _risk_factor_index(self, name: str) -> int:
        """The column of risk factor ``name``; DataError naming the dataset's
        risk factors when it has none of that name."""
        if name not in self.risk_factor_names:
            raise DataError(
                f"unknown risk factor {name!r}; "
                f"expected one of {', '.join(self.risk_factor_names)}")
        return self.risk_factor_names.index(name)

    def with_correlation(self, correlation: CorrelationMatrix | None) -> "SummaryDataset":
        """This dataset with the correlation matrix attached (or detached).

        The result shares this dataset's columns.
        """
        if correlation is not None:
            _require(correlation.dimension == self.j,
                     "correlation dimension does not match variant count")
        return self._derive(correlation=correlation)


def _expected_header(k: int) -> list[str]:
    header = ["variant_id", "effect_allele", "other_allele"]
    for i in range(1, k + 1):
        header += [f"beta_x{i}", f"se_x{i}"]
    return header + ["beta_y", "se_y"]


def _read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, less an optional BOM: read once, decoded once.

    A file that is not UTF-8 raises DataError at the 1-based line of its
    first bad byte, before any parse sees the file. The message names the
    file as ``path`` spells it, as every reader's messages do.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # A sentinel byte makes the line holding the bad byte count too.
        line = len((data[:exc.start] + b"x").splitlines())
        raise DataError(
            f"{path}: not UTF-8 text ({exc.reason}) at line {line}") from None


def load_dataset(path: str | Path, k: int) -> SummaryDataset:
    """Load and validate a summary-statistics CSV with K risk factors.

    Row order is preserved. Every malformed input raises :class:`DataError`
    with the first offending 1-based file line, as csv numbers lines: a
    record whose quoted field holds a line break is named by the line it
    ends on, and a quote left open by the line it opens on. A partially
    constructed dataset is never returned. Numeric cells are parsed as
    Python's ``float()`` parses them, and labels are stripped of surrounding
    whitespace and otherwise kept as written.

    The file is read and decoded once, so it may be a pipe; a file that is
    not UTF-8 fails at the line of its first bad byte before any other
    fault is reported. Well-formed text without quotes is parsed in one C
    pass (:func:`numpy.loadtxt`). Any other text, and any with a fault, is
    parsed row by row with :mod:`csv`, which reports the fault. Both parses
    give the same dataset, bit for bit, wherever the first one accepts.
    Error messages name the file as ``path`` spells it.
    """
    if k < 1:
        raise DataError("k must be a positive integer")
    text = _read_text(path)
    dataset = _load_one_pass(text, k)
    if dataset is not None:
        return dataset
    records = _csv_records(text, path)
    try:
        header, line = next(records)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    expected = _expected_header(k)
    if len(header) != len(expected):
        raise DataError(
            f"{path}: column count mismatch at line {line}: expected "
            f"{len(expected)} columns for k={k}, found {len(header)}")
    if [h.strip() for h in header] != expected:
        raise DataError(f"{path}: malformed header at line {line}: "
                        f"expected {','.join(expected)}")
    rows, lines = [], []
    for row, line in records:
        if row:  # a blank line reads as an empty row
            rows.append(row)
            lines.append(line)

    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    ragged = np.flatnonzero(widths != len(expected))
    # Rows from the first ragged one on cannot be split into columns; any
    # fault before it is reported first.
    end = int(ragged[0]) if ragged.size else len(rows)
    cells = np.array(rows[:end], dtype=object).reshape(end, len(expected))
    labels = _strip(cells[:, :3])
    values, bad_cell = _parse_numeric(cells[:, 3:])

    columns = _columns(labels, values, k)
    checks = _row_checks(**columns)
    if bad_cell is not None:
        row, column = bad_cell
        message = (f"non-numeric value {_echo(cells[row, 3 + column].strip())}"
                   f" in column {expected[3 + column]}")
        checks.insert(1, (np.arange(end) == row, lambda _: message))
    fault = _first_fault(checks)
    if fault is not None:
        raise DataError(f"{path}: {fault[1]} at line {lines[fault[0]]}")
    if ragged.size:
        raise DataError(
            f"{path}: column count mismatch at line {lines[end]}: "
            f"expected {len(expected)} fields, found {widths[end]}")
    if end == 0:
        raise DataError(f"{path}: no data rows")
    return _loaded(columns, k)


def _csv_records(text: str,
                 path: str | Path) -> Iterator[tuple[list[str], int]]:
    """The csv records of a file's text, each with the line it ends on.

    csv's own errors and a quote left open raise DataError at their line.
    The reader is not strict, so it reads an open quote to the end of the
    text as one field, and only such a record is read after the last line.
    """
    at_end = False

    def physical_lines():
        nonlocal at_end
        yield from io.StringIO(text, newline="")
        at_end = True

    reader = csv.reader(physical_lines())
    try:
        for row in reader:
            if at_end:
                # The open field holds the lines from its quote on.
                spanned = len(io.StringIO(row[-1], newline="").readlines())
                raise DataError(
                    f"{path}: unterminated quote opened at line "
                    f"{reader.line_num - max(spanned, 1) + 1}")
            yield row, reader.line_num
    except csv.Error as exc:
        raise DataError(f"{path}: {exc} at line {reader.line_num}") from None


# Characters whose presence sends a file to the row parse: the quote, with
# which a csv field can hold commas and line breaks; NUL, which csv rejects
# before Python 3.11; and the line breaks of str.splitlines that csv keeps
# inside a field.
_ROW_PARSE_ONLY = ('"', "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029")


def _load_one_pass(text: str, k: int) -> SummaryDataset | None:
    """The dataset of a well-formed quote-free file's text, in one C pass.

    Returns None, and so leaves the text to the row parse, for anything
    else: text that holds a character of ``_ROW_PARSE_ONLY`` or a line
    longer than csv's field size limit, whose header or any row is faulty,
    or that has no data rows.
    Without those characters, the lines split here are csv's records and
    their commas csv's field breaks, so a field is never longer than its
    line. The C parser of ``loadtxt`` (numpy >= 1.23) accepts no float cell
    that ``float()`` rejects and reads every cell it accepts to the same
    value; labels keep their whitespace, which is stripped as in the row
    parse.
    """
    if any(char in text for char in _ROW_PARSE_ONLY):
        return None
    lines = text.splitlines()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    header, data = lines[0], lines[1:]
    if ([h.strip() for h in header.split(",")] != _expected_header(k)
            or not any(data)):  # loadtxt warns when it finds no rows
        return None
    dtype = np.dtype([("labels", object, 3), ("values", np.float64, 2 * k + 2)])
    try:
        rows = np.loadtxt(data, dtype=dtype, delimiter=",", comments=None,
                          ndmin=1)
    except ValueError:
        return None
    # The labels and values are copied out of the records, so the dataset's
    # columns are laid out as the row parse's are and do not keep the records.
    columns = _columns(_strip(rows["labels"]), rows["values"].copy(), k)
    if _first_fault(_row_checks(**columns)) is not None:
        return None
    return _loaded(columns, k)


def _columns(labels: np.ndarray, values: np.ndarray,
             k: int) -> dict[str, np.ndarray]:
    """A dataset's seven columns from its (J, 3) labels and (J, 2K + 2) values."""
    return {
        "variant_ids": labels[:, 0],
        "effect_alleles": labels[:, 1],
        "other_alleles": labels[:, 2],
        "beta_x": values[:, 0:2 * k:2],
        "se_x": values[:, 1:2 * k:2],
        "beta_y": values[:, 2 * k],
        "se_y": values[:, 2 * k + 1],
    }


def _loaded(columns: dict[str, np.ndarray], k: int) -> SummaryDataset:
    """The dataset of a file's columns, which passed the file-line row checks.

    Those checks are the dataset's checks, reported by file line.
    """
    return SummaryDataset._checked(
        risk_factor_names=tuple(f"x{i}" for i in range(1, k + 1)),
        **columns, correlation=None)


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


def load_correlation(path: str | Path,
                     dataset: SummaryDataset) -> CorrelationMatrix:
    """Load a J x J correlation matrix whose row order matches ``dataset``.

    Cells are parsed as Python's ``float()`` parses them; blank and
    whitespace-only lines are skipped. A regular file is streamed through
    :func:`numpy.loadtxt`; a pipe is read once and both parses share its
    text. A file that does not parse as a whole J x J array is parsed again
    row by row, which reports its first offending 1-based line; a file that
    is not UTF-8 fails there at the line of its first bad byte, before any
    other fault.

    The parsed array is validated, then factored in place, and becomes the
    matrix's packed array without a copy, so one J x J array holds rho's
    upper triangle and its Cholesky factor. Orienting the dataset it is
    attached to flips its signs and shares that array. Error messages name
    the file as ``path`` spells it.
    """
    # A regular file is streamed, so its text is never held beside the
    # matrix. Anything else that exists, such as a pipe, can be read only
    # once, so its text is read first and serves both parses; a missing file
    # is left to loadtxt, which names it.
    file = Path(path)
    text = _read_text(path) if file.exists() and not file.is_file() else None
    try:
        with warnings.catch_warnings():
            # An empty file warns here; the row parse reports it.
            warnings.simplefilter("ignore")
            entries = np.loadtxt(
                file if text is None else io.StringIO(text, newline=None),
                dtype=float, delimiter=",", comments=None, ndmin=2,
                encoding="utf-8-sig")
    except ValueError:  # UnicodeDecodeError too: the row parse reports it
        entries = None
    if entries is None or entries.shape != (dataset.j, dataset.j):
        rows = _parse_correlation_rows(
            _read_text(path) if text is None else text, path, dataset.j)
        entries = np.array(rows, dtype=float)
    try:
        return CorrelationMatrix._adopt(entries)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_correlation_rows(text: str, path: str | Path,
                            j: int) -> list[list[float]]:
    """Parse a correlation file line by line; DataError at the first bad row."""
    rows: list[list[float]] = []
    line_nos: list[int] = []
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise DataError(f"{path}: non-numeric correlation entry "
                            f"at line {line_no}") from None
        line_nos.append(line_no)
    mismatch = f"{path}: correlation matrix must be {j}x{j} to match the dataset"
    for line_no, row in zip(line_nos, rows):
        if len(row) != j:
            raise DataError(f"{mismatch}: line {line_no} has {len(row)} entries")
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

    The result's risk-factor columns are views of the dataset's; every other
    column and the correlation matrix (variant-level) are shared unchanged.
    """
    i = dataset._risk_factor_index(name)
    return dataset._derive(risk_factor_names=(name,),
                           beta_x=dataset.beta_x[:, i:i + 1],
                           se_x=dataset.se_x[:, i:i + 1])
