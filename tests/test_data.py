"""Ingestion, validation, and round-trip behaviour of the data layer."""
import csv
import dataclasses
import io
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrkit.cli
import mrkit.data
from mrkit import (
    CorrelationMatrix,
    DataError,
    SummaryDataset,
    VariantRecord,
    load_correlation,
    load_dataset,
    select_risk_factor,
    write_dataset,
)
from mrkit.regression import _one_blas_thread

from conftest import make_dataset, random_correlation, subprocess_env


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


HEADER_K1 = "variant_id,effect_allele,other_allele,beta_x1,se_x1,beta_y,se_y\n"
HEADER_K2 = ("variant_id,effect_allele,other_allele,"
             "beta_x1,se_x1,beta_x2,se_x2,beta_y,se_y\n")


def _from_record(*fields):
    """A one-variant dataset from a :class:`VariantRecord` of ``fields``."""
    record = VariantRecord(*fields)
    return SummaryDataset.from_records(
        [f"x{i}" for i in range(1, len(record.beta_x) + 1)], [record])


class TestVariantRecord:
    # A record is a row view; records are checked when they become a
    # dataset, with the constructor's messages.
    def test_valid_record(self):
        v = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        assert v.beta_x == (0.1,)
        assert v.se_y == 0.01

    def test_empty_id(self):
        with pytest.raises(DataError, match="empty variant_id"):
            _from_record("", "A", "G", (0.1,), (0.02,), 0.05, 0.01)

    def test_empty_allele(self):
        with pytest.raises(DataError, match="empty allele label"):
            _from_record("rs1", "A", "", (0.1,), (0.02,), 0.05, 0.01)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match=re.escape(
                "beta_x/se_x length mismatch for variant 'rs1': 2 and 1 "
                "values, expected 2")):
            _from_record("rs1", "A", "G", (0.1, 0.2), (0.02,), 0.05, 0.01)

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            _from_record("rs1", "A", "G", (float("nan"),), (0.02,), 0.05, 0.01)

    def test_non_positive_se(self):
        with pytest.raises(DataError, match="non-positive standard error"):
            _from_record("rs1", "A", "G", (0.1,), (0.0,), 0.05, 0.01)
        with pytest.raises(DataError, match="non-positive standard error"):
            _from_record("rs1", "A", "G", (0.1,), (0.02,), 0.05, -1.0)


class TestCorrelationMatrix:
    def test_valid(self):
        m = CorrelationMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        assert m.dimension == 2
        assert m.entries[0, 1] == 0.9

    def test_entries_read_only(self):
        # entries and factor are built on each read, from the one packed
        # array and the diagonal; all four are read-only.
        m = CorrelationMatrix(np.eye(3))
        for array in (m.entries, m.factor, m._packed, m._diagonal):
            with pytest.raises(ValueError):
                array[1] = 0.5
        assert not np.shares_memory(m.entries, m._packed)

    def test_not_square(self):
        with pytest.raises(DataError, match="square"):
            CorrelationMatrix(np.ones((2, 3)))

    def test_empty(self):
        with pytest.raises(DataError, match="^correlation matrix is empty$"):
            CorrelationMatrix(np.zeros((0, 0)))

    def test_asymmetric(self):
        with pytest.raises(DataError, match="asymmetric"):
            CorrelationMatrix(np.array([[1.0, 0.2], [0.5, 1.0]]))

    def test_bad_diagonal(self):
        with pytest.raises(DataError, match="diagonal"):
            CorrelationMatrix(np.array([[1.0, 0.2], [0.2, 0.9]]))

    def test_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            CorrelationMatrix(np.array([[1.0, 1.1], [1.1, 1.0]]))

    def test_indefinite(self):
        # Pairwise correlations of 0.9, -0.9, 0.9 cannot coexist.
        bad = np.array([[1.0, 0.9, -0.9],
                        [0.9, 1.0, 0.9],
                        [-0.9, 0.9, 1.0]])
        with pytest.raises(DataError, match="not positive definite"):
            CorrelationMatrix(bad)

    def test_singular_rejected(self):
        # Rank-deficient (perfect correlation) is PSD but has no Cholesky
        # factor, so no GLS fit can use it: it is refused at load.
        with pytest.raises(DataError, match=r"^correlation matrix is not "
                           r"positive definite \(smallest eigenvalue "):
            CorrelationMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            CorrelationMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_equality_compares_entries(self):
        rho = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert CorrelationMatrix(np.eye(2)) == CorrelationMatrix(np.eye(2))
        assert CorrelationMatrix(rho) == CorrelationMatrix(rho.copy())
        assert CorrelationMatrix(rho) != CorrelationMatrix(np.eye(2))
        assert CorrelationMatrix(np.eye(2)) != CorrelationMatrix(np.eye(3))
        assert CorrelationMatrix(np.eye(2)).__eq__(np.eye(2)) is NotImplemented
        with pytest.raises(TypeError):
            hash(CorrelationMatrix(np.eye(2)))

    def test_sign_flipped_equals_validated_flip(self):
        rho = np.array([[1.0, 0.5, -0.2],
                        [0.5, 1.0, 0.3],
                        [-0.2, 0.3, 1.0]])
        flip = np.array([False, True, True])
        signs = np.where(flip, -1.0, 1.0)
        flipped = CorrelationMatrix(rho).sign_flipped(flip)
        assert flipped == CorrelationMatrix(signs[:, None] * rho * signs)
        assert flipped != CorrelationMatrix(rho)

    def test_factor_independent_of_openblas_threads(self):
        # A threaded Cholesky or triangular solve differs in its last bits
        # from the one-thread result, so the packed matrix, its factor and
        # the correlated fit must not follow OPENBLAS_NUM_THREADS. scipy's
        # OpenBLAS factors the matrix and numpy's may serve the rest; the
        # thread-count functions are looked up once per process, so each
        # OpenBLAS loaded by then must report one thread inside
        # _one_blas_thread. J = 600 is past OpenBLAS's blocking threshold.
        # No scipy module is loaded before the factor, so scipy's OpenBLAS
        # is there only because _cholesky_in_place imports scipy.linalg
        # before it reads the thread counts.
        script = (
            "import hashlib\n"
            "import sys\n"
            "import numpy as np\n"
            "from mrkit import CorrelationMatrix\n"
            "from mrkit.regression import (\n"
            "    _factored_fit, _one_blas_thread, _openblas_thread_apis)\n"
            "lags = np.abs(np.subtract.outer(np.arange(600), np.arange(600)))\n"
            "rho = 0.3 ** lags\n"
            "assert 'scipy.special' not in sys.modules\n"
            "matrix = CorrelationMatrix(rho)\n"
            "assert np.array_equal(matrix.entries, rho)\n"
            "rng = np.random.default_rng(1)\n"
            "fit = _factored_fit(rng.normal(size=(600, 4)),\n"
            "                    rng.normal(size=600), matrix._packed)\n"
            "for array in (matrix._packed, matrix.factor, fit.coefficients):\n"
            "    print(hashlib.sha256(array.tobytes()).hexdigest())\n"
            "loaded = _openblas_thread_apis.__wrapped__()\n"
            "assert len(loaded) == len(_openblas_thread_apis())\n"
            "with _one_blas_thread():\n"
            "    assert [get() for get, _ in loaded] == [1] * len(loaded)\n")
        outputs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=subprocess_env(OPENBLAS_NUM_THREADS=threads), timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestSummaryDataset:
    def test_shapes(self):
        ds = make_dataset([[0.1, 0.2], [0.3, 0.4]], [0.5, 0.6], [0.1, 0.2],
                          names=("a", "b"))
        assert ds.j == 2
        assert ds.k == 2
        assert np.array_equal(ds.beta_x_matrix(),
                              np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.array_equal(ds.beta_y_vector(), np.array([0.5, 0.6]))
        assert np.array_equal(ds.se_y_vector(), np.array([0.1, 0.2]))

    def test_needs_variants(self):
        with pytest.raises(DataError, match="at least one variant"):
            SummaryDataset.from_records(("x1",), ())

    def test_needs_names(self):
        v = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        with pytest.raises(DataError, match="at least one risk factor"):
            SummaryDataset.from_records((), (v,))

    def test_k_mismatch(self):
        v1 = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        v2 = VariantRecord("rs2", "A", "G", (0.1, 0.2), (0.02, 0.02), 0.05, 0.01)
        with pytest.raises(DataError, match="expected 1"):
            SummaryDataset.from_records(("x1",), (v1, v2))

    def test_duplicate_id(self):
        v = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        with pytest.raises(DataError, match="duplicate variant_id"):
            SummaryDataset.from_records(("x1",), (v, v))

    def test_labels_are_str_objects(self):
        # The constructor, from_records and dataclasses.replace hold each
        # label as str() makes it, every character kept.
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        ds = dataclasses.replace(ds, variant_ids=["rs1\x00", "rs1"],
                                 effect_alleles=np.array(["A", "C"]),
                                 other_alleles=(7, 8.5))
        back = SummaryDataset.from_records(ds.risk_factor_names, ds.variants)
        for dataset in (ds, back):
            assert dataset.variant_ids.tolist() == ["rs1\x00", "rs1"]
            assert dataset.effect_alleles.tolist() == ["A", "C"]
            assert dataset.other_alleles.tolist() == ["7", "8.5"]
            for name in ("variant_ids", "effect_alleles", "other_alleles"):
                column = getattr(dataset, name)
                assert column.dtype == object and column.shape == (2,)
                assert all(type(label) is str for label in column.tolist())
                assert not column.flags.writeable

    def test_correlation_dimension(self):
        with pytest.raises(DataError, match="correlation dimension"):
            make_dataset([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [1, 1, 1],
                         corr=np.eye(2))

    def test_with_correlation(self):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        assert ds.correlation is None
        ds2 = ds.with_correlation(CorrelationMatrix(np.eye(2)))
        assert ds2.correlation is not None
        assert ds2.variants == ds.variants
        assert ds2.with_correlation(None).correlation is None

    def test_with_correlation_wrong_size(self):
        ds = make_dataset([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [1, 1, 1])
        with pytest.raises(DataError, match="^correlation dimension does not "
                                            "match variant count$"):
            ds.with_correlation(CorrelationMatrix(np.eye(2)))

    def test_with_correlation_shares_columns(self):
        ds = make_dataset([[0.1, 0.4], [0.2, 0.1]], [0.1, 0.2], [1, 1],
                          names=("x1", "x2"))
        ds2 = ds.with_correlation(CorrelationMatrix(np.eye(2)))
        for name in _COLUMNS:
            assert np.shares_memory(getattr(ds2, name), getattr(ds, name))
            assert not getattr(ds2, name).flags.writeable

    def test_constructor_copies_and_validates(self):
        # Input from outside the program is copied and checked, also
        # through dataclasses.replace; only derived datasets share columns.
        beta_y = np.array([0.1, 0.2])
        ds = make_dataset([0.1, 0.2], beta_y, [1.0, 1.0])
        assert not np.shares_memory(ds.beta_y, beta_y)
        again = dataclasses.replace(ds, se_y=ds.se_y)
        assert not np.shares_memory(again.se_y, ds.se_y)
        with pytest.raises(DataError, match="non-finite value"):
            dataclasses.replace(ds, beta_y=[0.1, np.nan])
        with pytest.raises(DataError, match="duplicate variant_id"):
            dataclasses.replace(ds, variant_ids=["a", "a"])


_COLUMNS = ("variant_ids", "effect_alleles", "other_alleles", "beta_x",
            "se_x", "beta_y", "se_y")


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        bx = rng.normal(size=(5, 2))
        ds = make_dataset(bx, rng.normal(size=5), rng.uniform(0.5, 1, 5),
                          names=("x1", "x2"))
        path = tmp_path / "out.csv"
        write_dataset(ds, path)
        back = load_dataset(path, k=2)
        assert back.j == 5 and back.k == 2
        assert np.allclose(back.beta_x_matrix(), ds.beta_x_matrix(),
                           rtol=1e-11, atol=0)
        assert np.allclose(back.beta_y_vector(), ds.beta_y_vector(),
                           rtol=1e-11, atol=0)
        assert [v.variant_id for v in back.variants] == \
               [v.variant_id for v in ds.variants]

    def test_loaded_columns_read_only(self, tmp_path):
        p = _write(tmp_path, HEADER_K2
                   + "rs1,A,G,0.1,0.02,0.3,0.01,0.05,0.01\n"
                   + "rs2,C,T,-0.2,0.03,0.4,0.02,0.07,0.02\n")
        ds = load_dataset(p, k=2)
        derived = (select_risk_factor(ds, "x2"),
                   ds.with_correlation(CorrelationMatrix(np.eye(2))))
        for dataset in (ds, *derived):
            for name in _COLUMNS:
                column = getattr(dataset, name)
                assert not column.flags.writeable, name
                with pytest.raises(ValueError):
                    column[0] = column[-1]

    def test_basic_load(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,C,T,-0.2,0.03,0.07,0.02\n")
        ds = load_dataset(p, k=1)
        assert ds.j == 2
        assert ds.risk_factor_names == ("x1",)
        assert ds.variants[1].beta_x == (-0.2,)
        assert ds.variants[1].effect_allele == "C"

    def test_k_must_be_positive(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="positive integer"):
            load_dataset(p, k=0)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "")
        with pytest.raises(DataError, match="empty file"):
            load_dataset(p, k=1)

    def test_header_column_count(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match=(
                r"data\.csv: column count mismatch at line 1: expected 9 "
                r"columns for k=2, found 7$")):
            load_dataset(p, k=2)

    def test_malformed_header(self, tmp_path):
        bad = HEADER_K1.replace("beta_y", "beta_out")
        p = _write(tmp_path, bad + "rs1,A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match=(
                r"data\.csv: malformed header at line 1: expected "
                r"variant_id,effect_allele,")):
            load_dataset(p, k=1)
        # A header with a quoted line break is named by the line it ends on.
        p = _write(tmp_path, '"variant\n_id"' + HEADER_K1[10:]
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="malformed header at line 2:"):
            load_dataset(p, k=1)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["LF", "CRLF", "CR"])
    def test_unterminated_quote(self, tmp_path, newline):
        # csv's non-strict reader reads a quote left open to the end of the
        # file as one field; the fault names the line of the open quote,
        # however many lines the field swallowed, even in the header.
        row = "rs{},A,G,0.1,0.02,0.05,0.01\n"
        for text, line in [
                (HEADER_K1 + row.format(1) + '"' + row.format(2)
                 + row.format(3), 3),
                (HEADER_K1 + '"rs\n1",A,G,0.1,0.02,0.05,"0.01\n', 3),
                (HEADER_K1 + row.format(1) + "rs2,A,G,0.1,0.02,0.05,\"", 3),
                (HEADER_K1 + row.format(1) + 'rs2,A,G,0.1,0.02,0.05,"1""\n'
                 + row.format(3) + "\n", 3),
                ('"' + HEADER_K1 + row.format(1), 1)]:
            p = tmp_path / "data.csv"
            p.write_bytes(text.replace("\n", newline).encode())
            with pytest.raises(DataError, match=(
                    rf"^{re.escape(str(p))}: unterminated quote opened at "
                    rf"line {line}$")):
                load_dataset(p, k=1)
        # The reader stays non-strict: text after a closing quote is kept.
        p = _write(tmp_path, HEADER_K1 + '"rs"1,A,G,0.1,0.02,0.05,0.01\n')
        assert load_dataset(p, k=1).variant_ids.tolist() == ["rs1"]

    def test_echoed_cells_are_cut(self, tmp_path):
        # A message echoes at most _ECHO_LIMIT characters of a cell.
        long_id, long_value = "rs" + "7" * 200, "x" * 200
        p = _write(tmp_path, HEADER_K1
                   + f"{long_id},A,G,0.1,0.02,0.05,0.01\n" * 2)
        cut = f"'{long_id[:mrkit.data._ECHO_LIMIT - 3]}...'"
        with pytest.raises(DataError, match=(
                rf"duplicate variant_id {cut} at line 3$")):
            load_dataset(p, k=1)
        p = _write(tmp_path, HEADER_K1 + f"rs1,A,G,{long_value},0.02,0.05,"
                   "0.01\n")
        cut = f"'{long_value[:mrkit.data._ECHO_LIMIT - 3]}...'"
        with pytest.raises(DataError, match=(
                rf"non-numeric value {cut} in column beta_x1 at line 2$")):
            load_dataset(p, k=1)
        exact = "y" * mrkit.data._ECHO_LIMIT
        p = _write(tmp_path, HEADER_K1 + f"rs1,A,G,{exact},0.02,0.05,0.01\n")
        with pytest.raises(DataError, match=f"non-numeric value '{exact}' "):
            load_dataset(p, k=1)

    def test_row_column_count(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05\n")
        with pytest.raises(DataError, match="at line 2"):
            load_dataset(p, k=1)

    def test_duplicate_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs1,A,G,0.2,0.02,0.05,0.01\n")
        with pytest.raises(DataError,
                           match="duplicate variant_id 'rs1' at line 3"):
            load_dataset(p, k=1)

    def test_non_numeric_cell(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,oops,0.05,0.01\n")
        with pytest.raises(DataError,
                           match="non-numeric value 'oops' in column se_x1 at line 2"):
            load_dataset(p, k=1)

    def test_non_positive_se_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A,G,0.1,0.02,0.05,0\n")
        with pytest.raises(DataError,
                           match="non-positive standard error at line 3"):
            load_dataset(p, k=1)

    def test_non_finite_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,inf,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="non-finite value at line 2"):
            load_dataset(p, k=1)

    def test_empty_variant_id_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + ",A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError,
                           match=r"data\.csv: empty variant_id at line 3"):
            load_dataset(p, k=1)

    def test_empty_allele_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A, ,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError,
                           match=r"data\.csv: empty allele label at line 3"):
            load_dataset(p, k=1)

    def test_first_faulty_row_reported(self, tmp_path):
        # Faults of different kinds on rows 3 to 6: the earliest row wins,
        # and on one row the checks keep the order a row-by-row read has.
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs1,A,G,0.1,oops,0.05,0.01\n"
                   + "rs3,A,G,nan,0.02,0.05,0.01\n"
                   + "rs4,A,G,0.1\n"
                   + ",A,G,0.1,x,0.05,0.01\n")
        with pytest.raises(DataError,
                           match="duplicate variant_id 'rs1' at line 3"):
            load_dataset(p, k=1)
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A,G,0.1,oops,0.05,-1\n"
                   + "rs3,A,G,nan,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="non-numeric value 'oops'"):
            load_dataset(p, k=1)
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A,G,0.1,0.02,0.05\n"
                   + "rs3,A,G,nan,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="column count mismatch at line 3"):
            load_dataset(p, k=1)

    def test_no_data_rows(self, tmp_path):
        p = _write(tmp_path, HEADER_K1)
        with pytest.raises(DataError, match="no data rows"):
            load_dataset(p, k=1)

    def test_blank_lines_skipped(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n\n"
                   + "rs2,A,G,0.2,0.02,0.05,0.01\n")
        assert load_dataset(p, k=1).j == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["LF", "CRLF", "CR"])
    def test_faults_name_physical_lines(self, tmp_path, newline):
        """A quoted label holding a line break spans lines 2 and 3. A fault
        after it names the line it is on, and a fault of that record the
        line the record ends on, as csv names the line of its own errors."""
        record = '"rs\n1",A,G,0.1,0.02,0.05,'
        for rows, message in [
                (record + "-1\n", "non-positive standard error at line 3"),
                (record + "0.01\n\nrs2,A,G,nan,0.02,0.05,0.01\n",
                 "non-finite value at line 5"),
                (record + "0.01\n\nrs2,A,G,0.1,0.02,0.05,0.01\nrs3,A,G,0.1\n",
                 "column count mismatch at line 6: expected 7 fields, "
                 "found 4")]:
            p = tmp_path / "data.csv"
            p.write_bytes((HEADER_K1 + rows).replace("\n", newline).encode())
            with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: "
                                                rf"{message}$"):
                load_dataset(p, k=1)

    def test_two_factor_layout(self, tmp_path):
        p = _write(tmp_path, HEADER_K2
                   + "rs1,A,G,0.1,0.02,0.3,0.04,0.05,0.01\n")
        ds = load_dataset(p, k=2)
        assert ds.variants[0].beta_x == (0.1, 0.3)
        assert ds.variants[0].se_x == (0.02, 0.04)

    def test_bom_and_crlf(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(("\ufeff" + HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n")
                      .replace("\n", "\r\n").encode("utf-8"))
        ds = load_dataset(p, k=1)
        assert ds.j == 1
        assert ds.variants[0].variant_id == "rs1"
        assert ds.variants[0].se_y == 0.01

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="csv rejects NUL before Python 3.11")
    def test_trailing_nul_kept(self, tmp_path):
        """A label keeps a trailing NUL, so rs1 followed by NUL and rs1 are
        two variants; only surrounding whitespace is stripped."""
        p = _write(tmp_path, HEADER_K1
                   + "rs1\x00,A,G,0.1,0.02,0.05,0.01\n"
                   + " rs1\t,A\x00 ,G,0.1,0.02,0.05,0.01\n")
        ds = load_dataset(p, k=1)
        assert ds.variant_ids.tolist() == ["rs1\x00", "rs1"]
        assert ds.effect_alleles.tolist() == ["A", "A\x00"]

    def test_field_over_csv_limit(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A,G,0.1,0.02,0.05," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"data\.csv: field larger than "
                                            r"field limit .* at line 3$"):
            load_dataset(p, k=1)

    # A row with one field of csv's field size limit plus ``extra``
    # characters, and the 1-based line that field ends on.
    _OVER_LIMIT_ROWS = {
        "label": (lambda n: "rs2" + "x" * (n - 3) + ",A,G,0.1,0.02,0.05,0.01\n", 3),
        "numeric": (lambda n: "rs2,A,G,0.1,0.02," + "0" * (n - 1) + "1,0.01\n", 3),
        "quoted-label": (lambda n: '"rs2\n' + "x" * (n - 4)
                         + '",A,G,0.1,0.02,0.05,0.01\n', 4),
        "quoted-numeric": (lambda n: 'rs2,A,G,0.1,0.02,"\n' + "0" * (n - 2)
                           + '1",0.01\n', 4),
    }

    @pytest.mark.parametrize("kind", list(_OVER_LIMIT_ROWS))
    def test_field_limit_in_every_parse(self, tmp_path, kind):
        """A field one character over csv's limit fails as csv fails, at its
        line, whichever parse the file would take; one at the limit loads."""
        row, line = self._OVER_LIMIT_ROWS[kind]
        limit = csv.field_size_limit()
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + row(limit + 1))
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: field "
                                            rf"larger than field limit "
                                            rf"\({limit}\) at line {line}$"):
            load_dataset(p, k=1)
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + row(limit))
        ds = load_dataset(p, k=1)
        if kind.endswith("label"):
            assert len(ds.variant_ids[1]) == limit
            assert ds.beta_y[1] == 0.05
        else:
            assert ds.variant_ids[1] == "rs2" and ds.beta_y[1] == 1.0

    @pytest.mark.parametrize("data, line", [
        ((HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n").encode("utf-16"), 1),
        (HEADER_K1.encode() + b"rs1,A,G,0.1,0.02,0.05,0.01\r\n"
         + b"rs2,A,G,0.1,0.02,0.05,\xff\n", 3),
        # The whole file is decoded before the header is read.
        (HEADER_K1.replace("variant_id", "id").encode()
         + "".join(f"rs{s},A,G,0.1,0.02,0.05,0.01\n"
                   for s in range(400)).encode()
         + b"rs400,A,G,0.1,0.02,0.05,\xff\n", 402),
    ], ids=["utf-16", "bad-byte-on-line-3", "after-bad-header-past-8kb"])
    def test_not_utf8(self, tmp_path, data, line):
        p = tmp_path / "data.csv"
        p.write_bytes(data)
        with pytest.raises(DataError, match=rf"data\.csv: not UTF-8 text "
                                            rf"\(.*\) at line {line}$"):
            load_dataset(p, k=1)

    @pytest.mark.parametrize("data", [
        HEADER_K1.encode() + b"rs1,A,G,0.1,0.02,0.05,0.01\n",
        HEADER_K1.encode() + b"rs1,A,G,0.1,0.02,x,0.01\n",
        HEADER_K1.encode() + b"rs1,A,G,0.1,0.02,0.05,0.01\xff\n",
    ], ids=["valid", "non-numeric", "not-utf8"])
    def test_file_read_once(self, tmp_path, monkeypatch, data):
        p = tmp_path / "data.csv"
        p.write_bytes(data)
        opened = []
        path_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        try:
            load_dataset(p, k=1)
        except DataError:
            pass
        assert opened == [p]


class TestLoadCorrelation:
    def test_load(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,0.5\n0.5,1.0\n", name="corr.csv")
        m = load_correlation(p, ds)
        assert m.entries[0, 1] == 0.5

    def test_bom_and_crlf(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = tmp_path / "corr.csv"
        p.write_bytes("\ufeff1.0,0.5\r\n0.5,1.0\r\n".encode("utf-8"))
        m = load_correlation(p, ds)
        assert m.entries.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_dimension_mismatch(self, tmp_path):
        ds = make_dataset([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [1, 1, 1])
        p = _write(tmp_path, "1.0,0.5\n0.5,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="must be 3x3 to match the dataset"):
            load_correlation(p, ds)

    def test_ragged_row_located(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,0.5\n\n0.5\n", name="corr.csv")
        with pytest.raises(DataError, match="must be 2x2 to match the dataset: "
                                            "line 3 has 1 entries"):
            load_correlation(p, ds)

    def test_row_count_reported(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,0.5\n0.5,1.0\n0.5,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="must be 2x2 to match the dataset: "
                                            "found 3 rows"):
            load_correlation(p, ds)

    def test_empty_file(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "", name="corr.csv")
        with pytest.raises(DataError, match="must be 2x2 to match the dataset: "
                                            "found 0 rows"):
            load_correlation(p, ds)

    def test_non_numeric(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,x\nx,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="non-numeric correlation entry at line 1"):
            load_correlation(p, ds)

    @pytest.mark.parametrize("data, line", [
        ("1.0,0.5\n0.5,1.0\n".encode("utf-16"), 1),
        (b"1.0,0.5\n\n0.5,1.0\xff\n", 3),
        (b"1.0,x\n" + b"0.5,1.0\n" * 1100 + b"0.5,1.0\xff\n", 1102),
    ], ids=["utf-16", "bad-byte-on-line-3", "after-bad-row-past-8kb"])
    def test_not_utf8(self, tmp_path, data, line):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = tmp_path / "corr.csv"
        p.write_bytes(data)
        with pytest.raises(DataError, match=rf"corr\.csv: not UTF-8 text "
                                            rf"\(.*\) at line {line}$"):
            load_correlation(p, ds)

    def test_invalid_matrix_rejected(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,0.5\n0.4,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="asymmetric"):
            load_correlation(p, ds)


class TestSelectRiskFactor:
    def test_projection(self):
        ds = make_dataset([[0.1, 0.2], [0.3, 0.4]], [0.5, 0.6], [0.1, 0.2],
                          names=("bmi", "sbp"), corr=np.eye(2))
        sub = select_risk_factor(ds, "sbp")
        assert sub.k == 1
        assert sub.risk_factor_names == ("sbp",)
        assert np.array_equal(sub.beta_x_matrix(), np.array([[0.2], [0.4]]))
        # Variant-level correlation survives the projection.
        assert sub.correlation is ds.correlation
        assert np.array_equal(sub.beta_y_vector(), ds.beta_y_vector())

    def test_unknown_name(self):
        ds = make_dataset([0.1], [0.5], [0.1])
        with pytest.raises(DataError, match="unknown risk factor 'nope'"):
            select_risk_factor(ds, "nope")

    def test_shares_parent_columns(self):
        ds = make_dataset([[0.1, 0.2], [0.3, 0.4]], [0.5, 0.6], [0.1, 0.2],
                          names=("bmi", "sbp"))
        sub = select_risk_factor(ds, "sbp")
        for name in _COLUMNS:
            assert np.shares_memory(getattr(sub, name), getattr(ds, name))
            assert not getattr(sub, name).flags.writeable


@pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
@pytest.mark.parametrize("correlated", [False, True])
def test_analyze_same_for_loaded_and_constructed(tmp_path, monkeypatch,
                                                 capsys, fmt, correlated):
    """A loaded dataset reports exactly as one the constructor copied."""
    rng = np.random.default_rng(31)
    bx = rng.normal(0.2, 0.6, size=(12, 3))
    bx[:4, 0] = -np.abs(bx[:4, 0])
    path = tmp_path / "summary.csv"
    write_dataset(make_dataset(bx, rng.normal(size=12),
                               rng.uniform(0.4, 1.5, 12),
                               names=("x1", "x2", "x3")), path)
    argv = ["analyze", "--data", str(path), "--k", "3", "--methods",
            "UI,UE,MI,ME", "--ref", "x1", "--format", fmt]
    if correlated:
        corr = tmp_path / "corr.csv"
        np.savetxt(corr, random_correlation(rng, 12), delimiter=",")
        argv += ["--corr", str(corr)]

    def run():
        assert mrkit.cli.main(argv) == 0
        return capsys.readouterr().out

    loaded = run()

    def constructed(*args):
        ds = load_dataset(*args)
        return SummaryDataset(**{f.name: getattr(ds, f.name)
                                 for f in dataclasses.fields(ds)})

    monkeypatch.setattr(mrkit.cli, "load_dataset", constructed)
    assert run() == loaded


def _random_labelled_dataset(seed: int) -> SummaryDataset:
    """Random dataset with distinct ids, random alleles and signed betas."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 25))
    k = int(rng.integers(1, 4))
    alleles = np.array(["A", "C", "G", "T"])
    return SummaryDataset(
        risk_factor_names=tuple(f"x{i + 1}" for i in range(k)),
        variant_ids=[f"rs{n}" for n in rng.permutation(10 * j)[:j]],
        effect_alleles=alleles[rng.integers(0, 4, j)],
        other_alleles=alleles[rng.integers(0, 4, j)],
        beta_x=rng.normal(0.0, 0.3, size=(j, k)),
        se_x=rng.uniform(0.01, 0.1, size=(j, k)),
        beta_y=rng.normal(0.0, 0.2, size=j),
        se_y=rng.uniform(0.01, 0.1, size=j),
    )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_columns_match_row_view_through_csv(tmp_path_factory, seed):
    ds = _random_labelled_dataset(seed)
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    write_dataset(ds, path)
    back = load_dataset(path, k=ds.k)
    # The file holds each value at 12 significant digits.
    rows = ds.variants
    digits = lambda value: float(f"{value:.12g}")  # noqa: E731
    assert back.variant_ids.tolist() == [v.variant_id for v in rows]
    assert back.effect_alleles.tolist() == [v.effect_allele for v in rows]
    assert back.other_alleles.tolist() == [v.other_allele for v in rows]
    assert np.array_equal(back.beta_x, [[digits(b) for b in v.beta_x] for v in rows])
    assert np.array_equal(back.se_x, [[digits(s) for s in v.se_x] for v in rows])
    assert np.array_equal(back.beta_y, [digits(v.beta_y) for v in rows])
    assert np.array_equal(back.se_y, [digits(v.se_y) for v in rows])
    # And the loaded dataset's own row view matches its columns.
    assert SummaryDataset.from_records(back.risk_factor_names,
                                       back.variants).variants == back.variants


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_select_is_a_column_slice(seed):
    ds = _random_labelled_dataset(seed)
    i = int(np.random.default_rng(seed).integers(0, ds.k))
    sub = select_risk_factor(ds, ds.risk_factor_names[i])
    assert sub.risk_factor_names == (ds.risk_factor_names[i],)
    assert np.array_equal(sub.beta_x, ds.beta_x[:, [i]])
    assert np.array_equal(sub.se_x, ds.se_x[:, [i]])
    for name in ("variant_ids", "effect_alleles", "other_alleles",
                 "beta_y", "se_y"):
        assert np.array_equal(getattr(sub, name), getattr(ds, name))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=30, deadline=None)
def test_stored_arrays_read_only(seed):
    ds = _random_labelled_dataset(seed)
    assert ds.beta_x_matrix() is ds.beta_x
    assert ds.beta_y_vector() is ds.beta_y
    assert ds.se_y_vector() is ds.se_y
    for name in ("variant_ids", "effect_alleles", "other_alleles",
                 "beta_x", "se_x", "beta_y", "se_y"):
        column = getattr(ds, name)
        with pytest.raises(ValueError):
            column[0] = column[-1]


_CELL_CASES = [" 1 ", "\t2.5 ", "1e-3", "1E+2", "inf", "-Infinity", "nan",
               "+nan", "1_0", "1__0", "_1", "1_", "0x10", "1d3", "", " ",
               "1e400", "-0", ".5", "5.", "\u0661\u0662", "\u00a01"]


@given(st.one_of(
    st.sampled_from(_CELL_CASES),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters=',"\r\n\x00'), max_size=8),
    st.floats().map(repr)))
@settings(max_examples=300, deadline=None)
def test_numeric_cell_parsed_as_float_does(tmp_path_factory, cell):
    path = tmp_path_factory.mktemp("cell") / "data.csv"
    path.write_text(HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                    + f"rs2,A,G,0.1,0.02,{cell},0.01\n", encoding="utf-8")
    try:
        expected = float(cell)
    except ValueError:
        with pytest.raises(DataError, match="non-numeric value .* in column "
                                            "beta_y at line 3"):
            load_dataset(path, k=1)
        return
    if not np.isfinite(expected):
        with pytest.raises(DataError, match="non-finite value at line 3"):
            load_dataset(path, k=1)
        return
    value = load_dataset(path, k=1).beta_y[1]
    assert value == expected
    assert np.signbit(value) == np.signbit(expected)


def _column_outcome(column: np.ndarray):
    """A column's layout and contents: the bytes of a float column, the
    strs of a label column (whose bytes are object pointers)."""
    if column.dtype == object:
        labels = column.tolist()
        assert all(type(label) is str for label in labels)
        return column.dtype.str, column.shape, column.strides, labels
    return column.dtype.str, column.shape, column.strides, column.tobytes()


def _load_outcome(path, k):
    """Every column of the loaded dataset, bit for bit, or the DataError text."""
    try:
        ds = load_dataset(path, k)
    except DataError as error:
        return str(error)
    return ds.risk_factor_names, ds.correlation, [
        (name, *_column_outcome(getattr(ds, name))) for name in _COLUMNS]


def _row_parse_outcome(path, k):
    """_load_outcome with the one-pass parse declining every file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mrkit.data, "_load_one_pass", lambda path, k: None)
        return _load_outcome(path, k)


# Labels and numeric cells that are valid, faulty, quoted, or hold a
# character on which csv and str.splitlines disagree.
_DIFF_LABELS = ["rs0", " rs0\t", "\trs0 ", "", " ", "\u00e9", "#rs0",
                "\ufeffrs0", '"a,b"', '"a""b"', '"a\nb"', '"a\r\nb"', '" rs0 "',
                "a\x0bb", "a\x0cb", "a\x85b", "a\u2028b", "a\x00b", "a\x1cb"]
_DIFF_NUMBERS = ["0.25", " 0.5 ", "\t1e-3", "-0", "+.5", "1_5", "\uff11",
                 "\u0661", "0x1p3", "nan", "inf", "-Infinity", "1e400", "0",
                 "-0.1", "abc", "", " ", '"0.5"', "\u00a00.5", "1\x00",
                 "1e-320"]
# Line breaks of str.splitlines that csv keeps inside a field.
_NOT_CSV_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                   "\u2029"]


@st.composite
def _summary_files(draw):
    """A summary CSV's bytes and its K.

    A valid file, with valid oddities (stray whitespace, quoted labels,
    blank lines, a BOM, LF, CRLF or CR line ends), and with up to two
    faults or cases where the parses could part ways.
    """
    k = draw(st.integers(min_value=1, max_value=2))
    j = draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=1e-3, max_value=2.0).map(repr)
    row = st.integers(min_value=0, max_value=j - 1)
    rows = [[f"rs{s}", draw(st.sampled_from("ACGT")), draw(st.sampled_from("ACGT"))]
            + [("-" if draw(st.booleans()) else "") + draw(value)
               if c % 2 == 0 else draw(value) for c in range(2 * k + 2)]
            for s in range(1, j + 1)]
    if draw(st.booleans()):  # stray whitespace around a cell
        cells = rows[draw(row)]
        at = draw(st.integers(0, len(cells) - 1))
        cells[at] = draw(st.sampled_from([" ", "\t", ""])) + cells[at] + " "
    if draw(st.booleans()):  # a quoted label, csv's to unquote
        cells = rows[draw(row)]
        at = draw(st.integers(0, 2))
        cells[at] = '"' + draw(st.sampled_from(
            ["{}", "{},x", 'a""{}', "{}\nx", "{}\r\nx", " {} "])).format(
                cells[at]) + '"'
    breaks = ["\n"] * j
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        kind = draw(st.sampled_from(["label", "number", "duplicate", "short",
                                     "long", "break"]))
        at = draw(row)
        cells = rows[at]
        if kind == "label":
            cells[draw(st.integers(0, 2))] = draw(st.sampled_from(_DIFF_LABELS))
        elif kind == "number":
            cells[draw(st.integers(3, len(cells) - 1))] = draw(
                st.sampled_from(_DIFF_NUMBERS))
        elif kind == "duplicate":
            cells[0] = rows[draw(row)][0]
        elif kind == "short":
            cells.pop()
        elif kind == "long":  # a trailing comma, or one value too many
            cells.append(draw(st.sampled_from(["", "0.5"])))
        else:  # the row joined to the line before it
            breaks[at] = draw(st.sampled_from(_NOT_CSV_BREAKS))
    # Blank lines, and lines of whitespace alone, before some rows.
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(row)
        rows[at] = [draw(st.sampled_from(["", "", " ", "\t"])) + "\n"
                    + rows[at][0], *rows[at][1:]]
    header = ["variant_id", "effect_allele", "other_allele"]
    for i in range(1, k + 1):
        header += [f"beta_x{i}", f"se_x{i}"]
    header += ["beta_y", "se_y"]
    header = draw(st.sampled_from([header] * 4 + [
        [" variant_id "] + header[1:], header[:-1], ["id"] + header[1:]]))
    text = ",".join(header) + "".join(
        brk + ",".join(cells) for brk, cells in zip(breaks, rows))
    if draw(st.sampled_from([False] * 9 + [True])):  # only the header
        text = ",".join(header)
    text += draw(st.sampled_from(["\n", ""]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.replace(
        "\n", newline).encode()
    if draw(st.sampled_from([False] * 9 + [True])):  # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, k


@pytest.mark.parametrize("brk", _NOT_CSV_BREAKS, ids=ascii)
def test_splitlines_breaks_stay_in_a_field(tmp_path, brk):
    """csv breaks lines at CR and LF alone, so another line break of
    str.splitlines joins two rows into one ragged row, and inside a label
    it is part of the label."""
    row = "rs1,A,G,0.1,0.02,0.05,0.01"
    p = _write(tmp_path, HEADER_K1 + row + brk + row.replace("rs1", "rs2"))
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: column count "
                                        rf"mismatch at line 2: expected 7 "
                                        rf"fields, found 13$"):
        load_dataset(p, k=1)
    p = _write(tmp_path, HEADER_K1 + row.replace("rs1", f"rs{brk}1") + "\n")
    assert load_dataset(p, k=1).variant_ids.tolist() == [f"rs{brk}1"]


@given(_summary_files())
@settings(max_examples=500, deadline=None)
def test_one_pass_agrees_with_row_parse(tmp_path_factory, file):
    """With the one-pass parse on and off, every file loads to the same
    columns, dtypes and labels bit for bit, or fails with the same error."""
    data, k = file
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(data)
    assert _load_outcome(path, k) == _row_parse_outcome(path, k)


def test_wide_file_takes_one_pass(tmp_path, monkeypatch):
    """A file of the benchmark's analyze shape (J = 2,500, K = 3, values at
    6 significant digits) is parsed in one pass and never reaches csv."""
    rng = np.random.default_rng(1)
    j, k = 2_500, 3
    values = np.empty((j, 2 * k + 2))
    values[:, 0:-2:2] = rng.normal(0.0, 0.04, size=(j, k))
    values[:, 1:-2:2] = rng.uniform(0.004, 0.012, size=(j, k))
    values[:, -2] = rng.normal(0.0, 0.02, size=j)
    values[:, -1] = rng.uniform(0.005, 0.02, size=j)
    alleles = rng.choice(list("ACGT"), size=(j, 2))
    path = tmp_path / "wide.csv"
    path.write_text(
        "variant_id,effect_allele,other_allele,beta_x1,se_x1,beta_x2,se_x2,"
        "beta_x3,se_x3,beta_y,se_y\n"
        + "".join(f"rs{s + 1},{a},{b}," + ",".join(f"{v:.6g}" for v in row)
                  + "\n" for s, ((a, b), row) in enumerate(
                      zip(alleles.tolist(), values.tolist()))),
        encoding="utf-8")
    expected = _row_parse_outcome(path, k)

    def no_row_parse(*args, **kwargs):
        raise AssertionError("the file reached the row parse")

    monkeypatch.setattr(csv, "reader", no_row_parse)
    assert _load_outcome(path, k) == expected
    assert load_dataset(path, k).j == j


def _float_rows(text: str, path, j: int) -> CorrelationMatrix:
    """A correlation file parsed line by line with ``float()``: the reference."""
    rows = []
    for line_no, line in enumerate(io.StringIO(text.removeprefix("\ufeff"),
                                               newline=None), start=1):
        if not line.strip():
            continue
        try:
            rows.append((line_no, [float(c) for c in line.strip().split(",")]))
        except ValueError:
            raise DataError(
                f"{path}: non-numeric correlation entry at line {line_no}") from None
    mismatch = f"{path}: correlation matrix must be {j}x{j} to match the dataset"
    for line_no, row in rows:
        if len(row) != j:
            raise DataError(f"{mismatch}: line {line_no} has {len(row)} entries")
    if len(rows) != j:
        raise DataError(f"{mismatch}: found {len(rows)} rows")
    try:
        return CorrelationMatrix([row for _, row in rows])
    except DataError as error:
        raise DataError(f"{path}: {error}") from None


def _outcome(load):
    try:
        return load().entries.tobytes()
    except DataError as error:
        return str(error)


@given(cell=st.one_of(
           st.sampled_from(_CELL_CASES + ["1.0", "0.5", " -0.25\t", "1e-3",
                                          "1_0e-1", "\ufeff1"]),
           st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters=",\r\n"), max_size=8),
           st.floats(min_value=-1.0, max_value=1.0).map(repr)),
       j=st.sampled_from([1, 2, 3]),
       bom=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       filler=st.sampled_from([None, "", " ", "\t \x0c", "1,", "#"]),
       filler_at=st.integers(min_value=0, max_value=3))
@settings(max_examples=400, deadline=None)
def test_correlation_cells_parsed_as_float_does(tmp_path_factory, cell, j, bom,
                                                newline, filler, filler_at):
    """The whole-array parse accepts, rejects and reports as float() rows do.

    The cell sits on the diagonal of a 1 x 1 file, or symmetrically off it,
    so accepted values also pass or fail matrix validation; blank,
    whitespace-only and malformed filler lines, a BOM and CR/CRLF endings
    vary around it.
    """
    cells = [["1" if s == t else "0" for t in range(j)] for s in range(j)]
    if j == 1:
        cells[0][0] = cell
    else:
        cells[0][1] = cells[1][0] = cell
    rows = [",".join(row) for row in cells]
    if filler is not None:
        rows.insert(min(filler_at, len(rows)), filler)
    text = ("\ufeff" if bom else "") + newline.join(rows) + newline
    path = tmp_path_factory.mktemp("corr") / "rho.csv"
    path.write_bytes(text.encode("utf-8"))
    ds = make_dataset(np.full(j, 0.1), np.full(j, 0.1), np.ones(j))
    expected = _outcome(lambda: _float_rows(text, path, j))
    assert _outcome(lambda: load_correlation(path, ds)) == expected


def _parent_indefinite_message(rho: np.ndarray) -> str:
    """The error a full matrix without a Cholesky factor has always raised."""
    with _one_blas_thread():
        smallest = float(np.linalg.eigvalsh(rho)[0])
    return ("correlation matrix is not positive definite (smallest "
            f"eigenvalue {smallest:.3e})")


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       j=st.sampled_from([1, 2, 7, 64]),
       kind=st.sampled_from(["definite", "blocks", "singular", "indefinite"]))
@settings(max_examples=150, deadline=None)
def test_packed_layout(tmp_path_factory, seed, j, kind):
    """rho and its factor L share one array: L below rho's upper triangle.

    ``entries`` rebuilds an exactly symmetric input bit for bit, signed
    zeros included, and L L' is rho to rounding. The load then
    ``sign_flipped`` shares the loaded array, and its ``entries`` are
    S rho S bit for bit. A matrix with no factor raises the message a full
    matrix gives, smallest eigenvalue and all, flipped or not.
    """
    rng = np.random.default_rng(seed)
    rho = random_correlation(rng, j)
    if kind == "blocks":
        # Two uncorrelated blocks: exact zeros, which a flip makes -0.0.
        cut = int(rng.integers(1, j + 1))
        rho[:cut, cut:] = rho[cut:, :cut] = 0.0
    elif kind == "singular" and j > 1:
        s, t = rng.choice(j, size=2, replace=False)
        rho[t] = rho[s]
        rho[:, t] = rho[:, s]
    elif kind == "indefinite" and j > 2:
        # Pairwise correlations of 0.9, -0.9, 0.9 cannot coexist.
        rows = rng.choice(j, size=3, replace=False)
        rho[np.ix_(rows, rows)] = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9],
                                   [-0.9, 0.9, 1.0]]
    flip = rng.random(j) < 0.5
    signs = np.where(flip, -1.0, 1.0)
    flipped = signs[:, None] * rho * signs
    text = io.StringIO()
    np.savetxt(text, rho, delimiter=",", fmt="%.17g")  # round-trips exactly
    path = tmp_path_factory.mktemp("corr") / "rho.csv"
    path.write_text(text.getvalue(), encoding="utf-8")
    ds = make_dataset(np.full(j, 0.1), np.full(j, 0.1), np.ones(j))

    try:
        matrix = CorrelationMatrix(flipped)
    except DataError as error:
        assert kind in ("singular", "indefinite")
        assert str(error) == _parent_indefinite_message(flipped)
        with pytest.raises(DataError) as loaded:
            load_correlation(path, ds)
        assert str(loaded.value) == (f"{path}: "
                                     f"{_parent_indefinite_message(rho)}")
        return
    # A singular draw whose rounding leaves it a factor loads.
    assert kind != "indefinite" or j <= 2
    entries = matrix.entries
    assert entries.tobytes() == flipped.tobytes()
    assert not entries.flags.writeable
    factor = matrix.factor
    assert np.array_equal(factor, np.tril(factor))
    assert np.all(np.diag(factor) > 0.0)
    assert np.max(np.abs(factor @ factor.T - flipped)) <= 1e-12
    assert np.triu(matrix._packed, 1).tobytes() == np.triu(flipped, 1).tobytes()
    assert np.tril(matrix._packed).tobytes() == factor.tobytes()

    loaded = load_correlation(path, ds)
    got = loaded.sign_flipped(flip)
    assert got._packed is loaded._packed
    assert got._diagonal is loaded._diagonal
    assert got == matrix
    assert got.entries.tobytes() == entries.tobytes()
    # S L S, which the flipped matrix's own factorization gives but for the
    # sign of an exact zero.
    assert np.array_equal(got.factor, factor)
