"""Ingestion, validation, and round-trip behaviour of the data layer."""
import numpy as np
import pytest

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

from conftest import make_dataset


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


HEADER_K1 = "variant_id,effect_allele,other_allele,beta_x1,se_x1,beta_y,se_y\n"
HEADER_K2 = ("variant_id,effect_allele,other_allele,"
             "beta_x1,se_x1,beta_x2,se_x2,beta_y,se_y\n")


class TestVariantRecord:
    def test_valid_record(self):
        v = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        assert v.beta_x == (0.1,)
        assert v.se_y == 0.01

    def test_empty_id(self):
        with pytest.raises(DataError, match="empty variant_id"):
            VariantRecord("", "A", "G", (0.1,), (0.02,), 0.05, 0.01)

    def test_empty_allele(self):
        with pytest.raises(DataError, match="empty allele label"):
            VariantRecord("rs1", "A", "", (0.1,), (0.02,), 0.05, 0.01)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            VariantRecord("rs1", "A", "G", (0.1, 0.2), (0.02,), 0.05, 0.01)

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            VariantRecord("rs1", "A", "G", (float("nan"),), (0.02,), 0.05, 0.01)

    def test_non_positive_se(self):
        with pytest.raises(DataError, match="non-positive standard error"):
            VariantRecord("rs1", "A", "G", (0.1,), (0.0,), 0.05, 0.01)
        with pytest.raises(DataError, match="non-positive standard error"):
            VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, -1.0)


class TestCorrelationMatrix:
    def test_valid(self):
        m = CorrelationMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        assert m.dimension == 2
        assert m.entries[0, 1] == 0.9

    def test_entries_read_only(self):
        m = CorrelationMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5

    def test_not_square(self):
        with pytest.raises(DataError, match="square"):
            CorrelationMatrix(np.ones((2, 3)))

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
        with pytest.raises(DataError, match="positive semi-definite"):
            CorrelationMatrix(bad)

    def test_numerically_psd_accepted(self):
        # Rank-deficient (perfect correlation) is PSD, not PD: must pass.
        m = CorrelationMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert m.dimension == 2

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            CorrelationMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))


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
            SummaryDataset(risk_factor_names=("x1",), variants=())

    def test_needs_names(self):
        v = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        with pytest.raises(DataError, match="at least one risk factor"):
            SummaryDataset(risk_factor_names=(), variants=(v,))

    def test_k_mismatch(self):
        v1 = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        v2 = VariantRecord("rs2", "A", "G", (0.1, 0.2), (0.02, 0.02), 0.05, 0.01)
        with pytest.raises(DataError, match="expected 1"):
            SummaryDataset(risk_factor_names=("x1",), variants=(v1, v2))

    def test_duplicate_id(self):
        v = VariantRecord("rs1", "A", "G", (0.1,), (0.02,), 0.05, 0.01)
        with pytest.raises(DataError, match="duplicate variant_id"):
            SummaryDataset(risk_factor_names=("x1",), variants=(v, v))

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
        with pytest.raises(DataError, match="column count mismatch"):
            load_dataset(p, k=2)

    def test_malformed_header(self, tmp_path):
        bad = HEADER_K1.replace("beta_y", "beta_out")
        p = _write(tmp_path, bad + "rs1,A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="malformed header"):
            load_dataset(p, k=1)

    def test_row_column_count(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05\n")
        with pytest.raises(DataError, match="at row 2"):
            load_dataset(p, k=1)

    def test_duplicate_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs1,A,G,0.2,0.02,0.05,0.01\n")
        with pytest.raises(DataError,
                           match="duplicate variant_id 'rs1' at row 3"):
            load_dataset(p, k=1)

    def test_non_numeric_cell(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,oops,0.05,0.01\n")
        with pytest.raises(DataError,
                           match="non-numeric value 'oops' in column se_x1 at row 2"):
            load_dataset(p, k=1)

    def test_non_positive_se_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A,G,0.1,0.02,0.05,0\n")
        with pytest.raises(DataError,
                           match="non-positive standard error at row 3"):
            load_dataset(p, k=1)

    def test_non_finite_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,inf,0.02,0.05,0.01\n")
        with pytest.raises(DataError, match="non-finite value at row 2"):
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

    def test_non_numeric(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,x\nx,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="non-numeric correlation entry at row 1"):
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
