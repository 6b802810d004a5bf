"""Ingestion, validation, and round-trip behaviour of the data layer."""
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_equality_compares_entries(self):
        rho = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert CorrelationMatrix(np.eye(2)) == CorrelationMatrix(np.eye(2))
        assert CorrelationMatrix(rho) == CorrelationMatrix(rho.copy())
        assert CorrelationMatrix(rho) != CorrelationMatrix(np.eye(2))
        assert CorrelationMatrix(np.eye(2)) != CorrelationMatrix(np.eye(3))
        assert CorrelationMatrix(np.eye(2)).__eq__(np.eye(2)) is NotImplemented
        # A singular matrix has no factor; equality ignores the factor.
        ones = np.ones((2, 2))
        assert CorrelationMatrix(ones) == CorrelationMatrix(ones)
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

    def test_empty_variant_id_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + ",A,G,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError,
                           match=r"data\.csv: empty variant_id at row 3"):
            load_dataset(p, k=1)

    def test_empty_allele_row(self, tmp_path):
        p = _write(tmp_path, HEADER_K1
                   + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A, ,0.1,0.02,0.05,0.01\n")
        with pytest.raises(DataError,
                           match=r"data\.csv: empty allele label at row 3"):
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
                           match="duplicate variant_id 'rs1' at row 3"):
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
        with pytest.raises(DataError, match="column count mismatch at row 3"):
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

    def test_field_over_csv_limit(self, tmp_path):
        p = _write(tmp_path, HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n"
                   + "rs2,A,G,0.1,0.02,0.05," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"data\.csv: field larger than "
                                            r"field limit .* at line 3$"):
            load_dataset(p, k=1)

    @pytest.mark.parametrize("data, line", [
        ((HEADER_K1 + "rs1,A,G,0.1,0.02,0.05,0.01\n").encode("utf-16"), 1),
        (HEADER_K1.encode() + b"rs1,A,G,0.1,0.02,0.05,0.01\r\n"
         + b"rs2,A,G,0.1,0.02,0.05,\xff\n", 3),
    ], ids=["utf-16", "bad-byte-on-line-3"])
    def test_not_utf8(self, tmp_path, data, line):
        p = tmp_path / "data.csv"
        p.write_bytes(data)
        with pytest.raises(DataError, match=rf"data\.csv: not UTF-8 text "
                                            rf"\(.*\) at line {line}$"):
            load_dataset(p, k=1)


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
                                            "row 3 has 1 entries"):
            load_correlation(p, ds)

    def test_row_count_reported(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,0.5\n0.5,1.0\n0.5,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="must be 2x2 to match the dataset: "
                                            "found 3 rows"):
            load_correlation(p, ds)

    def test_non_numeric(self, tmp_path):
        ds = make_dataset([0.1, 0.2], [0.1, 0.2], [1, 1])
        p = _write(tmp_path, "1.0,x\nx,1.0\n", name="corr.csv")
        with pytest.raises(DataError, match="non-numeric correlation entry at row 1"):
            load_correlation(p, ds)

    @pytest.mark.parametrize("data, line", [
        ("1.0,0.5\n0.5,1.0\n".encode("utf-16"), 1),
        (b"1.0,0.5\n\n0.5,1.0\xff\n", 3),
    ], ids=["utf-16", "bad-byte-on-line-3"])
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
                                            "beta_y at row 3"):
            load_dataset(path, k=1)
        return
    if not np.isfinite(expected):
        with pytest.raises(DataError, match="non-finite value at row 3"):
            load_dataset(path, k=1)
        return
    value = load_dataset(path, k=1).beta_y[1]
    assert value == expected
    assert np.signbit(value) == np.signbit(expected)


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
                f"{path}: non-numeric correlation entry at row {line_no}") from None
    mismatch = f"{path}: correlation matrix must be {j}x{j} to match the dataset"
    for line_no, row in rows:
        if len(row) != j:
            raise DataError(f"{mismatch}: row {line_no} has {len(row)} entries")
    if len(rows) != j:
        raise DataError(f"{mismatch}: found {len(rows)} rows")
    return CorrelationMatrix([row for _, row in rows])


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
