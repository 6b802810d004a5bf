"""End-to-end command-line behaviour: formats, exit codes, config handling."""
import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mrkit
from mrkit import simulation, write_dataset
from mrkit.cli import main

from conftest import make_dataset, random_correlation, subprocess_env


@pytest.fixture
def three_factor_csv(tmp_path):
    """J=10, K=3 dataset with sign-mixed x1 so orientation does real work."""
    rng = np.random.default_rng(2025)
    bx = rng.normal(0.2, 0.6, size=(10, 3))
    bx[0, 0] = -abs(bx[0, 0])  # guarantee at least one flip
    by = rng.normal(size=10)
    se_y = rng.uniform(0.4, 1.5, 10)
    path = tmp_path / "summary.csv"
    write_dataset(make_dataset(bx, by, se_y, names=("x1", "x2", "x3")), path)
    return str(path)


@pytest.fixture
def one_factor_csv(tmp_path):
    rng = np.random.default_rng(7)
    bx = np.abs(rng.normal(0.3, 0.4, 12)) + 0.02
    by = rng.normal(size=12)
    se_y = rng.uniform(0.4, 1.5, 12)
    path = tmp_path / "uni.csv"
    write_dataset(make_dataset(bx, by, se_y), path)
    return str(path)


@pytest.fixture
def collinear_replicates(monkeypatch):
    """Make the first replicate of every _observables call rank deficient.

    Its x3 duplicates x2, so MI and ME fail on it and UE does not. Returns
    the list that counts the calls, one failed replicate each.
    """
    observables = simulation._observables
    calls = []

    def collinear_first(*args):
        abs_x1, x2, x3, beta_y, se2 = observables(*args)
        x3 = x3.copy()
        x3[0] = x2[0]
        calls.append(None)
        return abs_x1, x2, x3, beta_y, se2

    monkeypatch.setattr(simulation, "_observables", collinear_first)
    return calls


def _data_rows(path):
    """The CSV's records as dicts, below its ``#`` audit lines."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


# Spelled out here, apart from the writer, so that a test pins them.
_SUMMARY_HEADER = [
    "mi_mean", "mi_mean_se", "mi_power_pct",
    "ue_mean", "ue_mean_se", "ue_power_pct", "ue_intercept_power_pct",
    "me_mean", "me_mean_se", "me_power_pct", "me_intercept_power_pct",
    "replicates_used", "failures",
]


def _expected_summary_cells(config):
    """The summary cells of run_scenario(config), each at .6g."""
    summary = simulation.run_scenario(config)
    values = []
    for est in (summary.mi, summary.ue, summary.me):
        values += [est.mean_theta1, est.mean_se, 100 * est.power_causal]
        if est.power_intercept is not None:
            values.append(100 * est.power_intercept)
    values += [summary.mi.replicates_used, summary.failures]
    return [f"{v:.6g}" for v in values]


def _analyze(argv, capsys):
    code = main(["analyze"] + argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_report(self, three_factor_csv, capsys):
        code, out, err = _analyze(
            ["--data", three_factor_csv, "--k", "3",
             "--methods", "MI,ME", "--ref", "x1"], capsys)
        assert code == 0, err
        assert "Dataset: J=10 variants, K=3" in out
        assert "Orientation: reference x1" in out
        assert "[MI] multivariable IVW" in out
        assert "[ME] multivariable MR-Egger" in out
        assert "intercept (average direct effect)" in out
        # One estimate row per risk factor per method.
        assert out.count("log odds ratio per SD") == 6
        assert out.count("average direct effect") == 1

    def test_reference_required_for_egger(self, three_factor_csv, capsys):
        code, _, err = _analyze(
            ["--data", three_factor_csv, "--k", "3", "--methods", "ME"],
            capsys)
        assert code == 2
        assert "--ref is required" in err

    def test_reference_required_for_univariable_selection(
            self, three_factor_csv, capsys):
        code, _, err = _analyze(
            ["--data", three_factor_csv, "--k", "3", "--methods", "UI"],
            capsys)
        assert code == 2
        assert "--ref is required" in err

    def test_single_factor_ui_needs_no_reference(self, one_factor_csv, capsys):
        code, out, err = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--methods", "UI"], capsys)
        assert code == 0, err
        assert "[UI] univariable IVW" in out

    def test_multivariable_on_k1_downgrades_with_note(self, one_factor_csv,
                                                      capsys):
        code, out, _ = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--methods", "MI,ME",
             "--ref", "x1"], capsys)
        assert code == 0
        assert "[UI]" in out and "[UE]" in out
        assert "reduces to univariable IVW" in out
        assert "reduces to univariable MR-Egger" in out
        assert "[MI]" not in out and "[ME]" not in out

    def test_unknown_method(self, one_factor_csv, capsys):
        code, _, err = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--methods", "IVW"],
            capsys)
        assert code == 2
        assert "unknown method" in err

    def test_no_methods(self, one_factor_csv, capsys):
        code, out, err = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--methods", ","], capsys)
        assert (code, out, err) == (
            2, "", "error: no methods requested; use --methods\n")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = _analyze(
            ["--data", str(tmp_path / "nope.csv"), "--k", "1",
             "--methods", "UI"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_field_over_csv_limit(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("variant_id,effect_allele,other_allele,beta_x1,se_x1,"
                        "beta_y,se_y\nrs1,A,G,0.1,0.02," + "1" * 200_000
                        + ",0.01\n")
        code, _, err = _analyze(
            ["--data", str(data), "--k", "1", "--methods", "UI"], capsys)
        assert code == 2
        assert err.startswith(f"error: {data}: field larger than field limit")
        assert "at line 2" in err

    @pytest.mark.parametrize("corr", [False, True])
    def test_not_utf8(self, one_factor_csv, tmp_path, capsys, corr):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes("1.0\n".encode("utf-16"))
        files = (["--data", one_factor_csv, "--corr", str(bad)] if corr
                 else ["--data", str(bad)])
        code, _, err = _analyze(files + ["--k", "1", "--methods", "UI"], capsys)
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8 text (")
        assert "at line 1" in err

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 3.00 GiB for an array"),
         "Unable to allocate 3.00 GiB for an array"),
        (MemoryError(), "an allocation failed"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory(self, three_factor_csv, capsys, monkeypatch, exc,
                           detail):
        # The allocation failure is simulated: nothing large is allocated.
        def failing_orient(*args, **kwargs):
            raise exc

        monkeypatch.setattr(mrkit.cli, "orient", failing_orient)
        assert _analyze(["--data", three_factor_csv, "--k", "3",
                         "--methods", "MI", "--ref", "x1"], capsys) == (
            2, "", f"error: out of memory ({detail})\n")

    def test_bad_level(self, one_factor_csv, tmp_path, capsys):
        # A usage error is reported before any file is read.
        for data in (one_factor_csv, str(tmp_path / "missing.csv")):
            code, _, err = _analyze(
                ["--data", data, "--k", "1", "--methods", "UI",
                 "--level", "1.5"], capsys)
            assert code == 2
            assert "confidence level" in err

    def test_formats_agree(self, tmp_path, capsys):
        # An exactly-zero x1 association adds a warning record, and the
        # instrument options add an instrument_strength record, so every
        # record kind appears.
        rng = np.random.default_rng(2025)
        bx = rng.normal(0.2, 0.6, size=(10, 3))
        bx[0, 0] = -abs(bx[0, 0])
        bx[3, 0] = 0.0
        path = tmp_path / "summary.csv"
        write_dataset(make_dataset(bx, rng.normal(size=10),
                                   rng.uniform(0.4, 1.5, 10),
                                   names=("x1", "x2", "x3")), path)
        args = ["--data", str(path), "--k", "3", "--methods", "UI,UE,MI,ME",
                "--ref", "x1", "--n-participants", "5000", "--r2", "0.04"]
        outputs = {}
        for fmt in ("jsonl", "csv", "text"):
            code, outputs[fmt], err = _analyze(args + ["--format", fmt],
                                               capsys)
            assert code == 1, err

        json_records = [json.loads(line) for line in
                        outputs["jsonl"].splitlines()]
        csv_records = list(csv.DictReader(io.StringIO(outputs["csv"])))
        assert [r["record"] for r in json_records] == [
            "dataset", "orientation", "instrument_strength",
            "method", "estimate",                                # UI
            "method", "estimate", "intercept",                   # UE
            "method", "estimate", "estimate", "estimate",        # MI
            "method", "estimate", "estimate", "estimate", "intercept",  # ME
            "warning"]

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        assert len(csv_records) == len(json_records)
        for jrec, crec in zip(json_records, csv_records):
            assert set(jrec) <= set(crec)
            assert {key: cell(jrec.get(key)) for key in crec} == crec
        # And the text report shows the same 6-significant-digit numbers.
        for jrec in json_records:
            if jrec["record"] == "estimate":
                assert f"{jrec['estimate']:.6g}" in outputs["text"]
        assert "warning: " in outputs["text"]

    def test_correlated_analysis(self, one_factor_csv, tmp_path, capsys):
        j = 12
        corr = np.full((j, j), 0.1)
        np.fill_diagonal(corr, 1.0)
        corr_path = tmp_path / "rho.csv"
        corr_path.write_text("\n".join(
            ",".join(f"{v:.3f}" for v in row) for row in corr) + "\n")
        code, out, err = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--corr", str(corr_path),
             "--methods", "UI,UE", "--ref", "x1"], capsys)
        assert code == 0, err
        assert "Variant correlation: supplied" in out
        assert "random-effects, correlated variants" in out
        assert "[EXPERIMENTAL]" in out
        assert "experimental; interpret with caution" in out

    def test_correlated_single_variant_ratio(self, tmp_path, capsys):
        # One variant: UI is the ratio estimate, with a matrix as without.
        data_path = tmp_path / "one.csv"
        write_dataset(make_dataset([2.0], [1.0], [1.0]), data_path)
        corr_path = tmp_path / "rho.csv"
        corr_path.write_text("1\n")
        argv = ["--data", str(data_path), "--k", "1", "--methods", "UI"]
        code, out, err = _analyze(argv + ["--corr", str(corr_path)], capsys)
        assert code == 0, err
        assert "[UI] univariable IVW — random-effects, correlated" in out
        _, independent, _ = _analyze(argv, capsys)
        assert out.splitlines()[-2:] == independent.splitlines()[-2:]

    def test_singular_correlation_fails_cleanly(self, tmp_path, capsys):
        # A duplicated variant with rho = 1: the matrix has no Cholesky
        # factor, so it is refused at load, before any estimator runs.
        bx = np.array([0.3, 0.3, 0.5, 0.2, 0.4])
        by = np.array([0.1, 0.1, 0.3, -0.2, 0.2])
        se_y = np.array([0.5, 0.5, 0.8, 1.1, 0.7])
        data_path = tmp_path / "dup.csv"
        write_dataset(make_dataset(bx, by, se_y), data_path)
        corr = np.eye(5)
        corr[0, 1] = corr[1, 0] = 1.0
        corr_path = tmp_path / "rho.csv"
        np.savetxt(corr_path, corr, delimiter=",", fmt="%g")
        code, out, err = _analyze(
            ["--data", str(data_path), "--k", "1", "--corr", str(corr_path),
             "--methods", "UI"], capsys)
        smallest = np.linalg.eigvalsh(corr)[0]
        assert (code, out, err) == (
            2, "", "error: correlation matrix is not positive definite "
                   f"(smallest eigenvalue {smallest:.3e})\n")

    def test_correlation_factored_once(self, three_factor_csv, tmp_path,
                                       capsys, monkeypatch):
        # Load factors the oriented matrix before orient runs, and all four
        # estimators whiten their rows, scaled by 1 / se_y, with that
        # factor, so nothing factors a matrix again.
        corr_path = tmp_path / "rho.csv"
        np.savetxt(corr_path, random_correlation(np.random.default_rng(3), 10),
                   delimiter=",")
        cholesky, orient = np.linalg.cholesky, mrkit.cli.orient
        calls, at_orient = [], []

        def counting_cholesky(*args, **kwargs):
            calls.append(args[0].shape)
            return cholesky(*args, **kwargs)

        def counting_orient(*args, **kwargs):
            at_orient.append(len(calls))
            return orient(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(mrkit.cli, "orient", counting_orient)
        code, out, err = _analyze(
            ["--data", three_factor_csv, "--k", "3", "--corr", str(corr_path),
             "--methods", "UI,UE,MI,ME", "--ref", "x1"], capsys)
        assert code == 0, err
        assert out.count("correlated variants") == 4
        assert at_orient and set(at_orient) == {1}
        assert calls == [(10, 10)]

    @pytest.mark.parametrize("ref", [["--ref", "x9"], []],
                             ids=["unknown-ref", "missing-ref"])
    @pytest.mark.parametrize("fault, message", [
        ("asymmetric", "correlation matrix asymmetric beyond tolerance 1e-8"),
        ("indefinite", "correlation matrix is not positive definite "
                       "(smallest eigenvalue -8.000e-01)"),
        ("singular", "correlation matrix is not positive definite "
                     "(smallest eigenvalue {smallest:.3e})"),
        (None, None),
    ], ids=["asymmetric", "indefinite", "singular", "valid"])
    def test_correlation_faults_before_reference(self, three_factor_csv,
                                                 tmp_path, capsys, fault,
                                                 message, ref):
        # The matrix is loaded oriented only for a known --ref; a faulty
        # file, a singular matrix included, is reported before an unknown or
        # missing --ref.
        corr = np.eye(10)
        if fault == "asymmetric":
            corr[0, 1] = 0.5
        elif fault == "indefinite":
            corr[:3, :3] = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9],
                            [-0.9, 0.9, 1.0]]
        elif fault == "singular":
            # The first two variants duplicated, with rho = 1.
            corr[0, 1] = corr[1, 0] = 1.0
            message = message.format(smallest=np.linalg.eigvalsh(corr)[0])
        corr_path = tmp_path / "rho.csv"
        np.savetxt(corr_path, corr, delimiter=",")
        if message is None:
            message = ("unknown risk factor 'x9'; expected one of x1, x2, x3"
                       if ref else
                       "--ref is required for ME, UE, UI (orientation / "
                       "risk-factor selection)")
        code, out, err = _analyze(
            ["--data", three_factor_csv, "--k", "3", "--corr", str(corr_path),
             "--methods", "UI,UE,MI,ME", *ref], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_correlated_analysis_memory(self, tmp_path, capsys):
        # One analysis holds two J x J arrays at once: the oriented matrix
        # and its factor. The estimators divide their rows by se_y rather
        # than build diag(se_y) L. tracemalloc counts numpy's arrays only,
        # not the buffers LAPACK allocates itself.
        j = 400
        rng = np.random.default_rng(11)
        bx = rng.normal(0.0, 0.5, size=(j, 3))  # about half of x1 negative
        data_path = tmp_path / "ld.csv"
        write_dataset(make_dataset(bx, rng.normal(size=j),
                                   rng.uniform(0.4, 1.5, j),
                                   names=("x1", "x2", "x3")), data_path)
        lags = np.abs(np.subtract.outer(np.arange(j), np.arange(j)))
        corr_path = tmp_path / "rho.csv"
        np.savetxt(corr_path, 0.3 ** lags, delimiter=",")
        argv = ["analyze", "--data", str(data_path), "--k", "3", "--corr",
                str(corr_path), "--methods", "UI,UE,MI,ME", "--ref", "x1"]
        assert main(argv) == 0  # imports and first-use caches, untraced
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert np.count_nonzero(bx[:, 0] < 0) > j // 3
        assert peak <= 2.5 * 8 * j * j

    def test_fixed_scheme_label(self, one_factor_csv, capsys):
        code, out, _ = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--methods", "UI",
             "--scheme", "fixed"], capsys)
        assert code == 0
        assert "fixed-effects" in out

    def test_instrument_strength_block(self, one_factor_csv, capsys):
        code, out, _ = _analyze(
            ["--data", one_factor_csv, "--k", "1", "--methods", "UI",
             "--n-participants", "188578", "--r2", "0.087"], capsys)
        assert code == 0
        assert "Instrument strength" in out
        assert "N=188578" in out

    def test_instrument_strength_needs_both(self, one_factor_csv, tmp_path,
                                            capsys):
        # A usage error is reported before any file is read.
        for data in (one_factor_csv, str(tmp_path / "missing.csv")):
            for option, value in (("--r2", "0.087"),
                                  ("--n-participants", "1000")):
                code, _, err = _analyze(
                    ["--data", data, "--k", "1", "--methods", "UI", option,
                     value], capsys)
                assert code == 2
                assert "both --n-participants and --r2" in err

    def test_zero_association_warns_exit_one(self, tmp_path, capsys):
        bx = np.array([0.0, 0.5, 0.8, 0.3, 0.4])
        ds = make_dataset(bx, np.array([0.1, 0.2, 0.3, 0.1, 0.2]),
                          np.full(5, 0.8))
        path = tmp_path / "zero.csv"
        write_dataset(ds, path)
        code, out, _ = _analyze(
            ["--data", str(path), "--k", "1", "--methods", "UE",
             "--ref", "x1"], capsys)
        assert code == 1
        assert "warning:" in out
        assert "zero reference association" in out


    @pytest.mark.parametrize("k, methods, expected", [
        (3, "UI,UE,MI,ME", ("UI", "UE", "MI", "ME")),
        (1, "MI,ME", ("UI", "UE")),
    ])
    def test_correlated_dispatch(self, three_factor_csv, one_factor_csv,
                                 tmp_path, capsys, k, methods, expected):
        data = three_factor_csv if k == 3 else one_factor_csv
        dataset = mrkit.load_dataset(data, k)
        corr_path = tmp_path / "rho.csv"
        corr_path.write_text("\n".join(
            ",".join(repr(float(v)) for v in row)
            for row in random_correlation(np.random.default_rng(3), dataset.j)
        ) + "\n")
        args = ["--data", data, "--k", str(k), "--corr", str(corr_path),
                "--methods", methods, "--ref", "x1"]
        code, jsonl_out, err = _analyze(args + ["--format", "jsonl"], capsys)
        assert code == 0, err
        code, text_out, err = _analyze(args, capsys)
        assert code == 0, err

        records = [json.loads(line) for line in jsonl_out.splitlines()]
        blocks = [r for r in records if r["record"] == "method"]
        assert [b["method"] for b in blocks] == list(expected)
        experimental = "correlated-variant MR-Egger is experimental"
        for block in blocks:
            egger = block["method"] in ("UE", "ME")
            assert (f"{block['method']}/{block['scheme']}/{block['variants']}"
                    == f"{block['method']}/random/correlated")
            assert block["experimental"] is egger
            if k == 1:
                assert "reduces to univariable" in block["note"]
            elif egger:
                assert block["note"].startswith(experimental)
            else:
                assert block["note"] is None
        assert text_out.count("[EXPERIMENTAL]") == len(
            [m for m in expected if m in ("UE", "ME")])
        assert text_out.count(experimental) == (2 if k == 3 else 0)

        oriented, _ = mrkit.orient(dataset.with_correlation(
            mrkit.load_correlation(str(corr_path), dataset)), "x1")
        univariable = (oriented if k == 1
                       else mrkit.select_risk_factor(oriented, "x1"))
        direct = {
            "UI": mrkit.ivw_correlated(univariable),
            "UE": mrkit.egger_correlated(univariable, "x1"),
            "MI": mrkit.ivw_correlated(oriented),
            "ME": mrkit.egger_correlated(oriented, "x1"),
        }
        printed = [r for r in records if r["record"] == "estimate"]
        assert len(printed) == sum(len(direct[m].estimates) for m in expected)
        for record in printed:
            estimate = direct[record["method"]].estimate_for(
                record["risk_factor"])
            assert record["estimate"] == float(f"{estimate.theta_hat:.6g}")
            assert record["se"] == float(f"{estimate.se:.6g}")
        for record in (r for r in records if r["record"] == "intercept"):
            intercept = direct[record["method"]].intercept
            assert record["estimate"] == float(f"{intercept.theta_0:.6g}")
            assert record["se"] == float(f"{intercept.se:.6g}")

    def test_overflowing_odds_ratio_reported_as_inf(self, tmp_path, capsys):
        # Weak instruments and large outcome associations: theta_hat ~ 3000,
        # far beyond the largest argument math.exp accepts (~709).
        bx = np.array([0.0010, 0.0011, 0.0012, 0.0009, 0.0010, 0.0013])
        by = np.array([2.0, 3.5, 4.0, 2.5, 3.0, 3.9])
        path = tmp_path / "weak.csv"
        write_dataset(make_dataset(bx, by, np.full(6, 0.5)), path)
        args = ["--data", str(path), "--k", "1", "--methods", "UI,UE",
                "--ref", "x1"]

        code, jsonl_out, err = _analyze(args + ["--format", "jsonl"], capsys)
        assert code == 0, err

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        # Strict JSON: no Infinity or NaN tokens on any line.
        records = [json.loads(line, parse_constant=reject)
                   for line in jsonl_out.splitlines()]
        ui = next(r for r in records
                  if r["record"] == "estimate" and r["method"] == "UI")
        assert ui["estimate"] > 709
        assert ui["odds_ratio"] == ui["or_ci_high"] == "inf"

        code, csv_out, err = _analyze(args + ["--format", "csv"], capsys)
        assert code == 0, err
        rows = [r for r in csv.DictReader(io.StringIO(csv_out))
                if r["record"] == "estimate" and r["method"] == "UI"]
        assert rows[0]["odds_ratio"] == rows[0]["or_ci_high"] == "inf"

        code, text_out, err = _analyze(args, capsys)
        assert code == 0, err
        assert "inf (" in text_out


def test_python_m_mrkit_help():
    done = subprocess.run([sys.executable, "-m", "mrkit", "--help"],
                          capture_output=True, text=True,
                          env=subprocess_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    for command in ("analyze", "simulate", "grid"):
        assert command in done.stdout


def _outcomes(argvs, capsys):
    """main's exit status (or SystemExit code), stdout and stderr per argv."""
    outcomes = []
    for argv in argvs:
        try:
            status = main(argv)
        except SystemExit as exit_info:
            status = ("SystemExit", exit_info.code)
        captured = capsys.readouterr()
        outcomes.append((status, captured.out, captured.err))
    return outcomes


def test_reused_parser_carries_no_state(three_factor_csv, tmp_path, capsys,
                                        monkeypatch):
    """main builds its parser once. Each later run, help and usage error
    prints what a freshly built parser prints, whatever ran before it."""
    assert mrkit.cli._build_parser() is mrkit.cli._build_parser()
    analyze = ["analyze", "--data", three_factor_csv, "--k", "3",
               "--methods", "UI,UE,MI,ME", "--ref", "x1"]
    argvs = [analyze + ["--format", "csv"], analyze,
             analyze + ["--scheme", "fixed"],
             ["grid", "--reps", "3", "--seed", "5", "--mediation",
              "--out", str(tmp_path / "g")],
             analyze, ["--help"], ["analyze", "--help"],
             ["analyze", "--k", "x"], ["simulate", "--scenario", "9"]]
    reused = _outcomes(argvs, capsys)
    monkeypatch.setattr(mrkit.cli, "_build_parser",
                        mrkit.cli._build_parser.__wrapped__)
    assert mrkit.cli._build_parser() is not mrkit.cli._build_parser()
    assert reused == _outcomes(argvs, capsys)
    assert reused[1] == reused[4] != reused[0]
    assert [status for status, _, _ in reused] == [
        0, 0, 0, 0, 0, ("SystemExit", 0), ("SystemExit", 0),
        ("SystemExit", 2), ("SystemExit", 2)]
    assert reused[7][2].startswith("usage: mrkit analyze ")


class TestSimulate:
    def test_help_names_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for key in mrkit.cli._CONFIG_KEYS:
            assert key in out

    def test_config_file_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MRKIT_THREADS", "2")
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "# quick check\n"
            "scenario = 2\n"
            "theta1 = 0.3\n"
            "replicates = 150  # small run\n"
            "seed = 11\n")
        out_prefix = str(tmp_path / "simout")
        code = main(["simulate", "--config", str(conf), "--out", out_prefix])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "mrkit simulate" in captured.out
        assert f"wrote {out_prefix}.csv, {out_prefix}.txt" in captured.out
        csv_text = (tmp_path / "simout.csv").read_text()
        assert "# scenario=2 theta1=0.3" in csv_text
        assert "seed=11" in csv_text
        rows = [line for line in csv_text.splitlines()
                if not line.startswith("#")]
        header = rows[0].split(",")
        values = dict(zip(header, rows[1].split(",")))
        assert values["replicates"] == "150"
        assert float(values["mi_mean"]) == pytest.approx(0.3, abs=0.05)
        assert (tmp_path / "simout.txt").exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        conf = tmp_path / "sim.conf"
        conf.write_text("scenario = 1\ntheta1 = 0.0\nreplicates = 60\n")
        out_prefix = str(tmp_path / "s2")
        code = main(["simulate", "--config", str(conf),
                     "--theta1", "0.3", "--out", out_prefix])
        capsys.readouterr()
        assert code == 0
        assert "theta1=0.3" in (tmp_path / "s2.csv").read_text()

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "sim.conf"
        conf.write_text("scenario = 1\nbogus = 3\n")
        code = main(["simulate", "--config", str(conf)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown config key 'bogus'" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        conf = tmp_path / "sim.conf"
        conf.write_text("scenario 1\n")
        code = main(["simulate", "--config", str(conf)])
        err = capsys.readouterr().err
        assert code == 2
        assert "expected key=value" in err

    def test_config_with_bom(self, tmp_path, capsys):
        conf = tmp_path / "sim.conf"
        conf.write_bytes("\ufeffscenario = 1\r\nreplicates = 60\r\n"
                         .encode("utf-8"))
        out_prefix = str(tmp_path / "bom")
        code = main(["simulate", "--config", str(conf), "--out", out_prefix])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "replicates=60" in (tmp_path / "bom.csv").read_text()

    @pytest.mark.parametrize("content, line", [
        ("scenario = 1\n".encode("utf-16"), 1),
        (b"# header\nscenario = 1\nseed = 7\xff\n", 3),
        # The whole file is decoded before its first line is parsed.
        pytest.param(b"scenario 1\n" + b"# padding\n" * 900
                     + b"seed = 7\xff\n", 902, id="after-bad-line-past-8kb"),
    ])
    def test_config_not_utf8(self, tmp_path, capsys, content, line):
        conf = tmp_path / "sim.conf"
        conf.write_bytes(content)
        code = main(["simulate", "--config", str(conf)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {conf}: not UTF-8 text (")
        assert err.rstrip().endswith(f"at line {line}")

    @pytest.mark.parametrize("line, message", [
        ("replicates=abc", "replicates expects an integer, got 'abc'"),
        ("theta1 = 0.3x", "theta1 expects a number, got '0.3x'"),
        ("correlated = maybe", "correlated expects a boolean, got 'maybe'"),
    ])
    def test_bad_config_value_located(self, tmp_path, capsys, line, message):
        conf = tmp_path / "sim.conf"
        conf.write_text(f"# header\nscenario = 1\n{line}\n")
        code = main(["simulate", "--config", str(conf)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{conf}:3: {message}" in err

    @pytest.mark.parametrize("value, correlated", [
        ("no", "false"), ("off", "false"), ("0", "false"), ("On", "true"),
        ("maybe", None),
    ])
    def test_config_boolean_spellings(self, tmp_path, capsys, value,
                                      correlated):
        conf = tmp_path / "sim.conf"
        conf.write_text(f"scenario = 1\ncorrelated = {value}\n"
                        "replicates = 20\n")
        code = main(["simulate", "--config", str(conf),
                     "--out", str(tmp_path / "s")])
        out, err = capsys.readouterr()
        if correlated is None:
            assert (code, out, err) == (
                2, "", f"error: {conf}:2: correlated expects a boolean, got "
                       f"'{value}'\n")
        else:
            assert code == 0, err
            audit = (tmp_path / "s.csv").read_text().splitlines()[1]
            assert f" correlated={correlated} " in audit

    def test_scenario_required(self, tmp_path, capsys):
        conf = tmp_path / "sim.conf"
        conf.write_text("theta1 = 0.3\n")
        code = main(["simulate", "--config", str(conf)])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs a scenario" in err

    def test_invalid_scenario_mu_combo(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "3", "--mu", "0",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs mu > 0" in err

    @pytest.mark.parametrize("argv, message", [
        (["--scenario", "1", "--theta1", "inf"], "theta1 must be finite"),
        (["--scenario", "3", "--mu", "nan"], "mu must be finite"),
    ])
    def test_non_finite_setting(self, tmp_path, capsys, argv, message):
        code = main(["simulate"] + argv + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_csv_pinned(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "4", "--theta1", "0.3",
                     "--mu", "0.05", "--correlated", "--mediation",
                     "--j-variants", "37", "--weight-mode",
                     "variance_component", "--reps", "40", "--seed", "9",
                     "--out", str(tmp_path / "s")])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        audit = ("scenario=4 theta1=0.3 mu=0.05 correlated=true gamma=0.5 "
                 "j_variants=37 replicates=40 seed=9 "
                 "weight_mode=variance_component")
        assert lines[:3] == [
            "# mrkit simulate", f"# {audit}",
            ",".join(["scenario", "theta1", "mu", "correlated", "gamma",
                      "j_variants", "replicates", "seed", "weight_mode"]
                     + _SUMMARY_HEADER)]
        config = simulation.ScenarioConfig(
            4, theta1=0.3, mu=0.05, correlated=True, mediation=True,
            j_variants=37, replicates=40, seed=9,
            weight_mode="variance_component")
        assert lines[3:] == [",".join(
            ["4", "0.3", "0.05", "true", "0.5", "37", "40", "9",
             "variance_component"]
            + _expected_summary_cells(config))]
        txt = (tmp_path / "s.txt").read_text().splitlines()
        assert txt[:3] == ["mrkit simulate", audit, ""]

    def test_settings_written_in_full(self, tmp_path, capsys):
        # At %g these read 1.23457e+07 and 0.123457: not the run's settings.
        code = main(["simulate", "--scenario", "3", "--theta1", "12345678",
                     "--mu", "0.1234567", "--reps", "10", "--seed", "4",
                     "--out", str(tmp_path / "p")])
        out = capsys.readouterr().out
        assert code == 0
        audit = ("scenario=3 theta1=12345678.0 mu=0.1234567 correlated=false "
                 "gamma=0 j_variants=185 replicates=10 seed=4 "
                 "weight_mode=realized")
        assert out.splitlines()[:2] == ["mrkit simulate", audit]
        assert (tmp_path / "p.csv").read_text().splitlines()[1] == \
               f"# {audit}"
        [row] = _data_rows(tmp_path / "p.csv")
        assert (row["theta1"], row["mu"]) == ("12345678.0", "0.1234567")
        # Estimates stay at six significant digits.
        assert row["mi_mean"] == "1.23457e+07"

    def test_every_replicate_failed(self, tmp_path, capsys):
        # Finite but overflowing: every outcome residual sum is infinite.
        code = main(["simulate", "--scenario", "1", "--theta1", "1e200",
                     "--reps", "8", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: every replicate failed for estimator MI" in err

    def test_some_replicates_failed(self, tmp_path, capsys,
                                    collinear_replicates):
        # 300 replicates run as chunks of 128, 128 and 44: one failure each.
        code = main(["simulate", "--scenario", "2", "--reps", "300",
                     "--seed", "5", "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert len(collinear_replicates) == 3
        assert captured.err == "warning: 3 replicate(s) failed\n"
        assert code == 1
        assert (tmp_path / "x.txt").exists()
        [row] = _data_rows(tmp_path / "x.csv")
        assert row["failures"] == "3"
        assert row["replicates_used"] == "297"


class TestGrid:
    def test_full_grid_outputs(self, tmp_path, capsys):
        prefix = str(tmp_path / "grid")
        code = main(["grid", "--reps", "15", "--seed", "42",
                     "--out", prefix])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "== main grid, independent risk factors ==" in captured.out
        assert "== mediation grid, correlated risk factors ==" in captured.out
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "# mrkit grid"
        assert "seed=42" in lines[1] and "replicates=15" in lines[1]
        header = lines[2].split(",")
        assert header[:7] == ["row", "grid", "correlated", "theta1",
                              "scenario", "mu", "seed"]
        data = lines[3:]
        assert len(data) == 64
        assert data[0].startswith("0,main,false,0,1,0,")
        assert data[-1].startswith("63,mediation,true,0.3,4,0.1,")
        assert (tmp_path / "grid.txt").exists()

    @pytest.mark.parametrize("mediation", [False, True])
    def test_csv_pinned(self, tmp_path, capsys, mediation):
        argv = ["grid", "--reps", "4", "--seed", "5",
                "--out", str(tmp_path / "g")]
        assert main(argv + ["--mediation"] * mediation) == 0
        capsys.readouterr()
        lines = (tmp_path / "g.csv").read_text().splitlines()
        audit = (f"seed=5 replicates=4 rows={32 if mediation else 64} "
                 f"mediation_only={'true' if mediation else 'false'}")
        assert lines[:3] == [
            "# mrkit grid", f"# {audit}",
            ",".join(["row", "grid", "correlated", "theta1", "scenario",
                      "mu", "seed"] + _SUMMARY_HEADER)]
        layout = list(itertools.product(
            ("main", "mediation"), ("false", "true"), ("0", "0.3"),
            (("1", "0"), ("2", "0"), ("3", "0.01"), ("3", "0.05"),
             ("3", "0.1"), ("4", "0.01"), ("4", "0.05"), ("4", "0.1"))))
        expected = []
        for index, (grid, correlated, theta1, (scenario, mu)) in enumerate(
                layout):
            if mediation and grid == "main":
                continue
            seed = int(np.random.SeedSequence([5, index])
                       .generate_state(1, np.uint64)[0])
            config = simulation.ScenarioConfig(
                int(scenario), theta1=float(theta1), mu=float(mu),
                correlated=correlated == "true",
                mediation=grid == "mediation", replicates=4, seed=seed)
            expected.append(",".join(
                [str(index), grid, correlated, theta1, scenario, mu,
                 str(seed)] + _expected_summary_cells(config)))
        assert lines[3:] == expected
        txt = (tmp_path / "g.txt").read_text().splitlines()
        assert txt[:3] == ["mrkit grid", audit, ""]

    def test_mediation_filter(self, tmp_path, capsys):
        prefix = str(tmp_path / "med")
        code = main(["grid", "--reps", "15", "--seed", "42", "--mediation",
                     "--out", prefix])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "med.csv").read_text().splitlines()
        data = [line for line in lines[3:]]
        assert len(data) == 32
        assert all(",mediation," in line for line in data)
        assert "mediation_only=true" in lines[1]
        # Row indices keep their full-grid positions so seeds line up.
        assert data[0].startswith("32,mediation,")

    def test_mediation_rows_match_full_grid(self, tmp_path, capsys,
                                            monkeypatch):
        def data_rows(name):
            return (tmp_path / f"{name}.csv").read_text().splitlines()[3:]

        assert main(["grid", "--reps", "10", "--seed", "7",
                     "--out", str(tmp_path / "full")]) == 0
        for threads in ("1", "2"):
            monkeypatch.setenv("MRKIT_THREADS", threads)
            assert main(["grid", "--mediation", "--reps", "10", "--seed", "7",
                         "--out", str(tmp_path / f"med{threads}")]) == 0
        capsys.readouterr()
        assert data_rows("med1") == data_rows("full")[32:]
        for suffix in (".csv", ".txt"):
            assert (tmp_path / f"med1{suffix}").read_bytes() == \
                   (tmp_path / f"med2{suffix}").read_bytes()

    def test_text_table_columns_align(self, tmp_path, capsys):
        assert main(["grid", "--reps", "5", "--seed", "3",
                     "--out", str(tmp_path / "g")]) == 0
        capsys.readouterr()
        blocks = (tmp_path / "g.txt").read_text().split("\n== ")[1:]
        assert len(blocks) == 4
        for block in blocks:
            _, header, *rows = block.strip().splitlines()
            assert len(rows) == 16
            assert [len(row) for row in rows] == [len(header)] * 16

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        code = main(["grid", "--reps", "2", "--seed", seed,
                     "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_bad_reps(self, tmp_path, capsys, reps):
        # The grid sizes its row groups from --reps only after the rows'
        # configs have validated it.
        code = main(["grid", "--reps", reps, "--seed", "3",
                     "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: replicates must be a positive integer\n"
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("mediation", [[], ["--mediation"]])
    def test_text_table_rendered_once(self, tmp_path, capsys, monkeypatch,
                                      mediation):
        table = mrkit.cli._grid_text_table
        calls = []

        def counting_table(rows):
            calls.append(len(rows))
            return table(rows)

        monkeypatch.setattr(mrkit.cli, "_grid_text_table", counting_table)
        assert main(["grid", "--reps", "4", "--seed", "3", "--out",
                     str(tmp_path / "g")] + mediation) == 0
        out = capsys.readouterr().out
        assert calls == [32 if mediation else 64]
        text = (tmp_path / "g.txt").read_text()
        assert out.startswith(text[text.index("\n\n") + 2:])

    def test_some_replicates_failed(self, tmp_path, capsys,
                                    collinear_replicates):
        # 32 rows of 32 replicates, packed four to a chunk: every row is its
        # own _observables call, so every row loses one replicate.
        code = main(["grid", "--mediation", "--reps", "32", "--seed", "3",
                     "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert len(collinear_replicates) == 32
        assert captured.err == \
               "warning: 32 replicate(s) failed across the grid\n"
        assert code == 1
        assert (tmp_path / "g.txt").exists()
        rows = _data_rows(tmp_path / "g.csv")
        assert len(rows) == 32
        assert [row["failures"] for row in rows] == ["1"] * 32

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["grid", "--reps", "10", "--seed", "7", "--out", a]) == 0
        assert main(["grid", "--reps", "10", "--seed", "7", "--out", b]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == \
               (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.txt").read_bytes() == \
               (tmp_path / "b.txt").read_bytes()


@contextlib.contextmanager
def _fifo(path: Path, data: bytes):
    """``path`` as a named pipe that gives ``data`` to its first reader and
    nothing to any later one, as a shell's process substitution does."""
    os.mkfifo(path)
    done = threading.Event()

    def serve():
        payload = data
        while not done.is_set():
            try:
                with open(path, "wb") as pipe:
                    pipe.write(payload)
            except BrokenPipeError:  # the reader closed its end early
                pass
            payload = b""

    writer = threading.Thread(target=serve, daemon=True)
    writer.start()
    try:
        yield
    finally:
        done.set()
        while writer.is_alive():
            # A reader that closes at once lets a waiting writer finish.
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=0.05)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("piped, argv", [
    ("summary.csv", ["analyze", "--data", "summary.csv", "--k", "3",
                     "--methods", "UI,UE,MI,ME", "--ref", "x1"]),
    ("rho.csv", ["analyze", "--data", "summary.csv", "--k", "3",
                 "--methods", "UI,UE,MI,ME", "--ref", "x1", "--corr", "rho.csv"]),
    ("sim.conf", ["simulate", "--config", "sim.conf", "--out", "sim"]),
], ids=["dataset", "faulty-correlation", "config"])
def test_pipe_input_matches_file(three_factor_csv, tmp_path, capsys,
                                 monkeypatch, piped, argv):
    """Each input read from a named pipe gives the output, errors, exit
    status and files that the same bytes give from a regular file."""
    files = {"summary.csv": Path(three_factor_csv).read_bytes(),
             "rho.csv": b"1.0,0.5\n0.5,1.0\n",
             "sim.conf": b"scenario = 2\nreplicates = 60\nseed = 11\n"}
    outcomes = []
    for kind in ("file", "pipe"):
        run = tmp_path / kind
        run.mkdir()
        for name, data in files.items():
            if kind == "file" or name != piped:
                (run / name).write_bytes(data)
        monkeypatch.chdir(run)
        with (_fifo(run / piped, files[piped]) if kind == "pipe"
              else contextlib.nullcontext()):
            code = main(argv)
        out, err = capsys.readouterr()
        written = {name: (run / name).read_bytes()
                   for name in ("sim.csv", "sim.txt") if (run / name).exists()}
        outcomes.append((code, out, err, written))
    assert outcomes[0] == outcomes[1]
    if piped == "rho.csv":
        assert outcomes[0][:3] == (
            2, "", "error: rho.csv: correlation matrix must be 10x10 to match "
                   "the dataset: row 1 has 2 entries\n")
    else:
        assert outcomes[0][0] == 0


def test_perfbench_trace_targets_resolve(three_factor_csv, tmp_path, capsys,
                                        monkeypatch):
    """Every name perfbench's tracer wraps exists, and grid and analyze call
    them."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    import worker

    tracer = spans.Tracer()
    worker.install_targets(tracer)
    writer = mrkit.cli._write_grid_outputs
    with tracer.installed(), tracer.operation():
        assert mrkit.cli._write_grid_outputs is not writer
        assert main(["grid", "--mediation", "--reps", "2", "--seed", "3",
                     "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    assert mrkit.cli._write_grid_outputs is writer
    # The grid writer, and the text table rendered inside it.
    assert [s.name for s in tracer.spans].count("cli.render") == 2

    # analyze calls each estimator through cli's globals, and each
    # estimator's fit calls fit_wls through estimators'.
    tracer.spans.clear()
    with tracer.installed(), tracer.operation():
        assert main(["analyze", "--data", three_factor_csv, "--k", "3",
                     "--methods", "UI,UE,MI,ME", "--ref", "x1"]) == 0
    capsys.readouterr()
    names = {s.span_id: s.name for s in tracer.spans}
    assert [n for n in names.values() if n.startswith("estimators.")] == [
        "estimators.ivw_univariable", "estimators.egger_univariable",
        "estimators.ivw_multivariable", "estimators.egger_multivariable"]
    fits = [s for s in tracer.spans if s.name == "regression.fit_wls"]
    assert len(fits) == 4
    assert all(names[s.parent].startswith("estimators.") for s in fits)
