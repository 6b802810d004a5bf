"""Rewrite manifest.json: the expected outputs of the golden command cases.

Run from a source checkout:

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite it
    PYTHONPATH=src python tests/golden/regenerate.py --check  # compare only

With ``--check`` it rewrites nothing: it prints a unified diff of every case
whose outputs differ from the manifest, names every case that is in only one
of the two, and exits 1 if there is any.

Each case runs ``mrkit.cli.main`` in process, in a new temporary directory
that holds copies of this directory's input files, so every path a case
names, and every path a message echoes, is a bare file name. The manifest
maps each command line to its exit status, stdout, stderr and the .csv and
.txt files it wrote. Its keys are sorted, so the same outputs give the same
bytes, and it records the numpy and scipy versions it was made with: the
simulate and grid cases depend on numpy's PCG64 and normal streams.

``tests/test_golden.py`` runs every case again and compares. A change that
rewrites the expected output of any case lists each rewritten case in
CHANGES.md as a deliberate format change.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from mrkit.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
INPUTS = sorted([*HERE.glob("*.csv"), *HERE.glob("*.cfg")])

# Analyze argument sets; each runs once per output format.
_ANALYZE = [
    # K = 1 at a 90% level.
    ["--data", "j12_k1.csv", "--k", "1", "--methods", "UI,UE", "--ref", "x1",
     "--level", "0.9"],
    # Multivariable methods on K = 1 run their univariable counterparts.
    ["--data", "j12_k1.csv", "--k", "1", "--methods", "MI,ME", "--ref", "x1",
     "--scheme", "fixed"],
    ["--data", "j12_k2.csv", "--k", "2", "--methods", "UI,UE,MI,ME",
     "--ref", "x1"],
    # An exactly zero x1 association: a warning record and exit status 1.
    ["--data", "j60_k3.csv", "--k", "3", "--methods", "UI,UE,MI,ME",
     "--ref", "x1", "--scheme", "fixed", "--level", "0.9999999"],
    # Correlated variants: an AR(1) matrix, 0.3^|s - t|.
    ["--data", "j12_k2.csv", "--k", "2", "--corr", "ar1_j12.csv",
     "--methods", "UI,UE,MI,ME", "--ref", "x2"],
    # df = 0: no p-value and no interval.
    ["--data", "j1_k1.csv", "--k", "1", "--methods", "UI"],
    # Weak instruments: odds ratios beyond a float.
    ["--data", "weak.csv", "--k", "1", "--methods", "UI,UE", "--ref", "x1"],
    ["--data", "j4_k2.csv", "--k", "2", "--methods", "MI,ME", "--ref", "x1",
     "--n-participants", "5000", "--r2", "0.0871234567"],
    # A flipped variant id that contains the csv list separator.
    ["--data", "semicolon_ids.csv", "--k", "1", "--methods", "UE",
     "--ref", "x1"],
    # Flipped variant ids that hold a line break and a tab.
    ["--data", "newline_id.csv", "--k", "1", "--methods", "UI",
     "--ref", "x1"],
    # An exact fit: beta_Y = beta_X1 / 2, so every residual scale is 0.
    ["--data", "exact_fit.csv", "--k", "1", "--methods", "UI,UE",
     "--ref", "x1"],
    # A block-diagonal matrix: exchangeable 0.4, then AR(1) 0.5^|s - t|.
    ["--data", "j12_k2.csv", "--k", "2", "--corr", "block_j12.csv",
     "--methods", "MI,ME", "--ref", "x1"],
    # j12_k2.csv with beta_Y and se_Y times 2^-600, near 1e-181, and an
    # identity matrix: its p-values, and each se times 2^-600.
    ["--data", "tiny_j12_k2.csv", "--k", "2", "--corr", "identity_j12.csv",
     "--methods", "UI,UE,MI,ME", "--ref", "x1"],
    # The Egger fit first, and x2 as the reference.
    ["--data", "j12_k2.csv", "--k", "2", "--methods", "ME,UI", "--ref", "x2"],
    # A multivariable IVW fit needs no reference: no orientation record.
    ["--data", "j12_k2.csv", "--k", "2", "--methods", "MI"],
    ["--data", "j12_k2.csv", "--k", "2", "--methods", "UE,ME", "--ref", "x2",
     "--scheme", "fixed", "--level", "0.9"],
]

# (argv, environment overrides)
CASES: list[tuple[list[str], dict[str, str]]] = [
    *((["analyze", *argv, "--format", fmt], {})
      for argv in _ANALYZE for fmt in ("text", "csv", "jsonl")),
    (["analyze", "--data", "missing.csv", "--k", "1", "--methods", "UI"], {}),
    (["analyze", "--data", "j12_k1.csv", "--k", "1", "--methods", "UI",
      "--level", "1.5"], {}),
    # beta_X2 is affine in beta_X1: ME's design is rank deficient.
    (["analyze", "--data", "collinear_j8_k2.csv", "--k", "2", "--methods",
      "UI,UE,MI,ME", "--ref", "x1"], {}),
    # The same file without a matrix: the --corr identity_j12.csv numbers.
    (["analyze", "--data", "tiny_j12_k2.csv", "--k", "2", "--methods",
      "UI,UE,MI,ME", "--ref", "x1"], {}),
    (["analyze", "--data", "tiny_j12_k2.csv", "--k", "2", "--methods",
      "UI,UE,MI,ME", "--ref", "x1", "--format", "jsonl"], {}),
    # j12_k2.csv with beta_Y and se_Y times 2^565, near 1e170: its p-values,
    # and each estimate, se and interval times 2^565.
    (["analyze", "--data", "huge_j12_k2.csv", "--k", "2", "--methods",
      "UI,UE,MI,ME", "--ref", "x1", "--format", "jsonl"], {}),
    # A faulty dataset and a faulty matrix.
    (["analyze", "--data", "bad_value.csv", "--k", "1", "--methods", "UI"],
     {}),
    (["analyze", "--data", "j12_k2.csv", "--k", "2", "--corr",
      "asymmetric_j12.csv", "--methods", "MI"], {}),
    # ar1_j12.csv with its last row repeated: 13 rows for 12 variants.
    (["analyze", "--data", "j12_k2.csv", "--k", "2", "--corr",
      "extra_row_j12.csv", "--methods", "MI"], {}),
    # ar1_j12.csv with blank lines after its last row, which are skipped.
    (["analyze", "--data", "j12_k2.csv", "--k", "2", "--corr",
      "blank_tail_j12.csv", "--methods", "UI,UE,MI,ME", "--ref", "x2"], {}),
    (["simulate", "--scenario", "1", "--theta1", "12345678.0", "--reps", "16",
      "--seed", "11", "--out", "sim_theta"], {}),
    (["simulate", "--scenario", "3", "--theta1", "-0.0", "--mu",
      "0.0100000001", "--reps", "16", "--seed", "12", "--out", "sim_mu"], {}),
    # J = 1,000: a chunk holds 47 replicates, not 128.
    (["simulate", "--scenario", "4", "--theta1", "0.3", "--mu", "0.1",
      "--correlated", "--mediation", "--j-variants", "1000", "--reps", "50",
      "--seed", "13", "--out", "sim_j1000"], {}),
    # 300 replicates at J = 185: chunks of 128, 128 and 44 on two threads.
    (["simulate", "--scenario", "2", "--reps", "300", "--seed", "14",
      "--out", "sim_pool"], {"MRKIT_THREADS": "2"}),
    (["simulate", "--config", "scenario.cfg", "--out", "sim_config"], {}),
    (["simulate", "--config", "maybe.cfg", "--out", "sim_maybe"], {}),
    (["grid", "--reps", "4", "--out", "grid"], {}),
    (["grid", "--mediation", "--reps", "8", "--out", "mediation_t1"],
     {"MRKIT_THREADS": "1"}),
    (["grid", "--mediation", "--reps", "8", "--out", "mediation_t2"],
     {"MRKIT_THREADS": "2"}),
]


def versions() -> dict[str, str]:
    """The library versions the outputs depend on."""
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_case(argv: list[str], env: dict[str, str]) -> dict:
    """Run one case in process; its exit status, streams and written files."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for path in INPUTS:
            shutil.copy(path, work)
        os.chdir(work)
        try:
            with mock.patch.dict(os.environ, env), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = main(argv)
        finally:
            os.chdir(cwd)
        inputs = {path.name for path in INPUTS}
        files = {path.name: path.read_text()
                 for path in sorted(Path(work).iterdir())
                 if path.name not in inputs}
    case = {"exit": status, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}
    if env:
        case["env"] = env
    return case


def build() -> dict:
    return {"versions": versions(),
            "cases": {shlex.join(argv): run_case(argv, env)
                      for argv, env in CASES}}


def case_diff(command: str, expected: dict, actual: dict) -> str | None:
    """Unified diffs of every output of a case that differs, or None."""
    if expected["files"].keys() != actual["files"].keys():
        return (f"mrkit {command}\nwrote {sorted(actual['files'])}, expected "
                f"{sorted(expected['files'])}")
    fields = [("exit", str(expected["exit"]), str(actual["exit"])),
              ("stdout", expected["stdout"], actual["stdout"]),
              ("stderr", expected["stderr"], actual["stderr"])]
    fields += [(name, expected["files"][name], actual["files"][name])
               for name in sorted(expected["files"])]
    diffs = ["".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        fromfile=f"expected {name}", tofile=f"actual {name}"))
        for name, want, got in fields if want != got]
    return f"mrkit {command}\n" + "".join(diffs) if diffs else None


def check() -> int:
    """Print every case whose outputs differ from the manifest; 1 if any."""
    stored, current = json.loads(MANIFEST.read_text()), build()
    report = []
    if stored["versions"] != current["versions"]:
        report.append(f"versions: the manifest has {stored['versions']}, "
                      f"this run {current['versions']}")
    for command in sorted(stored["cases"].keys() | current["cases"].keys()):
        if command not in current["cases"]:
            report.append(f"mrkit {command}\nin the manifest, not a case")
        elif command not in stored["cases"]:
            report.append(f"mrkit {command}\na case, not in the manifest")
        elif diff := case_diff(command, stored["cases"][command],
                               current["cases"][command]):
            report.append(diff)
    print("\n".join(report) if report else "every case matches the manifest")
    return 1 if report else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print every case whose outputs differ from "
                             "the manifest and exit 1 if any; rewrite "
                             "nothing")
    if parser.parse_args().check:
        sys.exit(check())
    MANIFEST.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
