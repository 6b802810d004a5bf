"""Every golden command case gives the outputs in tests/golden/manifest.json.

The manifest pins analyze's three formats, simulate's and grid's files,
stderr and the exit status byte for byte. ``tests/golden/regenerate.py``
rewrites it, and with ``--check`` lists every case that differs. Cases on
one dataset in other units, or with an identity correlation matrix, are
also checked against each other.
"""
import json
import math
import shlex

import pytest

from golden import regenerate
from golden.regenerate import MANIFEST, case_diff, run_case, versions


def test_golden_outputs():
    manifest = json.loads(MANIFEST.read_text())
    mismatches = []
    for command, expected in manifest["cases"].items():
        actual = run_case(shlex.split(command), expected.get("env", {}))
        if diff := case_diff(command, expected, actual):
            mismatches.append(diff)
    report = "\n".join(mismatches)
    # Other library versions may draw other numbers: name them, never skip.
    assert manifest["versions"] == versions(), (
        f"the golden outputs were made with {manifest['versions']}, this run "
        f"has {versions()}" + (f"; mismatches:\n{report}" if report else ""))
    assert not mismatches, report


def test_check_lists_every_differing_case(tmp_path, monkeypatch, capsys):
    manifest = json.loads(MANIFEST.read_text())
    first, second, third = sorted(manifest["cases"])[:3]
    manifest["cases"][first]["stdout"] += "an extra line\n"
    manifest["cases"][second]["exit"] += 1
    del manifest["cases"][third]
    stale = tmp_path / "manifest.json"
    stale.write_text(json.dumps(manifest))
    monkeypatch.setattr(regenerate, "MANIFEST", stale)
    assert regenerate.check() == 1
    report = capsys.readouterr().out
    assert f"mrkit {first}\n" in report and "-an extra line" in report
    assert f"mrkit {second}\n" in report and "expected exit" in report
    assert f"mrkit {third}\na case, not in the manifest" in report
    assert stale.read_text() == json.dumps(manifest)


_FITS = "--methods UI,UE,MI,ME --ref x1 --format jsonl"


def _records(command: str) -> list[dict]:
    """The jsonl records a golden case printed."""
    stdout = json.loads(MANIFEST.read_text())["cases"][command]["stdout"]
    return [json.loads(line) for line in stdout.splitlines()]


def test_identity_matrix_case_prints_the_independent_numbers():
    plain = _records(f"analyze --data tiny_j12_k2.csv --k 2 {_FITS}")
    identity = _records(f"analyze --data tiny_j12_k2.csv --k 2 --corr "
                        f"identity_j12.csv {_FITS}")
    numbers = [[r for r in records if r["record"] in ("estimate", "intercept")]
               + [r["residual_scale"] for r in records
                  if r["record"] == "method"]
               for records in (plain, identity)]
    assert numbers[0] == numbers[1]


@pytest.mark.parametrize("data, m", [("tiny_j12_k2.csv", -600),
                                     ("huge_j12_k2.csv", 565)])
def test_scaled_outcome_case_scales_the_numbers(data, m):
    # j12_k2.csv with beta_Y and se_Y times 2^m: each estimate, se and
    # interval bound times 2^m exactly, and every other record the same,
    # bar the odds ratios.
    base = _records(f"analyze --data j12_k2.csv --k 2 {_FITS}")
    scaled = _records(f"analyze --data {data} --k 2 {_FITS}")
    assert len(scaled) == len(base)
    for want, got in zip(base, scaled):
        for key in ("estimate", "se", "ci_low", "ci_high"):
            if key in want:
                want[key] = math.ldexp(want[key], m)
        for record in (want, got):
            for key in ("odds_ratio", "or_ci_low", "or_ci_high"):
                record.pop(key, None)
        assert got == want
