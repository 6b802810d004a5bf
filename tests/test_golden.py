"""Every golden command case gives the outputs in tests/golden/manifest.json.

The manifest pins analyze's three formats, simulate's and grid's files,
stderr and the exit status byte for byte. ``tests/golden/regenerate.py``
rewrites it, and with ``--check`` lists every case that differs.
"""
import json
import shlex

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
