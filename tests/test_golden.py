"""Every golden command case gives the outputs in tests/golden/manifest.json.

The manifest pins analyze's three formats, simulate's and grid's files,
stderr and the exit status byte for byte. ``tests/golden/regenerate.py``
rewrites it.
"""
import difflib
import json
import shlex

from golden.regenerate import MANIFEST, run_case, versions


def _first_mismatch(command: str, expected: dict, actual: dict) -> str | None:
    """A unified diff of the first output of a case that differs."""
    if expected["files"].keys() != actual["files"].keys():
        return (f"mrkit {command}\nwrote {sorted(actual['files'])}, expected "
                f"{sorted(expected['files'])}")
    fields = [("exit", str(expected["exit"]), str(actual["exit"])),
              ("stdout", expected["stdout"], actual["stdout"]),
              ("stderr", expected["stderr"], actual["stderr"])]
    fields += [(name, expected["files"][name], actual["files"][name])
               for name in sorted(expected["files"])]
    for name, want, got in fields:
        if want != got:
            diff = difflib.unified_diff(
                want.splitlines(keepends=True), got.splitlines(keepends=True),
                fromfile=f"expected {name}", tofile=f"actual {name}")
            return f"mrkit {command}\n" + "".join(diff)
    return None


def test_golden_outputs():
    manifest = json.loads(MANIFEST.read_text())
    mismatch = None
    for command, expected in manifest["cases"].items():
        actual = run_case(shlex.split(command), expected.get("env", {}))
        mismatch = _first_mismatch(command, expected, actual)
        if mismatch:
            break
    # Other library versions may draw other numbers: name them, never skip.
    assert manifest["versions"] == versions(), (
        f"the golden outputs were made with {manifest['versions']}, this run "
        f"has {versions()}" + (f"; first mismatch:\n{mismatch}"
                               if mismatch else ""))
    assert mismatch is None, mismatch
