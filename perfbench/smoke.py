"""Smoke test of the benchmark harness at tiny sizes (about a minute).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the default ``pytest`` collection of the
repository's own tests; naming it explicitly runs it. Each test starts
``run.py --size smoke`` (J = 200 variants, 256 replicates, grid ``--reps 16``)
and checks the format of its last output line against ``BENCHMARK.json``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_result_line(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4
    section = DEFINITION["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrected_divides_by_the_runs_reference_time():
    nominal = hostspeed.NOMINAL_S
    samples = [{"kind": "warmup", "wall": 7.0},
               {"kind": "ref", "wall": 0.5 * nominal},
               {"kind": "plain", "wall": 1.0},
               {"kind": "traced", "wall": 9.0},
               {"kind": "ref", "wall": 1.5 * nominal},
               {"kind": "plain", "wall": 2.0},
               {"kind": "plain", "wall": 6.0},
               {"kind": "ref", "wall": 1.0 * nominal}]
    # Mean operation 3.0 s; mean reference exactly the nominal time.
    assert run.corrected(samples, "wall") == pytest.approx(3.0)
    samples[-1]["wall"] = 4.0 * nominal  # the host got slower
    assert run.corrected(samples, "wall") == pytest.approx(1.5)


def test_reference_process_measures_and_stops():
    with hostspeed.ReferenceProcess() as reference:
        first = reference.measure(1)
        second = reference.measure(2)
    assert reference.proc.returncode == 0
    assert first["reps"] == 1 and second["reps"] == 2
    assert 0 < second["wall"] < 10 and 0 < second["cpu"] < 10


def test_traced_analyze_counts_layers():
    done = _run("--workload", "analyze_ld", "--seed", "3", "--seconds",
                "0.2", "--trace", "1", "--size", "smoke")
    assert done.returncode == 0, done.stderr
    metrics = {k: v["value"] for k, v in _last_json(done.stdout)["metrics"].items()}
    assert metrics["regression.fit_gls_calls"] == 4
    assert metrics["regression.fit_wls_s"] == 0
    assert 60 <= metrics["orientation.flipped"] <= 140  # about half of 200
    assert metrics["data.load_correlation_s"] > 0


def test_same_seed_same_inputs(tmp_path):
    first = inputs.write_summary(tmp_path / "a.csv", 5, 50, 3, ar1=True)
    second = inputs.write_summary(tmp_path / "b.csv", 5, 50, 3, ar1=True)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert np.array_equal(first.beta_x, second.beta_x)
    assert np.all(first.beta_x != 0) and np.all(first.beta_y != 0)
    assert 10 <= np.sum(first.beta_x[:, 0] < 0) <= 40


def test_tracer_parents_pool_thread_spans_to_the_operation():
    """Grid rows run on pool threads still count as rows of the operation."""
    def run_scenario(_):
        time.sleep(0.02)

    def run_scenario_grid():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(namespace["run_scenario"], range(6)))

    namespace = {"run_scenario": run_scenario,
                 "run_scenario_grid": run_scenario_grid}
    tracer = Tracer()
    tracer.target(namespace, "run_scenario", "simulation.run_scenario")
    tracer.target(namespace, "run_scenario_grid",
                  "simulation.run_scenario_grid")
    with tracer.installed(), tracer.operation() as root:
        namespace["run_scenario_grid"]()
    spans = tracer.spans
    assert sorted(s.span_id for s in spans) == list(range(len(spans)))
    grid = next(s for s in spans if s.name == "simulation.run_scenario_grid")
    rows = [s for s in spans if s.name == "simulation.run_scenario"]
    assert len(rows) == 6
    assert all(s.parent == grid.span_id and s.op == root.op for s in rows)
    own = self_times(spans)
    # Two rows run at a time: the grid's self time excludes the time they
    # cover once, not once per row, so it is small and never negative.
    assert 0 <= own[grid.span_id] < 0.02
    metrics = worker._op_metrics(spans, own)
    assert metrics["simulation.grid_rows_computed"] == 6
    assert metrics["simulation.grid_row_s"] >= 0.02
    assert 0 <= metrics["trace.uncovered_s"] < 0.02


def test_oracle_rejects_a_wrong_estimate(tmp_path):
    import mrkit.cli

    data = inputs.write_summary(tmp_path / "s.csv", 2, 200, 3)
    expected = oracle.analyze_oracle(data.beta_x, data.beta_y, data.se_y, None)
    argv = ["analyze", "--data", str(tmp_path / "s.csv"), "--k", "3",
            "--methods", "UI,UE,MI,ME", "--ref", "x1"]
    out = StringIO()
    with redirect_stdout(out):
        assert mrkit.cli.main(argv) == 0
    text = out.getvalue()
    assert oracle.check_analyze(0, text, expected) == []
    # Nudge the MI estimate for x2 by 0.1% in its own row.
    lines = text.splitlines()
    mi = next(i for i, line in enumerate(lines) if line.startswith("[MI]"))
    row = next(i for i in range(mi, len(lines))
               if lines[i].startswith("  x2"))
    estimate = lines[row].split()[1]
    lines[row] = lines[row].replace(estimate, f"{float(estimate) * 1.001:.6g}", 1)
    problems = oracle.check_analyze(0, "\n".join(lines), expected)
    assert len(problems) == 1 and problems[0].startswith("('MI', 'x2')")
    assert oracle.check_analyze(1, text, expected) == ["exit status 1"]


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run("--workload", "analyze_wide", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
