"""mrkit benchmark: run one workload (or all four) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze_wide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each run generates its inputs from ``--seed`` under ``.perfbench_work/``,
times a fresh ``import mrkit`` a few times (``setup_s``), then starts
``worker.py`` in a fresh interpreter that runs the workload in a closed loop
for ``--seconds`` and checks every output. Times are corrected for the
host's speed, measured by the reference in ``hostspeed.py`` as the run goes;
the uncorrected figures are printed too. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The exit status is 0 when the run completed, whether or not
its outputs were correct; it is 2 when the checkout has no ``src/mrkit``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from hostspeed import NOMINAL_S, ReferenceProcess
from workloads import END_TO_END, HEALTH, REF_SHARE, WORKLOADS, items_per_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 4
# Every run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170.0


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MRKIT_THREADS"] = str(threads)
    return env


def _threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def generate(name: str, size: dict, seed: int) -> dict:
    """Write the workload's inputs; return the paths the worker needs."""
    folder = WORK / name
    folder.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[name]
    if spec["kind"] == "grid":
        return {"grid_prefix": str(folder / "grid")}
    if spec["kind"] == "simulate":
        return {}
    paths = {"summary": str(folder / "summary.csv"),
             "arrays": str(folder / "arrays.npz")}
    data = inputs.write_summary(Path(paths["summary"]), seed, size["j"],
                                size["k"], ar1=spec["corr"])
    arrays = {"beta_x": data.beta_x, "beta_y": data.beta_y,
              "se_y": data.se_y}
    if spec["corr"]:
        paths["corr"] = str(folder / "corr.csv")
        arrays["correlation"] = inputs.write_ar1_correlation(
            Path(paths["corr"]), size["j"])
    np.savez(paths["arrays"], **arrays)
    return paths


def measure_setup(threads: int, runs: int) -> list[dict]:
    """Wall seconds for a fresh interpreter to start and import mrkit.

    The reference runs before the first import and after every one, so each
    import is bracketed by two measurements of the host's speed.
    """
    with ReferenceProcess() as reference:
        return _setup_samples(reference, threads, runs)


def _setup_samples(reference: ReferenceProcess, threads: int,
                   runs: int) -> list[dict]:
    samples = []
    expected = str(SRC / "mrkit")
    reps = None
    for _ in range(runs):
        if reps is not None:
            samples.append({"kind": "ref", **reference.measure(reps)})
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", "import mrkit; print(mrkit.__file__)"],
            env=_env(threads), cwd=ROOT, capture_output=True, text=True,
            timeout=60)
        wall = time.perf_counter() - t0
        if done.returncode != 0 or not done.stdout.strip().startswith(expected):
            raise RuntimeError("import mrkit from the checkout failed:\n"
                               + done.stderr + done.stdout)
        if reps is None:  # the first import is a warm-up of the file cache
            once = reference.measure(1)["wall"]
            reps = max(1, round(REF_SHARE * wall / once))
            continue
        samples.append({"kind": "plain", "wall": wall})
    samples.append({"kind": "ref", **reference.measure(reps)})
    return samples


def corrected(samples: list[dict], key: str) -> float:
    """The timed samples' mean ``key`` at the reference host speed.

    That is the mean over the timed samples divided by the mean over the
    reference measurements of the same run, times ``NOMINAL_S``: the run's
    time in units of the reference, expressed in seconds of a host on which
    the reference takes ``NOMINAL_S``.
    """
    timed = [s[key] for s in samples if s["kind"] == "plain"]
    refs = [s[key] for s in samples if s["kind"] == "ref"]
    return NOMINAL_S * statistics.fmean(timed) / statistics.fmean(refs)


def provenance(name: str, seed: int, threads: int, versions: dict) -> dict:
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mrkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "MRKIT_THREADS": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **versions,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size_name: str) -> dict:
    """One run of one workload; returns the printed lines and the result."""
    started = time.perf_counter()
    size = WORKLOADS[name][size_name]
    threads = _threads()
    paths = generate(name, size, seed)
    setup = measure_setup(threads, SETUP_RUNS if size_name == "full" else 2)

    spec_path = WORK / f"{name}.spec.json"
    result_path = WORK / f"{name}.result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "workload": name, "size": size, "seed": seed, "seconds": seconds,
        "trace": trace, "paths": paths,
        "spans_path": str(WORK / f"spans-{name}-seed{seed}.json"),
    }))
    budget = max(10.0, RUN_LIMIT_S - (time.perf_counter() - started))
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path),
         str(result_path)],
        env=_env(threads), cwd=ROOT, capture_output=True, text=True,
        timeout=budget)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with "
                           f"{done.returncode}:\n{done.stderr[-4000:]}")
    result = json.loads(result_path.read_text())

    samples = result["samples"]
    plain = [s for s in samples if s["kind"] == "plain"]
    refs = [s for s in samples if s["kind"] == "ref"]
    setup_refs = [s for s in setup if s["kind"] == "ref"]
    items = items_per_op(name, size)
    walls = [s["wall"] for s in plain]
    attempted = sum(s["kind"] != "ref" for s in samples)
    failed = len(result["failed_ops"])
    end_to_end = {
        "setup_s": corrected(setup, "wall"),
        "items_per_s": items / corrected(samples, "wall"),
        "cpu_s_per_item": corrected(samples, "cpu") / items,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    # The same figures without the host-speed correction, for reading only.
    uncorrected = {
        "setup_s": statistics.fmean(s["wall"] for s in setup
                                    if s["kind"] == "plain"),
        "items_per_s": items / statistics.fmean(walls),
        "cpu_s_per_item": statistics.fmean(s["cpu"] for s in plain) / items,
    }
    health = {
        "error_rate": failed / attempted,
        "mc_failure_rate": (result["mc_failures"] / result["mc_replicates"]
                            if result["mc_replicates"] else 0.0),
    }

    lines = [f"== {name}  seed={seed}  seconds={seconds:g}  "
             f"trace={int(trace)}  size={size_name} {size}",
             "provenance " + json.dumps(
                 provenance(name, seed, threads, result["versions"]))]
    warmup = [s["wall"] for s in result["samples"] if s["kind"] == "warmup"]
    lines.append(f"warm-up op (untimed) {warmup[0]:.4f} s; "
                 f"operations: {len(walls)} untraced, op wall s "
                 f"min/median/max = {min(walls):.4f}/"
                 f"{statistics.median(walls):.4f}/{max(walls):.4f}; "
                 f"timed imports {sum(s['kind'] == 'plain' for s in setup)}")
    ref_walls = [s["wall"] for s in refs]
    lines.append(f"reference s per rep (nominal {NOMINAL_S:g}): loop "
                 f"{len(refs)} x {refs[0]['reps']} reps, min/median/max = "
                 f"{min(ref_walls):.4f}/{statistics.median(ref_walls):.4f}/"
                 f"{max(ref_walls):.4f}; setup {len(setup_refs)} x "
                 f"{setup_refs[0]['reps']} reps, median "
                 f"{statistics.median(s['wall'] for s in setup_refs):.4f}")
    lines.append("uncorrected: " + ", ".join(
        f"{metric} {value:.6g} {END_TO_END[metric]}"
        for metric, value in uncorrected.items()))
    for metric, value in {**end_to_end, **health}.items():
        unit = END_TO_END.get(metric) or HEALTH[metric]
        lines.append(f"  {metric:<18} {value:>14.6g} {unit}")
    for failure in result["failed_ops"][:5]:
        lines.append(f"  FAILED {failure['kind']} op: "
                     + "; ".join(failure["problems"])[:500])

    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in end_to_end.items()}
    if trace:
        lines += _layer_lines(result)
        metrics = result["per_layer"]
    return {"lines": lines, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_lines(result: dict) -> list[str]:
    lines = [f"spans written to {result['spans_path']}",
             f"  {'layer':<12} {'self s':>10} {'calls':>8} {'share':>8}"]
    for row in result["layer_table"]:
        lines.append(f"  {row['layer']:<12} {row['self_s']:>10.4f} "
                     f"{row['calls']:>8g} {row['share']:>8.1%}")
    per_layer = result["per_layer"]
    lines.append(f"tracing overhead "
                 f"{per_layer['trace.overhead_s']['value']:+.4f} s per op; "
                 f"time outside every program span "
                 f"{per_layer['trace.uncovered_s']['value']:.4f} s per op")
    for metric, entry in per_layer.items():
        lines.append(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (taken modulo 2**32)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop runs operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the harness's own test")
    args = parser.parse_args(argv)

    if not (SRC / "mrkit" / "__init__.py").is_file():
        print(f"error: no mrkit sources at {SRC / 'mrkit'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % 2 ** 32
    runs = {name: run_workload(name, seed, args.seconds, bool(args.trace),
                               args.size)
            for name in names}
    for run in runs.values():
        print("\n".join(run["lines"]))
    if len(runs) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, run in runs.items()
                   for metric, value in run["metrics"].items()}
    attempted = sum(run["attempted"] for run in runs.values())
    failed = sum(run["failed"] for run in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
