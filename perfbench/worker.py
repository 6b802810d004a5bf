"""One benchmark run of one workload, inside a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and passes two paths: a JSON spec (workload, size, seconds, trace,
input files) and the file to write the result to. The script imports mrkit,
runs one untimed warm-up operation, then runs the workload's operations one
at a time (a closed loop) until ``seconds`` have passed and at least
``MIN_OPS`` have run, records peak memory, then checks every operation's
output. Each round of the loop starts with a measurement of the host's speed
by the reference in ``hostspeed.py``, and one more follows the last round.

With ``trace`` set, each round runs one untraced operation and one traced
operation (plus, for ``simulate_2k``, a traced single-thread operation),
and the result also carries the per-layer metrics computed from the spans.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import mrkit
import mrkit.cli
import mrkit.data
import mrkit.estimators
import mrkit.simulation
import oracle
from hostspeed import ReferenceProcess, current_cpu
from spans import Span, Tracer, self_times
from workloads import (GRID_REPORTED_ROWS, MIN_OPS, PER_LAYER, REF_MIN_S,
                       REF_PAUSE_S, REF_SHARE, WORKLOADS)

LAYERS = ("cli", "data", "orientation", "estimators", "regression",
          "simulation")


# --- workload operations -----------------------------------------------------

class Workload:
    """One workload: its operation, its items, and its output checks.

    ``run`` is the timed operation and returns what ``check`` needs. The
    checks run after timing: ``prepare`` computes what every operation is
    compared with and returns problems that fail every operation.
    """

    def __init__(self, spec: dict) -> None:
        self.size = spec["size"]
        self.seed = spec["seed"]
        self.paths = spec["paths"]
        # Set by run.py for every workload; only simulate_2k depends on it.
        self.threads = int(os.environ["MRKIT_THREADS"])
        self.failures = 0  # Monte Carlo replicate failures, summed over ops
        self.replicates = 0  # replicates those failures are counted over

    def run(self, threads: int | None = None):
        raise NotImplementedError

    def prepare(self) -> list[str]:
        return []

    def check(self, output) -> list[str]:
        raise NotImplementedError


class Analyze(Workload):
    """``mrkit analyze`` on the generated CSV(s), against the numpy oracle."""

    def run(self, threads=None):
        argv = ["analyze", "--data", self.paths["summary"], "--k",
                str(self.size["k"]), "--methods", "UI,UE,MI,ME", "--ref", "x1"]
        if "corr" in self.paths:
            argv += ["--corr", self.paths["corr"]]
        return _cli(argv)

    def prepare(self):
        arrays = np.load(self.paths["arrays"])
        corr = arrays["correlation"] if "correlation" in arrays else None
        self.expected = oracle.analyze_oracle(
            arrays["beta_x"], arrays["beta_y"], arrays["se_y"], corr)
        return []

    def check(self, output):
        status, text = output
        return oracle.check_analyze(status, text, self.expected)


class Simulate(Workload):
    """``run_scenario`` through the public API, at ``threads`` workers."""

    def _config(self, replicates: int):
        return mrkit.scenario_config(4, theta1=0.3, mu=0.1, correlated=True,
                                     mediation=True, replicates=replicates,
                                     seed=self.seed)

    def run(self, threads=None):
        os.environ["MRKIT_THREADS"] = str(threads or self.threads)
        return mrkit.simulation.run_scenario(
            self._config(self.size["replicates"]))

    def prepare(self):
        """run_scenario at 8 replicates against 8 single-dataset fits."""
        self.first_summary = None
        config = self._config(8)
        batched = mrkit.run_scenario(config)
        mi, me = [], []
        for r in range(config.replicates):
            dataset, _ = mrkit.generate_dataset(config, r)
            mi.append(mrkit.ivw_multivariable(dataset)
                      .estimate_for("x1").theta_hat)
            me.append(mrkit.egger_multivariable(dataset, "x1")
                      .estimate_for("x1").theta_hat)
        problems = []
        for label, got, want in (("MI", batched.mi.mean_theta1, np.mean(mi)),
                                 ("ME", batched.me.mean_theta1, np.mean(me))):
            if not oracle.close(got, float(want), rtol=1e-9):
                problems.append(f"batched {label} mean {got!r} != "
                                f"single-path mean {float(want)!r}")
        return problems

    def check(self, summary):
        reps = self.size["replicates"]
        self.failures += summary.failures
        self.replicates += reps
        problems = []
        for est in (summary.mi, summary.ue, summary.me):
            if not reps - summary.failures <= est.replicates_used <= reps:
                problems.append(f"{est.estimator} replicates_used "
                                f"{est.replicates_used} with {summary.failures}"
                                f" failures of {reps}")
            values = [est.mean_theta1, est.mean_se, est.power_causal]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{est.estimator} non-finite summary")
        # Replicate streams are fixed per (seed, replicate): every operation,
        # at any thread count, must give the identical summary.
        if self.first_summary is None:
            self.first_summary = summary
        elif summary != self.first_summary:
            problems.append("summary differs from the first operation's")
        return problems


class Grid(Workload):
    """``mrkit grid --mediation``; one printed row is recomputed."""

    def run(self, threads=None):
        prefix = self.paths["grid_prefix"]
        # A missing output must fail the operation, not reuse an older file.
        for suffix in (".csv", ".txt"):
            Path(prefix + suffix).unlink(missing_ok=True)
        status, text = _cli(["grid", "--mediation", "--reps",
                             str(self.size["reps"]), "--seed", str(self.seed),
                             "--out", prefix])
        return status, text, Path(prefix + ".csv").read_text()

    def prepare(self):
        self.reference = None
        self.rows_reported: list[int] = []
        return []

    def check(self, output):
        status, _, csv_text = output
        if status != 0:
            return [f"exit status {status}"]
        rows = oracle.parse_grid_csv(csv_text)
        self.rows_reported.append(len(rows))
        reps = self.size["reps"]
        self.failures += sum(int(row["failures"]) for row in rows)
        self.replicates += reps * len(rows)
        problems = []
        if len(rows) != GRID_REPORTED_ROWS:
            problems.append(f"{len(rows)} rows, expected {GRID_REPORTED_ROWS}")
        for row in rows:
            if row["grid"] != "mediation":
                problems.append(f"row {row['row']} is not a mediation row")
            if int(row["replicates_used"]) + int(row["failures"]) != reps:
                problems.append(f"row {row['row']}: replicates_used + "
                                f"failures != {reps}")
        if rows:
            problems += self._recompute_row(rows[self.seed % len(rows)])
        return problems

    def _recompute_row(self, row: dict) -> list[str]:
        """One printed row against run_scenario on that row's printed seed."""
        if self.reference is None:
            config = mrkit.scenario_config(
                int(row["scenario"]), theta1=float(row["theta1"]),
                mu=float(row["mu"]), correlated=row["correlated"] == "true",
                mediation=True, replicates=self.size["reps"],
                seed=int(row["seed"]))
            self.reference = (row["row"],
                              oracle.summary_cells(mrkit.run_scenario(config)))
        index, cells = self.reference
        if row["row"] != index:
            return [f"row {index} missing from output"]
        return [f"row {index} {key}: printed {row[key]}, recomputed {value!r}"
                for key, value in cells.items()
                if not oracle.close(float(row[key]), value)]


KINDS = {"analyze": Analyze, "simulate": Simulate, "grid": Grid}


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = mrkit.cli.main(argv)
    return status, out.getvalue() + err.getvalue()


# --- timing loop -------------------------------------------------------------

def _timed(workload: Workload, kind: str, tracer: Tracer | None,
           threads: int | None = None) -> dict:
    sample = {"kind": kind, "output": None, "error": None}
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            sample["output"] = workload.run(threads)
        else:
            with tracer.installed(), tracer.operation() as root:
                sample["op"] = root.op
                sample["output"] = workload.run(threads)
    except Exception:  # an operation that raises counts as failed
        sample["error"] = traceback.format_exc(limit=3)
    sample["wall"] = time.perf_counter() - t0
    sample["cpu"] = time.process_time() - cpu0
    return sample


def _ref(reference: ReferenceProcess, reps: int) -> dict:
    # BLAS pools spin-wait for a while after a call; let them go idle first,
    # so that they do not slow the reference. Spin meanwhile: a CPU that
    # sleeps may come back faster or slower than the operation saw it.
    end = time.perf_counter() + REF_PAUSE_S
    while time.perf_counter() < end:
        pass
    return {"kind": "ref", **reference.measure(reps, current_cpu())}


def run_loop(workload: Workload, seconds: float, tracer: Tracer | None,
             reference: ReferenceProcess) -> list[dict]:
    """The closed loop; each round is bracketed by runs of the reference."""
    # The first operation in a fresh interpreter also pays lazy imports and
    # heap growth; it is checked but not timed.
    samples = [_timed(workload, "warmup", None)]
    once = reference.measure(1)["wall"]
    reps = max(math.ceil(REF_MIN_S / once),
               round(REF_SHARE * samples[0]["wall"] / once))
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or sum(s["kind"] == "plain" for s in samples) < MIN_OPS):
        samples.append(_ref(reference, reps))
        samples.append(_timed(workload, "plain", None))
        if tracer is not None:
            samples.append(_timed(workload, "traced", tracer))
            if isinstance(workload, Simulate):
                samples.append(_timed(workload, "t1", tracer, threads=1))
    samples.append(_ref(reference, reps))
    return samples


# --- per-layer metrics from spans --------------------------------------------

def _op_metrics(spans: list[Span], own: dict[int, float]) -> dict:
    """Per-layer metrics of one traced operation (0 where a layer is idle)."""
    by_id = {s.span_id: s for s in spans}

    def own_sum(*names):
        return sum(own[s.span_id] for s in spans if s.name in names)

    def parent_name(s):
        return by_id[s.parent].name if s.parent in by_id else None

    m = {name: 0.0 for name in PER_LAYER}
    m["data.load_dataset_s"] = own_sum("data.load_dataset")
    m["data.select_risk_factor_s"] = own_sum("data.select_risk_factor")
    m["data.array_extract_s"] = own_sum("data.array_extract")
    m["data.load_correlation_s"] = own_sum("data.load_correlation")
    m["orientation.orient_s"] = own_sum("orientation.orient")
    m["orientation.flipped"] = sum(s.attrs.get("flipped", 0) for s in spans
                                   if s.name == "orientation.orient")
    estimators = [s for s in spans if s.name.startswith("estimators.")]
    for tag in ("UI", "UE", "MI", "ME"):
        m[f"estimators.{tag}_s"] = sum(s.duration for s in estimators
                                       if s.attrs.get("method") == tag)
    est_total = sum(s.duration for s in estimators)
    fits_in_est = sum(s.duration for s in spans
                      if s.name.startswith("regression.")
                      and (parent_name(s) or "").startswith("estimators."))
    if est_total > 0:
        m["estimators.overhead_ratio"] = (est_total - fits_in_est) / est_total
    m["regression.fit_wls_s"] = own_sum("regression.fit_wls")
    gls = [s for s in spans if s.name == "regression.fit_gls"]
    m["regression.fit_gls_s"] = own_sum("regression.fit_gls")
    m["regression.fit_gls_calls"] = len(gls)
    # Computed, not counted: J^3/3 for the Cholesky factor plus J^2 per
    # right-hand side for the triangular solves of the p design columns and y.
    m["regression.fit_gls_gflop_computed"] = sum(
        (s.attrs["j"] ** 3 / 3 + s.attrs["j"] ** 2 * (s.attrs["p"] + 1)) / 1e9
        for s in gls)
    if m["regression.fit_gls_s"] > 0:
        m["regression.fit_gls_gflops"] = (
            m["regression.fit_gls_gflop_computed"] / m["regression.fit_gls_s"])
    # In a grid operation every run_scenario call is a row, whichever thread
    # ran it and whatever span it hangs under.
    rows = [s for s in spans if s.name == "simulation.run_scenario"]
    if not any(s.name == "simulation.run_scenario_grid" for s in spans):
        rows = []
    if rows:
        m["simulation.grid_row_s"] = statistics.median(s.duration for s in rows)
        m["simulation.grid_rows_computed"] = len(rows)
    m["cli.run_analyze_s"] = own_sum("cli.run_analyze")
    m["cli.render_s"] = own_sum("cli.render")
    m["cli.self_s"] = own_sum("cli.main")
    m["trace.uncovered_s"] = own_sum("bench.op")
    return m


def _top_level_scenario(spans: list[Span]) -> Span | None:
    roots = {s.span_id for s in spans if s.name == "bench.op"}
    for s in spans:
        if s.name == "simulation.run_scenario" and s.parent in roots:
            return s
    return None


def layer_report(workload: Workload, samples: list[dict],
                 spans: list[Span]) -> tuple[dict, list[dict]]:
    """Per-layer metrics (medians over traced operations) and the table."""
    own = self_times(spans)
    by_op: dict[int, list[Span]] = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
    traced = [s for s in samples
              if s["kind"] == "traced" and s["error"] is None]
    per_op = [_op_metrics(by_op[s["op"]], own) for s in traced]
    metrics = {name: statistics.median(op[name] for op in per_op)
               for name in PER_LAYER}

    # Each traced operation is paired with the untraced one just before it,
    # so slow drift of the machine's speed cancels out of the difference.
    overheads, plain_wall = [], None
    for s in samples:
        if s["kind"] == "plain":
            plain_wall = s["wall"]
        elif s["kind"] == "traced":
            overheads.append(s["wall"] - plain_wall)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    if isinstance(workload, Simulate):
        tn = [_top_level_scenario(by_op[s["op"]]) for s in traced]
        t1 = [_top_level_scenario(by_op[s["op"]]) for s in samples
              if s["kind"] == "t1" and s["error"] is None]
        tn_s = statistics.median(s.duration for s in tn)
        t1_s = statistics.median(s.duration for s in t1)
        metrics["simulation.run_scenario_s"] = tn_s
        metrics["simulation.run_scenario_t1_s"] = t1_s
        metrics["simulation.parallel_efficiency"] = t1_s / (
            workload.threads * tn_s)
        metrics["simulation.cpu_utilization"] = statistics.median(
            s.cpu / (s.duration * workload.threads) for s in tn)
    if isinstance(workload, Grid):
        reported = statistics.median(workload.rows_reported)
        metrics["simulation.grid_rows_reported"] = reported
        if metrics["simulation.grid_rows_computed"]:
            metrics["simulation.grid_useful_ratio"] = (
                reported / metrics["simulation.grid_rows_computed"])
    if workload.replicates:
        metrics["simulation.mc_failure_rate"] = (
            workload.failures / workload.replicates)

    table = []
    for layer in LAYERS + ("(uncovered)",):
        prefix = "bench.op" if layer == "(uncovered)" else layer + "."
        selfs, calls, shares = [], [], []
        for s in traced:
            op_spans = [x for x in by_op[s["op"]] if x.name.startswith(prefix)]
            own_s = sum(own[x.span_id] for x in op_spans)
            selfs.append(own_s)
            calls.append(len(op_spans))
            shares.append(own_s / s["wall"])
        table.append({"layer": layer,
                      "self_s": statistics.median(selfs),
                      "calls": statistics.median(calls),
                      "share": statistics.median(shares)})
    return metrics, table


def install_targets(tracer: Tracer) -> None:
    """Trace each layer's public functions at the names their callers use."""
    cli, est = mrkit.cli, mrkit.estimators

    def orient_attrs(args, kwargs, result):
        return {"flipped": result[1].n_flipped}

    def method_attrs(args, kwargs, result):
        return {"method": result.estimates[0].method.estimator}

    def gls_attrs(args, kwargs, result):
        design = np.asarray(args[0])
        return {"j": design.shape[0],
                "p": 1 if design.ndim == 1 else design.shape[1]}

    tracer.target(cli, "main", "cli.main")
    tracer.target(cli, "run_analyze", "cli.run_analyze")
    for fmt in list(cli._RENDERERS):
        tracer.target(cli._RENDERERS, fmt, "cli.render")
    tracer.target(cli, "_write_grid_outputs", "cli.render")
    tracer.target(cli, "_grid_text_table", "cli.render")
    tracer.target(cli, "load_dataset", "data.load_dataset")
    tracer.target(cli, "load_correlation", "data.load_correlation")
    tracer.target(cli, "select_risk_factor", "data.select_risk_factor")
    for method in ("beta_x_matrix", "beta_y_vector", "se_y_vector"):
        tracer.target(mrkit.data.SummaryDataset, method, "data.array_extract")
    tracer.target(cli, "orient", "orientation.orient", orient_attrs)
    for name in ("ivw_univariable", "egger_univariable", "ivw_multivariable",
                 "egger_multivariable", "ivw_correlated", "egger_correlated"):
        tracer.target(cli, name, f"estimators.{name}", method_attrs)
    tracer.target(est, "fit_wls", "regression.fit_wls")
    tracer.target(est, "fit_gls", "regression.fit_gls", gls_attrs)
    tracer.target(cli, "run_scenario_grid", "simulation.run_scenario_grid")
    tracer.target(mrkit.simulation, "run_scenario", "simulation.run_scenario")


# --- provenance --------------------------------------------------------------

def library_versions() -> dict:
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 2 has no mode argument
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mrkit": mrkit.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload = KINDS[WORKLOADS[spec["workload"]]["kind"]](spec)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_targets(tracer)

    with ReferenceProcess() as reference:
        samples = run_loop(workload, spec["seconds"], tracer, reference)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    run_problems = workload.prepare()
    failed_ops = []
    for sample in samples:
        if sample["kind"] == "ref":
            continue
        problems = list(run_problems)
        if sample["error"] is not None:
            problems.append(sample["error"])
        else:
            problems += workload.check(sample["output"])
        if problems:
            failed_ops.append({"kind": sample["kind"], "problems": problems})

    result = {
        "samples": [{k: s[k] for k in ("kind", "wall", "cpu", "reps")
                     if k in s} for s in samples],
        "failed_ops": failed_ops,
        "mc_failures": workload.failures,
        "mc_replicates": workload.replicates,
        "peak_rss_kb": peak_rss_kb,
        "versions": library_versions(),
    }
    if tracer is not None:
        metrics, table = layer_report(workload, samples, tracer.spans)
        result["per_layer"] = {name: {"value": value, "unit": PER_LAYER[name]}
                               for name, value in metrics.items()}
        result["layer_table"] = table
        spans_path = Path(spec["spans_path"])
        spans_path.write_text(json.dumps([
            {"id": s.span_id, "parent": s.parent, "name": s.name, "op": s.op,
             "start": s.start, "end": s.end, "cpu_s": s.cpu,
             "attrs": s.attrs}
            for s in tracer.spans]))
        result["spans_path"] = str(spans_path)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
