"""Workload definitions shared by the runner and the worker.

Sizes come in two presets: ``full`` is the benchmark proper and ``smoke`` is
a tiny version of the same workloads for the harness's own smoke test.
Metric names and units are read from ``BENCHMARK.json``, their one source.
"""
from __future__ import annotations

import json
from pathlib import Path

DEFINITION = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = {
    "analyze_wide": {
        "kind": "analyze",
        "corr": False,
        "full": {"j": 2_500, "k": 3},
        "smoke": {"j": 200, "k": 3},
    },
    "analyze_ld": {
        "kind": "analyze",
        "corr": True,
        "full": {"j": 500, "k": 3},
        "smoke": {"j": 200, "k": 3},
    },
    "simulate_2k": {
        "kind": "simulate",
        "full": {"replicates": 2_048},
        "smoke": {"replicates": 256},
    },
    "grid_mediation": {
        "kind": "grid",
        "full": {"reps": 32},
        "smoke": {"reps": 16},
    },
}

# The grid's mediation block: rows reported by ``mrkit grid --mediation``.
GRID_REPORTED_ROWS = 32

# Fewest operations a run times, however short --seconds is.
MIN_OPS = 3

# Time the host-speed reference runs before each round, as a share of the
# warm-up operation's time.
REF_SHARE = 0.25
# Least reference time per round, and the pause before it.
REF_MIN_S = 0.1
REF_PAUSE_S = 0.15

# Metric name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DEFINITION["per_layer"]}

# Printed alongside the end-to-end metrics but not part of the result's
# metric set: on a healthy program they are exactly 0, and a metric compared
# by its median must never read 0.
HEALTH = {
    "error_rate": "ratio",
    "mc_failure_rate": "ratio",
}


def items_per_op(name: str, size: dict) -> int:
    """Work units one operation completes: variants or replicates."""
    kind = WORKLOADS[name]["kind"]
    if kind == "analyze":
        return size["j"]
    if kind == "simulate":
        return size["replicates"]
    return GRID_REPORTED_ROWS * size["reps"]
