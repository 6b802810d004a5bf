"""A fixed reference computation that measures the host's current speed.

The benchmark runs on a shared host whose speed drifts: the same mrkit
operation, in one process, takes up to 25-30% longer in one 15-second window
than in another, in CPU time as well as in wall time, and a fixed
computation in the same process drifts with it. The worker therefore runs
this reference between operations, and ``run.py`` divides the operations'
time by the reference's time measured in the same run. Drift of the host
speed cancels out of that ratio; a change in mrkit does not, because the
reference never calls mrkit.

The reference runs in a process of its own (``ReferenceProcess``), which
waits on a pipe while the operations run. What the program does to its own
process (the heap it grows, the threads it starts) therefore does not change
the reference's speed. Run as a script, this file is that process.

The slow and fast states belong to a virtual CPU, not to the whole machine.
So the caller names the CPU its own thread is on, and the reference process
moves there before it measures. The caller spins rather than sleeps while it
waits for the reference, so that its CPU does not go idle in between.

The reference mixes the kinds of work mrkit does: parsing CSV-like text into
per-row Python objects, sorting them, and vectorised numpy arithmetic over
the parsed columns. It calls no BLAS routine, so it starts no BLAS threads and
runs on one thread only. Its inputs are fixed, so every run, on every commit,
does the same work.
"""
from __future__ import annotations

import ctypes
import gc
import json
import os
import subprocess
import sys
import time

import numpy as np

# Reference wall seconds per repetition on the baseline machine (a 2-vCPU
# KVM guest, see README.md). Corrected times are expressed at this speed.
NOMINAL_S = 0.04

_ROWS = 12_000


class Reference:
    """The reference computation with its inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_170_801)
        self.lines = [f"v{i},{a:.6g},{b:.6g},{c:.6g}" for i, (a, b, c)
                      in enumerate(rng.normal(size=(_ROWS, 3)).tolist())]

    def once(self) -> float:
        records = []
        for line in self.lines:
            name, a, b, c = line.split(",")
            records.append({"name": name, "a": float(a), "b": float(b),
                            "se": abs(float(c)) + 0.01})
        records.sort(key=lambda r: r["a"])
        a = np.array([r["a"] for r in records])
        b = np.array([r["b"] for r in records])
        w = 1.0 / np.array([r["se"] for r in records]) ** 2
        slope = np.sum(w * a * b) / np.sum(w * a * a)
        resid = b - slope * a
        return float(slope + np.sum(w * resid * resid) + np.cumsum(resid)[-1])

    def measure(self, reps: int) -> dict:
        """Wall and CPU seconds per repetition, over ``reps`` repetitions.

        The CPU time is this thread's own, so threads that other code left
        spinning (BLAS pools) do not count in it. The cyclic garbage
        collector is off meanwhile (the reference makes no cycles), so the
        time does not depend on how many objects the process holds.
        """
        gc.disable()
        try:
            cpu0, t0 = time.thread_time(), time.perf_counter()
            for _ in range(reps):
                self.once()
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - cpu0
        finally:
            gc.enable()
        return {"wall": wall / reps, "cpu": cpu / reps, "reps": reps}


class ReferenceProcess:
    """The reference in a child process; use as a context manager."""

    def __enter__(self) -> "ReferenceProcess":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def measure(self, reps: int, cpu: int = -1) -> dict:
        """``Reference.measure(reps)``, run on ``cpu`` unless it is -1."""
        self.proc.stdin.write(f"{reps} {cpu}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        return json.loads(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def current_cpu() -> int:
    """The CPU the calling thread runs on, or -1 where that is unknown."""
    try:
        return ctypes.CDLL(None).sched_getcpu()
    except (OSError, AttributeError):
        return -1


def main() -> None:
    reference = Reference()
    reference.once()
    for line in sys.stdin:
        reps, cpu = (int(word) for word in line.split())
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})
        print(json.dumps(reference.measure(reps)), flush=True)


if __name__ == "__main__":
    main()
