"""Output checks: parse what mrkit printed and compare it with numpy.

The ``analyze`` oracle is independent of mrkit: it orients the generated
arrays itself and solves each regression with ``numpy.linalg`` (weighted
``lstsq`` for independent variants, an explicit Omega solve for correlated
ones). Printed values carry 6 significant digits, so comparisons use a
relative tolerance of a few units in the sixth digit.
"""
from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# Printed numbers have 6 significant digits: rounding alone moves them by at
# most 5e-6 relative.
PRINT_RTOL = 2e-5

# Design columns of each method: "1" is the intercept, integers are risk
# factors (0-based). UI and UE use the reference risk factor x1 alone.
_DESIGNS = {
    "UI": ["x1"],
    "UE": ["1", "x1"],
    "MI": ["x1", "x2", "x3"],
    "ME": ["1", "x1", "x2", "x3"],
}

_METHOD = re.compile(r"^\[(UI|UE|MI|ME)\] ")
_ESTIMATE = re.compile(r"^  (x\d+)\s+(\S+)\s+(\S+)\s+\[")
_INTERCEPT = re.compile(
    r"^  intercept \(average direct effect\): (\S+) \(se (\S+)\)")
_FLIPPED = re.compile(r"^Orientation: reference x1; (\d+) variant\(s\) flipped")
_DATASET = re.compile(r"^Dataset: J=(\d+) variants, K=(\d+)")


def close(printed: float, expected: float, rtol: float = PRINT_RTOL) -> bool:
    return (math.isfinite(printed) and math.isfinite(expected)
            and abs(printed - expected) <= rtol * abs(expected) + 1e-300)


def parse_analyze_text(text: str) -> dict:
    """Pull J, K, the flip count and every (method, term) estimate/se."""
    parsed: dict = {"estimates": {}}
    method = None
    for line in text.splitlines():
        if m := _DATASET.match(line):
            parsed["j"], parsed["k"] = int(m.group(1)), int(m.group(2))
        elif m := _FLIPPED.match(line):
            parsed["flipped"] = int(m.group(1))
        elif m := _METHOD.match(line):
            method = m.group(1)
        elif method and (m := _ESTIMATE.match(line)):
            parsed["estimates"][(method, m.group(1))] = (
                float(m.group(2)), float(m.group(3)))
        elif method and (m := _INTERCEPT.match(line)):
            parsed["estimates"][(method, "1")] = (
                float(m.group(1)), float(m.group(2)))
    return parsed


def analyze_oracle(beta_x: np.ndarray, beta_y: np.ndarray, se_y: np.ndarray,
                   correlation: np.ndarray | None) -> dict:
    """Expected random-effects estimates and ses for UI/UE/MI/ME.

    Variants are first oriented so x1 >= 0 (negating every association of a
    flipped variant and sign-conjugating the correlation), as mrkit does.
    """
    signs = np.where(beta_x[:, 0] < 0, -1.0, 1.0)
    bx = beta_x * signs[:, None]
    by = beta_y * signs
    j = bx.shape[0]
    columns = {"1": np.ones(j)}
    columns.update({f"x{i + 1}": bx[:, i] for i in range(bx.shape[1])})

    if correlation is None:
        weights = se_y ** -2.0
        # For WLS, Omega^-1 is diag(weights): apply it without a solve.
        apply_inv = None
    else:
        omega = np.outer(se_y, se_y) * (signs[:, None] * correlation
                                         * signs[None, :])
        stacked = np.column_stack([columns[c] for c in columns] + [by])
        solved = np.linalg.solve(omega, stacked)
        apply_inv = dict(zip(list(columns) + ["y"], solved.T))

    expected: dict = {"flipped": int(np.sum(signs < 0)), "estimates": {}}
    for method, design in _DESIGNS.items():
        x = np.column_stack([columns[c] for c in design])
        if apply_inv is None:
            sw = np.sqrt(weights)
            beta = np.linalg.lstsq(x * sw[:, None], by * sw, rcond=None)[0]
            resid = by - x @ beta
            rss = float(np.sum(weights * resid ** 2))
            gram = x.T @ (x * weights[:, None])
        else:
            inv_x = np.column_stack([apply_inv[c] for c in design])
            gram = x.T @ inv_x
            beta = np.linalg.solve(gram, x.T @ apply_inv["y"])
            resid = by - x @ beta
            rss = float(resid @ (apply_inv["y"] - inv_x @ beta))
        sigma = math.sqrt(rss / (j - x.shape[1]))
        se = np.sqrt(np.diag(np.linalg.inv(gram))) * max(sigma, 1.0)
        for term, b, s in zip(design, beta, se):
            expected["estimates"][(method, term)] = (float(b), float(s))
    return expected


def check_analyze(status: int, text: str, expected: dict) -> list[str]:
    """Problems with one analyze operation's output (empty when correct)."""
    if status != 0:
        return [f"exit status {status}"]
    parsed = parse_analyze_text(text)
    problems = []
    if parsed.get("flipped") != expected["flipped"]:
        problems.append(f"flipped {parsed.get('flipped')} != "
                        f"{expected['flipped']}")
    if set(parsed["estimates"]) != set(expected["estimates"]):
        problems.append("reported terms differ from UI/UE/MI/ME designs")
    for key, (b, s) in expected["estimates"].items():
        got = parsed["estimates"].get(key)
        if got is None:
            continue
        if not (close(got[0], b) and close(got[1], s)):
            problems.append(f"{key}: printed {got}, oracle {(b, s)}")
    return problems


def parse_grid_csv(text: str) -> list[dict]:
    """Rows of a ``mrkit grid`` CSV, with the '#' audit lines skipped."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def summary_cells(summary) -> dict:
    """The grid CSV's numeric columns, computed from a SimulationSummary."""
    cells = {}
    for prefix, est in (("mi", summary.mi), ("ue", summary.ue),
                        ("me", summary.me)):
        cells[f"{prefix}_mean"] = est.mean_theta1
        cells[f"{prefix}_mean_se"] = est.mean_se
        cells[f"{prefix}_power_pct"] = 100.0 * est.power_causal
        if est.power_intercept is not None:
            cells[f"{prefix}_intercept_power_pct"] = 100.0 * est.power_intercept
    return cells
