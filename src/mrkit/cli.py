"""Command-line interface: analyze a dataset, or run simulation studies.

Subcommands
-----------
analyze   Load a summary-data CSV, orient it to a reference risk factor,
          run the requested estimators, and print a report (text, csv, or
          jsonl — all three carry the same fields). Text and csv round the
          results to 6 significant digits; jsonl writes every number
          exactly (NaN as null, an infinite odds ratio as "inf") and the
          ids and risk factors as lists.
simulate  Run one Monte Carlo scenario (from a flat key=value config file
          and/or flags) and write its summary record.
grid      Run the 64-row scenario grid (or, with --mediation, only its 32
          mediation rows) and write one record per row.

simulate and grid write <out>.csv and <out>.txt: two views (csv rows and an
aligned table) of one list of records, headed by the same audit line, which
names every setting exactly (at %g where that reads back, in full where it
would not).

Exit status: 0 success, 1 success with warnings (analyze's report warnings;
failed Monte Carlo replicates, with "warning: N replicate(s) failed" on
stderr, "... across the grid" for grid), 2 errors (bad usage, bad data,
invalid settings, estimator failure). Simulation worker threads are
controlled by the MRKIT_THREADS environment variable.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import sys
import warnings as _warnings
from decimal import Decimal

from .data import (
    SummaryDataset,
    _printable,
    _read_text,
    load_correlation,
    load_dataset,
    select_risk_factor,
)
from .estimators import (
    _MODELS,
    _check_level,
    egger_correlated,
    egger_multivariable,
    egger_univariable,
    f_statistic,
    ivw_correlated,
    ivw_multivariable,
    ivw_univariable,
)
from .orientation import orient
from .regression import NonFiniteFitError, RankError, WeightScheme
from .simulation import (
    DEFAULT_SEED,
    DESK_REPLICATES,
    GridRow,
    ScenarioConfig,
    SimulationSummary,
    run_scenario_grid,
    run_scenario,
)

__all__ = ["run_analyze", "main"]

_CAUSAL_UNITS = "log odds ratio per SD of risk factor"
_INTERCEPT_UNITS = "log odds ratio per effect allele"


def run_analyze(args: argparse.Namespace) -> list[dict]:
    """Load, orient, estimate; the report records, in print order.

    Raises on invalid options or data. The records are dataset, orientation
    (with --ref), instrument_strength (with --n-participants and --r2), the
    method/estimate/intercept records of each method, then warnings.
    """
    methods = [m.strip().upper() for m in args.methods.split(",")
               if m.strip()]
    if not methods:
        raise ValueError("no methods requested; use --methods")
    for method in methods:
        if method not in _MODELS:
            raise ValueError(
                f"unknown method {method!r}; choose from {', '.join(_MODELS)}")
    _check_level(args.level)
    if (args.n_participants is None) != (args.r2 is None):
        raise ValueError(
            "instrument strength needs both --n-participants and --r2")

    dataset = load_dataset(args.data, args.k)
    if args.corr is not None:
        # An unknown --ref is reported after the file's own faults.
        dataset = dataset.with_correlation(
            load_correlation(args.corr, dataset))

    needs_reference = [
        m for m in methods
        if _MODELS[m].intercept or (_MODELS[m].univariable and args.k > 1)]
    if needs_reference and args.ref is None:
        raise ValueError(
            f"--ref is required for {', '.join(sorted(set(needs_reference)))}"
            f" (orientation / risk-factor selection)")

    records: list[dict] = [{
        "record": "dataset",
        "j": dataset.j,
        "k": dataset.k,
        "risk_factors": dataset.risk_factor_names,
        "correlated": dataset.correlation is not None,
    }]
    caught = []
    analysis = dataset
    if args.ref is not None:
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            analysis, orientation = orient(dataset, args.ref)
        records.append({
            "record": "orientation",
            "reference": orientation.reference,
            "flipped": len(orientation.flipped_ids),
            "zero_oriented": len(orientation.zero_ids),
            "ids": orientation.flipped_ids,
        })

    scheme = WeightScheme(args.scheme)
    method_records = [
        record for method in methods
        for record in _method_records(method, analysis, args.ref, scheme,
                                      args.level)]

    if args.n_participants is not None:
        records.append({
            "record": "instrument_strength",
            "n_participants": args.n_participants,
            "j": dataset.j,
            "r2": args.r2,
            "f_statistic": f_statistic(args.n_participants, dataset.j,
                                       args.r2),
            "units": "dimensionless",
        })
    return records + method_records + [
        {"record": "warning", "message": str(w.message)} for w in caught]


def _method_records(method: str, analysis: SummaryDataset,
                    reference: str | None, scheme: WeightScheme,
                    level: float) -> list[dict]:
    """Run one requested method; its method, estimate and intercept records."""
    note = None
    model = _MODELS[method]
    if analysis.k == 1 and not model.univariable:
        # A multivariable method on one risk factor is its univariable
        # counterpart.
        method = "UE" if model.intercept else "UI"
        note = (f"{model.label} on a single risk factor reduces to "
                f"{_MODELS[method].label}; reporting it as {method}")
    target = analysis
    if _MODELS[method].univariable and analysis.k > 1:
        target = select_risk_factor(analysis, reference)

    try:
        if analysis.correlation is not None:
            result = (egger_correlated(target, reference, scheme, level)
                      if model.intercept
                      else ivw_correlated(target, scheme, level))
        elif method == "UI":
            result = ivw_univariable(target, scheme, level)
        elif method == "MI":
            result = ivw_multivariable(target, scheme, level)
        elif method == "UE":
            result = egger_univariable(target, scheme, level)
        else:
            result = egger_multivariable(target, reference, scheme, level)
    except (RankError, NonFiniteFitError) as exc:
        # The fit failed on this data: name the method, keep the type.
        raise type(exc)(f"{method} ({_MODELS[method].label}): {exc}") from exc

    if result.experimental and note is None:
        note = ("correlated-variant MR-Egger is experimental; interpret "
                "with caution")
    tag = result.estimates[0].method
    df = result.estimates[0].df
    records = [{
        "record": "method",
        "method": tag.estimator,
        "label": _MODELS[tag.estimator].label,
        "scheme": tag.scheme.value,
        "variants": tag.variants,
        "level": level,
        "df": df,
        "residual_scale": result.residual_scale,
        "reference": result.orientation_reference,
        "experimental": result.experimental,
        "note": note,
    }]
    for estimate in result.estimates:
        records.append({
            "record": "estimate",
            "method": tag.estimator,
            "risk_factor": estimate.risk_factor,
            "estimate": estimate.theta_hat,
            "se": estimate.se,
            "ci_low": estimate.ci_low,
            "ci_high": estimate.ci_high,
            "p_value": estimate.p_value,
            "df": estimate.df,
            "odds_ratio": _safe_exp(estimate.theta_hat),
            "or_ci_low": _safe_exp(estimate.ci_low),
            "or_ci_high": _safe_exp(estimate.ci_high),
            "units": _CAUSAL_UNITS,
        })
    if result.intercept is not None:
        records.append({
            "record": "intercept",
            "method": tag.estimator,
            "estimate": result.intercept.theta_0,
            "se": result.intercept.se,
            "p_value": result.intercept.p_value,
            "df": df,
            "units": _INTERCEPT_UNITS,
        })
    return records


# --- report rendering -------------------------------------------------------
# All three formats are views of the same record list, so they agree
# field-for-field by construction. A record holds each value as computed;
# only the renderers format it.

_CSV_COLUMNS = [
    "record", "method", "label", "scheme", "variants", "level",
    "risk_factor", "estimate", "se", "ci_low", "ci_high", "p_value", "df",
    "odds_ratio", "or_ci_low", "or_ci_high", "residual_scale", "units",
    "reference", "flipped", "zero_oriented", "ids", "j", "k", "risk_factors",
    "correlated", "experimental", "n_participants", "r2", "f_statistic",
    "message", "note",
]
# Run settings among the record keys of analyze, simulate and grid, written
# exactly (see _setting), not at 6 significant digits.
_SETTING_KEYS = frozenset({"level", "r2", "theta1", "mu"})


def _safe_exp(value: float) -> float:
    """exp(value), or inf where the odds ratio overflows a float."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _num(value: float) -> str:
    """A number in the text report: NaN is n/a, anything else .6g."""
    return "n/a" if math.isnan(value) else f"{value:.6g}"


def render_text(records: list[dict]) -> str:
    lines = []
    for record in records:
        kind = record["record"]
        if kind == "dataset":
            names = ", ".join(record["risk_factors"])
            lines.append(
                f"Dataset: J={record['j']} variants, K={record['k']} risk "
                f"factor(s): {names}")
            lines.append(
                "Variant correlation: "
                + ("supplied (generalized weighting)"
                   if record["correlated"] else "none (independent)"))
        elif kind == "orientation":
            lines.append(
                f"Orientation: reference {record['reference']}; "
                f"{record['flipped']} variant(s) flipped; "
                f"{record['zero_oriented']} with zero reference association")
            if record["ids"]:
                ids = _printable(", ".join(record["ids"]))
                lines.append(f"  flipped: {ids}")
        elif kind == "instrument_strength":
            lines.append(
                f"Instrument strength: R2={_setting(record['r2'])}, "
                f"N={record['n_participants']}, k={record['j']} variants, "
                f"F={_num(record['f_statistic'])} (dimensionless)")
        elif kind == "method":
            lines.append("")
            title = (f"[{record['method']}] {record['label']} — "
                     f"{record['scheme']}-effects, {record['variants']} "
                     f"variants")
            lines.append(title)
            detail = (f"  df={record['df']}, residual scale="
                      f"{_num(record['residual_scale'])}")
            if record["reference"]:
                detail += f", oriented to {record['reference']}"
            if record["experimental"]:
                detail += "  [EXPERIMENTAL]"
            lines.append(detail)
            if record["note"]:
                lines.append(f"  note: {record['note']}")
            ci = f"{_percent(record['level'])}% CI"
            lines.append(
                f"  {'risk factor':<12} {'estimate':>10} {'se':>10} "
                f"{ci:>24} {'p':>10}  {f'OR ({ci})':>26}")
        elif kind == "estimate":
            ci = f"[{_num(record['ci_low'])}, {_num(record['ci_high'])}]"
            or_ci = (f"{_num(record['odds_ratio'])} "
                     f"({_num(record['or_ci_low'])}, "
                     f"{_num(record['or_ci_high'])})")
            lines.append(
                f"  {record['risk_factor']:<12} "
                f"{_num(record['estimate']):>10} {_num(record['se']):>10} "
                f"{ci:>24} {_num(record['p_value']):>10}  {or_ci:>26}")
            lines.append(f"    units: {record['units']}")
        elif kind == "intercept":
            lines.append(
                f"  intercept (average direct effect): "
                f"{_num(record['estimate'])} (se {_num(record['se'])}), "
                f"p={_num(record['p_value'])}  [{record['units']}]")
        else:  # warning
            lines.append(f"warning: {record['message']}")
    return "\n".join(lines) + "\n"


def _cell(key: str, value) -> str:
    """The csv cell or audit value of ``record[key]``.

    None and NaN are empty, a bool is true/false and a tuple is joined by
    ';'. A float is at .6g, but a run setting (``_SETTING_KEYS``) is written
    exactly by :func:`_setting`.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(value)
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return _setting(value) if key in _SETTING_KEYS else f"{value:.6g}"
    return str(value)


def render_csv(records: list[dict], columns: list[str] = _CSV_COLUMNS) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows({key: _cell(key, value) for key, value in record.items()}
                     for record in records)
    return buffer.getvalue()


def _json_value(value):
    """NaN as null and an infinite float as its cell ("inf"): JSON has neither.

    Every other number is written exactly, and a tuple as a list.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else f"{value:.6g}"
    return value


def render_jsonl(records: list[dict]) -> str:
    lines = [json.dumps({key: _json_value(value)
                         for key, value in record.items()},
                        sort_keys=True, allow_nan=False)
             for record in records]
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": render_text, "csv": render_csv, "jsonl": render_jsonl}


# --- simulate / grid --------------------------------------------------------
# Each grid row, and the one simulate summary, is a record of its settings and
# _summary_fields; the .csv and the .txt are two views of the same records.

def _setting(value: float) -> str:
    """A run setting at ``:g``, or in full where ``:g`` would round it."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _percent(level: float) -> str:
    """100 * level, written as exactly as :func:`_setting` writes the level.

    Decimal shifts the level's digits, since 100 * 0.9999999 is
    99.99999000000001 in floating point.
    """
    if float(f"{level:g}") == level:
        return f"{100 * level:g}"
    return f"{Decimal(repr(level)).scaleb(2):f}"


def _summary_fields(summary: SimulationSummary) -> dict:
    """Mean estimate, mean se and power %s per estimator, then the counts."""
    fields = {}
    for est in (summary.mi, summary.ue, summary.me):
        name = est.estimator.lower()
        fields[f"{name}_mean"] = est.mean_theta1
        fields[f"{name}_mean_se"] = est.mean_se
        fields[f"{name}_power_pct"] = 100.0 * est.power_causal
        if est.power_intercept is not None:
            fields[f"{name}_intercept_power_pct"] = 100.0 * est.power_intercept
    fields["replicates_used"] = summary.mi.replicates_used
    fields["failures"] = summary.failures
    return fields


def _scenario_text(scenario: int, mu: float) -> str:
    return {
        1: "no pleiotropy",
        2: "balanced pleiotropy",
        3: f"directional (mu={_setting(mu)}), InSIDE ok",
        4: f"directional (mu={_setting(mu)}), InSIDE violated",
    }[scenario]


def _grid_text_table(records: list[dict]) -> str:
    labels = [_scenario_text(r["scenario"], r["mu"]) for r in records]
    width = max(map(len, labels))
    header = (f"{'theta1':>6}  {'pleiotropy':<{width}}"
              f"{'MI mean (se)':>18} {'pw%':>6}"
              f"{'UE mean (se)':>18} {'pw%':>6} {'int%':>6}"
              f"{'ME mean (se)':>18} {'pw%':>6} {'int%':>6}")
    lines = []
    block = None
    for r, label in zip(records, labels):
        if (r["grid"], r["correlated"]) != block:
            block = (r["grid"], r["correlated"])
            corr = "correlated" if r["correlated"] else "independent"
            lines += ["", f"== {r['grid']} grid, {corr} risk factors ==",
                      header]
        line = f"{r['theta1']:>6.1f}  {label:<{width}}"
        for name in ("mi", "ue", "me"):
            mean = f"{r[name + '_mean']:+.3f} ({r[name + '_mean_se']:.3f})"
            line += f"{mean:>18} {r[name + '_power_pct']:>6.1f}"
            if name + "_intercept_power_pct" in r:
                line += f" {r[name + '_intercept_power_pct']:>6.1f}"
        lines.append(line)
    return "\n".join(lines).lstrip("\n") + "\n"


def _simulate_text(record: dict) -> str:
    lines = [f"{'estimator':<12} {'mean theta1':>12} {'mean se':>10} "
             f"{'power %':>8} {'intercept power %':>18}"]
    for name in ("mi", "ue", "me"):
        intercept = record.get(name + "_intercept_power_pct")
        intercept = "" if intercept is None else f"{intercept:.1f}"
        lines.append(
            f"{name.upper():<12} {record[name + '_mean']:>12.4f} "
            f"{record[name + '_mean_se']:>10.4f} "
            f"{record[name + '_power_pct']:>8.1f} {intercept:>18}")
    lines.append(f"replicates used: {record['replicates_used']}; "
                 f"failures: {record['failures']}")
    return "\n".join(lines) + "\n"


def _write_outputs(prefix: str, title: str, audit: dict, records: list[dict],
                   body: str) -> tuple[list[str], str]:
    """Write <prefix>.csv and <prefix>.txt under one title and audit line.

    The .csv holds the two as '#' lines, then the records; the .txt holds
    the two, a blank line and ``body``. Returns the paths and the .txt text.
    """
    audit_line = " ".join(f"{key}={_cell(key, value)}"
                          for key, value in audit.items())
    csv_path, txt_path = f"{prefix}.csv", f"{prefix}.txt"
    with open(csv_path, "w", newline="") as handle:
        handle.write(f"# {title}\n# {audit_line}\n"
                     + render_csv(records, list(records[0])))
    text = f"{title}\n{audit_line}\n\n{body}"
    with open(txt_path, "w") as handle:
        handle.write(text)
    return [csv_path, txt_path], text


def _write_grid_outputs(rows: tuple[GridRow, ...], seed: int,
                        mediation_only: bool,
                        out_prefix: str | None) -> tuple[list[str], str]:
    """Write the grid .csv and .txt; return the paths and the text table.

    Every row of a grid runs the same number of replicates.
    """
    records = [{
        "row": row.index,
        "grid": "mediation" if row.config.mediation else "main",
        "correlated": row.config.correlated,
        "theta1": row.config.theta1,
        "scenario": row.config.scenario,
        "mu": row.config.mu,
        "seed": row.config.seed,
        **_summary_fields(row.summary),
    } for row in rows]
    audit = {"seed": seed, "replicates": rows[0].config.replicates,
             "rows": len(rows), "mediation_only": mediation_only}
    table = _grid_text_table(records)
    paths, _ = _write_outputs(out_prefix or "mrkit_grid", "mrkit grid", audit,
                              records, table)
    return paths, table


def _parse_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Flat key=value lines; '#' comments and blank lines ignored.

    Returns key -> (1-based line, value); a repeated key keeps its last line.
    The file is read once, so it may be a pipe. A file that is not UTF-8
    raises DataError at the line of its first bad byte, before any other
    fault is reported.
    """
    values: dict[str, tuple[int, str]] = {}
    text = _read_text(path)
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = (lineno, value.strip())
    return values


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(value)


# ScenarioConfig field type (a name: annotations are postponed there) ->
# (parser, what the value must be).
_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "bool": (_parse_bool, "a boolean"), "str": (str, "a string")}
_CONFIG_KEYS = {field.name: _PARSERS[field.type]
                for field in dataclasses.fields(ScenarioConfig)}


def _simulate_settings(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if args.config is not None:
        for key, (lineno, value) in _parse_config_file(args.config).items():
            where = f"{args.config}:{lineno}"
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"{where}: unknown config key {key!r}; valid keys: "
                    f"{', '.join(sorted(_CONFIG_KEYS))}")
            parse, expects = _CONFIG_KEYS[key]
            try:
                settings[key] = parse(value)
            except ValueError:
                raise ValueError(
                    f"{where}: {key} expects {expects}, got {value!r}") from None
    for key in _CONFIG_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            settings[key] = override
    if "scenario" not in settings:
        raise ValueError(
            "simulate needs a scenario: pass --scenario or a config file "
            "with a scenario= line")
    return settings


def _cmd_analyze(args: argparse.Namespace) -> int:
    records = run_analyze(args)
    sys.stdout.write(_RENDERERS[args.format](records))
    return 1 if any(r["record"] == "warning" for r in records) else 0


def _report(paths: list[str], text: str, failures: int,
            where: str = "") -> int:
    """Print the text and the paths written; warn and return 1 on failures."""
    sys.stdout.write(text)
    print(f"wrote {', '.join(paths)}")
    if failures:
        print(f"warning: {failures} replicate(s) failed{where}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        **{"replicates": DESK_REPLICATES, **_simulate_settings(args)})
    summary = run_scenario(config)
    audit = {"scenario": config.scenario, "theta1": config.theta1,
             "mu": config.mu, "correlated": config.correlated,
             "gamma": config.gamma, "j_variants": config.j_variants,
             "replicates": config.replicates, "seed": config.seed,
             "weight_mode": config.weight_mode}
    record = {**audit, **_summary_fields(summary)}
    return _report(*_write_outputs(args.out or "mrkit_sim", "mrkit simulate",
                                   audit, [record], _simulate_text(record)),
                   summary.failures)


def _cmd_grid(args: argparse.Namespace) -> int:
    rows = run_scenario_grid(replicates=args.replicates, seed=args.seed,
                             mediation_only=args.mediation)
    return _report(*_write_grid_outputs(rows, args.seed, args.mediation,
                                        args.out),
                   sum(row.summary.failures for row in rows),
                   " across the grid")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves no state in the parser: each call fills a new namespace,
    and help and usage text are formatted when printed.
    """
    parser = argparse.ArgumentParser(
        prog="mrkit",
        description=("Summary-data Mendelian randomization: IVW and "
                     "MR-Egger estimation, and Monte Carlo studies."),
        epilog=("Simulation worker threads: set MRKIT_THREADS (default "
                "min(4, cpu count)). Determinism is guaranteed for any "
                "thread count."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="estimate causal effects from a summary-data CSV")
    analyze.add_argument("--data", required=True,
                         help="summary-data CSV (see README for the schema)")
    analyze.add_argument("--k", required=True, type=int,
                         help="number of risk-factor columns in the file")
    analyze.add_argument("--corr",
                         help="optional JxJ variant correlation CSV")
    analyze.add_argument("--methods", required=True,
                         help="comma-separated subset of UI,UE,MI,ME")
    analyze.add_argument("--ref",
                         help="reference risk factor for orientation "
                              "(required by UE/ME, and by UI when K > 1)")
    analyze.add_argument("--scheme", choices=("fixed", "random"),
                         default="random",
                         help="fixed-effect or multiplicative random-effects "
                              "standard errors (default random)")
    analyze.add_argument("--level", type=float, default=0.95,
                         help="confidence level (default 0.95)")
    analyze.add_argument("--format", choices=("text", "csv", "jsonl"),
                         default="text", help="output format (default text)")
    analyze.add_argument("--n-participants", type=int,
                         help="sample size behind the risk-factor "
                              "associations (for the F-statistic block)")
    analyze.add_argument("--r2", type=float,
                         help="variance in the reference risk factor "
                              "explained by the variants (for the "
                              "F-statistic block)")
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="run one Monte Carlo scenario")
    simulate.add_argument("--config",
                          help=f"flat key=value config file (keys: "
                               f"{', '.join(_CONFIG_KEYS)})")
    simulate.add_argument("--scenario", type=int, choices=(1, 2, 3, 4),
                          help="pleiotropy scenario (1 none, 2 balanced, "
                               "3 directional, 4 InSIDE-violated)")
    simulate.add_argument("--theta1", type=float, help="causal effect of x1")
    simulate.add_argument("--mu", type=float,
                          help="mean direct effect (scenarios 3-4)")
    simulate.add_argument("--correlated", action="store_const", const=True,
                          help="correlated risk-factor associations")
    simulate.add_argument("--mediation", action="store_const", const=True,
                          help="x1 partially mediated through x2 "
                               "(gamma = 0.5)")
    simulate.add_argument("--j-variants", dest="j_variants", type=int,
                          help="variants per dataset (default 185)")
    simulate.add_argument("--weight-mode", dest="weight_mode",
                          choices=("realized", "variance_component"),
                          help="outcome-se convention (default realized)")
    simulate.add_argument("--reps", dest="replicates", type=int,
                          help=f"replicates (default {DESK_REPLICATES}; "
                               f"full-scale studies use 10000)")
    simulate.add_argument("--seed", type=int, help="root RNG seed")
    simulate.add_argument("--out", help="output file prefix "
                                        "(default mrkit_sim)")
    simulate.set_defaults(func=_cmd_simulate)

    grid = sub.add_parser(
        "grid", help="run the 64-row scenario grid")
    grid.add_argument("--reps", dest="replicates", type=int,
                      default=DESK_REPLICATES,
                      help=f"replicates per row (default {DESK_REPLICATES}; "
                           f"full-scale studies use 10000)")
    grid.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help=f"root RNG seed (default {DEFAULT_SEED})")
    grid.add_argument("--mediation", action="store_true",
                      help="compute and write only the 32 mediation rows")
    grid.add_argument("--out", help="output file prefix "
                                    "(default mrkit_grid)")
    grid.set_defaults(func=_cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # DataError, RankError and FactorizationError are ValueErrors.
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'an allocation failed'})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
