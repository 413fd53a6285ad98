"""Command-line front end: generate scenario suites, evaluate selection with
metric reports, and run the five-preset ablation.

Exit codes: 0 success, 2 config error, 3 scenario parse error, 4 invariant
violation, 5 oracle mismatch, 6 I/O failure; main maps each error class to its
stderr prefix and code through one table, _EXITS.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .metrics import CONVENTIONS, ROW_FIELDS, MetricsRow, ScenarioMetrics, aggregate, evaluate_trajectories
from .oracles import oracle_dacr_flags, oracle_select
from .scenario import (
    GeneratorParams,
    Scenario,
    ScenarioFormatError,
    ScenarioInvariantError,
    generate_suite,
    load_scenarios,
    load_suite,
)
from .selection import FilterValues, SelectionConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_INVARIANT = 4
EXIT_ORACLE = 5
EXIT_IO = 6

# preset -> (uncertainty filter, agent filter, boundary filter, candidate cap), in report order
_PRESET_FILTERS = {
    "baseline": (False, False, False, 1),
    "unc-only": (False, False, False, 1),
    "multimodal": (False, False, False, None),
    "cas": (False, True, True, None),
    "ucas": (True, True, True, None),
}
PRESETS = tuple(_PRESET_FILTERS)
# Scenarios that are read, filtered and scored as one chunk: each read step, the agent and clearance
# filters and each metric run once per chunk. The benchmark's suite parts hold 6-25 scenarios, so each
# is one chunk; a constant, since no result depends on it.
CHUNK_SIZE = 32


class ConfigError(Exception):
    pass


class OracleMismatch(Exception):
    pass


# (error class, stderr prefix, exit code): main takes the first row whose class the error is an instance
# of, so the two scenario errors come before their base class, ValueError; any other error propagates
_EXITS = (
    (ConfigError, "config error", EXIT_CONFIG),
    (OracleMismatch, "oracle mismatch", EXIT_ORACLE),
    (ScenarioInvariantError, "invariant violation", EXIT_INVARIANT),
    (ScenarioFormatError, "parse error", EXIT_PARSE),
    (ValueError, "invariant violation", EXIT_INVARIANT),
    (OSError, "i/o error", EXIT_IO),
)


def preset_selection(preset: str, base: SelectionConfig) -> tuple[SelectionConfig, int | None]:
    """Filter toggles and candidate-count cap implied by an ablation preset."""
    if preset not in _PRESET_FILTERS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    uncertainty, agent, boundary, limit = _PRESET_FILTERS[preset]
    cfg = dataclasses.replace(
        base,
        enable_uncertainty_filter=uncertainty,
        enable_agent_filter=agent,
        enable_boundary_filter=boundary,
    )
    return cfg, limit


def _verify_scenario(s: Scenario, cfg: SelectionConfig, report, candidates, dacr_steps: tuple[bool, ...]) -> None:
    """Differential checks of selection, and of the chosen trajectory's DACR flags, against the oracles."""
    oracle_idx = oracle_select(
        candidates,
        s.command,
        cfg,
        risks=[r.risk_nll for r in report.records],
        agent_flags=[r.agent_collision for r in report.records],
        boundary_flags=[r.boundary_collision for r in report.records],
    )
    if oracle_idx != report.chosen_index:
        raise OracleMismatch(
            f"scenario {s.scenario_id}: selection chose index {report.chosen_index}, "
            f"oracle says {oracle_idx}"
        )
    reference = oracle_dacr_flags(report.chosen, s.ego_dims, s.map.drivable_area)
    if dacr_steps != reference:
        raise OracleMismatch(
            f"scenario {s.scenario_id}: drivable-area conflict flags {dacr_steps} "
            f"disagree with oracle {reference}"
        )


def _scoped(error: Exception, scenario_id: str) -> Exception:
    """The error with its message prefixed by the scenario id. The class is kept
    where it picks the exit code; other ValueErrors become plain ValueErrors."""
    cls = type(error) if isinstance(error, (ScenarioFormatError, ScenarioInvariantError, OSError)) else ValueError
    return cls(f"scenario {scenario_id}: {error}")


def _evaluate_chunk(chunk, runs, base: SelectionConfig, convention: str, verify: bool) -> list[list[ScenarioMetrics]]:
    """Per run, the metrics of each scenario of chunk, (manifest index, (entry, path)) pairs in id order.
    The scenarios are read as one chunk, the agent and clearance filters each run once over it, and CR
    and DACR once over its distinct (scenario, chosen index) pairs."""
    scenarios = load_scenarios([path for _, (_, path) in chunk])
    for (i, (entry, _)), s in zip(chunk, scenarios):
        if s.scenario_id != entry["id"]:
            message = f"{entry['id']!r} is not the file's id {s.scenario_id!r}"
            raise ScenarioInvariantError(f"field 'scenarios[{i}].id': {message}")
    values = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims) for s in scenarios], base)
    reports = [[values.select(n, cfg, limit) for n in range(len(scenarios))] for cfg, limit in runs]
    chosen = {}  # (scenario, chosen index) -> trajectory: the metrics read only the trajectory
    for per_scenario in reports:
        for n, report in enumerate(per_scenario):
            chosen.setdefault((n, report.chosen_index), report.chosen)
    truths = [s.ground_truth() for s in scenarios]
    items = [(traj, scenarios[n].ego_dims, truths[n], scenarios[n].scenario_id, scenarios[n].scenario_class)
             for (n, _), traj in chosen.items()]
    scored = dict(zip(chosen, evaluate_trajectories(items, convention)))
    if verify:
        for n, s in enumerate(scenarios):
            for (cfg, limit), per_scenario in zip(runs, reports):
                candidates = s.candidates if limit is None else s.candidates.head(limit)
                report = per_scenario[n]
                _verify_scenario(s, cfg, report, candidates, scored[n, report.chosen_index].dacr_steps)
    return [[scored[n, report.chosen_index] for n, report in enumerate(per_scenario)] for per_scenario in reports]


def _evaluate_alone(item, runs, base: SelectionConfig, convention: str, verify: bool) -> list[list[ScenarioMetrics]]:
    """_evaluate_chunk of one scenario, its errors naming it."""
    try:
        return _evaluate_chunk([item], runs, base, convention, verify)
    except (ValueError, OSError) as e:
        raise _scoped(e, item[1][0]["id"]) from None


def evaluate_suite(
    suite: Path, presets: Sequence[str], base: SelectionConfig, convention: str, verify: bool = False
) -> tuple[dict, list[tuple[list[MetricsRow], list[ScenarioMetrics]]]]:
    """Select and score every scenario of a suite under each preset, loading
    each scenario once, in id order, CHUNK_SIZE scenarios at a time. Each
    filter runs at most once per chunk, and each distinct chosen trajectory is
    scored once. A chunk that fails is run again one scenario at a time, so the
    lowest id that fails, and the first fault it meets, decide the error.
    Returns the manifest and, per preset, the aggregate rows and the
    per-scenario metrics."""
    manifest, paths = load_suite(suite)
    runs = [preset_selection(preset, base) for preset in presets]
    items = sorted(enumerate(zip(manifest["scenarios"], paths)), key=lambda e: e[1][0]["id"])
    per_preset: list[list[ScenarioMetrics]] = [[] for _ in runs]
    for start in range(0, len(items), CHUNK_SIZE):
        chunk = items[start:start + CHUNK_SIZE]
        try:
            parts = [_evaluate_chunk(chunk, runs, base, convention, verify)]
        except Exception:  # whichever fault, the lowest failing id and its first fault decide the error
            parts = [_evaluate_alone(item, runs, base, convention, verify) for item in chunk]
        for part in parts:
            for results, metrics in zip(per_preset, part):
                results.extend(metrics)
    return manifest, [(aggregate(results, stratify=True), results) for results in per_preset]


# ---------------------------------------------------------------------------
# report rendering


def _csv(header_pairs: list[tuple[str, object]], columns: str, lines: Iterable[str]) -> str:
    """A CSV report: the version and each header pair as a # line, the column names, then the rows."""
    head = [f"# uncplan-version: {__version__}", *(f"# {key}: {value}" for key, value in header_pairs)]
    return "\n".join([*head, columns, *lines]) + "\n"


def _table(title: str, head: str, lines: Iterable[str]) -> str:
    """A text report: the title, the column heading underlined to its width, then the rows."""
    return "\n".join([title, head, "-" * len(head), *lines]) + "\n"


def render_rows_csv(rows: list[MetricsRow], header_pairs: list[tuple[str, object]]) -> str:
    lines = (f"{row.scenario_class},{row.n_scenarios}," + ",".join(repr(getattr(row, f)) for f in ROW_FIELDS)
             for row in rows)
    return _csv(header_pairs, "stratum,n," + ",".join(ROW_FIELDS), lines)


def render_scenarios_csv(per_scenario: list[ScenarioMetrics], header_pairs) -> str:
    lines = (",".join([r.scenario_id, r.scenario_class, *map(repr, r.de), *(str(int(v)) for v in r.cr),
                       *map(repr, r.dacr)]) for r in sorted(per_scenario, key=lambda r: r.scenario_id))
    columns = "scenario_id,class,de_1s,de_2s,de_3s,cr_1s,cr_2s,cr_3s,dacr_1s,dacr_2s,dacr_3s"
    return _csv(header_pairs, columns, lines)


def render_rows_table(rows: list[MetricsRow], title: str) -> str:
    head = (
        f"{'Stratum':<10} {'N':>5} | {'DE (m)':>7} {'1s':>6} {'2s':>6} {'3s':>6} {'Avg.':>6} |"
        f" {'CR (%)':>7} {'1s':>6} {'2s':>6} {'3s':>6} {'Avg.':>6} |"
        f" {'DACR (%)':>9} {'1s':>6} {'2s':>6} {'3s':>6} {'Avg.':>6}"
    )
    lines = (
        f"{r.scenario_class:<10} {r.n_scenarios:>5} | {'':>7} {r.de_1s:>6.3f} {r.de_2s:>6.3f} {r.de_3s:>6.3f} {r.de_avg:>6.3f} |"
        f" {'':>7} {100 * r.cr_1s:>6.2f} {100 * r.cr_2s:>6.2f} {100 * r.cr_3s:>6.2f} {100 * r.cr_avg:>6.2f} |"
        f" {'':>9} {100 * r.dacr_1s:>6.2f} {100 * r.dacr_2s:>6.2f} {100 * r.dacr_3s:>6.2f} {100 * r.dacr_avg:>6.2f}"
        for r in rows
    )
    return _table(title, head, lines)


def _write_reports(prefix: str, reports: dict[str, str]) -> None:
    """Write each report to prefix + its suffix, in order, then print the .txt report and the paths."""
    out = Path(prefix)
    out.parent.mkdir(parents=True, exist_ok=True)
    for suffix, text in reports.items():
        Path(f"{out}{suffix}").write_text(text, encoding="utf-8")
    print(reports[".txt"], end="")
    print(f"reports written to {out}.csv (+ {', '.join(s for s in reports if s != '.csv')})")


# ---------------------------------------------------------------------------
# subcommands


def _parse_mix(raw: str) -> float:
    if raw == "turn-only":
        return 1.0
    if raw == "straight-only":
        return 0.0
    try:  # generate_suite checks the fraction's range
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"--mix must be 'turn-only', 'straight-only' or a turn fraction in [0, 1], got {raw!r}"
        ) from None


def cmd_generate(args) -> int:
    turn_fraction = _parse_mix(args.mix)
    try:  # GeneratorParams and generate_suite refuse an option out of its range by name, before writing a file
        params = GeneratorParams(noise_scale=args.noise, n_candidates=args.candidates)
        manifest = generate_suite(args.out, args.count, turn_fraction, params, args.seed)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    print(f"wrote {args.count} scenarios, manifest {manifest}")
    return EXIT_OK


def _base_selection(args) -> SelectionConfig:
    try:
        return SelectionConfig(nll_threshold=args.nll_threshold, boundary_clearance=args.clearance)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def cmd_eval(args) -> int:
    base = _base_selection(args)
    manifest, [(rows, per_scenario)] = evaluate_suite(
        Path(args.suite), (args.preset,), base, args.convention, args.verify
    )
    header = [
        ("command", "eval"),
        ("suite", args.suite),
        ("master-seed", manifest.get("master_seed")),
        ("preset", args.preset),
        ("nll-threshold", repr(base.nll_threshold)),
        ("clearance", repr(base.boundary_clearance)),
        ("agent-margin", repr(base.agent_margin)),
        ("risk-aggregator", base.risk_aggregator),
        ("convention", args.convention),
        ("verify", str(args.verify).lower()),
    ]
    title = f"preset={args.preset} convention={args.convention} suite={args.suite}"
    _write_reports(args.out, {
        ".csv": render_rows_csv(rows, header),
        ".scenarios.csv": render_scenarios_csv(per_scenario, header),
        ".txt": render_rows_table(rows, title),
    })
    return EXIT_OK


def cmd_ablate(args) -> int:
    base = _base_selection(args)
    manifest, results = evaluate_suite(Path(args.suite), PRESETS, base, args.convention)
    overall = [(preset, rows[0]) for preset, (rows, _) in zip(PRESETS, results)]
    header = [
        ("command", "ablate"),
        ("suite", args.suite),
        ("master-seed", manifest.get("master_seed")),
        ("nll-threshold", repr(base.nll_threshold)),
        ("clearance", repr(base.boundary_clearance)),
        ("convention", args.convention),
    ]
    csv_lines = (f"{preset},{row.n_scenarios},{row.cr_avg!r},{row.dacr_avg!r}" for preset, row in overall)
    head = f"{'preset':<12} {'N':>5} {'CR (%)':>9} {'DACR (%)':>10}"
    table_lines = (f"{preset:<12} {row.n_scenarios:>5} {100 * row.cr_avg:>9.2f} {100 * row.dacr_avg:>10.2f}"
                   for preset, row in overall)
    _write_reports(args.out, {
        ".csv": _csv(header, "preset,n,cr_avg,dacr_avg", csv_lines),
        ".txt": _table(f"ablation on {args.suite} (convention={args.convention})", head, table_lines),
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncplan",
        description="Uncertainty-aware trajectory selection on synthetic driving scenario suites.",
    )
    parser.add_argument("--version", action="version", version=f"uncplan {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="write a deterministic scenario suite")
    g.add_argument("--count", type=int, required=True, help="number of scenarios")
    g.add_argument("--mix", default="0.5", help="turn fraction in [0,1], or turn-only/straight-only")
    g.add_argument("--noise", type=float, default=0.5, help="map perturbation Laplace scale (m)")
    g.add_argument("--seed", type=int, default=0, help="master seed")
    g.add_argument("--candidates", type=int, default=5, help="planning modes per command")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_generate)

    for name, func, about in (("eval", cmd_eval, "run selection and metrics over a suite"),
                              ("ablate", cmd_ablate, "evaluate all five presets on one suite")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--suite", required=True, help="suite manifest path")
        if name == "eval":
            p.add_argument("--preset", choices=PRESETS, default="ucas")
        p.add_argument("--nll-threshold", type=float, default=2.0)
        p.add_argument("--clearance", type=float, default=0.3)
        p.add_argument("--convention", choices=CONVENTIONS, default="cumulative")
        if name == "eval":
            p.add_argument("--verify", action="store_true", help="differential-check against the oracles")
        p.add_argument("--out", required=True, help="output path prefix for reports")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in _EXITS) as e:
        prefix, code = next((prefix, code) for cls, prefix, code in _EXITS if isinstance(e, cls))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
