"""Command-line front end: generate scenario suites, evaluate selection with
metric reports, and run the five-preset ablation.

Exit codes: 0 success, 2 config error, 3 scenario parse error, 4 invariant
violation, 5 oracle mismatch, 6 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .metrics import MetricsRow, ScenarioMetrics, aggregate, evaluate_trajectories
from .oracles import oracle_dacr_flags, oracle_select
from .scenario import (
    GeneratorParams,
    Scenario,
    ScenarioFormatError,
    ScenarioInvariantError,
    generate_suite,
    load_scenario,
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
# Scenarios whose filters and metrics run as one kernel call each. The benchmark's suite parts hold
# 6-25 scenarios, so each is one chunk; a constant, since no result depends on it.
CHUNK_SIZE = 32


class ConfigError(Exception):
    pass


class OracleMismatch(Exception):
    pass


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
    The agent and clearance filters each run once over the chunk, and CR and DACR once over its
    distinct (scenario, chosen index) pairs."""
    scenarios = []
    for i, (entry, path) in chunk:
        s = load_scenario(path)
        if s.scenario_id != entry["id"]:
            message = f"{entry['id']!r} is not the file's id {s.scenario_id!r}"
            raise ScenarioInvariantError(f"field 'scenarios[{i}].id': {message}")
        scenarios.append(s)
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


def _header_lines(pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# uncplan-version: {__version__}"]
    lines.extend(f"# {key}: {value}" for key, value in pairs)
    return lines


_ROW_FIELDS = (
    "de_1s", "de_2s", "de_3s", "de_avg",
    "cr_1s", "cr_2s", "cr_3s", "cr_avg",
    "dacr_1s", "dacr_2s", "dacr_3s", "dacr_avg",
)


def render_rows_csv(rows: list[MetricsRow], header_pairs: list[tuple[str, object]]) -> str:
    lines = _header_lines(header_pairs)
    lines.append("stratum,n," + ",".join(_ROW_FIELDS))
    for row in rows:
        values = [repr(getattr(row, f)) for f in _ROW_FIELDS]
        lines.append(f"{row.scenario_class},{row.n_scenarios}," + ",".join(values))
    return "\n".join(lines) + "\n"


def render_scenarios_csv(per_scenario: list[ScenarioMetrics], header_pairs) -> str:
    lines = _header_lines(header_pairs)
    lines.append("scenario_id,class,de_1s,de_2s,de_3s,cr_1s,cr_2s,cr_3s,dacr_1s,dacr_2s,dacr_3s")
    for r in sorted(per_scenario, key=lambda r: r.scenario_id):
        cells = [r.scenario_id, r.scenario_class]
        cells += [repr(v) for v in r.de]
        cells += [str(int(v)) for v in r.cr]
        cells += [repr(v) for v in r.dacr]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_rows_table(rows: list[MetricsRow], title: str) -> str:
    out = [title]
    head = (
        f"{'Stratum':<10} {'N':>5} | {'DE (m)':>7} {'1s':>6} {'2s':>6} {'3s':>6} {'Avg.':>6} |"
        f" {'CR (%)':>7} {'1s':>6} {'2s':>6} {'3s':>6} {'Avg.':>6} |"
        f" {'DACR (%)':>9} {'1s':>6} {'2s':>6} {'3s':>6} {'Avg.':>6}"
    )
    out.append(head)
    out.append("-" * len(head))
    for r in rows:
        out.append(
            f"{r.scenario_class:<10} {r.n_scenarios:>5} | {'':>7} {r.de_1s:>6.3f} {r.de_2s:>6.3f} {r.de_3s:>6.3f} {r.de_avg:>6.3f} |"
            f" {'':>7} {100 * r.cr_1s:>6.2f} {100 * r.cr_2s:>6.2f} {100 * r.cr_3s:>6.2f} {100 * r.cr_avg:>6.2f} |"
            f" {'':>9} {100 * r.dacr_1s:>6.2f} {100 * r.dacr_2s:>6.2f} {100 * r.dacr_3s:>6.2f} {100 * r.dacr_avg:>6.2f}"
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _parse_mix(raw: str) -> float:
    if raw == "turn-only":
        return 1.0
    if raw == "straight-only":
        return 0.0
    try:
        frac = float(raw)
    except ValueError:
        raise ConfigError(
            f"--mix must be 'turn-only', 'straight-only' or a turn fraction in [0, 1], got {raw!r}"
        ) from None
    if not 0.0 <= frac <= 1.0:
        raise ConfigError(f"--mix fraction must be in [0, 1], got {frac}")
    return frac


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    turn_fraction = _parse_mix(args.mix)
    try:  # with the options checked, a generator fault comes from noise_scale (see GeneratorParams)
        params = GeneratorParams(noise_scale=args.noise, n_candidates=args.candidates)
        manifest = generate_suite(args.out, args.count, turn_fraction, params, args.seed)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    print(f"wrote {args.count} scenarios, manifest {manifest}")
    return EXIT_OK


def _base_selection(args) -> SelectionConfig:
    try:
        return SelectionConfig(
            nll_threshold=args.nll_threshold,
            boundary_clearance=args.clearance,
        )
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
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = Path(str(out) + ".csv")
    csv_path.write_text(render_rows_csv(rows, header), encoding="utf-8")
    Path(str(out) + ".scenarios.csv").write_text(
        render_scenarios_csv(per_scenario, header), encoding="utf-8"
    )
    title = f"preset={args.preset} convention={args.convention} suite={args.suite}"
    Path(str(out) + ".txt").write_text(render_rows_table(rows, title), encoding="utf-8")
    print(render_rows_table(rows, title), end="")
    print(f"reports written to {csv_path} (+ .scenarios.csv, .txt)")
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
    lines = _header_lines(header)
    lines.append("preset,n,cr_avg,dacr_avg")
    for preset, row in overall:
        lines.append(f"{preset},{row.n_scenarios},{repr(row.cr_avg)},{repr(row.dacr_avg)}")
    csv_text = "\n".join(lines) + "\n"

    table = [f"ablation on {args.suite} (convention={args.convention})"]
    head = f"{'preset':<12} {'N':>5} {'CR (%)':>9} {'DACR (%)':>10}"
    table.append(head)
    table.append("-" * len(head))
    for preset, row in overall:
        table.append(f"{preset:<12} {row.n_scenarios:>5} {100 * row.cr_avg:>9.2f} {100 * row.dacr_avg:>10.2f}")
    table_text = "\n".join(table) + "\n"

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = Path(str(out) + ".csv")
    csv_path.write_text(csv_text, encoding="utf-8")
    Path(str(out) + ".txt").write_text(table_text, encoding="utf-8")
    print(table_text, end="")
    print(f"reports written to {csv_path} (+ .txt)")
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

    e = sub.add_parser("eval", help="run selection and metrics over a suite")
    e.add_argument("--suite", required=True, help="suite manifest path")
    e.add_argument("--preset", choices=PRESETS, default="ucas")
    e.add_argument("--nll-threshold", type=float, default=2.0)
    e.add_argument("--clearance", type=float, default=0.3)
    e.add_argument("--convention", choices=("cumulative", "instantaneous"), default="cumulative")
    e.add_argument("--verify", action="store_true", help="differential-check against the oracles")
    e.add_argument("--out", required=True, help="output path prefix for reports")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="evaluate all five presets on one suite")
    a.add_argument("--suite", required=True, help="suite manifest path")
    a.add_argument("--nll-threshold", type=float, default=2.0)
    a.add_argument("--clearance", type=float, default=0.3)
    a.add_argument("--convention", choices=("cumulative", "instantaneous"), default="cumulative")
    a.add_argument("--out", required=True, help="output path prefix for reports")
    a.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleMismatch as e:
        print(f"oracle mismatch: {e}", file=sys.stderr)
        return EXIT_ORACLE
    except ScenarioInvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except ScenarioFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
