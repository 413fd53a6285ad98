"""Per-layer split of eval and generation from a traced run.

The eval loop is recomposed from the package's public functions, with one
span per call around each layer: decode (`json.loads`), parse
(`scenario_from_dict`), ring validation (re-building the drivable area's
`Polygon`/`MultiPolygon` from the loaded rings), `ucas_select`, each filter
called on its own (risk, agent check, clearance), the oracle selection rule
over those filter results, `evaluate_trajectory` and its DE/CR/DACR parts,
the DACR oracle, aggregation and report rendering. Generation is recomposed
the same way from `generate_scenario`, `perturb_map` and `save_scenario`.

A span is (name, start, end, parent, scenario); spans stay in memory and are
written when the run ends. Each scenario also runs once with tracing off,
right before or after its traced run; the difference is the tracing
overhead. The recomposed loop must reproduce the untraced `ucas_select`
choice and the untraced `uncplan eval` per-scenario DE/CR/DACR exactly.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

from common import Ledger, digest_files, percentile, rel, run_cli
from workloads import MIX

TIMED = (
    "scenario.decode", "scenario.parse", "scenario.generate", "scenario.save",
    "map_model.perturb", "geometry.ring_validate",
    "selection.select", "selection.risk", "selection.agent", "selection.clearance",
    "metrics.evaluate", "metrics.de", "metrics.cr", "metrics.dacr",
    "oracles.select", "oracles.dacr",
)
PER_SUITE = ("metrics.aggregate", "cli.render")
COUNTS = {
    "scenario.file_kb": ("KB", "lower"),
    "geometry.ring_edge_pairs": ("count", "lower"),
    "uncertainty.nll_evals": ("count", "lower"),
    "selection.candidates": ("count", "lower"),
    "selection.box_pairs": ("count", "lower"),
    "selection.point_segment_pairs": ("count", "lower"),
    "selection.zeroed_frac": ("ratio", "lower"),
    "selection.fallback_frac": ("ratio", "lower"),
}
SHARES = {
    "selection.eval_share": ("ratio", "lower"),
    "geometry.parse_share": ("ratio", "lower"),
}
LOOP = {"trace.loop_ms": ("ms", "lower"), "trace.loop_untraced_ms": ("ms", "lower")}
CONVENTION = "cumulative"  # the `uncplan eval` default


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric this run reports: name -> (unit, better)."""
    specs = {}
    for name in TIMED:
        specs[f"{name}_ms_p50"] = ("ms", "lower")
        specs[f"{name}_ms_p95"] = ("ms", "lower")
    for name in PER_SUITE:
        specs[f"{name}_ms"] = ("ms", "lower")
    return {**specs, **COUNTS, **SHARES, **LOOP}


class Tracer:
    """Records (name, start_ns, end_ns, parent index, scenario) per span."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def span(self, name: str, scenario=None) -> "_Span":
        return _Span(self, name, scenario)


class _Span:
    __slots__ = ("tracer", "name", "scenario", "index", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, scenario) -> None:
        self.tracer, self.name, self.scenario = tracer, name, scenario

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, self.scenario)
        return False


class NullTracer:
    """Tracing off: the same loop with every span a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str, scenario=None):
        return self._null


def generate_pass(tr, wl, seed: int, count: int, out: Path) -> None:
    """`generate_suite`'s loop, one span per layer call."""
    from uncplan import ScenarioKind, generate_scenario, perturb_map, save_scenario
    from uncplan.scenario import scenario_seed

    params = wl.generator_params()
    n_turn = round(count * MIX)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        kind = ScenarioKind.TURN if i < n_turn else ScenarioKind.STRAIGHT
        seed_i = scenario_seed(seed, i)
        with tr.span("scenario", i):
            with tr.span("scenario.generate", i):
                s = generate_scenario(kind, params, seed_i)
            # generate_scenario perturbs internally; this second call on a map
            # of the same shape times the map_model layer alone.
            with tr.span("map_model.perturb", i):
                perturb_map(s.map, params.noise_scale, seed_i, params.calibrated)
            with tr.span("scenario.save", i):
                save_scenario(s, out / f"{s.scenario_id}.json")


def eval_scenario(tr, sid: str, path: Path, cfg) -> dict:
    """One scenario of `uncplan eval --verify`, recomposed from public functions.

    Returns the chosen index, the metrics, the input-derived counts and
    whether a recomposed part disagreed with the production call it
    decomposes."""
    from uncplan import (
        MultiPolygon, Polygon, ScenarioMetrics, agent_collision_check, boundary_collision_check,
        boundary_elements, collision_rate_frame, command_filter, dacr_frame, displacement_error,
        evaluate_trajectory, oracle_select, trajectory_risk, ucas_select,
    )
    from uncplan.metrics import HORIZON_STEPS
    from uncplan.oracles import oracle_dacr_flags
    from uncplan.scenario import scenario_from_dict

    with tr.span("scenario", sid):
        text = path.read_text(encoding="utf-8")
        with tr.span("scenario.decode", sid):
            data = json.loads(text)
        with tr.span("scenario.parse", sid):
            s = scenario_from_dict(data, source=str(path))
        da = s.map.drivable_area
        with tr.span("geometry.ring_validate", sid):
            MultiPolygon(tuple(Polygon(p.outer, p.holes) for p in da.polygons))

        with tr.span("selection.select", sid):
            report = ucas_select(s.candidates, s.command, s.map, s.agents, s.ego_dims, cfg)
        cands = command_filter(s.candidates, s.command)
        bounds = boundary_elements(s.map)
        with tr.span("selection.risk", sid):
            risks = [trajectory_risk(c, bounds, cfg.risk_aggregator) for c in cands]
        with tr.span("selection.agent", sid):
            agent_flags = [
                agent_collision_check(c, s.ego_dims, s.agents, cfg.agent_margin, cfg.check_all_agent_modes)
                for c in cands
            ]
        with tr.span("selection.clearance", sid):
            mu_lines = [b.mu_polyline() for b in bounds]
            boundary_flags = [
                boundary_collision_check(c, s.ego_dims, mu_lines, cfg.boundary_clearance) for c in cands
            ]
        with tr.span("oracles.select", sid):
            oracle_idx = oracle_select(s.candidates, s.command, cfg, risks, agent_flags, boundary_flags)

        traj, gt = report.chosen, s.ground_truth()
        with tr.span("metrics.evaluate", sid):
            m = evaluate_trajectory(traj, s.ego_dims, gt, s.scenario_id, s.scenario_class, CONVENTION)
        with tr.span("metrics.de", sid):
            de = tuple(displacement_error(traj, gt, h, CONVENTION) for h in HORIZON_STEPS)
        with tr.span("metrics.cr", sid):
            cr = tuple(collision_rate_frame(traj, s.ego_dims, gt, h, CONVENTION) for h in HORIZON_STEPS)
        with tr.span("metrics.dacr", sid):
            dacr = tuple(dacr_frame(traj, s.ego_dims, da, h) for h in HORIZON_STEPS)
        with tr.span("oracles.dacr", sid):
            flags = oracle_dacr_flags(traj, s.ego_dims, da)

    records = report.records
    mismatch = (
        oracle_idx != report.chosen_index
        or [r.risk_nll for r in records] != risks
        or [r.agent_collision for r in records] != agent_flags
        or [r.boundary_collision for r in records] != boundary_flags
        or ScenarioMetrics(s.scenario_id, s.scenario_class, de, cr, dacr) != m
        or tuple(sum(flags[:h]) / h for h in HORIZON_STEPS) != m.dacr
    )
    k, t = len(cands), len(cands[0].waypoints)
    counts = {
        "scenario.file_kb": path.stat().st_size / 1024,
        "geometry.ring_edge_pairs": sum(
            (len(r) - 1) * (len(r) - 2) // 2 - (len(r) - 1) for p in da.polygons for r in (p.outer, *p.holes)
        ),
        "uncertainty.nll_evals": k * t * sum(len(b.points) for b in bounds),
        "selection.candidates": k,
        "selection.box_pairs": k * t * len(s.agents),
        "selection.point_segment_pairs": k * t * 4 * sum(len(b.points) - 1 for b in bounds),
        "zeroed": sum(r.final_score == 0.0 for r in records),
        "fallback": report.fallback_used,
    }
    return {"chosen": report.chosen_index, "metrics": m, "counts": counts, "mismatch": mismatch}


def eval_pass(tr, entries, cfg) -> dict:
    """Every scenario twice, traced and untraced back to back (alternating
    which goes first), then aggregation and rendering, traced.

    Pairing each scenario's two runs keeps the machine's speed drift out of
    the tracing overhead (traced minus untraced time)."""
    from uncplan import aggregate
    from uncplan.cli import render_rows_csv, render_rows_table, render_scenarios_csv

    results, mismatches, seconds = [], [], {"traced": 0.0, "untraced": 0.0}
    for i, (sid, path) in enumerate(entries):
        runs = {}
        for mode in (("traced", "untraced") if i % 2 == 0 else ("untraced", "traced")):
            t0 = time.perf_counter()
            runs[mode] = eval_scenario(tr if mode == "traced" else NullTracer(), sid, path, cfg)
            seconds[mode] += time.perf_counter() - t0
        res = runs["traced"]
        if res["mismatch"] or runs["untraced"]["metrics"] != res["metrics"]:
            mismatches.append(sid)
        results.append(res)

    per_scenario = [r["metrics"] for r in results]
    with tr.span("metrics.aggregate"):
        rows = aggregate(per_scenario, stratify=True)
    with tr.span("cli.render"):
        render_rows_csv(rows, [])
        scenarios_csv = render_scenarios_csv(per_scenario, [])
        render_rows_table(rows, "")

    n = len(results)
    counts = {name: sum(r["counts"][name] for r in results) / n for name in COUNTS if name in results[0]["counts"]}
    counts["selection.zeroed_frac"] = sum(r["counts"]["zeroed"] for r in results) / sum(
        r["counts"]["selection.candidates"] for r in results)
    counts["selection.fallback_frac"] = sum(r["counts"]["fallback"] for r in results) / n
    return {"chosen": [r["chosen"] for r in results], "scenarios_csv": scenarios_csv, "counts": counts,
            "mismatches": mismatches, "seconds": seconds}


def _data_lines(text: str) -> list[str]:
    """CSV lines without the `#` header, which holds run configuration."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def _durations(tracers: list[Tracer]) -> dict[str, list[float]]:
    """Per (pass, scenario) summed milliseconds of each span name."""
    per: dict[tuple, float] = {}
    for p, tr in enumerate(tracers):
        for name, start, end, _parent, sid in tr.spans:
            key = (name, p, sid)
            per[key] = per.get(key, 0.0) + (end - start) / 1e6
    out: dict[str, list[float]] = {}
    for (name, _p, _sid), ms in per.items():
        out.setdefault(name, []).append(ms)
    return out


def run(wl, seed: int, count: int, seconds: float, work: Path, spans_path: Path) -> dict:
    """Traced generation and eval passes plus their untraced references."""
    from uncplan import SelectionConfig, generate_suite, load_scenario, load_suite, ucas_select

    ledger = Ledger()
    clock_start = time.perf_counter()
    suite = work / "suite"
    generate_suite(suite, count, MIX, wl.generator_params(), seed)
    gen_tracer = Tracer()
    generate_pass(gen_tracer, wl, seed, count, work / "gen-traced")
    names = [p.name for p in sorted(suite.glob("*.json")) if p.name != "manifest.json"]
    same = digest_files([suite / n for n in names]) == digest_files([work / "gen-traced" / n for n in names])
    ledger.record(count, 0 if same else count, "traced generation wrote different scenario files")

    manifest, paths = load_suite(suite / "manifest.json")
    entries = sorted(((e["id"], p) for e, p in zip(manifest["scenarios"], paths)), key=lambda e: e[0])
    cfg = SelectionConfig()

    out = work / "reports" / "eval"
    code, err, eval_s = run_cli(["eval", "--suite", rel(suite / "manifest.json"), "--preset", "ucas",
                                 "--out", rel(out)])
    ledger.record(count, 0 if code == 0 else count, f"untraced eval exited {code}: {err.strip()}")
    reference_csv = _data_lines(Path(str(out) + ".scenarios.csv").read_text(encoding="utf-8")) if code == 0 else []
    reference_chosen = [
        ucas_select(s.candidates, s.command, s.map, s.agents, s.ego_dims, cfg).chosen_index
        for s in (load_scenario(p) for _, p in entries)
    ]

    # Passes while time remains, at least one.
    tracers, traced_ms, untraced_ms = [], [], []
    reps, rep_s = 0, 0.0
    while reps == 0 or time.perf_counter() - clock_start + rep_s <= seconds:
        t0 = time.perf_counter()
        tr = Tracer()
        res = eval_pass(tr, entries, cfg)
        tracers.append(tr)
        traced_ms.append(1000 * res["seconds"]["traced"] / count)
        untraced_ms.append(1000 * res["seconds"]["untraced"] / count)
        bad = set(res["mismatches"])
        bad |= {sid for (sid, _), a, b in zip(entries, res["chosen"], reference_chosen) if a != b}
        if _data_lines(res["scenarios_csv"]) != reference_csv:
            bad = {sid for sid, _ in entries}
        ledger.record(count, len(bad), f"traced pass {reps}: recomposed loop disagreed on {sorted(bad)[:5]}")
        reps += 1
        rep_s = time.perf_counter() - t0

    durations = _durations(tracers)
    gen_durations = _durations([gen_tracer])
    values = {}
    for name in TIMED:
        vals = durations.get(name) or gen_durations.get(name)
        values[f"{name}_ms_p50"] = percentile(vals, 50)
        values[f"{name}_ms_p95"] = percentile(vals, 95)
    for name in PER_SUITE:
        values[f"{name}_ms"] = statistics.median(durations[name])
    values.update(res["counts"])
    load = sum(durations["scenario.decode"]) + sum(durations["scenario.parse"])
    select = sum(durations["selection.select"])
    metrics = sum(durations["metrics.evaluate"])
    values["selection.eval_share"] = select / (load + select + metrics)
    values["geometry.parse_share"] = sum(durations["geometry.ring_validate"]) / sum(durations["scenario.parse"])
    values["trace.loop_ms"] = statistics.median(traced_ms)
    values["trace.loop_untraced_ms"] = statistics.median(untraced_ms)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        for label, trs in (("generate", [gen_tracer]), ("eval", tracers)):
            for p, tr in enumerate(trs):
                for name, start, end, parent, sid in tr.spans:
                    fh.write(json.dumps({"run": label, "pass": p, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "scenario": sid}) + "\n")
    shares = {
        "load": load / (load + select + metrics),
        "select": values["selection.eval_share"],
        "metrics": metrics / (load + select + metrics),
    }
    return {"values": values, "ledger": ledger, "eval_ms_per_scenario": 1000 * eval_s / count,
            "passes": reps, "shares": shares}
