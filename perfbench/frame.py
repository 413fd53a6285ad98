"""Fresh-interpreter probe of set-up time and per-frame selection latency.

run.py starts this script in a new interpreter, so `import uncplan` and the
loading of the whole suite are paid again each time:

    python3 perfbench/frame.py --manifest SUITE/manifest.json --passes 1

It prints one JSON object: the set-up seconds (import plus load), every
`ucas_select` call's latency in nanoseconds, both also at the reference
machine speed (see common.Speed), the chosen index per scenario
and the number of calls whose choice disagreed with the oracle rule or with
an earlier pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

CALIBRATE_EVERY_S = 0.1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--passes", type=int, default=1, help="timed passes over the suite")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from common import Speed

    speed = Speed()
    speed.before()
    t0 = time.perf_counter()
    from uncplan import SelectionConfig, load_scenario, load_suite, oracle_select, ucas_select

    manifest, paths = load_suite(args.manifest)
    entries = sorted(zip(manifest["scenarios"], paths), key=lambda e: e[0]["id"])
    scenarios = [load_scenario(path) for _, path in entries]
    setup_s = time.perf_counter() - t0
    setup_s_ref = setup_s * speed.after()

    cfg = SelectionConfig()
    latencies: list[int] = []
    latencies_ref: list[float] = []
    chosen: list[int] | None = None
    pass_mismatches = 0
    for _ in range(args.passes):
        reports = []
        speed.before()
        chunk_start = time.perf_counter()
        for k, s in enumerate(scenarios):
            t = time.perf_counter_ns()
            reports.append(ucas_select(s.candidates, s.command, s.map, s.agents, s.ego_dims, cfg))
            latencies.append(time.perf_counter_ns() - t)
            # Calibrate about every CALIBRATE_EVERY_S and scale the calls since.
            if time.perf_counter() - chunk_start >= CALIBRATE_EVERY_S or k == len(scenarios) - 1:
                factor = speed.after()
                latencies_ref.extend(ns * factor for ns in latencies[len(latencies_ref):])
                speed.before()
                chunk_start = time.perf_counter()
        picks = [r.chosen_index for r in reports]
        if chosen is None:
            chosen = picks
            oracle_mismatches = sum(
                oracle_select(
                    s.candidates,
                    s.command,
                    cfg,
                    risks=[r.risk_nll for r in rep.records],
                    agent_flags=[r.agent_collision for r in rep.records],
                    boundary_flags=[r.boundary_collision for r in rep.records],
                )
                != rep.chosen_index
                for s, rep in zip(scenarios, reports)
            )
        else:
            pass_mismatches += sum(a != b for a, b in zip(picks, chosen))

    print(json.dumps({
        "setup_s": setup_s,
        "setup_s_ref": setup_s_ref,
        "scenarios": len(scenarios),
        "passes": args.passes,
        "latencies_ns": latencies,
        "latencies_ns_ref": latencies_ref,
        "chosen": chosen,
        "oracle_mismatches": oracle_mismatches,
        "pass_mismatches": pass_mismatches,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
