"""End-to-end phases, measured with tracing off and in one closed loop
(each call waits for the previous one): suite generation, `uncplan eval`,
`eval --verify`, `ablate`, and fresh-interpreter set-up followed by
per-frame selection latency.

The CPU speed of a shared virtual machine drifts by tens of percent within
seconds and by up to twice over minutes. So every sample is also scaled to
the reference speed (common.Speed), and the reported metrics are medians of
the scaled samples; and the phases are interleaved over the whole run
instead of run one after the other, so every metric samples the same
stretch of time. The suite is split
into interleaved parts (scenario i goes to part i mod PARTS, so every part
has the suite's mix); one round runs eval, verify and ablate on one part,
and rounds repeat, cycling through the parts, until --seconds is used.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, ROOT, Ledger, Speed, digest_files, percentile, rel, run_cli, summary
from workloads import MIX

PARTS = 16  # short samples, so the calibrations around each one describe all of it
MIN_ROUNDS = 4
# After the first generation: when the four more generations and the three
# set-up interpreters are due, as fractions of --seconds. Whatever is still
# pending when time is up runs at the end.
DUE = ((0.1, "frame"), (0.2, "generate"), (0.4, "generate"), (0.45, "frame"),
       (0.6, "generate"), (0.8, "generate"), (0.8, "frame"))
FRAME_CHILDREN = sum(task == "frame" for _, task in DUE)
FRAME_MIN_CALLS = 200  # over all interpreters, so that at least 10 calls lie beyond p95
CHILD_TIMEOUT_S = 170

UNITS = {
    "generate_sps": "scenarios/s",
    "eval_sps": "scenarios/s",
    "verify_sps": "scenarios/s",
    "ablate_sps": "scenario-evals/s",
    "select_ms_p50": "ms",
    "select_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COMMANDS = {
    "eval": (["eval", "--preset", "ucas"], (".csv", ".scenarios.csv", ".txt")),
    "verify": (["eval", "--preset", "ucas", "--verify"], (".csv", ".scenarios.csv", ".txt")),
    "ablate": (["ablate"], (".csv", ".txt")),
}


class Digests:
    """Output digests: each must equal its stored value, or else its first observation."""

    def __init__(self, stored: dict, ledger: Ledger) -> None:
        self.stored, self.ledger, self.seen = stored, ledger, {}

    def check(self, key: str, digest: str, n_ops: int) -> None:
        self.seen.setdefault(key, digest)
        want = self.stored.get(key, self.seen[key])
        self.ledger.record(n_ops, 0 if digest == want else n_ops, f"{key}: digest {digest}, expected {want}")


def suite_files(suite_dir: Path) -> list[Path]:
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    return [suite_dir / "manifest.json"] + [suite_dir / e["path"] for e in manifest["scenarios"]]


def generate(wl, seed: int, count: int, out: Path, speed: Speed, digests: Digests):
    """`generate_suite` into a fresh directory; returns scenarios/s, wall-clock
    and at the reference speed."""
    from uncplan import generate_suite

    shutil.rmtree(out, ignore_errors=True)
    params = wl.generator_params()
    speed.before()
    t0 = time.perf_counter()
    generate_suite(out, count, MIX, params, seed)
    elapsed = time.perf_counter() - t0
    factor = speed.after()
    digests.check("suite", digest_files(suite_files(out)), count)
    return count / elapsed, count / (elapsed * factor)


def write_parts(suite: Path) -> list[tuple[Path, int]]:
    """Sub-manifests over the same scenario files, interleaved by manifest order."""
    manifest = json.loads((suite / "manifest.json").read_text(encoding="utf-8"))
    parts = []
    for j in range(min(PARTS, len(manifest["scenarios"]))):
        entries = manifest["scenarios"][j::PARTS]
        path = suite / f"part-{j}.json"
        path.write_text(json.dumps(dict(manifest, count=len(entries), scenarios=entries), indent=2) + "\n")
        parts.append((path, len(entries)))
    return parts


def command(kind: str, j: int, part: Path, n: int, out_dir: Path, speed: Speed, ledger: Ledger,
            digests: Digests):
    """One CLI command on one part; returns scenario-operations/s, wall-clock
    and at the reference speed, or None if it failed."""
    from uncplan.cli import PRESETS

    argv, suffixes = COMMANDS[kind]
    ops = n * (len(PRESETS) if kind == "ablate" else 1)
    out = out_dir / f"{kind}-{j}"
    speed.before()
    code, err, elapsed = run_cli([argv[0], "--suite", rel(part), *argv[1:], "--out", rel(out)])
    factor = speed.after()
    if code != 0:
        ledger.record(ops, ops, f"{kind} part {j} exited {code}: {err.strip()}")
        return None
    digests.check(f"{kind}/{j}", digest_files([Path(str(out) + sfx) for sfx in suffixes]), ops)
    return ops / elapsed, ops / (elapsed * factor)


def frame(c: int, manifest: Path, count: int, ledger: Ledger, digests: Digests):
    """One fresh interpreter: returns its set-up seconds and its per-call
    latencies in ms, each as (wall-clock, at the reference speed), or None
    if it failed."""
    passes = math.ceil(FRAME_MIN_CALLS / (count * FRAME_CHILDREN))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "frame.py"), "--manifest", rel(manifest), "--passes", str(passes)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        ledger.record(count, count, f"frame child {c} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    ledger.record(count)  # the loads of the set-up
    calls = len(res["latencies_ns"])
    bad = res["oracle_mismatches"] + res["pass_mismatches"]
    ledger.record(calls, bad, f"frame child {c}: {res['oracle_mismatches']} oracle and "
                              f"{res['pass_mismatches']} pass mismatches")
    digests.check("chosen", hashlib.sha256(json.dumps(res["chosen"]).encode()).hexdigest(), count)
    return ((res["setup_s"], res["setup_s_ref"]),
            ([ns / 1e6 for ns in res["latencies_ns"]], [ns / 1e6 for ns in res["latencies_ns_ref"]]))


def run(wl, seed: int, count: int, seconds: float, work: Path, stored: dict) -> dict:
    """Every end-to-end phase on one workload; returns metrics, summaries and digests."""
    ledger = Ledger()
    digests = Digests(stored, ledger)
    speed = Speed()
    wall: dict[str, list[float]] = {name: [] for name in UNITS}
    ref: dict[str, list[float]] = {name: [] for name in UNITS}
    latencies: tuple[list[float], list[float]] = ([], [])

    def add(name: str, pair) -> None:
        if pair is not None:
            wall[name].append(pair[0])
            ref[name].append(pair[1])

    start = time.perf_counter()
    suite = work / "suite"
    add("generate_sps", generate(wl, seed, count, suite, speed, digests))
    parts = write_parts(suite)

    pending = list(DUE)
    rounds, round_s = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        out_of_time = rounds >= MIN_ROUNDS and elapsed + round_s > seconds
        if pending and (out_of_time or elapsed >= pending[0][0] * seconds):
            _, task = pending.pop(0)
            if task == "generate":
                add("generate_sps", generate(wl, seed, count, work / "gen", speed, digests))
            else:
                child = frame(len(wall["setup_s"]), suite / "manifest.json", count, ledger, digests)
                if child is not None:
                    add("setup_s", child[0])
                    latencies[0].extend(child[1][0])
                    latencies[1].extend(child[1][1])
            continue
        if out_of_time:
            break
        t0 = time.perf_counter()
        j = rounds % len(parts)
        part, n = parts[j]
        for kind in COMMANDS:
            add(f"{kind}_sps", command(kind, j, part, n, work / "reports", speed, ledger, digests))
        rounds += 1
        round_s = time.perf_counter() - t0

    stats = {name: dict(summary(ref[name]), wall_median=summary(wall[name])["median"])
             for name in UNITS if ref[name]}
    if latencies[1]:
        for pct in (50, 95):
            stats[f"select_ms_p{pct}"] = {"median": percentile(latencies[1], pct), "n": len(latencies[1]),
                                          "wall_median": percentile(latencies[0], pct)}
    values = {name: st["median"] for name, st in stats.items()}
    return {"values": values, "stats": stats, "digests": digests.seen, "ledger": ledger, "rounds": rounds}
