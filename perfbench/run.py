#!/usr/bin/env python3
"""uncplan benchmark: suite throughput, per-frame selection latency and a
traced per-layer split, on the workloads in workloads.py.

    python3 perfbench/run.py                        # every workload, tracing off
    python3 perfbench/run.py --workload canonical --seed 73 --seconds 30 --trace 0
    python3 perfbench/run.py --workload dense-map --trace 1   # per-layer split

One process, one thread, closed loop. Prints every metric with its unit, an
environment block, report digests, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. Exits 0 when every output was
correct, 1 when any scenario-operation failed, 2 when the package under
src/ cannot be imported. Work files go under .perfbench/work (removed at the
end); results and spans under .perfbench/results. See README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported here or in a child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from common import BENCH_DIR, DEFAULT_SEED, ROOT, SRC, Ledger, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package() -> bool:
    """Import uncplan from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import uncplan
    except ImportError as e:
        print(f"cannot import uncplan from {SRC}: {e}", file=sys.stderr)
        return False
    if not Path(uncplan.__file__).resolve().is_relative_to(SRC):
        print(f"uncplan was imported from {uncplan.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
        "calibrate_ms_before": calibrate_ms(),
    }


def calibrate_ms() -> float:
    """Median of 9 calibrations: the machine's speed when the run starts or ends."""
    return 1000 * statistics.median(calibrate() for _ in range(9))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def print_e2e(res: dict, ledger: Ledger) -> None:
    """Each metric at the reference speed with its sample count and spread
    within the run, and its wall-clock value."""
    import e2e

    for name, unit in e2e.UNITS.items():
        if name not in res["values"]:
            print(f"  {name:<16} missing")
            continue
        st = res["stats"][name]
        if name.startswith("select_ms"):
            how = f"over {st['n']} calls"
        else:
            how = f"median of {st['n']}, IQR {100 * st['iqr_frac']:.1f}% of median" if st["n"] > 1 else "n=1"
        if "wall_median" in st:
            how += f"; wall-clock {st['wall_median']:.4f}"
        print(f"  {name:<16} {res['values'][name]:>11.4f} {unit:<16} ({how})")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {'failed_frac':<16} {frac:>11.4f} {'ratio':<16} "
          f"({ledger.failed} of {ledger.attempted} scenario-operations)")


def print_traced(res: dict, specs: dict, workload: str) -> None:
    for name, (unit, _better) in specs.items():
        print(f"  {name:<36} {res['values'][name]:>12.4f} {unit}")
    v = res["values"]
    overhead = v["trace.loop_ms"] - v["trace.loop_untraced_ms"]
    print(f"  tracing overhead over {res['passes']} pass(es): {overhead:+.4f} ms per scenario "
          f"({100 * overhead / v['trace.loop_untraced_ms']:+.1f}% of the untraced loop; "
          f"untraced `uncplan eval` took {res['eval_ms_per_scenario']:.4f} ms per scenario)")
    sh = res["shares"]
    print(f"  eval split: load {100 * sh['load']:.0f}%, select {100 * sh['select']:.0f}%, "
          f"metrics {100 * sh['metrics']:.0f}%; ring validation is "
          f"{100 * v['geometry.parse_share']:.0f}% of parse")
    if workload == "wide-candidates":
        print(f"  role check: selection is the largest share of eval: {max(sh, key=sh.get) == 'select'}")
    if workload == "dense-map":
        print(f"  role check: ring validation is the largest share of parse: {v['geometry.parse_share'] > 0.5}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uncplan benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: traced per-layer split")
    parser.add_argument("--count", type=int, help="override the workload's scenario count")
    parser.add_argument("--workdir", default=".perfbench", help="where work files and results go")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not import_package():
        return 2
    import e2e
    import traced

    expected = json.loads((BENCH_DIR / "expected_digests.json").read_text(encoding="utf-8"))
    env = environment()
    print("environment: " + json.dumps(env))
    workdir = Path(args.workdir).resolve()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    specs = traced.metric_specs() if args.trace else {n: (u, "") for n, u in e2e.UNITS.items()}
    total, metrics, records = Ledger(), {}, {}
    for name in names:
        wl = WORKLOADS[name]
        count = args.count or wl.count
        stored = expected["workloads"].get(name, {})
        check = stored if args.seed == expected["seed"] and count == wl.count else {}
        work = workdir / "work" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tag = f"{name}-seed{args.seed}"
        print(f"== {name}: {count} scenarios, seed {args.seed}, {args.seconds:g} s, "
              f"tracing {'on' if args.trace else 'off'} ==")
        try:
            if args.trace:
                res = traced.run(wl, args.seed, count, args.seconds, work,
                                 workdir / "results" / f"{tag}.spans.jsonl")
            else:
                res = e2e.run(wl, args.seed, count, args.seconds, work, check)
                res["values"]["peak_rss_mb"] = peak_rss_mb()
                res["stats"]["peak_rss_mb"] = {"n": 1}
        except Exception:
            traceback.print_exc()
            res = {"values": {}, "ledger": Ledger()}
            res["ledger"].record(count, count, f"{name} raised")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ledger = res["ledger"]
        if args.trace:
            if res["values"]:
                print_traced(res, specs, name)
        else:
            print_e2e(res, ledger)
            if "rounds" in res:
                print(f"  {res['rounds']} rounds of eval/verify/ablate over {e2e.PARTS} interleaved parts")
            status = ("checked against the stored digests" if check else
                      f"(stored digests apply to seed {expected['seed']} at the default count)")
            short = {k: v[:16] for k, v in sorted(res.get("digests", {}).items())}
            print(f"  output digests {status}, first 16 hex digits: " + json.dumps(short))
        for note in ledger.notes:
            print(f"  FAILED: {note}")
        total.attempted += ledger.attempted
        total.failed += ledger.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (unit, _better) in specs.items():
            if metric in res["values"]:
                metrics[prefix + metric] = {"value": res["values"][metric], "unit": unit}
        records[name] = {k: v for k, v in res.items() if k != "ledger"}
        records[name].update(attempted=ledger.attempted, failed=ledger.failed, failures=ledger.notes)

    env["loadavg_after"] = list(os.getloadavg())
    env["calibrate_ms_after"] = calibrate_ms()
    print(f"environment after: loadavg {json.dumps(env['loadavg_after'])}, "
          f"calibrate_ms {env['calibrate_ms_after']:.3f}")
    results = workdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "args": vars(args), "workloads": records}, indent=2) + "\n")
    correct = total.failed == 0 and len(metrics) == len(specs) * len(names)
    print(json.dumps({"correct": correct, "attempted": max(total.attempted, 1),
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
