"""Shared pieces of the uncplan benchmark: paths, the machine-speed
calibration, summary statistics, file digests, the failure ledger and a
quiet in-process call of the `uncplan` command line."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 73


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


_DOC = json.dumps({"points": [{"x": i * 0.37, "y": i * -0.11, "tag": f"p{i}"} for i in range(150)]})

# Seconds calibrate() takes at the reference speed (about its median on the
# 2-vCPU machine the first numbers come from). It only sets the scale of
# speed-corrected values.
CAL_REF_S = 0.0050


def calibrate() -> float:
    """Seconds a fixed pure-Python workload takes now.

    The workload has the profile of uncplan's (JSON decoding, small frozen
    dataclasses with validation, float math, sorting) but none of its code,
    so a change to the package does not change it. A tight arithmetic loop
    tracked the package's slowdowns worse: it slows down more."""
    t0 = time.perf_counter()
    for _ in range(8):
        pts = [_Point(d["x"], d["y"]) for d in json.loads(_DOC)["points"]]
        best = math.inf
        for a in pts[::3]:
            for b in pts[::5]:
                d = math.hypot(a.x - b.x, a.y - b.y)
                if 0 < d < best:
                    best = d
        sorted(pts, key=lambda p: (p.y, p.x))
    return time.perf_counter() - t0


class Speed:
    """The machine's speed around one sample at a time.

    A shared virtual machine's CPU speed drifts by tens of percent within
    seconds and by up to twice over minutes, and the drift reaches every
    wall-clock metric. calibrate() right before and right after a sample
    measures the speed during it; a wall time multiplied by `after()` is the
    time the sample would have taken at the reference speed (a rate is
    divided by it)."""

    def __init__(self) -> None:
        calibrate()  # the first call in a fresh interpreter runs cold
        self._before = CAL_REF_S

    def before(self) -> None:
        self._before = calibrate()

    def after(self) -> float:
        return 2 * CAL_REF_S / (self._before + calibrate())


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count; quartiles as statistics.quantiles gives them."""
    vals = sorted(values)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else 0.0, "n": len(vals)}


def percentile(values: list[float], pct: int) -> float:
    """Inclusive linear-interpolation percentile (pct in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def digest_files(paths: list[Path]) -> str:
    """SHA-256 over the names and bytes of the given files, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def rel(path: Path) -> str:
    """Path as given to the CLI: relative to the checkout root (the working
    directory), so report headers and their digests do not depend on where
    the checkout lives."""
    path = Path(path).resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Call `uncplan.cli.main` in-process with its console output captured.

    Returns the exit code, captured stderr and wall seconds of the call."""
    from uncplan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, err.getvalue(), elapsed


class Ledger:
    """Scenario-operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, n: int, failed: int = 0, what: str = "") -> None:
        """Count n scenario-operations, `failed` of which went wrong."""
        self.attempted += n
        if failed:
            self.failed += failed
            self.notes.append(f"{what} ({failed} of {n} scenario-operations)")
