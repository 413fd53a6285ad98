"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is deterministic: the directional experiments run on a
fixed-seed 400-scenario suite (65% turns, 0.5 m map noise, 5 candidates per
command).
"""

import math
import time

import numpy as np
import pytest

from uncplan.cli import evaluate_suite, main
from uncplan.geometry import MultiPolygon, Point2, Polygon, Pose2, dist_point_segment, vehicle_corners
from uncplan.map_model import MapElement, MapElementKind, UncertainMap
from uncplan.metrics import HORIZON_STEPS, dacr_flags, dacr_frame
from uncplan.oracles import oracle_dacr_flags, oracle_laplace_fit, oracle_select
from uncplan.scenario import (
    AgentMode,
    AgentPrediction,
    GeneratorParams,
    ScenarioKind,
    generate_scenario,
    generate_suite,
)
from uncplan.selection import (
    T_F,
    CandidateSet,
    CandidateTrajectory,
    Command,
    SelectionConfig,
    ucas_select,
)
from uncplan.uncertainty import (
    B_MIN,
    LaplacePoint,
    UncertainPolyline,
    element_nll,
    fit_laplace_mle,
    log_joint_density,
)

ACCEPTANCE_SEED = 73
ACCEPTANCE_COUNT = 400
ACCEPTANCE_TURN_FRACTION = 0.65
EGO_DIMS = (4.0, 2.0)


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{criterion}] {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s over budget {budget}s"


# ---------------------------------------------------------------------------
# A1: density/NLL consistency and normalization


def test_a1_density_nll_consistency():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(1001))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        pts = tuple(
            LaplacePoint(
                Point2(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20))),
                (float(rng.uniform(0.01, 3)), float(rng.uniform(0.01, 3))),
            )
            for _ in range(n)
        )
        element = UncertainPolyline(pts)
        gt = [Point2(float(x), float(y)) for x, y in rng.uniform(-20, 20, size=(n, 2))]
        gap = abs(log_joint_density(gt, element) + element_nll(gt, element))
        worst = max(worst, gap)
    consistent = worst <= 1e-12

    # trapezoid integration of one point's density: half width 20b, step b/20
    b = 0.5
    mu = Point2(0.4, -1.1)
    half, step = 20 * b, b / 20
    axis = np.arange(-half, half + step / 2, step)
    log_x = -(np.abs(axis) / b + math.log(2 * b))
    log_y = -(np.abs(axis) / b + math.log(2 * b))
    dens = np.exp(log_x)[:, None] * np.exp(log_y)[None, :]
    w = np.full(len(axis), step)
    w[0] = w[-1] = step / 2
    integral = float(w @ dens @ w)
    normalized = abs(integral - 1.0) <= 1e-3

    elapsed = time.perf_counter() - start
    report(
        "A1",
        consistent and normalized,
        f"max |log_density + nll| = {worst:.2e}; density integral = {integral:.6f}",
        elapsed,
        5.0,
    )


# ---------------------------------------------------------------------------
# A2: closed-form fit vs grid-search oracle


def test_a2_laplace_fit_matches_oracle():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2002))
    worst_mu, worst_b = 0.0, 0.0
    cases = []
    for k in range(98):
        n = int(rng.integers(1, 201))
        scale = float(rng.uniform(0.005, 5.0))
        center = rng.uniform(-20, 20, size=2)
        cases.append([Point2(float(x), float(y)) for x, y in rng.laplace(center, scale, size=(n, 2))])
    cases.append([Point2(3.25, -7.5)] * 40)  # all identical: b clamps to B_MIN
    cases.append([Point2(0.0, 0.0)])
    for obs in cases:
        fast = fit_laplace_mle(obs)
        slow = oracle_laplace_fit(obs)
        worst_mu = max(worst_mu, abs(fast.mu.x - slow.mu.x), abs(fast.mu.y - slow.mu.y))
        worst_b = max(worst_b, abs(fast.b[0] - slow.b[0]), abs(fast.b[1] - slow.b[1]))
    degenerate = fit_laplace_mle(cases[-2])
    clamped = degenerate.b == (B_MIN, B_MIN)
    elapsed = time.perf_counter() - start
    report(
        "A2",
        worst_mu <= 1e-6 and worst_b <= 1e-3 and clamped,
        f"100 sets (sizes 1-200): max |d mu| = {worst_mu:.2e}, max |d b| = {worst_b:.2e}, clamp ok = {clamped}",
        elapsed,
        10.0,
    )


# ---------------------------------------------------------------------------
# A3: DACR against the ray-casting oracle


def _min_corner_edge_distance(traj, ego_dims, da):
    dmin = math.inf
    edges = []
    for poly in da.polygons:
        for ring in (poly.outer, *poly.holes):
            edges.extend((ring[k], ring[k + 1]) for k in range(len(ring) - 1))
    per_step = []
    for wp, heading in zip(traj.waypoints, traj.headings):
        step_min = math.inf
        for corner in vehicle_corners(Pose2(wp, heading), ego_dims[0], ego_dims[1]):
            for a, b in edges:
                step_min = min(step_min, dist_point_segment(corner, a, b))
        per_step.append(step_min)
    return per_step


def test_a3_dacr_exactness():
    start = time.perf_counter()
    mismatches = 0
    compared = 0
    for i in range(100):
        kind = ScenarioKind.TURN if i % 2 == 0 else ScenarioKind.STRAIGHT
        s = generate_scenario(kind, GeneratorParams(), 30_000 + i)
        da = s.map.drivable_area
        for cand in s.candidates.for_command(s.command):
            primary = dacr_flags(cand, s.ego_dims, da)
            reference = oracle_dacr_flags(cand, s.ego_dims, da)
            margins = _min_corner_edge_distance(cand, s.ego_dims, da)
            for t in range(T_F):
                if margins[t] < 1e-9:
                    continue  # corner within 1e-9 of an edge: excluded by contract
                compared += 1
                if primary[t] != reference[t]:
                    mismatches += 1

    # hand cases: all-inside -> 0.0; 3 of 6 steps violating -> 0.5
    ring = lambda x0, x1, y0, y1: (
        Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1), Point2(x0, y0),
    )
    wide = MultiPolygon((Polygon(ring(0, 20, -2, 2)),))
    short = MultiPolygon((Polygon(ring(0, 9, -2, 2)),))
    traj = CandidateTrajectory(
        tuple(Point2(2.0 * (t + 1), 0.0) for t in range(T_F)), (0.0,) * T_F, 0.5
    )
    hand_ok = (
        dacr_frame(traj, EGO_DIMS, wide, 6) == 0.0
        and dacr_frame(traj, EGO_DIMS, short, 6) == 0.5
        and all(
            dacr_frame(traj, EGO_DIMS, short, h) == oracle_dacr_flags(traj, EGO_DIMS, short)[:h].count(True) / h
            for h in HORIZON_STEPS
        )
    )
    elapsed = time.perf_counter() - start
    report(
        "A3",
        mismatches == 0 and compared > 2000 and hand_ok,
        f"{compared} step comparisons across 100 scenarios x 5 candidates, {mismatches} mismatches; hand cases ok = {hand_ok}",
        elapsed,
        30.0,
    )


# ---------------------------------------------------------------------------
# A4: selection differential test + invariances


def _random_selection_instance(rng):
    n = int(rng.integers(1, 7))
    confs = []
    for _ in range(n):
        if confs and rng.random() < 0.2:
            confs.append(confs[int(rng.integers(0, len(confs)))])
        else:
            confs.append(float(rng.uniform(0.0, 1.0)))
    speed = float(rng.uniform(2, 8))
    cands = tuple(
        CandidateTrajectory(
            tuple(Point2(speed * 0.5 * (t + 1), float(rng.uniform(-6, 6))) for t in range(T_F)),
            (0.0,) * T_F,
            c,
        )
        for c in confs
    )
    cset = CandidateSet(cands, cands, cands)
    elements = []
    for _ in range(int(rng.integers(1, 3))):
        y = float(rng.uniform(-7, 7))
        b = float(rng.uniform(0.05, 1.5))
        pts = tuple(
            LaplacePoint(Point2(float(rng.uniform(-2, 26)), y + float(rng.uniform(-1, 1))), (b, b))
            for _ in range(int(rng.integers(2, 5)))
        )
        elements.append(MapElement(UncertainPolyline(pts), MapElementKind.BOUNDARY))
    da = MultiPolygon((Polygon((
        Point2(-10, -12), Point2(40, -12), Point2(40, 12), Point2(-10, 12), Point2(-10, -12),
    )),))
    m = UncertainMap(tuple(elements), da)
    agents = []
    for k in range(int(rng.integers(0, 3))):
        x, y = float(rng.uniform(0, 20)), float(rng.uniform(-6, 6))
        poses = tuple(Pose2(Point2(x, y), 0.0) for _ in range(T_F))
        agents.append(AgentPrediction(f"a{k}", (3.5, 1.6), (AgentMode(poses, 0.7),)))
    cfg = SelectionConfig(
        nll_threshold=float(rng.uniform(0.0, 6.0)),
        boundary_clearance=float(rng.uniform(0.0, 1.0)),
        risk_aggregator="min" if rng.random() < 0.5 else "mean",
        enable_uncertainty_filter=bool(rng.random() < 0.5),
        enable_agent_filter=bool(rng.random() < 0.5),
        enable_boundary_filter=bool(rng.random() < 0.5),
    )
    return cset, m, agents, cfg


def test_a4_selection_differential():
    import dataclasses

    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(4004))
    disagreements = 0
    monotonic = True
    rescale_stable = True
    chain = [
        dict(enable_uncertainty_filter=False, enable_agent_filter=False, enable_boundary_filter=False),
        dict(enable_uncertainty_filter=True, enable_agent_filter=False, enable_boundary_filter=False),
        dict(enable_uncertainty_filter=True, enable_agent_filter=True, enable_boundary_filter=False),
        dict(enable_uncertainty_filter=True, enable_agent_filter=True, enable_boundary_filter=True),
    ]
    for i in range(10_000):
        cset, m, agents, cfg = _random_selection_instance(rng)
        rep = ucas_select(cset, Command.GO_STRAIGHT, m, agents, EGO_DIMS, cfg)
        idx = oracle_select(
            cset,
            Command.GO_STRAIGHT,
            cfg,
            risks=[r.risk_nll for r in rep.records],
            agent_flags=[r.agent_collision for r in rep.records],
            boundary_flags=[r.boundary_collision for r in rep.records],
        )
        if idx != rep.chosen_index:
            disagreements += 1
        # positive rescaling of all confidences keeps the winner
        lam = float(rng.uniform(0.05, 0.95))
        scaled = tuple(
            dataclasses.replace(c, confidence=c.confidence * lam)
            for c in cset.go_straight
        )
        rep_scaled = ucas_select(
            CandidateSet(scaled, scaled, scaled), Command.GO_STRAIGHT, m, agents, EGO_DIMS, cfg
        )
        if rep_scaled.chosen_index != rep.chosen_index:
            rescale_stable = False
        # filter monotonicity on a subsample (chain of 4 configs each)
        if i % 10 == 0:
            prev_scores = None
            for toggles in chain:
                c = dataclasses.replace(cfg, **toggles)
                scores = [r.final_score for r in ucas_select(cset, Command.GO_STRAIGHT, m, agents, EGO_DIMS, c).records]
                if prev_scores is not None and any(s > p + 1e-15 for s, p in zip(scores, prev_scores)):
                    monotonic = False
                prev_scores = scores
    elapsed = time.perf_counter() - start
    report(
        "A4",
        disagreements == 0 and monotonic and rescale_stable,
        f"10^4 instances: {disagreements} index disagreements; monotonicity = {monotonic}; rescale invariance = {rescale_stable}",
        elapsed,
        20.0,
    )


# ---------------------------------------------------------------------------
# A5-A7: directional effects on the fixed acceptance suite


@pytest.fixture(scope="module")
def acceptance_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    manifest = generate_suite(
        out,
        ACCEPTANCE_COUNT,
        ACCEPTANCE_TURN_FRACTION,
        GeneratorParams(noise_scale=0.5, n_candidates=5),
        master_seed=ACCEPTANCE_SEED,
    )
    gen_seconds = time.perf_counter() - t0
    rows = {}
    eval_seconds = {}
    for preset in ("multimodal", "cas", "ucas"):
        t1 = time.perf_counter()
        _, [(agg, _)] = evaluate_suite(manifest, (preset,), SelectionConfig(), "cumulative")
        rows[preset] = {r.scenario_class: r for r in agg}
        eval_seconds[preset] = time.perf_counter() - t1
    return rows, gen_seconds, eval_seconds


def test_a5_ucas_beats_multimodal(acceptance_rows):
    rows, gen_s, eval_s = acceptance_rows
    mm = rows["multimodal"]["Overall"]
    ucas = rows["ucas"]["Overall"]
    rel = 1.0 - ucas.dacr_avg / mm.dacr_avg if mm.dacr_avg > 0 else float("nan")
    ok = mm.dacr_avg > 0 and rel >= 0.10 and ucas.cr_avg <= mm.cr_avg + 1e-12
    elapsed = gen_s + eval_s["multimodal"] + eval_s["ucas"]
    report(
        "A5",
        ok,
        f"DACR avg {100 * mm.dacr_avg:.2f}% -> {100 * ucas.dacr_avg:.2f}% "
        f"({100 * rel:.0f}% relative drop, need >= 10%); CR {100 * mm.cr_avg:.2f}% -> {100 * ucas.cr_avg:.2f}%",
        elapsed,
        60.0,
    )


def test_a6_uncertainty_filter_beyond_collision(acceptance_rows):
    rows, gen_s, eval_s = acceptance_rows
    cas = rows["cas"]["Overall"]
    ucas = rows["ucas"]["Overall"]
    dacr_lower = ucas.dacr_avg < cas.dacr_avg
    n = cas.n_scenarios
    cr_close = all(
        abs(getattr(ucas, f) - getattr(cas, f)) * n <= 1.0 + 1e-9
        for f in ("cr_1s", "cr_2s", "cr_3s")
    )
    elapsed = gen_s + eval_s["cas"] + eval_s["ucas"]
    report(
        "A6",
        dacr_lower and cr_close,
        f"DACR avg ucas {100 * ucas.dacr_avg:.2f}% < cas {100 * cas.dacr_avg:.2f}%; "
        f"CR within 1 scenario at all horizons = {cr_close}",
        elapsed,
        60.0,
    )


def test_a7_turn_stratum_gains_most(acceptance_rows):
    rows, gen_s, eval_s = acceptance_rows

    def rel_improvement(stratum):
        mm = rows["multimodal"][stratum]
        ucas = rows["ucas"][stratum]
        if mm.dacr_avg == 0:
            return 0.0 if ucas.dacr_avg == 0 else -math.inf
        return 1.0 - ucas.dacr_avg / mm.dacr_avg

    turn, straight = rel_improvement("Turn"), rel_improvement("Straight")
    report(
        "A7",
        turn > straight,
        f"relative DACR improvement: Turn {100 * turn:.0f}% vs Straight {100 * straight:.0f}%",
        0.0,
        60.0,
    )


# ---------------------------------------------------------------------------
# A8: noiseless single-candidate straight suites are exactly zero


def test_a8_metric_sanity(tmp_path):
    start = time.perf_counter()
    all_zero = True
    for master_seed in (3, 14):
        suite_dir = tmp_path / f"clean{master_seed}"
        manifest = generate_suite(
            suite_dir, 10, 0.0,
            GeneratorParams(noise_scale=0.0, n_candidates=1),
            master_seed=master_seed,
        )
        for convention in ("cumulative", "instantaneous"):
            _, [(rows, _)] = evaluate_suite(manifest, ("ucas",), SelectionConfig(), convention, verify=True)
            for row in rows:
                for f in (
                    "de_1s", "de_2s", "de_3s", "de_avg",
                    "cr_1s", "cr_2s", "cr_3s", "cr_avg",
                    "dacr_1s", "dacr_2s", "dacr_3s", "dacr_avg",
                ):
                    if getattr(row, f) != 0.0:
                        all_zero = False
    elapsed = time.perf_counter() - start
    report("A8", all_zero, "DE = CR = DACR = 0 exactly, both conventions, two noiseless suites", elapsed, 30.0)


# ---------------------------------------------------------------------------
# A9: determinism and round-trip through the CLI


def test_a9_determinism_round_trip(tmp_path):
    start = time.perf_counter()
    gen_args = ["generate", "--count", "10", "--mix", "0.5", "--noise", "0.5", "--seed", "2718", "--out"]
    assert main(gen_args + [str(tmp_path / "sa")]) == 0
    assert main(gen_args + [str(tmp_path / "sb")]) == 0
    files_identical = True
    names = sorted(p.name for p in (tmp_path / "sa").iterdir())
    for name in names:
        if (tmp_path / "sa" / name).read_bytes() != (tmp_path / "sb" / name).read_bytes():
            files_identical = False

    eval_args = ["eval", "--suite", str(tmp_path / "sa" / "manifest.json"), "--verify", "--out"]
    assert main(eval_args + [str(tmp_path / "r1")]) == 0
    assert main(eval_args + [str(tmp_path / "r2")]) == 0
    reports_identical = all(
        (tmp_path / f"r1{suffix}").read_bytes() == (tmp_path / f"r2{suffix}").read_bytes()
        for suffix in (".csv", ".scenarios.csv", ".txt")
    )
    elapsed = time.perf_counter() - start
    report(
        "A9",
        files_identical and reports_identical,
        f"{len(names)} suite files byte-identical across reruns = {files_identical}; "
        f"CSV/table reports byte-identical = {reports_identical}",
        elapsed,
        30.0,
    )
