import numpy as np
import pytest

from uncplan.geometry import MultiPolygon, Point2, Polygon
from uncplan.map_model import MapElement, MapElementKind, UncertainMap
from uncplan.metrics import dacr_flags
from uncplan.oracles import (
    _point_in_da_votes,
    oracle_dacr_flags,
    oracle_laplace_fit,
    oracle_select,
)
from uncplan.scenario import GeneratorParams, ScenarioKind, generate_scenario
from uncplan.selection import (
    T_F,
    CandidateSet,
    CandidateTrajectory,
    Command,
    SelectionConfig,
    ucas_select,
)
from uncplan.uncertainty import LaplacePoint, UncertainPolyline, fit_laplace_mle


def rect_da(x0, x1, y0, y1):
    ring = (
        Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1), Point2(x0, y0),
    )
    return MultiPolygon((Polygon(ring),))


def traj_along_x(speed=4.0, y=0.0):
    wps = tuple(Point2(speed * 0.5 * (t + 1), y) for t in range(T_F))
    return CandidateTrajectory(wps, (0.0,) * T_F, 0.5)


EGO_DIMS = (4.0, 2.0)


def test_oracle_dacr_hand_cases():
    assert oracle_dacr_flags(traj_along_x(), EGO_DIMS, rect_da(0, 20, -2, 2)) == (False,) * 6
    assert oracle_dacr_flags(traj_along_x(), EGO_DIMS, rect_da(0, 9, -2, 2)) == (False,) * 3 + (True,) * 3


def test_points_on_hole_edges_get_every_vote():
    # the rays of points on a hole's edge run along that edge or through its
    # end vertices, where the parity of a ray is not the area's
    outer = rect_da(-4, 40, -9, 9).polygons[0].outer
    hole = tuple(reversed(rect_da(4, 16, -5, 5).polygons[0].outer))
    da = MultiPolygon((Polygon(outer, (hole,)),))
    edge_points = [(5, -5), (4, 0), (16, 3), (10, 5), (4, -5), (16, 5), (-4, 0), (40, 9)]
    inside, outside = [(0, 0), (30, -8)], [(10, 0), (41, 0), (0, 9.5)]
    xs, ys = (np.array(v, dtype=np.longdouble) for v in zip(*edge_points, *inside, *outside))
    votes = _point_in_da_votes(xs, ys, da).tolist()
    assert votes == [4] * len(edge_points) + [4] * len(inside) + [0] * len(outside)
    assert da.contains(np.array(edge_points + inside + outside, dtype=float)).tolist() == [v > 0 for v in votes]


def test_oracle_dacr_agrees_on_generated_scenarios():
    mismatches = 0
    for seed in range(40):
        kind = ScenarioKind.TURN if seed % 2 else ScenarioKind.STRAIGHT
        s = generate_scenario(kind, GeneratorParams(), seed)
        da = s.map.drivable_area
        for cand in s.candidates.for_command(s.command):
            primary = dacr_flags(cand, s.ego_dims, da)
            reference = oracle_dacr_flags(cand, s.ego_dims, da)
            if primary != reference:
                mismatches += 1
    assert mismatches == 0


def test_oracle_dacr_with_holes():
    outer = (
        Point2(-2, -6), Point2(30, -6), Point2(30, 6), Point2(-2, 6), Point2(-2, -6),
    )
    hole = (
        Point2(5.5, -1.5), Point2(5.5, 1.5), Point2(8.5, 1.5), Point2(8.5, -1.5), Point2(5.5, -1.5),
    )  # clockwise
    da = MultiPolygon((Polygon(outer, (hole,)),))
    traj = traj_along_x()  # corners at (wp_x +/- 2, +/-1): some fall inside the hole
    assert dacr_flags(traj, EGO_DIMS, da) == oracle_dacr_flags(traj, EGO_DIMS, da)
    assert any(oracle_dacr_flags(traj, EGO_DIMS, da))


def test_dacr_matches_oracle_across_holes_and_an_island():
    def rect(x0, x1, y0, y1, cw=False):
        ring = (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))
        return tuple(reversed(ring + ring[:1])) if cw else ring + ring[:1]

    # no footprint corner lies exactly on a hole or island edge: the oracle's
    # 4-ray vote does not count every such point as inside
    slanted = (Point2(24.3, -4.1), Point2(27.2, 3.1), Point2(30.1, -4.1), Point2(24.3, -4.1))  # clockwise
    da = MultiPolygon((
        Polygon(rect(-4, 40, -9, 9), (rect(4.3, 16.1, -5.2, 4.9, cw=True), slanted)),
        Polygon(rect(6.1, 13.7, -3.1, 2.9)),  # island inside the first hole
    ))
    flags = []
    for y in np.linspace(-7.0, 7.0, 29):
        for speed in (3.0, 5.0, 9.0):
            for heading in (0.0, 0.2, -0.35):
                wps = tuple(Point2(speed * 0.5 * (t + 1), y + 0.5 * t * heading) for t in range(T_F))
                traj = CandidateTrajectory(wps, (heading,) * T_F, 0.5)
                flags.append(dacr_flags(traj, EGO_DIMS, da))
                assert flags[-1] == oracle_dacr_flags(traj, EGO_DIMS, da)
    steps = [f for row in flags for f in row]
    assert 0 < sum(steps) < len(steps)
    on_island = CandidateTrajectory(tuple(Point2(9.0 + 0.4 * t, 0.0) for t in range(T_F)), (0.0,) * T_F, 0.5)
    in_hole = CandidateTrajectory(tuple(Point2(9.0 + 0.4 * t, -4.15) for t in range(T_F)), (0.0,) * T_F, 0.5)
    assert dacr_flags(on_island, EGO_DIMS, da) == oracle_dacr_flags(on_island, EGO_DIMS, da) == (False,) * T_F
    assert dacr_flags(in_hole, EGO_DIMS, da) == oracle_dacr_flags(in_hole, EGO_DIMS, da) == (True,) * T_F


# -- Laplace fit oracle -------------------------------------------------------


def assert_fits_agree(obs):
    fast = fit_laplace_mle(obs)
    slow = oracle_laplace_fit(obs)
    assert abs(fast.mu.x - slow.mu.x) <= 1e-6
    assert abs(fast.mu.y - slow.mu.y) <= 1e-6
    assert abs(fast.b[0] - slow.b[0]) <= 1e-3
    assert abs(fast.b[1] - slow.b[1]) <= 1e-3


def test_oracle_fit_hand_cases():
    assert_fits_agree([Point2(-1, 0), Point2(0, 0), Point2(1, 0)])
    assert_fits_agree([Point2(2.5, -3.5)] * 7)
    assert_fits_agree([Point2(0.25, 1.5)])
    # even count: flat valley, midpoint convention
    assert_fits_agree([Point2(0, 0), Point2(2, 4)])
    slow = oracle_laplace_fit([Point2(0, 0), Point2(2, 4)])
    assert slow.mu.x == pytest.approx(1.0, abs=1e-6)
    assert slow.mu.y == pytest.approx(2.0, abs=1e-6)


def test_oracle_fit_random_sets():
    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(30):
        n = int(rng.integers(1, 200))
        scale = float(rng.uniform(0.01, 4.0))
        obs = [
            Point2(float(x), float(y))
            for x, y in rng.laplace(rng.uniform(-10, 10), scale, size=(n, 2))
        ]
        assert_fits_agree(obs)


# -- selection oracle ---------------------------------------------------------


def random_instance(rng):
    n = int(rng.integers(1, 7))
    confs = []
    for _ in range(n):
        if confs and rng.random() < 0.2:
            confs.append(confs[int(rng.integers(0, len(confs)))])  # deliberate ties
        else:
            confs.append(float(rng.uniform(0.0, 1.0)))
    cands = []
    speed = float(rng.uniform(2, 8))
    for c in confs:
        y = float(rng.uniform(-6, 6))
        wps = tuple(Point2(speed * 0.5 * (t + 1), y) for t in range(T_F))
        cands.append(CandidateTrajectory(wps, (0.0,) * T_F, c))
    cands = tuple(cands)
    cset = CandidateSet(cands, cands, cands)

    elements = []
    for _ in range(int(rng.integers(1, 3))):
        y = float(rng.uniform(-7, 7))
        b = float(rng.uniform(0.05, 1.5))
        pts = tuple(
            LaplacePoint(Point2(float(rng.uniform(-2, 26)), y + float(rng.uniform(-1, 1))), (b, b))
            for _ in range(int(rng.integers(2, 6)))
        )
        elements.append(MapElement(UncertainPolyline(pts), MapElementKind.BOUNDARY))
    da = rect_da(-10, 40, -12, 12)
    m = UncertainMap(tuple(elements), da)

    from uncplan.scenario import AgentMode, AgentPrediction
    from uncplan.geometry import Pose2

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


def test_oracle_select_differential():
    rng = np.random.Generator(np.random.PCG64(31337))
    for _ in range(2000):
        cset, m, agents, cfg = random_instance(rng)
        report = ucas_select(cset, Command.GO_STRAIGHT, m, agents, EGO_DIMS, cfg)
        idx = oracle_select(
            cset,
            Command.GO_STRAIGHT,
            cfg,
            risks=[r.risk_nll for r in report.records],
            agent_flags=[r.agent_collision for r in report.records],
            boundary_flags=[r.boundary_collision for r in report.records],
        )
        assert idx == report.chosen_index


def test_oracle_select_reads_the_commands_stored_confidences():
    # each command has its own confidences; with every filter off the choice is that command's argmax
    def cands(*confidences):
        return tuple(CandidateTrajectory(traj_along_x().waypoints, (0.0,) * T_F, c) for c in confidences)

    stored = CandidateSet(cands(0.2, 0.7, 0.4), cands(0.9, 0.1, 0.3), cands(0.1, 0.2, 0.6)).head(3)
    off = SelectionConfig(enable_uncertainty_filter=False, enable_agent_filter=False, enable_boundary_filter=False)
    flags = [False] * 3
    for command, best in zip(Command, (1, 0, 2)):
        assert oracle_select(stored, command, off, [0.0] * 3, flags, flags) == best
        assert oracle_select(stored, command.value, off, [0.0] * 3, flags, flags) == best
    assert not {"turn_left", "turn_right", "go_straight"} & set(vars(stored))  # no candidate views built


def test_oracle_select_validates_lengths():
    cands = (traj_along_x(),)
    cset = CandidateSet(cands, cands, cands)
    with pytest.raises(ValueError):
        oracle_select(cset, Command.GO_STRAIGHT, SelectionConfig(), [1.0, 2.0], [False], [False])
