import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uncplan.geometry import MultiPolygon, Point2, Polygon
from uncplan.map_model import MapElement, MapElementKind, UncertainMap
from uncplan.metrics import dacr_flags
from uncplan.oracles import (
    _oracle_corners,
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


# -- the pruned containment oracle against its all-pairs form --------------------


def allpairs_point_in_da_votes(px, py, da):
    """The oracle's votes with every crossing and cross product evaluated on
    every (point, edge) pair, read where the pair's test passes."""
    px, py = px[:, None], py[:, None]
    on_edge = np.zeros(px.shape[0], dtype=bool)
    inside = np.zeros((4, px.shape[0]), dtype=bool)
    for poly in da.polygons:
        ring_edges = [(r[:-1].astype(np.longdouble), r[1:].astype(np.longdouble)) for r in poly.rings]
        (x1, y1), (x2, y2) = (np.concatenate([e[k] for e in ring_edges]).T for k in (0, 1))
        in_box = (np.minimum(x1, x2) <= px) & (px <= np.maximum(x1, x2))
        in_box &= (np.minimum(y1, y2) <= py) & (py <= np.maximum(y1, y2))
        on_edge |= (in_box & ((x2 - x1) * (py - y1) == (y2 - y1) * (px - x1))).any(axis=1)
        with np.errstate(all="ignore"):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            y_at = y1 + (px - x1) * (y2 - y1) / (x2 - x1)
        across_y, across_x = (y1 > py) != (y2 > py), (x1 > px) != (x2 > px)
        for k, crossed in enumerate((across_y & (px < x_at), across_y & (px > x_at),
                                     across_x & (py < y_at), across_x & (py > y_at))):
            inside[k] |= np.count_nonzero(crossed, axis=1) % 2 == 1
    return np.where(on_edge, 4, inside.sum(axis=0))


def assert_votes_match_allpairs(xy, da):
    px, py = np.asarray(xy, dtype=np.longdouble).T
    got, want = _point_in_da_votes(px, py, da), allpairs_point_in_da_votes(px, py, da)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    return got


def star_ring(cx, cy, radii, phases, cw, grid):
    """Closed star-shaped ring around (cx, cy): vertex k at angle 2 pi (k + phase_k) / n."""
    n = len(radii)
    pts = [(cx + r * math.cos(math.tau * (k + f) / n), cy + r * math.sin(math.tau * (k + f) / n))
           for k, (r, f) in enumerate(zip(radii, phases))]
    if grid:
        pts = [(float(round(x)), float(round(y))) for x, y in pts]
    pts = pts[::-1] if cw else pts
    return np.array(pts + pts[:1])


@st.composite
def star_layouts(draw, grid):
    """1-3 disjoint star-shaped polygons in a row, each with 0-2 star-shaped
    holes; with grid, every vertex is rounded to integers (scaled up so the
    rounding keeps most layouts valid)."""
    scale = 2.0 if grid else 1.0
    polygons = []
    for p in range(draw(st.integers(1, 3))):
        cx, cy = 25.0 * scale * p, draw(st.floats(-3.0, 3.0))
        n = draw(st.integers(10, 16))
        radii = draw(st.lists(st.floats(6.0 * scale, 10.0 * scale), min_size=n, max_size=n))
        phases = draw(st.lists(st.floats(-0.15, 0.15), min_size=n, max_size=n))
        outer = star_ring(cx, cy, radii, phases, cw=False, grid=grid)
        holes = []
        for side in draw(st.sampled_from([(), (-1,), (1,), (-1, 1)])):
            m = draw(st.integers(3, 6))
            radii = draw(st.lists(st.floats(0.5 * scale, 1.2 * scale), min_size=m, max_size=m))
            phases = draw(st.lists(st.floats(-0.15, 0.15), min_size=m, max_size=m))
            holes.append(star_ring(cx + 2.5 * scale * side, cy, radii, phases, cw=True, grid=grid))
        polygons.append((outer, holes))
    try:
        return MultiPolygon(tuple(Polygon(outer, holes) for outer, holes in polygons))
    except ValueError:  # rounding to the grid made a ring or a hole layout invalid
        assume(False)


def ring_points(da):
    """Every vertex of every ring, and points at 1/4, 1/2 and 3/4 along every edge."""
    edges = np.concatenate([r[:-1] for poly in da.polygons for r in poly.rings]), \
        np.concatenate([r[1:] for poly in da.polygons for r in poly.rings])
    a, b = edges
    return np.concatenate([a] + [a + t * (b - a) for t in (0.25, 0.5, 0.75)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(star_layouts(grid=False), st.lists(st.tuples(st.floats(-15.0, 65.0), st.floats(-15.0, 15.0)), max_size=60))
def test_pruned_votes_match_allpairs_on_layouts_with_holes(da, extra):
    xy = np.concatenate([ring_points(da), np.array(extra, dtype=float).reshape(-1, 2)])
    votes = assert_votes_match_allpairs(xy, da)
    assert (votes == 4).any()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(star_layouts(grid=True))
def test_pruned_votes_match_allpairs_on_integer_grid_points(da):
    # integer vertices: the rays of grid points run along edges and through vertices
    edges = np.concatenate([r for poly in da.polygons for r in poly.rings])
    lo, hi = edges.min(axis=0) - 1, edges.max(axis=0) + 1
    gx, gy = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    votes = assert_votes_match_allpairs(np.concatenate([grid, ring_points(da)]), da)
    assert set(votes.tolist()) >= {0, 4}


def test_pruned_votes_match_allpairs_on_hand_layout():
    # axis-parallel edges on the grid lines, a slanted hole and an island in a hole
    def rect(x0, x1, y0, y1, cw=False):
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        ring = ring[::-1] if cw else ring
        return np.array(ring + ring[:1], dtype=float)

    triangle = np.array([(22, -4), (25, 3), (28, -4), (22, -4)], dtype=float)  # clockwise
    da = MultiPolygon((
        Polygon(rect(-4, 40, -9, 9), (rect(4, 16, -5, 5, cw=True), triangle)),
        Polygon(rect(6, 14, -3, 3)),  # island inside the first hole
        Polygon(rect(44, 50, -9, 0)),
    ))
    gx, gy = np.meshgrid(np.arange(-6.0, 53.0, 0.5), np.arange(-11.0, 12.0, 0.5))
    xy = np.concatenate([np.column_stack([gx.ravel(), gy.ravel()]), ring_points(da)])
    votes = assert_votes_match_allpairs(xy, da)
    assert set(votes.tolist()) >= {0, 4}


@pytest.mark.parametrize("n_points", [20, 80])
def test_pruned_votes_match_allpairs_on_every_candidate_corner(n_points):
    params = GeneratorParams(n_element_points=n_points)
    for seed in range(6):
        kind = ScenarioKind.TURN if seed % 2 else ScenarioKind.STRAIGHT
        s = generate_scenario(kind, params, seed)
        corners = []
        for command in Command:
            for cand in s.candidates.for_command(command):
                cx, cy = _oracle_corners(cand, *s.ego_dims)
                corners.append(np.column_stack([cx.ravel(), cy.ravel()]))
        px, py = np.concatenate(corners).T  # long double, as oracle_dacr_flags passes them
        da = s.map.drivable_area
        assert _point_in_da_votes(px, py, da).tolist() == allpairs_point_in_da_votes(px, py, da).tolist()


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
