"""Batched selection and geometry kernels against per-point references.

Each reference below transcribes a scalar formula point by point in plain
Python (math.cos/math.sin per heading, math.log per vertex, math.hypot per
corner and segment, nested loops over edge pairs). The kernels reorder no
arithmetic, so every comparison is exact.
"""

import itertools
import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uncplan import geometry
from uncplan.geometry import (
    MultiPolygon,
    Point2,
    Polygon,
    Pose2,
    box_axes,
    box_corners,
    boxes_overlap_batch,
    hypot_near,
    near_segments,
    normalize_heading,
)
from uncplan.map_model import MapElement, MapElementKind, UncertainMap, boundary_elements
from uncplan.metrics import GroundTruth, _collision_steps, collision_rate_frame, dacr_flags
from uncplan.scenario import AgentMode, AgentPrediction, GeneratorParams, ScenarioKind, generate_scenario
from uncplan.selection import (
    T_F,
    CandidateSet,
    CandidateTrajectory,
    Command,
    FilterValues,
    SelectionConfig,
    _clearance_flags,
    agent_collision_check,
    boundary_collision_check,
    trajectory_risk,
    ucas_select,
)
from uncplan.uncertainty import LaplacePoint, UncertainPolyline

EGO_DIMS = (4.0, 2.0)
# whole trajectories and maps per example: large inputs by Hypothesis' measure
KERNEL_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.large_base_example, HealthCheck.too_slow]
)

# -- per-point references -------------------------------------------------------


def ref_corners(x, y, heading, length, width):
    h = normalize_heading(heading)
    hl, hw = 0.5 * length, 0.5 * width
    c, s = math.cos(h), math.sin(h)
    return [(x + c * lx - s * ly, y + s * lx + c * ly) for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def ref_overlap(a, b):
    """Boxes as (x, y, heading, length, width); axes from the raw headings."""
    ca, cb = ref_corners(*a), ref_corners(*b)
    for heading in (a[2], b[2]):
        c, s = math.cos(heading), math.sin(heading)
        for ax, ay in ((c, s), (-s, c)):
            pa = [px * ax + py * ay for px, py in ca]
            pb = [px * ax + py * ay for px, py in cb]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True


def ref_dist(p, a, b):
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    t = (apx * abx + apy * aby) / (abx * abx + aby * aby)
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(apx - t * abx, apy - t * aby)


def ref_risk(traj, elements, aggregator):
    per_waypoint = []
    for w in traj.waypoints:
        best = math.inf
        for el in elements:
            for lp in el.points:
                b1, b2 = lp.b
                nll = math.log(2.0 * b1) + abs(w.x - lp.mu.x) / b1 + math.log(2.0 * b2) + abs(w.y - lp.mu.y) / b2
                best = min(best, nll)
        per_waypoint.append(best)
    return min(per_waypoint) if aggregator == "min" else sum(per_waypoint) / len(per_waypoint)


def ref_agent_flag(traj, agents, margin, all_modes):
    for agent in agents:
        modes = agent.modes if all_modes else (max(agent.modes, key=lambda m: m.confidence),)
        for mode in modes:
            for t, (x, y, heading) in enumerate(mode.poses.tolist()):
                ego = (traj.waypoints[t].x, traj.waypoints[t].y, traj.headings[t]) + EGO_DIMS
                other = (x, y, heading, agent.dims[0] + 2.0 * margin, agent.dims[1] + 2.0 * margin)
                if ref_overlap(ego, other):
                    return True
    return False


def ref_clearance_flag(traj, lines, clearance):
    for w, h in zip(traj.waypoints, traj.headings):
        for corner in ref_corners(w.x, w.y, h, *EGO_DIMS):
            for line in lines:
                d = min(ref_dist(corner, line[k], line[k + 1]) for k in range(len(line) - 1))
                if d < clearance or d == 0.0:
                    return True
    return False


def ref_segments_intersect(p1, p2, q1, q2):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_bbox(a, b, p):
        return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])

    def boxes_meet():
        return all(min(p1[k], p2[k]) <= max(q1[k], q2[k]) and min(q1[k], q2[k]) <= max(p1[k], p2[k]) for k in (0, 1))

    d1, d2, d3, d4 = cross(q1, q2, p1), cross(q1, q2, p2), cross(p1, p2, q1), cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return boxes_meet()
    return (
        (d1 == 0 and on_bbox(q1, q2, p1)) or (d2 == 0 and on_bbox(q1, q2, p2))
        or (d3 == 0 and on_bbox(p1, p2, q1)) or (d4 == 0 and on_bbox(p1, p2, q2))
    )


def ref_first_ring_crossing(ring):
    n = len(ring) - 1
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if ref_segments_intersect(ring[i], ring[i + 1], ring[j], ring[j + 1]):
                return i, j
    return None


def ref_on_ring(p, ring):
    for a, b in zip(ring, ring[1:]):
        if (
            (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) == 0.0
            and min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)
        ):
            return True
    return False


def ref_even_odd(p, ring):
    inside = False
    for a, b in zip(ring, ring[1:]):
        if (a.y > p.y) != (b.y > p.y):
            x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_at:
                inside = not inside
    return inside


def ref_in_area(p, rings):
    """On any ring, or an odd number of crossings summed over all rings."""
    return any(ref_on_ring(p, ring) for ring in rings) or sum(ref_even_odd(p, ring) for ring in rings) % 2 == 1


def ref_in_polygon(p, poly):
    if ref_on_ring(p, poly.outer):
        return True
    if not ref_even_odd(p, poly.outer):
        return False
    for hole in poly.holes:
        if ref_on_ring(p, hole):
            return True
        if ref_even_odd(p, hole):
            return False
    return True


# -- strategies -------------------------------------------------------------------

coord = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)
heading = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([math.pi, -math.pi, 0.0, math.pi / 2, -math.pi / 2]),
)
dim = st.floats(0.1, 8.0, allow_nan=False, allow_infinity=False)
box = st.tuples(coord, coord, heading, dim, dim)


@st.composite
def trajectories(draw, n=st.integers(1, 4)):
    out = []
    for _ in range(draw(n)):
        wps = tuple(Point2(draw(coord), draw(coord)) for _ in range(T_F))
        hds = tuple(draw(heading) for _ in range(T_F))
        out.append(CandidateTrajectory(wps, hds, draw(st.floats(0.0, 1.0))))
    return out


@st.composite
def uncertain_lines(draw, min_points=1):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(min_points, 6))
        pts = []
        while len(pts) < n:
            p = Point2(draw(coord), draw(coord))
            if not pts or math.hypot(p.x - pts[-1].x, p.y - pts[-1].y) > 1e-6:
                pts.append(p)
        b = st.floats(1e-3, 3.0)
        lines.append(UncertainPolyline(tuple(LaplacePoint(p, (draw(b), draw(b))) for p in pts)))
    return lines


@st.composite
def agents(draw):
    out = []
    for k in range(draw(st.integers(0, 3))):
        modes = []
        for conf in draw(st.lists(st.floats(0.05, 0.33), min_size=1, max_size=3)):
            poses = tuple(Pose2(Point2(draw(coord), draw(coord)), draw(heading)) for _ in range(T_F))
            modes.append(AgentMode(poses, conf))
        out.append(AgentPrediction(f"a{k}", (draw(dim), draw(dim)), tuple(modes)))
    return out


def wide_da():
    ring = (Point2(-50, -50), Point2(50, -50), Point2(50, 50), Point2(-50, 50), Point2(-50, -50))
    return MultiPolygon((Polygon(ring),))


# -- boxes and the separating-axis test -------------------------------------------


@given(st.lists(box, min_size=1, max_size=8))
def test_box_corners_match_reference(boxes):
    xy = np.array([(b[0], b[1]) for b in boxes])
    got = box_corners(xy, np.array([b[2] for b in boxes]), np.array([b[3] for b in boxes]), np.array([b[4] for b in boxes]))
    assert got.tolist() == [[list(c) for c in ref_corners(*b)] for b in boxes]


def _frames(boxes):
    h = np.array([b[2] for b in boxes])
    xy = np.array([(b[0], b[1]) for b in boxes])
    return box_corners(xy, h, np.array([b[3] for b in boxes]), np.array([b[4] for b in boxes])), box_axes(h)


@given(st.lists(st.tuples(box, box), min_size=1, max_size=10))
def test_sat_kernel_matches_reference(pairs):
    hit = boxes_overlap_batch(*_frames([a for a, _ in pairs]), *_frames([b for _, b in pairs]))
    assert hit.tolist() == [ref_overlap(a, b) for a, b in pairs]


@pytest.mark.parametrize("rotation", [0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi])
def test_touching_boxes_overlap(rotation):
    c, s = math.cos(rotation), math.sin(rotation)
    rot = lambda x, y: (c * x - s * y, s * x + c * y)  # noqa: E731
    # axis-aligned at rotation 0: shared edge x = 1, shared corner (1, 1), and a gap of one ulp
    cases = [((0.0, 0.0), (2.0, 0.0)), ((0.0, 0.0), (2.0, 2.0)), ((0.0, 0.0), (math.nextafter(2.0, 3.0), 0.0))]
    for (ax, ay), (bx, by) in cases:
        a = (*rot(ax, ay), rotation, 2.0, 2.0)
        b = (*rot(bx, by), rotation, 2.0, 2.0)
        expected = ref_overlap(a, b)
        assert boxes_overlap_batch(*_frames([a]), *_frames([b])).tolist() == [expected]
    exact = ((0.0, 0.0, 0.0, 2.0, 2.0), (2.0, 0.0, 0.0, 2.0, 2.0))
    assert ref_overlap(*exact) and boxes_overlap_batch(*_frames([exact[0]]), *_frames([exact[1]]))[0]


@KERNEL_SETTINGS
@given(trajectories(), agents(), st.floats(0.0, 1.5), st.booleans())
def test_agent_check_matches_reference_with_margin_and_all_modes(cands, agent_list, margin, all_modes):
    expected = [ref_agent_flag(c, agent_list, margin, all_modes) for c in cands]
    assert [agent_collision_check(c, EGO_DIMS, agent_list, margin, all_modes) for c in cands] == expected
    cfg = SelectionConfig(
        agent_margin=margin, check_all_agent_modes=all_modes,
        enable_uncertainty_filter=False, enable_boundary_filter=False,
    )
    s = CandidateSet(tuple(cands), tuple(cands), tuple(cands))
    m = UncertainMap((), wide_da())
    report = ucas_select(s, Command.GO_STRAIGHT, m, agent_list, EGO_DIMS, cfg)
    assert [r.agent_collision for r in report.records] == expected


@KERNEL_SETTINGS
@given(trajectories(), st.lists(st.lists(box, min_size=T_F, max_size=T_F), max_size=3))
def test_collision_rate_matches_per_step_reference(cands, agent_boxes):
    gt = GroundTruth(tuple(Point2(0.0, 0.0) for _ in range(T_F)), agent_boxes, wide_da())
    for traj in cands:
        steps = [
            any(ref_overlap((traj.waypoints[t].x, traj.waypoints[t].y, traj.headings[t]) + EGO_DIMS, seq[t]) for seq in agent_boxes)
            for t in range(T_F)
        ]
        for h in (1, 2, 4, 6):
            assert collision_rate_frame(traj, EGO_DIMS, gt, h, "cumulative") == any(steps[:h])
            assert collision_rate_frame(traj, EGO_DIMS, gt, h, "instantaneous") == steps[h - 1]


# -- risk ---------------------------------------------------------------------------


@KERNEL_SETTINGS
@given(trajectories(), uncertain_lines(), st.sampled_from(["min", "mean"]))
def test_risk_kernel_matches_reference(cands, lines, aggregator):
    expected = [ref_risk(c, lines, aggregator) for c in cands]
    assert [trajectory_risk(c, lines, aggregator) for c in cands] == expected
    cfg = SelectionConfig(risk_aggregator=aggregator, enable_agent_filter=False, enable_boundary_filter=False)
    m = UncertainMap(tuple(MapElement(line, MapElementKind.BOUNDARY) for line in lines), wide_da())
    s = CandidateSet(tuple(cands), tuple(cands), tuple(cands))
    report = ucas_select(s, Command.GO_STRAIGHT, m, [], EGO_DIMS, cfg)
    assert [r.risk_nll for r in report.records] == expected


def test_risk_takes_log_from_math_log():
    rng = np.random.Generator(np.random.PCG64(5))
    b = rng.uniform(1e-3, 3.0, size=20_000)
    differ = b[np.log(2.0 * b) != np.array([math.log(2.0 * v) for v in b])]
    assert differ.size, "expected np.log and math.log to differ somewhere"
    traj = CandidateTrajectory(tuple(Point2(float(t), 0.0) for t in range(T_F)), (0.0,) * T_F, 0.5)
    for scale in differ[:20].tolist():
        # a vertex on a waypoint: the NLL is log(2b) + 0 + log(2b) + 0
        line = UncertainPolyline((LaplacePoint(traj.waypoints[3], (scale, scale)),))
        expected = math.log(2.0 * scale) + 0.0 + math.log(2.0 * scale) + 0.0
        assert trajectory_risk(traj, [line], "min") == expected == ref_risk(traj, [line], "min")


# -- clearance ----------------------------------------------------------------------


@KERNEL_SETTINGS
@given(trajectories(), uncertain_lines(min_points=2), st.floats(0.0, 5.0))
def test_clearance_kernel_matches_reference(cands, lines, clearance):
    mu = [[(lp.mu.x, lp.mu.y) for lp in line.points] for line in lines]
    expected = [ref_clearance_flag(c, mu, clearance) for c in cands]
    polylines = [line.mu_polyline() for line in lines]
    assert [boundary_collision_check(c, EGO_DIMS, polylines, clearance) for c in cands] == expected
    cfg = SelectionConfig(boundary_clearance=clearance, enable_uncertainty_filter=False, enable_agent_filter=False)
    m = UncertainMap(tuple(MapElement(line, MapElementKind.BOUNDARY) for line in lines), wide_da())
    s = CandidateSet(tuple(cands), tuple(cands), tuple(cands))
    report = ucas_select(s, Command.GO_STRAIGHT, m, [], EGO_DIMS, cfg)
    assert [r.boundary_collision for r in report.records] == expected


@pytest.mark.parametrize("gap", [0.3, 0.1, 0.7, 1e-3])
def test_clearance_at_exactly_the_distance_and_one_ulp_either_side(gap):
    # heading 0, waypoints 10 m apart: step 2's front-left corner is (22, 1);
    # a segment centred above it puts that corner at distance fl(1 + gap) - 1
    traj = CandidateTrajectory(tuple(Point2(10.0 * t, 0.0) for t in range(T_F)), (0.0,) * T_F, 0.5)
    y = 1.0 + gap
    line = [(21.0, y), (23.0, y)]
    d = y - 1.0
    polyline = UncertainPolyline(tuple(LaplacePoint(Point2(*p), (0.5, 0.5)) for p in line)).mu_polyline()
    for clearance, flagged in ((d, False), (math.nextafter(d, math.inf), True), (math.nextafter(d, -math.inf), False)):
        assert ref_clearance_flag(traj, [line], clearance) is flagged
        assert boundary_collision_check(traj, EGO_DIMS, [polyline], clearance) is flagged


def _hypot_disagreements(n=40):
    """Offsets (dx, dy) > 0 where np.hypot and math.hypot differ in the last bit."""
    rng = np.random.Generator(np.random.PCG64(11))
    dx, dy = rng.uniform(0.01, 3.0, size=(2, 50_000))
    differ = np.flatnonzero(np.hypot(dx, dy) != np.array([math.hypot(a, b) for a, b in zip(dx, dy)]))
    return [(float(dx[k]), float(dy[k])) for k in differ[:n]]


def test_ties_are_decided_by_math_hypot():
    cases = _hypot_disagreements()
    assert cases, "expected np.hypot and math.hypot to differ somewhere"
    # np.hypot alone would decide some of these ties the other way
    assert any(np.hypot(dx, dy) < math.hypot(dx, dy) for dx, dy in cases)
    far = [(1e3, 1e3)] * 3
    for dx, dy in cases:
        exact = math.hypot(dx, dy)
        for limit in (exact, math.nextafter(exact, math.inf), math.nextafter(exact, -math.inf)):
            got = hypot_near(np.array([dx]), np.array([dy]), limit)[0]
            assert (got < limit) == (exact < limit)
            # the corner sits at (dx, dy) above a segment hanging down from the
            # origin, so its offset to the segment is exactly (dx, dy)
            corners = np.array([[[(dx, dy)] + far]])
            segments = (np.array([[0.0, 0.0]]), np.array([[0.0, -5.0]]))
            assert _clearance_flags(corners, segments, limit) == [exact < limit]
            assert ref_dist((dx, dy), (0.0, 0.0), (0.0, -5.0)) == exact


# -- rings ------------------------------------------------------------------------


def _ring_from(points):
    pts = [Point2(x, y) for x, y in points]
    area = sum(a.x * b.y - b.x * a.y for a, b in zip(pts, pts[1:] + pts[:1]))
    if area < 0:
        pts.reverse()
    return tuple(pts) + (pts[0],)


def _ring_message(ring):
    try:
        Polygon(ring)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=12, unique=True))
def test_ring_check_matches_pair_loop(points):
    # small integer grids make touching and collinear edges common
    ring = _ring_from([(float(x), float(y)) for x, y in points])
    message = _ring_message(ring)
    if message is not None and "self-intersecting" not in message:
        return  # degenerate area: rejected before the pair check
    crossing = ref_first_ring_crossing([(p.x, p.y) for p in ring])
    if crossing is None:
        assert message is None
    else:
        assert message == f"outer ring is self-intersecting (edges {crossing[0]} and {crossing[1]})"


def _reference_faults(rings):
    """Each ring's own fault, or else its first crossing from the pair loop, as Polygon words them."""
    faults = []
    for k, ring in enumerate(rings):
        fault = geometry._ring_fault(ring, k == 0)
        crossing = None if fault else ref_first_ring_crossing(ring.tolist())
        faults.append(fault or (crossing and "is self-intersecting (edges %d and %d)" % crossing))
    return faults


ring_drafts = st.tuples(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10, unique=True),
    st.integers(0, 5),  # 0: the ring turns the wrong way
    st.integers(0, 7),  # 0: the closing vertex is left off
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(ring_drafts, min_size=1, max_size=3), min_size=1, max_size=6))
def test_grouped_ring_validator_equals_per_ring_validation(layout):
    """One polygon_edges call over 1-6 polygons of 1-3 rings each, all on one small integer grid (so
    rings of different polygons cross and touch, and a ring's own touching and collinear edges are
    common), gives each polygon the verdict, first crossing and edges of a call on it alone, and of
    the polygon's checks run on each ring's own fault or first crossing from the pair loop."""
    polygons = []
    for rings in layout:
        polygon = []
        for k, (points, wrong_way, open_ring) in enumerate(rings):
            xy = _xy(_ring_from(points))  # counterclockwise, as an outer ring turns
            xy = xy if (k == 0) == (wrong_way != 0) else xy[::-1]
            polygon.append(np.ascontiguousarray(xy if open_ring else xy[:-1]))
        polygons.append(tuple(polygon))
    grouped = geometry.polygon_edges(polygons)
    for polygon, found in zip(polygons, grouped, strict=True):
        reference = [(fault, (ring[:-1], ring[1:])) for fault, ring in zip(_reference_faults(polygon), polygon)]
        for expected in (*geometry.polygon_edges([polygon]), geometry._polygon_layout(reference)):
            if isinstance(expected, str) or isinstance(found, str):
                assert found == expected
            else:
                assert all(np.array_equal(a, b) for a, b in zip(found, expected, strict=True))


def test_bow_tie_reports_edges_0_and_2():
    # counterclockwise by signed area, so the ring reaches the pair check
    bow_tie = (Point2(0, 0), Point2(2, 2), Point2(2, 0), Point2(0, 3), Point2(0, 0))
    assert ref_first_ring_crossing([(p.x, p.y) for p in bow_tie]) == (0, 2)
    with pytest.raises(ValueError, match=r"^outer ring is self-intersecting \(edges 0 and 2\)$"):
        Polygon(bow_tie)


def test_ring_check_in_small_blocks(monkeypatch):
    """Blocks of a few pairs find the same first crossing as one block."""
    rng = np.random.Generator(np.random.PCG64(3))
    rings = [_ring_from([tuple(p) for p in rng.integers(-5, 6, size=(int(rng.integers(4, 14)), 2)).astype(float)])
             for _ in range(200)]
    whole = [_ring_message(r) for r in rings]
    assert sum(m is not None and "self-intersecting" in m for m in whole) > 20
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 5)
    assert [_ring_message(r) for r in rings] == whole


def _segment_pairs(rng, n):
    """Endpoint arrays (n, 2) of segment pairs: general position, touching at
    an endpoint, sharing a vertex, collinear and overlapping or apart, and
    near-collinear with coordinates of mixed magnitudes."""
    p1, p2, q1, q2 = (rng.uniform(-10.0, 10.0, size=(n, 2)) for _ in range(4))
    kind = rng.integers(0, 5, size=n)
    t = rng.uniform(-0.5, 1.5, size=(n, 1))
    q1 = np.where(kind[:, None] == 1, p1 + t * (p2 - p1), q1)  # an endpoint on the line of p, often on p
    q1 = np.where(kind[:, None] == 2, p2, q1)  # shared vertex
    line = rng.uniform(-1e3, 1e3, size=(n, 1)) * np.array([[1.0, 1e-3]]) + rng.uniform(-9, 9, size=(n, 2))
    along = np.sort(rng.uniform(-50.0, 50.0, size=(n, 4)), axis=1)
    collinear = [line + along[:, k, None] * np.array([1.0, 3.0]) for k in range(4)]
    noise = rng.normal(size=(4, n, 2)) * rng.choice([0.0, 1e-12, 1e-9], size=(n, 1))
    for k, v in enumerate((p1, p2, q1, q2)):
        v[kind >= 3] = (collinear[k] + noise[k])[kind >= 3]
    return p1, p2, q1, q2


def test_segment_kernel_matches_reference_on_hard_pairs():
    rng = np.random.Generator(np.random.PCG64(17))
    p1, p2, q1, q2 = _segment_pairs(rng, 4000)
    hit = geometry._segments_intersect(p1, p2, q1, q2)
    expected = [ref_segments_intersect(*map(tuple, v)) for v in zip(p1, p2, q1, q2)]
    assert hit.tolist() == expected
    assert 0.2 < np.mean(expected) < 0.8


# Two segments whose bounding boxes are disjoint in x (p ends at x -13.17, q
# starts at x -7.91): they are so nearly collinear that every cross product
# rounds to the crossing signs, so only the bounding-box test refuses the hit.
DISJOINT_BOX_HIT = (
    (-44.081803535446525, 78558.68428490659), (-13.170079193834496, 23479.924592946372),
    (-7.912001523868593, 14111.039401515765), (19.770922766237103, -35214.6183228875),
)


def test_kernel_calls_no_hit_on_pairs_with_disjoint_boxes():
    p1, p2, q1, q2 = (np.array([v]) for v in DISJOINT_BOX_HIT)
    assert max(p1[0, 0], p2[0, 0]) < min(q1[0, 0], q2[0, 0])
    d1, d2 = (geometry._cross(*q1[0], *q2[0], *p[0]) for p in (p1, p2))
    d3, d4 = (geometry._cross(*p1[0], *p2[0], *q[0]) for q in (q1, q2))
    assert d1 * d2 < 0 and d3 * d4 < 0  # the crossing signs
    assert geometry._segments_intersect(p1, p2, q1, q2).tolist() == [False]
    assert not ref_segments_intersect(*DISJOINT_BOX_HIT)
    assert not geometry._sets_cross((p1, p2), (q1, q2))
    assert _first_between(p1, p2, q1, q2) is None


def _first(e0, e1, keep):
    """The first of _crossings(e0, e1, keep), or None."""
    return next(iter(geometry._crossings(e0, e1, keep)), None)


def _first_between(a0, a1, b0, b1, keep=None):
    """The row-major first (i, j) at which segment a[i] meets segment b[j] and keep(i, j) holds, or None:
    _crossings over a and b laid end to end, keeping only the pairs that join them."""
    n = len(a0)
    join = lambda i, j: (i < n) & (j >= n) & (True if keep is None else keep(i, j - n))
    first = _first(np.concatenate((a0, b0)), np.concatenate((a1, b1)), join)
    return None if first is None else (first[0], first[1] - n)


def _matrix_first(a0, a1, b0, b1, keep=None):
    """Row-major first hit of the whole pair matrix, masked afterwards."""
    full = geometry._segments_intersect(a0[:, None], a1[:, None], b0, b1)
    if keep is not None:
        full &= keep(np.arange(len(a0))[:, None], np.arange(len(b0)))
    return divmod(int(full.argmax()), len(b0)) if full.any() else None


@pytest.mark.parametrize("block", [None, 7])
def test_first_crossing_matches_the_unmasked_matrix(monkeypatch, block):
    """The keep mask applied to the swept pairs finds the row-major first hit
    of the whole pair matrix masked afterwards."""
    if block is not None:
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(23))
    found = 0
    for _ in range(300):
        p1, p2, q1, q2 = _segment_pairs(rng, int(rng.integers(2, 9)))
        if rng.random() < 0.3:  # the first pair of the matrix
            p1[0], p2[0], q1[0], q2[0] = (np.array(v) for v in DISJOINT_BOX_HIT)
        a0, a1, b0, b1 = p1, p2, np.concatenate([q1, p1]), np.concatenate([q2, p2])
        keep = (lambda i, j: (j >= i + 2) | (j < len(q1))) if rng.random() < 0.5 else None
        first = _matrix_first(a0, a1, b0, b1, keep)
        assert _first_between(a0, a1, b0, b1, keep) == first
        found += first is not None
    assert found > 100


def _xy(points):
    return np.array([(p.x, p.y) for p in points])


def _quarter_turn(xy):
    """xy (..., 2) turned by 90 degrees counterclockwise, (x, y) -> (-y, x): exact."""
    return np.stack((-xy[..., 1], xy[..., 0]), axis=-1)


def _grid_segments(rng, n):
    """Endpoints (n, 2) of segments on a small integer grid, a third of them
    horizontal and a third vertical, so many boxes tie in their low ends."""
    p, q = rng.integers(-3, 4, size=(2, n, 2)).astype(float)
    kind = rng.integers(0, 3, size=n)
    q[kind == 0, 1] = p[kind == 0, 1]
    q[kind == 1, 0] = p[kind == 1, 0]
    return p, q


def _ring_keep(ring):
    """The ring check's mask: adjacent edges, which share a vertex, are skipped."""
    last = len(ring) - 2
    return lambda i, j: (j >= i + 2) & ((i != 0) | (j != last))


@pytest.mark.parametrize("block", [1, 7, None])
def test_sweep_matches_the_masked_matrix(monkeypatch, block):
    """The sweep finds the row-major first hit of the whole masked pair
    matrix where it is easiest to get wrong: boxes that tie in their low ends
    (horizontal and vertical grid segments), sets turned by 90 degrees, a-vs-b
    sets of different sizes, a set against itself, rings under the ring
    check's mask, and every pair of rings of multi-hole polygons and
    multi-polygon areas, shifted onto each other."""
    if block is not None:
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(29))
    found = []
    for _ in range(60):
        a, b = _grid_segments(rng, int(rng.integers(1, 6))), _grid_segments(rng, int(rng.integers(1, 20)))
        keep = (lambda i, j: (j >= i + 2) | (j == 0)) if rng.random() < 0.5 else None
        for a0, a1, b0, b1 in ((*a, *b), tuple(map(_quarter_turn, (*a, *b)))):
            first = _matrix_first(a0, a1, b0, b1, keep)
            assert _first_between(a0, a1, b0, b1, keep) == first
            assert _first_between(b0, b1, b0, b1, keep) == _matrix_first(b0, b1, b0, b1, keep)
            assert _first(b0, b1, lambda i, j: j > i) == _matrix_first(b0, b1, b0, b1, lambda i, j: j > i)
            found.append(first is not None)
    for _ in range(150):
        ring = _xy(_ring_from(rng.integers(-4, 5, size=(int(rng.integers(3, 16)), 2)).tolist()))
        for xy in (ring, _quarter_turn(ring)):
            edges = xy[:-1], xy[1:]
            first = _matrix_first(*edges, *edges, _ring_keep(xy))
            assert _first(*edges, _ring_keep(xy)) == first
            found.append(first is not None)
    # rim-hole and hole-hole pairs, and whole areas against each other
    rings = [(xy[:-1], xy[1:]) for poly in CONTAINMENT_POLYGONS for xy in poly.rings]
    areas = [MultiPolygon(CONTAINMENT_POLYGONS).edges, CONTAINMENT_POLYGONS[0].edges]
    for shift, turn in (((0.0, 0.0), False), ((2.0, 0.0), True), ((-4.0, -2.0), False), ((6.0, 10.0), True)):
        for sets in (rings, areas):
            for ea in sets:
                for eb in sets:
                    eb = tuple(_quarter_turn(v + shift) if turn else v + shift for v in eb)
                    first = _matrix_first(*ea, *eb)
                    assert _first_between(*ea, *eb) == first
                    assert geometry._sets_cross(ea, eb) == (first is not None)
                    found.append(first is not None)
    assert 0.25 < np.mean(found) < 0.75  # hits and misses both common


def test_clearance_in_small_blocks(monkeypatch):
    """Blocks of a few point-segment pairs decide as one block."""
    rng = np.random.Generator(np.random.PCG64(5))
    centers = rng.uniform(-10.0, 10.0, size=(60, 1, 1, 2))
    corners = centers + rng.uniform(-1.0, 1.0, size=(60, T_F, 4, 2))
    segments = tuple(rng.uniform(-10.0, 10.0, size=(2, 3, 2)))
    whole = [_clearance_flags(corners, segments, c) for c in (0.5, 2.0)]
    assert all(0 < sum(flags) < len(flags) for flags in whole)
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 5)
    assert [_clearance_flags(corners, segments, c) for c in (0.5, 2.0)] == whole


def _closed(*xy):
    return tuple(Point2(float(x), float(y)) for x, y in xy + xy[:1])


# outer rings with horizontal, vertical and slanted edges; disjoint clockwise
# holes with edges on the same lines (0 and 1) or slanted (2), and an island
# inside hole 0
CONTAINMENT_POLYGONS = (
    Polygon(
        _closed((0, 0), (12, 0), (12, 4), (10, 10), (0, 10)),
        (
            _closed((2, 2), (2, 5), (5, 5), (5, 2)),
            _closed((6, 2), (6, 4), (8, 4), (8, 2)),
            _closed((7.5, 6.5), (8.5, 8.5), (10, 6.5)),
        ),
    ),
    Polygon(_closed((3, 3), (4, 3), (4, 4), (3, 4))),
    Polygon(_closed((20, 0), (26, 0), (23, 5)), (_closed((22, 1), (23, 3), (24, 1)),)),
)


def ring_edges(ring):
    xy = _xy(ring)
    return xy[:-1], xy[1:]


@pytest.mark.parametrize("block", [None, 50])
def test_containment_kernel_matches_scalar_loops(monkeypatch, block):
    """Grid points at every vertex and on every axis-parallel edge, points
    along the slanted edges, rays through vertices and along horizontal edges."""
    if block is not None:
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    polys = CONTAINMENT_POLYGONS
    rings = [r for poly in polys for r in (poly.outer, *poly.holes)]
    grid = [Point2(x / 4, y / 4) for x in range(-4, 110) for y in range(-4, 44)]
    along = [Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)) for r in rings for a, b in zip(r, r[1:])
             for t in (0.1, 0.25, 1 / 3, 0.5, 0.7)]
    pts = grid + along
    xy = np.array([(p.x, p.y) for p in pts])
    for ring in rings:
        hit = geometry._ring_hits(xy, *ring_edges(ring))
        assert hit.tolist() == [ref_on_ring(p, ring) or ref_even_odd(p, ring) for p in pts]
    expected = [ref_in_area(p, rings) for p in pts]
    # on this layout, parity over all rings is the union of each outer ring minus its holes
    assert expected == [any(ref_in_polygon(p, poly) for poly in polys) for p in pts]
    assert MultiPolygon(polys).contains(xy).tolist() == expected
    assert 0 < sum(expected) < len(expected)
    area = MultiPolygon(polys)
    assert [area.contains(xy[k:k + 1])[0] for k in range(0, len(pts), 37)] == expected[::37]  # one point per call


def _circle(n=400):
    ring = tuple(Point2(50.0 * math.cos(math.tau * k / n), 50.0 * math.sin(math.tau * k / n)) for k in range(n))
    return ring + ring[:1]


def _zigzag(teeth=400):
    """A ring 1000 m tall and `teeth` m wide whose top is a zig-zag: every
    edge overlaps nearly every other on the sweep axis, y."""
    top = [Point2(float(k), 1000.0 if k % 2 == 0 else 1.0) for k in range(teeth, -1, -1)]
    return (Point2(0.0, 0.0), Point2(float(teeth), 0.0), *top, Point2(0.0, 0.0))


def test_sweep_work_grows_with_the_edges_not_their_pairs(monkeypatch):
    """On the dense-map corridor rings and the 400-edge circle, each also
    turned by 90 degrees, the ring check sweeps at most a few pairs per edge
    and hands the kernel fewer still: all E^2/2 pairs, or a sweep along the
    narrow axis of a straight corridor, would fail. The zig-zag is the worst
    case, where the sweep prunes almost nothing."""
    params = GeneratorParams(n_element_points=80)
    rings = [generate_scenario(kind, params, 3).map.drivable_area.polygons[0].rings[0] for kind in ScenarioKind]
    rings.append(_xy(_circle()))
    kernel, tested = geometry._segments_intersect, []

    def counting_kernel(p1, p2, q1, q2):
        tested.append(np.broadcast(p1[..., 0], q1[..., 0]).size)
        return kernel(p1, p2, q1, q2)

    def swept_pairs(xy):
        swept = []

        def keep(i, j):
            swept.append(np.broadcast(i, j).size)
            return _ring_keep(xy)(i, j)

        assert geometry._crossings(xy[:-1], xy[1:], keep) == []
        return sum(swept)

    monkeypatch.setattr(geometry, "_segments_intersect", counting_kernel)
    for xy in rings + [_quarter_turn(xy) for xy in rings]:
        edges = len(xy) - 1
        tested.clear()
        Polygon(xy)
        assert sum(tested) <= 2 * edges
        assert swept_pairs(xy) <= 4 * edges
    zigzag = _xy(_zigzag())
    edges = len(zigzag) - 1
    assert swept_pairs(zigzag) > 0.99 * edges * (edges - 1) / 2


def test_pairwise_kernels_allocate_per_block():
    """The ring check, the clearance kernel and the containment kernel hold
    one block of pairs at a time, so their peak allocation does not grow with
    the number of pairs. The zig-zag ring is the ring check's worst case: the
    sweep generates nearly all of its pairs. So is a clearance of 1 km, whose
    grown boxes keep every corner-segment pair.
    Temporaries above the allocator's 128 KB mmap threshold would be mapped
    and page-faulted in anew on every call."""
    ring, zigzag = _circle(), _zigzag()
    rng = np.random.Generator(np.random.PCG64(7))
    corners = rng.uniform(-50.0, 50.0, size=(20, T_F, 4, 2))
    segments = ring_edges(ring)
    tracemalloc.start()
    try:
        area = MultiPolygon((Polygon(ring),))
        _, ring_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _clearance_flags(corners, segments, 1.0)
        _, clearance_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert all(_clearance_flags(corners, segments, 1e3))
        _, wide_clearance_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        area.contains(corners.reshape(-1, 2))
        _, containment_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        Polygon(zigzag)
        _, zigzag_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 80k edge pairs and 192k point-segment and point-edge pairs: unblocked,
    # these calls peak at 6.6, 9.2 and 4.7 MB, and the zig-zag's 80k swept
    # pairs at 5.0 MB
    assert ring_peak < 512 * 1024
    assert clearance_peak < 512 * 1024
    assert wide_clearance_peak < 512 * 1024
    assert containment_peak < 512 * 1024
    assert zigzag_peak < 512 * 1024


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=6, max_size=6, unique=True))
def test_polygon_edges_touch_matches_pair_loop(points):
    a, b = _ring_from(points[:3]), _ring_from(points[3:])
    if _ring_message(a) or _ring_message(b):
        return
    pa, pb = Polygon(a), Polygon(b)
    expected = any(
        ref_segments_intersect((p.x, p.y), (q.x, q.y), (r.x, r.y), (s.x, s.y))
        for p, q in zip(a, a[1:]) for r, s in zip(b, b[1:])
    )
    assert geometry._sets_cross(pa.edges, pb.edges) == expected


# -- broad phase ------------------------------------------------------------------
# The all-pairs kernels the broad phase replaced, kept here as references only:
# every pair goes through the narrow-phase arithmetic.


def allpairs_near(points, a, b, limit):
    offsets = geometry.segment_offsets(points[:, 0, None], points[:, 1, None], a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    d = hypot_near(*offsets, limit)
    return ((d < limit) | (d == 0.0)).any(axis=1)


def allpairs_ring_hits(points, a, b):
    (ax, ay), (bx, by) = a.T, b.T
    px, py = points[:, 0, None], points[:, 1, None]
    with np.errstate(all="ignore"):
        on = ((geometry._cross(ax, ay, bx, by, px, py) == 0.0) & geometry._in_bbox(a, b, points[:, None])).any(axis=1)
        x_at = ax + (py - ay) * (bx - ax) / (by - ay)
        return on | np.logical_xor.reduce(((ay > py) != (by > py)) & (px < x_at), axis=1)


def allpairs_box_hits(headings, corners, poses, lengths, widths):
    """(K, P, T) separating-axis test of every time-aligned pair."""
    other = box_corners(poses[..., :2], poses[..., 2], lengths, widths)
    return boxes_overlap_batch(corners[:, None], box_axes(headings)[:, None], other[None], box_axes(poses[..., 2])[None])


def checked_modes(agents, margin, all_modes):
    """Poses (P, T, 3) and inflated lengths and widths (P, 1) of the checked agent modes."""
    rows = [(m.poses, a.dims[0] + 2.0 * margin, a.dims[1] + 2.0 * margin) for a in agents
            for m in (a.modes if all_modes else (max(a.modes, key=lambda m: m.confidence),))]
    poses, lengths, widths = zip(*rows)
    return np.stack(poses), np.array(lengths)[:, None], np.array(widths)[:, None]


def allpairs_flags(fv, segments, cfg):
    """Agent and clearance flags of FilterValues fv, from the all-pairs kernels."""
    corners, k = fv.rows[3], len(fv.rows[0])
    poses, lengths, widths = checked_modes(fv.scenes[0][4], cfg.agent_margin, cfg.check_all_agent_modes)
    agent = allpairs_box_hits(fv.rows[1], corners, poses, lengths, widths).reshape(k, -1).any(axis=1)
    clear = allpairs_near(corners.reshape(-1, 2), *segments, cfg.boundary_clearance).reshape(k, -1).any(axis=1)
    return agent.tolist(), clear.tolist()


def boundary_segments(s):
    bounds = boundary_elements(s.map)
    return np.concatenate([b.mu[:-1] for b in bounds]), np.concatenate([b.mu[1:] for b in bounds])


@KERNEL_SETTINGS
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
       st.lists(st.tuples(coord, coord), min_size=2, max_size=12), st.floats(0.0, 30.0))
def test_pruned_kernels_match_all_pairs_on_random_layouts(points, vertices, limit):
    """Points against the segments of a random polyline, and the same rounded
    onto the integer grid, where rays run along edges and through vertices."""
    xy, line = np.array(points), np.array(vertices)
    a, b = line[:-1], line[1:]
    keep = np.hypot(*(b - a).T) > 1e-6  # as polylines have: a zero-length segment has no closest point
    if keep.any():
        assert near_segments(xy, a[keep], b[keep], limit).tolist() == allpairs_near(xy, a[keep], b[keep], limit).tolist()
    assert geometry._ring_hits(xy, a, b).tolist() == allpairs_ring_hits(xy, a, b).tolist()
    grid, ga, gb = np.round(xy), np.round(a), np.round(b)
    assert geometry._ring_hits(grid, ga, gb).tolist() == allpairs_ring_hits(grid, ga, gb).tolist()


@KERNEL_SETTINGS
@given(trajectories(), agents(), st.floats(0.0, 1.5), st.booleans())
def test_box_broad_phase_matches_all_pairs_on_random_layouts(cands, agent_list, margin, all_modes):
    if not agent_list:
        return
    xy, yaw = np.stack([c.xy for c in cands]), np.stack([c.yaw for c in cands])
    corners = box_corners(xy, yaw, *EGO_DIMS)
    poses, lengths, widths = checked_modes(agent_list, margin, all_modes)
    got = geometry.aligned_box_hits(xy, yaw, corners, EGO_DIMS, poses, lengths, widths)
    assert got.tolist() == allpairs_box_hits(yaw, corners, poses, lengths, widths).tolist()


def _ulps_around(value):
    return value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)


@pytest.mark.parametrize("segment", [((0.0, 0.0), (2.0, 0.0)), ((0.0, 0.0), (0.0, 3.0)), ((1.0, -2.0), (4.0, 2.0)),
                                     ((-7.3, 11.9), (-2.1, 9.4))])
@pytest.mark.parametrize("gap", [0.3, 1.0, 5.0, 1e-3])
def test_clearance_broad_phase_at_the_limit(segment, gap):
    """Points at exactly the limit from a segment, with the limit and one ulp
    either side: on the edges of the segment's box grown by the gap, and off
    its corners, both diagonally from an endpoint and at the corner itself."""
    a, b = np.array([segment[0]]), np.array([segment[1]])
    (x0, y0), (x1, y1) = np.minimum(a, b)[0], np.maximum(a, b)[0]
    u = gap / math.sqrt(2.0)
    points = [
        (x0 - gap, y0), (x0, y0 - gap), (x1 + gap, y1), (x1, y1 + gap), (x0 - gap, y1), (x1 + gap, y0),
        (x0 - u, y0 - u), (x1 + u, y1 + u), (x0 - u, y1 + u), (x1 + u, y0 - u),
        (x0 - gap, y0 - gap), (x1 + gap, y1 + gap), (0.5 * (x0 + x1), y1 + gap),
    ]
    for p in points:
        xy, exact = np.array([p]), ref_dist(p, segment[0], segment[1])
        # at its own distance and one ulp either side, and at the gap the points were placed by
        for limit in (*_ulps_around(exact), gap):
            expected = [exact < limit]
            assert near_segments(xy, a, b, limit).tolist() == allpairs_near(xy, a, b, limit).tolist() == expected


def test_clearance_broad_phase_at_limit_zero():
    a, b = np.array([(0.0, 0.0), (1.0, 1.0), (5.0, -3.0)]), np.array([(2.0, 0.0), (3.0, 3.0), (5.0, 4.0)])
    on = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (2.0, 2.0), (3.0, 3.0), (5.0, 0.5), (5.0, 4.0)]
    off = [(1.0, math.ulp(0.0)), (2.0 + math.ulp(2.0), 0.0), (5.0 + math.ulp(5.0), 0.5), (3.0, 3.0 + math.ulp(3.0))]
    xy = np.array(on + off)
    assert near_segments(xy, a, b, 0.0).tolist() == allpairs_near(xy, a, b, 0.0).tolist() == [True] * 7 + [False] * 4


def _corner_to_corner(rotation, dims_a, dims_b, push=0.0):
    """Box b placed along box a's front-left diagonal, turned so that b's
    rear-right corner meets a's front-left one: the centre distance is the sum
    of the half-diagonals (plus push)."""
    (la, wa), (lb, wb) = dims_a, dims_b
    along = rotation + math.atan2(wa, la)
    reach = 0.5 * math.hypot(la, wa) + 0.5 * math.hypot(lb, wb) + push
    return (reach * math.cos(along), reach * math.sin(along), along - math.atan2(wb, lb))


@pytest.mark.parametrize("rotation", [0.0, 0.3, math.pi / 4, 1.0, math.pi / 2, 2.5, -math.pi, 7.0])
@pytest.mark.parametrize("dims_b", [(4.0, 2.0), (4.5, 1.8), (1.0, 3.0)])
def test_boxes_touching_corner_to_corner_reach_the_exact_test(monkeypatch, rotation, dims_b):
    tested = []

    def counting(*frames):
        tested.append(len(frames[0]))
        return boxes_overlap_batch(*frames)

    monkeypatch.setattr(geometry, "boxes_overlap_batch", counting)
    for push in (0.0, math.ulp(10.0), -math.ulp(10.0), 1e-12, -1e-12, 1e-6):
        x, y, turn = _corner_to_corner(rotation, EGO_DIMS, dims_b, push)
        xy, yaw = np.zeros((1, 1, 2)), np.array([[rotation]])
        poses = np.array([[(x, y, turn)]])
        corners = box_corners(xy, yaw, *EGO_DIMS)
        tested.clear()
        got = geometry.aligned_box_hits(xy, yaw, corners, EGO_DIMS, poses, dims_b[0], dims_b[1])
        assert tested == ([] if push > 1e-8 else [1])  # kept by the bounding circles within their slack
        assert got.tolist() == allpairs_box_hits(yaw, corners, poses, *dims_b).tolist()
        assert got[0, 0, 0] == ref_overlap((0.0, 0.0, rotation) + EGO_DIMS, (x, y, turn) + dims_b)


@pytest.mark.parametrize("margin", [0.5, 2.0])
@pytest.mark.parametrize("rotation", [0.0, 0.7, -2.0])
@pytest.mark.parametrize("push", [0.0, -1e-9])
def test_inflated_agent_touching_corner_to_corner_with_all_modes(margin, rotation, push):
    """The touching pose is the agent's less likely mode, so only the
    all-modes check sees it; margin inflates a smaller agent to the touching size."""
    size = (6.0, 5.0)
    touching = _corner_to_corner(rotation, EGO_DIMS, size, push)
    far = (100.0, 100.0, 0.0)
    traj = CandidateTrajectory(tuple(Point2(0.0, 0.0) for _ in range(T_F)), (rotation,) * T_F, 0.5)
    modes = (AgentMode(np.array((far,) * T_F), 0.6), AgentMode(np.array((far,) * 3 + (touching,) + (far,) * 2), 0.3))
    agent = AgentPrediction("a", (size[0] - 2.0 * margin, size[1] - 2.0 * margin), modes)
    for all_modes in (False, True):
        expected = ref_agent_flag(traj, [agent], margin, all_modes)
        assert agent_collision_check(traj, EGO_DIMS, [agent], margin, all_modes) == expected
    assert not ref_agent_flag(traj, [agent], margin, False)
    assert push == 0.0 or ref_agent_flag(traj, [agent], margin, True)  # pushed into each other, they overlap


@pytest.mark.parametrize("params", [GeneratorParams(n_candidates=20), GeneratorParams(n_element_points=80)],
                         ids=["20-candidates", "80-vertices"])
def test_pruned_flags_match_all_pairs_on_generated_scenarios(params):
    scenarios = [generate_scenario(kind, params, seed) for kind in ScenarioKind for seed in range(3)]
    flagged = {"agent": 0, "clear": 0}
    for s in scenarios:
        segments = boundary_segments(s)
        for clearance, margin, all_modes in itertools.product((0.0, 0.3, 1.0, 5.0), (0.0, 0.5, 2.0), (False, True)):
            cfg = SelectionConfig(boundary_clearance=clearance, agent_margin=margin, check_all_agent_modes=all_modes)
            fv = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims)], cfg)
            agent, clear = allpairs_flags(fv, segments, cfg)
            assert (fv.agent_flags[0], fv.boundary_flags[0]) == (agent, clear)
            flagged["agent"] += sum(agent)
            flagged["clear"] += sum(clear)
        gt = s.ground_truth()
        for traj in s.candidates.for_command(s.command):
            corners = box_corners(traj.xy, traj.yaw, *s.ego_dims)
            inside = allpairs_ring_hits(corners.reshape(-1, 2), *gt.drivable_area.edges).reshape(T_F, 4)
            assert dacr_flags(traj, s.ego_dims, gt.drivable_area) == tuple((~inside.all(axis=1)).tolist())
            boxes = gt.agent_boxes
            steps = allpairs_box_hits(traj.yaw[None], corners[None], boxes[..., :3], boxes[..., 3], boxes[..., 4])
            assert _collision_steps(traj, s.ego_dims, gt) == steps[0].any(axis=0).tolist()
    assert all(flagged.values())  # both filters fire somewhere


def test_broad_phase_work_is_a_small_share_of_all_pairs(monkeypatch):
    """On generated wide-candidates and dense-map scenarios the distance
    kernel gets at most 2 % of the K*T*4*S corner-segment pairs, and the
    separating-axis test at most 15 % of the K*T*P time-aligned box pairs."""
    offsets, sat = geometry.segment_offsets, geometry.boxes_overlap_batch
    counts = {"offsets": 0, "sat": 0}

    def counting_offsets(px, *rest):
        counts["offsets"] += np.size(px)
        return offsets(px, *rest)

    def counting_sat(corners_a, *rest):
        counts["sat"] += len(corners_a)
        return sat(corners_a, *rest)

    monkeypatch.setattr(geometry, "segment_offsets", counting_offsets)
    monkeypatch.setattr(geometry, "boxes_overlap_batch", counting_sat)
    for params in (GeneratorParams(n_candidates=20), GeneratorParams(n_element_points=80)):
        counts.update(offsets=0, sat=0)
        all_pairs = {"offsets": 0, "sat": 0}
        for kind in ScenarioKind:
            for seed in range(8):
                s = generate_scenario(kind, params, seed)
                fv = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims)], SelectionConfig())
                fv.boundary_flags, fv.agent_flags
                k, segments = len(fv.rows[0]), len(boundary_segments(s)[0])
                all_pairs["offsets"] += k * T_F * 4 * segments
                all_pairs["sat"] += k * T_F * len(s.agents)
        assert counts["offsets"] <= 0.02 * all_pairs["offsets"]
        assert counts["sat"] <= 0.15 * all_pairs["sat"]
        assert counts["offsets"] > 0 and counts["sat"] > 0


@pytest.mark.parametrize("dims", [(0.0, 2.0), (4.0, -1.0), (math.inf, 2.0), (4.0, math.inf)])
def test_invalid_dimensions_raise_when_no_pair_survives(dims):
    """The bounding circles drop every pair, so no corners are built for the
    agent boxes; the dimensions are still checked."""
    traj = CandidateTrajectory(tuple(Point2(0.0, 0.0) for _ in range(T_F)), (0.0,) * T_F, 0.5)
    far = AgentPrediction("a", (4.5, 2.0), (AgentMode(np.array(((500.0, 500.0, 0.0),) * T_F), 0.9),))
    boxes = (((500.0, 500.0, 0.0, 4.5, 2.0),) * T_F,)
    gt = GroundTruth(traj.waypoints, boxes, wide_da())
    assert not agent_collision_check(traj, EGO_DIMS, [far]) and not collision_rate_frame(traj, EGO_DIMS, gt, T_F)
    with pytest.raises(ValueError, match="dimensions must be positive and finite"):
        agent_collision_check(traj, dims, [far])
    with pytest.raises(ValueError, match="dimensions must be positive and finite"):
        collision_rate_frame(traj, dims, gt, T_F)
    xy, yaw = traj.xy[None], traj.yaw[None]
    with pytest.raises(ValueError, match="dimensions must be positive and finite"):
        geometry.aligned_box_hits(xy, yaw, box_corners(xy, yaw, *EGO_DIMS), EGO_DIMS, far.modes[0].poses[None], *dims)


@pytest.mark.parametrize("margin", [-2.25, -1.0, -5.0, math.inf])
def test_agent_boxes_shrunk_to_nothing_or_unbounded_raise_when_far(margin):
    traj = CandidateTrajectory(tuple(Point2(0.0, 0.0) for _ in range(T_F)), (0.0,) * T_F, 0.5)
    far = AgentPrediction("a", (4.5, 2.0), (AgentMode(np.array(((500.0, 500.0, 0.0),) * T_F), 0.9),))
    with pytest.raises(ValueError, match="dimensions must be positive and finite"):
        agent_collision_check(traj, EGO_DIMS, [far], margin)


# -- grouped kernels --------------------------------------------------------------
# A chunk lays the items of several scenarios end to end and labels each item with
# its scenario. Here every group holds the same layout, as scenarios share the ego
# frame, moved by the group's own offset (0 or up to 1e15 m), and the items of the
# groups are interleaved. A grouped call must give each group what a call on that
# group alone gives, bit for bit, and no pair of two groups may reach a kernel.

offset = st.one_of(st.just(0.0), st.floats(-1e15, 1e15, allow_nan=False), st.sampled_from([1e15, -1e15, 2.0 ** 50]))


def interleaved(data, n, groups):
    """Labels of n items in each of groups groups, shuffled, and each item's
    rank within its group: the item of the layout it copies."""
    labels = np.array(data.draw(st.permutations(np.repeat(np.arange(groups), n).tolist())), dtype=np.intp)
    return labels, np.argsort(np.argsort(labels, kind="stable"), kind="stable") % n


def per_group(labels, alone):
    """alone(g), the result of a call on group g alone, placed at the rows of each group g."""
    out = np.zeros(len(labels), dtype=bool)
    for g in np.unique(labels):
        out[labels == g] = alone(g)
    return out


class PairCheck:
    """_swept_pairs that records every pair it yields and the groups they join."""

    def __init__(self, sweep):
        self.sweep, self.pairs, self.cross = sweep, set(), 0

    def __call__(self, keys, lo, hi, groups=None):
        for i, j in self.sweep(keys, lo, hi, groups):
            if groups is not None:
                self.cross += int((groups[0][i] != groups[1][j]).sum())
            self.pairs.update(zip(i.tolist(), j.tolist()))
            yield i, j


@KERNEL_SETTINGS
@given(st.data(), st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
       st.lists(st.tuples(coord, coord), min_size=2, max_size=8), st.floats(0.0, 30.0), st.sampled_from([None, 3]))
def test_grouped_kernels_equal_per_group_calls(data, points, vertices, limit, block):
    """Grouped sweep pairs are the union of the per-group sweeps; grouped
    near_segments and containment equal per-group calls; no pair of two groups
    reaches the distance or containment arithmetic. The same on integer
    layouts, where rays run along edges and through vertices."""
    for rounded in (False, True):
        xy, line = np.array(points), np.array(vertices)
        if rounded:
            xy, line = np.round(xy), np.round(line)
        keep = np.hypot(*(line[1:] - line[:-1]).T) > 1e-6  # as polylines have: no zero-length segment
        a0, b0 = line[:-1][keep], line[1:][keep]
        if not len(a0):
            continue
        offsets = np.array(data.draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=4)))
        g = len(offsets)
        (point_labels, rank_p), (segment_labels, rank_s) = interleaved(data, len(xy), g), interleaved(data, len(a0), g)
        pts = xy[rank_p] + offsets[point_labels]
        a, b = a0[rank_s] + offsets[segment_labels], b0[rank_s] + offsets[segment_labels]
        moved = (a != b).any(axis=1)  # not a short segment whose ends the offset rounds to one point
        a, b, segment_labels = a[moved], b[moved], segment_labels[moved]
        if not len(a):
            continue
        labels = (point_labels, segment_labels)
        with unittest.mock.patch.object(geometry, "_PAIR_BLOCK", block or geometry._PAIR_BLOCK):
            lo, hi = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
            swept = {(int(i), int(j)) for ii, jj in geometry._swept_pairs(pts[:, 1], lo, hi, labels)
                     for i, j in zip(ii, jj)}
            union = set()
            for group in range(g):
                p_rows, s_rows = np.flatnonzero(point_labels == group), np.flatnonzero(segment_labels == group)
                for ii, jj in geometry._swept_pairs(pts[p_rows, 1], lo[s_rows], hi[s_rows]):
                    union.update(zip(p_rows[ii].tolist(), s_rows[jj].tolist()))
            assert swept == union
            check = PairCheck(geometry._swept_pairs)
            with unittest.mock.patch.object(geometry, "_swept_pairs", check):
                near = near_segments(pts, a, b, limit, labels)
                hits = geometry._ring_hits(pts, a, b, labels)
            assert check.cross == 0
            for got, kernel in ((near, lambda p, s, t: near_segments(p, s, t, limit)), (hits, geometry._ring_hits)):
                alone = per_group(point_labels, lambda grp: kernel(pts[point_labels == grp], a[segment_labels == grp],
                                                                   b[segment_labels == grp]))
                assert got.tolist() == alone.tolist()


@KERNEL_SETTINGS
@given(st.data(), trajectories(), agents(), st.floats(0.0, 1.5), st.booleans())
def test_grouped_box_hits_equal_per_group_calls(data, cands, agent_list, margin, all_modes):
    if not agent_list:
        return
    xy0, yaw0 = np.stack([c.xy for c in cands]), np.stack([c.yaw for c in cands])
    poses0, lengths0, widths0 = checked_modes(agent_list, margin, all_modes)
    offsets = np.array(data.draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=4)))
    g = len(offsets)
    (row_labels, rank_r), (pose_labels, rank_p) = interleaved(data, len(xy0), g), interleaved(data, len(poses0), g)
    xy, yaw = xy0[rank_r] + offsets[row_labels][:, None], yaw0[rank_r]
    poses = poses0[rank_p].copy()
    poses[..., :2] += offsets[pose_labels][:, None]
    lengths, widths = lengths0[rank_p], widths0[rank_p]
    corners = box_corners(xy, yaw, *EGO_DIMS)
    labels = (row_labels, pose_labels)
    k, p = geometry._group_pairs(*labels)  # the pairs the bounding circles, then the separating axes, test
    assert (row_labels[k] == pose_labels[p]).all()
    assert sorted(zip(k.tolist(), p.tolist())) == [(i, j) for i in range(len(xy)) for j in range(len(poses))
                                                   if row_labels[i] == pose_labels[j]]
    got = geometry.aligned_box_hits(xy, yaw, corners, EGO_DIMS, poses, lengths, widths, labels)
    for grp in range(g):
        rows, other = row_labels == grp, pose_labels == grp
        alone = geometry.aligned_box_hits(xy[rows], yaw[rows], corners[rows], EGO_DIMS, poses[other], lengths[other],
                                          widths[other])
        assert got[rows][:, other].tolist() == alone.tolist()
        assert not got[rows][:, ~other].any()
    # every row in group 0, the poses in all groups: the other groups' poses still stay apart
    first = pose_labels == 0
    lone = geometry.aligned_box_hits(xy, yaw, corners, EGO_DIMS, poses, lengths, widths,
                                     (np.zeros(len(xy), dtype=np.intp), pose_labels))
    assert lone[:, first].tolist() == geometry.aligned_box_hits(xy, yaw, corners, EGO_DIMS, poses[first],
                                                                lengths[first], widths[first]).tolist()
    assert not lone[:, ~first].any()


@pytest.mark.parametrize("shift", [0.0, 1e15])
def test_groups_with_identical_geometry_stay_apart(shift):
    """Eight copies of one corridor scenario's corners and boundary segments,
    all at the same coordinates: each copy's clearance and containment come
    out as the scenario's own, and no pair of two copies is swept."""
    s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), 5)
    fv = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims)], SelectionConfig())
    corners = fv.rows[3].reshape(-1, 2) + shift
    a, b = (v + shift for v in boundary_segments(s))
    edges = tuple(v + shift for v in s.map.drivable_area.edges)
    copies = 8
    point_labels = np.repeat(np.arange(copies), len(corners))
    check = PairCheck(geometry._swept_pairs)
    with unittest.mock.patch.object(geometry, "_swept_pairs", check):
        near = near_segments(np.tile(corners, (copies, 1)), np.tile(a, (copies, 1)), np.tile(b, (copies, 1)), 0.3,
                             (point_labels, np.repeat(np.arange(copies), len(a))))
        inside = geometry._ring_hits(np.tile(corners, (copies, 1)), *(np.tile(e, (copies, 1)) for e in edges),
                                     (point_labels, np.repeat(np.arange(copies), len(edges[0]))))
    assert check.cross == 0 and check.pairs
    assert near.tolist() == near_segments(corners, a, b, 0.3).tolist() * copies
    assert inside.tolist() == geometry._ring_hits(corners, *edges).tolist() * copies
    # the first copy's corners alone against every copy's edges: a crossing counted once per copy would even out
    alone = geometry._ring_hits(corners, *(np.tile(e, (copies, 1)) for e in edges),
                                (np.zeros(len(corners), dtype=np.intp), np.repeat(np.arange(copies), len(edges[0]))))
    assert alone.tolist() == geometry._ring_hits(corners, *edges).tolist()


class KernelPairs:
    """A pairwise kernel that counts the pairs it is handed, as the length of its first argument."""

    def __init__(self, kernel):
        self.kernel, self.pairs = kernel, 0

    def __call__(self, first, *args):
        self.pairs += len(first)
        return self.kernel(first, *args)


def test_a_far_group_does_not_widen_the_broad_phase_of_another():
    """Two copies of one corridor scenario's candidates, agent modes and boundary segments, the second moved
    by 1e9 m: one grouped call hands the distance kernel and the box kernel no more pairs than two calls of
    one copy each, and decides as they do. A broad-phase slack scaled by the whole call's largest coordinate
    grew the near copy's boxes by about 1 m, handing the distance kernel 344 pairs instead of 32 + 172 and
    the box kernel 38 instead of 15 + 19."""
    s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), 5)
    xy, headings, dims, corners = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims)],
                                               SelectionConfig()).rows
    poses, lengths, widths = checked_modes(s.agents, 0.0, True)
    a, b = boundary_segments(s)
    shifts = (0.0, 1e9)

    def moved(shift):
        far = poses.copy()
        far[..., :2] += shift
        return xy + shift, headings, corners + shift, far, lengths, widths, a + shift, b + shift

    def calls(*copies, groups=(None, None)):
        """The near_segments and aligned_box_hits results of one call over the copies, and the pairs
        each kernel was handed."""
        xy, headings, corners, poses, lengths, widths, a, b = (np.concatenate(parts) for parts in zip(*copies))
        distance, boxes = KernelPairs(geometry.segment_offsets), KernelPairs(geometry.boxes_overlap_batch)
        with unittest.mock.patch.object(geometry, "segment_offsets", distance), \
                unittest.mock.patch.object(geometry, "boxes_overlap_batch", boxes):
            near = near_segments(corners.reshape(-1, 2), a, b, 0.3, groups[0])
            hits = geometry.aligned_box_hits(xy, headings, corners, dims, poses, lengths, widths, groups[1])
        return near.tolist(), hits.tolist(), distance.pairs, boxes.pairs

    alone = [calls(moved(shift)) for shift in shifts]
    labels = ((np.repeat([0, 1], corners.size // 2), np.repeat([0, 1], len(a))),
              (np.repeat([0, 1], len(xy)), np.repeat([0, 1], len(poses))))
    near, hits, distance_pairs, box_pairs = calls(*map(moved, shifts), groups=labels)
    assert near == alone[0][0] + alone[1][0]
    assert [row[:len(poses)] for row in hits[:len(xy)]] == alone[0][1]
    assert [row[len(poses):] for row in hits[len(xy):]] == alone[1][1]
    assert distance_pairs <= alone[0][2] + alone[1][2] and box_pairs <= alone[0][3] + alone[1][3]
    assert alone[0][2] and alone[0][3]  # the kernels are handed pairs at all
