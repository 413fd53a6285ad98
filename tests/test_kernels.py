"""Batched selection and geometry kernels against per-point references.

Each reference below transcribes a scalar formula point by point in plain
Python (math.cos/math.sin per heading, math.log per vertex, math.hypot per
corner and segment, nested loops over edge pairs). The kernels reorder no
arithmetic, so every comparison is exact.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uncplan import geometry
from uncplan.geometry import (
    MultiPolygon,
    OrientedBox,
    Point2,
    Polygon,
    Pose2,
    box_axes,
    box_corners,
    boxes_overlap_batch,
    hypot_near,
    normalize_heading,
    point_in_multipolygon,
)
from uncplan.map_model import MapElement, MapElementKind, UncertainMap
from uncplan.metrics import GroundTruth, collision_rate_frame
from uncplan.scenario import AgentMode, AgentPrediction
from uncplan.selection import (
    T_F,
    CandidateSet,
    CandidateTrajectory,
    Command,
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
            for t, pose in enumerate(mode.trajectory):
                ego = (traj.waypoints[t].x, traj.waypoints[t].y, traj.headings[t]) + EGO_DIMS
                other = (pose.position.x, pose.position.y, pose.heading,
                         agent.dims[0] + 2.0 * margin, agent.dims[1] + 2.0 * margin)
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

    d1, d2, d3, d4 = cross(q1, q2, p1), cross(q1, q2, p2), cross(p1, p2, q1), cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
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
    futures = tuple(tuple(OrientedBox(Point2(b[0], b[1]), b[2], b[3], b[4]) for b in seq) for seq in agent_boxes)
    gt = GroundTruth(tuple(Point2(0.0, 0.0) for _ in range(T_F)), (0.0,) * T_F, futures, wide_da())
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
# starts at x -7.91) that the kernel calls crossing: they are so nearly
# collinear that every cross product rounds to the crossing signs. A
# bounding-box prefilter would change this decision, so the ring check has none.
DISJOINT_BOX_HIT = (
    (-44.081803535446525, 78558.68428490659), (-13.170079193834496, 23479.924592946372),
    (-7.912001523868593, 14111.039401515765), (19.770922766237103, -35214.6183228875),
)


def test_kernel_can_call_a_hit_on_pairs_with_disjoint_boxes():
    p1, p2, q1, q2 = (np.array([v]) for v in DISJOINT_BOX_HIT)
    assert max(p1[0, 0], p2[0, 0]) < min(q1[0, 0], q2[0, 0])
    assert geometry._segments_intersect(p1, p2, q1, q2).tolist() == [True]
    assert ref_segments_intersect(*DISJOINT_BOX_HIT)
    assert geometry._first_crossing(p1, p2, q1, q2) == (0, 0)


@pytest.mark.parametrize("block", [None, 7])
def test_first_crossing_matches_the_unmasked_matrix(monkeypatch, block):
    """The keep mask applied inside the kernel finds the row-major first hit
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
        full = geometry._segments_intersect(a0[:, None], a1[:, None], b0, b1)
        if keep is not None:
            full &= keep(np.arange(len(a0))[:, None], np.arange(len(b0)))
        first = divmod(int(full.argmax()), len(b0)) if full.any() else None
        assert geometry._first_crossing(a0, a1, b0, b1, keep) == first
        found += first is not None
    assert found > 100


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
    xy = np.array([(p.x, p.y) for p in ring])
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
    assert [point_in_multipolygon(p, area) for p in pts[::37]] == expected[::37]


def test_pairwise_kernels_allocate_per_block():
    """The ring check, the clearance kernel and the containment kernel hold
    one block of pairs at a time, so their peak allocation does not grow with
    the number of pairs.
    Temporaries above the allocator's 128 KB mmap threshold would be mapped
    and page-faulted in anew on every call."""
    n = 400
    ring = tuple(Point2(50.0 * math.cos(math.tau * k / n), 50.0 * math.sin(math.tau * k / n)) for k in range(n))
    ring += ring[:1]
    rng = np.random.Generator(np.random.PCG64(7))
    corners = rng.uniform(-50.0, 50.0, size=(20, T_F, 4, 2))
    segments = (np.array([(p.x, p.y) for p in ring[:-1]]), np.array([(p.x, p.y) for p in ring[1:]]))
    tracemalloc.start()
    try:
        area = MultiPolygon((Polygon(ring),))
        _, ring_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _clearance_flags(corners, segments, 1.0)
        _, clearance_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        area.contains(corners.reshape(-1, 2))
        _, containment_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 80k edge pairs and 192k point-segment and point-edge pairs: unblocked,
    # these calls peak at 6.6, 9.2 and 4.7 MB
    assert ring_peak < 512 * 1024
    assert clearance_peak < 512 * 1024
    assert containment_peak < 512 * 1024


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
    assert (geometry._first_crossing(*pa.edges, *pb.edges) is not None) == expected
