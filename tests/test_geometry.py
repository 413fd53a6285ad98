import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uncplan.geometry import (
    MultiPolygon,
    OrientedBox,
    Point2,
    Polygon,
    Polyline,
    Pose2,
    box_axes,
    box_corners,
    boxes_overlap_batch,
    near_segments,
    normalize_heading,
    point_in_multipolygon,
    vehicle_corners,
)

UNIT_SQUARE = MultiPolygon(
    (
        Polygon(
            (
                Point2(0.0, 0.0),
                Point2(1.0, 0.0),
                Point2(1.0, 1.0),
                Point2(0.0, 1.0),
                Point2(0.0, 0.0),
            )
        ),
    )
)


def square_ring(cx, cy, half):
    return (
        Point2(cx - half, cy - half),
        Point2(cx + half, cy - half),
        Point2(cx + half, cy + half),
        Point2(cx - half, cy + half),
        Point2(cx - half, cy - half),
    )


def test_point2_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, float("inf"))


def test_pose_normalizes_heading():
    assert Pose2(Point2(0, 0), 3 * math.pi).heading == pytest.approx(math.pi)
    assert Pose2(Point2(0, 0), -math.pi).heading == pytest.approx(math.pi)
    assert Pose2(Point2(0, 0), 0.25).heading == 0.25


def test_normalize_heading_idempotent_bitwise():
    for theta in (-3.0, -0.1, 0.0, 0.1, 3.0, math.pi):
        assert normalize_heading(normalize_heading(theta)) == normalize_heading(theta)


def test_polyline_rejects_short_and_coincident():
    with pytest.raises(ValueError):
        Polyline((Point2(0, 0),))
    with pytest.raises(ValueError):
        Polyline((Point2(0, 0), Point2(0, 1e-12)))


def test_polygon_validation():
    # not closed
    with pytest.raises(ValueError):
        Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))
    # clockwise outer
    with pytest.raises(ValueError):
        Polygon(tuple(reversed(UNIT_SQUARE.polygons[0].outer)))
    # degenerate sliver
    with pytest.raises(ValueError):
        Polygon((Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(0, 0)))
    # self-intersecting bow tie
    with pytest.raises(ValueError):
        Polygon((Point2(0, 0), Point2(1, 1), Point2(1, 0), Point2(0, 1), Point2(0, 0)))


def cw_square(cx, cy, half):
    return tuple(reversed(square_ring(cx, cy, half)))


@pytest.mark.parametrize(
    "holes, message",
    [
        ((cw_square(5, 5, 3), cw_square(5, 5, 1)), "holes 0 and 1 are not disjoint"),
        ((cw_square(5, 5, 1), cw_square(5, 5, 3)), "holes 0 and 1 are not disjoint"),
        ((cw_square(4, 4, 2), cw_square(6, 6, 2)), "holes 0 and 1 are not disjoint"),
        ((cw_square(3, 3, 1), cw_square(5, 3, 1)), "holes 0 and 1 are not disjoint"),
        ((cw_square(3, 3, 1), cw_square(5, 5, 1)), "holes 0 and 1 are not disjoint"),
        ((cw_square(15, 5, 1),), "hole 0 is not strictly inside the outer ring"),
        ((cw_square(5, 5, 8),), "hole 0 is not strictly inside the outer ring"),
        ((cw_square(1, 5, 1),), "hole 0 is not strictly inside the outer ring"),
        ((cw_square(5, 5, 1), cw_square(9.5, 5, 1)), "hole 1 is not strictly inside the outer ring"),
    ],
    ids=["nested", "inner-first", "overlapping", "edge", "corner", "outside", "around", "touching", "crossing"],
)
def test_polygon_refuses_bad_hole_layouts(holes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Polygon(square_ring(5, 5, 5), holes)


def test_polygon_accepts_disjoint_holes_inside():
    assert len(Polygon(square_ring(5, 5, 5), (cw_square(2, 2, 1), cw_square(7, 7, 1.5))).holes) == 2


def test_multipolygon_rejects_overlapping_parts():
    a = Polygon(square_ring(0.0, 0.0, 1.0))
    b = Polygon(square_ring(0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        MultiPolygon((a, b))
    c = Polygon(square_ring(5.0, 0.0, 1.0))
    assert len(MultiPolygon((a, c)).polygons) == 2


# -- vehicle_corners ---------------------------------------------------------


def corner_set(corners):
    return {(round(c.x, 9), round(c.y, 9)) for c in corners}


def test_vehicle_corners_axis_aligned():
    corners = vehicle_corners(Pose2(Point2(0, 0), 0.0), 4.0, 2.0)
    assert corner_set(corners) == {(2.0, 1.0), (-2.0, 1.0), (-2.0, -1.0), (2.0, -1.0)}
    assert corners[0].x == pytest.approx(2.0) and corners[0].y == pytest.approx(1.0)


def test_vehicle_corners_rotated_90():
    corners = vehicle_corners(Pose2(Point2(0, 0), math.pi / 2), 4.0, 2.0)
    assert corner_set(corners) == {(-1.0, 2.0), (-1.0, -2.0), (1.0, -2.0), (1.0, 2.0)}


def test_vehicle_corners_rejects_bad_dims():
    with pytest.raises(ValueError):
        vehicle_corners(Pose2(Point2(5, 5), 0.0), 0.0, 2.0)


def test_vehicle_corners_ccw_order():
    corners = vehicle_corners(Pose2(Point2(3, -2), 0.7), 4.0, 2.0)
    area = 0.0
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        area += a.x * b.y - b.x * a.y
    assert area > 0  # counterclockwise


@given(
    st.floats(-50, 50), st.floats(-50, 50),
    st.floats(-20, 20),
    st.floats(0.5, 10), st.floats(0.5, 5),
)
def test_vehicle_corners_heading_wrap_invariance(x, y, heading, length, width):
    pose_a = Pose2(Point2(x, y), heading)
    pose_b = Pose2(Point2(x, y), heading + 2 * math.pi)
    ca = vehicle_corners(pose_a, length, width)
    cb = vehicle_corners(pose_b, length, width)
    for p, q in zip(ca, cb):
        assert math.hypot(p.x - q.x, p.y - q.y) < 1e-9


@given(
    st.floats(-50, 50), st.floats(-50, 50),
    st.floats(-20, 20),
    st.floats(0.5, 10), st.floats(0.5, 5),
)
def test_vehicle_corners_equidistant(x, y, heading, length, width):
    corners = vehicle_corners(Pose2(Point2(x, y), heading), length, width)
    expected = math.hypot(length / 2, width / 2)
    for c in corners:
        assert math.hypot(c.x - x, c.y - y) == pytest.approx(expected, abs=1e-9)


# -- containment -------------------------------------------------------------


def test_point_in_unit_square():
    assert point_in_multipolygon(Point2(0.5, 0.5), UNIT_SQUARE)
    assert not point_in_multipolygon(Point2(1.5, 0.5), UNIT_SQUARE)
    assert point_in_multipolygon(Point2(1.0, 0.5), UNIT_SQUARE)  # boundary-inclusive


def test_point_in_polygon_with_hole():
    outer = square_ring(0.0, 0.0, 2.0)
    hole = tuple(reversed(square_ring(0.0, 0.0, 1.0)))
    mp = MultiPolygon((Polygon(outer, (hole,)),))
    assert not point_in_multipolygon(Point2(0.0, 0.0), mp)  # inside the hole
    assert point_in_multipolygon(Point2(1.5, 0.0), mp)  # between hole and outer
    assert point_in_multipolygon(Point2(1.0, 0.0), mp)  # hole boundary is still polygon
    assert point_in_multipolygon(Point2(2.0, 0.0), mp)  # outer boundary


def _winding_number_inside(p, ring):
    """Reference: angle-sum winding number, entirely different route."""
    total = 0.0
    for k in range(len(ring) - 1):
        a, b = ring[k], ring[k + 1]
        a1 = math.atan2(a.y - p.y, a.x - p.x)
        a2 = math.atan2(b.y - p.y, b.x - p.x)
        d = a2 - a1
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return abs(total) > math.pi  # ~2*pi inside, ~0 outside


def _random_star_polygon(rng, n_vertices):
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n_vertices))
    if np.min(np.diff(angles)) < 1e-3:
        return None
    radii = rng.uniform(0.5, 3.0, size=n_vertices)
    cx, cy = rng.uniform(-2, 2, size=2)
    pts = [Point2(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]
    pts.append(pts[0])
    try:
        return Polygon(tuple(pts))
    except ValueError:
        return None


def test_containment_agrees_with_winding_reference():
    rng = np.random.Generator(np.random.PCG64(2024))
    checked = 0
    while checked < 100_000:
        poly = _random_star_polygon(rng, int(rng.integers(5, 12)))
        if poly is None:
            continue
        pts = rng.uniform(-6, 6, size=(40, 2))
        ring = np.array([(p.x, p.y) for p in poly.outer])
        pts = pts[~near_segments(pts, ring[:-1], ring[1:], 1e-9)]  # boundary-degenerate, conventions may differ
        expected = [_winding_number_inside(Point2(x, y), poly.outer) for x, y in pts.tolist()]
        assert MultiPolygon((poly,)).contains(pts).tolist() == expected
        checked += len(pts)


# -- the separating-axis kernel ----------------------------------------------


def _frame(box):
    heading = np.array([box.heading])
    return box_corners(np.array([[box.center.x, box.center.y]]), heading, box.length, box.width), box_axes(heading)


def overlap(a, b):
    return bool(boxes_overlap_batch(*_frame(a), *_frame(b))[0])


def test_boxes_overlap_basics():
    a = OrientedBox(Point2(0, 0), 0.3, 4.0, 2.0)
    assert overlap(a, a)
    b = OrientedBox(Point2(10, 0), 0.0, 1.0, 1.0)
    assert not overlap(OrientedBox(Point2(0, 0), 0.0, 1.0, 1.0), b)


def test_boxes_overlap_touching_counts():
    a = OrientedBox(Point2(0, 0), 0.0, 2.0, 2.0)
    b = OrientedBox(Point2(2.0, 0), 0.0, 2.0, 2.0)
    assert overlap(a, b)


@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-4, 4), st.floats(0.5, 6), st.floats(0.5, 4),
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-4, 4), st.floats(0.5, 6), st.floats(0.5, 4),
)
def test_boxes_overlap_symmetric(x1, y1, h1, l1, w1, x2, y2, h2, l2, w2):
    a = OrientedBox(Point2(x1, y1), h1, l1, w1)
    b = OrientedBox(Point2(x2, y2), h2, l2, w2)
    assert overlap(a, b) == overlap(b, a)


def _box_sample_points(box, n_side=100):
    """Grid plus dense edge samples of a box, for the sampling oracle."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    hl, hw = box.length / 2, box.width / 2
    u = np.linspace(-hl, hl, n_side)
    v = np.linspace(-hw, hw, n_side)
    uu, vv = np.meshgrid(u, v)
    pts = [np.column_stack([uu.ravel(), vv.ravel()])]
    edge_t = np.linspace(-1, 1, 2500)
    pts.append(np.column_stack([edge_t * hl, np.full_like(edge_t, hw)]))
    pts.append(np.column_stack([edge_t * hl, np.full_like(edge_t, -hw)]))
    pts.append(np.column_stack([np.full_like(edge_t, hl), edge_t * hw]))
    pts.append(np.column_stack([np.full_like(edge_t, -hl), edge_t * hw]))
    local = np.vstack(pts)
    world = np.empty_like(local)
    world[:, 0] = box.center.x + c * local[:, 0] - s * local[:, 1]
    world[:, 1] = box.center.y + s * local[:, 0] + c * local[:, 1]
    return world


def _any_point_in_box(points, box):
    c, s = math.cos(box.heading), math.sin(box.heading)
    dx = points[:, 0] - box.center.x
    dy = points[:, 1] - box.center.y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    eps = 1e-12
    return bool(np.any((np.abs(lx) <= box.length / 2 + eps) & (np.abs(ly) <= box.width / 2 + eps)))


def _sat_margin(a, b):
    """Signed separation: positive = gap width, negative = penetration depth."""
    ca, cb = _frame(a)[0][0].tolist(), _frame(b)[0][0].tolist()
    gaps = []
    for box in (a, b):
        c, s = math.cos(box.heading), math.sin(box.heading)
        for ax, ay in ((c, s), (-s, c)):
            pa = [x * ax + y * ay for x, y in ca]
            pb = [x * ax + y * ay for x, y in cb]
            gaps.append(max(min(pb) - max(pa), min(pa) - max(pb)))
    return max(gaps)


def test_boxes_overlap_against_sampling_oracle():
    rng = np.random.Generator(np.random.PCG64(77))
    compared = 0
    for _ in range(1000):
        a = OrientedBox(
            Point2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 3)),
        )
        b = OrientedBox(
            Point2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 3)),
        )
        if abs(_sat_margin(a, b)) < 1e-6:
            continue  # boundary gap too small for the sampling oracle to decide
        oracle = _any_point_in_box(_box_sample_points(a), b) or _any_point_in_box(
            _box_sample_points(b), a
        )
        assert overlap(a, b) == oracle
        compared += 1
    assert compared > 900
