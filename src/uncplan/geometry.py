"""2D geometric primitives and queries for planar driving scenes.

Coordinates are ego-frame meters: x forward, y left, headings in radians
counterclockwise from +x. All types are immutable values and all operations
are pure functions, so everything here is safe to use concurrently.

The batched kernels (box corners, separating-axis test, point-to-segment
offsets, segment intersection, point-in-ring) take numpy arrays and decide
bit for bit as the scalar formulas do: trigonometry goes through
`math.cos`/`math.sin` per heading, and distances within a few ulps of a
threshold are recomputed with `math.hypot`, because numpy's versions can
differ from `math`'s in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MIN_VERTEX_SEPARATION = 1e-9  # m, closer consecutive polyline vertices are rejected
MIN_POLYGON_AREA = 1e-12  # m^2, smaller rings are degenerate
_HYPOT_ULPS = 16  # np.hypot and math.hypot are each within 1 ulp; distances this close to a limit are re-decided
# Pairs per block of the pairwise kernels (segment intersection, point-to-segment
# distance, point-in-ring). A float temporary of a block is 32 KB, well under
# the allocator's 128 KB mmap and trim thresholds, so its memory is reused from
# call to call instead of being mapped, page-faulted in and released again
# every time.
_PAIR_BLOCK = 1 << 12


def normalize_heading(theta: float) -> float:
    """Wrap an angle into (-pi, pi]. Values already in range pass through unchanged."""
    if not math.isfinite(theta):
        raise ValueError(f"heading must be finite, got {theta}")
    if -math.pi < theta <= math.pi:
        return theta
    wrapped = theta % math.tau
    if wrapped > math.pi:
        wrapped -= math.tau
    return wrapped


@dataclass(frozen=True)
class Point2:
    """Point in the ground plane, meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Pose2:
    """Position plus heading, heading normalized into (-pi, pi]."""

    position: Point2
    heading: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", normalize_heading(self.heading))


@dataclass(frozen=True)
class Polyline:
    """Open chain of at least two non-coincident vertices."""

    points: tuple[Point2, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        polyline_array(pts)  # raises on fewer than 2 or coincident vertices


@dataclass(frozen=True)
class Polygon:
    """Simple polygon: closed CCW outer ring with optional closed CW hole rings.
    Each hole lies strictly inside the outer ring, and no two rings share a point.

    Rings carry an explicit closing vertex (first == last).
    """

    outer: tuple[Point2, ...]
    holes: tuple[tuple[Point2, ...], ...] = ()

    def __post_init__(self) -> None:
        outer = tuple(self.outer)
        holes = tuple(tuple(h) for h in self.holes)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "holes", holes)
        rim = _validate_ring(outer, want_ccw=True, label="outer")
        # the layout under which even-odd parity over all rings is the polygon's area
        for i, hole in enumerate(holes):
            edges = _validate_ring(hole, want_ccw=False, label=f"hole {i}")
            if _first_crossing(*rim, *edges) is not None or not _ring_hits(edges[0][:1], *rim)[0]:
                raise ValueError(f"hole {i} is not strictly inside the outer ring")
            for j in range(i):
                if _regions_meet((holes[j],), (hole,)):
                    raise ValueError(f"holes {j} and {i} are not disjoint")


@dataclass(frozen=True)
class MultiPolygon:
    """Disjoint collection of polygons, e.g. a drivable area."""

    polygons: tuple[Polygon, ...]

    def __post_init__(self) -> None:
        polys = tuple(self.polygons)
        object.__setattr__(self, "polygons", polys)
        if not polys:
            raise ValueError("multipolygon needs at least one polygon")
        rings = [(p.outer, *p.holes) for p in polys]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                if _regions_meet(rings[i], rings[j]):
                    raise ValueError(f"polygons {i} and {j} are not disjoint")


@dataclass(frozen=True)
class OrientedBox:
    """Rectangular footprint: center, heading and full length/width in meters."""

    center: Point2
    heading: float
    length: float
    width: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.heading):
            raise ValueError(f"heading must be finite, got {self.heading}")
        if not (0 < self.length < math.inf and 0 < self.width < math.inf):
            raise ValueError(f"box dimensions must be positive and finite, got {self.length} x {self.width}")


# ---------------------------------------------------------------------------
# ring validation helpers


def _xy(points: Sequence[Point2]) -> np.ndarray:
    """(n, 2) coordinate array of a point sequence."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def _cross(ox, oy, ax, ay, bx, by):
    """z component of (a - o) x (b - o); floats or broadcasting arrays."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _in_bbox(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether p lies in the bounding box of a and b (closed), for (..., 2) arrays that broadcast."""
    return ((np.minimum(a, b) <= p) & (p <= np.maximum(a, b))).all(axis=-1)


def _segments_intersect(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Whether closed segments p1-p2 and q1-q2 share any point (touching counts),
    for (..., 2) endpoint arrays that broadcast."""
    d1, d2, d3, d4 = (
        _cross(o1[..., 0], o1[..., 1], o2[..., 0], o2[..., 1], r[..., 0], r[..., 1])
        for o1, o2, r in ((q1, q2, p1), (q1, q2, p2), (p1, p2, q1), (p1, p2, q2))
    )
    hit = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
    # an endpoint on the other segment's line: rare, so the bounding-box test runs on those pairs only
    k = np.nonzero((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0))
    if k[0].size:
        e1, e2, f1, f2 = (np.broadcast_to(v, hit.shape + (2,))[k] for v in (p1, p2, q1, q2))
        hit[k] |= (
            ((d1[k] == 0) & _in_bbox(f1, f2, e1))
            | ((d2[k] == 0) & _in_bbox(f1, f2, e2))
            | ((d3[k] == 0) & _in_bbox(e1, e2, f1))
            | ((d4[k] == 0) & _in_bbox(e1, e2, f2))
        )
    return hit


def _first_crossing(a0, a1, b0, b1, keep=None) -> tuple[int, int] | None:
    """First (i, j) in row-major order at which segment a0[i]-a1[i] meets
    segment b0[j]-b1[j] and keep(i, j) holds, or None. Rows go in blocks of
    at most _PAIR_BLOCK pairs, so the temporaries stay small however long the
    rings are."""
    rows = max(1, _PAIR_BLOCK // len(b0))
    j = np.arange(len(b0))
    for start in range(0, len(a0), rows):
        i = np.arange(start, min(start + rows, len(a0)))[:, None]
        hit = _segments_intersect(a0[i], a1[i], b0, b1)
        if keep is not None:
            hit &= keep(i, j)
        if hit.any():
            k = int(hit.argmax())
            return start + k // len(b0), k % len(b0)
    return None


def _ring_signed_area(ring: tuple[Point2, ...]) -> float:
    acc = 0.0
    for k in range(len(ring) - 1):
        a, b = ring[k], ring[k + 1]
        acc += a.x * b.y - b.x * a.y
    return 0.5 * acc


def _validate_ring(ring: tuple[Point2, ...], want_ccw: bool, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Check one closed ring and return its edges' start and end points."""
    if len(ring) < 4:
        raise ValueError(f"{label} ring needs at least 4 vertices including the closing one")
    if ring[0].x != ring[-1].x or ring[0].y != ring[-1].y:
        raise ValueError(f"{label} ring is not closed (first vertex != last vertex)")
    area = _ring_signed_area(ring)
    if abs(area) < MIN_POLYGON_AREA:
        raise ValueError(f"{label} ring is degenerate (area {abs(area):.3e} m^2)")
    if (area > 0) != want_ccw:
        want = "counterclockwise" if want_ccw else "clockwise"
        raise ValueError(f"{label} ring must be {want}")
    edges = _edges(ring)
    last = len(ring) - 2
    # adjacent edges legitimately share a vertex: pairs start at j = i + 2 and skip (0, last)
    crossing = _first_crossing(*edges, *edges, lambda i, j: (j >= i + 2) & ((i != 0) | (j != last)))
    if crossing is not None:
        raise ValueError(f"{label} ring is self-intersecting (edges {crossing[0]} and {crossing[1]})")
    return edges


def _edges(*rings: Sequence[Point2]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points (E, 2) of the edges of closed rings, ring after ring."""
    xy = [_xy(ring) for ring in rings]
    return np.concatenate([r[:-1] for r in xy]), np.concatenate([r[1:] for r in xy])


def _regions_meet(a: Sequence[tuple[Point2, ...]], b: Sequence[tuple[Point2, ...]]) -> bool:
    """Whether the closed regions bounded by the rings a and b share a point:
    an edge of one meets an edge of the other, or one region holds the
    other's first vertex."""
    ea, eb = _edges(*a), _edges(*b)
    if _first_crossing(*ea, *eb) is not None:
        return True
    return bool(_ring_hits(eb[0][:1], *ea)[0] or _ring_hits(ea[0][:1], *eb)[0])


# ---------------------------------------------------------------------------
# oriented boxes

_SIGN_X = np.array([1.0, -1.0, -1.0, 1.0])  # corner order: front-left, rear-left, rear-right, front-right
_SIGN_Y = np.array([1.0, 1.0, -1.0, -1.0])


def _normalized(headings: np.ndarray) -> np.ndarray:
    """normalize_heading, elementwise; headings already in range pass through."""
    outside = ~((headings > -math.pi) & (headings <= math.pi))
    if outside.any():
        headings = headings.copy()
        headings[outside] = [normalize_heading(h) for h in headings[outside].tolist()]
    return headings


def _trig(headings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """math.cos and math.sin of every heading (np.cos/np.sin may differ in the last bit)."""
    flat = headings.ravel().tolist()
    cos = np.array([math.cos(h) for h in flat], dtype=float).reshape(headings.shape)
    sin = np.array([math.sin(h) for h in flat], dtype=float).reshape(headings.shape)
    return cos, sin


def box_corners(centers: np.ndarray, headings: np.ndarray, length, width) -> np.ndarray:
    """Corners (..., 4, 2) of boxes centred at centers (..., 2) with headings
    (...), counterclockwise from front-left: vehicle_corners, batched and
    bit-identical to it. length and width broadcast against headings."""
    lengths, widths = np.asarray(length, dtype=float), np.asarray(width, dtype=float)
    if not ((0 < lengths) & (lengths < math.inf)).all() or not ((0 < widths) & (widths < math.inf)).all():
        raise ValueError(f"vehicle dimensions must be positive and finite, got {length} x {width}")
    c, s = _trig(_normalized(np.asarray(headings, dtype=float)))
    c, s = c[..., None], s[..., None]
    lx = (0.5 * lengths)[..., None] * _SIGN_X
    ly = (0.5 * widths)[..., None] * _SIGN_Y
    px, py = centers[..., 0, None], centers[..., 1, None]
    return np.stack((px + c * lx - s * ly, py + s * lx + c * ly), axis=-1)


def box_axes(headings: np.ndarray) -> np.ndarray:
    """Edge normals (..., 2, 2) of boxes with the given raw headings, the axes
    the separating-axis test projects on: (cos, sin) and (-sin, cos)."""
    c, s = _trig(np.asarray(headings, dtype=float))
    axes = np.empty(c.shape + (2, 2))
    axes[..., 0, 0], axes[..., 0, 1], axes[..., 1, 0], axes[..., 1, 1] = c, s, -s, c
    return axes


def boxes_overlap_batch(corners_a, axes_a, corners_b, axes_b) -> np.ndarray:
    """Separating-axis test between boxes a and b given by box_corners and
    box_axes, batched over leading dimensions that broadcast; touching counts
    as overlap."""
    axes = np.concatenate(np.broadcast_arrays(axes_a, axes_b), axis=-2)[..., None, :]
    pa = corners_a[..., None, :, 0] * axes[..., 0] + corners_a[..., None, :, 1] * axes[..., 1]
    pb = corners_b[..., None, :, 0] * axes[..., 0] + corners_b[..., None, :, 1] * axes[..., 1]
    separated = (pa.max(axis=-1) < pb.min(axis=-1)) | (pb.max(axis=-1) < pa.min(axis=-1))
    return ~separated.any(axis=-1)


def vehicle_corners(pose: Pose2, length: float, width: float) -> list[Point2]:
    """Footprint corners in counterclockwise order starting at front-left."""
    xy = box_corners(np.array([[pose.position.x, pose.position.y]]), np.array([pose.heading]), length, width)
    return [Point2(x, y) for x, y in xy[0].tolist()]


# ---------------------------------------------------------------------------
# containment


def _ring_hits(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per point of points (N, 2), against the edges a[j]-b[j] (E, 2): whether
    it lies on an edge, or the ray from it along +x crosses an odd number of
    edges. Points go in blocks of at most _PAIR_BLOCK point-edge pairs."""
    (ax, ay), (bx, by) = a.T, b.T
    rows = max(1, _PAIR_BLOCK // len(ax))
    hit = np.empty(len(points), dtype=bool)
    # x_at is only read where the edge straddles the ray (by != ay); overflow gives inf as in Python
    with np.errstate(all="ignore"):
        for start in range(0, len(points), rows):
            p = points[start:start + rows]
            px, py = p[:, 0, None], p[:, 1, None]
            on = ((_cross(ax, ay, bx, by, px, py) == 0.0) & _in_bbox(a, b, p[:, None])).any(axis=1)
            x_at = ax + (py - ay) * (bx - ax) / (by - ay)
            hit[start:start + rows] = on | np.logical_xor.reduce(((ay > py) != (by > py)) & (px < x_at), axis=1)
    return hit


def points_in_polygons(points: np.ndarray, polygons: Sequence[Polygon]) -> np.ndarray:
    """Per point of points (N, 2): closed-set containment in any of the
    polygons, decided by even-odd parity over the edges of all their rings,
    with every boundary point inside. Parity gives the union because the
    polygons are disjoint and their holes lie strictly inside their outer
    rings, as MultiPolygon and Polygon require."""
    return _ring_hits(points, *_edges(*(ring for poly in polygons for ring in (poly.outer, *poly.holes))))


def point_in_multipolygon(p: Point2, area: MultiPolygon) -> bool:
    """Closed-set containment: points on any boundary count as inside."""
    return bool(points_in_polygons(np.array([[p.x, p.y]]), area.polygons)[0])


# ---------------------------------------------------------------------------
# distances


def segment_offsets(px, py, ax, ay, bx, by):
    """Offset (dx, dy) of p from its closest point on the closed segment a-b;
    floats or broadcasting arrays."""
    abx, aby = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    t = (apx * abx + apy * aby) / (abx * abx + aby * aby)
    t = np.clip(t, 0.0, 1.0) if isinstance(t, np.ndarray) else min(max(t, 0.0), 1.0)
    return apx - t * abx, apy - t * aby


def hypot_near(dx: np.ndarray, dy: np.ndarray, limit: float) -> np.ndarray:
    """np.hypot(dx, dy), with every entry within a few ulps of limit recomputed
    by math.hypot, so comparisons against limit decide as math.hypot would."""
    d = np.hypot(dx, dy)
    near = np.flatnonzero(np.abs(d - limit) <= _HYPOT_ULPS * math.ulp(limit))
    if near.size:
        fx, fy = (np.broadcast_to(v, d.shape).ravel() for v in (dx, dy))
        flat = d.reshape(-1)
        for k in near.tolist():
            flat[k] = math.hypot(fx[k], fy[k])
    return d


def near_segments(points: np.ndarray, a: np.ndarray, b: np.ndarray, limit: float) -> np.ndarray:
    """Per point of points (N, 2): whether it lies strictly closer than limit
    to any closed segment a[j]-b[j] (S, 2), or on one. Points go in blocks of
    at most _PAIR_BLOCK point-segment pairs."""
    (ax, ay), (bx, by) = a.T, b.T
    rows = max(1, _PAIR_BLOCK // len(ax))
    near = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), rows):
        p = points[start:start + rows]
        d = hypot_near(*segment_offsets(p[:, 0, None], p[:, 1, None], ax, ay, bx, by), limit)
        near[start:start + rows] = ((d < limit) | (d == 0.0)).any(axis=1)
    return near


def polyline_array(points: Sequence[Point2]) -> np.ndarray:
    """(n, 2) vertices of a valid polyline: at least two, and no two
    consecutive ones closer than MIN_VERTEX_SEPARATION."""
    xy = _xy(points)
    if len(xy) < 2:
        raise ValueError("polyline needs at least 2 points")
    step = xy[1:] - xy[:-1]
    coincident = np.flatnonzero(hypot_near(step[:, 0], step[:, 1], MIN_VERTEX_SEPARATION) <= MIN_VERTEX_SEPARATION)
    if coincident.size:
        k = int(coincident[0])
        raise ValueError(f"polyline vertices {k} and {k + 1} are coincident")
    return xy


def dist_point_segment(p: Point2, a: Point2, b: Point2) -> float:
    """Euclidean distance from p to the closed segment a-b."""
    return math.hypot(*segment_offsets(p.x, p.y, a.x, a.y, b.x, b.y))
