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
from operator import attrgetter
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


POINT = attrgetter("x", "y")  # a Point2 as a row of numbers


def frozen(values) -> np.ndarray:
    """values as a read-only float array, a copy that later writes to values do not reach."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def row_array(values, *shape: int, row=None) -> np.ndarray:
    """An array, or a sequence read item by item by row(item), as a read-only
    float array of shape (n, *shape) of finite numbers. The items that row
    reads are domain values (Point2, Pose2, ...), which check their own
    numbers are finite; everything else is checked here."""
    numbers = row is None or isinstance(values, np.ndarray)
    arr = frozen(values if numbers else list(map(row, values)))
    arr = arr.reshape(0, *shape) if arr.shape == (0,) else arr
    if arr.shape[1:] != shape or numbers and not np.isfinite(arr).all():
        raise ValueError(f"expected finite numbers in an array of shape (n, *{shape}), got {arr.shape}")
    return arr


def pose_array(poses) -> np.ndarray:
    """Pose2s, or rows (x, y, heading), as a read-only (n, 3) array of rows
    with headings normalized as Pose2 normalizes them."""
    rows = row_array(poses, 3, row=attrgetter("position.x", "position.y", "heading"))
    headings = _normalized(raw := rows[:, 2])
    if headings is not raw:
        rows = np.array(rows)
        rows[:, 2] = headings
        rows.flags.writeable = False
    return rows


def pose_tuple(rows: np.ndarray) -> tuple[Pose2, ...]:
    return tuple(Pose2(Point2(x, y), h) for x, y, h in rows.tolist())


def point_tuple(xy: np.ndarray) -> tuple[Point2, ...]:
    return tuple(Point2(x, y) for x, y in xy.tolist())


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


class ArrayValue:
    """Base of frozen dataclasses that hold their value in read-only arrays.
    Equality compares the instance attributes, arrays elementwise, except the
    fields named in _views: __post_init__ takes those out of the instance,
    and each is built from the arrays when it is first read."""

    _views: dict = {}

    @classmethod
    def _of(cls, **stored):
        """An instance holding stored as it is, unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(stored)
        return self

    def __getattr__(self, name: str):
        if name not in self._views:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = self._views[name](self)
        return value

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _equal(*({k: v for k, v in vars(x).items() if k not in self._views} for x in (self, other)))

    __hash__ = None


@dataclass(frozen=True)
class Polyline:
    """Open chain of at least two non-coincident vertices, also held as an (n, 2) array xy."""

    points: tuple[Point2, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        # raises on fewer than 2 or coincident vertices
        object.__setattr__(self, "xy", polyline_array(row_array(pts, 2, row=POINT)))


@dataclass(frozen=True, init=False, eq=False)
class Polygon(ArrayValue):
    """Simple polygon: closed CCW outer ring with optional closed CW hole rings.
    Each hole lies strictly inside the outer ring, and no two rings share a point.

    Rings carry an explicit closing vertex (first == last). Stored: rings,
    the (n, 2) vertex arrays, outer ring first, and edges, the start and end
    points (E, 2) of the edges of all rings.
    """

    outer: tuple[Point2, ...]
    holes: tuple[tuple[Point2, ...], ...]
    _views = {"outer": lambda p: point_tuple(p.rings[0]), "holes": lambda p: tuple(map(point_tuple, p.rings[1:]))}

    def __init__(self, outer, holes=()) -> None:
        rings = tuple(row_array(ring, 2, row=POINT) for ring in (outer, *holes))
        rim = _validate_ring(rings[0], want_ccw=True, label="outer")
        edges = [rim]
        # the layout under which even-odd parity over all rings is the polygon's area
        for i, hole in enumerate(rings[1:]):
            edges.append(_validate_ring(hole, want_ccw=False, label=f"hole {i}"))
            if _first_crossing(*rim, *edges[-1]) is not None or not _ring_hits(hole[:1], *rim)[0]:
                raise ValueError(f"hole {i} is not strictly inside the outer ring")
            for j in range(i):
                if _regions_meet(edges[j + 1], edges[-1]):
                    raise ValueError(f"holes {j} and {i} are not disjoint")
        self.__dict__.update(rings=rings, edges=_concat(edges))


@dataclass(frozen=True)
class MultiPolygon:
    """Disjoint collection of polygons, e.g. a drivable area. edges holds the
    start and end points (E, 2) of the edges of every ring of every polygon."""

    polygons: tuple[Polygon, ...]

    def __post_init__(self) -> None:
        polys = tuple(self.polygons)
        object.__setattr__(self, "polygons", polys)
        if not polys:
            raise ValueError("multipolygon needs at least one polygon")
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                if _regions_meet(polys[i].edges, polys[j].edges):
                    raise ValueError(f"polygons {i} and {j} are not disjoint")
        object.__setattr__(self, "edges", _concat([p.edges for p in polys]))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Per point of points (N, 2): closed-set containment, decided by
        even-odd parity over the edges of all rings, with every boundary point
        inside. Parity gives the union because the polygons are disjoint and
        their holes lie strictly inside their outer rings."""
        return _ring_hits(points, *self.edges)


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


def _cross(ox, oy, ax, ay, bx, by):
    """z component of (a - o) x (b - o); floats or broadcasting arrays."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _in_bbox(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether p lies in the bounding box of a and b (closed), for (..., 2) arrays that broadcast."""
    return ((np.minimum(a, b) <= p) & (p <= np.maximum(a, b))).all(axis=-1)


def _segments_intersect(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray, keep=True) -> np.ndarray:
    """Whether closed segments p1-p2 and q1-q2 share any point (touching counts),
    for (..., 2) endpoint arrays that broadcast; False wherever the mask keep is."""
    (p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y) = ((v[..., 0], v[..., 1]) for v in (p1, p2, q1, q2))
    # d1..d4 are _cross(q1, q2, p1), _cross(q1, q2, p2), _cross(p1, p2, q1) and _cross(p1, p2, q2), bit
    # for bit: d3 takes the p1 - q1 differences of d1 negated, and IEEE negation commutes with each step
    pdx, pdy, qdx, qdy, dx, dy = p2x - p1x, p2y - p1y, q2x - q1x, q2y - q1y, p1x - q1x, p1y - q1y
    d1, d3 = qdx * dy - qdy * dx, pdy * dx - pdx * dy
    d2, d4 = qdx * (p2y - q1y) - qdy * (p2x - q1x), pdx * (q2y - p1y) - pdy * (q2x - p1x)
    # opposite strict signs on both sides; a NaN or a zero makes a sign product other than negative
    hit = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0) & keep
    # an endpoint on the other segment's line: rare among kept pairs, so the bounding-box test runs on those only
    k = np.nonzero(((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)) & keep)
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
        block = slice(start, start + rows)
        hit = _segments_intersect(a0[block, None], a1[block, None], b0, b1, True if keep is None else keep(i, j))
        if hit.any():
            k = int(hit.argmax())
            return start + k // len(b0), k % len(b0)
    return None


def _ring_signed_area(ring: np.ndarray) -> float:
    xs, ys = ring.T.tolist()
    acc = 0.0
    for k in range(len(xs) - 1):
        acc += xs[k] * ys[k + 1] - xs[k + 1] * ys[k]
    return 0.5 * acc


def _validate_ring(ring: np.ndarray, want_ccw: bool, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Check one closed ring (n, 2) and return its edges' start and end points."""
    if len(ring) < 4:
        raise ValueError(f"{label} ring needs at least 4 vertices including the closing one")
    if (ring[0] != ring[-1]).any():
        raise ValueError(f"{label} ring is not closed (first vertex != last vertex)")
    area = _ring_signed_area(ring)
    if abs(area) < MIN_POLYGON_AREA:
        raise ValueError(f"{label} ring is degenerate (area {abs(area):.3e} m^2)")
    if (area > 0) != want_ccw:
        want = "counterclockwise" if want_ccw else "clockwise"
        raise ValueError(f"{label} ring must be {want}")
    edges = ring[:-1], ring[1:]
    last = len(ring) - 2
    # adjacent edges legitimately share a vertex: pairs start at j = i + 2 and skip (0, last)
    crossing = _first_crossing(*edges, *edges, lambda i, j: (j >= i + 2) & ((i != 0) | (j != last)))
    if crossing is not None:
        raise ValueError(f"{label} ring is self-intersecting (edges {crossing[0]} and {crossing[1]})")
    return edges


def _concat(edges: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays of several rings or polygons, one after the other."""
    if len(edges) == 1:
        return edges[0]
    return np.concatenate([a for a, _ in edges]), np.concatenate([b for _, b in edges])


def _regions_meet(ea: tuple[np.ndarray, np.ndarray], eb: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the closed regions bounded by the ring edges ea and eb share a
    point: an edge of one meets an edge of the other, or one region holds the
    other's first vertex."""
    if _first_crossing(*ea, *eb) is not None:
        return True
    return bool(_ring_hits(eb[0][:1], *ea)[0] or _ring_hits(ea[0][:1], *eb)[0])


# ---------------------------------------------------------------------------
# oriented boxes

_SIGN_X = np.array([1.0, -1.0, -1.0, 1.0])  # corner order: front-left, rear-left, rear-right, front-right
_SIGN_Y = np.array([1.0, 1.0, -1.0, -1.0])


def _normalized(headings: np.ndarray) -> np.ndarray:
    """normalize_heading, elementwise; headings already in range pass through."""
    inside = (headings > -math.pi) & (headings <= math.pi)
    if not inside.all():
        headings = headings.copy()
        headings[~inside] = [normalize_heading(h) for h in headings[~inside].tolist()]
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


def point_in_multipolygon(p: Point2, area: MultiPolygon) -> bool:
    """Closed-set containment: points on any boundary count as inside."""
    return bool(area.contains(np.array([[p.x, p.y]]))[0])


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


def polyline_array(xy: np.ndarray) -> np.ndarray:
    """The vertices (n, 2) of a valid polyline: at least two, and no two
    consecutive ones closer than MIN_VERTEX_SEPARATION."""
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
