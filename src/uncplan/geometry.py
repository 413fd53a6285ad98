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

A broad phase hands each pairwise kernel only the pairs that can hit (boxes
that meet, a point in a segment's box grown by the clearance, a point in an
edge's y-range, meeting bounding circles), and those pairs are decided as
without it, so no decision changes. The ring checks share one crossing sweep
over one edge set, _crossings, whose box test leaves the segment test no pair
on the benchmark's suites.

The clearance, containment and box kernels also take group labels, one per
item on each side, and pair only items of the same group. A caller lays the
scenarios of a chunk end to end, labels each item with its scenario, and
gets every scenario's values from one call, each as a call on that scenario
alone would give them. Labels that are all 0 (or none) are one group, swept
and paired as without labels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Sequence

import numpy as np

MIN_VERTEX_SEPARATION = 1e-9  # m, closer consecutive polyline vertices are rejected
MIN_POLYGON_AREA = 1e-12  # m^2, smaller rings are degenerate
_HYPOT_ULPS = 16  # np.hypot and math.hypot are each within 1 ulp; distances this close to a limit are re-decided
# Pairs per block of the pairwise kernels (segment intersection, point-to-segment
# distance, point-in-ring), as the sweep yields them. A float temporary of a
# block is 16 KB, well under the allocator's 128 KB mmap and trim thresholds,
# so its memory is reused from call to call instead of being mapped, faulted in
# and released every time; the dozen the distance kernel holds stay ~200 KB.
_PAIR_BLOCK = 1 << 11
# Slack of the clearance and bounding-circle broad phases, relative and per
# metre of the largest coordinate a pair that meets can have, taken from each
# segment or pose alone: rounding moves an offset or a corner by about 1e-15
# of the coordinates, so every pair dropped would be refused.
_BROAD_EPS = 1e-9


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
    return normalized_poses(row_array(poses, 3, row=attrgetter("position.x", "position.y", "heading")))


def normalized_poses(rows: np.ndarray) -> np.ndarray:
    """rows, a read-only (n, 3) array of finite (x, y, heading) rows, with
    headings normalized as Pose2 normalizes them (rows itself when they are)."""
    headings = _normalized(raw := rows[:, 2])
    if headings is not raw:
        rows = np.array(rows)
        rows[:, 2] = headings
        rows.flags.writeable = False
    return rows


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
    and each is built from the arrays when it is first read. A tuple view is
    kept only for a reader outside the package: the acceptance tests (A1
    reads UncertainPolyline.points through element_nll, A3 reads
    CandidateTrajectory.waypoints and .headings and Polygon.outer and .holes,
    A4 the three CandidateSet commands) and perfbench/traced.py."""

    _views: dict = {}

    @classmethod
    def _of(cls, **stored):
        """An instance holding stored as it is, unchecked: arrays a caller has checked already, such as the
        loader's candidate, mode and polyline tables, and its polygons, whose rings polygon_edges has checked."""
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


@dataclass(frozen=True, init=False, eq=False)
class Polygon(ArrayValue):
    """Simple polygon: closed CCW outer ring with optional closed CW hole rings.
    Each hole lies strictly inside the outer ring, and no two rings share a point.

    Rings carry an explicit closing vertex (first == last). Stored: rings,
    the (n, 2) vertex arrays, outer ring first, and edges, the start and end
    points (E, 2) of the edges of all rings. The layout is checked by
    polygon_edges, which the loader runs once over the polygons of a chunk
    before it builds each of them through ArrayValue._of.
    """

    outer: tuple[Point2, ...]
    holes: tuple[tuple[Point2, ...], ...]
    _views = {"outer": lambda p: point_tuple(p.rings[0]), "holes": lambda p: tuple(map(point_tuple, p.rings[1:]))}

    def __init__(self, outer, holes=()) -> None:
        rings = tuple(row_array(ring, 2, row=POINT) for ring in (outer, *holes))
        edges = polygon_edges([rings])[0]
        if isinstance(edges, str):
            raise ValueError(edges)
        self.__dict__.update(rings=rings, edges=edges)


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
        return areas_contain(points, (self,), np.zeros(len(points), dtype=np.intp))


def areas_contain(points: np.ndarray, areas: Sequence[MultiPolygon], groups: np.ndarray) -> np.ndarray:
    """Per point n of points (N, 2): whether areas[groups[n]] contains it, as
    MultiPolygon.contains decides, from one containment call over the edges of
    every area."""
    labels = np.repeat(np.arange(len(areas)), [len(area.edges[0]) for area in areas])
    return _ring_hits(points, *_concat([area.edges for area in areas]), (groups, labels))


# ---------------------------------------------------------------------------
# ring validation helpers


def _cross(ox, oy, ax, ay, bx, by):
    """z component of (a - o) x (b - o); floats or broadcasting arrays."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _in_bbox(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether p lies in the bounding box of a and b (closed), for (..., 2) arrays that broadcast."""
    return ((np.minimum(a, b) <= p) & (p <= np.maximum(a, b))).all(axis=-1)


def _segments_intersect(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Whether closed segments p1-p2 and q1-q2 share any point (touching counts), for (..., 2) endpoint
    arrays that broadcast: the narrow phase of _crossings, and exact on any pair, boxes meeting or not."""
    (p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y) = ((v[..., 0], v[..., 1]) for v in (p1, p2, q1, q2))
    d1, d2 = _cross(q1x, q1y, q2x, q2y, p1x, p1y), _cross(q1x, q1y, q2x, q2y, p2x, p2y)
    d3, d4 = _cross(p1x, p1y, p2x, p2y, q1x, q1y), _cross(p1x, p1y, p2x, p2y, q2x, q2y)
    # opposite strict signs on both sides (a NaN or a zero gives no negative sign product) in meeting boxes, as
    # rounding can give nearly collinear segments those signs; or an endpoint on the other's line, in its box
    strict = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
    meet = ((np.minimum(p1, p2) <= np.maximum(q1, q2)) & (np.minimum(q1, q2) <= np.maximum(p1, p2))).all(axis=-1)
    p_on_q = ((d1 == 0) & _in_bbox(q1, q2, p1)) | ((d2 == 0) & _in_bbox(q1, q2, p2))
    q_on_p = ((d3 == 0) & _in_bbox(p1, p2, q1)) | ((d4 == 0) & _in_bbox(p1, p2, q2))
    return (strict & meet) | p_on_q | q_on_p


def _one_group(groups) -> bool:
    """Whether groups, the label arrays a grouped kernel takes, or None, put
    every item in one group (label 0), so that no pair needs keeping apart."""
    return groups is None or not (groups[0].any() or groups[1].any())


def _swept_pairs(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, groups=None):
    """Every (i, j) with lo[j] <= keys[i] <= hi[j], as index arrays of at most
    _PAIR_BLOCK pairs at a time: the keys are sorted once, and interval j
    takes the run of sorted keys between two searchsorted bounds.

    With groups, a pair of arrays of non-negative integer labels, one for the
    keys and one for the intervals, only pairs of one label are taken. Each
    value is replaced by its rank among all the values, which keeps every
    order and every tie, plus its label times the number of values, so each
    group's values lie above every lower group's: a group's pairs are exactly
    those a sweep of that group alone takes, at any coordinates. One group
    is swept on the values as they are."""
    if not _one_group(groups):
        values = np.concatenate((keys, lo, hi))
        rank = np.unique(values, return_inverse=True)[1].reshape(-1)
        rank += np.concatenate((groups[0], groups[1], groups[1])) * len(values)
        keys, lo, hi = np.split(rank, (len(keys), len(keys) + len(lo)))
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    last = np.searchsorted(ranked, hi, side="right")
    # interval j's pairs are numbered ends[j - 1] <= k < ends[j]
    ends = np.cumsum(last - np.searchsorted(ranked, lo, side="left"))
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _PAIR_BLOCK):
        k = np.arange(start, min(start + _PAIR_BLOCK, total))
        j = np.searchsorted(ends, k, side="right")
        yield order[k - ends[j] + last[j]], j


def _crossings(e0, e1, keep, labels=None) -> list[tuple[int, int]]:
    """Every i < j, in row-major order, at which edges e0[i]-e1[i] and e0[j]-e1[j] meet and keep(i, j) holds
    (index arrays in, a bool array out); with labels, one per edge, only edges of one label. Only pairs whose
    closed bounding boxes meet can hit: on the axis of larger extent (x with labels, where the caller turns
    each group's longer side), each box is swept against the boxes whose low end lies in its range."""
    lo, hi = np.minimum(e0, e1), np.maximum(e0, e1)
    x = 0 if labels is not None else int((hi.max(axis=0) - lo.min(axis=0)).argmax())
    hits = []
    for t, s in _swept_pairs(lo[:, x], lo[:, x], hi[:, x], None if labels is None else (labels, labels)):
        # each pair once, where t's low end comes after s's in (low end, index) order
        later = (lo[t, x] > lo[s, x]) | ((lo[t, x] == lo[s, x]) & (t > s))
        i, j = np.minimum(s, t)[later], np.maximum(s, t)[later]
        take = (lo[i, 1 - x] <= hi[j, 1 - x]) & (lo[j, 1 - x] <= hi[i, 1 - x]) & keep(i, j)
        i, j = i[take], j[take]
        if i.size:  # on the benchmark's suites every block is empty (tests/test_scenario.py)
            hit = _segments_intersect(e0[i], e1[i], e0[j], e1[j])
            hits.extend((i[hit] * len(e0) + j[hit]).tolist())
    return [divmod(code, len(e0)) for code in sorted(hits)]


def _sets_cross(ea: tuple[np.ndarray, np.ndarray], eb: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether an edge of ea meets an edge of eb: the crossings of both sets, laid end to end, that join them."""
    n = len(ea[0])
    return bool(_crossings(*_concat([ea, eb]), lambda i, j: (i < n) & (j >= n)))


def _ring_signed_area(ring: np.ndarray) -> float:
    """Shoelace area, the terms added in vertex order as a loop from 0.0 adds
    them (accumulate, not sum's pairwise order; + 0.0 turns an all -0.0 sum to +0.0).
    Products of coordinates past about 1e154 overflow, to an inf or nan area."""
    x, y = ring[:, 0], ring[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (float(np.add.accumulate(x[:-1] * y[1:] - x[1:] * y[:-1])[-1]) + 0.0)


def _ring_fault(ring: np.ndarray, want_ccw: bool) -> str | None:
    """The first fault of one closed ring (n, 2) other than a self-crossing, worded after "<label> ring", or None."""
    if len(ring) < 4:
        return "needs at least 4 vertices including the closing one"
    if (ring[0] != ring[-1]).any():
        return "is not closed (first vertex != last vertex)"
    area = _ring_signed_area(ring)
    if not math.isfinite(area):
        return "coordinates are too large: its area is not a finite number"
    if abs(area) < MIN_POLYGON_AREA:
        return f"is degenerate (area {abs(area):.3e} m^2)"
    if (area > 0) != want_ccw:
        return "must be " + ("counterclockwise" if want_ccw else "clockwise")
    return None


def polygon_edges(polygons: Sequence[Sequence[np.ndarray]]) -> list:
    """Per polygon, given as its closed rings (n, 2), outer first: the edges' start and end points (E, 2)
    of all its rings if it is a valid Polygon, else the message of its first fault, in Polygon's order
    (each ring's own checks, then for a hole its place among the earlier rings). The self-crossings of
    all rings come from one sweep, each edge labelled by its ring, and each ring turned (x <-> y) where
    its longer side is y, so that it is swept along its longer side; its edges meet as they did."""
    faults = [_ring_fault(ring, k == 0) for polygon in polygons for k, ring in enumerate(polygon)]
    edges = [(ring[:-1], ring[1:]) for polygon in polygons for ring in polygon]
    sound = [k for k, fault in enumerate(faults) if fault is None]
    if sound:
        sizes, labels = [len(edges[k][0]) for k in sound], None
        starts, span = list(accumulate(sizes, initial=0)), sizes[0] - 1  # from a ring's first edge to its last
        e0, e1 = _concat([edges[k] for k in sound])
        # One ring alone (each Polygon() the generator builds) is swept unlabelled, along its longer side: the
        # labelled branch's extents and turn cost a median 23 % per Polygon() on generated rings (2-vCPU VM).
        if len(sound) > 1:
            span, labels = np.repeat(np.array(sizes) - 1, sizes), np.repeat(np.arange(len(sound)), sizes)
            extent = np.maximum.reduceat(np.maximum(e0, e1), starts[:-1]) - np.minimum.reduceat(np.minimum(e0, e1), starts[:-1])
            turn = np.repeat(extent[:, 1] > extent[:, 0], sizes)[:, None]
            e0, e1 = np.where(turn, e0[:, ::-1], e0), np.where(turn, e1[:, ::-1], e1)
        # adjacent edges legitimately share a vertex: pairs start at j = i + 2 and skip (first, last)
        keep = lambda i, j: (j >= i + 2) & (j - i != (span if labels is None else span[i]))
        for i, j in reversed(_crossings(e0, e1, keep, labels)):
            n = bisect_right(starts, i) - 1  # in reverse, so that the first crossing of a ring is the one kept
            faults[sound[n]] = "is self-intersecting (edges %d and %d)" % (i - starts[n], j - starts[n])
    faults, edges = iter(faults), iter(edges)
    return [_polygon_layout([(next(faults), next(edges)) for _ in polygon]) for polygon in polygons]


def _polygon_layout(rings: Sequence[tuple]):
    """The edges of a polygon, or the message of its first fault, from (own fault, edges) of each ring."""
    for k, (fault, (e0, e1)) in enumerate(rings):
        label = f"hole {k - 1}" if k else "outer"
        if fault is not None:
            return f"{label} ring {fault}"
        # the layout under which even-odd parity over all rings is the polygon's area
        if k and (_sets_cross(rings[0][1], (e0, e1)) or not _ring_hits(e0[:1], *rings[0][1])[0]):
            return f"{label} is not strictly inside the outer ring"
        for j in range(1, k):
            if _regions_meet(rings[j][1], (e0, e1)):
                return f"holes {j - 1} and {k - 1} are not disjoint"
    return _concat([edges for _, edges in rings])


def _concat(edges: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays of several rings or polygons, one after the other."""
    if len(edges) == 1:
        return edges[0]
    return np.concatenate([a for a, _ in edges]), np.concatenate([b for _, b in edges])


def _regions_meet(ea: tuple[np.ndarray, np.ndarray], eb: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the closed regions bounded by the ring edges ea and eb share a point: an edge of one
    meets an edge of the other, or one region holds the other's first vertex."""
    return _sets_cross(ea, eb) or bool(_ring_hits(eb[0][:1], *ea)[0] or _ring_hits(ea[0][:1], *eb)[0])


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


def _checked_dims(length, width) -> tuple[np.ndarray, np.ndarray]:
    lengths, widths = np.asarray(length, dtype=float), np.asarray(width, dtype=float)
    if not ((0 < lengths) & (lengths < math.inf)).all() or not ((0 < widths) & (widths < math.inf)).all():
        raise ValueError(f"vehicle dimensions must be positive and finite, got {length} x {width}")
    return lengths, widths


def row_dims(dims: Sequence[tuple[float, float]], counts: Sequence[int] | None = None):
    """Box lengths and widths, (K, 1) arrays, of rows that take dims[i]
    counts[i] times (once without counts)."""
    table = np.array(dims, dtype=float)
    table = table if counts is None else np.repeat(table, counts, axis=0)
    return table[:, :1], table[:, 1:]


def box_corners(centers: np.ndarray, headings: np.ndarray, length, width) -> np.ndarray:
    """Corners (..., 4, 2) of boxes centred at centers (..., 2) with headings
    (...), counterclockwise from front-left: vehicle_corners, batched and
    bit-identical to it. length and width broadcast against headings."""
    lengths, widths = _checked_dims(length, width)
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


def _group_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (k, p) with left[k] == right[p], in row-major order."""
    return np.nonzero(left[:, None] == right)


def aligned_box_hits(xy, headings, corners, dims, poses, lengths, widths, groups=None) -> np.ndarray:
    """(K, P, T) boxes_overlap_batch of boxes (k, t), centred at xy (K, T, 2)
    with headings (K, T), corners (K, T, 4, 2) and lengths and widths dims (a
    pair of floats or of (K, 1) arrays), and boxes (p, t) at poses (P, T, 3)
    with lengths and widths broadcasting to (P, T). groups, integer labels of
    the K and the P rows (one group when None), pairs only rows of one group:
    a pair of two groups reads False untested. Only pairs whose bounding
    circles meet within _BROAD_EPS, scaled by the pose's largest coordinate
    plus the two radii, are tested."""
    lengths, widths = _checked_dims(lengths, widths)
    centres, turns = poses[..., :2], poses[..., 2]
    ego, half = 0.5 * np.hypot(*dims), 0.5 * np.hypot(lengths, widths)  # the bounding circles' radii
    # eps per metre of |centre| + reach, a bound on both boxes' coordinates where they meet; reach's part is in 2 eps
    slack = _BROAD_EPS * (1.0 + np.abs(centres).max(axis=-1))  # (P, T)
    if _one_group(groups):  # every pair, as one (K, P, T) array
        gap = np.hypot(xy[:, None, :, 0] - centres[..., 0], xy[:, None, :, 1] - centres[..., 1])
        hits = gap <= (np.asarray(ego)[..., None] + half) * (1.0 + 2 * _BROAD_EPS) + slack
    else:  # the pairs of one group only
        k, p = _group_pairs(*groups)
        gap, reach = xy[k] - centres[p], np.broadcast_to(ego, (len(xy), 1))[k] + np.broadcast_to(half, turns.shape)[p]
        hits = np.zeros((len(xy),) + turns.shape, dtype=bool)
        hits[k, p] = np.hypot(gap[..., 0], gap[..., 1]) <= reach * (1.0 + 2 * _BROAD_EPS) + slack[p]
    k, p, t = np.nonzero(hits)  # the kept pairs, each then replaced by its test
    if k.size:
        size = (np.broadcast_to(v, turns.shape)[p, t] for v in (lengths, widths))
        other = box_corners(centres[p, t], turns[p, t], *size)
        hits[k, p, t] = boxes_overlap_batch(corners[k, t], box_axes(headings[k, t]), other, box_axes(turns[p, t]))
    return hits


def vehicle_corners(pose: Pose2, length: float, width: float) -> list[Point2]:
    """Footprint corners in counterclockwise order starting at front-left."""
    xy = box_corners(np.array([[pose.position.x, pose.position.y]]), np.array([pose.heading]), length, width)
    return [Point2(x, y) for x, y in xy[0].tolist()]


# ---------------------------------------------------------------------------
# containment


def _ring_hits(points: np.ndarray, a: np.ndarray, b: np.ndarray, groups=None) -> np.ndarray:
    """Per point of points (N, 2), against the edges a[j]-b[j] (E, 2) of its
    group (groups: labels of the points and of the edges, as _swept_pairs
    takes them): whether it lies on an edge, or the ray from it along +x
    crosses an odd number of edges. A point outside an edge's closed y-range
    is neither on it nor crossed by it, so only the pairs inside are tested."""
    n = len(points)
    on, crossings = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.intp)
    # x_at is only read where the edge straddles the ray (by != ay); overflow gives inf as in Python
    with np.errstate(all="ignore"):
        for i, j in _swept_pairs(points[:, 1], np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1]), groups):
            p, e0, e1 = points[i], a[j], b[j]
            (px, py), (ax, ay), (bx, by) = p.T, e0.T, e1.T
            on[i[(_cross(ax, ay, bx, by, px, py) == 0.0) & _in_bbox(e0, e1, p)]] = True
            x_at = ax + (py - ay) * (bx - ax) / (by - ay)
            crossings += np.bincount(i[((ay > py) != (by > py)) & (px < x_at)], minlength=n)
    return on | (crossings % 2 == 1)


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


def near_segments(points: np.ndarray, a: np.ndarray, b: np.ndarray, limit: float, groups=None) -> np.ndarray:
    """Per point of points (N, 2): whether it lies strictly closer than limit
    to any closed segment a[j]-b[j] (S, 2) of its group (groups: labels of
    the points and of the segments, as _swept_pairs takes them), or on one.
    Only the pairs whose point lies in the segment's box grown by limit and
    _BROAD_EPS, scaled by the segment's largest coordinate plus limit, reach
    the distance kernel."""
    # (S, 1): no coordinate of a point near segment j is larger than scale[j]
    scale = np.maximum(np.abs(a), np.abs(b)).max(axis=1, keepdims=True) + limit
    pad = limit * (1.0 + _BROAD_EPS) + _BROAD_EPS * (1.0 + scale)
    lo, hi = np.minimum(a, b) - pad, np.maximum(a, b) + pad
    near = np.zeros(len(points), dtype=bool)
    for i, j in _swept_pairs(points[:, 1], lo[:, 1], hi[:, 1], groups):
        x = points[i, 0]
        take = (lo[j, 0] <= x) & (x <= hi[j, 0])
        i, j = i[take], j[take]
        d = hypot_near(*segment_offsets(*points[i].T, *a[j].T, *b[j].T), limit)
        near[i[(d < limit) | (d == 0.0)]] = True
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
