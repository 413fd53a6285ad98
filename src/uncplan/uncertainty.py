"""Laplace-distributed map point uncertainty: densities, fitting, risk lookup.

Each uncertain map vertex carries a 2D location mu and per-axis scales
b = (b1, b2). The negative log-likelihood of a ground-truth point p under one
vertex is sum_j [ log(2 b_j) + |p_j - mu_j| / b_j ], natural logarithm
throughout. Low NLL against a boundary vertex means the point sits deep in
that vertex's uncertainty region, which selection treats as driving risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import ArrayValue, Point2, frozen, polyline_array, row_array

B_MIN = 1e-3  # m, smallest admissible Laplace scale; avoids NLL -> -inf


@dataclass(frozen=True)
class LaplacePoint:
    """2D location estimate with per-axis Laplace scales in meters."""

    mu: Point2
    b: tuple[float, float]

    def __post_init__(self) -> None:
        bx, by = float(self.b[0]), float(self.b[1])
        if not (math.isfinite(bx) and math.isfinite(by)):
            raise ValueError(f"scales must be finite, got {self.b}")
        object.__setattr__(self, "b", (max(bx, B_MIN), max(by, B_MIN)))


@dataclass(frozen=True, eq=False)
class UncertainPolyline(ArrayValue):
    """Ordered uncertain vertices of one vectorized map element, given as
    LaplacePoints or as rows (mx, my, bx, by). Stored: table, the (V, 4)
    read-only array of those rows, scales below B_MIN raised to it. Built
    when first read: log_2b, log(2 b) per scale from math.log (np.log can
    differ in the last bit), and mu, the (V, 2) mu vertices, checked by
    polyline_array."""

    points: tuple[LaplacePoint, ...]
    _views = {
        "points": lambda u: tuple(LaplacePoint(Point2(mx, my), (bx, by)) for mx, my, bx, by in u.table.tolist()),
        "log_2b": lambda u: frozen([math.log(2.0 * b) for b in u.table[:, 2:].ravel().tolist()]).reshape(-1, 2),
        "mu": lambda u: polyline_array(u.table[:, :2]),
    }

    def __post_init__(self) -> None:
        table = row_array(self.__dict__.pop("points"), 4, row=lambda lp: (lp.mu.x, lp.mu.y, *lp.b))
        if not len(table):
            raise ValueError("uncertain polyline needs at least one point")
        self.__dict__["table"] = frozen(np.maximum(table, (-math.inf, -math.inf, B_MIN, B_MIN)))

    def mu_polyline(self) -> np.ndarray:
        """Most-likely geometry of the element: its mu vertices (V, 2)."""
        return self.mu


def _nll(x, y, mx, my, b1, b2, log_2b1, log_2b2):
    """The NLL sum in its fixed order; floats or broadcasting arrays."""
    return log_2b1 + abs(x - mx) / b1 + log_2b2 + abs(y - my) / b2


def laplace_point_nll(gt: Point2, lp: LaplacePoint) -> float:
    """Negative log-likelihood of a ground-truth point under one uncertain vertex."""
    b1, b2 = lp.b
    return _nll(gt.x, gt.y, lp.mu.x, lp.mu.y, b1, b2, math.log(2.0 * b1), math.log(2.0 * b2))


def element_nll(gt_points: Sequence[Point2], element: UncertainPolyline) -> float:
    """Summed NLL of index-matched ground-truth points against an element."""
    if len(gt_points) != len(element.points):
        raise ValueError(
            f"{len(gt_points)} ground-truth points vs {len(element.points)} element points"
        )
    return sum(laplace_point_nll(g, lp) for g, lp in zip(gt_points, element.points))


def log_joint_density(gt_points: Sequence[Point2], element: UncertainPolyline) -> float:
    """Log of the element's joint density at the ground-truth points (= -element_nll)."""
    return -element_nll(gt_points, element)


def fit_laplace_mle(observations: Sequence[Point2]) -> LaplacePoint:
    """Maximum-likelihood (mu, b) from repeated sightings of one map point.

    mu is the per-axis median (midpoint convention for even counts), b the
    per-axis mean absolute deviation from that median, clamped to B_MIN.
    """
    if not observations:
        raise ValueError("need at least one observation")
    # sorting makes the result bit-identical under permutation of the input
    xs = np.sort(np.array([p.x for p in observations], dtype=float))
    ys = np.sort(np.array([p.y for p in observations], dtype=float))
    mx = float(np.median(xs))
    my = float(np.median(ys))
    bx = float(np.mean(np.abs(xs - mx)))
    by = float(np.mean(np.abs(ys - my)))
    return LaplacePoint(Point2(mx, my), (bx, by))


def min_nll_grid(xy: np.ndarray, elements: Sequence[UncertainPolyline]) -> np.ndarray:
    """Minimum NLL of each point xy[..., :] over every vertex of every element
    (lower = riskier), from one (..., V) NLL array."""
    if not elements:
        raise ValueError("need at least one element with at least one point")
    mx, my, b1, b2 = np.concatenate([el.table for el in elements]).T
    log_2b1, log_2b2 = np.concatenate([el.log_2b for el in elements]).T
    return _nll(xy[..., 0, None], xy[..., 1, None], mx, my, b1, b2, log_2b1, log_2b2).min(axis=-1)
