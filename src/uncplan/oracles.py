"""Slow, independent reference implementations for differential checking.

These share only domain types with the production code: containment goes
through an on-edge test and 4-direction ray casting in long double over every
(point, edge) pair, with no sweep or float64 shortcut, dividing only where an
edge straddles a ray; the Laplace fit is a grid refinement of the NLL objective
instead of closed forms; and selection is a literal transcription of the
zero-then-argmax rule over precomputed flags. They ship in the library so
`eval --verify` can cross-check any scenario file in the field.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geometry import MultiPolygon, Point2
from .selection import CandidateSet, CandidateTrajectory, Command, SelectionConfig
from .uncertainty import B_MIN, LaplacePoint

_LD = np.longdouble


def _oracle_corners(traj: CandidateTrajectory, length: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Footprint corners, x and y (T, 4), recomputed here in extended precision."""
    xy, heading = traj.xy.astype(_LD), traj.yaw.astype(_LD)
    c, s = np.cos(heading)[:, None], np.sin(heading)[:, None]
    lx = _LD(length) / 2 * np.array([1, -1, -1, 1], dtype=_LD)
    ly = _LD(width) / 2 * np.array([1, 1, -1, -1], dtype=_LD)
    return xy[:, :1] + c * lx - s * ly, xy[:, 1:] + s * lx + c * ly


def _point_in_da_votes(px: np.ndarray, py: np.ndarray, da: MultiPolygon) -> np.ndarray:
    """Per point of the long double arrays px, py (N,): how many of the 4 ray
    directions (+x, -x, +y, -y) find it inside a polygon of the area by
    even-odd parity over that polygon's rings. A point on an edge is inside,
    by all 4, whatever the rays say: that is decided first. All (point, edge)
    pairs are tested; a pair divides only where its edge straddles the ray."""
    on_edge = np.zeros(len(px), dtype=bool)
    inside = np.zeros((4, len(px)), dtype=bool)
    for poly in da.polygons:
        ring_edges = [(r[:-1].astype(_LD), r[1:].astype(_LD)) for r in poly.rings]
        (x1, y1), (x2, y2) = (np.concatenate([e[k] for e in ring_edges]).T for k in (0, 1))
        in_box = (np.minimum(x1, x2) <= px[:, None]) & (px[:, None] <= np.maximum(x1, x2))
        in_box &= (np.minimum(y1, y2) <= py[:, None]) & (py[:, None] <= np.maximum(y1, y2))
        p, e = np.nonzero(in_box)
        on_edge[p[(x2[e] - x1[e]) * (py[p] - y1[e]) == (y2[e] - y1[e]) * (px[p] - x1[e])]] = True
        # rays along x (votes 0, 1), then the same with x and y swapped (votes 2, 3)
        for k, (a1, b1, a2, b2, pa, pb) in ((0, (x1, y1, x2, y2, px, py)), (2, (y1, x1, y2, x2, py, px))):
            p, e = np.nonzero((b1 > pb[:, None]) != (b2 > pb[:, None]))
            with np.errstate(all="ignore"):
                a_at = a1[e] + (pb[p] - b1[e]) * (a2[e] - a1[e]) / (b2[e] - b1[e])
            for side, crossed in enumerate((pa[p] < a_at, pa[p] > a_at)):
                inside[k + side] |= np.bincount(p[crossed], minlength=len(px)) % 2 == 1
    return np.where(on_edge, 4, inside.sum(axis=0))


def oracle_dacr_flags(
    traj: CandidateTrajectory, ego_dims: tuple[float, float], da: MultiPolygon
) -> tuple[bool, ...]:
    """Per-step conflict flags: a step conflicts when a footprint corner gets
    fewer than 2 of the 4 inside votes."""
    cx, cy = _oracle_corners(traj, *ego_dims)
    votes = _point_in_da_votes(cx.ravel(), cy.ravel(), da).reshape(cx.shape)
    return tuple((votes < 2).any(axis=1).tolist())


# ---------------------------------------------------------------------------
# Laplace fit by grid refinement


def _location_cost(vals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.abs(vals[None, :] - grid[:, None]).sum(axis=1)


def _flat_endpoints(grid: np.ndarray, cost: np.ndarray) -> tuple[float, float]:
    """First and last grid point of the near-flat argmin set. The location
    objective is piecewise linear with a flat valley between the two middle
    order statistics for even counts, so the argmin is an interval."""
    vmin = float(cost.min())
    tol = abs(vmin) * 1e-12 + 1e-12
    flat = grid[cost <= vmin + tol]
    return float(flat[0]), float(flat[-1])


def _refine_location(vals: np.ndarray) -> float:
    """Minimizer of sum |v - mu| by grid refinement of both valley endpoints,
    returning the valley midpoint."""
    span = float(vals.max() - vals.min())
    pad = max(1e-3, 0.01 * span)
    grid = np.linspace(float(vals.min()) - pad, float(vals.max()) + pad, 513)
    step = float(grid[1] - grid[0])
    vlo, vhi = _flat_endpoints(grid, _location_cost(vals, grid))
    for _ in range(4):
        glo = np.linspace(vlo - step, vlo + step, 129)
        ghi = np.linspace(vhi - step, vhi + step, 129)
        vlo, _ = _flat_endpoints(glo, _location_cost(vals, glo))
        _, vhi = _flat_endpoints(ghi, _location_cost(vals, ghi))
        step = float(glo[1] - glo[0])
    return 0.5 * (vlo + vhi)


def _refine_scale(vals: np.ndarray, mu: float) -> float:
    """Grid-refined minimizer of n*log(2b) + sum|v - mu|/b over b >= B_MIN."""
    n = len(vals)
    total_dev = float(np.abs(vals - mu).sum())
    hi = max(1.0, 3.0 * total_dev / n)
    lo = B_MIN
    for _ in range(5):
        grid = np.linspace(lo, hi, 257)
        cost = n * np.log(2.0 * grid) + total_dev / grid
        k = int(np.argmin(cost))
        step = grid[1] - grid[0]
        lo = max(B_MIN, float(grid[k] - step))
        hi = float(grid[k] + step)
    return max(B_MIN, 0.5 * (lo + hi))


def oracle_laplace_fit(observations: Sequence[Point2]) -> LaplacePoint:
    """Numerical maximum-likelihood fit of one uncertain point per axis."""
    if not observations:
        raise ValueError("need at least one observation")
    xs = np.array([p.x for p in observations], dtype=float)
    ys = np.array([p.y for p in observations], dtype=float)
    mx = _refine_location(xs)
    my = _refine_location(ys)
    bx = _refine_scale(xs, mx)
    by = _refine_scale(ys, my)
    return LaplacePoint(Point2(mx, my), (bx, by))


# ---------------------------------------------------------------------------
# selection rule transcription


def oracle_select(
    candidate_set: CandidateSet,
    command: Command | str,
    cfg: SelectionConfig,
    risks: Sequence[float],
    agent_flags: Sequence[bool],
    boundary_flags: Sequence[bool],
) -> int:
    """Literal zero-then-argmax transcription over precomputed per-candidate flags.

    risks are only consulted when the uncertainty filter is enabled, matching
    the production rule, which never reads the values of a disabled filter.
    """
    confidences = candidate_set.batches[Command(command)][2].tolist()
    n = len(confidences)
    if not (len(risks) == len(agent_flags) == len(boundary_flags) == n):
        raise ValueError("flag arrays must match the candidate count")

    effective_risk = list(risks) if cfg.enable_uncertainty_filter else [math.inf] * n

    scores = []
    for i in range(n):
        score = confidences[i]
        if cfg.enable_uncertainty_filter and effective_risk[i] < cfg.nll_threshold:
            score = 0.0
        if cfg.enable_agent_filter and agent_flags[i]:
            score = 0.0
        if cfg.enable_boundary_filter and boundary_flags[i]:
            score = 0.0
        scores.append(score)

    best = 0
    for i in range(1, n):
        if scores[i] > scores[best]:
            best = i
        elif scores[i] == scores[best] and effective_risk[i] > effective_risk[best]:  # farther from boundaries
            best = i
    if scores[best] > 0.0:
        return best

    # everything zeroed: prefer agent-safe candidates, stay far from boundaries
    agent_used = [cfg.enable_agent_filter and f for f in agent_flags]
    pool = [i for i in range(n) if not agent_used[i]]
    if pool:
        best = pool[0]
        for i in pool[1:]:
            key_i = (effective_risk[i], confidences[i])
            key_b = (effective_risk[best], confidences[best])
            if key_i > key_b:
                best = i
        return best
    best = 0
    for i in range(1, n):
        if confidences[i] > confidences[best]:
            best = i
    return best
