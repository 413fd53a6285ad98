"""Planning safety metrics: displacement error, collision rate, drivable-area
conflict rate, evaluated at the 1 s / 2 s / 3 s horizons with turn/straight
stratification.

Two metric conventions exist side by side because published numbers use both
and they are not comparable: "cumulative" averages displacement over all
steps up to the horizon and flags a collision anywhere before it, while
"instantaneous" looks at the horizon step alone (endpoint displacement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import MultiPolygon, OrientedBox, Point2, box_axes, box_corners, boxes_overlap_batch, points_in_polygons
from .selection import T_F, CandidateTrajectory, trajectory_arrays

HORIZON_STEPS = (2, 4, 6)  # 1 s / 2 s / 3 s at 0.5 s per step
CONVENTIONS = ("cumulative", "instantaneous")
TURN_THRESHOLD_RAD = math.radians(15.0)


@dataclass(frozen=True)
class GroundTruth:
    """What actually happens: ego future, agent futures, true drivable area."""

    ego_future: tuple[Point2, ...]
    ego_headings: tuple[float, ...]
    agent_futures: tuple[tuple[OrientedBox, ...], ...]
    drivable_area: MultiPolygon

    def __post_init__(self) -> None:
        ego = tuple(self.ego_future)
        hds = tuple(float(h) for h in self.ego_headings)
        agents = tuple(tuple(seq) for seq in self.agent_futures)
        object.__setattr__(self, "ego_future", ego)
        object.__setattr__(self, "ego_headings", hds)
        object.__setattr__(self, "agent_futures", agents)
        if len(ego) != T_F or len(hds) != T_F:
            raise ValueError(f"ground truth needs {T_F} ego steps")
        for i, seq in enumerate(agents):
            if len(seq) != T_F:
                raise ValueError(f"agent {i} ground truth has {len(seq)} steps, needs {T_F}")


@dataclass(frozen=True)
class ScenarioMetrics:
    """Per-scenario metric values at the three horizons."""

    scenario_id: str
    scenario_class: str  # "Turn" | "Straight"
    de: tuple[float, float, float]
    cr: tuple[bool, bool, bool]
    dacr: tuple[float, float, float]


@dataclass(frozen=True)
class MetricsRow:
    """Aggregate row: per-horizon means plus the Avg. column (mean of the three)."""

    scenario_class: str  # "Turn" | "Straight" | "Overall"
    n_scenarios: int
    de_1s: float
    de_2s: float
    de_3s: float
    de_avg: float
    cr_1s: float
    cr_2s: float
    cr_3s: float
    cr_avg: float
    dacr_1s: float
    dacr_2s: float
    dacr_3s: float
    dacr_avg: float

    def __post_init__(self) -> None:
        for name in ("de_1s", "de_2s", "de_3s", "de_avg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("cr_1s", "cr_2s", "cr_3s", "cr_avg", "dacr_1s", "dacr_2s", "dacr_3s", "dacr_avg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a fraction in [0, 1], got {v}")


def _check_horizon(horizon_steps: int) -> None:
    if not 1 <= horizon_steps <= T_F:
        raise ValueError(f"horizon_steps must be in [1, {T_F}], got {horizon_steps}")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def displacement_error(
    traj: CandidateTrajectory,
    gt: GroundTruth,
    horizon_steps: int,
    convention: str = "cumulative",
) -> float:
    """L2 displacement at a horizon: mean over steps 1..h (cumulative) or at
    step h alone (instantaneous/endpoint)."""
    _check_horizon(horizon_steps)
    _check_convention(convention)
    dists = [
        math.hypot(w.x - g.x, w.y - g.y)
        for w, g in zip(traj.waypoints[:horizon_steps], gt.ego_future[:horizon_steps])
    ]
    if convention == "cumulative":
        return sum(dists) / horizon_steps
    return dists[-1]


def _collision_steps(traj: CandidateTrajectory, ego_dims: tuple[float, float], gt: GroundTruth) -> list[bool]:
    """Per step: whether the ego box overlaps any agent's true box, from one
    separating-axis call over the (agents, T) overlap matrix."""
    boxes = gt.agent_futures
    if not boxes:
        return [False] * T_F
    xy, headings = trajectory_arrays([traj])
    ego_corners = box_corners(xy[0], headings[0], ego_dims[0], ego_dims[1])
    table = np.array([[(b.center.x, b.center.y, b.heading, b.length, b.width) for b in seq] for seq in boxes], dtype=float)
    agent_corners = box_corners(table[..., :2], table[..., 2], table[..., 3], table[..., 4])
    hit = boxes_overlap_batch(ego_corners, box_axes(headings[0]), agent_corners, box_axes(table[..., 2]))
    return hit.any(axis=0).tolist()


def _collision_at(steps: list[bool], horizon_steps: int, convention: str) -> bool:
    if convention == "cumulative":
        return any(steps[:horizon_steps])
    return steps[horizon_steps - 1]


def collision_rate_frame(
    traj: CandidateTrajectory,
    ego_dims: tuple[float, float],
    gt: GroundTruth,
    horizon_steps: int,
    convention: str = "cumulative",
) -> bool:
    """Whether this trajectory counts as colliding at the given horizon."""
    _check_horizon(horizon_steps)
    _check_convention(convention)
    return _collision_at(_collision_steps(traj, ego_dims, gt), horizon_steps, convention)


def dacr_flags(
    traj: CandidateTrajectory, ego_dims: tuple[float, float], da: MultiPolygon
) -> tuple[bool, ...]:
    """Per-step conflict flags: True when any footprint corner leaves the
    drivable area (boundary itself still counts as inside)."""
    xy, headings = trajectory_arrays([traj])
    corners = box_corners(xy[0], headings[0], ego_dims[0], ego_dims[1])
    inside = points_in_polygons(corners.reshape(-1, 2), da.polygons).reshape(corners.shape[:-1])
    return tuple((~inside.all(axis=-1)).tolist())


def dacr_frame(
    traj: CandidateTrajectory,
    ego_dims: tuple[float, float],
    da: MultiPolygon,
    horizon_steps: int,
) -> float:
    """Fraction of the first horizon_steps steps in conflict with the drivable area."""
    _check_horizon(horizon_steps)
    flags = dacr_flags(traj, ego_dims, da)
    return sum(flags[:horizon_steps]) / horizon_steps


def evaluate_trajectory(
    traj: CandidateTrajectory,
    ego_dims: tuple[float, float],
    gt: GroundTruth,
    scenario_id: str,
    scenario_class: str,
    convention: str = "cumulative",
) -> ScenarioMetrics:
    """All three metrics for one trajectory at the standard horizons."""
    de = tuple(displacement_error(traj, gt, h, convention) for h in HORIZON_STEPS)
    steps = _collision_steps(traj, ego_dims, gt)
    cr = tuple(_collision_at(steps, h, convention) for h in HORIZON_STEPS)
    flags = dacr_flags(traj, ego_dims, gt.drivable_area)
    dacr = tuple(sum(flags[:h]) / h for h in HORIZON_STEPS)
    return ScenarioMetrics(scenario_id, scenario_class, de, cr, dacr)


def scenario_class_of(ego_headings: Sequence[float]) -> str:
    """Turn/Straight split: total ground-truth heading change above 15 degrees is a Turn."""
    delta = abs(_angle_diff(ego_headings[-1], ego_headings[0]))
    return "Turn" if delta > TURN_THRESHOLD_RAD else "Straight"


def _angle_diff(a: float, b: float) -> float:
    d = (a - b) % math.tau
    if d > math.pi:
        d -= math.tau
    return d


def _mean_row(label: str, rows: Sequence[ScenarioMetrics]) -> MetricsRow:
    n = len(rows)
    de = [sum(r.de[k] for r in rows) / n for k in range(3)]
    cr = [sum(1.0 for r in rows if r.cr[k]) / n for k in range(3)]
    dacr = [sum(r.dacr[k] for r in rows) / n for k in range(3)]
    return MetricsRow(
        scenario_class=label,
        n_scenarios=n,
        de_1s=de[0], de_2s=de[1], de_3s=de[2], de_avg=sum(de) / 3.0,
        cr_1s=cr[0], cr_2s=cr[1], cr_3s=cr[2], cr_avg=sum(cr) / 3.0,
        dacr_1s=dacr[0], dacr_2s=dacr[1], dacr_3s=dacr[2], dacr_avg=sum(dacr) / 3.0,
    )


def aggregate(rows: Sequence[ScenarioMetrics], stratify: bool = False) -> list[MetricsRow]:
    """Suite means: an Overall row, plus Turn and Straight rows when stratifying."""
    if not rows:
        raise ValueError("need at least one scenario result")
    out = [_mean_row("Overall", rows)]
    if stratify:
        for label in ("Turn", "Straight"):
            subset = [r for r in rows if r.scenario_class == label]
            if subset:
                out.append(_mean_row(label, subset))
    return out
