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
from operator import attrgetter
from typing import Sequence

import numpy as np

from .geometry import (
    POINT,
    ArrayValue,
    MultiPolygon,
    OrientedBox,
    Point2,
    box_axes,
    box_corners,
    boxes_overlap_batch,
    frozen,
    point_tuple,
    row_array,
)
from .selection import T_F, CandidateTrajectory

_BOX = attrgetter("center.x", "center.y", "heading", "length", "width")

HORIZON_STEPS = (2, 4, 6)  # 1 s / 2 s / 3 s at 0.5 s per step
CONVENTIONS = ("cumulative", "instantaneous")
TURN_THRESHOLD_RAD = math.radians(15.0)


def box_array(boxes) -> np.ndarray:
    """Per agent, T_F boxes as a read-only (A, T_F, 5) array of rows (cx, cy,
    heading, length, width); boxes is such an array, or holds OrientedBoxes."""
    table = row_array(boxes, T_F, 5, row=lambda seq: list(map(_BOX, seq)))
    if not (table[..., 3:] > 0).all():
        raise ValueError("box dimensions must be positive")
    return table


def box_tuples(table: np.ndarray) -> tuple[tuple[OrientedBox, ...], ...]:
    """The rows of an (A, T_F, 5) box array as OrientedBoxes."""
    return tuple(tuple(OrientedBox(Point2(x, y), h, length, width) for x, y, h, length, width in seq)
                 for seq in table.tolist())


@dataclass(frozen=True, eq=False)
class GroundTruth(ArrayValue):
    """What actually happens: ego future, agent futures, true drivable area.
    Stored: ego_xy (T_F, 2), ego_yaw (T_F,) and agent_boxes (A, T_F, 5) as
    read-only arrays; each field may also be given as its array."""

    ego_future: tuple[Point2, ...]
    ego_headings: tuple[float, ...]
    agent_futures: tuple[tuple[OrientedBox, ...], ...]
    drivable_area: MultiPolygon
    _views = {
        "ego_future": lambda g: point_tuple(g.ego_xy),
        "ego_headings": lambda g: tuple(g.ego_yaw.tolist()),
        "agent_futures": lambda g: box_tuples(g.agent_boxes),
    }

    def __post_init__(self) -> None:
        ego_xy = row_array(self.__dict__.pop("ego_future"), 2, row=POINT)
        ego_yaw, agent_futures = frozen(self.__dict__.pop("ego_headings")), self.__dict__.pop("agent_futures")
        if len(ego_xy) != T_F or ego_yaw.shape != (T_F,):
            raise ValueError(f"ground truth needs {T_F} ego steps")
        for i, seq in enumerate(agent_futures):
            if len(seq) != T_F:
                raise ValueError(f"agent {i} ground truth has {len(seq)} steps, needs {T_F}")
        self.__dict__.update(ego_xy=ego_xy, ego_yaw=ego_yaw, agent_boxes=box_array(agent_futures))


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
    dists = [math.hypot(dx, dy) for dx, dy in (traj.xy[:horizon_steps] - gt.ego_xy[:horizon_steps]).tolist()]
    if convention == "cumulative":
        return sum(dists) / horizon_steps
    return dists[-1]


def _collision_steps(traj: CandidateTrajectory, ego_dims: tuple[float, float], gt: GroundTruth) -> list[bool]:
    """Per step: whether the ego box overlaps any agent's true box, from one
    separating-axis call over the (agents, T) overlap matrix."""
    boxes = gt.agent_boxes
    if not len(boxes):
        return [False] * T_F
    ego_corners = box_corners(traj.xy, traj.yaw, ego_dims[0], ego_dims[1])
    agent_corners = box_corners(boxes[..., :2], boxes[..., 2], boxes[..., 3], boxes[..., 4])
    hit = boxes_overlap_batch(ego_corners, box_axes(traj.yaw), agent_corners, box_axes(boxes[..., 2]))
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
    corners = box_corners(traj.xy, traj.yaw, ego_dims[0], ego_dims[1])
    inside = da.contains(corners.reshape(-1, 2)).reshape(corners.shape[:-1])
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
