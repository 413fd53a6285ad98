"""Planning safety metrics: displacement error, collision rate, drivable-area
conflict rate, evaluated at the 1 s / 2 s / 3 s horizons with turn/straight
stratification.

Two metric conventions exist side by side because published numbers use both
and they are not comparable: "cumulative" averages displacement over all
steps up to the horizon and flags a collision anywhere before it, while
"instantaneous" looks at the horizon step alone (endpoint displacement).

CR and DACR of several trajectories come from one box call and one
containment call over all of them (evaluate_trajectories), each trajectory
paired only with its own ground truth; one trajectory is a call on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .geometry import (
    POINT,
    ArrayValue,
    MultiPolygon,
    aligned_box_hits,
    areas_contain,
    box_corners,
    normalize_heading,
    row_array,
    row_dims,
)
from .selection import T_F, CandidateTrajectory

HORIZON_STEPS = (2, 4, 6)  # 1 s / 2 s / 3 s at 0.5 s per step
CONVENTIONS = ("cumulative", "instantaneous")
TURN_THRESHOLD_RAD = math.radians(15.0)


def box_array(boxes) -> np.ndarray:
    """Per agent, T_F boxes (each agent's count checked here) as a read-only (A, T_F, 5) array of finite
    rows (cx, cy, heading, length, width) with positive sizes; boxes is such an array, or nested sequences."""
    for i, seq in enumerate(boxes):
        if len(seq) != T_F:
            raise ValueError(f"agent {i} ground truth has {len(seq)} steps, needs {T_F}")
    table = row_array(boxes, T_F, 5)
    if not (table[..., 3:] > 0).all():
        raise ValueError("box dimensions must be positive")
    return table


@dataclass(frozen=True, eq=False)
class GroundTruth(ArrayValue):
    """What actually happens: ego future, agent futures, true drivable area.
    Stored as read-only arrays: ego_xy (T_F, 2), also accepted as Point2s,
    and agent_boxes (A, T_F, 5), as box_array takes them."""

    ego_xy: np.ndarray
    agent_boxes: np.ndarray
    drivable_area: MultiPolygon

    def __post_init__(self) -> None:
        ego_xy = row_array(self.ego_xy, 2, row=POINT)
        if len(ego_xy) != T_F:
            raise ValueError(f"ground truth needs {T_F} ego steps")
        self.__dict__.update(ego_xy=ego_xy, agent_boxes=box_array(self.agent_boxes))


@dataclass(frozen=True)
class ScenarioMetrics:
    """Per-scenario metric values at the three horizons."""

    scenario_id: str
    scenario_class: str  # "Turn" | "Straight"
    de: tuple[float, float, float]
    cr: tuple[bool, bool, bool]
    dacr: tuple[float, float, float]
    dacr_steps: tuple[bool, ...] = field(default=(), compare=False, repr=False)  # the flags dacr counts, for --verify


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
        for name in ROW_FIELDS[:4]:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ROW_FIELDS[4:]:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a fraction in [0, 1], got {v}")


ROW_FIELDS = tuple(f.name for f in fields(MetricsRow))[2:]  # the metric columns: DE, then the CR and DACR fractions


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


def _frames(trajs: Sequence[CandidateTrajectory], dims: Sequence[tuple[float, float]]):
    """Centres (R, T, 2), headings (R, T), ego lengths and widths (R, 1) and footprint corners (R, T, 4, 2)."""
    xy, yaw, sizes = np.stack([t.xy for t in trajs]), np.stack([t.yaw for t in trajs]), row_dims(dims)
    return xy, yaw, sizes, box_corners(xy, yaw, *sizes)


def _collision_rows(frames, truths: Sequence[GroundTruth], groups: np.ndarray) -> np.ndarray:
    """Per trajectory r and step (R, T): whether its ego box overlaps a true
    agent box of truths[groups[r]], from one call over the time-aligned box pairs."""
    xy, yaw, sizes, corners = frames
    boxes = np.concatenate([gt.agent_boxes for gt in truths])
    if not len(boxes):
        return np.zeros(yaw.shape, dtype=bool)
    labels = np.repeat(np.arange(len(truths)), [len(gt.agent_boxes) for gt in truths])  # each truth's on its agents
    return aligned_box_hits(xy, yaw, corners, sizes, boxes[..., :3], boxes[..., 3], boxes[..., 4],
                            (groups, labels)).any(axis=1)


def _conflict_rows(corners: np.ndarray, areas: Sequence[MultiPolygon], groups: np.ndarray) -> np.ndarray:
    """Per trajectory r and step (R, T): whether a footprint corner leaves
    areas[groups[r]], the boundary counting as inside."""
    inside = areas_contain(corners.reshape(-1, 2), areas, np.repeat(groups, corners[0].size // 2))
    return ~inside.reshape(corners.shape[:-1]).all(axis=-1)


def _collision_steps(traj: CandidateTrajectory, ego_dims: tuple[float, float], gt: GroundTruth) -> list[bool]:
    """Per step: whether the ego box overlaps any agent's true box."""
    return _collision_rows(_frames([traj], [ego_dims]), [gt], np.zeros(1, dtype=np.intp))[0].tolist()


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
    return tuple(_conflict_rows(_frames([traj], [ego_dims])[3], [da], np.zeros(1, dtype=np.intp))[0].tolist())


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
    return evaluate_trajectories([(traj, ego_dims, gt, scenario_id, scenario_class)], convention)[0]


def evaluate_trajectories(items: Sequence[tuple], convention: str = "cumulative") -> list[ScenarioMetrics]:
    """evaluate_trajectory of each item, (trajectory, ego_dims, ground truth,
    scenario id, scenario class), with the CR and DACR flags of all items from
    one box call and one containment call. Items that hold the same
    GroundTruth object share its boxes and edges."""
    _check_convention(convention)
    trajs, dims, gts, ids, classes = zip(*items)
    slots: dict[int, int] = {}
    groups = np.array([slots.setdefault(id(gt), len(slots)) for gt in gts])
    truths = list({id(gt): gt for gt in gts}.values())
    frames = _frames(trajs, dims)
    collisions = _collision_rows(frames, truths, groups).tolist()
    conflicts = _conflict_rows(frames[3], [gt.drivable_area for gt in truths], groups).tolist()
    out = []
    for traj, gt, scenario_id, scenario_class, steps, flags in zip(trajs, gts, ids, classes, collisions, conflicts):
        de = tuple(displacement_error(traj, gt, h, convention) for h in HORIZON_STEPS)
        cr = tuple(_collision_at(steps, h, convention) for h in HORIZON_STEPS)
        dacr = tuple(sum(flags[:h]) / h for h in HORIZON_STEPS)
        out.append(ScenarioMetrics(scenario_id, scenario_class, de, cr, dacr, tuple(flags)))
    return out


def scenario_class_of(ego_headings: Sequence[float]) -> str:
    """Turn/Straight split: total ground-truth heading change above 15 degrees is a Turn."""
    delta = abs(normalize_heading(ego_headings[-1] - ego_headings[0]))
    return "Turn" if delta > TURN_THRESHOLD_RAD else "Straight"


def _mean_row(label: str, rows: Sequence[ScenarioMetrics]) -> MetricsRow:
    n = len(rows)
    de = [sum(r.de[k] for r in rows) / n for k in range(3)]
    cr = [sum(1.0 for r in rows if r.cr[k]) / n for k in range(3)]
    dacr = [sum(r.dacr[k] for r in rows) / n for k in range(3)]
    return MetricsRow(label, n, *de, sum(de) / 3.0, *cr, sum(cr) / 3.0, *dacr, sum(dacr) / 3.0)


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
