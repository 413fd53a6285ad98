"""Candidate trajectory selection under map uncertainty and collision risk.

Each command owns a list of candidate trajectories with confidence scores.
Selection keeps a candidate's confidence as its score unless an enabled
filter flags it (boundary-risk NLL below threshold, predicted-agent
collision, or footprint too close to a map boundary); flagged scores drop to
zero and the highest-scoring survivor wins. If everything is zeroed a
deterministic fallback still emits a trajectory.

Each filter is one array kernel over all candidates of a command: risk over a
(K, T, V) NLL array, the agent check over (K, T) ego boxes x agent boxes, and
clearance over (K, T, 4, S) corner-to-segment offsets. The per-candidate
functions are the same kernels called with K = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import (
    Point2,
    Polyline,
    box_axes,
    box_corners,
    boxes_overlap_batch,
    near_segments,
    polyline_array,
)
from .map_model import UncertainMap, boundary_elements
from .uncertainty import UncertainPolyline, min_nll_grid

if TYPE_CHECKING:
    from .scenario import AgentPrediction

T_F = 6  # future steps per trajectory (3 s)
DT = 0.5  # s between steps


class Command(enum.Enum):
    TURN_LEFT = "TurnLeft"
    TURN_RIGHT = "TurnRight"
    GO_STRAIGHT = "GoStraight"


@dataclass(frozen=True)
class CandidateTrajectory:
    """One planning mode: T_F ego-frame waypoints, footprint headings, confidence."""

    waypoints: tuple[Point2, ...]
    headings: tuple[float, ...]
    confidence: float

    def __post_init__(self) -> None:
        wps = tuple(self.waypoints)
        hds = tuple(float(h) for h in self.headings)
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "headings", hds)
        if len(wps) != T_F:
            raise ValueError(f"trajectory needs exactly {T_F} waypoints, got {len(wps)}")
        if len(hds) != T_F:
            raise ValueError(f"trajectory needs exactly {T_F} headings, got {len(hds)}")
        if not all(math.isfinite(h) for h in hds):
            raise ValueError("headings must be finite")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class CandidateSet:
    """Per-command candidate lists; every command key is always present."""

    turn_left: tuple[CandidateTrajectory, ...]
    turn_right: tuple[CandidateTrajectory, ...]
    go_straight: tuple[CandidateTrajectory, ...]

    def __post_init__(self) -> None:
        for name in ("turn_left", "turn_right", "go_straight"):
            cands = tuple(getattr(self, name))
            object.__setattr__(self, name, cands)
            if not cands:
                raise ValueError(f"command {name} needs at least one candidate")

    def for_command(self, command: Command) -> tuple[CandidateTrajectory, ...]:
        return {
            Command.TURN_LEFT: self.turn_left,
            Command.TURN_RIGHT: self.turn_right,
            Command.GO_STRAIGHT: self.go_straight,
        }[command]


@dataclass(frozen=True)
class SelectionConfig:
    nll_threshold: float = 2.0
    boundary_clearance: float = 0.3  # m
    agent_margin: float = 0.0  # m added on every side of agent boxes
    risk_aggregator: str = "min"  # {"min", "mean"} over per-waypoint NLL minima
    enable_uncertainty_filter: bool = True
    enable_agent_filter: bool = True
    enable_boundary_filter: bool = True
    check_all_agent_modes: bool = False  # default: highest-confidence mode only
    risk_on_all_elements: bool = False  # default: boundary elements only

    def __post_init__(self) -> None:
        for name in ("nll_threshold", "boundary_clearance", "agent_margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.boundary_clearance < 0:
            raise ValueError(f"boundary_clearance must be >= 0, got {self.boundary_clearance}")
        if self.agent_margin < 0:
            raise ValueError(f"agent_margin must be >= 0, got {self.agent_margin}")
        if self.risk_aggregator not in ("min", "mean"):
            raise ValueError(f"risk_aggregator must be 'min' or 'mean', got {self.risk_aggregator!r}")


@dataclass(frozen=True)
class CandidateRecord:
    """Audit record of one candidate's evaluation. Values a disabled filter
    would have produced are not computed: risk_nll stays +inf and flags stay False."""

    index: int
    confidence: float
    risk_nll: float
    agent_collision: bool
    boundary_collision: bool
    final_score: float


@dataclass(frozen=True)
class SelectionReport:
    chosen_index: int
    chosen: CandidateTrajectory
    records: tuple[CandidateRecord, ...]
    fallback_used: bool


def command_filter(
    candidate_set: CandidateSet, command: Command | str
) -> list[CandidateTrajectory]:
    """The candidate subset owned by the given driving command."""
    if not isinstance(command, Command):
        try:
            command = Command(command)
        except ValueError:
            raise ValueError(f"unknown command {command!r}") from None
    return list(candidate_set.for_command(command))


def trajectory_arrays(candidates: Sequence[CandidateTrajectory]) -> tuple[np.ndarray, np.ndarray]:
    """(K, T, 2) waypoints and (K, T) headings."""
    xy = np.array([[(p.x, p.y) for p in c.waypoints] for c in candidates], dtype=float)
    return xy, np.array([c.headings for c in candidates], dtype=float)


def _risks(xy: np.ndarray, elements: Sequence[UncertainPolyline], aggregator: str) -> list[float]:
    """Per-candidate risk: the per-waypoint minimum NLL aggregated over waypoints."""
    per_waypoint = min_nll_grid(xy, elements)
    if aggregator == "min":
        return per_waypoint.min(axis=1).tolist()
    if aggregator == "mean":
        # Python's left-to-right sum: numpy does not promise a summation order
        return [sum(row) / len(row) for row in per_waypoint.tolist()]
    raise ValueError(f"unknown aggregator {aggregator!r}")


def _agent_flags(
    ego_corners: np.ndarray,
    ego_axes: np.ndarray,
    agents: Sequence["AgentPrediction"],
    margin: float,
    all_modes: bool,
) -> list[bool]:
    """Per-candidate overlap of the (K, T) ego boxes with the time-aligned boxes
    of every checked agent mode, in one separating-axis call."""
    k = len(ego_corners)
    trajectories, lengths, widths = [], [], []
    for agent in agents:
        modes = agent.modes if all_modes else (max(agent.modes, key=lambda m: m.confidence),)
        for mode in modes:
            trajectories.append(mode.trajectory)
            lengths.append(agent.dims[0] + 2.0 * margin)
            widths.append(agent.dims[1] + 2.0 * margin)
    if not trajectories:
        return [False] * k
    poses = np.array([[(p.position.x, p.position.y, p.heading) for p in traj] for traj in trajectories], dtype=float)
    headings = poses[..., 2]
    corners = box_corners(poses[..., :2], headings, np.array(lengths)[:, None], np.array(widths)[:, None])
    hit = boxes_overlap_batch(ego_corners[:, None], ego_axes[:, None], corners[None], box_axes(headings)[None])
    return hit.reshape(k, -1).any(axis=1).tolist()


def _segments(lines: Sequence[Sequence[Point2]]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points (S, 2) of every segment of the given polylines,
    validated as Polyline validates them."""
    arrays = [polyline_array(points) for points in lines]
    return np.concatenate([xy[:-1] for xy in arrays]), np.concatenate([xy[1:] for xy in arrays])


def _clearance_flags(corners: np.ndarray, segments: tuple[np.ndarray, np.ndarray], clearance: float) -> list[bool]:
    """Per-candidate: any footprint corner (K, T, 4, 2) strictly closer than
    clearance to a segment, or touching one."""
    hit = near_segments(corners.reshape(-1, 2), segments[0], segments[1], clearance)
    return hit.reshape(len(corners), -1).any(axis=1).tolist()


def trajectory_risk(
    traj: CandidateTrajectory,
    boundaries: Sequence[UncertainPolyline],
    aggregator: str = "min",
) -> float:
    """Boundary-proximity risk: aggregate over waypoints of the per-waypoint
    minimum NLL against all boundary vertices. Lower means riskier."""
    if not boundaries:
        raise ValueError("need at least one boundary element")
    return _risks(trajectory_arrays([traj])[0], boundaries, aggregator)[0]


def agent_collision_check(
    traj: CandidateTrajectory,
    ego_dims: tuple[float, float],
    agents: Sequence["AgentPrediction"],
    margin: float = 0.0,
    all_modes: bool = False,
) -> bool:
    """Time-aligned oriented-box overlap between the ego footprint along the
    trajectory and each agent's predicted motion (highest-confidence mode by
    default). Agent boxes are inflated by margin on each side."""
    xy, headings = trajectory_arrays([traj])
    corners = box_corners(xy, headings, ego_dims[0], ego_dims[1])
    return _agent_flags(corners, box_axes(headings), agents, margin, all_modes)[0]


def boundary_collision_check(
    traj: CandidateTrajectory,
    ego_dims: tuple[float, float],
    boundaries: Sequence[Polyline],
    clearance: float,
) -> bool:
    """Whether any footprint corner at any step comes strictly closer than
    `clearance` to a boundary polyline (exact contact always counts)."""
    if not boundaries:
        raise ValueError("need at least one boundary polyline")
    xy, headings = trajectory_arrays([traj])
    corners = box_corners(xy, headings, ego_dims[0], ego_dims[1])
    segments = _segments([line.points for line in boundaries])
    return _clearance_flags(corners, segments, clearance)[0]


def ucas_select(
    candidate_set: CandidateSet,
    command: Command | str,
    uncertain_map: UncertainMap,
    agents: Sequence["AgentPrediction"],
    ego_dims: tuple[float, float],
    cfg: SelectionConfig,
) -> SelectionReport:
    """Score, filter and pick the safest candidate for a command.

    final_score = confidence, zeroed when an enabled filter flags the
    candidate. Winner: highest score, ties broken by lower risk_nll, then by
    lowest index. If every score is zero the fallback prefers candidates
    without agent collisions and takes the one farthest from uncertain
    boundaries (highest risk_nll); if all collide, the raw-confidence argmax.
    """
    candidates = command_filter(candidate_set, command)
    n = len(candidates)
    xy, headings = trajectory_arrays(candidates)

    if cfg.enable_uncertainty_filter:
        if cfg.risk_on_all_elements:
            risk_elements = [e.polyline for e in uncertain_map.elements]
        else:
            risk_elements = boundary_elements(uncertain_map)
        if not risk_elements:
            raise ValueError("uncertainty filter needs at least one boundary element")
        risks = _risks(xy, risk_elements, cfg.risk_aggregator)
    else:
        risks = [math.inf] * n

    if cfg.enable_agent_filter or cfg.enable_boundary_filter:
        corners = box_corners(xy, headings, ego_dims[0], ego_dims[1])

    if cfg.enable_agent_filter:
        agent_flags = _agent_flags(corners, box_axes(headings), agents, cfg.agent_margin, cfg.check_all_agent_modes)
    else:
        agent_flags = [False] * n

    if cfg.enable_boundary_filter:
        bounds = boundary_elements(uncertain_map)
        if not bounds:
            raise ValueError("boundary filter needs at least one boundary element")
        segments = _segments([[lp.mu for lp in b.points] for b in bounds])
        boundary_flags = _clearance_flags(corners, segments, cfg.boundary_clearance)
    else:
        boundary_flags = [False] * n

    scores = []
    for i, cand in enumerate(candidates):
        # a disabled filter left its risk at +inf (never below the finite threshold) and its flags False
        flagged = risks[i] < cfg.nll_threshold or agent_flags[i] or boundary_flags[i]
        scores.append(0.0 if flagged else cand.confidence)

    fallback_used = max(scores) == 0.0
    if not fallback_used:
        chosen_index = max(range(n), key=lambda i: (scores[i], -risks[i], -i))
    else:
        non_colliding = [i for i in range(n) if not agent_flags[i]]
        if non_colliding:
            chosen_index = max(
                non_colliding, key=lambda i: (risks[i], candidates[i].confidence, -i)
            )
        else:
            chosen_index = max(range(n), key=lambda i: (candidates[i].confidence, -i))

    records = tuple(
        CandidateRecord(
            index=i,
            confidence=candidates[i].confidence,
            risk_nll=risks[i],
            agent_collision=agent_flags[i],
            boundary_collision=boundary_flags[i],
            final_score=scores[i],
        )
        for i in range(n)
    )
    return SelectionReport(
        chosen_index=chosen_index,
        chosen=candidates[chosen_index],
        records=records,
        fallback_used=fallback_used,
    )
