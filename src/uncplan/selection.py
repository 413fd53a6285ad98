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
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import (
    POINT,
    ArrayValue,
    Point2,
    box_axes,
    box_corners,
    boxes_overlap_batch,
    frozen,
    near_segments,
    point_tuple,
    row_array,
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


@dataclass(frozen=True, eq=False)
class CandidateTrajectory(ArrayValue):
    """One planning mode: T_F ego-frame waypoints, footprint headings, confidence.
    Stored: xy (T_F, 2) and yaw (T_F,), the waypoints and headings as read-only arrays."""

    waypoints: tuple[Point2, ...]
    headings: tuple[float, ...]
    confidence: float
    _views = {"waypoints": lambda c: point_tuple(c.xy), "headings": lambda c: tuple(c.yaw.tolist())}

    def __post_init__(self) -> None:
        waypoints = self.__dict__.pop("waypoints")
        xy, yaw = row_array(waypoints, 2, row=POINT), frozen(self.__dict__.pop("headings"))
        if len(xy) != T_F:
            raise ValueError(f"trajectory needs exactly {T_F} waypoints, got {len(xy)}")
        if yaw.shape != (T_F,):
            raise ValueError(f"trajectory needs exactly {T_F} headings, got {yaw.size}")
        if not all(map(math.isfinite, yaw.tolist())):
            raise ValueError("headings must be finite")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        self.__dict__.update(xy=xy, yaw=yaw)
        if isinstance(waypoints, tuple):  # Point2s: they are the view, as given
            self.__dict__["waypoints"] = waypoints


_FIELDS = dict(zip(Command, ("turn_left", "turn_right", "go_straight")))


@dataclass(frozen=True, eq=False)
class CandidateSet(ArrayValue):
    """Per-command candidate lists; every command key is always present.
    Stored: batches, per command the (K, T_F, 2) waypoints, (K, T_F) headings
    and (K,) confidences of its K candidates as read-only arrays."""

    turn_left: tuple[CandidateTrajectory, ...]
    turn_right: tuple[CandidateTrajectory, ...]
    go_straight: tuple[CandidateTrajectory, ...]
    _views = {name: lambda s, c=command: s._trajectories(c) for command, name in _FIELDS.items()}

    def __post_init__(self) -> None:
        batches, stacked = {}, {}  # a tuple given for several commands is stacked once
        for command, name in _FIELDS.items():
            cands = self.__dict__[name] = tuple(self.__dict__[name])
            if not cands:
                raise ValueError(f"command {name} needs at least one candidate")
            if id(cands) not in stacked:
                stacked[id(cands)] = tuple(map(frozen, zip(*((c.xy, c.yaw, c.confidence) for c in cands))))
            batches[command] = stacked[id(cands)]
        self.__dict__["batches"] = batches

    def head(self, limit: int) -> "CandidateSet":
        """The first limit candidates of every command."""
        return self._of(batches={c: tuple(a[:limit] for a in batch) for c, batch in self.batches.items()})

    def for_command(self, command: Command) -> tuple[CandidateTrajectory, ...]:
        return getattr(self, _FIELDS[command])

    def _trajectories(self, command: Command) -> tuple[CandidateTrajectory, ...]:
        xy, yaw, conf = self.batches[command]
        return tuple(CandidateTrajectory._of(xy=xy[k], yaw=yaw[k], confidence=c) for k, c in enumerate(conf.tolist()))


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
    """Audit record of one candidate's evaluation. The values of a disabled
    filter are not reported: risk_nll stays +inf and its flag stays False,
    even when another preset computed them."""

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


def _command(command: Command | str) -> Command:
    if isinstance(command, Command):
        return command
    try:
        return Command(command)
    except ValueError:
        raise ValueError(f"unknown command {command!r}") from None


def command_filter(
    candidate_set: CandidateSet, command: Command | str
) -> list[CandidateTrajectory]:
    """The candidate subset owned by the given driving command."""
    return list(candidate_set.for_command(_command(command)))


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
    poses, lengths, widths = [], [], []
    for agent in agents:
        modes = agent.modes if all_modes else (max(agent.modes, key=lambda m: m.confidence),)
        for mode in modes:
            poses.append(mode.poses)
            lengths.append(agent.dims[0] + 2.0 * margin)
            widths.append(agent.dims[1] + 2.0 * margin)
    if not poses:
        return [False] * k
    poses = np.stack(poses)
    headings = poses[..., 2]
    corners = box_corners(poses[..., :2], headings, np.array(lengths)[:, None], np.array(widths)[:, None])
    hit = boxes_overlap_batch(ego_corners[:, None], ego_axes[:, None], corners[None], box_axes(headings)[None])
    return hit.reshape(k, -1).any(axis=1).tolist()


def _segments(lines: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points (S, 2) of every segment of the given polylines' vertices (n, 2)."""
    return np.concatenate([xy[:-1] for xy in lines]), np.concatenate([xy[1:] for xy in lines])


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
    return _risks(traj.xy[None], boundaries, aggregator)[0]


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
    corners = box_corners(traj.xy[None], traj.yaw[None], ego_dims[0], ego_dims[1])
    return _agent_flags(corners, box_axes(traj.yaw[None]), agents, margin, all_modes)[0]


def boundary_collision_check(
    traj: CandidateTrajectory,
    ego_dims: tuple[float, float],
    boundaries: Sequence[np.ndarray],
    clearance: float,
) -> bool:
    """Whether any footprint corner at any step comes strictly closer than
    `clearance` to a boundary polyline, given by its vertices (n, 2) (exact
    contact always counts)."""
    if not boundaries:
        raise ValueError("need at least one boundary polyline")
    corners = box_corners(traj.xy[None], traj.yaw[None], ego_dims[0], ego_dims[1])
    return _clearance_flags(corners, _segments(boundaries), clearance)[0]


class FilterValues:
    """Per-candidate filter values of one scenario and command under the kernel
    parameters of cfg. Each filter runs once, over all K candidates, when first
    read; its kernel decides each candidate alone, so the first k values are those of head(k)."""

    def __init__(self, candidate_set: CandidateSet, command: Command | str, uncertain_map: UncertainMap,
                 agents: Sequence["AgentPrediction"], ego_dims: tuple[float, float], cfg: SelectionConfig) -> None:
        self.xy, self.headings, confidences = candidate_set.batches[_command(command)]
        self.confidences = confidences.tolist()
        self.map, self.agents, self.ego_dims, self.cfg = uncertain_map, agents, ego_dims, cfg

    @cached_property
    def risks(self) -> list[float]:
        cfg, m = self.cfg, self.map
        elements = [e.polyline for e in m.elements] if cfg.risk_on_all_elements else boundary_elements(m)
        if not elements:
            raise ValueError("uncertainty filter needs at least one boundary element")
        return _risks(self.xy, elements, cfg.risk_aggregator)

    @cached_property
    def _corners(self) -> np.ndarray:
        return box_corners(self.xy, self.headings, self.ego_dims[0], self.ego_dims[1])

    @cached_property
    def agent_flags(self) -> list[bool]:
        axes, cfg = box_axes(self.headings), self.cfg
        return _agent_flags(self._corners, axes, self.agents, cfg.agent_margin, cfg.check_all_agent_modes)

    @cached_property
    def boundary_flags(self) -> list[bool]:
        bounds = boundary_elements(self.map)
        if not bounds:
            raise ValueError("boundary filter needs at least one boundary element")
        return _clearance_flags(self._corners, _segments([b.mu for b in bounds]), self.cfg.boundary_clearance)

    def select(self, cfg: SelectionConfig, limit: int | None = None) -> SelectionReport:
        """Score, filter and pick the safest of the first limit candidates (all
        when None) under the filters and threshold of cfg.

        final_score = confidence, zeroed when an enabled filter flags the
        candidate. Winner: highest score, ties broken by lower risk_nll, then by
        lowest index. If every score is zero the fallback prefers candidates
        without agent collisions and takes the one farthest from uncertain
        boundaries (highest risk_nll); if all collide, the raw-confidence argmax.
        """
        confidences = self.confidences[:limit]
        n = len(confidences)
        # a disabled filter leaves its risk at +inf (never below the finite threshold) and its flags False
        risks = self.risks[:n] if cfg.enable_uncertainty_filter else [math.inf] * n
        agent_flags = self.agent_flags[:n] if cfg.enable_agent_filter else [False] * n
        boundary_flags = self.boundary_flags[:n] if cfg.enable_boundary_filter else [False] * n

        scores = []
        for i, confidence in enumerate(confidences):
            flagged = risks[i] < cfg.nll_threshold or agent_flags[i] or boundary_flags[i]
            scores.append(0.0 if flagged else confidence)

        fallback_used = max(scores) == 0.0
        if not fallback_used:
            chosen_index = max(range(n), key=lambda i: (scores[i], -risks[i], -i))
        else:
            non_colliding = [i for i in range(n) if not agent_flags[i]]
            if non_colliding:
                chosen_index = max(non_colliding, key=lambda i: (risks[i], confidences[i], -i))
            else:
                chosen_index = max(range(n), key=lambda i: (confidences[i], -i))

        records = tuple(map(CandidateRecord, range(n), confidences, risks, agent_flags, boundary_flags, scores))
        xy, yaw, confidence = self.xy[chosen_index], self.headings[chosen_index], confidences[chosen_index]
        chosen = CandidateTrajectory._of(xy=xy, yaw=yaw, confidence=confidence)
        return SelectionReport(chosen_index=chosen_index, chosen=chosen, records=records, fallback_used=fallback_used)


def ucas_select(
    candidate_set: CandidateSet,
    command: Command | str,
    uncertain_map: UncertainMap,
    agents: Sequence["AgentPrediction"],
    ego_dims: tuple[float, float],
    cfg: SelectionConfig,
) -> SelectionReport:
    """Score, filter and pick the safest candidate for a command, by the rule of FilterValues.select."""
    return FilterValues(candidate_set, command, uncertain_map, agents, ego_dims, cfg).select(cfg)
