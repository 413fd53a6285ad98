"""Candidate trajectory selection under map uncertainty and collision risk.

Each command owns a list of candidate trajectories with confidence scores.
Selection keeps a candidate's confidence as its score unless an enabled
filter flags it (boundary-risk NLL below threshold, predicted-agent
collision, or footprint too close to a map boundary); flagged scores drop to
zero and the highest-scoring survivor wins. If everything is zeroed a
deterministic fallback still emits a trajectory.

Each filter is one array kernel: risk over a (K, T, V) NLL array per
scenario, the agent check over (K, T) ego boxes x agent boxes, and clearance
over (K, T, 4) corners x S segments, the last two behind a broad phase. The
box and clearance kernels run once over a chunk of scenarios
(FilterValues): the candidates of all its scenarios laid end to end, each
item labelled with its scenario, so that only items of one scenario are
paired. ucas_select is a FilterValues of one scenario, and the per-candidate
functions are the same kernels called with K = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import (
    POINT,
    ArrayValue,
    Point2,
    aligned_box_hits,
    box_corners,
    frozen,
    near_segments,
    point_tuple,
    row_array,
    row_dims,
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
        batches = {}
        for command, name in _FIELDS.items():
            cands = self.__dict__[name] = tuple(self.__dict__[name])
            if not cands:
                raise ValueError(f"command {name} needs at least one candidate")
            batches[command] = tuple(map(frozen, zip(*((c.xy, c.yaw, c.confidence) for c in cands))))
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


def command_filter(
    candidate_set: CandidateSet, command: Command | str
) -> list[CandidateTrajectory]:
    """The candidate subset owned by the given driving command."""
    return list(candidate_set.for_command(Command(command)))


def _risks(xy: np.ndarray, elements: Sequence[UncertainPolyline], aggregator: str) -> list[float]:
    """Per-candidate risk: the per-waypoint minimum NLL aggregated over waypoints."""
    per_waypoint = min_nll_grid(xy, elements)
    if aggregator == "min":
        return per_waypoint.min(axis=1).tolist()
    if aggregator == "mean":
        # Python's left-to-right sum: numpy does not promise a summation order
        return [sum(row) / len(row) for row in per_waypoint.tolist()]
    raise ValueError(f"unknown aggregator {aggregator!r}")


def _agent_flags(xy: np.ndarray, headings: np.ndarray, corners: np.ndarray, ego_dims,
                 agent_lists: Sequence[Sequence["AgentPrediction"]], margin: float, all_modes: bool,
                 groups: np.ndarray | None) -> list[bool]:
    """Per candidate k: overlap of its (T,) ego boxes, centred at xy (K, T, 2)
    with the given corners and ego_dims (a pair of floats or of (K, 1)
    arrays), with the time-aligned boxes of every checked mode of an agent of
    agent_lists[groups[k]] (of agent_lists[0] when groups is None)."""
    poses, lengths, widths, labels = [], [], [], []
    for label, agents in enumerate(agent_lists):
        for agent in agents:
            modes = agent.modes if all_modes else (max(agent.modes, key=lambda m: m.confidence),)
            for mode in modes:
                poses.append(mode.poses)
                lengths.append(agent.dims[0] + 2.0 * margin)
                widths.append(agent.dims[1] + 2.0 * margin)
                labels.append(label)
    if not poses:
        return [False] * len(xy)
    sizes = np.array([lengths, widths])[..., None]
    hit = aligned_box_hits(xy, headings, corners, ego_dims, np.stack(poses), *sizes,
                           None if groups is None else (groups, np.array(labels)))
    return hit.reshape(len(xy), -1).any(axis=1).tolist()


def _segments(lines: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points (S, 2) of every segment of the given polylines' vertices (n, 2)."""
    return np.concatenate([xy[:-1] for xy in lines]), np.concatenate([xy[1:] for xy in lines])


def _clearance_flags(corners: np.ndarray, segments: tuple[np.ndarray, np.ndarray], clearance: float,
                     groups=None) -> list[bool]:
    """Per candidate: any footprint corner (K, T, 4, 2) strictly closer than
    clearance to a segment of its group, or touching one; groups labels the
    corners and the segments as near_segments takes them."""
    hit = near_segments(corners.reshape(-1, 2), segments[0], segments[1], clearance, groups)
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
    xy, yaw = traj.xy[None], traj.yaw[None]
    return _agent_flags(xy, yaw, box_corners(xy, yaw, *ego_dims), ego_dims, [agents], margin, all_modes, None)[0]


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
    """Per-candidate filter values of the scenes of a chunk under the kernel
    parameters of cfg. A scene is (candidate_set, command, uncertain_map,
    agents, ego_dims). The candidates of all scenes are laid end to end, K rows
    in all, each row labelled with its scene's slot. Each filter runs when first
    read: risk once per scene, the agent check and the clearance filter once over
    all rows. Every kernel decides each candidate alone, so a scene's values are
    those it has in a chunk of its own, and its first k values are those of
    head(k). A chunk of one scene keeps its own arrays and passes the kernels no
    labels, which they read as one group: building the labels and the joined
    rows made a single selection 10-18 % slower."""

    def __init__(self, scenes: Sequence[tuple], cfg: SelectionConfig) -> None:
        self.cfg = cfg
        # per scene: (xy, headings, confidences, uncertain_map, agents, ego_dims)
        self.scenes = [(*candidate_set.batches[Command(command)], uncertain_map, agents, ego_dims)
                       for candidate_set, command, uncertain_map, agents, ego_dims in scenes]
        sizes = [len(scene[0]) for scene in self.scenes]
        self.bounds = list(accumulate(sizes, initial=0))
        self.groups = np.repeat(np.arange(len(sizes)), sizes) if len(sizes) > 1 else None

    def _split(self, values: list) -> list[list]:
        """Per scene, its rows of values."""
        return [values[a:b] for a, b in zip(self.bounds, self.bounds[1:])]

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
        """Centres (K, T, 2), headings (K, T), ego lengths and widths (the
        scene's pair, or (K, 1) arrays) and footprint corners (K, T, 4, 2) of
        every row."""
        if self.groups is None:
            xy, headings, _, _, _, dims = self.scenes[0]
        else:
            xy, headings, _, _, _, dims = zip(*self.scenes)
            xy, headings, dims = np.concatenate(xy), np.concatenate(headings), row_dims(dims, np.diff(self.bounds))
        return xy, headings, dims, box_corners(xy, headings, *dims)

    @cached_property
    def risks(self) -> list[list[float]]:
        """Per scene, the risk of each candidate against the map's boundary elements."""
        per_scene = []
        for xy, _, _, m, _, _ in self.scenes:
            elements = boundary_elements(m)
            if not elements:
                raise ValueError("uncertainty filter needs at least one boundary element")
            per_scene.append(_risks(xy, elements, self.cfg.risk_aggregator))
        return per_scene

    @cached_property
    def agent_flags(self) -> list[list[bool]]:
        """Per scene, whether each candidate's footprint meets a checked agent mode."""
        (xy, headings, dims, corners), cfg = self.rows, self.cfg
        agents = [scene[4] for scene in self.scenes]
        flags = _agent_flags(xy, headings, corners, dims, agents, cfg.agent_margin, cfg.check_all_agent_modes,
                             self.groups)
        return self._split(flags)

    @cached_property
    def boundary_flags(self) -> list[list[bool]]:
        """Per scene, whether each candidate's footprint comes too close to a boundary."""
        bounds = [boundary_elements(scene[3]) for scene in self.scenes]
        if not all(bounds):
            raise ValueError("boundary filter needs at least one boundary element")
        corners, labels = self.rows[3], None
        if self.groups is not None:  # each scene's label on its corners and its segments
            counts = [sum(len(b.mu) - 1 for b in scene) for scene in bounds]
            labels = np.repeat(self.groups, corners[0].size // 2), np.repeat(np.arange(len(counts)), counts)
        segments = _segments([b.mu for scene in bounds for b in scene])
        return self._split(_clearance_flags(corners, segments, self.cfg.boundary_clearance, labels))

    def select(self, slot: int, cfg: SelectionConfig, limit: int | None = None) -> SelectionReport:
        """Score, filter and pick the safest of the first limit candidates (all
        when None) of the scene at slot under the filters and threshold of cfg.

        final_score = confidence, zeroed when an enabled filter flags the
        candidate. Winner: highest score, ties broken by lower risk_nll, then by
        lowest index. If every score is zero the fallback prefers candidates
        without agent collisions and takes the one farthest from uncertain
        boundaries (highest risk_nll); if all collide, the raw-confidence argmax.
        """
        xy, headings, confidences = self.scenes[slot][:3]
        confidences = confidences[:limit].tolist()
        n = len(confidences)
        # a disabled filter leaves its risk at +inf (never below the finite threshold) and its flags False
        risks = self.risks[slot][:n] if cfg.enable_uncertainty_filter else [math.inf] * n
        agent_flags = self.agent_flags[slot][:n] if cfg.enable_agent_filter else [False] * n
        boundary_flags = self.boundary_flags[slot][:n] if cfg.enable_boundary_filter else [False] * n

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
        chosen = CandidateTrajectory._of(xy=xy[chosen_index], yaw=headings[chosen_index],
                                         confidence=confidences[chosen_index])
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
    return FilterValues([(candidate_set, command, uncertain_map, agents, ego_dims)], cfg).select(0, cfg)
