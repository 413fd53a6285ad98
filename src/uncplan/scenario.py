"""Scenario data model, versioned JSON serialization, and the deterministic
synthetic generator that stands in for perception and prediction.

Each scenario is a single road corridor (straight or constant-curvature arc)
bounded by two uncertain boundary polylines, with the corridor polygon as
ground-truth drivable area. The ego ground truth follows the corridor center;
candidates emulate a planner that aims at the *perceived* corridor center
read from the noisy map at a lookahead station, spreading lateral variations
around that aim point with confidences decaying with deviation from it.
Agents are scripted constant-velocity vehicles and pedestrians.

Suite seeding: scenario i of a suite uses splitmix64(master_seed XOR i), so
suites are reproducible and individual scenarios can be regenerated alone.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, asdict
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .geometry import ArrayValue, MultiPolygon, OrientedBox, Point2, Polygon, Pose2, frozen, pose_array, row_array
from .map_model import MapElement, MapElementKind, UncertainMap, perturb_map
from .metrics import GroundTruth, box_array, scenario_class_of
from .selection import DT, T_F, CandidateSet, CandidateTrajectory, Command
from .uncertainty import B_MIN, LaplacePoint, UncertainPolyline

SCHEMA_VERSION = 1
_MASK64 = (1 << 64) - 1


class ScenarioFormatError(ValueError):
    """Malformed scenario file: bad JSON or missing/mistyped fields."""


class ScenarioVersionError(ScenarioFormatError):
    """Scenario file carries a missing or unsupported schema version."""


class ScenarioInvariantError(ValueError):
    """Scenario file parsed fine but a value violates a documented invariant."""


class ScenarioKind(enum.Enum):
    STRAIGHT = "Straight"
    TURN = "Turn"


@dataclass(frozen=True, eq=False)
class AgentMode(ArrayValue):
    """One predicted future of an agent with its confidence. poses, T_F Pose2s
    or (x, y, heading) rows, is stored as a read-only (T_F, 3) array (see pose_array)."""

    poses: np.ndarray
    confidence: float

    def __post_init__(self) -> None:
        poses = pose_array(self.poses)
        if len(poses) != T_F:
            raise ValueError(f"agent mode needs {T_F} poses, got {len(poses)}")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"mode confidence must be in [0, 1], got {self.confidence}")
        self.__dict__.update(poses=poses)


@dataclass(frozen=True)
class AgentPrediction:
    """Multi-modal prediction for one agent plus its footprint dimensions."""

    agent_id: str
    dims: tuple[float, float]  # length, width in meters
    modes: tuple[AgentMode, ...]

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "dims", (float(self.dims[0]), float(self.dims[1])))
        if not modes:
            raise ValueError("agent needs at least one mode")
        if not all(0 < d < math.inf for d in self.dims):
            raise ValueError(f"agent dims must be positive and finite, got {self.dims}")
        total = sum(m.confidence for m in modes)
        if total > 1.0 + 1e-6:
            raise ValueError(f"mode confidences sum to {total}, cap is 1")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic corridor generator.

    Turn corridors default tighter than straight ones: curved road sections
    are the constrained regime the suite is meant to stress. planner_noise_frac
    scales the planning-head aim error with the map noise, so noiseless
    scenarios stay exact while noisy ones have an imperfect top-confidence mode.
    """

    noise_scale: float = 0.5  # m, Laplace scale of map perturbation
    n_agents: int = 2
    n_candidates: int = 5  # planning modes per command
    curvature_range: tuple[float, float] = (0.08, 0.14)  # 1/m, turn corridors
    speed_range: tuple[float, float] = (4.5, 8.5)  # m/s
    half_width_range: tuple[float, float] = (2.5, 3.4)  # m, straight corridors
    turn_half_width_range: tuple[float, float] = (2.8, 3.3)  # m, turn corridors
    ego_length: float = 4.2  # m; the corridor starts 1.5 m behind the ego's rear
    ego_width: float = 1.9
    n_element_points: int = 20  # vertices per map element
    calibrated: bool = True  # perturbed maps advertise their true noise scale
    lateral_reach_frac: float = 0.55  # candidate spread as a fraction of half width
    planner_noise_frac: float = 1.0  # aim error scale as a fraction of noise_scale
    turn_planner_noise_boost: float = 2.0  # extra aim error factor in turns
    confidence_temperature: float = 1.0  # m, softmax temperature over deviation
    corridor_tail: float = 6.0  # m of corridor beyond the 3 s horizon

    def __post_init__(self) -> None:
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        # NaN fails every comparison below without raising, and inf passes some of them
        for name, value in vars(self).items():
            numbers = value if isinstance(value, tuple) else (value,)
            if not all(isinstance(v, int) or math.isfinite(v) for v in numbers):
                raise ValueError(f"{name} must be finite, got {value}")
            if name.endswith("_range") and not 0 < value[0] <= value[1]:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got ({value[0]}, {value[1]})")
        if self.n_agents < 0:
            raise ValueError(f"n_agents must be >= 0, got {self.n_agents}")
        if self.n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.ego_length <= 0 or self.ego_width <= 0:
            raise ValueError("ego dimensions must be positive")
        if self.n_element_points < 2:
            raise ValueError("map elements need at least 2 points")
        if not 0 < self.lateral_reach_frac < 1:
            raise ValueError("lateral_reach_frac must be in (0, 1)")
        if self.planner_noise_frac < 0:
            raise ValueError("planner_noise_frac must be >= 0")
        if self.turn_planner_noise_boost < 1.0:
            raise ValueError("turn_planner_noise_boost must be >= 1")
        if self.confidence_temperature <= 0:
            raise ValueError("confidence_temperature must be positive")
        if self.corridor_tail <= 0:
            raise ValueError("corridor_tail must be positive")


@dataclass(frozen=True, eq=False)
class Scenario(ArrayValue):
    """One evaluation unit: perceived map, agents, candidates, ground truth.
    The ground truths are stored as read-only arrays: agent_boxes (A, T_F, 5),
    per agent T_F OrientedBoxes (see metrics.box_array), and ego_poses (T_F, 3),
    the ego's future Pose2s (see geometry.pose_array)."""

    scenario_id: str
    seed: int
    map: UncertainMap
    agents: tuple[AgentPrediction, ...]
    agent_boxes: np.ndarray
    ego_pose: Pose2
    ego_dims: tuple[float, float]
    command: Command
    candidates: CandidateSet
    ego_poses: np.ndarray
    scenario_class: str  # "Turn" | "Straight"

    def __post_init__(self) -> None:
        agents, agent_gt, future = tuple(self.agents), self.agent_boxes, pose_array(self.ego_poses)
        if len(future) != T_F:
            raise ValueError(f"ego ground truth needs {T_F} poses, got {len(future)}")
        if len(agent_gt) != len(agents):
            raise ValueError("agent_gt and agents must align")
        for seq in agent_gt:
            if len(seq) != T_F:
                raise ValueError(f"agent ground truth needs {T_F} boxes per agent")
        expected = scenario_class_of(future[:, 2].tolist())
        if self.scenario_class != expected:
            raise ValueError(
                f"scenario_class {self.scenario_class!r} inconsistent with ego future "
                f"(15 degree rule says {expected!r})"
            )
        ego_dims = (float(self.ego_dims[0]), float(self.ego_dims[1]))
        self.__dict__.update(agents=agents, agent_boxes=box_array(agent_gt), ego_poses=future, ego_dims=ego_dims)

    def ground_truth(self) -> GroundTruth:
        return GroundTruth._of(ego_xy=self.ego_poses[:, :2], ego_yaw=self.ego_poses[:, 2],
                               agent_boxes=self.agent_boxes, drivable_area=self.map.drivable_area)


# ---------------------------------------------------------------------------
# seeding


def splitmix64(x: int) -> int:
    """Standard 64-bit splitmix finalizer; bijective on the 64-bit range."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def scenario_seed(master_seed: int, index: int) -> int:
    """Per-scenario seed: splitmix64(master XOR index)."""
    return splitmix64((master_seed ^ index) & _MASK64)


# ---------------------------------------------------------------------------
# generation

_COMMAND_SIDE = {Command.TURN_LEFT: 1.0, Command.GO_STRAIGHT: 0.0, Command.TURN_RIGHT: -1.0}
_INACTIVE_COMMAND_BIAS = 1.0  # m of extra lateral drift per side step at full ramp


def _offset_template(n: int) -> list[float]:
    """n distinct lateral factors in [-1, 1]: 0 first, then staggered +/- pairs.

    Magnitudes are deliberately asymmetric so no two candidates are ever
    equally far from the aim point (keeps confidences strictly ordered).
    """
    if n == 1:
        return [0.0]
    raw = [0.0]
    j = 1
    while len(raw) < n:
        raw.append(j - 0.05)
        if len(raw) < n:
            raw.append(-(j + 0.05))
        j += 1
    peak = max(abs(v) for v in raw)
    return [v / peak for v in raw]


def generate_scenario(kind: ScenarioKind, params: GeneratorParams, seed: int) -> Scenario:
    """Build one deterministic synthetic scenario for the given seed."""
    rng = np.random.Generator(np.random.PCG64(seed & _MASK64))

    speed = float(rng.uniform(*params.speed_range))
    if kind is ScenarioKind.TURN:
        half_width = float(rng.uniform(*params.turn_half_width_range))
        curvature = float(rng.uniform(*params.curvature_range))
        if rng.random() < 0.5:
            curvature = -curvature
    else:
        half_width = float(rng.uniform(*params.half_width_range))
        curvature = 0.0

    horizon_len = speed * DT * T_F
    corridor_len = horizon_len + params.corridor_tail
    # corridor starts behind the ego so the rear footprint corners stay on road
    corridor_start = -(params.ego_length / 2 + 1.5)

    def center(s: float) -> tuple[float, float]:
        if curvature == 0.0:
            return s, 0.0
        return math.sin(curvature * s) / curvature, (1.0 - math.cos(curvature * s)) / curvature

    def heading(s: float) -> float:
        return curvature * s

    def normal(s: float) -> tuple[float, float]:
        h = heading(s)
        return -math.sin(h), math.cos(h)

    n_pts = params.n_element_points
    stations = [
        corridor_start + (corridor_len - corridor_start) * k / (n_pts - 1) for k in range(n_pts)
    ]

    def offset_point(s: float, lateral: float) -> Point2:
        cx, cy = center(s)
        nx, ny = normal(s)
        return Point2(cx + lateral * nx, cy + lateral * ny)

    left_pts = [offset_point(s, half_width) for s in stations]
    right_pts = [offset_point(s, -half_width) for s in stations]

    # drivable area: corridor ring, right side forward then left side back (CCW)
    ring = tuple(right_pts) + tuple(reversed(left_pts)) + (right_pts[0],)
    drivable = MultiPolygon((Polygon(ring),))

    def element(points: list[Point2], kind: MapElementKind) -> MapElement:
        return MapElement(UncertainPolyline(np.array([(p.x, p.y, B_MIN, B_MIN) for p in points])), kind)

    elements = [
        element(left_pts, MapElementKind.BOUNDARY),
        element(right_pts, MapElementKind.BOUNDARY),
        element([offset_point(s, 0.0) for s in stations], MapElementKind.LANE_DIVIDER),
    ]
    if rng.random() < 0.4:
        s_cross = float(rng.uniform(0.35, 0.7)) * corridor_len
        span = half_width - 0.2
        cross = [offset_point(s_cross, -span + 2 * span * k / (n_pts - 1)) for k in range(n_pts)]
        elements.append(element(cross, MapElementKind.PED_CROSSING))

    true_map = UncertainMap(tuple(elements), drivable)
    perturb_seed = int(rng.integers(0, 2**63 - 1))
    perceived = perturb_map(true_map, params.noise_scale, perturb_seed, params.calibrated)

    # planner aim point: perceived corridor center at the lookahead station,
    # plus the planning head's own lateral error on top of the map reading
    i_look = min(range(n_pts), key=lambda k: abs(stations[k] - horizon_len))
    (plx, ply), (prx, pry) = (perceived.elements[k].polyline.table[i_look, :2].tolist() for k in (0, 1))
    mid = Point2(0.5 * (plx + prx), 0.5 * (ply + pry))
    cx, cy = center(stations[i_look])
    nx, ny = normal(stations[i_look])
    aim = (mid.x - cx) * nx + (mid.y - cy) * ny
    head_scale = params.planner_noise_frac * params.noise_scale
    if kind is ScenarioKind.TURN:
        head_scale *= params.turn_planner_noise_boost
    if head_scale > 0:
        aim += float(rng.laplace(0.0, head_scale))
    reach = params.lateral_reach_frac * half_width
    aim = max(-0.8 * half_width, min(0.8 * half_width, aim))

    ego_pose = Pose2(Point2(0.0, 0.0), 0.0)
    step_arcs = [speed * DT * (t + 1) for t in range(T_F)]
    ego_gt_future = tuple(Pose2(offset_point(s, 0.0), heading(s)) for s in step_arcs)

    template = _offset_template(params.n_candidates)
    deviations = [abs(f) * reach for f in template]
    weights = [math.exp(-d / params.confidence_temperature) for d in deviations]
    total_w = sum(weights)
    confidences = [w / total_w for w in weights]

    if kind is ScenarioKind.TURN:
        command = Command.TURN_LEFT if curvature > 0 else Command.TURN_RIGHT
    else:
        command = Command.GO_STRAIGHT

    def command_batch(cmd: Command) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The command's candidate arrays, valid by construction: Point2 waypoints are finite."""
        bias = (_COMMAND_SIDE[cmd] - _COMMAND_SIDE[command]) * _INACTIVE_COMMAND_BIAS
        xy, yaw = [], []
        for factor in template:
            target = aim + factor * reach + bias
            waypoints = []
            for t, s in enumerate(step_arcs):
                ramp = (t + 1) / T_F
                waypoints.append(offset_point(s, target * ramp))
            headings = [ego_pose.heading]
            for t in range(1, T_F):
                a, b = waypoints[t - 1], waypoints[t]
                headings.append(math.atan2(b.y - a.y, b.x - a.x))
            xy.append([(p.x, p.y) for p in waypoints])
            yaw.append(headings)
        return frozen(xy), frozen(yaw), frozen(confidences)

    candidates = CandidateSet._of(batches={cmd: command_batch(cmd) for cmd in Command})

    agents, agent_gt = _script_agents(rng, params, speed, half_width, horizon_len, offset_point, heading, normal)

    kind_name = "turn" if kind is ScenarioKind.TURN else "straight"
    scenario_id = f"{kind_name}-{seed & _MASK64:016x}"
    return Scenario(
        scenario_id=scenario_id,
        seed=seed,
        map=perceived,
        agents=agents,
        agent_boxes=agent_gt,
        ego_pose=ego_pose,
        ego_dims=(params.ego_length, params.ego_width),
        command=command,
        candidates=candidates,
        ego_poses=ego_gt_future,
        scenario_class=ScenarioKind.TURN.value if kind is ScenarioKind.TURN else ScenarioKind.STRAIGHT.value,
    )


def _script_agents(rng, params, speed, half_width, horizon_len, offset_point, heading, normal):
    """Constant-velocity scripted agents: parked cars nudging into the corridor,
    pedestrians on the verge, and a leading vehicle that keeps its gap."""
    agents = []
    agent_gt = []
    for idx in range(params.n_agents):
        draw = rng.random()
        side = 1.0 if rng.random() < 0.5 else -1.0
        if draw < 0.4:  # parked vehicle slightly intruding from the roadside
            dims = (4.0, 1.7)
            s_a = float(rng.uniform(0.3, 0.95)) * horizon_len
            lateral = side * (half_width + 0.55)
            poses = tuple(Pose2(offset_point(s_a, lateral), heading(s_a)) for _ in range(T_F))
        elif draw < 0.75:  # pedestrian walking on the verge
            dims = (0.5, 0.5)
            s_a = float(rng.uniform(0.2, 0.9)) * horizon_len
            lateral = side * (half_width + 1.2)
            walk = float(rng.uniform(1.0, 1.4)) * (1.0 if rng.random() < 0.5 else -1.0)
            poses = tuple(
                Pose2(offset_point(s_a + walk * DT * (t + 1), lateral), heading(s_a))
                for t in range(T_F)
            )
        else:  # lead vehicle pulling away on the centerline
            dims = (4.2, 1.8)
            s_a = float(rng.uniform(1.05, 1.3)) * horizon_len
            v_lead = speed + float(rng.uniform(0.5, 1.5))
            poses = tuple(
                Pose2(offset_point(s_a + v_lead * DT * (t + 1), 0.0), heading(s_a + v_lead * DT * (t + 1)))
                for t in range(T_F)
            )

        base_conf = float(rng.uniform(0.55, 0.8))
        n_extra = int(rng.integers(0, 3))
        modes = [AgentMode(poses, base_conf)]
        if n_extra:
            share = (1.0 - base_conf) * 0.9 / n_extra
            for e in range(n_extra):
                drift = (0.5 + 0.5 * e) * (1.0 if e % 2 == 0 else -1.0)
                drifted = []
                for t, p in enumerate(poses):
                    ramp = (t + 1) / T_F
                    nx, ny = -math.sin(p.heading), math.cos(p.heading)
                    drifted.append(
                        Pose2(Point2(p.position.x + drift * ramp * nx, p.position.y + drift * ramp * ny), p.heading)
                    )
                modes.append(AgentMode(tuple(drifted), share))
        agents.append(AgentPrediction(f"agent-{idx}", dims, tuple(modes)))
        agent_gt.append(tuple(OrientedBox(p.position, p.heading, dims[0], dims[1]) for p in poses))
    return tuple(agents), tuple(agent_gt)


# ---------------------------------------------------------------------------
# serialization (schema v1)


def _poses_to_dicts(poses: np.ndarray) -> list[dict]:
    return [{"x": x, "y": y, "heading": h} for x, y, h in poses.tolist()]


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-data form of a scenario, schema v1."""
    return {
        "version": SCHEMA_VERSION,
        "id": s.scenario_id,
        "seed": s.seed,
        "scenario_class": s.scenario_class,
        "command": s.command.value,
        "ego": {
            "pose": {"x": s.ego_pose.position.x, "y": s.ego_pose.position.y, "heading": s.ego_pose.heading},
            "dims": {"length": s.ego_dims[0], "width": s.ego_dims[1]},
        },
        "ego_gt_future": _poses_to_dicts(s.ego_poses),
        "map": {
            "elements": [
                {
                    "kind": e.kind.value,
                    "points": [
                        {"mx": mx, "my": my, "bx": bx, "by": by} for mx, my, bx, by in e.polyline.table.tolist()
                    ],
                }
                for e in s.map.elements
            ],
            "drivable_area": [
                {"outer": poly.rings[0].tolist(), "holes": [ring.tolist() for ring in poly.rings[1:]]}
                for poly in s.map.drivable_area.polygons
            ],
        },
        "agents": [
            {
                "id": a.agent_id,
                "dims": {"length": a.dims[0], "width": a.dims[1]},
                "modes": [{"confidence": m.confidence, "trajectory": _poses_to_dicts(m.poses)} for m in a.modes],
            }
            for a in s.agents
        ],
        "agent_gt": [
            [{"cx": cx, "cy": cy, "heading": h, "length": length, "width": width} for cx, cy, h, length, width in seq]
            for seq in s.agent_boxes.tolist()
        ],
        "candidates": {
            command.value: [
                {"confidence": c, "waypoints": w, "headings": h}
                for w, h, c in zip(*(a.tolist() for a in s.candidates.batches[command]))
            ]
            for command in Command
        },
    }


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write one scenario as indented JSON (floats keep full round-trip precision)."""
    text = json.dumps(scenario_to_dict(s), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _name(path) -> str:
    """Dotted name of a path chain: None is the top level, (parent, key) a field or item of parent."""
    parts = []
    while path is not None:
        path, key = path
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return "".join(reversed(parts)).lstrip(".")


def _field(obj, key: str, kind, path, *read):
    """obj[key] as kind: dict, list, str, int or a finite float; true and false are not numbers.
    Given read, the items of a list are read by read[0](item, item path, *read[1:])."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"field '{_name(path)}' must be an object")
    if key not in obj:
        raise ScenarioFormatError(f"missing field '{_name((path, key))}'")
    value = obj[key]
    if kind is float:
        if type(value) is not float:
            value = _number(value, (path, key))
        if not math.isfinite(value):
            raise ScenarioInvariantError(f"field '{_name((path, key))}': must be finite, got {value}")
    elif isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioFormatError(f"field '{_name((path, key))}' must be {kind.__name__}")
    return _list(value, (path, key), *read) if read else value


def _number(value, path) -> float:
    """A number item as a float; an integer too large for a float is infinite, as 1e999 is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"field '{_name(path)}' must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(obj, path, *keys) -> tuple[float, ...]:
    return tuple([_field(obj, key, float, path) for key in keys])


def _list(value, path, read, *args) -> tuple:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"field '{_name(path)}' must be a list")
    return tuple([read(item, (path, i), *args) for i, item in enumerate(value)])


def _point(value, path) -> Point2:
    """An [x, y] pair."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioFormatError(f"field '{_name(path)}' must be an [x, y] pair")
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ScenarioFormatError(f"field '{_name(path)}' must hold numbers")
    return _build(path, Point2, _number(value[0], path), _number(value[1], path))


def _enum(obj, key: str, path, enum_cls, unknown: str):
    """The string field obj[key] as a member of enum_cls; unknown words the error for other strings."""
    name = _field(obj, key, str, path)
    try:
        return enum_cls(name)
    except ValueError:
        raise ScenarioInvariantError(f"field '{_name((path, key))}': {unknown.format(name)}") from None


def _build(path, ctor, *args, **kwargs):
    """ctor(*args, **kwargs); a ValueError it raises, other than a format error, becomes an invariant error naming path."""
    try:
        return ctor(*args, **kwargs)
    except ScenarioFormatError:
        raise
    except ValueError as e:
        raise ScenarioInvariantError(f"field '{_name(path)}': {e}") from None


def _pose(obj, path) -> Pose2:
    x, y, heading = _floats(obj, path, "x", "y", "heading")
    return Pose2(Point2(x, y), heading)


def _laplace_point(obj, path) -> LaplacePoint:
    mx, my, bx, by = _floats(obj, path, "mx", "my", "bx", "by")
    if bx < B_MIN or by < B_MIN:
        axis, b = ("bx", bx) if bx < B_MIN else ("by", by)
        raise ScenarioInvariantError(f"field '{_name((path, axis))}': scale must be >= {B_MIN}, got {b}")
    return LaplacePoint(Point2(mx, my), (bx, by))


def _element(obj, path) -> MapElement:
    kind = _enum(obj, "kind", path, MapElementKind, "unknown kind {!r}")
    points = _field(obj, "points", list, path, _laplace_point)
    line = _build((path, "points"), UncertainPolyline, points)
    if kind is MapElementKind.BOUNDARY:  # the clearance filter measures to its mu segments
        _build((path, "points"), lambda: line.mu)
    return MapElement(line, kind)


def _polygon(obj, path) -> Polygon:
    outer = _field(obj, "outer", list, path, _point)
    return _build(path, Polygon, outer, _field(obj, "holes", list, path, _list, _point))


def _mode(obj, path) -> AgentMode:
    confidence = _field(obj, "confidence", float, path)
    return _build(path, AgentMode, _field(obj, "trajectory", list, path, _pose), confidence)


def _agent(obj, path) -> AgentPrediction:
    agent_id = _field(obj, "id", str, path)
    dims = _floats(_field(obj, "dims", dict, path), (path, "dims"), "length", "width")
    return _build(path, AgentPrediction, agent_id, dims, _field(obj, "modes", list, path, _mode))


def _box(obj, path) -> OrientedBox:
    cx, cy, heading, length, width = _floats(obj, path, "cx", "cy", "heading", "length", "width")
    return _build(path, OrientedBox, Point2(cx, cy), heading, length, width)


def _candidate(obj, path) -> CandidateTrajectory:
    confidence = _field(obj, "confidence", float, path)
    waypoints = _field(obj, "waypoints", list, path, _point)
    return _build(path, CandidateTrajectory, waypoints, _field(obj, "headings", list, path, _number), confidence)


def _check_version(data, source) -> None:
    if not isinstance(data, dict) or "version" not in data:
        raise ScenarioVersionError(f"{source}: missing schema 'version' field")
    if type(data["version"]) is not int or data["version"] != SCHEMA_VERSION:
        raise ScenarioVersionError(f"{source}: unsupported schema version {data['version']!r}, expected {SCHEMA_VERSION}")


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Validate and rebuild a scenario from its plain-data form (JSON types).

    Each homogeneous list of numbers is read into one array (_read). Only a
    scenario that this read refuses is read again item by item (_walk), which
    raises the error naming its first fault, or builds it if it is valid."""
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{source}: top level must be an object")
    _check_version(data, source)
    try:
        return _read(data)
    except (LookupError, TypeError, ValueError, ArithmeticError):
        return _walk(data)


_NUMBER_TYPES = {int, float}  # exact types: true and false are not numbers
_VERTEX = itemgetter("mx", "my", "bx", "by")
_POSE = itemgetter("x", "y", "heading")
_BOX = itemgetter("cx", "cy", "heading", "length", "width")


def _numbers(rows: list, *shape: int) -> np.ndarray:
    """rows, nested lists of ints and floats, as row_array reads them; raises
    TypeError, ValueError or OverflowError when they are not that."""
    arr, leaves = row_array(rows, *shape), rows
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    if not _NUMBER_TYPES.issuperset(map(type, leaves)):
        raise TypeError("expected ints and floats")
    return arr


def _items(value) -> list:
    if type(value) is not list:
        raise TypeError("expected a list")
    return value


def _read(data: dict) -> Scenario:
    """The scenario read list by list: each homogeneous list of numbers is
    one array, checked as a whole as the constructors check its items.
    Raises LookupError, TypeError, ValueError or ArithmeticError on any
    fault, without naming it."""
    ego, elements, agents = data["ego"], _items(data["map"]["elements"]), _items(data["agents"])
    ego_dims = _floats(ego["dims"], None, "length", "width")
    commands = [_items(data["candidates"][c.value]) for c in Command]
    modes = [m for a in agents for m in a["modes"]]
    cands = [c for items in commands for c in items]
    confidences = _numbers([r["confidence"] for r in (*cands, *modes)])
    table = _numbers([_VERTEX(p) for e in elements for p in e["points"]], 4)
    counts = [len(e["points"]) for e in elements]
    if (min(ego_dims) <= 0 or 0 in counts or not all(commands) or not (table[:, 2:] >= B_MIN).all()
            or not ((0.0 <= confidences) & (confidences <= 1.0)).all()):
        raise ValueError("a size, confidence or Laplace scale is out of range")
    ends = list(accumulate(counts))
    lines = [UncertainPolyline._of(table=table[start:end]) for start, end in zip([0, *ends], ends)]
    kinds = [MapElementKind(e["kind"]) for e in elements]
    for line, kind in zip(lines, kinds):
        if kind is MapElementKind.BOUNDARY:
            line.mu  # checks the polyline the clearance filter measures to
    area = [
        Polygon(_numbers(_items(p["outer"]), 2), [_numbers(_items(h), 2) for h in _items(p["holes"])])
        for p in _items(data["map"]["drivable_area"])
    ]
    poses = pose_array(_numbers([list(map(_POSE, m["trajectory"])) for m in modes], T_F, 3).reshape(-1, 3))
    mode_values = iter([AgentMode._of(poses=p, confidence=c)
                        for p, c in zip(poses.reshape(-1, T_F, 3), confidences[len(cands):].tolist())])
    xy, yaw = _numbers([c["waypoints"] for c in cands], T_F, 2), _numbers([c["headings"] for c in cands], T_F)
    ends = list(accumulate(map(len, commands)))
    return Scenario(
        scenario_id=_field(data, "id", str, None),
        seed=_field(data, "seed", int, None),
        map=UncertainMap([MapElement(line, kind) for line, kind in zip(lines, kinds)], MultiPolygon(area)),
        agents=[AgentPrediction(_field(a, "id", str, None), _floats(a["dims"], None, "length", "width"),
                                [next(mode_values) for _ in a["modes"]]) for a in agents],
        agent_boxes=_numbers([list(map(_BOX, seq)) for seq in _items(data["agent_gt"])], T_F, 5),
        ego_pose=_pose(ego["pose"], None),
        ego_dims=ego_dims,
        command=Command(data["command"]),
        candidates=CandidateSet._of(batches={
            command: (xy[start:end], yaw[start:end], confidences[start:end])
            for command, start, end in zip(Command, [0, *ends], ends)
        }),
        ego_poses=_numbers(list(map(_POSE, _items(data["ego_gt_future"]))), 3),
        scenario_class=ScenarioKind(data["scenario_class"]).value,
    )


def _walk(data: dict) -> Scenario:
    """The scenario read item by item, each field by its reader: the first
    fault met, in file order, raises the error naming it."""
    ego_path = (None, "ego")
    ego = _field(data, "ego", dict, None)
    ego_pose = _pose(_field(ego, "pose", dict, ego_path), (ego_path, "pose"))
    ego_dims = _floats(_field(ego, "dims", dict, ego_path), (ego_path, "dims"), "length", "width")
    if ego_dims[0] <= 0 or ego_dims[1] <= 0:
        raise ScenarioInvariantError(f"field 'ego.dims': dimensions must be positive, got {ego_dims}")
    map_path = (None, "map")
    map_data = _field(data, "map", dict, None)
    elements = _field(map_data, "elements", list, map_path, _element)
    polygons = _field(map_data, "drivable_area", list, map_path, _polygon)
    drivable = _build((map_path, "drivable_area"), MultiPolygon, polygons)
    candidates_path = (None, "candidates")
    candidates = _field(data, "candidates", dict, None)
    lists = [_field(candidates, key, list, candidates_path, _candidate) for key in ("TurnLeft", "TurnRight", "GoStraight")]
    return _build(
        (None, "<scenario>"),
        Scenario,
        scenario_id=_field(data, "id", str, None),
        seed=_field(data, "seed", int, None),
        scenario_class=_enum(data, "scenario_class", None, ScenarioKind, "must be Turn or Straight, got {!r}").value,
        command=_enum(data, "command", None, Command, "unknown command {!r}"),
        ego_pose=ego_pose,
        ego_dims=ego_dims,
        ego_poses=_field(data, "ego_gt_future", list, None, _pose),
        map=_build(map_path, UncertainMap, elements, drivable),
        agents=_field(data, "agents", list, None, _agent),
        agent_boxes=_field(data, "agent_gt", list, None, _list, _box),
        candidates=_build(candidates_path, CandidateSet, *lists),
    )


def _decode(text: str, path: Path):
    """json.loads that refuses the NaN and Infinity tokens Python's decoder accepts by default."""

    def reject(token: str):
        raise ScenarioFormatError(f"{path}: non-finite number {token} in JSON; only finite numbers are allowed")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ScenarioFormatError:
        raise
    except ValueError as e:  # an integer literal longer than int() reads
        raise ScenarioFormatError(f"{path}: invalid JSON: {e}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate one scenario file; errors name the offending field."""
    path = Path(path)
    return scenario_from_dict(_decode(path.read_text(encoding="utf-8"), path), source=str(path))


# ---------------------------------------------------------------------------
# suites


def generate_suite(
    out_dir: str | Path,
    count: int,
    turn_fraction: float,
    params: GeneratorParams,
    master_seed: int,
) -> Path:
    """Write `count` scenario files plus a manifest; fully determined by master_seed.

    The first round(count * turn_fraction) scenarios are turns, the rest straight.
    Returns the manifest path.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 <= turn_fraction <= 1.0:
        raise ValueError(f"turn_fraction must be in [0, 1], got {turn_fraction}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_turn = round(count * turn_fraction)
    entries = []
    for i in range(count):
        kind = ScenarioKind.TURN if i < n_turn else ScenarioKind.STRAIGHT
        s = generate_scenario(kind, params, scenario_seed(master_seed, i))
        fname = f"{s.scenario_id}.json"
        save_scenario(s, out_dir / fname)
        entries.append({"id": s.scenario_id, "kind": kind.value, "path": fname})
    manifest = {
        "version": SCHEMA_VERSION,
        "master_seed": master_seed,
        "count": count,
        "turn_fraction": turn_fraction,
        "params": asdict(params),
        "scenarios": entries,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return manifest_path


def load_suite(manifest_path: str | Path) -> tuple[dict, list[Path]]:
    """Read a suite manifest; returns (manifest dict, resolved scenario paths)."""
    manifest_path = Path(manifest_path)
    data = _decode(manifest_path.read_text(encoding="utf-8"), manifest_path)
    _check_version(data, manifest_path)
    return data, list(_field(data, "scenarios", list, None, _suite_entry, manifest_path.parent))


def _suite_entry(obj, path, root: Path) -> Path:
    """A manifest entry's scenario path; its id must be a string too."""
    rel = _field(obj, "path", str, path)
    _field(obj, "id", str, path)
    return root / rel
