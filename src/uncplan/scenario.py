"""Scenario data model, versioned JSON serialization, and the deterministic
synthetic generator that stands in for perception and prediction.

Each scenario is a single road corridor (straight or constant-curvature arc)
bounded by two uncertain boundary polylines, with the corridor polygon as
ground-truth drivable area. The ego ground truth follows the corridor center;
candidates emulate a planner that aims at the *perceived* corridor center
read from the noisy map at a lookahead station, spreading lateral variations
around that aim point with confidences decaying with deviation from it.
Agents are scripted constant-velocity vehicles and pedestrians. The generator
builds float rows, which the public constructors check and store as arrays;
its float knobs are at most KNOB_LIMIT, so every number it builds is finite.

Suite seeding: scenario i of a suite uses splitmix64(master_seed XOR i), so
suites are reproducible and individual scenarios can be regenerated alone.

Files hold the bytes of json.dumps(scenario_to_dict(s), indent=2). The layout
is written down once (_scenario_tree), with each number table an array and
its schema form: scenario_to_dict expands the tables into dicts and lists,
and save_scenario formats each with one %r template per item, strings going
only through json's encoder.

One chunk reader (_read) reads files, each read step over every scenario of a
chunk (load_scenarios); load_scenario and scenario_from_dict are it on one.
What json.loads returned for a chunk is kept, marshalled, in this user's
CACHE_DIR, keyed by the SHA-256 of the files' bytes; _read checks every value
on every load, and the directory may be deleted at any time.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import json
import marshal
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, asdict
from itertools import accumulate, chain, pairwise, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .geometry import (ArrayValue, MultiPolygon, Point2, Polygon, Pose2, frozen, normalize_heading, normalized_poses,
                       polygon_edges, pose_array, row_array)
from .map_model import MapElement, MapElementKind, UncertainMap, perturb_map
from .metrics import GroundTruth, box_array, scenario_class_of
from .selection import DT, T_F, CandidateSet, Command
from .uncertainty import B_MIN, UncertainPolyline

SCHEMA_VERSION = 1
_MASK64 = (1 << 64) - 1
KNOB_LIMIT = 1e6  # the largest value of a float generator knob, in metres, m/s or as a factor
_KNOB_KINDS = {bool: "a bool", int: "an int", float: "a number", tuple: "a pair of numbers"}  # by its default's type
CACHE_DIR = Path(os.path.expanduser("~"), ".cache", "uncplan")  # this user's decoded JSON, one entry per chunk
_CACHE_TAG = f"{sys.implementation.cache_tag}-{marshal.version}"  # an entry is read by the Python that wrote it


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
    """One predicted future of an agent with its confidence. poses, a (T_F, 3) array of
    (x, y, heading) rows as the generator and the loader build it, or T_F Pose2s from an
    external caller, is stored as a read-only array, headings normalized (see pose_array)."""

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

    Each knob is checked here on its own, and must be of its default's kind;
    no float knob may exceed KNOB_LIMIT, so every number a scenario is built
    from stays finite. generate_scenario refuses a turn corridor of fewer than
    3 element points, and one whose ring folds over, naming the knobs that drew it.
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
    n_element_points: int = 20  # vertices per map element, >= 3 in turn corridors
    calibrated: bool = True  # perturbed maps advertise their true noise scale
    lateral_reach_frac: float = 0.55  # candidate spread as a fraction of half width
    planner_noise_frac: float = 1.0  # aim error scale as a fraction of noise_scale
    turn_planner_noise_boost: float = 2.0  # extra aim error factor in turns
    confidence_temperature: float = 1.0  # m, softmax temperature over deviation
    corridor_tail: float = 6.0  # m of corridor beyond the 3 s horizon

    def __post_init__(self) -> None:
        if isinstance(self.noise_scale, (int, float)) and not 0 <= self.noise_scale < math.inf:  # else refused below
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        # NaN fails every comparison below without raising, and inf passes some of them
        for name, value in vars(self).items():
            default = getattr(GeneratorParams, name)  # tells the knob's kind: bool, int, float or range
            pair = isinstance(default, tuple)
            numbers = value if pair else (value,)
            if isinstance(default, int):  # its default's type alone: no bool is an int knob, no int a bool one
                typed = type(value) is type(default)
            else:  # ints and floats, a pair of them for a range; no bool is a number
                typed = (not pair or isinstance(value, tuple) and len(value) == 2) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers)
            if not typed:
                raise ValueError(f"{name} must be {_KNOB_KINDS[type(default)]}, got {value!r}")
            if not all(isinstance(v, int) or math.isfinite(v) for v in numbers):
                raise ValueError(f"{name} must be finite, got {value}")
            if pair and not 0 < value[0] <= value[1]:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got ({value[0]}, {value[1]})")
            if not isinstance(default, int) and max(numbers) > KNOB_LIMIT:
                raise ValueError(f"{name} must be at most {KNOB_LIMIT:g}, got {value}")
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
    The ground truths are float rows, stored as read-only arrays: agent_boxes
    (A, T_F, 5), per agent and step (cx, cy, heading, length, width), as
    metrics.box_array takes them, and ego_poses (T_F, 3), the ego's future
    (x, y, heading), headings normalized, also accepted as Pose2s (see geometry.pose_array)."""

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
        self._settle(pose_array(self.ego_poses), box_array)

    @classmethod
    def _loaded(cls, **fields) -> "Scenario":
        """The Scenario of fields as the loader reads them: agent_boxes an (A, T_F, 5)
        and ego_poses an (n, 3) read-only array, headings normalized, their numbers
        already checked, so not copied or checked again."""
        self = cls._of(**fields)
        self._settle(self.ego_poses, lambda boxes: boxes)
        return self

    def _settle(self, future: np.ndarray, boxes) -> None:
        """Check the fields, future being the ego_poses array, and store them, agent_boxes as boxes(agent_boxes)."""
        agents = tuple(self.agents)
        if len(future) != T_F:
            raise ValueError(f"ego ground truth needs {T_F} poses, got {len(future)}")
        if len(self.agent_boxes) != len(agents):
            raise ValueError("agent_gt and agents must align")
        agent_boxes = boxes(self.agent_boxes)
        expected = scenario_class_of(future[:, 2].tolist())
        if self.scenario_class != expected:
            raise ValueError(
                f"scenario_class {self.scenario_class!r} inconsistent with ego future "
                f"(15 degree rule says {expected!r})"
            )
        ego_dims = (float(self.ego_dims[0]), float(self.ego_dims[1]))
        if not all(0 < d < math.inf for d in ego_dims):
            raise ValueError(f"ego dims must be positive and finite, got {ego_dims}")
        self.__dict__.update(agents=agents, agent_boxes=agent_boxes, ego_poses=future, ego_dims=ego_dims)

    def ground_truth(self) -> GroundTruth:
        return GroundTruth._of(ego_xy=self.ego_poses[:, :2], agent_boxes=self.agent_boxes,
                               drivable_area=self.map.drivable_area)


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
    raw = [0.0, *chain.from_iterable((j - 0.05, -(j + 0.05)) for j in range(1, n // 2 + 1))][:n]
    peak = max(map(abs, raw)) or 1.0  # n = 1: the one factor is 0
    return [v / peak for v in raw]


def generate_scenario(kind: ScenarioKind, params: GeneratorParams, seed: int) -> Scenario:
    """Build one deterministic synthetic scenario for the given seed. Its points, poses and
    boxes are plain float rows, which the public constructors turn into checked arrays."""
    n_pts = params.n_element_points
    if kind is ScenarioKind.TURN and n_pts < 3:  # two stations span a chord, whose ring can fold over
        raise ValueError(f"n_element_points must be >= 3 for turn corridors, got {n_pts}")
    rng = np.random.Generator(np.random.PCG64(seed & _MASK64))

    speed = float(rng.uniform(*params.speed_range))
    if kind is ScenarioKind.TURN:
        half_width = float(rng.uniform(*params.turn_half_width_range))
        curvature = float(rng.uniform(*params.curvature_range))
        if rng.random() < 0.5:
            curvature = -curvature
        command = Command.TURN_LEFT if curvature > 0 else Command.TURN_RIGHT
    else:
        half_width = float(rng.uniform(*params.half_width_range))
        curvature = 0.0
        command = Command.GO_STRAIGHT

    horizon_len = speed * DT * T_F
    corridor_len = horizon_len + params.corridor_tail
    # corridor starts behind the ego so the rear footprint corners stay on road
    corridor_start = -(params.ego_length / 2 + 1.5)

    def point(s: float, lateral: float) -> tuple[float, float]:
        """The point at arc length s, lateral metres left of the centreline (right if negative)."""
        h = curvature * s
        cx, cy = (s, 0.0) if curvature == 0.0 else (math.sin(h) / curvature, (1.0 - math.cos(h)) / curvature)
        return cx + lateral * -math.sin(h), cy + lateral * math.cos(h)

    stations = [corridor_start + (corridor_len - corridor_start) * k / (n_pts - 1) for k in range(n_pts)]
    left = [point(s, half_width) for s in stations]
    right = [point(s, -half_width) for s in stations]

    # drivable area: corridor ring, right side forward then left side back (CCW)
    try:  # the ring validator refuses a corridor that folds over, one that turns more than once
        drivable = MultiPolygon((Polygon(np.array(right + left[::-1] + right[:1])),))
    except ValueError as e:
        knobs = "curvature_range, turn_half_width_range" if curvature else "half_width_range"
        raise ValueError(f"corridor of curvature {curvature} 1/m, half width {half_width} m and length "
                         f"{corridor_len - corridor_start} m has no valid ring ({e}); it is set by {knobs}, "
                         "speed_range, corridor_tail and ego_length") from None

    def element(points: list[tuple[float, float]], kind: MapElementKind) -> MapElement:
        return MapElement(UncertainPolyline(np.array([(x, y, B_MIN, B_MIN) for x, y in points])), kind)

    elements = [
        element(left, MapElementKind.BOUNDARY),
        element(right, MapElementKind.BOUNDARY),
        element([point(s, 0.0) for s in stations], MapElementKind.LANE_DIVIDER),
    ]
    if rng.random() < 0.4:
        s_cross = float(rng.uniform(0.35, 0.7)) * corridor_len
        span = half_width - 0.2
        cross = [point(s_cross, -span + 2 * span * k / (n_pts - 1)) for k in range(n_pts)]
        elements.append(element(cross, MapElementKind.PED_CROSSING))

    true_map = UncertainMap(tuple(elements), drivable)
    perturb_seed = int(rng.integers(0, 2**63 - 1))
    perceived = perturb_map(true_map, params.noise_scale, perturb_seed, params.calibrated)

    # planner aim point: perceived corridor center at the lookahead station,
    # plus the planning head's own lateral error on top of the map reading
    i_look = min(range(n_pts), key=lambda k: abs(stations[k] - horizon_len))
    (plx, ply), (prx, pry) = (perceived.elements[k].polyline.table[i_look, :2].tolist() for k in (0, 1))
    mid_x, mid_y = 0.5 * (plx + prx), 0.5 * (ply + pry)
    cx, cy = point(stations[i_look], 0.0)
    h_look = curvature * stations[i_look]
    aim = (mid_x - cx) * -math.sin(h_look) + (mid_y - cy) * math.cos(h_look)
    head_scale = params.planner_noise_frac * params.noise_scale
    if kind is ScenarioKind.TURN:
        head_scale *= params.turn_planner_noise_boost
    if head_scale > 0:
        aim += float(rng.laplace(0.0, head_scale))
    reach = params.lateral_reach_frac * half_width
    aim = max(-0.8 * half_width, min(0.8 * half_width, aim))

    step_arcs = [speed * DT * (t + 1) for t in range(T_F)]
    template = _offset_template(params.n_candidates)
    # a softmax over each candidate's deviation from the aim point, abs(f) * reach
    weights = [math.exp(-(abs(f) * reach) / params.confidence_temperature) for f in template]
    confidences = [w / sum(weights) for w in weights]

    def command_batch(cmd: Command) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The command's candidate arrays; row_array refuses a non-finite waypoint."""
        bias = (_COMMAND_SIDE[cmd] - _COMMAND_SIDE[command]) * _INACTIVE_COMMAND_BIAS
        xy = [[point(s, (aim + factor * reach + bias) * ((t + 1) / T_F)) for t, s in enumerate(step_arcs)]
              for factor in template]
        yaw = [[0.0] + [math.atan2(by - ay, bx - ax) for (ax, ay), (bx, by) in zip(w, w[1:])] for w in xy]
        return row_array(xy, T_F, 2), frozen(yaw), frozen(confidences)

    candidates = CandidateSet._of(batches={cmd: command_batch(cmd) for cmd in Command})
    agents, agent_gt = _script_agents(rng, params, speed, half_width, horizon_len, point, curvature)

    return Scenario(
        scenario_id=f"{kind.value.lower()}-{seed & _MASK64:016x}",
        seed=seed,
        map=perceived,
        agents=agents,
        agent_boxes=agent_gt,
        ego_pose=Pose2(Point2(0.0, 0.0), 0.0),
        ego_dims=(params.ego_length, params.ego_width),
        command=command,
        candidates=candidates,
        ego_poses=np.array([(*point(s, 0.0), curvature * s) for s in step_arcs]),
        scenario_class=kind.value,
    )


def _script_agents(rng, params, speed, half_width, horizon_len, point, curvature):
    """Constant-velocity scripted agents: parked cars nudging into the corridor,
    pedestrians on the verge, and a leading vehicle that keeps its gap. Returns
    the agents and their (A, T_F, 5) ground-truth box rows; point(s, lateral) is
    the corridor point, and the heading at arc length s is curvature * s."""
    agents, agent_gt = [], []
    for idx in range(params.n_agents):
        draw = rng.random()
        side = 1.0 if rng.random() < 0.5 else -1.0
        if draw < 0.4:  # parked vehicle slightly intruding from the roadside
            dims = (4.0, 1.7)
            s_a = float(rng.uniform(0.3, 0.95)) * horizon_len
            lateral = side * (half_width + 0.55)
            steps = [(s_a, s_a)] * T_F  # (arc length of the position, arc length of the heading)
        elif draw < 0.75:  # pedestrian walking on the verge
            dims = (0.5, 0.5)
            s_a = float(rng.uniform(0.2, 0.9)) * horizon_len
            lateral = side * (half_width + 1.2)
            walk = float(rng.uniform(1.0, 1.4)) * (1.0 if rng.random() < 0.5 else -1.0)
            steps = [(s_a + walk * DT * (t + 1), s_a) for t in range(T_F)]
        else:  # lead vehicle pulling away on the centerline
            dims = (4.2, 1.8)
            s_a = float(rng.uniform(1.05, 1.3)) * horizon_len
            v_lead = speed + float(rng.uniform(0.5, 1.5))
            lateral = 0.0
            steps = [(s, s) for s in (s_a + v_lead * DT * (t + 1) for t in range(T_F))]
        poses = [(*point(s, lateral), normalize_heading(curvature * s_h)) for s, s_h in steps]

        base_conf = float(rng.uniform(0.55, 0.8))
        n_extra = int(rng.integers(0, 3))
        modes = [AgentMode(np.array(poses), base_conf)]
        for e in range(n_extra):
            drift = (0.5 + 0.5 * e) * (1.0 if e % 2 == 0 else -1.0)
            drifted = [(x + drift * ((t + 1) / T_F) * -math.sin(h), y + drift * ((t + 1) / T_F) * math.cos(h), h)
                       for t, (x, y, h) in enumerate(poses)]
            modes.append(AgentMode(np.array(drifted), (1.0 - base_conf) * 0.9 / n_extra))
        agents.append(AgentPrediction(f"agent-{idx}", dims, tuple(modes)))
        agent_gt.append([(*pose, *dims) for pose in poses])
    return tuple(agents), np.array(agent_gt)


# ---------------------------------------------------------------------------
# serialization (schema v1)


# The forms of the file's objects, as the writer lays them out and _scan reads them (see _scan).
_NUMBER_TYPES = {int, float}  # exact types: true and false are not numbers
_PAIR = "[x, y]"
_POSE = dict.fromkeys(("x", "y", "heading"), float)
_VERTEX = dict.fromkeys(("mx", "my", "bx", "by"), float)
_BOX = dict.fromkeys(("cx", "cy", "heading", "length", "width"), float)
_DIMS = ("length", "width")
_CANDIDATE = {"confidence": float, "waypoints": (_PAIR, T_F), "headings": (float, T_F)}
_MODE = {"confidence": float, "trajectory": (_POSE, T_F)}
_AGENT_GT = (_BOX, T_F)
_POSE_ROW, _VERTEX_ROW, _BOX_ROW = (itemgetter(*form) for form in (_POSE, _VERTEX, _BOX))
_EGO, _MAP, _AGENTS, _CANDIDATES = ((None, key) for key in ("ego", "map", "agents", "candidates"))  # paths, see _name


def _scenario_tree(s: Scenario) -> dict:
    """The file's layout, schema v1: dicts, lists and scalars, and each number table a (form, array) leaf, a
    list of one item of form (see _scan) per row of the array. Expanded by scenario_to_dict, written by _text."""
    return {
        "version": SCHEMA_VERSION,
        "id": s.scenario_id,
        "seed": s.seed,
        "scenario_class": s.scenario_class,
        "command": s.command.value,
        "ego": {"pose": dict(zip(_POSE, (s.ego_pose.position.x, s.ego_pose.position.y, s.ego_pose.heading))),
                "dims": dict(zip(_DIMS, s.ego_dims))},
        "ego_gt_future": (_POSE, s.ego_poses),
        "map": {
            "elements": [{"kind": e.kind.value, "points": (_VERTEX, e.polyline.table)} for e in s.map.elements],
            "drivable_area": [{"outer": (_PAIR, poly.rings[0]), "holes": [(_PAIR, ring) for ring in poly.rings[1:]]}
                              for poly in s.map.drivable_area.polygons],
        },
        "agents": [{"id": a.agent_id, "dims": dict(zip(_DIMS, a.dims)),
                    "modes": [{"confidence": m.confidence, "trajectory": (_POSE, m.poses)} for m in a.modes]}
                   for a in s.agents],
        "agent_gt": (_AGENT_GT, s.agent_boxes),
        "candidates": {command.value: (_CANDIDATE, np.hstack((conf[:, None], xy.reshape(len(xy), -1), yaw)))
                       for command, (xy, yaw, conf) in ((c, s.candidates.batches[c]) for c in Command)},
    }


def _item(form, numbers):
    """One item of form, its numbers taken in order from the iterator numbers."""
    if form is float:
        return next(numbers)
    if form is _PAIR:
        return [next(numbers), next(numbers)]
    if isinstance(form, dict):
        return {key: _item(inner, numbers) for key, inner in form.items()}
    return [_item(form[0], numbers) for _ in range(form[1])]


def _expanded(node):
    """node with each (form, array) leaf as its list of len(array) items of form."""
    if type(node) is dict:
        return {key: _expanded(value) for key, value in node.items()}
    if type(node) is list:
        return list(map(_expanded, node))
    return _item((node[0], len(node[1])), iter(node[1].ravel().tolist())) if type(node) is tuple else node


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-data form of a scenario, schema v1."""
    return _expanded(_scenario_tree(s))


_ENCODE = json.JSONEncoder(allow_nan=False).encode  # one key or scalar, as json.dumps writes it
_SLOT = 1.25e-321  # a number whose repr is in no key of the schema: where json.dumps writes it, a template has %r


def _laid_out(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A list, or an object, of the texts items, as json.dumps(indent=2) lays it out on a line indented as indent."""
    inner = indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}" if items else brackets


# id of a leaf form (module constants, alive as long as the table) -> the %r template of one of its items,
# as json.dumps(indent=2) lays it out at the top level, its keys % escaped
_TEMPLATES = {id(form): json.dumps(_item(form, repeat(_SLOT)), indent=2).replace("%", "%%").replace(repr(_SLOT), "%r")
              for form in (_PAIR, _POSE, _VERTEX, _AGENT_GT, _CANDIDATE)}


def _text(node, indent: str = "\n") -> str:
    """json.dumps(_expanded(node), indent=2, allow_nan=False), laid out on a line indented as indent; a
    leaf is one % of its items' template over array.tolist()."""
    inner = indent + "  "
    if type(node) is dict:
        return _laid_out([f"{_ENCODE(key)}: {_text(value, inner)}" for key, value in node.items()], indent, "{}")
    if type(node) is list:
        return _laid_out([_text(item, inner) for item in node], indent)
    if type(node) is not tuple:
        try:
            return _ENCODE(node)
        except ValueError:  # json.dumps(indent=2)'s message, which names the value
            return json.dumps(node, indent=2, allow_nan=False)
    form, table = node
    item = _TEMPLATES[id(form)].replace("\n", inner)
    text = _laid_out([item] * len(table), indent) % tuple(table.ravel().tolist())
    # the repr of a finite float has no letter n; those of nan, inf and -inf have one
    if text.count("n") != len(table) * item.count("n"):
        json.dumps(_expanded(node), indent=2, allow_nan=False)  # raises json's ValueError for the first one
    return text


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write one scenario as json.dumps(scenario_to_dict(s), indent=2) would, floats at full round-trip
    precision; a non-finite number raises json's ValueError before anything is written."""
    Path(path).write_text(_text(_scenario_tree(s)) + "\n", encoding="utf-8")


def _name(path) -> str:
    """Dotted name of a path chain: None is the top level, (parent, key) a field or item of parent."""
    parts = []
    while path is not None:
        path, key = path
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return "".join(reversed(parts)).lstrip(".")


def _field(obj, key: str, kind, path):
    """obj[key] as kind: dict, list, str, int or a finite float; true and false are not numbers."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"field '{_name(path)}' must be an object")
    if key not in obj:
        raise ScenarioFormatError(f"missing field '{_name((path, key))}'")
    value = obj[key]
    if type(value) is not kind or kind is float and not math.isfinite(value):  # else value is as asked
        if kind is float:
            value = _number(value, (path, key))
        elif isinstance(value, bool) or not isinstance(value, kind):
            raise ScenarioFormatError(f"field '{_name((path, key))}' must be {kind.__name__}")
    return value


def _number(value, path) -> float:
    """A number item as a finite float; an integer too large for a float is infinite, as 1e999 is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"field '{_name(path)}' must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ScenarioInvariantError(f"field '{_name(path)}': must be finite, got {number}")
    return number


def _floats(obj, path, *keys) -> tuple[float, ...]:
    return tuple([_field(obj, key, float, path) for key in keys])


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


def _check_version(data, source) -> None:
    if not isinstance(data, dict) or "version" not in data:
        raise ScenarioVersionError(f"{source}: missing schema 'version' field")
    if type(data["version"]) is not int or data["version"] != SCHEMA_VERSION:
        raise ScenarioVersionError(f"{source}: unsupported schema version {data['version']!r}, expected {SCHEMA_VERSION}")


def _scan(value, path, form) -> None:
    """Raise the error naming the first fault of value read as form, in item order. A form is float (a finite
    number), _PAIR (a list of two), a dict (an object holding each key as its form) or (form, count) (a list
    of count items, any number if None). A wrong type or a missing key is a format error; a number that is
    not finite, or a list of the wrong length, is an invariant error."""
    if form is float:
        _number(value, path)
    elif form is _PAIR:
        if not (isinstance(value, list) and len(value) == 2):
            raise ScenarioFormatError(f"field '{_name(path)}' must be an [x, y] pair")
        if not _NUMBER_TYPES.issuperset(map(type, value)):
            raise ScenarioFormatError(f"field '{_name(path)}' must hold numbers")
        for v in value:
            _number(v, path)
    elif isinstance(form, dict):
        for key, inner in form.items():
            _scan(_field(value, key, float if inner is float else list, path), (path, key), inner)
    else:
        inner, count = form
        if not isinstance(value, list):
            raise ScenarioFormatError(f"field '{_name(path)}' must be a list")
        for i, item in enumerate(value):
            _scan(item, (path, i), inner)
        if count not in (None, len(value)):
            raise ScenarioInvariantError(f"field '{_name(path)}': must hold {count} items, got {len(value)}")


def _located(lists, paths, form) -> list:
    """(item, path, form) for each item of each list, lists[n] being the list at paths[n]."""
    return [(item, (path, i), form) for items, path in zip(lists, paths) for i, item in enumerate(items)]


def _table(rows, shape: tuple, located) -> np.ndarray:
    """The numbers that rows() lists as a read-only float array (n, *shape), if they are ints and floats,
    all finite; if not, each (item, path, form) of located() is scanned, to raise the error naming the fault.
    The rows are flattened level by level first: numpy reads a flat list in about 60 % of the time that
    nested lists take."""
    try:
        leaves = rows()
        for size in shape:
            if not {size}.issuperset(map(len, leaves)):
                raise ValueError(f"expected items of {size}")
            leaves = list(chain.from_iterable(leaves))
        if _NUMBER_TYPES.issuperset(map(type, leaves)):
            table = frozen(leaves).reshape(-1, *shape)
            if np.isfinite(table).all():
                return table
    except (LookupError, TypeError, ValueError, OverflowError):
        pass  # the scan names the fault
    for item, path, form in located():
        _scan(item, path, form)
    raise RuntimeError("a list of numbers was refused, but no item of it is at fault")


def _check(ok: np.ndarray, located, keys: tuple, rule: str) -> None:
    """Raise the invariant error naming the first value where ok is False; ok holds a row for each
    item of located() and a column for each of keys."""
    if not ok.all():
        row, column = divmod(int(np.flatnonzero(~ok)[0]), len(keys))
        item, path, _ = located()[row]
        raise ScenarioInvariantError(f"field '{_name((path, keys[column]))}': {rule}, got {item[keys[column]]}")


def _split(table: np.ndarray, counts) -> list[np.ndarray]:
    """table cut into consecutive views of counts[n] rows each."""
    return [table[start:end] for start, end in pairwise(accumulate(counts, initial=0))]


def _read(items: list) -> list[Scenario]:
    """The scenarios of items, (plain-data form, source name) pairs: the chunk reader. It runs each of the 13
    read steps of docs/scenario_format.md over every scenario before the next. A list of numbers that repeats
    per item is one table across the items of all scenarios (_table), cut into per-scenario read-only views,
    and each range check runs once on a table (_check); only a table that does not read is scanned item by
    item (_scan), to name its fault. Each scenario meets its own faults in the documented order."""
    for data, source in items:
        if not isinstance(data, dict):
            raise ScenarioFormatError(f"{source}: top level must be an object")
        _check_version(data, source)
    datas = [data for data, _ in items]
    heads = [(_field(data, "id", str, None), _field(data, "seed", int, None),
              _enum(data, "scenario_class", None, ScenarioKind, "must be Turn or Straight, got {!r}").value,
              _enum(data, "command", None, Command, "unknown command {!r}")) for data in datas]
    egos = []
    for ego in [_field(data, "ego", dict, None) for data in datas]:
        x, y, heading = _floats(_field(ego, "pose", dict, _EGO), (_EGO, "pose"), *_POSE)
        ego_dims = _floats(_field(ego, "dims", dict, _EGO), (_EGO, "dims"), *_DIMS)
        if min(ego_dims) <= 0:
            raise ScenarioInvariantError(f"field 'ego.dims': dimensions must be positive, got {ego_dims}")
        egos.append((Pose2(Point2(x, y), heading), ego_dims))
    futures = [_field(data, "ego_gt_future", list, None) for data in datas]
    ego_poses = _table(lambda: [row for future in futures for row in map(_POSE_ROW, future)], (3,),
                       lambda: _located(futures, [(None, "ego_gt_future")] * len(futures), _POSE))
    ego_poses = _split(normalized_poses(ego_poses), map(len, futures))
    maps = _uncertain_maps([_field(data, "map", dict, None) for data in datas])
    agent_lists, agent_gts = ([_field(data, key, list, None) for data in datas] for key in ("agents", "agent_gt"))
    agent_paths = [(_AGENTS, i) for agents in agent_lists for i in range(len(agents))]  # of every scenario, in order
    agent_fields = [(_field(agent, "id", str, path), _floats(_field(agent, "dims", dict, path), (path, "dims"), *_DIMS),
                     _field(agent, "modes", list, path)) for agent, path in zip(chain(*agent_lists), agent_paths)]
    commands = []  # per scenario, its three candidate lists
    for candidates in [_field(data, "candidates", dict, None) for data in datas]:
        commands.append([_field(candidates, c.value, list, _CANDIDATES) for c in Command])
        for c, items in zip(Command, commands[-1]):
            if not items:
                raise ScenarioInvariantError(f"field 'candidates': command {c.name.lower()} needs at least one candidate")
    cand_lists, mode_lists = list(chain(*commands)), [items for *_, items in agent_fields]
    cands, modes = list(chain(*cand_lists)), list(chain(*mode_lists))
    located_cands = lambda: _located(cand_lists, [(_CANDIDATES, c.value) for _ in commands for c in Command], _CANDIDATE)
    located_modes = lambda: _located(mode_lists, [(path, "modes") for path in agent_paths], _MODE)
    located_both = lambda: located_cands() + located_modes()
    confidences = _table(lambda: [r["confidence"] for r in (*cands, *modes)], (), located_both)
    _check((0.0 <= confidences) & (confidences <= 1.0), located_both, ("confidence",), "must be in [0, 1]")
    xy = _table(lambda: [c["waypoints"] for c in cands], (T_F, 2), located_cands)
    yaw = _table(lambda: [c["headings"] for c in cands], (T_F,), located_cands)
    poses = _table(lambda: [list(map(_POSE_ROW, m["trajectory"])) for m in modes], (T_F, 3), located_modes)
    poses = normalized_poses(poses.reshape(-1, 3)).reshape(-1, T_F, 3)
    boxes = _table(lambda: [list(map(_BOX_ROW, seq)) for gt in agent_gts for seq in gt], (T_F, 5),
                   lambda: _located(agent_gts, [(None, "agent_gt")] * len(agent_gts), (_BOX, T_F)))
    located_boxes = lambda: _located(list(chain(*agent_gts)), [((None, "agent_gt"), i) for gt in agent_gts
                                                               for i in range(len(gt))], _BOX)
    _check(boxes[..., 3:] > 0, located_boxes, _DIMS, "must be positive")
    mode_values = iter([AgentMode._of(poses=p, confidence=c) for p, c in zip(poses, confidences[len(cands):].tolist())])
    agents = iter([_build(path, AgentPrediction, agent_id, dims, [next(mode_values) for _ in items])
                   for path, (agent_id, dims, items) in zip(agent_paths, agent_fields)])
    sizes = list(map(len, cand_lists))  # the candidates of each command of each scenario
    batches = iter(zip(*(_split(table, sizes) for table in (xy, yaw, confidences[:len(cands)]))))
    scenarios = []
    for n, ((scenario_id, seed, scenario_class, command), (ego_pose, ego_dims), box) in enumerate(
            zip(heads, egos, _split(boxes, map(len, agent_gts)))):
        candidate_set = CandidateSet._of(batches={c: next(batches) for c in Command})
        scenarios.append(_build((None, "<scenario>"), Scenario._loaded, scenario_id=scenario_id, seed=seed,
                                map=maps[n], agents=[next(agents) for _ in agent_lists[n]], agent_boxes=box,
                                ego_pose=ego_pose, ego_dims=ego_dims, command=command, candidates=candidate_set,
                                ego_poses=ego_poses[n], scenario_class=scenario_class))
    return scenarios


def _uncertain_maps(map_datas: list) -> list[UncertainMap]:
    """The map field of each scenario: the points of all elements of all of them as one table, then the
    drivable areas polygon by polygon, the rings of polygon p of every scenario as one table."""
    element_lists = [_field(map_data, "elements", list, _MAP) for map_data in map_datas]
    paths = [((_MAP, "elements"), i) for elements in element_lists for i in range(len(elements))]
    elements = list(chain(*element_lists))  # of every scenario, each scenario's in order
    kinds = [_enum(element, "kind", path, MapElementKind, "unknown kind {!r}") for element, path in zip(elements, paths)]
    lists = [_field(element, "points", list, path) for element, path in zip(elements, paths)]
    ps = [(path, "points") for path in paths]
    if not all(lists):
        raise ScenarioInvariantError(f"field '{_name(ps[lists.index([])])}': uncertain polyline needs at least one point")
    located = lambda: _located(lists, ps, _VERTEX)
    table = _table(lambda: [row for points in lists for row in map(_VERTEX_ROW, points)], (4,), located)
    _check(table[:, 2:] >= B_MIN, located, tuple(_VERTEX)[2:], f"scale must be >= {B_MIN}")
    lines = [UncertainPolyline._of(table=rows) for rows in _split(table, map(len, lists))]
    for line, kind, path in zip(lines, kinds, ps):
        if kind is MapElementKind.BOUNDARY:  # the clearance filter measures to its mu segments
            _build(path, lambda: line.mu)
    areas = [_field(map_data, "drivable_area", list, _MAP) for map_data in map_datas]
    polygons = [[] for _ in areas]
    for p in range(max(map(len, areas), default=0)):
        at, path = [n for n, area in enumerate(areas) if len(area) > p], ((_MAP, "drivable_area"), p)
        ring_lists = [[_field(areas[n][p], "outer", list, path), *_field(areas[n][p], "holes", list, path)] for n in at]
        rings = list(chain(*ring_lists))
        ring_paths = lambda: [ring_path for ring_list in ring_lists for ring_path in
                              [(path, "outer"), *(((path, "holes"), h) for h in range(len(ring_list) - 1))]]
        # a hole that is not a list makes the rows a list of no pairs, for the scan to name it
        table = _table(lambda: list(chain(*rings)) if all(type(ring) is list for ring in rings) else [None], (2,),
                       lambda: [(ring, ring_path, (_PAIR, None)) for ring, ring_path in zip(rings, ring_paths())])
        tables = iter(_split(table, map(len, rings)))
        ring_tables = [tuple(next(tables) for _ in ring_list) for ring_list in ring_lists]
        for n, ring_table, edges in zip(at, ring_tables, polygon_edges(ring_tables)):
            if isinstance(edges, str):
                raise ScenarioInvariantError(f"field '{_name(path)}': {edges}")
            polygons[n].append(Polygon._of(rings=ring_table, edges=edges))
    elements = iter(map(MapElement, lines, kinds))
    return [_build(_MAP, UncertainMap, [next(elements) for _ in element_list],
                   _build((_MAP, "drivable_area"), MultiPolygon, area)) for element_list, area in zip(element_lists, polygons)]


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Validate and rebuild a scenario from its plain-data form (JSON types): _read of it alone."""
    return _read([(data, source)])[0]


def _decode(data: bytes, path: Path):
    """json.loads of a file's bytes, read as Path.read_text reads them (UTF-8, universal newlines), refusing
    bytes that are not UTF-8 and the NaN and Infinity tokens Python's decoder accepts by default."""

    def reject(token: str):
        raise ScenarioFormatError(f"{path}: non-finite number {token} in JSON; only finite numbers are allowed")

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioFormatError(f"{path}: not UTF-8 text at byte {e.start}: {e.reason}") from None
    if "\r" in text:  # read_text's universal newlines, so that an error's line and column stay as they were
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ScenarioFormatError:
        raise
    except ValueError as e:  # an integer literal longer than int() reads
        raise ScenarioFormatError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise ScenarioFormatError(f"{path}: invalid JSON: nested deeper than the decoder reads") from None


def _decoded(paths: list[Path]) -> list:
    """_decode of each file, or the chunk's cache entry: the marshalled values of an earlier _decode of files
    of these bytes in this order. A miss decodes the files and writes the entry, if the directory allows."""
    try:
        blobs = [path.read_bytes() for path in paths]
    except OSError:  # read and decoded in file order, so the first fault in that order is raised
        return [_decode(path.read_bytes(), path) for path in paths]
    key = hashlib.sha256(b"".join(hashlib.sha256(blob).digest() for blob in blobs)).hexdigest()
    entry = CACHE_DIR / f"{key}.{_CACHE_TAG}"
    with contextlib.suppress(OSError, EOFError, ValueError, TypeError):  # no entry, or one cut short or overwritten
        values = marshal.loads(entry.read_bytes())
        if type(values) is list and len(values) == len(paths):
            return values
    values = [_decode(blob, path) for blob, path in zip(blobs, paths)]
    temporary = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    with contextlib.suppress(OSError, ValueError):  # a read-only home, say: no entry
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        temporary.write_bytes(marshal.dumps(values))
        os.replace(temporary, entry)
    with contextlib.suppress(OSError):  # and no temporary left behind; on a read-only mount even this unlink raises
        temporary.unlink(missing_ok=True)
    return values


def load_scenarios(paths) -> list[Scenario]:
    """Load and validate scenario files as one chunk (see _read); errors name the offending field."""
    paths = list(map(Path, paths))
    return _read(list(zip(_decoded(paths), map(str, paths)))) if paths else []


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate one scenario file; errors name the offending field."""
    return load_scenarios([path])[0]


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
    Returns the manifest path. The suite is built in a temporary directory inside
    out_dir (.generate-*); then any earlier manifest is removed and each file is
    moved into place with os.replace, the manifest last. A call that raises removes
    the temporary directory and every directory it created: refused while
    generating, it leaves an earlier suite in out_dir as it was; cut short while
    moving files, it leaves no manifest. A killed process leaves .generate-* behind.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 <= turn_fraction <= 1.0:
        raise ValueError(f"turn_fraction must be in [0, 1], got {turn_fraction}")
    out_dir = Path(out_dir)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # innermost first
    out_dir.mkdir(parents=True, exist_ok=True)
    n_turn = round(count * turn_fraction)
    entries = []
    try:
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".generate-") as tmp:
            for i in range(count):
                kind = ScenarioKind.TURN if i < n_turn else ScenarioKind.STRAIGHT
                s = generate_scenario(kind, params, scenario_seed(master_seed, i))
                save_scenario(s, Path(tmp, f"{s.scenario_id}.json"))
                entries.append({"id": s.scenario_id, "kind": kind.value, "path": f"{s.scenario_id}.json"})
            manifest = dict(version=SCHEMA_VERSION, master_seed=master_seed, count=count, turn_fraction=turn_fraction,
                            params=asdict(params), scenarios=entries)
            Path(tmp, "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n", encoding="utf-8")
            (out_dir / "manifest.json").unlink(missing_ok=True)  # so that no manifest lists a mix of two suites
            for name in [entry["path"] for entry in entries] + ["manifest.json"]:
                os.replace(Path(tmp, name), out_dir / name)
    except BaseException:  # a refused scenario, a full disk or an interrupt: leave no directory this call made
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise
    return out_dir / "manifest.json"


def load_suite(manifest_path: str | Path) -> tuple[dict, list[Path]]:
    """Read a suite manifest; returns (manifest dict, scenario paths joined to its directory)."""
    manifest_path = Path(manifest_path)
    data = _decode(manifest_path.read_bytes(), manifest_path)
    _check_version(data, manifest_path)
    paths, ids = [], []
    for i, entry in enumerate(_field(data, "scenarios", list, None)):  # each entry's path, then its id
        paths.append(manifest_path.parent / _field(entry, "path", str, ((None, "scenarios"), i)))
        ids.append(_field(entry, "id", str, ((None, "scenarios"), i)))
    if not ids:
        raise ScenarioInvariantError("field 'scenarios': a suite needs at least one scenario")
    for what, keys in (("id", ids), ("path", list(map(os.path.normpath, paths)))):
        first: dict = {}  # key -> index of the first entry with it
        for i, key in enumerate(keys):
            if (j := first.setdefault(key, i)) != i:
                message = f"{ids[i]!r} repeats the {what} of scenarios[{j}] ({ids[j]!r})"
                raise ScenarioInvariantError(f"field 'scenarios[{i}].id': {message}")
    return data, paths
