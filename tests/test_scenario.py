import contextlib
import copy
import hashlib
import io
import json
import math
import os
import random
import re
import tempfile
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from uncplan import geometry
from uncplan.geometry import normalize_heading
from uncplan.metrics import GroundTruth, dacr_frame, scenario_class_of
from uncplan.scenario import (
    KNOB_LIMIT,
    AgentMode,
    AgentPrediction,
    GeneratorParams,
    Scenario,
    ScenarioFormatError,
    ScenarioInvariantError,
    ScenarioKind,
    ScenarioVersionError,
    generate_scenario,
    generate_suite,
    load_scenario,
    load_scenarios,
    load_suite,
    save_scenario,
    scenario_from_dict,
    scenario_seed,
    scenario_to_dict,
    splitmix64,
)
from uncplan.scenario import _text
from uncplan.selection import T_F, Command


def test_splitmix64_reference_values():
    # published splitmix64 test vector: state 1234567 -> first three outputs
    assert splitmix64(1234567) == 6457827717110365317
    assert splitmix64(0) == 16294208416658607535


def test_scenario_seed_distinct_and_deterministic():
    seeds = {scenario_seed(73, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert scenario_seed(73, 5) == scenario_seed(73, 5)


def test_noiseless_straight_single_candidate_equals_gt():
    params = GeneratorParams(noise_scale=0.0, n_candidates=1, n_agents=0)
    s = generate_scenario(ScenarioKind.STRAIGHT, params, 99)
    assert s.scenario_class == "Straight"
    assert s.command is Command.GO_STRAIGHT
    cand = s.candidates.go_straight[0]
    assert cand.confidence == 1.0
    assert cand.xy.tolist() == s.ego_poses[:, :2].tolist()
    assert dacr_frame(cand, s.ego_dims, s.map.drivable_area, T_F) == 0.0


def test_generation_deterministic():
    params = GeneratorParams()
    a = generate_scenario(ScenarioKind.TURN, params, 4242)
    b = generate_scenario(ScenarioKind.TURN, params, 4242)
    assert a == b
    c = generate_scenario(ScenarioKind.TURN, params, 4243)
    assert a != c


def test_turn_offset_candidate_conflicts_with_tight_corridor():
    # corridor half width 2 m, ego width 2 m: offsets reach past the margin
    params = GeneratorParams(
        noise_scale=0.0,
        turn_half_width_range=(2.0, 2.0),
        ego_width=2.0,
        n_agents=0,
        n_candidates=5,
    )
    s = generate_scenario(ScenarioKind.TURN, params, 7)
    da = s.map.drivable_area
    cands = s.candidates.for_command(s.command)
    rates = [dacr_frame(c, s.ego_dims, da, T_F) for c in cands]
    assert max(rates) > 0.0
    # and the center-following candidate stays clean in the noiseless corridor
    assert rates[0] == 0.0


def test_turn_class_consistent_with_heading_rule():
    for seed in range(20):
        s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), seed)
        assert s.scenario_class == "Turn"
        assert s.command in (Command.TURN_LEFT, Command.TURN_RIGHT)
        assert scenario_class_of(s.ego_poses[:, 2].tolist()) == "Turn"
        t = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), seed)
        assert t.scenario_class == "Straight"


def test_candidates_stay_near_corridor():
    for seed in range(30):
        for kind in (ScenarioKind.TURN, ScenarioKind.STRAIGHT):
            params = GeneratorParams()
            s = generate_scenario(kind, params, seed)
            hw_max = max(params.half_width_range[1], params.turn_half_width_range[1])
            for cands in (s.candidates.turn_left, s.candidates.turn_right, s.candidates.go_straight):
                for cand in cands:
                    for (x, y), (px, py, _) in zip(cand.xy.tolist(), s.ego_poses.tolist()):
                        lateral = math.hypot(x - px, y - py)
                        assert lateral <= 4.0 * hw_max  # within 2x the corridor width


def test_confidences_strictly_decreasing_with_deviation_rank():
    for seed in range(30):
        s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), seed)
        for cands in (s.candidates.turn_left, s.candidates.turn_right, s.candidates.go_straight):
            confs = [c.confidence for c in cands]
            assert all(c > 0 for c in confs)
            # generation emits candidates in increasing deviation order
            assert confs == sorted(confs, reverse=True)
            assert len(set(confs)) == len(confs)


def test_agent_predictions_well_formed():
    for seed in range(30):
        s = generate_scenario(ScenarioKind.TURN, GeneratorParams(n_agents=3), seed)
        assert len(s.agents) == 3 and len(s.agent_boxes) == 3
        for agent, gt_seq in zip(s.agents, s.agent_boxes):
            assert 1 <= len(agent.modes) <= 3
            total = sum(m.confidence for m in agent.modes)
            assert total <= 1.0 + 1e-6
            top = max(agent.modes, key=lambda m: m.confidence)
            assert top is agent.modes[0]  # mode 0 is the scripted ground truth
            assert agent.modes[0].poses[:, :2].tolist() == gt_seq[:, :2].tolist()


def _gen(kind, seed, **knobs):
    return generate_scenario(kind, GeneratorParams(**knobs), seed)


def _outer(s):
    return s.map.drivable_area.polygons[0].rings[0]


def _aim(s):
    """Lateral offset of the active command's top candidate from the ego ground truth at the last step."""
    x, y, heading = s.ego_poses[-1].tolist()
    wx, wy = s.candidates.batches[s.command][0][0, -1].tolist()
    return (wy - y) * math.cos(heading) - (wx - x) * math.sin(heading)


def _curvature_range(seed):
    # the ego heading turns by the curvature per metre of arc: 3 m per step at 6 m/s
    s = _gen(ScenarioKind.TURN, seed, curvature_range=(0.1, 0.1), speed_range=(6.0, 6.0))
    assert np.abs(s.ego_poses[:, 2]) == pytest.approx(0.3 * np.arange(1, T_F + 1))
    assert not _gen(ScenarioKind.STRAIGHT, seed, curvature_range=(0.1, 0.1)).ego_poses[:, 2].any()


def _speed_range(seed):
    s = _gen(ScenarioKind.STRAIGHT, seed, speed_range=(6.0, 6.0))
    assert s.ego_poses[:, 0] == pytest.approx(3.0 * np.arange(1, T_F + 1))


def _ego_length(seed):
    s = _gen(ScenarioKind.STRAIGHT, seed, ego_length=5.0, noise_scale=0.0)
    assert s.ego_dims[0] == 5.0
    assert _outer(s)[:, 0].min() == pytest.approx(-(2.5 + 1.5))


def _lateral_reach_frac(seed):
    # the farthest candidate of a noiseless straight ends that fraction of the half width off centre
    for frac in (0.3, 0.6):
        s = _gen(ScenarioKind.STRAIGHT, seed, lateral_reach_frac=frac, noise_scale=0.0)
        ends = s.candidates.batches[s.command][0][:, -1, 1]
        assert np.abs(ends).max() == pytest.approx(frac * -_outer(s)[0, 1])


def _planner_noise_frac(seed):
    # the aim error, taken against the error-free aim on the same map, scales with the fraction
    for kind in ScenarioKind:
        base, one, two = (_aim(_gen(kind, seed, noise_scale=0.2, planner_noise_frac=f)) for f in (0.0, 1.0, 2.0))
        assert one != base
        assert two - base == pytest.approx(2.0 * (one - base))


def _turn_planner_noise_boost(seed):
    for kind, factor in ((ScenarioKind.TURN, 3.0), (ScenarioKind.STRAIGHT, 1.0)):
        base, one, three = (
            _aim(_gen(kind, seed, noise_scale=0.2, planner_noise_frac=f, turn_planner_noise_boost=b))
            for f, b in ((0.0, 1.0), (1.0, 1.0), (1.0, 3.0))
        )
        assert three - base == pytest.approx(factor * (one - base))


def _confidence_temperature(seed):
    # softmax over deviation: the log confidence ratios to the top candidate scale with 1 / temperature
    ratios = [
        np.log(confs[0] / confs[1:])
        for confs in (
            _gen(ScenarioKind.STRAIGHT, seed, confidence_temperature=t).candidates.batches[Command.GO_STRAIGHT][2]
            for t in (1.0, 2.0)
        )
    ]
    assert (ratios[0] > 0).all()
    assert ratios[1] == pytest.approx(ratios[0] / 2.0)


def _corridor_tail(seed):
    s = _gen(ScenarioKind.STRAIGHT, seed, corridor_tail=10.0, noise_scale=0.0)
    assert _outer(s)[:, 0].max() == pytest.approx(s.ego_poses[-1, 0] + 10.0)


@pytest.mark.parametrize(
    "check",
    [_curvature_range, _speed_range, _ego_length, _lateral_reach_frac, _planner_noise_frac,
     _turn_planner_noise_boost, _confidence_temperature, _corridor_tail],
    ids=lambda check: check.__name__.lstrip("_"),
)
def test_generator_knob_moves_the_scenario_as_its_comment_says(check):
    for seed in range(5):
        check(seed)


def test_ego_gt_never_collides_with_scripted_agents():
    from uncplan.metrics import collision_rate_frame
    from uncplan.selection import CandidateTrajectory

    for seed in range(60):
        for kind in (ScenarioKind.TURN, ScenarioKind.STRAIGHT):
            s = generate_scenario(kind, GeneratorParams(), seed)
            gt_traj = CandidateTrajectory(s.ego_poses[:, :2], s.ego_poses[:, 2], 1.0)
            assert collision_rate_frame(gt_traj, s.ego_dims, s.ground_truth(), T_F) is False
            assert dacr_frame(gt_traj, s.ego_dims, s.map.drivable_area, T_F) == 0.0


# -- serialization ------------------------------------------------------------


def test_round_trip_identity(tmp_path):
    for seed in (0, 1, 17):
        for kind in (ScenarioKind.TURN, ScenarioKind.STRAIGHT):
            s = generate_scenario(kind, GeneratorParams(), seed)
            path = tmp_path / f"{s.scenario_id}.json"
            save_scenario(s, path)
            loaded = load_scenario(path)
            assert loaded == s


def test_save_is_byte_deterministic(tmp_path):
    s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), 5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(s, p1)
    save_scenario(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(p)
    assert "line" in str(err.value)


def test_load_rejects_missing_version(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    data = scenario_to_dict(s)
    del data["version"]
    p = tmp_path / "nv.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioVersionError):
        load_scenario(p)


def test_load_rejects_wrong_version(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    data = scenario_to_dict(s)
    data["version"] = 99
    p = tmp_path / "v99.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioVersionError):
        load_scenario(p)


def test_load_rejects_negative_scale_naming_field(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    data = scenario_to_dict(s)
    data["map"]["elements"][0]["points"][3]["bx"] = -1.0
    p = tmp_path / "negb.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioInvariantError) as err:
        load_scenario(p)
    assert "map.elements[0].points[3].bx" in str(err.value)


def test_load_rejects_missing_field_naming_it(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    data = scenario_to_dict(s)
    del data["ego"]["dims"]
    p = tmp_path / "nodims.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(p)
    assert "ego.dims" in str(err.value)


def test_load_rejects_bad_confidence(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    data = scenario_to_dict(s)
    data["candidates"]["GoStraight"][0]["confidence"] = 1.7
    p = tmp_path / "conf.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioInvariantError) as err:
        load_scenario(p)
    assert "candidates.GoStraight[0]" in str(err.value)


def test_load_rejects_non_finite_tokens(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    for token in ("NaN", "Infinity", "-Infinity"):
        data = scenario_to_dict(s)
        data["ego"]["dims"]["length"] = "__token__"
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(data).replace('"__token__"', token))
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(p)
        assert token in str(err.value)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["ego"]["dims"].update(length=math.nan), "ego.dims.length"),
        (lambda d: d["ego"]["dims"].update(width=math.inf), "ego.dims.width"),
        (lambda d: d["agents"][0]["dims"].update(length=math.nan), "agents[0].dims.length"),
        (lambda d: d["agent_gt"][0][2].update(width=-math.inf), "agent_gt[0][2].width"),
    ],
)
def test_parse_rejects_non_finite_numbers_naming_field(edit, field):
    # scenario_from_dict gets no help from the decoder here: the dict holds nan/inf floats
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1), 2)
    data = scenario_to_dict(s)
    edit(data)
    with pytest.raises(ScenarioInvariantError) as err:
        scenario_from_dict(data)
    assert field in str(err.value)


def test_overflowing_number_is_rejected_naming_field(tmp_path):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)
    data = scenario_to_dict(s)
    data["ego"]["dims"]["length"] = "__big__"
    p = tmp_path / "big.json"
    p.write_text(json.dumps(data).replace('"__big__"', "1e999"))  # decodes to inf
    with pytest.raises(ScenarioInvariantError) as err:
        load_scenario(p)
    assert "ego.dims.length" in str(err.value)


def test_non_list_hole_is_rejected_naming_it():
    data = scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2))
    data["map"]["drivable_area"][0]["holes"] = [5]
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(data)
    assert str(err.value) == "field 'map.drivable_area[0].holes[0]' must be a list"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(seed=True), "field 'seed' must be int"),
        (lambda d: d["ego"]["dims"].update(length=False), "field 'ego.dims.length' must be a number"),
        (lambda d: d.update(id=5), "field 'id' must be str"),
        (lambda d: d.update(ego=[]), "field 'ego' must be dict"),
    ],
    ids=["bool-seed", "bool-number", "int-id", "list-ego"],
)
def test_type_errors_name_the_field(edit, message):
    # booleans are neither ints nor numbers, and top-level fields carry no leading dot
    data = scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2))
    edit(data)
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(data)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda c: c["TurnLeft"][0].update(confidence=math.inf),
            "field 'candidates.TurnLeft[0].confidence': must be finite, got inf",
        ),
        (lambda c: c.update(TurnLeft=[]), "field 'candidates': command turn_left needs at least one candidate"),
    ],
    ids=["confidence", "empty"],
)
def test_candidate_invariant_errors_name_the_field_once(edit, message):
    data = scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2))
    edit(data["candidates"])
    with pytest.raises(ScenarioInvariantError) as err:
        scenario_from_dict(data)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["agent_gt"][0][2].update(length=0), "field 'agent_gt[0][2].length': must be positive, got 0"),
        (lambda d: d["agents"][0]["modes"][0].update(confidence=1.5),
         "field 'agents[0].modes[0].confidence': must be in [0, 1], got 1.5"),
        (lambda d: d["candidates"]["GoStraight"][1].update(confidence=-0.1),
         "field 'candidates.GoStraight[1].confidence': must be in [0, 1], got -0.1"),
        (lambda d: d["map"]["elements"][0]["points"][3].update(by=0.0005),
         "field 'map.elements[0].points[3].by': scale must be >= 0.001, got 0.0005"),
        (lambda d: d["ego"]["dims"].update(width=0), "field 'ego.dims': dimensions must be positive, got (4.2, 0.0)"),
    ],
    ids=["box-length", "mode-confidence", "candidate-confidence", "scale", "ego-width"],
)
def test_values_out_of_range_are_named_from_their_arrays(edit, message):
    data = scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1), 2))
    edit(data)
    with pytest.raises(ScenarioInvariantError) as err:
        scenario_from_dict(data)
    assert str(err.value) == message


def _value_paths(node, prefix=()):
    """The key or index path of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


_FUZZ_BASES = [
    scenario_to_dict(generate_scenario(ScenarioKind.TURN, GeneratorParams(n_agents=3), 11)),
    scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1), 2)),
]
_FUZZ_PATHS = [list(_value_paths(base)) for base in _FUZZ_BASES]
_FAULTS = ("<delete>", None, True, "x", [], {}, math.inf, 10**400)


def _draw_faulted(data) -> dict:
    """A generated scenario dict with one value deleted or replaced."""
    base = data.draw(st.sampled_from(range(len(_FUZZ_BASES))), label="base")
    path = data.draw(st.sampled_from(_FUZZ_PATHS[base]), label="path")
    fault = data.draw(st.sampled_from(_FAULTS), label="fault")
    faulted = copy.deepcopy(_FUZZ_BASES[base])
    parent = faulted
    for key in path[:-1]:
        parent = parent[key]
    if fault == "<delete>":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(fault)
    return faulted


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_single_fault_raises_only_scenario_errors(data):
    try:
        scenario_from_dict(_draw_faulted(data))
    except (ScenarioFormatError, ScenarioInvariantError):
        pass


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.data())
def test_eval_exits_3_or_4_on_a_malformed_scenario(data):
    from uncplan.cli import EXIT_INVARIANT, EXIT_PARSE, main

    faulted = _draw_faulted(data)
    try:
        scenario_from_dict(faulted)
    except (ScenarioFormatError, ScenarioInvariantError):
        pass
    else:
        reject()  # the fault left a valid scenario
    with tempfile.TemporaryDirectory() as tmp:
        suite = Path(tmp)
        # infinity goes to the file as an overflowing literal, which the decoder reads as inf
        (suite / "s.json").write_text(json.dumps(faulted).replace("Infinity", "1e999"))
        manifest = {"version": 1, "scenarios": [{"id": "s", "path": "s.json"}]}
        (suite / "manifest.json").write_text(json.dumps(manifest))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--suite", str(suite / "manifest.json"), "--out", str(suite / "r")])
    assert code in (EXIT_PARSE, EXIT_INVARIANT)
    assert err.getvalue().startswith(("parse error: scenario s: ", "invariant violation: scenario s: "))


def _faulted(base: dict, path: tuple, fault) -> dict:
    faulted = copy.deepcopy(base)
    parent = faulted
    for key in path[:-1]:
        parent = parent[key]
    if fault == "<delete>":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(fault)
    return faulted


_SINGLE_FAULTS = Path(__file__).parent / "data" / "single_faults.json"


def _outcome(data):
    """None if data loads, else the error's class and the field its message names first."""
    try:
        scenario_from_dict(data)
    except (ScenarioFormatError, ScenarioInvariantError) as e:
        named = re.search(r"field '([^']*)'", str(e))
        return ["format" if isinstance(e, ScenarioFormatError) else "invariant", named and named.group(1)]
    return None


def test_every_single_fault_keeps_its_recorded_class_and_field():
    """Every value of a small scenario deleted or replaced by each fault. The
    fixture holds the outcome of each case, recorded before the loader was
    one reader: accepted, or the error class (format or invariant) and the
    field that the message named. The loader must accept the same cases and
    raise the same class for the others, naming the recorded field or a
    field inside it ('<scenario>' is the whole file)."""
    base = scenario_to_dict(
        generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1, n_candidates=1, n_element_points=2), 5)
    )
    recorded = json.loads(_SINGLE_FAULTS.read_text())
    assert [path for path, _ in recorded] == [list(p) for p in _value_paths(base) if p != ("version",)]
    counts = Counter()
    for path, outcomes in recorded:
        for fault, expected in zip(_FAULTS, outcomes):
            got = _outcome(_faulted(base, tuple(path), fault))
            counts["accepted" if expected is None else expected[0]] += 1
            if expected is None or got is None:
                assert got == expected, (path, fault)
                continue
            kind, field = expected
            assert got[0] == kind and got[1] is not None, (path, fault, got)
            assert field == "<scenario>" or got[1] == field or got[1].startswith((field + ".", field + "[")), (
                path, fault, got, field)
    assert counts == {"format": 1621, "invariant": 422, "accepted": 13}


def _chunk_outcome(tmp: Path, data: dict, goods: list[str]):
    """The error class and first named field with which evaluate_suite refuses a suite of data (as
    scenario file f.json) and a valid copy of it under each id of goods, all in one chunk; None if it
    accepts the suite. The error must name the scenario of data."""
    from uncplan.cli import evaluate_suite
    from uncplan.selection import SelectionConfig

    (tmp / "f.json").write_text(json.dumps(data).replace("Infinity", "1e999"))
    entries = [{"id": _SINGLE_FAULTS_BASE_ID, "path": "f.json"}] + [{"id": g, "path": f"{g}.json"} for g in goods]
    (tmp / "manifest.json").write_text(json.dumps({"version": 1, "scenarios": entries}))
    try:
        evaluate_suite(tmp / "manifest.json", ("ucas",), SelectionConfig(), "cumulative")
    except (ScenarioFormatError, ScenarioInvariantError) as e:
        assert str(e).startswith(f"scenario {_SINGLE_FAULTS_BASE_ID}: "), e
        named = re.search(r"field '([^']*)'", str(e))
        return ["format" if isinstance(e, ScenarioFormatError) else "invariant", named and named.group(1)]
    return None


_SINGLE_FAULTS_BASE = scenario_to_dict(
    generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1, n_candidates=1, n_element_points=2), 5))
_SINGLE_FAULTS_BASE_ID = _SINGLE_FAULTS_BASE["id"]  # "straight-...": "a..." ids sort before it, "z..." ids after
# good scenarios around the faulted one, so that it is read first, in the middle or last of its chunk
_PLACES = {"first": ["z0", "z1"], "middle": ["a0", "z0"], "last": ["a0", "a1"]}


def test_every_single_fault_in_a_chunk_is_reported_by_its_scenario(tmp_path):
    """Each recorded single fault, put first, in the middle or last among good scenarios of one chunk:
    evaluate_suite refuses the suite naming the faulted scenario, with its recorded class and field.
    The places rotate over the faults of each entry, so every entry is tried in all three."""
    for name in {g for goods in _PLACES.values() for g in goods}:
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(_SINGLE_FAULTS_BASE, id=name)))
    places = Counter()
    for path, outcomes in json.loads(_SINGLE_FAULTS.read_text()):
        faulty = [(fault, expected) for fault, expected in zip(_FAULTS, outcomes) if expected is not None]
        for k, (fault, (kind, field)) in enumerate(faulty):
            place = list(_PLACES)[k % 3]
            got = _chunk_outcome(tmp_path, _faulted(_SINGLE_FAULTS_BASE, tuple(path), fault), _PLACES[place])
            assert got is not None and got[0] == kind and got[1] is not None, (path, fault, place, got)
            assert field == "<scenario>" or got[1] == field or got[1].startswith((field + ".", field + "[")), (
                path, fault, place, got, field)
            places[place] += 1
    assert sum(places.values()) == 1621 + 422 and min(places.values()) > 500


@pytest.fixture(scope="module")
def benchmark_suites(tmp_path_factory):
    """The scenario paths of the three seed-73 benchmark suites, in manifest order."""
    out = tmp_path_factory.mktemp("suites")
    shapes = {"canonical": (400, GeneratorParams()), "wide-candidates": (150, GeneratorParams(n_candidates=20)),
              "dense-map": (100, GeneratorParams(n_element_points=80))}
    return {name: load_suite(generate_suite(out / name, count, 0.65, params, 73))[1]
            for name, (count, params) in shapes.items()}


@pytest.mark.parametrize("name", ["canonical", "wide-candidates", "dense-map", "mixed"])
def test_chunk_reader_equals_loading_each_file_alone(benchmark_suites, name):
    """Random splits of a suite into chunks of 1 to 32 scenarios read as each file read alone, every
    array of them read-only; "mixed" shuffles the three suites together, so that the scenarios of a
    chunk differ in candidates and map vertices too."""
    rng, start, sizes = random.Random(name), 0, set()
    paths = benchmark_suites.get(name) or rng.sample(sum(benchmark_suites.values(), []), 250)
    alone = [load_scenario(path) for path in paths]
    while start < len(paths):
        size = rng.randint(1, 32)
        for s, expected in zip(load_scenarios(paths[start:start + size]), alone[start:start + size], strict=True):
            assert s == expected
            assert not any(array.flags.writeable for array in _arrays(s).values())
        start, sizes = start + size, sizes | {min(size, len(paths) - start)}
    assert 1 < len(sizes)


def test_the_workload_ring_checks_hand_the_narrow_phase_no_pair(benchmark_suites, monkeypatch, tmp_path):
    """The ring checks of the three seed-73 benchmark suites, loaded in chunks of 25, and of 100 scenarios of
    each kind generated with each workload's settings (5 and 20 candidates, 20 and 80 element points) hand
    _segments_intersect no pair: the sweep's box test drops every pair. Turn corridors of 3 element points
    do reach it, and are generated and load back equal. If the narrow phase comes onto the benchmark's
    path, this test says so."""
    kernel, handed = geometry._segments_intersect, []

    def counting_kernel(p1, p2, q1, q2):
        handed.append(len(p1))
        return kernel(p1, p2, q1, q2)

    monkeypatch.setattr(geometry, "_segments_intersect", counting_kernel)
    for paths in benchmark_suites.values():
        for start in range(0, len(paths), 25):
            load_scenarios(paths[start:start + 25])
    for params in (GeneratorParams(), GeneratorParams(n_candidates=20), GeneratorParams(n_element_points=80)):
        for kind in ScenarioKind:
            for i in range(100):
                generate_scenario(kind, params, scenario_seed(73, i))
    assert handed == []
    for i in range(20):
        turn = generate_scenario(ScenarioKind.TURN, GeneratorParams(n_element_points=3), scenario_seed(73, i))
        save_scenario(turn, tmp_path / "turn.json")
        assert load_scenario(tmp_path / "turn.json") == turn
    assert len(handed) > 10 and sum(handed) > len(handed)


def _arrays(s):
    """Every array a scenario holds, by name."""
    out = {"ego_poses": s.ego_poses, "agent_boxes": s.agent_boxes}
    for command, batch in s.candidates.batches.items():
        out.update({f"{command.value}.{k}": a for k, a in zip(("xy", "yaw", "confidence"), batch)})
    for i, e in enumerate(s.map.elements):
        out[f"element{i}.table"] = e.polyline.table
        out[f"element{i}.log_2b"] = e.polyline.log_2b
    for i, poly in enumerate(s.map.drivable_area.polygons):
        out.update({f"polygon{i}.ring{k}": r for k, r in enumerate(poly.rings)})
        out.update({f"polygon{i}.edges{k}": e for k, e in enumerate(poly.edges)})
    out.update({f"area.edges{k}": e for k, e in enumerate(s.map.drivable_area.edges)})
    for i, agent in enumerate(s.agents):
        out.update({f"agent{i}.mode{k}": m.poses for k, m in enumerate(agent.modes)})
    return out


@pytest.mark.parametrize(
    "params",
    [GeneratorParams(), GeneratorParams(n_candidates=20), GeneratorParams(n_element_points=80)],
    ids=["canonical", "wide-candidates", "dense-map"],
)
def test_arrays_read_at_load_are_the_tuple_constructors_arrays(params):
    """On scenarios shaped like the benchmark's workloads, the loader reads
    back from the file every array that the constructors built from the
    generator's float rows (agent modes, boxes, rings, candidates), byte for
    byte, and every array is read-only."""
    for seed in range(6):
        kind = ScenarioKind.TURN if seed % 3 else ScenarioKind.STRAIGHT
        s = generate_scenario(kind, params, seed)
        built, loaded = _arrays(s), _arrays(scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s)))))
        assert loaded.keys() == built.keys()
        for name, array in loaded.items():
            assert array.dtype == built[name].dtype and array.shape == built[name].shape, name
            assert array.tobytes() == built[name].tobytes(), name
            assert not array.flags.writeable and not built[name].flags.writeable, name


def _expected_arrays(data):
    """The stored arrays a scenario dict loads to, computed here item by item with float() and normalize_heading."""

    def poses(items):
        return [[float(p["x"]), float(p["y"]), normalize_heading(float(p["heading"]))] for p in items]

    out = {
        "ego_poses": poses(data["ego_gt_future"]),
        "agent_boxes": [[[float(b[k]) for k in ("cx", "cy", "heading", "length", "width")] for b in seq]
                        for seq in data["agent_gt"]],
    }
    for command, items in data["candidates"].items():
        out[f"{command}.xy"] = [[[float(v) for v in w] for w in c["waypoints"]] for c in items]
        out[f"{command}.yaw"] = [[float(h) for h in c["headings"]] for c in items]
        out[f"{command}.confidence"] = [float(c["confidence"]) for c in items]
    for i, element in enumerate(data["map"]["elements"]):
        out[f"element{i}.table"] = [[float(p[k]) for k in ("mx", "my", "bx", "by")] for p in element["points"]]
    for i, polygon in enumerate(data["map"]["drivable_area"]):
        for k, ring in enumerate([polygon["outer"], *polygon["holes"]]):
            out[f"polygon{i}.ring{k}"] = [[float(x), float(y)] for x, y in ring]
    for i, agent in enumerate(data["agents"]):
        out.update({f"agent{i}.mode{k}": poses(m["trajectory"]) for k, m in enumerate(agent["modes"])})
    return {name: np.array(rows, dtype=float) for name, rows in out.items()}


def test_uneven_layouts_ints_and_headings_load_as_computed_here():
    data = scenario_to_dict(generate_scenario(ScenarioKind.TURN, GeneratorParams(n_agents=2), 3))
    data["ego_gt_future"][0]["x"] = 2**53 + 1  # rounds to a float
    data["agents"][0]["modes"][0]["trajectory"][1]["heading"] = 7.0  # normalized into (-pi, pi]
    data["candidates"]["TurnLeft"][0]["waypoints"][2] = [3, -(2**60 + 3)]
    data["map"]["elements"][0]["points"][0]["mx"] = 12
    data["map"]["elements"][0]["points"][1]["bx"] = 0.001  # the smallest scale allowed
    # commands with different candidate counts, elements of different lengths, holes and a second polygon
    del data["candidates"]["GoStraight"][1:3]
    del data["map"]["elements"][1]["points"][5:9]
    data["map"]["drivable_area"].append({"outer": [[500, 500], [540, 500], [540, 540], [500, 540], [500, 500]],
                                         "holes": [[[510, 510], [510, 520], [520, 520], [520, 510], [510, 510]],
                                                   [[525, 525], [525, 530], [530, 530], [530, 525], [525, 525]]]})
    s = scenario_from_dict(data)
    loaded, expected = _arrays(s), _expected_arrays(data)
    assert expected.keys() <= loaded.keys()
    for name, array in expected.items():
        assert loaded[name].shape == array.shape and loaded[name].tobytes() == array.tobytes(), name
        assert not loaded[name].flags.writeable, name
    assert loaded["ego_poses"][0, 0] == 2.0**53
    assert loaded["agent0.mode0"][1, 2] == 7.0 - math.tau
    assert loaded["TurnLeft.xy"][0, 2].tolist() == [3.0, -(2.0**60)]
    assert [len(b[0]) for b in s.candidates.batches.values()] == [5, 5, 3]
    assert [len(e.polyline.table) for e in s.map.elements][:2] == [20, 16]
    assert [len(p.rings) for p in s.map.drivable_area.polygons] == [1, 3]


@pytest.mark.parametrize("field", ["ego.dims.length", "map.elements[0].points[1].mx", "agent_gt[0][2].cx"])
def test_integer_too_large_for_a_float_is_infinite_naming_the_field(tmp_path, field):
    data = scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1), 2))
    node = data
    keys = [int(k) if k.isdigit() else k for k in field.replace("[", ".").replace("]", "").split(".")]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = 10**400
    p = tmp_path / "big.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioInvariantError) as err:
        load_scenario(p)
    assert str(err.value).startswith(f"field '{field}'") and "inf" in str(err.value)


def test_integer_beyond_the_digit_limit_is_a_parse_error_naming_the_file(tmp_path):
    text = json.dumps(scenario_to_dict(generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), 2)))
    p = tmp_path / "huge.json"
    p.write_text(text.replace('"seed": ', '"seed": ' + "9" * 5000 + ", \"x\": ", 1))
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(p)
    assert str(err.value).startswith(f"{p}: invalid JSON: ")


@pytest.mark.parametrize("load", [load_scenario, load_suite], ids=["scenario", "manifest"])
def test_json_nested_beyond_the_recursion_limit_is_a_parse_error_naming_the_file(tmp_path, load):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ScenarioFormatError) as err:
        load(p)
    assert str(err.value).startswith(f"{p}: invalid JSON: ")


# -- suites --------------------------------------------------------------------


def test_generate_suite_layout_and_mix(tmp_path):
    params = GeneratorParams(n_candidates=3)
    manifest_path = generate_suite(tmp_path / "suite", 10, 0.5, params, master_seed=7)
    manifest, paths = load_suite(manifest_path)
    assert manifest["count"] == 10
    assert len(paths) == 10
    kinds = [e["kind"] for e in manifest["scenarios"]]
    assert kinds.count("Turn") == 5
    for p in paths:
        s = load_scenario(p)
        assert len(s.candidates.go_straight) == 3


def test_generate_suite_reruns_byte_identical(tmp_path):
    params = GeneratorParams()
    m1 = generate_suite(tmp_path / "a", 6, 0.5, params, master_seed=7)
    m2 = generate_suite(tmp_path / "b", 6, 0.5, params, master_seed=7)
    assert m1.read_bytes() == m2.read_bytes()
    for e1 in json.loads(m1.read_text())["scenarios"]:
        f1 = (tmp_path / "a" / e1["path"]).read_bytes()
        f2 = (tmp_path / "b" / e1["path"]).read_bytes()
        assert f1 == f2


# SHA-256 of the save_scenario bytes of scenarios scenario_seed(73, i), i = 4..7, one kind at a time.
# The first three configurations are the benchmark workloads' params; the rest cover branches those
# suites do not reach: the zero-noise branch, a noisier map, an uncalibrated map with an exact planner,
# a crowd of agents with one candidate per command, and the fewest vertices a turn corridor takes.
_GENERATOR_CONFIGS = {
    "canonical": {"noise_scale": 0.5, "n_agents": 2},
    "wide-candidates": {"noise_scale": 0.5, "n_agents": 2, "n_candidates": 20},
    "dense-map": {"noise_scale": 0.5, "n_agents": 2, "n_element_points": 80},
    "noiseless": {"noise_scale": 0.0},
    "noisy": {"noise_scale": 1.5},
    "uncalibrated-exact-planner": {"calibrated": False, "planner_noise_frac": 0.0},
    "crowded-single-candidate": {"n_agents": 6, "n_candidates": 1},
    "three-point-elements": {"n_element_points": 3},
}
_STORED_BYTES = {
    ("canonical", "STRAIGHT"): "69703dec3f00ce181a979bf31f7e5382d9fdebfed1ec8d0babb72a62ef9934e1",
    ("canonical", "TURN"): "b555221d1b7bddc0f32c531306d061ed4cdd85f311e0188f868a739fbdd695f7",
    ("wide-candidates", "STRAIGHT"): "49e3d41ebf44a9b08b6473d1306c8879cbb4cd05814350196c061daf38814564",
    ("wide-candidates", "TURN"): "06a8480f30177bbb8f120b8bc111237c89c6d27b30c351ca015d0f556757721d",
    ("dense-map", "STRAIGHT"): "e4b96da451502642a1a6c19c5aea6ab9430700bd9ca6a23dacbb8011563d30e6",
    ("dense-map", "TURN"): "f7a258dd77ec9e44c410e6db778a26d72c6f456e6e3a11ffbc1d4b42c934cbf6",
    ("noiseless", "STRAIGHT"): "a7e91fa98b57016946dbbbd038f47b0c1992254d5737e0038e5b68d9c78e67ba",
    ("noiseless", "TURN"): "9d5bd04e87cf037433bd7fac7c905f8c22dbe72802a80dea1f71b4c3c4d7acb0",
    ("noisy", "STRAIGHT"): "f41b8f4c27729fb8a6c2a04ad5537612c32087a1db2f92570d457143829a5c92",
    ("noisy", "TURN"): "48a39d791b63c281e8408c50c95d5b6cec84d3767a78e4aa5ae6b9e60d7a9294",
    ("uncalibrated-exact-planner", "STRAIGHT"): "6d35d8b66d7a6de0d44fa1f4d7b034ad8cdad6fb4fc699938ee6b5e1358b0cea",
    ("uncalibrated-exact-planner", "TURN"): "c37e2c418cce99c623eed31d1be3d61a8efd95323b1c12f3c5e7be01532dd257",
    ("crowded-single-candidate", "STRAIGHT"): "607ca1db5eaba05b8c86d569a2cca8375d3d35647a96b305234719611b4bf58a",
    ("crowded-single-candidate", "TURN"): "623d0cc57a0ffb4a004a41d7251e793d277ee902fe953c4761a21b586be9cb11",
    ("three-point-elements", "STRAIGHT"): "283d850f6f268ac039bfafb2b1532a7ccedf463ad06b6432e004dfe7d20e3706",
    ("three-point-elements", "TURN"): "270024669610af294e251be794c8eaa6ec2e83eb5ed59aa6b9a1cea79f272576",
}


@pytest.mark.parametrize("config, kind", list(_STORED_BYTES))
def test_generated_files_keep_their_stored_bytes(tmp_path, config, kind):
    params = GeneratorParams(**_GENERATOR_CONFIGS[config])
    digest = hashlib.sha256()
    for i in range(4, 8):
        save_scenario(generate_scenario(ScenarioKind[kind], params, scenario_seed(73, i)), tmp_path / "s.json")
        digest.update((tmp_path / "s.json").read_bytes())
    assert digest.hexdigest() == _STORED_BYTES[config, kind]


def test_turn_corridors_need_three_element_points():
    """Two stations of a turn span a chord, and about half of such corridor rings fold over; straight
    corridors of two points stay valid (tests/data/single_faults.json is built on one)."""
    params = GeneratorParams(n_element_points=2)
    for i in range(20):
        with pytest.raises(ValueError, match="^n_element_points must be >= 3 for turn corridors, got 2$"):
            generate_scenario(ScenarioKind.TURN, params, scenario_seed(73, i))
        straight = generate_scenario(ScenarioKind.STRAIGHT, params, scenario_seed(73, i))
        assert all(len(e.polyline.table) == 2 for e in straight.map.elements)


def test_a_non_finite_waypoint_is_refused_before_a_scenario_exists(monkeypatch):
    """The candidate arrays go through a finiteness check: a lateral factor of inf makes waypoints of nan,
    and generation stops with a ValueError before the Scenario constructor is reached."""
    import uncplan.scenario as scenario_module

    def built(**fields):
        raise AssertionError("a Scenario was built from a non-finite waypoint")

    monkeypatch.setattr(scenario_module, "_offset_template", lambda n: [0.0, math.inf])
    monkeypatch.setattr(scenario_module, "Scenario", built)
    for kind in ScenarioKind:
        with pytest.raises(ValueError, match="finite"):
            generate_scenario(kind, GeneratorParams(), scenario_seed(73, 4))


def test_generate_suite_turn_only_mix(tmp_path):
    manifest_path = generate_suite(tmp_path / "t", 4, 1.0, GeneratorParams(), master_seed=3)
    manifest, paths = load_suite(manifest_path)
    assert all(e["kind"] == "Turn" for e in manifest["scenarios"])
    for p in paths:
        assert load_scenario(p).scenario_class == "Turn"


def test_generate_suite_fixed_id_multiset(tmp_path):
    m1 = generate_suite(tmp_path / "x", 8, 0.25, GeneratorParams(), master_seed=11)
    ids1 = sorted(e["id"] for e in json.loads(m1.read_text())["scenarios"])
    m2 = generate_suite(tmp_path / "y", 8, 0.25, GeneratorParams(), master_seed=11)
    ids2 = sorted(e["id"] for e in json.loads(m2.read_text())["scenarios"])
    assert ids1 == ids2
    assert len(set(ids1)) == 8


def test_generate_suite_rejects_bad_count(tmp_path):
    with pytest.raises(ValueError):
        generate_suite(tmp_path / "z", 0, 0.5, GeneratorParams(), master_seed=1)


_DEFAULTS = GeneratorParams()
_FLOAT_FIELDS = [f.name for f in fields(GeneratorParams) if isinstance(getattr(_DEFAULTS, f.name), float)]
_RANGE_FIELDS = [f.name for f in fields(GeneratorParams) if isinstance(getattr(_DEFAULTS, f.name), tuple)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_generator_params_reject_non_finite_floats(name, value):
    # a NaN fails the field's range comparison without raising, and would reach the generator
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        GeneratorParams(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("name", _RANGE_FIELDS)
def test_generator_params_reject_non_finite_range_ends(name, end, value):
    bounds = list(getattr(_DEFAULTS, name))
    bounds[end] = value
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        GeneratorParams(**{name: tuple(bounds)})


_RING_REFUSAL = (r"^corridor of curvature \S+ 1/m, half width \S+ m and length \S+ m has no valid ring \(outer ring "
                 r"(must be counterclockwise|is self-intersecting \(edges \d+ and \d+\))\); it is set by curvature_range, "
                 r"turn_half_width_range, speed_range, corridor_tail and ego_length$")


def test_a_turn_corridor_that_folds_over_is_refused_naming_its_knobs():
    """With a 100 m tail every turn corridor of seed 73 turns more than once and folds over; the refusal names
    the drawn curvature, half width and length and the knobs that set them. Straight corridors still generate."""
    params = GeneratorParams(corridor_tail=100.0)
    for i in range(40):
        with pytest.raises(ValueError, match=_RING_REFUSAL):
            generate_scenario(ScenarioKind.TURN, params, scenario_seed(73, i))
        generate_scenario(ScenarioKind.STRAIGHT, params, scenario_seed(73, i))


@pytest.mark.parametrize("held", [[], ["notes.txt"]], ids=["new-directory", "existing-directory"])
def test_a_refused_suite_leaves_no_file_it_wrote(tmp_path, held):
    """With a 30 m tail, scenarios 0-2 of seed 3 generate and are written, and turn 3 folds over. The refusal
    removes the three files and a directory the call created, and keeps what the directory held before."""
    out = tmp_path / "suite"
    if held:
        out.mkdir()
        (out / held[0]).write_text("not a scenario\n")
    params = GeneratorParams(corridor_tail=30.0)
    for i in range(3):
        generate_scenario(ScenarioKind.TURN, params, scenario_seed(3, i))
    with pytest.raises(ValueError, match=_RING_REFUSAL):
        generate_suite(out, 10, 0.5, params, 3)
    if held:
        assert [p.name for p in out.iterdir()] == held
    else:
        assert not out.exists()


def test_a_refused_suite_leaves_an_earlier_suite_in_its_directory_as_it_was(tmp_path):
    """A second suite refused at turn 3 (a 30 m tail folds it over) leaves the first suite's 11 files
    byte-identical, and its manifest lists only files that exist."""
    out = tmp_path / "suite"
    generate_suite(out, 10, 0.5, GeneratorParams(), 3)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(ValueError, match=_RING_REFUSAL):
        generate_suite(out, 10, 0.5, GeneratorParams(corridor_tail=30.0), 3)
    assert len(before) == 11 and {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert all(path.exists() for path in load_suite(out / "manifest.json")[1])


def test_a_refused_suite_leaves_no_directory_it_created(tmp_path):
    with pytest.raises(ValueError, match=_RING_REFUSAL):
        generate_suite(tmp_path / "x" / "a" / "suite", 10, 0.5, GeneratorParams(corridor_tail=30.0), 3)
    assert list(tmp_path.iterdir()) == []


def test_a_suite_cut_short_while_moving_its_files_leaves_no_manifest(tmp_path, monkeypatch):
    """A failure on the fourth file moved into a directory that holds an earlier suite leaves no manifest
    to list a mix of the two suites' files, and no temporary directory."""
    out = tmp_path / "suite"
    generate_suite(out, 10, 0.5, GeneratorParams(), 3)
    replace, moved = os.replace, []

    def failing_replace(src, dst):
        if len(moved) == 3:
            raise OSError("no space left on device")
        moved.append(dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        generate_suite(out, 10, 0.5, GeneratorParams(noise_scale=0.5), 3)
    assert len(moved) == 3 and not (out / "manifest.json").exists()
    assert len(list(out.glob("*.json"))) == 10 and not list(out.glob(".generate-*"))


def _wrong_types(default):
    """Values of a knob's neighbouring types, none of them its own kind (told by its default)."""
    if isinstance(default, bool):
        return [0.5, 1, np.bool_(default), "true"]
    if isinstance(default, int):
        return [float(default), np.int64(default), True, str(default)]
    if isinstance(default, float):
        return [True, False, np.True_, str(default), (default,)]
    return [default[0], list(default), default[:1], (*default, default[1]), (True, default[1]), (str(default[0]), 1.0)]


_KINDS = {bool: "a bool", int: "an int", float: "a number", tuple: "a pair of numbers"}


@pytest.mark.parametrize("name", [f.name for f in fields(GeneratorParams)])
def test_generator_params_refuse_a_knob_of_the_wrong_type_naming_it(name):
    """A float for an int knob or a numpy int (which the manifest cannot write), a number for a bool knob, a
    bool for a number, text for any knob, and a range that is not a pair of numbers are refused by name."""
    default = getattr(_DEFAULTS, name)
    for value in _wrong_types(default):
        message = rf"^{name} must be {_KINDS[type(default)]}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            GeneratorParams(**{name: value})


@pytest.mark.parametrize("build", ["Scenario", "GroundTruth"])
def test_an_agent_with_too_few_boxes_is_refused_naming_it(build):
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1), scenario_seed(73, 3))
    short = s.agent_boxes[:, :T_F - 1]
    with pytest.raises(ValueError, match=rf"^agent 0 ground truth has {T_F - 1} steps, needs {T_F}$"):
        if build == "Scenario":
            replace(s, agent_boxes=short)
        else:
            GroundTruth(s.ego_poses[:, :2], short, s.map.drivable_area)


@pytest.mark.parametrize("side", [0, 1], ids=["length", "width"])
@pytest.mark.parametrize("value", [-4.2, math.nan, math.inf, 0.0])
def test_ego_dims_that_are_not_positive_and_finite_are_refused(side, value):
    """As AgentPrediction refuses its dims, so that no Scenario holds ego dims that save_scenario would
    write and load_scenario, or selection, would then refuse."""
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(), scenario_seed(73, 3))
    dims = (value, 1.9) if side == 0 else (4.2, value)
    with pytest.raises(ValueError, match=rf"^ego dims must be positive and finite, got \({dims[0]}, {dims[1]}\)$"):
        replace(s, ego_dims=dims)
    assert replace(s, ego_dims=(4.2, 1.9)) == s


@pytest.mark.parametrize(
    "entries, message",
    [
        ([{"path": "a.json"}, {"id": "b"}], r"^missing field 'scenarios\[0\]\.id'$"),
        ([{"path": 7}, {"id": "b", "path": "b.json"}], r"^field 'scenarios\[0\]\.path' must be str$"),
    ],
    ids=["id-before-next-path", "path-before-id"],
)
def test_manifest_entries_are_read_one_at_a_time_path_then_id(tmp_path, entries, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"version": 1, "scenarios": entries}))
    with pytest.raises(ScenarioFormatError, match=message):
        load_suite(manifest)


@pytest.mark.parametrize("name", _FLOAT_FIELDS + _RANGE_FIELDS)
def test_float_knobs_are_bounded_so_generated_numbers_stay_finite(name):
    """Just above KNOB_LIMIT, and at 1e307 and 1e308, where generation used to overflow, a float knob or a range
    knob's end is refused naming the knob. At the limit, one knob at a time, 20 seeds of each kind generate finite
    numbers, numpy warning of no overflow, or are refused by the ring validator for a corridor that folds over."""
    for value in (math.nextafter(KNOB_LIMIT, math.inf), 1e307, 1e308):
        for knob in [value] if name in _FLOAT_FIELDS else [(1.0, value), (value, value)]:
            with pytest.raises(ValueError, match=rf"^{name} must be at most 1e\+06, got "):
                GeneratorParams(**{name: knob})
    if name == "lateral_reach_frac":  # its own range, (0, 1), is narrower
        with pytest.raises(ValueError, match=r"^lateral_reach_frac must be in \(0, 1\)$"):
            GeneratorParams(lateral_reach_frac=KNOB_LIMIT)
        return
    params = GeneratorParams(**{name: KNOB_LIMIT if name in _FLOAT_FIELDS else (KNOB_LIMIT, KNOB_LIMIT)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ScenarioKind:
            for i in range(20):
                try:
                    s = generate_scenario(kind, params, scenario_seed(73, i))
                except ValueError as e:
                    assert re.match(_RING_REFUSAL, str(e)), (kind, i, e)
                    continue
                json.dumps(scenario_to_dict(s), allow_nan=False)


def _dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


# The writer's plain part: _text lays out dicts, lists and scalars as json.dumps(indent=2) does. A tuple is a
# (form, array) number-table leaf there, so a tree's JSON arrays are given to it as lists (json writes a
# tuple as a list too).
def _lists(tree):
    if isinstance(tree, dict):
        return {key: _lists(value) for key, value in tree.items()}
    return [_lists(item) for item in tree] if isinstance(tree, (list, tuple)) else tree


_numbers = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_keys = st.text(st.sampled_from('an%"\\\n\té☃\x00\U0001f600'), max_size=4)


def _containers(children):
    # equal-shape number rows, sometimes followed by an item of another shape
    list_rows = st.integers(0, 3).flatmap(lambda m: st.lists(st.lists(_numbers, min_size=m, max_size=m), max_size=4))
    dict_rows = st.lists(_keys, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: _numbers for k in keys}), max_size=4)
    )
    rows = st.one_of(list_rows, dict_rows, st.lists(_numbers, max_size=5))
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
        rows,
        st.tuples(rows, children).map(lambda pair: [*pair[0], pair[1]]),
    )


_trees = st.recursive(st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6)), _containers, max_leaves=30)


@given(_trees)
@settings(max_examples=400, deadline=None)
def test_json_text_is_json_dumps_indent_2(tree):
    assert _text(tree) == _dumps(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {}, [], (), [[]], [{}], [()], [[], []], [{}, {}], {"a": [], "b": {}, "c": [[], {}]},
        [-0.0, 5e-324, 1e16, -1e16, 1e-7, 2**70, -(2**70), 0],
        [[-0.0, 5e-324], [1e16, 2**64]],
        [{"x": -0.0, "y": 5e-324}, {"x": 1e16, "y": -(2**64)}],
        [1, True, 2.0], [[1, True], [2, 3]], [[1.0, 2.0], [False, 3.0]], [{"a": 1}, {"a": False}],
        [None, 1.0], [[1.0, None]], [[1.0, "a"], [2.0, "b"]], [np.float64(1.5), 2.0], [[np.float64(1.5), 2.0]],
        [[1, 2.5], [3.0, 4]], [(1.0, 2.0), [3.0, 4.0]], [{"a": 1.0}, [1.0]], [[1.0], {"a": 1.0}],
        [[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}], [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1}, {"b": 1}],
        {"é☃\n\t\"\\/": "ünï\x00\x1f \U0001f600"}, ["\ud800", "/", ""],
        [{"%r%%": 1.5, 'n"': 2}, {"%r%%": -0.0, 'n"': 3}], {"%s": [1.0], "nnn": {"n": 1}},
        [{"%": 1.0, "%d": 2}], [{"\n": 1.0}, {"\n": 2.0}],
    ],
)
def test_json_text_edge_cases(tree):
    assert _text(_lists(tree)) == _dumps(tree)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda v: v,
        lambda v: {"a": v},
        lambda v: [1.0, v, 2],
        lambda v: [[1.0, 2.0], [v, 3.0]],
        lambda v: [{"n": 1.0, "a": 2.0}, {"n": v, "a": 3.0}],
        lambda v: [[1.0, "a"], [v, "b"]],
    ],
    ids=["scalar", "dict value", "number list", "list row", "dict row", "mixed row"],
)
def test_json_text_rejects_non_finite_as_json_does(place, value):
    with pytest.raises(ValueError) as expected:
        _dumps(place(value))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        _text(place(value))


# edge values of the writer: signed zero, the least subnormal, floats printed with an exponent
_SPECIALS = [-0.0, 0.0, 5e-324, 1e16, -1e16, 1e-7, 0.1, 2.5, 1e300]
_reals = st.one_of(st.sampled_from(_SPECIALS), st.floats(-1e300, 1e300))
_sizes = st.one_of(st.sampled_from([5e-324, 1e-7, 0.1, 2.5, 1e16]), st.floats(1e-300, 1e300))
_names = st.text(st.sampled_from('a%"\\\n\t/é☃\x00\U0001f600'), max_size=6)


def _rows(draw, shape, numbers=_reals):
    return np.array(draw(st.lists(numbers, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)


@st.composite
def _built_scenarios(draw):
    """Scenarios built through the public constructors, their numbers, ids and counts drawn."""
    from uncplan.geometry import MultiPolygon, Point2, Polygon, Pose2
    from uncplan.map_model import MapElement, MapElementKind, UncertainMap
    from uncplan.selection import CandidateSet, CandidateTrajectory
    from uncplan.uncertainty import B_MIN, UncertainPolyline

    # the lower left corner and the extent of the drivable area, each axis wide enough to place holes in
    x0, width = draw(st.sampled_from([(-0.0, 8.0), (5e-324, 8.0), (-0.0, 1e16), (-1e16, 4e16)]))
    y0, height = draw(st.sampled_from([(-0.0, 4.0), (1e-7, 4.0), (5e-324, 1e16)]))

    def rectangle(left, bottom, right, top):  # counterclockwise from the lower left corner
        return [(left, bottom), (right, bottom), (right, top), (left, top), (left, bottom)]

    outer = rectangle(x0, y0, x0 + width, y0 + height)
    holes = [rectangle(x0 + width * (2 * k + 1) / 8, y0 + height / 4, x0 + width * (k + 1) / 4, y0 + height / 2)
             for k in range(draw(st.integers(0, 2)))]
    area = MultiPolygon((Polygon(np.array(outer), [np.array(h[::-1]) for h in holes]),))  # holes run clockwise
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        table = _rows(draw, (draw(st.integers(1, 4)), 4))
        table[:, 2:] = _rows(draw, (len(table), 2), st.sampled_from([B_MIN, 0.5, 1e16]))
        elements.append(MapElement(UncertainPolyline(table), draw(st.sampled_from(MapElementKind))))
    agents, boxes = [], []
    for _ in range(draw(st.integers(0, 2))):
        n_modes = draw(st.integers(1, 3))
        confidence = st.sampled_from([0, 1 / n_modes, 5e-324, -0.0, 0.1])
        modes = [AgentMode(_rows(draw, (T_F, 3)), draw(confidence)) for _ in range(n_modes)]
        dims = (draw(_sizes), draw(_sizes))
        agents.append(AgentPrediction(draw(_names), dims, tuple(modes)))
        truth = _rows(draw, (T_F, 5))
        truth[:, 3:] = _rows(draw, (T_F, 2), _sizes)
        boxes.append(truth)

    def candidates():
        confidence = st.sampled_from([0.0, 1.0, 5e-324, 0.3])
        return tuple(CandidateTrajectory(_rows(draw, (T_F, 2)), _rows(draw, (T_F,)), draw(confidence))
                     for _ in range(draw(st.integers(1, 3))))

    future = _rows(draw, (T_F, 3))
    ego = Pose2(Point2(draw(st.one_of(st.integers(-3, 3), _reals)), draw(_reals)), draw(st.one_of(st.just(0), _reals)))
    return Scenario(
        scenario_id=draw(_names),
        seed=draw(st.one_of(st.sampled_from([2**70, -(2**70), 0]), st.integers())),
        map=UncertainMap(tuple(elements), area),
        agents=tuple(agents),
        agent_boxes=np.array(boxes).reshape(len(boxes), T_F, 5),
        ego_pose=ego,
        ego_dims=(draw(_sizes), draw(_sizes)),
        command=draw(st.sampled_from(Command)),
        candidates=CandidateSet(candidates(), candidates(), candidates()),
        ego_poses=future,
        scenario_class=scenario_class_of([normalize_heading(h) for h in future[:, 2].tolist()]),
    )


@given(_built_scenarios())
@settings(max_examples=150, deadline=None)
def test_saved_bytes_are_json_dumps_indent_2_of_scenario_to_dict(s):
    """The writer's templates against json's encoder, on edge numbers, on ints where the constructors keep
    them (ego pose, mode confidences, seed), on strings that hold % and escapes, on zero agents, single
    candidates and holes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_scenario(s, path)
        assert path.read_bytes() == (_dumps(scenario_to_dict(s)) + "\n").encode("ascii")


def _with(obj, **changes):
    """A shallow copy of obj with fields replaced, unchecked: the constructors refuse non-finite numbers."""
    out = copy.copy(obj)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


def _put(table, value):
    """A copy of the read-only table with value at its last flat index."""
    out = np.array(table)
    out.reshape(-1)[-1] = value
    return out


def _first_agent(s, **changes):
    return _with(s, agents=(_with(s.agents[0], **changes), *s.agents[1:]))


def _first_mode(s, **changes):
    agent = s.agents[0]
    return _first_agent(s, modes=(_with(agent.modes[0], **changes), *agent.modes[1:]))


def _first_element(s, value):
    element = s.map.elements[0]
    line = _with(element.polyline, table=_put(element.polyline.table, value))
    return _with(s, map=_with(s.map, elements=(_with(element, polyline=line), *s.map.elements[1:])))


def _ring(s, k, value):
    polygon = s.map.drivable_area.polygons[0]
    rings = list(polygon.rings)
    rings[k] = _put(rings[k], value)
    return _with(s, map=_with(s.map, drivable_area=_with(s.map.drivable_area, polygons=(_with(polygon, rings=rings),))))


def _batch(s, column, value):
    batches = dict(s.candidates.batches)
    batch = list(batches[Command.TURN_RIGHT])
    batch[column] = _put(batch[column], value)
    batches[Command.TURN_RIGHT] = tuple(batch)
    return _with(s, candidates=_with(s.candidates, batches=batches))


_NON_FINITE_PLACES = {
    "ego pose": lambda s, v: _with(s, ego_pose=_with(s.ego_pose, heading=v)),
    "ego dims": lambda s, v: _with(s, ego_dims=(4.2, v)),
    "ego future": lambda s, v: _with(s, ego_poses=_put(s.ego_poses, v)),
    "element points": _first_element,
    "outer ring": lambda s, v: _ring(s, 0, v),
    "hole ring": lambda s, v: _ring(s, 1, v),
    "agent dims": lambda s, v: _first_agent(s, dims=(v, 1.0)),
    "mode confidence": lambda s, v: _first_mode(s, confidence=v),
    "mode trajectory": lambda s, v: _first_mode(s, poses=_put(s.agents[0].modes[0].poses, v)),
    "agent boxes": lambda s, v: _with(s, agent_boxes=_put(s.agent_boxes, v)),
    "waypoints": lambda s, v: _batch(s, 0, v),
    "headings": lambda s, v: _batch(s, 1, v),
    "candidate confidence": lambda s, v: _batch(s, 2, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", list(_NON_FINITE_PLACES))
def test_a_non_finite_number_raises_json_s_error_before_anything_is_written(tmp_path, place, value):
    """A scenario whose numbers bypassed the constructors' checks: save_scenario raises the ValueError of
    json.dumps(scenario_to_dict(s), indent=2, allow_nan=False), word for word, and writes no file."""
    from uncplan.geometry import MultiPolygon, Polygon

    s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), scenario_seed(73, 4))
    outer = s.map.drivable_area.polygons[0].rings[0]
    hole = np.array([(1.0, -0.5), (1.0, 0.5), (2.0, 0.5), (2.0, -0.5), (1.0, -0.5)])
    s = _with(s, map=_with(s.map, drivable_area=MultiPolygon((Polygon(outer, [hole]),))))
    assert s.agents
    bad = _NON_FINITE_PLACES[place](s, value)
    with pytest.raises(ValueError) as expected:
        _dumps(scenario_to_dict(bad))
    assert str(expected.value).startswith("Out of range float values are not JSON compliant")
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        save_scenario(bad, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("knobs", [{}, {"n_candidates": 20}, {"n_element_points": 80}])
def test_suite_files_are_json_dumps_indent_2(tmp_path, knobs):
    params = GeneratorParams(**knobs)
    manifest_path = generate_suite(tmp_path, 4, 0.5, params, master_seed=73)
    manifest, paths = load_suite(manifest_path)
    assert manifest_path.read_bytes() == (_dumps(manifest) + "\n").encode("ascii")
    for i, (entry, path) in enumerate(zip(manifest["scenarios"], paths)):
        s = generate_scenario(ScenarioKind(entry["kind"]), params, scenario_seed(73, i))
        assert path.read_bytes() == (_dumps(scenario_to_dict(s)) + "\n").encode("ascii")


def _loaded_fields(tmp_path):
    s = generate_scenario(ScenarioKind.TURN, GeneratorParams(), 21)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    return loaded, {f.name: getattr(loaded, f.name) for f in fields(loaded)}


def test_loader_builds_what_the_public_constructors_build(tmp_path):
    """The loader hands its checked arrays to Scenario without a copy or a
    second check, and builds Polygon through its public constructor; the
    values equal those the public constructors build from the same fields,
    which copy and check them."""
    from uncplan.geometry import MultiPolygon, Polygon

    loaded, values = _loaded_fields(tmp_path)
    copies = {name: np.array(values[name]) for name in ("ego_poses", "agent_boxes")}  # writable, so copied again
    rebuilt = Scenario(**{**values, **copies})
    assert rebuilt == loaded
    assert rebuilt.ego_poses is not loaded.ego_poses and not rebuilt.ego_poses.flags.writeable
    area = loaded.map.drivable_area
    assert MultiPolygon(tuple(Polygon(p.rings[0], p.rings[1:]) for p in area.polygons)) == area


def _set_flat(k, value):
    """An edit that puts value at flat index k of an array."""
    return lambda a: np.where(np.arange(a.size).reshape(a.shape) == k, value, a)


@pytest.mark.parametrize("field, edit, message", [
    ("ego_poses", _set_flat(4, math.nan), "finite numbers"),
    ("ego_poses", lambda a: a[:, :2], "shape"),
    ("agent_boxes", _set_flat(7, math.nan), "finite numbers"),  # a heading
    ("agent_boxes", lambda a: a[..., :4], "shape"),
    ("agent_boxes", _set_flat(8, 0.0), "box dimensions must be positive"),  # a length
    ("agent_boxes", _set_flat(9, -1.0), "box dimensions must be positive"),  # a width
])
def test_public_scenario_constructor_still_checks_its_arrays(tmp_path, field, edit, message):
    """A read-only array like the loader's, with a NaN, the wrong shape or a
    non-positive box size, is refused by the public constructor."""
    loaded, values = _loaded_fields(tmp_path)
    bad = edit(values[field])
    bad.flags.writeable = False
    with pytest.raises(ValueError, match=message):
        Scenario(**{**values, field: bad})


@pytest.mark.parametrize("ring, message", [
    ([[0.0, 0.0], [4.0, 0.0], [math.nan, 4.0], [0.0, 0.0]], "finite numbers"),
    ([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0], [4.0, 4.0, 1.0], [0.0, 0.0, 1.0]], "shape"),
])
def test_public_polygon_constructor_still_checks_its_rings(ring, message):
    from uncplan.geometry import Polygon

    arr = np.array(ring)
    arr.flags.writeable = False
    with pytest.raises(ValueError, match=message):
        Polygon(arr)
    with pytest.raises(ValueError, match=message):
        Polygon(np.array([[0.0, 0.0], [9.0, 0.0], [9.0, 9.0], [0.0, 0.0]]), (arr,))
