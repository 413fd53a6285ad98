import contextlib
import copy
import io
import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from uncplan.metrics import dacr_frame, scenario_class_of
from uncplan.scenario import (
    GeneratorParams,
    Scenario,
    ScenarioFormatError,
    ScenarioInvariantError,
    ScenarioKind,
    ScenarioVersionError,
    generate_scenario,
    generate_suite,
    load_scenario,
    load_suite,
    save_scenario,
    scenario_from_dict,
    scenario_seed,
    scenario_to_dict,
    splitmix64,
)
from uncplan.scenario import _json_text, _read, _walk
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


def _outcome(read, data):
    try:
        return read(data)
    except (ScenarioFormatError, ScenarioInvariantError) as e:
        return type(e), str(e)


def test_array_read_decides_every_single_fault_as_the_walk():
    """Every value of a small scenario deleted or replaced by each fault: the
    loader raises the walk's error class and message, or both accept with
    equal values."""
    base = scenario_to_dict(
        generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(n_agents=1, n_candidates=1, n_element_points=2), 5)
    )
    cases = accepted = 0
    for path in _value_paths(base):
        for fault in _FAULTS:
            data = _faulted(base, path, fault)
            if path == ("version",):
                continue  # read before either reader runs
            loaded, walked = _outcome(scenario_from_dict, data), _outcome(_walk, data)
            assert loaded == walked, (path, fault)
            cases += 1
            accepted += isinstance(loaded, Scenario)
    assert cases > 1500 and 0 < accepted < cases / 4


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
    """On scenarios shaped like the benchmark's workloads, the array read
    accepts every file, and its arrays match those the public constructors
    build from Point2 and Pose2 tuples (the item walk) bit for bit."""
    for seed in range(6):
        kind = ScenarioKind.TURN if seed % 3 else ScenarioKind.STRAIGHT
        data = json.loads(json.dumps(scenario_to_dict(generate_scenario(kind, params, seed))))
        fast, walked = _arrays(_read(data)), _arrays(_walk(data))
        assert fast.keys() == walked.keys()
        for name, array in fast.items():
            assert array.dtype == walked[name].dtype and array.shape == walked[name].shape, name
            assert array.tobytes() == walked[name].tobytes(), name
            assert not array.flags.writeable, name


def test_uneven_layouts_ints_and_headings_read_as_the_walk_reads_them():
    data = scenario_to_dict(generate_scenario(ScenarioKind.TURN, GeneratorParams(n_agents=2), 3))
    data["ego_gt_future"][0]["x"] = 2**53 + 1  # rounds to a float
    data["agents"][0]["modes"][0]["trajectory"][1]["heading"] = 7.0  # normalized into (-pi, pi]
    data["candidates"]["TurnLeft"][0]["waypoints"][2] = [3, -(2**60 + 3)]
    data["map"]["elements"][0]["points"][0]["mx"] = 12
    # commands with different candidate counts, elements of different lengths, holes and a second polygon
    del data["candidates"]["GoStraight"][1:3]
    del data["map"]["elements"][1]["points"][5:9]
    data["map"]["drivable_area"].append({"outer": [[500, 500], [540, 500], [540, 540], [500, 540], [500, 500]],
                                         "holes": [[[510, 510], [510, 520], [520, 520], [520, 510], [510, 510]],
                                                   [[525, 525], [525, 530], [530, 530], [530, 525], [525, 525]]]})
    fast, walked = _arrays(_read(data)), _arrays(_walk(data))
    assert fast.keys() == walked.keys()
    assert all(fast[name].tobytes() == walked[name].tobytes() for name in fast)
    assert fast["agent0.mode0"][1, 2] == 7.0 - math.tau
    assert [len(b[0]) for b in _read(data).candidates.batches.values()] == [5, 5, 3]


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


def _dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


_numbers = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_keys = st.text(st.sampled_from('an%"\\\n\té☃\x00\U0001f600'), max_size=4)


def _containers(children):
    # the writer's fast paths: equal-shape number rows, sometimes followed by an item of another shape
    list_rows = st.integers(0, 3).flatmap(lambda m: st.lists(st.lists(_numbers, min_size=m, max_size=m), max_size=4))
    dict_rows = st.lists(_keys, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: _numbers for k in keys}), max_size=4)
    )
    rows = st.one_of(list_rows, dict_rows, st.lists(_numbers, max_size=5))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        rows,
        st.tuples(rows, children).map(lambda pair: [*pair[0], pair[1]]),
    )


_trees = st.recursive(st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6)), _containers, max_leaves=30)


@given(_trees)
@settings(max_examples=400, deadline=None)
def test_json_text_is_json_dumps_indent_2(tree):
    assert _json_text(tree) == _dumps(tree)


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
        {"é☃\n\t\"\\/": "ünï\x00\x1f \U0001f600"}, ["\ud800", "/", ""],
        [{"%r%%": 1.5, 'n"': 2}, {"%r%%": -0.0, 'n"': 3}], {"%s": [1.0], "nnn": {"n": 1}},
        [{"%": 1.0, "%d": 2}], [{"\n": 1.0}, {"\n": 2.0}],
    ],
)
def test_json_text_edge_cases(tree):
    assert _json_text(tree) == _dumps(tree)


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
        _json_text(place(value))


@pytest.mark.parametrize("knobs", [{}, {"n_candidates": 20}, {"n_element_points": 80}])
def test_suite_files_are_json_dumps_indent_2(tmp_path, knobs):
    params = GeneratorParams(**knobs)
    manifest_path = generate_suite(tmp_path, 4, 0.5, params, master_seed=73)
    manifest, paths = load_suite(manifest_path)
    assert manifest_path.read_bytes() == (_dumps(manifest) + "\n").encode("ascii")
    for i, (entry, path) in enumerate(zip(manifest["scenarios"], paths)):
        s = generate_scenario(ScenarioKind(entry["kind"]), params, scenario_seed(73, i))
        assert path.read_bytes() == (_dumps(scenario_to_dict(s)) + "\n").encode("ascii")
