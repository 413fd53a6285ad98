import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

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
from uncplan.scenario import _read, _walk
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
    for wp, pose in zip(cand.waypoints, s.ego_gt_future):
        assert wp == pose.position
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
        assert scenario_class_of([p.heading for p in s.ego_gt_future]) == "Turn"
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
                    for wp, pose in zip(cand.waypoints, s.ego_gt_future):
                        lateral = math.hypot(wp.x - pose.position.x, wp.y - pose.position.y)
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
        assert len(s.agents) == 3 and len(s.agent_gt) == 3
        for agent, gt_seq in zip(s.agents, s.agent_gt):
            assert 1 <= len(agent.modes) <= 3
            total = sum(m.confidence for m in agent.modes)
            assert total <= 1.0 + 1e-6
            top = max(agent.modes, key=lambda m: m.confidence)
            assert top is agent.modes[0]  # mode 0 is the scripted ground truth
            for pose, box in zip(agent.modes[0].trajectory, gt_seq):
                assert box.center == pose.position


def test_ego_gt_never_collides_with_scripted_agents():
    from uncplan.metrics import collision_rate_frame
    from uncplan.selection import CandidateTrajectory

    for seed in range(60):
        for kind in (ScenarioKind.TURN, ScenarioKind.STRAIGHT):
            s = generate_scenario(kind, GeneratorParams(), seed)
            gt_traj = CandidateTrajectory(
                tuple(p.position for p in s.ego_gt_future),
                tuple(p.heading for p in s.ego_gt_future),
                1.0,
            )
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
