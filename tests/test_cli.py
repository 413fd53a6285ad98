import argparse
import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

from uncplan.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    PRESETS,
    ConfigError,
    OracleMismatch,
    build_parser,
    main,
    preset_selection,
)
from uncplan.metrics import evaluate_trajectories
from uncplan.scenario import (
    GeneratorParams,
    ScenarioFormatError,
    ScenarioInvariantError,
    ScenarioKind,
    ScenarioVersionError,
    generate_scenario,
    load_scenario,
    load_scenarios,
    scenario_to_dict,
)
from uncplan.selection import SelectionConfig, ucas_select


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    code = run(["generate", "--count", 8, "--mix", "0.5", "--noise", "0.5", "--seed", 7, "--out", out])
    assert code == EXIT_OK
    return out / "manifest.json"


@pytest.fixture(scope="module")
def clean_suite(tmp_path_factory):
    """Noiseless straight-only single-candidate suite."""
    out = tmp_path_factory.mktemp("clean")
    code = run([
        "generate", "--count", 6, "--mix", "straight-only", "--noise", 0.0,
        "--candidates", 1, "--seed", 3, "--out", out,
    ])
    assert code == EXIT_OK
    return out / "manifest.json"


def read_rows(csv_path):
    rows = []
    for line in Path(csv_path).read_text().splitlines():
        if line.startswith("#") or line.startswith("stratum"):
            continue
        rows.append(line.split(","))
    return rows


def test_generate_writes_files_and_manifest(small_suite):
    manifest = json.loads(small_suite.read_text())
    assert manifest["count"] == 8
    kinds = [e["kind"] for e in manifest["scenarios"]]
    assert kinds.count("Turn") == 4
    for entry in manifest["scenarios"]:
        assert (small_suite.parent / entry["path"]).exists()


def test_generate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--count", 5, "--mix", "0.4", "--seed", 11, "--out", a]) == EXIT_OK
    assert run(["generate", "--count", 5, "--mix", "0.4", "--seed", 11, "--out", b]) == EXIT_OK
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_generate_zero_count_is_config_error(tmp_path):
    assert run(["generate", "--count", 0, "--out", tmp_path / "x"]) == EXIT_CONFIG


def test_generate_bad_mix_is_config_error(tmp_path):
    assert run(["generate", "--count", 2, "--mix", "sideways", "--out", tmp_path / "x"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "args, message",
    [
        (["--count", 0], "count must be >= 1, got 0"),
        (["--count", 2, "--mix", "1.5"], "turn_fraction must be in [0, 1], got 1.5"),
    ],
    ids=["count", "mix"],
)
def test_generate_out_of_range_count_or_mix_is_config_error_naming_the_parameter(tmp_path, capsys, args, message):
    assert run(["generate", *args, "--out", tmp_path / "x"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_empty_suite_is_invariant_error_naming_scenarios(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"version": 1, "scenarios": []}))
    assert run([command, "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: field 'scenarios': a suite needs at least one scenario\n"
    assert not (tmp_path / "x.csv").exists()


def test_generate_turn_only(tmp_path):
    out = tmp_path / "turns"
    assert run(["generate", "--count", 3, "--mix", "turn-only", "--seed", 5, "--out", out]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(e["kind"] == "Turn" for e in manifest["scenarios"])


def test_eval_clean_suite_is_all_zero(clean_suite, tmp_path):
    for convention in ("cumulative", "instantaneous"):
        out = tmp_path / f"rep_{convention}"
        code = run([
            "eval", "--suite", clean_suite, "--preset", "ucas",
            "--convention", convention, "--out", out,
        ])
        assert code == EXIT_OK
        rows = read_rows(Path(str(out) + ".csv"))
        overall = rows[0]
        assert overall[0] == "Overall"
        assert all(float(v) == 0.0 for v in overall[2:])


def test_eval_rerun_byte_identical(small_suite, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["eval", "--suite", small_suite, "--out", out1]) == EXIT_OK
    assert run(["eval", "--suite", small_suite, "--out", out2]) == EXIT_OK
    c1 = Path(str(out1) + ".csv").read_text()
    c2 = Path(str(out2) + ".csv").read_text()
    assert c1.replace(str(out1), "X") == c2.replace(str(out2), "X")
    s1 = Path(str(out1) + ".scenarios.csv").read_bytes()
    s2 = Path(str(out2) + ".scenarios.csv").read_bytes()
    assert s1 == s2


def test_eval_writes_header_with_config(small_suite, tmp_path):
    out = tmp_path / "hdr"
    assert run([
        "eval", "--suite", small_suite, "--preset", "cas",
        "--nll-threshold", 3.5, "--clearance", 0.4, "--out", out,
    ]) == EXIT_OK
    text = Path(str(out) + ".csv").read_text()
    assert "# preset: cas" in text
    assert "# nll-threshold: 3.5" in text
    assert "# clearance: 0.4" in text
    assert "# master-seed: 7" in text
    assert text.startswith("# uncplan-version:")


def test_eval_with_verify_passes(small_suite, tmp_path):
    assert run(["eval", "--suite", small_suite, "--verify", "--out", tmp_path / "v"]) == EXIT_OK


def test_eval_missing_suite_is_io_error(tmp_path):
    assert run(["eval", "--suite", tmp_path / "nope.json", "--out", tmp_path / "x"]) == EXIT_IO


def test_eval_corrupt_scenario_is_parse_error(small_suite, tmp_path):
    import shutil

    suite_dir = tmp_path / "corrupt"
    shutil.copytree(small_suite.parent, suite_dir)
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    victim = suite_dir / manifest["scenarios"][0]["path"]
    victim.write_text("{ broken json")
    assert run(["eval", "--suite", suite_dir / "manifest.json", "--out", tmp_path / "x"]) == EXIT_PARSE


def test_eval_invariant_violation_exit_code(small_suite, tmp_path):
    import shutil

    suite_dir = tmp_path / "badval"
    shutil.copytree(small_suite.parent, suite_dir)
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    victim = suite_dir / manifest["scenarios"][0]["path"]
    data = json.loads(victim.read_text())
    data["map"]["elements"][0]["points"][0]["bx"] = -1.0
    victim.write_text(json.dumps(data))
    assert run(["eval", "--suite", suite_dir / "manifest.json", "--out", tmp_path / "x"]) == EXIT_INVARIANT


def _edited_suite(small_suite, tmp_path, name, edit_text):
    import shutil

    suite_dir = tmp_path / name
    shutil.copytree(small_suite.parent, suite_dir)
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    entry = manifest["scenarios"][0]
    victim = suite_dir / entry["path"]
    victim.write_text(edit_text(victim.read_text()))
    return suite_dir / "manifest.json", entry["id"]


def test_eval_nan_dimension_is_parse_error_naming_scenario(small_suite, tmp_path, capsys):
    def nan_length(text):
        data = json.loads(text)
        data["ego"]["dims"]["length"] = "__nan__"
        return json.dumps(data).replace('"__nan__"', "NaN")

    manifest, sid = _edited_suite(small_suite, tmp_path, "nan", nan_length)
    assert run(["eval", "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"scenario {sid}:" in err and "NaN" in err


def _no_boundaries(text):
    data = json.loads(text)
    for element in data["map"]["elements"]:
        element["kind"] = "LaneDivider"
    return json.dumps(data)


def test_selection_error_names_scenario(small_suite, tmp_path, capsys):
    manifest, sid = _edited_suite(small_suite, tmp_path, "nobound", _no_boundaries)
    assert run(["eval", "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    assert f"scenario {sid}: uncertainty filter needs at least one boundary element" in capsys.readouterr().err


def test_ablate_selection_error_names_scenario(small_suite, tmp_path, capsys):
    # cas runs before ucas and reads the boundary flags first, so the boundary filter names the fault
    manifest, sid = _edited_suite(small_suite, tmp_path, "nobound", _no_boundaries)
    assert run(["ablate", "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    assert f"scenario {sid}: boundary filter needs at least one boundary element" in capsys.readouterr().err


def _square(lo, hi, cw=False):
    ring = [[lo, lo], [hi, lo], [hi, hi], [lo, hi], [lo, lo]]
    return ring[::-1] if cw else ring


@pytest.mark.parametrize(
    "holes, message",
    [
        ([_square(1002, 1008, cw=True), _square(1004, 1006, cw=True)], "holes 0 and 1 are not disjoint"),
        ([_square(1002, 1005, cw=True), _square(1004, 1007, cw=True)], "holes 0 and 1 are not disjoint"),
        ([_square(1012, 1014, cw=True)], "hole 0 is not strictly inside the outer ring"),
        ([_square(1000, 1003, cw=True)], "hole 0 is not strictly inside the outer ring"),
    ],
    ids=["nested", "overlapping", "outside", "touching"],
)
def test_bad_hole_layout_is_invariant_error_naming_the_polygon(small_suite, tmp_path, capsys, holes, message):
    def second_polygon(text):
        data = json.loads(text)
        data["map"]["drivable_area"].append({"outer": _square(1000, 1010), "holes": holes})
        return json.dumps(data)

    manifest, sid = _edited_suite(small_suite, tmp_path, "holes", second_polygon)
    assert run(["eval", "--suite", manifest, "--verify", "--out", tmp_path / "x"]) == EXIT_INVARIANT
    assert f"scenario {sid}: field 'map.drivable_area[1]': {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval"], ["eval", "--verify"], ["ablate"]], ids=["eval", "verify", "ablate"])
def test_ring_too_large_to_measure_is_invariant_error_naming_the_polygon(small_suite, tmp_path, capsys, command):
    """The outer ring scaled by 1e200: the shoelace products overflow, which is refused as coordinates too
    large, not read as an inf or nan area that fails the orientation test."""
    def scaled_ring(text):
        data = json.loads(text)
        area = data["map"]["drivable_area"][0]
        area["outer"] = [[x * 1e200, y * 1e200] for x, y in area["outer"]]
        return json.dumps(data)

    manifest, sid = _edited_suite(small_suite, tmp_path, "scaled", scaled_ring)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*command, "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    message = "outer ring coordinates are too large: its area is not a finite number"
    assert f"scenario {sid}: field 'map.drivable_area[0]': {message}" in capsys.readouterr().err


def test_verify_accepts_footprint_corners_on_a_hole_edge(tmp_path, capsys):
    """The chosen trajectory drives just below a hole, with the footprint's
    left corners on the hole's bottom edge and on its corner vertex."""
    s = generate_scenario(ScenarioKind.STRAIGHT, GeneratorParams(noise_scale=0.0, n_candidates=1, n_agents=0), 4)
    data = scenario_to_dict(s)
    data["ego"]["dims"] = {"length": 4.0, "width": 2.0}
    data["map"]["drivable_area"] = [{"outer": [[-4, -9], [40, -9], [40, 9], [-4, 9], [-4, -9]],
                                     "holes": [[[4, -5], [4, 5], [16, 5], [16, -5], [4, -5]]]}]
    data["candidates"]["GoStraight"][0].update(waypoints=[[4.0 + 2 * t, -6.0] for t in range(1, 7)], headings=[0.0] * 6)
    (tmp_path / "s.json").write_text(json.dumps(data))
    entry = {"id": s.scenario_id, "path": "s.json"}
    (tmp_path / "manifest.json").write_text(json.dumps({"version": 1, "scenarios": [entry]}))
    args = ["eval", "--suite", tmp_path / "manifest.json", "--preset", "baseline", "--verify", "--out", tmp_path / "r"]
    assert run(args) == EXIT_OK, capsys.readouterr().err
    assert read_rows(str(tmp_path / "r") + ".csv")[0][-1] == "0.0"  # no DACR: the hole edge is drivable


@pytest.mark.parametrize(
    "literal, code, message",
    [("1" + "0" * 400, EXIT_INVARIANT, "field 'ego.dims.length': must be finite, got inf"),
     ("1" * 5000, EXIT_PARSE, "invalid JSON: ")],
    ids=["overflows-a-float", "beyond-the-digit-limit"],
)
def test_huge_integer_literal_exit_code(small_suite, tmp_path, capsys, literal, code, message):
    def huge_length(text):
        data = json.loads(text)
        data["ego"]["dims"]["length"] = "__big__"
        return json.dumps(data).replace('"__big__"', literal)

    manifest, sid = _edited_suite(small_suite, tmp_path, "big", huge_length)
    assert run(["eval", "--suite", manifest, "--out", tmp_path / "x"]) == code
    err = capsys.readouterr().err
    assert f"scenario {sid}: " in err and message in err


@pytest.mark.parametrize("command", [["eval", "--preset", p] for p in PRESETS] + [["ablate"]], ids=[*PRESETS, "ablate"])
def test_coincident_boundary_vertices_are_invariant_error_naming_the_field(small_suite, tmp_path, capsys, command):
    boundary = []

    def doubled_vertex(text):
        data = json.loads(text)
        elements = data["map"]["elements"]
        boundary.append(next(i for i, e in enumerate(elements) if e["kind"] == "Boundary"))
        points = elements[boundary[0]]["points"]
        points[3] = dict(points[2])
        return json.dumps(data)

    manifest, sid = _edited_suite(small_suite, tmp_path, "doubled", doubled_vertex)
    assert run([*command, "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    expected = f"scenario {sid}: field 'map.elements[{boundary[0]}].points': polyline vertices 2 and 3 are coincident"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--clearance", "nan"), ("--nll-threshold", "inf")])
def test_non_finite_threshold_is_config_error(small_suite, tmp_path, capsys, flag, value):
    assert run(["eval", "--suite", small_suite, flag, value, "--out", tmp_path / "x"]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_noise_is_config_error(tmp_path, capsys, value):
    assert run(["generate", "--count", 2, "--noise", value, "--out", tmp_path / "x"]) == EXIT_CONFIG
    assert f"noise_scale must be finite and >= 0, got {value}" in capsys.readouterr().err


def test_noise_above_the_knob_limit_is_config_error(tmp_path, capsys):
    """A finite --noise above KNOB_LIMIT is refused before any scenario is generated, naming noise_scale."""
    assert run(["generate", "--count", 2, "--noise", "2e6", "--out", tmp_path / "d"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: noise_scale must be at most 1e+06, got 2000000.0\n"
    assert not (tmp_path / "d").exists()


def test_eval_bad_preset_is_argparse_exit_2(small_suite, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["eval", "--suite", small_suite, "--preset", "bogus", "--out", tmp_path / "x"])
    assert err.value.code == 2


def test_unknown_preset_is_config_error():
    with pytest.raises(ConfigError):
        preset_selection("bogus", SelectionConfig())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda e: e.pop("id"), "missing field 'scenarios[1].id'"),
        (lambda e: e.update(id=7), "field 'scenarios[1].id' must be str"),
        (lambda e: e.update(id=None), "field 'scenarios[1].id' must be str"),
        (lambda e: e.update(id=True), "field 'scenarios[1].id' must be str"),
    ],
    ids=["missing", "int", "null", "bool"],
)
def test_eval_manifest_entry_without_string_id_is_parse_error(small_suite, tmp_path, capsys, edit, message):
    import shutil

    suite_dir = tmp_path / "noid"
    shutil.copytree(small_suite.parent, suite_dir)
    manifest_path = suite_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["scenarios"][1])
    manifest_path.write_text(json.dumps(manifest))
    assert run(["eval", "--suite", manifest_path, "--out", tmp_path / "x"]) == EXIT_PARSE
    assert message in capsys.readouterr().err


def _repeat_entry(suite_dir, entries):
    entries.append(dict(entries[2]))
    return 8, "id", 2


def _repeat_id(suite_dir, entries):
    (suite_dir / "copy.json").write_text((suite_dir / entries[2]["path"]).read_text())
    entries.append({"id": entries[2]["id"], "path": "copy.json"})
    return 8, "id", 2


def _repeat_path(suite_dir, entries):
    entries[5]["path"] = f"../{suite_dir.name}/{entries[2]['path']}"  # the same file by another spelling
    return 5, "path", 2


@pytest.mark.parametrize("command", ["eval", "ablate"])
@pytest.mark.parametrize("edit", [_repeat_entry, _repeat_id, _repeat_path], ids=["entry", "id", "path"])
def test_manifest_repeating_an_id_or_path_is_invariant_error(small_suite, tmp_path, capsys, command, edit):
    import shutil

    suite_dir = tmp_path / "repeat"
    shutil.copytree(small_suite.parent, suite_dir)
    manifest_path = suite_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entries = manifest["scenarios"]
    i, what, j = edit(suite_dir, entries)
    manifest_path.write_text(json.dumps(manifest))
    assert run([command, "--suite", manifest_path, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    expected = f"field 'scenarios[{i}].id': {entries[i]['id']!r} repeats the {what} of scenarios[{j}] ({entries[j]['id']!r})"
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_manifest_id_other_than_the_files_is_invariant_error(small_suite, tmp_path, capsys, command):
    import shutil

    suite_dir = tmp_path / "renamed"
    shutil.copytree(small_suite.parent, suite_dir)
    manifest_path = suite_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    file_id = manifest["scenarios"][3]["id"]
    manifest["scenarios"][3]["id"] = "renamed"
    manifest_path.write_text(json.dumps(manifest))
    assert run([command, "--suite", manifest_path, "--out", tmp_path / "x"]) == EXIT_INVARIANT
    expected = f"scenario renamed: field 'scenarios[3].id': 'renamed' is not the file's id {file_id!r}"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("target", ["manifest", "scenario"])
def test_eval_version_must_be_the_integer_1(small_suite, tmp_path, capsys, target, version):
    # True == 1.0 == 1 in Python, so an equality test alone lets both through
    import shutil

    suite_dir = tmp_path / "version"
    shutil.copytree(small_suite.parent, suite_dir)
    manifest_path = suite_dir / "manifest.json"
    path = manifest_path
    if target == "scenario":
        path = suite_dir / json.loads(manifest_path.read_text())["scenarios"][0]["path"]
    data = json.loads(path.read_text())
    data["version"] = version
    path.write_text(json.dumps(data))
    assert run(["eval", "--suite", manifest_path, "--out", tmp_path / "x"]) == EXIT_PARSE
    assert f"unsupported schema version {version!r}, expected 1" in capsys.readouterr().err


def test_oracle_mismatch_exit_code(small_suite, tmp_path, monkeypatch):
    import uncplan.cli as cli_mod

    def wrong_oracle(candidate_set, command, cfg, risks, agent_flags, boundary_flags):
        return -1

    monkeypatch.setattr(cli_mod, "oracle_select", wrong_oracle)
    assert run(["eval", "--suite", small_suite, "--verify", "--out", tmp_path / "x"]) == EXIT_ORACLE


def test_verify_computes_production_dacr_flags_once_per_scored_trajectory(small_suite, tmp_path, monkeypatch):
    import uncplan.metrics as metrics_mod

    calls = []
    areas_contain = metrics_mod.areas_contain

    def counting_contains(points, *rest):  # production DACR's containment, one call per chunk of scenarios
        calls.append(len(points))
        return areas_contain(points, *rest)

    monkeypatch.setattr(metrics_mod, "areas_contain", counting_contains)
    assert run(["eval", "--suite", small_suite, "--verify", "--out", tmp_path / "x"]) == EXIT_OK
    # one chunk of 8 scenarios, one preset: one scored trajectory of 6 steps x 4 corners per scenario
    assert calls == [8 * 24]


def test_verify_catches_one_flipped_production_dacr_step(small_suite, tmp_path, monkeypatch, capsys):
    import uncplan.metrics as metrics_mod

    conflict_rows = metrics_mod._conflict_rows

    def flipped_flags(*args):
        flags = conflict_rows(*args)
        flags[:, 3] = ~flags[:, 3]
        return flags

    monkeypatch.setattr(metrics_mod, "_conflict_rows", flipped_flags)
    assert run(["eval", "--suite", small_suite, "--out", tmp_path / "plain"]) == EXIT_OK
    assert run(["eval", "--suite", small_suite, "--verify", "--out", tmp_path / "x"]) == EXIT_ORACLE
    err = capsys.readouterr().err
    assert err.startswith("oracle mismatch: scenario ")
    assert "drivable-area conflict flags" in err and "disagree with oracle" in err


def test_ablate_five_rows_ordered(small_suite, tmp_path):
    out = tmp_path / "abl"
    assert run(["ablate", "--suite", small_suite, "--out", out]) == EXIT_OK
    lines = [
        l for l in Path(str(out) + ".csv").read_text().splitlines()
        if not l.startswith("#") and not l.startswith("preset")
    ]
    assert [l.split(",")[0] for l in lines] == list(PRESETS)


@pytest.mark.parametrize("command, others", [
    (["eval"], ".scenarios.csv, .txt"),
    (["eval", "--verify"], ".scenarios.csv, .txt"),
    (["ablate"], ".txt"),
], ids=["eval", "verify", "ablate"])
def test_stdout_is_the_table_then_the_report_paths(small_suite, tmp_path, capsys, command, others):
    """The .txt report, then the .csv path (its prefix normalized as a Path) and the other suffixes; nothing on stderr."""
    capsys.readouterr()
    assert run([*command, "--suite", small_suite, "--out", f"{tmp_path}/new/./r"]) == EXIT_OK
    captured = capsys.readouterr()
    table = (tmp_path / "new" / "r.txt").read_text()
    title = f"ablation on {small_suite} (convention=cumulative)" if command == ["ablate"] else \
        f"preset=ucas convention=cumulative suite={small_suite}"
    assert table.startswith(title + "\n")
    assert captured.out == f"{table}reports written to {tmp_path / 'new' / 'r'}.csv (+ {others})\n"
    assert captured.err == ""


@pytest.mark.parametrize("command", ["eval", "ablate"])
@pytest.mark.parametrize("error, prefix, code", [
    (ConfigError("bad knob"), "config error", EXIT_CONFIG),
    (OracleMismatch("scenario s: disagree"), "oracle mismatch", EXIT_ORACLE),
    (ScenarioInvariantError("bad value"), "invariant violation", EXIT_INVARIANT),
    (ScenarioFormatError("bad field"), "parse error", EXIT_PARSE),
    (ScenarioVersionError("bad version"), "parse error", EXIT_PARSE),
    (ValueError("plain"), "invariant violation", EXIT_INVARIANT),
    (FileNotFoundError("missing"), "i/o error", EXIT_IO),
    (RuntimeError("unmapped"), None, None),
], ids=["config", "oracle", "invariant", "format", "version", "value", "os", "unmapped"])
def test_each_error_class_has_its_stderr_prefix_and_exit_code(small_suite, tmp_path, capsys, monkeypatch, command,
                                                             error, prefix, code):
    """The first matching class decides: a ScenarioVersionError is a parse error and a plain ValueError an invariant
    violation; an error of no listed class propagates."""
    import uncplan.cli as cli_mod

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "evaluate_suite", fail)
    argv = [command, "--suite", small_suite, "--out", tmp_path / "x"]
    if code is None:
        with pytest.raises(RuntimeError, match="^unmapped$"):
            run(argv)
        return
    assert run(argv) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


_SHARED_OPTIONS = ("suite", "nll_threshold", "clearance", "convention", "out")


def _shared_options(command):
    """(flags, type, default, choices, required, help) of each shared option of a subcommand."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    return {a.dest: (a.option_strings, a.type, a.default, a.choices, a.required, a.help)
            for a in actions if a.dest in _SHARED_OPTIONS}


def test_eval_and_ablate_parse_their_shared_options_alike():
    assert _shared_options("eval") == _shared_options("ablate")
    assert list(_shared_options("eval")) == list(_SHARED_OPTIONS)
    defaults = {"suite": "s.json", "nll_threshold": 2.0, "clearance": 0.3, "convention": "cumulative", "out": "o"}
    given = {"suite": "s.json", "nll_threshold": 2.5, "clearance": 0.45, "convention": "instantaneous", "out": "o"}
    tuned = ["--nll-threshold", "2.5", "--clearance", "0.45", "--convention", "instantaneous"]
    for extra, expected in (([], defaults), (tuned, given)):
        for command in ("eval", "ablate"):
            args = vars(build_parser().parse_args([command, "--suite", "s.json", "--out", "o", *extra]))
            parsed = {name: args[name] for name in _SHARED_OPTIONS}
            assert parsed == expected
            assert all(type(parsed[name]) is float for name in ("nll_threshold", "clearance"))


def test_ablate_loads_each_scenario_once(small_suite, tmp_path, monkeypatch):
    import uncplan.cli as cli_mod

    loaded, chunks = [], []

    def counting_load(paths):
        chunks.append(len(paths))
        loaded.extend(Path(path).name for path in paths)
        return load_scenarios(paths)

    monkeypatch.setattr(cli_mod, "load_scenarios", counting_load)
    assert run(["ablate", "--suite", small_suite, "--out", tmp_path / "abl"]) == EXIT_OK
    names = [entry["path"] for entry in json.loads(small_suite.read_text())["scenarios"]]
    assert sorted(loaded) == sorted(names)
    assert len(loaded) == len(names) == 8
    assert chunks == [8]  # one chunk, read as one


def test_ablate_runs_each_filter_once_and_scores_each_distinct_choice_once(small_suite, tmp_path, monkeypatch):
    import uncplan.cli as cli_mod
    import uncplan.selection as selection_mod

    calls = Counter()

    def counting(name, kernel):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        return counted

    for name in ("_risks", "_agent_flags", "_clearance_flags"):
        monkeypatch.setattr(selection_mod, name, counting(name, getattr(selection_mod, name)))
    scored, batches = [], []

    def counting_evaluate(items, convention):
        batches.append(len(items))
        scored.extend((scenario_id, traj.xy.tobytes()) for traj, _, _, scenario_id, _ in items)
        return evaluate_trajectories(items, convention)

    monkeypatch.setattr(cli_mod, "evaluate_trajectories", counting_evaluate)
    assert run(["ablate", "--suite", small_suite, "--out", tmp_path / "abl"]) == EXIT_OK
    n = 8
    # ucas reads every filter: risk per scenario, the box and clearance kernels once for the chunk of 8
    assert calls == {"_risks": n, "_agent_flags": 1, "_clearance_flags": 1}
    assert batches == [len(scored)]  # the chunk's distinct choices, scored in one call

    # each preset selected on its own: the chosen indices per scenario
    runs = [preset_selection(preset, SelectionConfig()) for preset in PRESETS]
    distinct = 0
    for entry in json.loads(small_suite.read_text())["scenarios"]:
        s = load_scenario(small_suite.parent / entry["path"])
        distinct += len({
            ucas_select(s.candidates.head(limit), s.command, s.map, s.agents, s.ego_dims, cfg).chosen_index
            for cfg, limit in runs
        })
    assert len(scored) == len(set(scored)) == distinct < len(PRESETS) * n


@pytest.fixture(scope="module")
def noisy_wide_suite(tmp_path_factory):
    """Noisy 20-candidate suite on which the presets choose differently."""
    out = tmp_path_factory.mktemp("wide")
    code = run([
        "generate", "--count", 12, "--mix", "0.5", "--noise", 1.0,
        "--candidates", 20, "--seed", 29, "--out", out,
    ])
    assert code == EXIT_OK
    return out / "manifest.json"


@pytest.mark.parametrize("settings", [[], ["--clearance", 0.45, "--nll-threshold", 2.5]], ids=["default", "tuned"])
@pytest.mark.parametrize("convention", ["cumulative", "instantaneous"])
def test_ablate_rows_are_the_overall_rows_of_eval(noisy_wide_suite, tmp_path, convention, settings):
    common = ["--suite", noisy_wide_suite, "--convention", convention, *settings]
    assert run(["ablate", *common, "--out", tmp_path / "abl"]) == EXIT_OK
    ablate_rows = {
        l.split(",")[0]: l.split(",")[1:] for l in Path(str(tmp_path / "abl") + ".csv").read_text().splitlines()
        if not l.startswith("#") and not l.startswith("preset")
    }
    assert list(ablate_rows) == list(PRESETS)
    for preset in PRESETS:
        assert run(["eval", *common, "--preset", preset, "--out", tmp_path / preset]) == EXIT_OK
        [overall] = [r for r in read_rows(str(tmp_path / preset) + ".csv") if r[0] == "Overall"]
        assert [overall[1], overall[9], overall[13]] == ablate_rows[preset]  # n, cr_avg, dacr_avg, as repr
    assert len({tuple(row) for row in ablate_rows.values()}) >= 3


def test_ablate_noiseless_rows_identical(clean_suite, tmp_path):
    # with no noise, no filter ever fires: every preset must coincide exactly
    out = tmp_path / "abl0"
    assert run(["ablate", "--suite", clean_suite, "--out", out]) == EXIT_OK
    lines = [
        l for l in Path(str(out) + ".csv").read_text().splitlines()
        if not l.startswith("#") and not l.startswith("preset")
    ]
    values = {tuple(l.split(",")[1:]) for l in lines}
    assert len(values) == 1


def test_ablate_noiseless_multicandidate_rows_identical(tmp_path):
    out_dir = tmp_path / "clean5"
    assert run([
        "generate", "--count", 6, "--mix", "0.5", "--noise", 0.0,
        "--candidates", 5, "--seed", 9, "--out", out_dir,
    ]) == EXIT_OK
    out = tmp_path / "abl5"
    assert run(["ablate", "--suite", out_dir / "manifest.json", "--out", out]) == EXIT_OK
    lines = [
        l for l in Path(str(out) + ".csv").read_text().splitlines()
        if not l.startswith("#") and not l.startswith("preset")
    ]
    values = {tuple(l.split(",")[1:]) for l in lines}
    assert len(values) == 1


# -- chunks of scenarios ----------------------------------------------------------


@pytest.fixture(scope="module")
def long_suite(tmp_path_factory):
    """40 scenarios: more than one chunk."""
    out = tmp_path_factory.mktemp("long")
    assert run(["generate", "--count", 40, "--mix", "0.65", "--seed", 73, "--out", out]) == EXIT_OK
    return out / "manifest.json"


def _reports(prefix, suffixes):
    return [Path(str(prefix) + suffix).read_bytes() for suffix in suffixes]


def test_reports_do_not_depend_on_the_chunk_size(long_suite, tmp_path, monkeypatch):
    """eval under every preset, eval --verify and ablate write the same bytes
    whether the 40 scenarios run one at a time, 7 at a time or in chunks of CHUNK_SIZE."""
    import uncplan.cli as cli_mod

    commands = [["eval", "--preset", preset] for preset in PRESETS] + [["eval", "--verify"], ["ablate"]]
    outputs = {}
    for size in (cli_mod.CHUNK_SIZE, 1, 7):
        monkeypatch.setattr(cli_mod, "CHUNK_SIZE", size)
        for n, command in enumerate(commands):
            prefix = tmp_path / f"{size}-{n}"
            assert run([*command, "--suite", long_suite, "--out", prefix]) == EXIT_OK
            suffixes = (".csv", ".txt") if command == ["ablate"] else (".csv", ".scenarios.csv", ".txt")
            outputs.setdefault(n, []).append(_reports(prefix, suffixes))
    assert cli_mod.CHUNK_SIZE < 40
    for n, runs in outputs.items():
        assert runs[1:] == runs[:1] * 2, commands[n]


def _broken_json(text):
    return "{ broken json"


def _suite_with_faults(suite, tmp_path, name, edits):
    """A copy of suite with edits[r] applied to the file of the scenario of the r-th lowest id; returns
    the manifest path and the ids in order."""
    import shutil

    suite_dir = tmp_path / name
    shutil.copytree(suite.parent, suite_dir)
    entries = sorted(json.loads((suite_dir / "manifest.json").read_text())["scenarios"], key=lambda e: e["id"])
    for entry, edit in zip(entries, edits):
        if edit is not None:
            victim = suite_dir / entry["path"]
            victim.write_text(edit(victim.read_text()))
    return suite_dir / "manifest.json", [e["id"] for e in entries]


def _nested_too_deep(text):
    return "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", [["eval"], ["eval", "--verify"], ["ablate"]], ids=["eval", "verify", "ablate"])
@pytest.mark.parametrize("faults", [(_no_boundaries, _broken_json), (_broken_json, _no_boundaries),
                                    (_no_boundaries, _nested_too_deep), (_nested_too_deep,)],
                         ids=["selection-first", "load-first", "selection-then-recursion", "recursion-only"])
def test_lowest_failing_id_and_its_first_fault_decide_the_error(small_suite, tmp_path, capsys, command, faults):
    """A scenario with no Boundary element and a malformed one in the same
    chunk, after a clean one, in either order, or the first before one whose
    JSON nests too deep for the decoder's recursion limit: the
    lower id names the error and picks the exit code, and for it the first
    fault met (the uncertainty filter under ucas, the boundary filter under
    ablate, where cas reads it first). Alone, JSON nested too deep is a parse
    error too."""
    manifest, ids = _suite_with_faults(small_suite, tmp_path, "faults", [None, *faults])
    code = run([*command, "--suite", manifest, "--out", tmp_path / "x"])
    err = capsys.readouterr().err
    if faults[0] is _no_boundaries:
        kind = "boundary" if command == ["ablate"] else "uncertainty"
        assert code == EXIT_INVARIANT
        assert err == f"invariant violation: scenario {ids[1]}: {kind} filter needs at least one boundary element\n"
    else:
        assert code == EXIT_PARSE
        assert err.startswith(f"parse error: scenario {ids[1]}: ") and "invalid JSON" in err


def test_manifest_nested_too_deep_is_parse_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(_nested_too_deep(""))
    assert run(["eval", "--suite", manifest, "--out", tmp_path / "x"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: {manifest}: invalid JSON: ")


@pytest.mark.parametrize("mismatch_first", [True, False], ids=["mismatch-first", "load-first"])
def test_an_oracle_mismatch_before_a_load_fault_decides_the_error(small_suite, tmp_path, capsys, monkeypatch,
                                                                   mismatch_first):
    """Production containment flips the first point of every call, a corner of
    the chosen trajectory of the lowest id it sees, so --verify finds a DACR
    flag that disagrees with the oracle; a malformed scenario comes after it, or
    before it, in the same chunk."""
    import uncplan.geometry as geometry

    ring_hits = geometry._ring_hits

    def flipped(points, *rest):
        hits = ring_hits(points, *rest)
        hits[0] = not hits[0]
        return hits

    faults = [None, _broken_json] if mismatch_first else [_broken_json, None]
    manifest, ids = _suite_with_faults(small_suite, tmp_path, "mismatch", faults)
    monkeypatch.setattr(geometry, "_ring_hits", flipped)
    code = run(["eval", "--verify", "--suite", manifest, "--out", tmp_path / "x"])
    err = capsys.readouterr().err
    if mismatch_first:
        assert code == EXIT_ORACLE
        assert err.startswith(f"oracle mismatch: scenario {ids[0]}: drivable-area conflict flags ")
    else:
        assert code == EXIT_PARSE
        assert err.startswith(f"parse error: scenario {ids[0]}: ")
