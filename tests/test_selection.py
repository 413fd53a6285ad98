import dataclasses
import itertools
import math

import numpy as np
import pytest

from uncplan.cli import PRESETS, preset_selection
from uncplan.geometry import MultiPolygon, Point2, Polygon, Pose2, box_corners
from uncplan.metrics import evaluate_trajectories, evaluate_trajectory
from uncplan.map_model import MapElement, MapElementKind, UncertainMap
from uncplan.scenario import AgentMode, AgentPrediction, GeneratorParams, ScenarioKind, generate_scenario
from uncplan.selection import (
    T_F,
    CandidateSet,
    CandidateTrajectory,
    Command,
    FilterValues,
    SelectionConfig,
    agent_collision_check,
    boundary_collision_check,
    command_filter,
    trajectory_risk,
    ucas_select,
)
from uncplan.uncertainty import LaplacePoint, UncertainPolyline

EGO_DIMS = (4.0, 2.0)


def wide_da():
    ring = (
        Point2(-20, -50), Point2(60, -50), Point2(60, 50), Point2(-20, 50), Point2(-20, -50),
    )
    return MultiPolygon((Polygon(ring),))


def straight_candidate(y_offset=0.0, confidence=0.5, speed=4.0):
    wps = tuple(Point2(speed * 0.5 * (t + 1), y_offset) for t in range(T_F))
    return CandidateTrajectory(wps, (0.0,) * T_F, confidence)


def uniform_set(confidences, offsets=None):
    offsets = offsets or [0.4 * i for i in range(len(confidences))]
    cands = tuple(straight_candidate(o, c) for o, c in zip(offsets, confidences))
    return CandidateSet(turn_left=cands, turn_right=cands, go_straight=cands)


def boundary_at(y, b=0.5, x0=-2.0, x1=30.0, n=17):
    pts = tuple(
        LaplacePoint(Point2(x0 + (x1 - x0) * k / (n - 1), y), (b, b)) for k in range(n)
    )
    return UncertainPolyline(pts)


def map_with_boundaries(ys, b=0.5):
    elements = tuple(MapElement(boundary_at(y, b), MapElementKind.BOUNDARY) for y in ys)
    return UncertainMap(elements, wide_da())


def stationary_agent(x, y, heading=0.0, dims=(4.0, 1.8), confidence=0.8, agent_id="agent-0"):
    poses = tuple(Pose2(Point2(x, y), heading) for _ in range(T_F))
    return AgentPrediction(agent_id, dims, (AgentMode(poses, confidence),))


# -- candidate types ----------------------------------------------------------


def test_candidate_trajectory_validation():
    with pytest.raises(ValueError):
        straight_candidate(confidence=1.5)
    with pytest.raises(ValueError):
        CandidateTrajectory((Point2(0, 0),) * 3, (0.0,) * 3, 0.5)


def test_candidate_set_requires_all_commands_nonempty():
    c = (straight_candidate(),)
    with pytest.raises(ValueError):
        CandidateSet(turn_left=(), turn_right=c, go_straight=c)


def test_command_filter():
    s = uniform_set([0.5, 0.3, 0.2])
    assert len(command_filter(s, Command.GO_STRAIGHT)) == 3
    assert command_filter(s, "TurnLeft") == list(s.turn_left)
    single = uniform_set([1.0])
    assert len(command_filter(single, Command.TURN_RIGHT)) == 1
    with pytest.raises(ValueError):
        command_filter(s, "Reverse")


# -- risk ----------------------------------------------------------------------


def test_trajectory_risk_zero_on_boundary_vertex():
    traj = straight_candidate(0.0)
    hit = UncertainPolyline((LaplacePoint(traj.waypoints[2], (0.5, 0.5)),))
    assert trajectory_risk(traj, [hit], "min") == pytest.approx(0.0, abs=1e-15)


def test_trajectory_risk_far_boundaries_above_threshold():
    traj = straight_candidate(0.0)
    far = [boundary_at(80.0, b=1.0), boundary_at(-95.0, b=0.6)]
    assert trajectory_risk(traj, far, "min") > 2.0


def test_trajectory_risk_matches_double_loop():
    rng = np.random.Generator(np.random.PCG64(7))
    from uncplan.uncertainty import laplace_point_nll

    for _ in range(50):
        traj = straight_candidate(float(rng.uniform(-3, 3)), 0.5)
        bounds = [boundary_at(float(rng.uniform(-6, 6)), b=float(rng.uniform(0.1, 2))) for _ in range(2)]
        brute = min(
            laplace_point_nll(wp, q) for wp in traj.waypoints for el in bounds for q in el.points
        )
        assert trajectory_risk(traj, bounds, "min") == pytest.approx(brute, abs=1e-12)
        brute_mean = sum(
            min(laplace_point_nll(wp, q) for el in bounds for q in el.points)
            for wp in traj.waypoints
        ) / T_F
        assert trajectory_risk(traj, bounds, "mean") == pytest.approx(brute_mean, abs=1e-12)


def test_trajectory_risk_monotone_in_boundary_points():
    traj = straight_candidate(0.5)
    base = [boundary_at(4.0)]
    more = [boundary_at(4.0), boundary_at(2.0)]
    assert trajectory_risk(traj, more, "min") <= trajectory_risk(traj, base, "min")
    with pytest.raises(ValueError):
        trajectory_risk(traj, [], "min")


# -- collision checks ----------------------------------------------------------


def test_agent_check_no_agents():
    assert agent_collision_check(straight_candidate(), EGO_DIMS, []) is False


def test_agent_check_time_aligned():
    traj = straight_candidate(0.0, speed=4.0)  # waypoints at x = 2,4,...,12
    # stationary on waypoint 3 (x=8): overlap whenever ego reaches it
    agent = stationary_agent(8.0, 0.0)
    assert agent_collision_check(traj, EGO_DIMS, [agent]) is True

    # agent sits on waypoint-3's location (x=8) only at step 5 while ego is
    # already at x=12 (box [10,14]); agent box spans [6,10] at x=8 with a
    # shorter body so the boxes never meet at the same step
    poses = []
    for t in range(T_F):
        x = 8.0 if t == 5 else 100.0 + t
        poses.append(Pose2(Point2(x, 0.0), 0.0))
    mover = AgentPrediction("mover", (3.0, 1.8), (AgentMode(tuple(poses), 0.9),))
    assert agent_collision_check(traj, EGO_DIMS, [mover]) is False


def test_agent_check_uses_highest_confidence_mode_only():
    safe = tuple(Pose2(Point2(100 + t, 50), 0.0) for t in range(T_F))
    hit = tuple(Pose2(Point2(4.0, 0.0), 0.0) for _ in range(T_F))
    agent = AgentPrediction("a", (4.0, 1.8), (AgentMode(safe, 0.7), AgentMode(hit, 0.2)))
    traj = straight_candidate()
    assert agent_collision_check(traj, EGO_DIMS, [agent]) is False
    assert agent_collision_check(traj, EGO_DIMS, [agent], all_modes=True) is True


def test_agent_check_margin_inflates():
    traj = straight_candidate(0.0)
    near = stationary_agent(4.0, 2.2)  # gap: |2.2| - 1 - 0.9 = 0.3 m
    assert agent_collision_check(traj, EGO_DIMS, [near], margin=0.0) is False
    assert agent_collision_check(traj, EGO_DIMS, [near], margin=0.4) is True


def test_agent_check_grid_mismatch():
    poses = tuple(Pose2(Point2(0, 0), 0.0) for _ in range(T_F - 1))
    with pytest.raises(ValueError):
        AgentMode(poses, 0.5)  # the type itself pins the grid


def test_boundary_check_cases():
    traj = straight_candidate(0.0)
    far = [boundary_at(5.0).mu_polyline()]
    assert boundary_collision_check(traj, EGO_DIMS, far, 0.3) is False
    # front-left corner at y=1; boundary at y=1 touches it
    touching = [boundary_at(1.0).mu_polyline()]
    assert boundary_collision_check(traj, EGO_DIMS, touching, 0.3) is True
    assert boundary_collision_check(traj, EGO_DIMS, touching, 0.0) is True  # exact contact
    near = [boundary_at(1.25).mu_polyline()]  # corner gap 0.25
    assert boundary_collision_check(traj, EGO_DIMS, near, 0.3) is True
    assert boundary_collision_check(traj, EGO_DIMS, near, 0.2) is False
    with pytest.raises(ValueError):
        boundary_collision_check(traj, EGO_DIMS, [], 0.3)


# -- ucas_select ----------------------------------------------------------------


def far_map():
    return map_with_boundaries([60.0, -60.0], b=0.5)


def test_single_safe_candidate():
    s = uniform_set([1.0], offsets=[0.0])
    report = ucas_select(s, Command.GO_STRAIGHT, far_map(), [], EGO_DIMS, SelectionConfig())
    assert report.chosen_index == 0
    assert report.fallback_used is False
    assert report.records[0].final_score == 1.0


def test_uncertainty_filter_zeroes_risky_candidate():
    # two equal-confidence candidates; one runs along an uncertain boundary
    risky = straight_candidate(0.0, 0.5)
    safer = straight_candidate(-8.0, 0.5)
    cands = (risky, safer)
    s = CandidateSet(cands, cands, cands)
    m = map_with_boundaries([0.0], b=0.5)  # NLL 0 on the risky line
    cfg = SelectionConfig(enable_agent_filter=False, enable_boundary_filter=False)
    report = ucas_select(s, Command.GO_STRAIGHT, m, [], EGO_DIMS, cfg)
    assert report.chosen_index == 1
    assert report.records[0].final_score == 0.0
    assert report.fallback_used is False


def test_all_agent_colliding_falls_back_to_confidence():
    s = uniform_set([0.3, 0.6, 0.1], offsets=[0.0, 0.1, -0.1])
    blocker = stationary_agent(6.0, 0.0, dims=(30.0, 30.0))
    cfg = SelectionConfig(enable_uncertainty_filter=False, enable_boundary_filter=False)
    report = ucas_select(s, Command.GO_STRAIGHT, far_map(), [blocker], EGO_DIMS, cfg)
    assert report.fallback_used is True
    assert report.chosen_index == 1  # highest raw confidence
    assert all(r.agent_collision for r in report.records)


def test_fallback_prefers_non_colliding_with_max_risk():
    near = straight_candidate(0.0, 0.9)   # collides with agent
    mid = straight_candidate(-4.0, 0.8)   # clear of agent, nearer boundary
    far = straight_candidate(-8.0, 0.7)   # clear of agent, farthest from boundary
    cands = (near, mid, far)
    s = CandidateSet(cands, cands, cands)
    m = map_with_boundaries([2.0], b=0.5)
    agent = stationary_agent(6.0, 0.0)
    # threshold high enough to zero everything -> fallback path
    cfg = SelectionConfig(nll_threshold=1e6, enable_boundary_filter=False)
    report = ucas_select(s, Command.GO_STRAIGHT, m, [agent], EGO_DIMS, cfg)
    assert report.fallback_used is True
    assert report.records[0].agent_collision is True
    assert report.chosen_index == 2  # max risk_nll among non-colliding


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["nll_threshold", "boundary_clearance", "agent_margin"])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SelectionConfig(**{field: value})


def test_disabling_all_filters_is_pure_argmax():
    confidences = [0.2, 0.8, 0.8, 0.5]
    s = uniform_set(confidences)
    cfg = SelectionConfig(
        enable_uncertainty_filter=False, enable_agent_filter=False, enable_boundary_filter=False
    )
    report = ucas_select(s, Command.GO_STRAIGHT, far_map(), [], EGO_DIMS, cfg)
    assert report.chosen_index == confidences.index(max(confidences))  # index tie-break
    assert report.fallback_used is False
    assert [r.final_score for r in report.records] == confidences


def test_tie_broken_by_lower_risk():
    # equal confidence, both above threshold; closer-to-boundary one wins ties
    a = straight_candidate(3.0, 0.5)
    b = straight_candidate(6.0, 0.5)
    cands = (a, b)
    s = CandidateSet(cands, cands, cands)
    m = map_with_boundaries([9.0], b=0.5)
    cfg = SelectionConfig(nll_threshold=2.0, enable_agent_filter=False, enable_boundary_filter=False)
    report = ucas_select(s, Command.GO_STRAIGHT, m, [], EGO_DIMS, cfg)
    assert report.records[1].risk_nll < report.records[0].risk_nll
    assert report.chosen_index == 1


def test_filter_monotonicity_and_rescaling():
    rng = np.random.Generator(np.random.PCG64(123))
    for trial in range(30):
        n = int(rng.integers(1, 6))
        offsets = [float(rng.uniform(-6, 6)) for _ in range(n)]
        confs = [float(rng.uniform(0.05, 1.0)) for _ in range(n)]
        cands = tuple(straight_candidate(o, c) for o, c in zip(offsets, confs))
        s = CandidateSet(cands, cands, cands)
        m = map_with_boundaries([float(rng.uniform(-4, 4))], b=0.5)
        agents = [stationary_agent(float(rng.uniform(2, 10)), float(rng.uniform(-4, 4)))]

        none = SelectionConfig(
            enable_uncertainty_filter=False, enable_agent_filter=False, enable_boundary_filter=False
        )
        combos = [
            SelectionConfig(enable_uncertainty_filter=True, enable_agent_filter=False, enable_boundary_filter=False),
            SelectionConfig(enable_uncertainty_filter=True, enable_agent_filter=True, enable_boundary_filter=False),
            SelectionConfig(enable_uncertainty_filter=True, enable_agent_filter=True, enable_boundary_filter=True),
        ]
        base = ucas_select(s, Command.GO_STRAIGHT, m, agents, EGO_DIMS, none)
        prev = base
        for cfg in combos:
            cur = ucas_select(s, Command.GO_STRAIGHT, m, agents, EGO_DIMS, cfg)
            for r_prev, r_cur in zip(prev.records, cur.records):
                assert r_cur.final_score <= r_prev.final_score + 1e-15
            prev = cur

        # positive rescaling of confidences keeps the same winner
        lam = float(rng.uniform(0.1, 0.9))
        scaled = tuple(
            dataclasses.replace(c, confidence=c.confidence * lam) for c in cands
        )
        s2 = CandidateSet(scaled, scaled, scaled)
        for cfg in [none] + combos:
            r1 = ucas_select(s, Command.GO_STRAIGHT, m, agents, EGO_DIMS, cfg)
            r2 = ucas_select(s2, Command.GO_STRAIGHT, m, agents, EGO_DIMS, cfg)
            assert r1.chosen_index == r2.chosen_index


def test_select_deterministic():
    s = uniform_set([0.5, 0.4, 0.3])
    m = map_with_boundaries([1.5, -1.5], b=0.5)
    agent = stationary_agent(8.0, 1.0)
    r1 = ucas_select(s, Command.GO_STRAIGHT, m, [agent], EGO_DIMS, SelectionConfig())
    r2 = ucas_select(s, Command.GO_STRAIGHT, m, [agent], EGO_DIMS, SelectionConfig())
    assert r1 == r2


def test_chosen_never_agent_flagged_unless_total_fallback():
    rng = np.random.Generator(np.random.PCG64(5150))
    for _ in range(40):
        n = int(rng.integers(1, 6))
        cands = tuple(
            straight_candidate(float(rng.uniform(-5, 5)), float(rng.uniform(0.05, 1.0)))
            for _ in range(n)
        )
        s = CandidateSet(cands, cands, cands)
        m = map_with_boundaries([float(rng.uniform(-3, 3))])
        agents = [
            stationary_agent(float(rng.uniform(2, 12)), float(rng.uniform(-5, 5)), agent_id=f"a{k}")
            for k in range(int(rng.integers(0, 3)))
        ]
        report = ucas_select(s, Command.GO_STRAIGHT, m, agents, EGO_DIMS, SelectionConfig())
        chosen_rec = report.records[report.chosen_index]
        if chosen_rec.agent_collision:
            assert report.fallback_used
            assert all(r.agent_collision for r in report.records)


def test_uncertainty_filter_requires_boundaries():
    s = uniform_set([0.5])
    empty = UncertainMap(
        (MapElement(boundary_at(0.0), MapElementKind.LANE_DIVIDER),), wide_da()
    )
    with pytest.raises(ValueError):
        ucas_select(s, Command.GO_STRAIGHT, empty, [], EGO_DIMS, SelectionConfig())
    cfg = SelectionConfig(
        enable_uncertainty_filter=False, enable_agent_filter=False, enable_boundary_filter=False
    )
    report = ucas_select(s, Command.GO_STRAIGHT, empty, [], EGO_DIMS, cfg)
    assert report.chosen_index == 0


def test_risk_reads_boundary_elements_only():
    """A lane divider on the path adds no risk: only boundary elements are read."""
    s = uniform_set([0.5], offsets=[0.0])
    divider_on_path = MapElement(boundary_at(0.0, b=0.5), MapElementKind.LANE_DIVIDER)
    boundary_far = MapElement(boundary_at(50.0, b=0.5), MapElementKind.BOUNDARY)
    m = UncertainMap((divider_on_path, boundary_far), wide_da())
    base = SelectionConfig(enable_agent_filter=False, enable_boundary_filter=False)
    assert ucas_select(s, Command.GO_STRAIGHT, m, [], EGO_DIMS, base).records[0].final_score > 0


FILTERS = ("enable_uncertainty_filter", "enable_agent_filter", "enable_boundary_filter")


def noisy_wide_scenarios():
    """Generated scenarios with 20 candidates on which every filter fires."""
    params = GeneratorParams(noise_scale=1.0, n_candidates=20)
    return [generate_scenario(kind, params, seed) for kind, seed in itertools.product(ScenarioKind, range(6))]


@pytest.mark.parametrize("enabled", FILTERS)
def test_head_k_records_are_the_first_k_records(enabled):
    # each kernel decides every candidate on its own, so a prefix of the set has a prefix of the values
    cfg = SelectionConfig(**{name: name == enabled for name in FILTERS})
    zeroed = 0
    for s in noisy_wide_scenarios():
        full = ucas_select(s.candidates, s.command, s.map, s.agents, s.ego_dims, cfg).records
        zeroed += sum(r.final_score == 0.0 for r in full)
        for k in range(1, len(full) + 1):
            head = ucas_select(s.candidates.head(k), s.command, s.map, s.agents, s.ego_dims, cfg).records
            assert head == full[:k]
    assert zeroed > 0


def test_one_values_object_selects_as_ucas_select_under_every_flag_set_and_cap():
    base = SelectionConfig(nll_threshold=2.5, boundary_clearance=0.45)
    rules = [
        (dataclasses.replace(base, **dict(zip(FILTERS, flags))), limit)
        for flags in itertools.product((False, True), repeat=3)
        for limit in (1, 7, None)
    ]
    for s in noisy_wide_scenarios():
        values = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims)], base)
        for cfg, limit in rules[::-1] + rules:  # all filters computed first, then read by every rule
            report = values.select(0, cfg, limit)
            candidates = s.candidates if limit is None else s.candidates.head(limit)
            assert report == ucas_select(candidates, s.command, s.map, s.agents, s.ego_dims, cfg)
            assert report.chosen == s.candidates.for_command(s.command)[report.chosen_index]
            if not cfg.enable_uncertainty_filter:  # computed by another rule, yet not reported
                assert all(r.risk_nll == math.inf for r in report.records)


# -- chunks of scenarios ----------------------------------------------------------


def _uneven_scenarios():
    """Generated scenarios made uneven: one without agents, one whose commands
    hold 5, 5 and 3 candidates (3 for its own), one whose drivable area holds a
    hole around a candidate's footprint corner and a second, far polygon, and
    one with a larger ego."""
    a, b, c, d = (generate_scenario(kind, GeneratorParams(), seed) for kind in ScenarioKind for seed in (11, 12))
    no_agents = dataclasses.replace(a, agents=(), agent_boxes=np.zeros((0, T_F, 5)))
    fields = {"turn_left": Command.TURN_LEFT, "turn_right": Command.TURN_RIGHT, "go_straight": Command.GO_STRAIGHT}
    candidates = CandidateSet(**{name: b.candidates.for_command(cmd)[:3 if cmd is b.command else 5]
                                 for name, cmd in fields.items()})
    three = dataclasses.replace(b, candidates=candidates)
    xy, yaw, _ = c.candidates.batches[c.command]
    (x, y), r = box_corners(xy[0, 2], yaw[0, 2], *c.ego_dims)[1].tolist(), 0.05  # candidate 0's, at step 2
    hole = [Point2(x + dx, y + dy) for dx, dy in ((-r, -r), (-r, r), (r, r), (r, -r), (-r, -r))]  # clockwise
    far = [Point2(-500.0, -500.0), Point2(-490.0, -500.0), Point2(-490.0, -490.0), Point2(-500.0, -490.0),
           Point2(-500.0, -500.0)]
    rim = c.map.drivable_area.polygons[0].outer
    area = MultiPolygon((Polygon(rim, (tuple(hole),)), Polygon(tuple(far))))
    holed = dataclasses.replace(c, map=UncertainMap(c.map.elements, area))
    return [no_agents, three, holed, dataclasses.replace(d, ego_dims=(5.1, 2.3))]


def _alone(s, runs):
    """Filter values, reports and metrics of scenario s in a chunk of its own."""
    values = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims)], SelectionConfig())
    reports = [values.select(0, cfg, limit) for cfg, limit in runs]
    gt = s.ground_truth()
    metrics = [evaluate_trajectory(r.chosen, s.ego_dims, gt, s.scenario_id, s.scenario_class) for r in reports]
    return values.risks[0], values.agent_flags[0], values.boundary_flags[0], reports, metrics


def _chunked(scenarios, runs):
    """The same, for every scenario of one chunk: one box call, one clearance call, one CR and DACR call."""
    values = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims) for s in scenarios],
                          SelectionConfig())
    reports = [[values.select(n, cfg, limit) for cfg, limit in runs] for n in range(len(scenarios))]
    truths = [s.ground_truth() for s in scenarios]
    items = [(r.chosen, s.ego_dims, gt, s.scenario_id, s.scenario_class)
             for s, gt, per in zip(scenarios, truths, reports) for r in per]
    metrics = iter(evaluate_trajectories(items))
    return [(values.risks[n], values.agent_flags[n], values.boundary_flags[n], per, [next(metrics) for _ in per])
            for n, per in enumerate(reports)]


def _key(result):
    risks, agent, boundary, reports, metrics = result
    return risks, agent, boundary, reports, [(m, m.dacr_steps) for m in metrics]


@pytest.mark.parametrize("params", [GeneratorParams(n_candidates=20), GeneratorParams(n_element_points=80)],
                         ids=["20-candidates", "80-vertices"])
def test_values_and_metrics_do_not_depend_on_the_chunk(params):
    """Each scenario's risks, flags, reports under every preset and metrics
    (with the DACR steps) are those it has alone, in any chunk: all scenarios
    together, reversed, and interleaved into two chunks."""
    runs = [preset_selection(preset, SelectionConfig()) for preset in PRESETS]
    generated = [generate_scenario(kind, params, seed) for kind in ScenarioKind for seed in range(4)]
    scenarios = _uneven_scenarios() + generated
    alone = [_key(_alone(s, runs)) for s in scenarios]
    n = len(scenarios)
    for order in (list(range(n)), list(range(n))[::-1], list(range(0, n, 2)), list(range(1, n, 2))):
        chunked = [_key(r) for r in _chunked([scenarios[i] for i in order], runs)]
        assert chunked == [alone[i] for i in order]
    assert any(any(a[1]) for a in alone) and any(any(a[2]) for a in alone)  # both box and clearance kernels hit
    assert any(alone[2][4][0][1])  # baseline's choice, candidate 0, has a corner in the hole: a DACR conflict


def test_one_scene_passes_the_kernels_no_labels_and_a_chunk_labels_every_item(monkeypatch):
    """ucas_select hands the sweep and the box test no labels, which they read
    as one group; a FilterValues of two or more scenes labels each candidate,
    agent mode, corner and boundary segment with its scene's slot."""
    from uncplan import geometry, selection

    seen = []
    sweep, boxes = geometry._swept_pairs, selection.aligned_box_hits

    def spy_sweep(keys, lo, hi, groups=None):
        seen.append(("sweep", groups))
        return sweep(keys, lo, hi, groups)

    def spy_boxes(xy, headings, corners, dims, poses, lengths, widths, groups=None):
        seen.append(("boxes", groups))
        return boxes(xy, headings, corners, dims, poses, lengths, widths, groups)

    monkeypatch.setattr(geometry, "_swept_pairs", spy_sweep)
    monkeypatch.setattr(selection, "aligned_box_hits", spy_boxes)
    scenarios = [generate_scenario(kind, GeneratorParams(), seed) for kind in ScenarioKind for seed in (3, 4)]
    assert all(s.agents for s in scenarios)
    for s in scenarios:
        seen.clear()
        ucas_select(s.candidates, s.command, s.map, s.agents, s.ego_dims, SelectionConfig())
        assert sorted(seen, key=lambda call: call[0]) == [("boxes", None), ("sweep", None)]
    for chunk in (scenarios[:2], scenarios[::-1]):
        seen.clear()
        values = FilterValues([(s.candidates, s.command, s.map, s.agents, s.ego_dims) for s in chunk], SelectionConfig())
        values.agent_flags, values.boundary_flags
        labels = dict(seen)
        slots = np.arange(len(chunk))
        rows = np.repeat(slots, [len(s.candidates.for_command(s.command)) for s in chunk])
        assert len(seen) == 2 and None not in labels.values()
        assert labels["boxes"][0].tolist() == rows.tolist()
        assert labels["boxes"][1].tolist() == np.repeat(slots, [len(s.agents) for s in chunk]).tolist()  # top modes
        assert labels["sweep"][0].tolist() == np.repeat(rows, T_F * 4).tolist()
        assert np.unique(labels["sweep"][1]).tolist() == slots.tolist()
