import math

import numpy as np
import pytest

from uncplan.geometry import MultiPolygon, OrientedBox, Point2, Polygon
from uncplan.metrics import (
    HORIZON_STEPS,
    GroundTruth,
    MetricsRow,
    ScenarioMetrics,
    aggregate,
    collision_rate_frame,
    dacr_flags,
    dacr_frame,
    displacement_error,
    evaluate_trajectory,
    scenario_class_of,
)
from uncplan.selection import T_F, CandidateTrajectory

EGO_DIMS = (4.0, 2.0)


def rect_da(x0, x1, y0, y1):
    ring = (
        Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1), Point2(x0, y0),
    )
    return MultiPolygon((Polygon(ring),))


def traj_along_x(offsets=None, speed=4.0, y=0.0):
    offsets = offsets or [0.0] * T_F
    wps = tuple(Point2(speed * 0.5 * (t + 1) + offsets[t], y) for t in range(T_F))
    return CandidateTrajectory(wps, (0.0,) * T_F, 0.5)


def gt_straight(speed=4.0, agents=(), da=None):
    pts = tuple(Point2(speed * 0.5 * (t + 1), 0.0) for t in range(T_F))
    return GroundTruth(pts, (0.0,) * T_F, agents, da or rect_da(-5, 50, -8, 8))


# -- displacement error --------------------------------------------------------


def test_de_zero_when_identical():
    gt = gt_straight()
    traj = traj_along_x()
    for h in HORIZON_STEPS:
        assert displacement_error(traj, gt, h, "cumulative") == 0.0
        assert displacement_error(traj, gt, h, "instantaneous") == 0.0


def test_de_constant_offset():
    gt = gt_straight()
    traj = traj_along_x([1.0] * T_F)
    for h in HORIZON_STEPS:
        assert displacement_error(traj, gt, h, "cumulative") == pytest.approx(1.0)
        assert displacement_error(traj, gt, h, "instantaneous") == pytest.approx(1.0)


def test_de_linear_growth_cumulative():
    gt = gt_straight()
    traj = traj_along_x([0.5 * (t + 1) for t in range(T_F)])
    assert displacement_error(traj, gt, 2, "cumulative") == pytest.approx(0.75)
    assert displacement_error(traj, gt, 2, "instantaneous") == pytest.approx(1.0)


def test_de_horizon_validation():
    gt = gt_straight()
    with pytest.raises(ValueError):
        displacement_error(traj_along_x(), gt, 0)
    with pytest.raises(ValueError):
        displacement_error(traj_along_x(), gt, T_F + 1)
    with pytest.raises(ValueError):
        displacement_error(traj_along_x(), gt, 3, "weird")


def test_de_translation_invariant():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        dx, dy = rng.uniform(-30, 30, size=2)
        base_wps = [Point2(float(x), float(y)) for x, y in rng.uniform(-10, 10, size=(T_F, 2))]
        gt_pts = [Point2(float(x), float(y)) for x, y in rng.uniform(-10, 10, size=(T_F, 2))]
        traj_a = CandidateTrajectory(tuple(base_wps), (0.0,) * T_F, 0.5)
        gt_a = GroundTruth(tuple(gt_pts), (0.0,) * T_F, (), rect_da(-60, 60, -60, 60))
        traj_b = CandidateTrajectory(
            tuple(Point2(p.x + dx, p.y + dy) for p in base_wps), (0.0,) * T_F, 0.5
        )
        gt_b = GroundTruth(
            tuple(Point2(p.x + dx, p.y + dy) for p in gt_pts), (0.0,) * T_F, (), rect_da(-60, 60, -60, 60)
        )
        for h in HORIZON_STEPS:
            assert displacement_error(traj_a, gt_a, h) == pytest.approx(
                displacement_error(traj_b, gt_b, h), abs=1e-9
            )


# -- collision rate --------------------------------------------------------------


def agent_boxes_static(x, y, dims=(4.0, 1.8)):
    return tuple(OrientedBox(Point2(x, y), 0.0, dims[0], dims[1]) for _ in range(T_F))


def agent_boxes_at_step(step, x, y, dims=(4.0, 1.8)):
    boxes = []
    for t in range(T_F):
        if t == step:
            boxes.append(OrientedBox(Point2(x, y), 0.0, dims[0], dims[1]))
        else:
            boxes.append(OrientedBox(Point2(500.0 + t, 200.0), 0.0, dims[0], dims[1]))
    return tuple(boxes)


def test_cr_no_agents():
    gt = gt_straight()
    for h in HORIZON_STEPS:
        assert collision_rate_frame(traj_along_x(), EGO_DIMS, gt, h) is False


def test_cr_cumulative_vs_instantaneous():
    # overlap only at step index 1 (t = 2 steps = 1 s)
    gt = gt_straight(agents=(agent_boxes_at_step(1, 4.0, 0.0),))
    traj = traj_along_x()
    assert collision_rate_frame(traj, EGO_DIMS, gt, 2, "cumulative") is True
    assert collision_rate_frame(traj, EGO_DIMS, gt, 4, "cumulative") is True
    assert collision_rate_frame(traj, EGO_DIMS, gt, 6, "cumulative") is True
    assert collision_rate_frame(traj, EGO_DIMS, gt, 2, "instantaneous") is True
    assert collision_rate_frame(traj, EGO_DIMS, gt, 4, "instantaneous") is False
    assert collision_rate_frame(traj, EGO_DIMS, gt, 6, "instantaneous") is False


def test_cr_cumulative_monotone_in_horizon():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(25):
        agents = tuple(
            agent_boxes_at_step(int(rng.integers(0, T_F)), float(rng.uniform(0, 14)), float(rng.uniform(-2, 2)))
            for _ in range(int(rng.integers(0, 3)))
        )
        gt = gt_straight(agents=agents)
        traj = traj_along_x()
        flags = [collision_rate_frame(traj, EGO_DIMS, gt, h, "cumulative") for h in range(1, T_F + 1)]
        assert flags == sorted(flags)  # False...True, never back


def test_shrinking_ego_never_increases_cr_or_dacr():
    rng = np.random.Generator(np.random.PCG64(21))
    da = rect_da(0, 16, -2.2, 2.2)
    for _ in range(25):
        traj = traj_along_x([float(rng.uniform(-1, 1)) for _ in range(T_F)], y=float(rng.uniform(-1, 1)))
        agents = tuple(
            agent_boxes_static(float(rng.uniform(2, 14)), float(rng.uniform(-3, 3)))
            for _ in range(int(rng.integers(0, 3)))
        )
        gt = GroundTruth(
            tuple(Point2(2.0 * (t + 1), 0.0) for t in range(T_F)), (0.0,) * T_F, agents, da
        )
        big, small = (4.0, 2.0), (3.2, 1.5)
        for h in HORIZON_STEPS:
            assert int(collision_rate_frame(traj, small, gt, h)) <= int(
                collision_rate_frame(traj, big, gt, h)
            )
            assert dacr_frame(traj, small, da, h) <= dacr_frame(traj, big, da, h) + 1e-15


# -- DACR ------------------------------------------------------------------------


def test_dacr_all_inside():
    da = rect_da(0, 20, -2, 2)
    traj = traj_along_x(speed=4.0)  # x up to 12, footprint [10,14]x[-1,1]
    for h in HORIZON_STEPS:
        assert dacr_frame(traj, EGO_DIMS, da, h) == 0.0


def test_dacr_three_of_six_steps():
    # front corners leave x<=9 when waypoint x > 7: steps 4, 5, 6
    da = rect_da(0, 9, -2, 2)
    traj = traj_along_x(speed=4.0)
    assert dacr_flags(traj, EGO_DIMS, da) == (False, False, False, True, True, True)
    assert dacr_frame(traj, EGO_DIMS, da, 6) == pytest.approx(0.5)
    assert dacr_frame(traj, EGO_DIMS, da, 2) == 0.0


def test_dacr_running_count_non_decreasing():
    rng = np.random.Generator(np.random.PCG64(31))
    da = rect_da(0, 11, -1.8, 1.8)
    for _ in range(25):
        traj = traj_along_x([float(rng.uniform(-1, 1)) for _ in range(T_F)], y=float(rng.uniform(-1.2, 1.2)))
        counts = [h * dacr_frame(traj, EGO_DIMS, da, h) for h in range(1, T_F + 1)]
        for a, b in zip(counts, counts[1:]):
            assert b >= a - 1e-12


def test_dacr_zero_iff_all_steps_clear():
    da = rect_da(0, 9, -2, 2)
    traj = traj_along_x(speed=4.0)
    flags = dacr_flags(traj, EGO_DIMS, da)
    for h in range(1, T_F + 1):
        assert (dacr_frame(traj, EGO_DIMS, da, h) == 0.0) == (not any(flags[:h]))


# -- classification ---------------------------------------------------------------


def test_scenario_class_split():
    assert scenario_class_of([0.0] * T_F) == "Straight"
    assert scenario_class_of([0.0, 0.1, 0.2, 0.3, 0.4, math.radians(16)]) == "Turn"
    assert scenario_class_of([0.0, 0.0, 0.0, 0.0, 0.0, math.radians(14)]) == "Straight"
    # wraps correctly across the pi boundary
    assert scenario_class_of([math.pi - 0.05, 0, 0, 0, 0, -math.pi + 0.05]) == "Straight"


# -- aggregation ------------------------------------------------------------------


def row(sid, cls, de, cr, dacr):
    return ScenarioMetrics(sid, cls, de, cr, dacr)


def test_aggregate_single_row_identity():
    r = row("s0", "Turn", (0.1, 0.2, 0.3), (False, True, True), (0.0, 0.25, 0.5))
    out = aggregate([r])
    assert len(out) == 1
    agg = out[0]
    assert agg.scenario_class == "Overall"
    assert agg.n_scenarios == 1
    assert (agg.de_1s, agg.de_2s, agg.de_3s) == (0.1, 0.2, 0.3)
    assert agg.de_avg == pytest.approx(0.2)
    assert (agg.cr_1s, agg.cr_2s, agg.cr_3s) == (0.0, 1.0, 1.0)
    assert agg.cr_avg == pytest.approx(2 / 3)
    assert agg.dacr_avg == pytest.approx(0.25)


def test_aggregate_two_scenarios_mean():
    r1 = row("a", "Turn", (0, 0, 0), (False, False, False), (0.0, 0.0, 0.0))
    r2 = row("b", "Straight", (1, 1, 1), (True, True, True), (1.0, 1.0, 1.0))
    overall = aggregate([r1, r2])[0]
    assert overall.dacr_avg == pytest.approx(0.5)
    assert overall.cr_avg == pytest.approx(0.5)
    assert overall.de_avg == pytest.approx(0.5)


def test_aggregate_stratified():
    rows = [
        row("t1", "Turn", (0.5, 0.5, 0.5), (True, True, True), (0.5, 0.5, 0.5)),
        row("t2", "Turn", (0.3, 0.3, 0.3), (False, True, True), (0.3, 0.3, 0.3)),
        row("s1", "Straight", (0.1, 0.1, 0.1), (False, False, False), (0.0, 0.0, 0.0)),
    ]
    out = aggregate(rows, stratify=True)
    labels = [r.scenario_class for r in out]
    assert labels == ["Overall", "Turn", "Straight"]
    turn = out[1]
    straight = out[2]
    assert turn.n_scenarios == 2 and straight.n_scenarios == 1
    assert turn.dacr_avg > straight.dacr_avg
    assert turn.de_avg > straight.de_avg
    with pytest.raises(ValueError):
        aggregate([])


def test_metrics_row_validation():
    with pytest.raises(ValueError):
        MetricsRow("Overall", 1, 0.1, 0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.5, 1.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MetricsRow("Overall", 1, -0.1, 0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)


def test_evaluate_trajectory_bundles_everything():
    da = rect_da(0, 9, -2, 2)
    gt = gt_straight(da=da)
    sm = evaluate_trajectory(traj_along_x(), EGO_DIMS, gt, "sid", "Straight", "cumulative")
    assert sm.scenario_id == "sid"
    assert sm.de == (0.0, 0.0, 0.0)
    assert sm.cr == (False, False, False)
    assert sm.dacr[2] == pytest.approx(0.5)


def test_evaluate_trajectory_computes_dacr_flags_once(monkeypatch):
    import uncplan.metrics as metrics_mod

    calls = []

    def counting_flags(*args):
        calls.append(args)
        return dacr_flags(*args)

    monkeypatch.setattr(metrics_mod, "dacr_flags", counting_flags)
    rng = np.random.Generator(np.random.PCG64(5))
    da = rect_da(0, 10.5, -1.9, 1.9)
    for _ in range(20):
        traj = traj_along_x([float(rng.uniform(-1, 1)) for _ in range(T_F)], y=float(rng.uniform(-1, 1)))
        calls.clear()
        sm = evaluate_trajectory(traj, EGO_DIMS, gt_straight(da=da), "sid", "Straight")
        assert len(calls) == 1
        assert sm.dacr == tuple(dacr_frame(traj, EGO_DIMS, da, h) for h in HORIZON_STEPS)
