import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uncplan.geometry import Point2
from uncplan.uncertainty import (
    B_MIN,
    LaplacePoint,
    UncertainPolyline,
    element_nll,
    fit_laplace_mle,
    laplace_point_nll,
    log_joint_density,
    min_nll_grid,
)

TWO_LOG_TWO = 2.0 * math.log(2.0)  # 1.3862943611198906


def lp(mx, my, bx, by):
    return LaplacePoint(Point2(mx, my), (bx, by))


def test_laplace_point_clamps_scale():
    p = lp(0, 0, 1e-9, 0.5)
    assert p.b == (B_MIN, 0.5)
    with pytest.raises(ValueError):
        lp(0, 0, float("nan"), 1.0)


def test_laplace_point_nll_hand_values():
    assert laplace_point_nll(Point2(0, 0), lp(0, 0, 0.5, 0.5)) == pytest.approx(0.0, abs=1e-15)
    assert laplace_point_nll(Point2(1, 0), lp(0, 0, 1, 1)) == pytest.approx(
        TWO_LOG_TWO + 1.0, abs=1e-12
    )
    assert laplace_point_nll(Point2(0, 0), lp(0, 0, 1, 1)) == pytest.approx(
        TWO_LOG_TWO, abs=1e-12
    )


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
       st.floats(0.01, 5), st.floats(0.01, 5))
def test_nll_minimized_at_mu(gx, gy, mx, my, bx, by):
    point = lp(mx, my, bx, by)
    at_mu = laplace_point_nll(Point2(mx, my), point)
    assert at_mu == pytest.approx(math.log(2 * point.b[0]) + math.log(2 * point.b[1]), abs=1e-12)
    assert laplace_point_nll(Point2(gx, gy), point) >= at_mu - 1e-12


def test_nll_as_function_of_scale_has_minimum_at_abs_residual():
    # for fixed |gt - mu| = d, NLL over b has a unique minimum at b = d
    d = 1.7
    grid = np.linspace(B_MIN, 10.0, 200_001)
    vals = np.log(2 * grid) + d / grid
    best = grid[int(np.argmin(vals))]
    assert best == pytest.approx(d, abs=1e-3)
    # huge near the clamp, grows like log b far out
    assert vals[0] > vals.min() + 100
    assert vals[-1] - (math.log(2 * 10.0) + d / 10.0) == pytest.approx(0.0, abs=1e-12)


def test_element_nll_additivity_and_mismatch():
    element = UncertainPolyline((lp(0, 0, 1, 1), lp(5, 5, 1, 1)))
    gt = [Point2(0, 0), Point2(5, 5)]
    assert element_nll(gt, element) == pytest.approx(2 * TWO_LOG_TWO, abs=1e-12)
    with pytest.raises(ValueError):
        element_nll([Point2(0, 0)], element)
    zero = UncertainPolyline((lp(0, 0, 0.5, 0.5), lp(1, 1, 0.5, 0.5)))
    assert element_nll([Point2(0, 0), Point2(1, 1)], zero) == pytest.approx(0.0, abs=1e-15)


@given(st.integers(0, 10_000))
def test_element_nll_matches_per_point_sum(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 8))
    pts = tuple(
        lp(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.01, 2), rng.uniform(0.01, 2))
        for _ in range(n)
    )
    element = UncertainPolyline(pts)
    gt = [Point2(float(x), float(y)) for x, y in rng.uniform(-5, 5, size=(n, 2))]
    total = element_nll(gt, element)
    by_hand = sum(laplace_point_nll(g, q) for g, q in zip(gt, pts))
    assert total == pytest.approx(by_hand, abs=1e-12)
    assert log_joint_density(gt, element) + total == 0.0


def test_single_point_density_is_one_at_mu_with_half_scales():
    element = UncertainPolyline((lp(3, -2, 0.5, 0.5),))
    assert log_joint_density([Point2(3, -2)], element) == pytest.approx(0.0, abs=1e-15)


def test_density_integrates_to_one():
    # trapezoid over a grid centered on mu, half width 20 b, step b/20
    b = 0.7
    element = UncertainPolyline((lp(1.0, -0.5, b, b),))
    half, step = 20 * b, b / 20
    axis = np.arange(-half, half + step / 2, step)
    xs = 1.0 + axis
    ys = -0.5 + axis
    dens = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        lx = abs(x - 1.0) / b + math.log(2 * b)
        dens[i, :] = np.exp(-(lx + np.abs(ys + 0.5) / b + math.log(2 * b)))
    wx = np.full(len(xs), step)
    wx[0] = wx[-1] = step / 2
    integral = float(wx @ dens @ wx)
    assert integral == pytest.approx(1.0, abs=1e-3)


# -- fitting -----------------------------------------------------------------


def test_fit_mle_hand_cases():
    obs = [Point2(-1, 0), Point2(0, 0), Point2(1, 0)]
    fitted = fit_laplace_mle(obs)
    assert fitted.mu == Point2(0.0, 0.0)
    assert fitted.b[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert fitted.b[1] == B_MIN

    same = [Point2(2.5, -3.5)] * 7
    fitted = fit_laplace_mle(same)
    assert fitted.mu == Point2(2.5, -3.5)
    assert fitted.b == (B_MIN, B_MIN)

    with pytest.raises(ValueError):
        fit_laplace_mle([])


def test_fit_mle_scale_matches_grid_search():
    rng = np.random.Generator(np.random.PCG64(42))
    obs = [Point2(float(x), float(y)) for x, y in rng.laplace(0.0, 1.3, size=(50, 2))]
    fitted = fit_laplace_mle(obs)
    xs = np.array([p.x for p in obs])
    med = float(np.median(xs))
    assert fitted.mu.x == pytest.approx(med)
    # 1D grid search of the summed NLL over b with mu fixed at the median
    grid = np.arange(1e-3, 10.0, 1e-4)
    total_dev = np.abs(xs - med).sum()
    nll = len(xs) * np.log(2 * grid) + total_dev / grid
    best = float(grid[int(np.argmin(nll))])
    assert fitted.b[0] == pytest.approx(best, abs=1e-3)


@given(st.integers(0, 5_000))
def test_fit_mle_permutation_invariant(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 30))
    obs = [Point2(float(x), float(y)) for x, y in rng.normal(0, 2, size=(n, 2))]
    fitted = fit_laplace_mle(obs)
    perm = [obs[i] for i in rng.permutation(n)]
    assert fit_laplace_mle(perm) == fitted


@given(st.integers(0, 5_000), st.floats(-50, 50), st.floats(-50, 50))
def test_fit_mle_translation_equivariant(seed, vx, vy):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 30))
    obs = [Point2(float(x), float(y)) for x, y in rng.normal(0, 2, size=(n, 2))]
    base = fit_laplace_mle(obs)
    moved = fit_laplace_mle([Point2(p.x + vx, p.y + vy) for p in obs])
    assert moved.mu.x - base.mu.x == pytest.approx(vx, abs=1e-12)
    assert moved.mu.y - base.mu.y == pytest.approx(vy, abs=1e-12)
    assert moved.b[0] == pytest.approx(base.b[0], abs=1e-12)
    assert moved.b[1] == pytest.approx(base.b[1], abs=1e-12)


# -- risk lookup --------------------------------------------------------------


def test_min_nll_basics():
    el_a = UncertainPolyline((lp(0, 0, 0.5, 0.5), lp(10, 0, 1, 1)))
    el_b = UncertainPolyline((lp(-5, 2, 1, 1),))
    assert min_nll_grid(np.array([0.0, 0.0]), [el_a, el_b]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        min_nll_grid(np.array([0.0, 0.0]), [])


def test_min_nll_far_away_lower_bound():
    elements = [UncertainPolyline((lp(100, 0, 1, 1), lp(100, 50, 1, 1)))]
    value = min_nll_grid(np.array([0.0, 0.0]), elements)
    assert value >= 100.0 + TWO_LOG_TWO - 1e-9


@given(st.integers(0, 5_000))
def test_min_nll_matches_brute_force(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    elements = []
    for _ in range(int(rng.integers(1, 4))):
        pts = tuple(
            lp(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.01, 2), rng.uniform(0.01, 2))
            for _ in range(int(rng.integers(1, 6)))
        )
        elements.append(UncertainPolyline(pts))
    p = Point2(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
    brute = min(
        laplace_point_nll(p, q) for element in elements for q in element.points
    )
    assert min_nll_grid(np.array([p.x, p.y]), elements) == pytest.approx(brute, abs=1e-12)
