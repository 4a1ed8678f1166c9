import math

import numpy as np
import pytest

from homlim.optimize import (BRENT_ABS_TOL, BRENT_REL_TOL, NonFiniteObjectiveError,
                             grid_refine, minimize_bounded)


def test_quadratic_minimum():
    r = minimize_bounded(lambda x: (x - 3.0) ** 2 + 1.0, 0.0, 10.0)
    assert r.converged
    assert r.method == "brent"
    assert r.x_star == pytest.approx(3.0, abs=1e-6)
    assert r.f_star == pytest.approx(1.0, rel=1e-12)


def test_minimum_at_boundary():
    r = minimize_bounded(lambda x: x, 2.0, 5.0)
    assert r.converged
    assert r.x_star == pytest.approx(2.0, abs=1e-6)


def test_minimum_on_bound_is_exact():
    # Brent alone stops one tolerance short of a bound; the end check lands on it.
    r = minimize_bounded(lambda x: -x, 2.0, 5.0)
    assert r.x_star == 5.0
    assert r.f_star == -5.0
    r = minimize_bounded(lambda x: math.exp(x), -3.0, 4.0)
    assert r.x_star == -3.0


def test_failing_bracket_end_is_skipped():
    def f(x):
        if x == 5.0:
            raise OverflowError("end not representable")
        return -x

    r = minimize_bounded(f, 2.0, 5.0)
    assert r.x_star == pytest.approx(5.0, abs=1e-6)
    assert r.x_star < 5.0
    r = minimize_bounded(lambda x: math.inf if x == 2.0 else x, 2.0, 5.0)
    assert r.x_star == pytest.approx(2.0, abs=1e-6)
    assert math.isfinite(r.f_star)


def test_flat_objective():
    r = minimize_bounded(lambda x: 7.0, -1.0, 1.0)
    assert r.converged
    assert r.f_star == 7.0


def test_abs_scale_invariance():
    # Same shape at wildly different x scales still converges.
    for scale in (1e-20, 1.0, 1e20):
        r = minimize_bounded(lambda x: (x - 2 * scale) ** 2, scale, 5 * scale)
        assert r.converged
        assert r.x_star == pytest.approx(2 * scale, rel=1e-6)


def test_invalid_bracket():
    with pytest.raises(ValueError):
        minimize_bounded(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        minimize_bounded(lambda x: x, 0.0, 1.0, rel_tol=0.0)


def test_non_finite_objective_raises():
    with pytest.raises(NonFiniteObjectiveError) as info:
        minimize_bounded(lambda x: math.nan, 0.0, 1.0)
    assert not math.isnan(info.value.x) or True  # carries the offending x
    assert hasattr(info.value, "x")


def test_brent_loop_keeps_a_tol1_away_from_the_upper_end():
    # model's convexity certificate probes half a tol1 below hi and relies on Brent's
    # loop never evaluating closer than that; only the end check lands on hi itself.
    rng = np.random.default_rng(7)
    for _ in range(2000):
        hi = float(rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-3, 2.85))
        lo = hi + math.log(1e-30)  # optimal_volume's bracket in log v
        c = 10.0 ** rng.uniform(-3, 3)
        x0 = hi + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-14, 2)
        f = [lambda x: -x, lambda x: math.exp(min(c * (hi - x), 700.0)), lambda x: 7.0,
             lambda x: 7.0 + c * (hi - x), lambda x: (x - x0) ** 2,
             lambda x: c * abs(x - x0) + (x - hi) ** 2][rng.integers(6)]
        seen = []
        minimize_bounded(lambda x: seen.append(x) or f(x), lo, hi)
        assert seen[-2:] == [lo, hi]  # the end checks
        tol1 = BRENT_REL_TOL * abs(hi) + BRENT_ABS_TOL
        assert min(hi - u for u in seen[:-2]) >= 0.99 * tol1


def test_max_iter_exhaustion_flagged():
    r = minimize_bounded(lambda x: (x - 1.0) ** 2, 0.0, 2.0, max_iter=2)
    assert not r.converged
    assert math.isfinite(r.f_star)


def test_grid_refine_multimodal():
    # Two basins; global minimum near x = 8 is found despite the local one at 2.
    def f(x):
        return min((x - 2.0) ** 2 + 0.5, (x - 8.0) ** 2)

    r = grid_refine(f, 0.0, 10.0, points=64, rounds=3)
    assert r.method == "grid_refined"
    assert r.x_star == pytest.approx(8.0, abs=0.05)
    assert r.f_star < 0.01


def test_grid_refine_linear_in_log_coordinates():
    # Log-volume bounds as optimal_volume passes them for V = e^69.6: the grid
    # is linear in x, so one round lands within half a step of the minimum.
    lo, hi, points = 0.52, 69.6, 16
    r = grid_refine(lambda x: (x - 40.0) ** 2, lo, hi, points=points, rounds=1)
    assert abs(r.x_star - 40.0) <= 0.5 * (hi - lo) / (points - 1)


def test_grid_refine_idempotent_from_bracket():
    f = lambda x: (x - 4.0) ** 2
    r1 = grid_refine(f, 0.0, 10.0)
    r2 = grid_refine(f, max(r1.x_star - 0.5, 0.0), r1.x_star + 0.5)
    assert r2.f_star <= r1.f_star + 1e-9


def test_grid_refine_validation():
    with pytest.raises(ValueError):
        grid_refine(lambda x: x, 0.0, 1.0, points=4)
    with pytest.raises(ValueError):
        grid_refine(lambda x: x, 0.0, 1.0, rounds=0)


def test_brent_matches_dense_grid_on_random_smooth_objectives():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a, b, c = rng.uniform(0.5, 3.0, 3)
        x0 = rng.uniform(1.0, 9.0)
        f = lambda x, a=a, b=b, c=c, x0=x0: a * (x - x0) ** 2 + b * abs(x - x0) ** 3 + c
        r = minimize_bounded(f, 0.0, 10.0)
        xs = np.linspace(0.0, 10.0, 10001)
        assert r.f_star <= min(f(float(x)) for x in xs) + 1e-9
