"""The volume solver against a dense log-v grid, for random machines and costs.

Every cost the solver sees is convex in log v, so Brent's method plus the two
bracket ends must match or beat the best of a 4,001-point grid on
[1e-30*V, V] and both ends themselves. The solver's objective and
time_breakdown share one definition of f, so they agree to the last bit.
"""
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from homlim.costs import BUILTIN_COSTS, CostCoefficients, custom_cost
from homlim.model import (CUBE_ROOT, SQUARE_ROOT, V_FLOOR_FACTOR, ComputerSpec,
                          EvaluationError, OptimizationError, optimal_volume,
                          time_breakdown)

GRID_POINTS = 4001


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


specs = st.builds(ComputerSpec, pi=log_uniform(0, 20), beta=log_uniform(-5, 20),
                  s=log_uniform(-5, 15), c=log_uniform(3, 9), V=log_uniform(-10, 10),
                  distance=st.sampled_from([CUBE_ROOT, SQUARE_ROOT]))

coefficients = st.builds(
    CostCoefficients, a=st.floats(0, 10), p=st.floats(-3, 3), q=st.floats(0, 2),
    r=st.floats(-5, 0), b=st.floats(0.1, 20), w=st.floats(-2, 3), l=st.floats(0, 2),
    g=st.floats(0, 5), h=st.floats(-2, 2), k=st.floats(-2, 2), m=st.floats(0, 2))

costs = st.one_of(st.sampled_from(sorted(BUILTIN_COSTS)).map(lambda name: BUILTIN_COSTS[name]()),
                  coefficients.map(custom_cost))


def total_or_inf(spec, cost, n, v):
    try:
        return time_breakdown(spec, cost, n, v).total
    except EvaluationError:
        return math.inf


@settings(max_examples=200, deadline=None)
@given(spec=specs, cost=costs, n=log_uniform(0, 30))
def test_optimum_no_worse_than_dense_grid_or_bracket_ends(spec, cost, n):
    try:
        sol = optimal_volume(spec, cost, n)
    except OptimizationError:
        assume(False)
    xs = np.linspace(math.log(spec.V * V_FLOOR_FACTOR), math.log(spec.V), GRID_POINTS)
    grid_min = min(total_or_inf(spec, cost, n, min(math.exp(x), spec.V)) for x in xs)
    assert sol.breakdown.total <= (1.0 + 1e-9) * grid_min
    for end in (spec.V, spec.V * V_FLOOR_FACTOR):
        f_end = total_or_inf(spec, cost, n, end)
        if math.isfinite(f_end):
            assert sol.breakdown.total <= f_end


@settings(max_examples=200, deadline=None)
@given(spec=specs, cost=costs, n=log_uniform(0, 30))
def test_objective_equals_time_breakdown_exactly(spec, cost, n):
    try:
        sol = optimal_volume(spec, cost, n)
    except OptimizationError:
        assume(False)
    assert sol.opt.f_star == time_breakdown(spec, cost, n, sol.v_star).total
    assert sol.breakdown.total == sol.opt.f_star


def test_log_domain_ratio_through_optimal_volume():
    # W/pi overflows a double, but W/(pi*v) is finite at every v >= 1e-30*V = 100.
    spec = ComputerSpec(pi=1e-9, beta=1.0, s=1.0, c=1.0, V=1e32)
    cost = custom_cost(CostCoefficients(b=1e300, w=0.0, g=1.0, h=1.0))
    assert math.isinf(cost.work(1e6) / spec.pi)
    sol = optimal_volume(spec, cost, 1e6)
    assert math.isfinite(sol.opt.f_star)
    assert sol.opt.f_star == time_breakdown(spec, cost, 1e6, sol.v_star).total
