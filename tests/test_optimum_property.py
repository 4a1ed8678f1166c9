"""The volume solver against a dense log-v grid, for random machines and costs.

Every cost the solver sees is convex in log v, so Brent's method plus the two
bracket ends must match or beat the best of a 4,001-point grid on
[1e-30*V, V] and both ends themselves. The solver's objective and
time_breakdown share one definition of f, so they agree to the last bit.
The convexity certificate in front of Brent must not change any answer: the
solve gives the v*, total and error text of Brent alone on the same f.
"""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import homlim.model
from homlim.costs import BUILTIN_COSTS, CostCoefficients, custom_cost, fft_cost
from homlim.machines import preset
from homlim.model import (CUBE_ROOT, SQUARE_ROOT, V_FLOOR_FACTOR, ComputerSpec, DistanceFn,
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


# Every positive double from the smallest subnormal to near the largest.
any_positive = log_uniform(-323.3, 308.2).map(lambda x: max(x, 5e-324))
any_specs = st.builds(ComputerSpec, pi=any_positive, beta=any_positive, s=any_positive,
                      c=any_positive, V=any_positive,
                      distance=st.builds(DistanceFn, prefactor=any_positive,
                                         exponent=log_uniform(-3, 3)))


@settings(max_examples=300, deadline=None)
@given(spec=any_specs, cost=st.sampled_from(sorted(BUILTIN_COSTS)).map(
    lambda name: BUILTIN_COSTS[name]()), n=log_uniform(0, 300))
@example(spec=dataclasses.replace(preset("ideal"), V=1e-310), cost=BUILTIN_COSTS["cg"](),
         n=1e6).via("a probed volume that underflows to 0.0")
def test_solve_gives_finite_total_or_optimization_error(spec, cost, n):
    # Below V ~ 1e-305 Brent's first volume is 0.0; W/(pi*v) once raised ZeroDivisionError.
    try:
        sol = optimal_volume(spec, cost, n)
    except OptimizationError:
        return
    assert math.isfinite(sol.breakdown.total)


def test_log_domain_ratio_through_optimal_volume():
    # W/pi overflows a double, but W/(pi*v) is finite at every v >= 1e-30*V = 100.
    spec = ComputerSpec(pi=1e-9, beta=1.0, s=1.0, c=1.0, V=1e32)
    cost = custom_cost(CostCoefficients(b=1e300, w=0.0, g=1.0, h=1.0))
    assert math.isinf(cost.work(1e6) / spec.pi)
    sol = optimal_volume(spec, cost, 1e6)
    assert math.isfinite(sol.opt.f_star)
    assert sol.opt.f_star == time_breakdown(spec, cost, 1e6, sol.v_star).total


def outcome(spec, cost, n):
    """(v*, total) of one solve, or the text of the OptimizationError it raised."""
    try:
        sol = optimal_volume(spec, cost, n)
    except OptimizationError as exc:
        return str(exc)
    return sol.v_star, sol.breakdown.total


def brent_outcome(spec, cost, n):
    """outcome() with the certificate off: minimize_bounded alone on the same f."""
    with mock.patch.object(homlim.model, "_certified_end", return_value=None):
        return outcome(spec, cost, n)


# Zero coefficients included: a, b and g at 0 or h at 0 make f flat in v, where
# Brent keeps an interior point and the certificate must not claim V.
rows = st.builds(
    CostCoefficients, a=st.floats(0, 10), p=st.floats(-3, 3), q=st.floats(0, 2),
    r=st.floats(-5, 0), b=st.floats(0, 20), w=st.floats(-2, 3), l=st.floats(0, 2),
    g=st.floats(0, 5), h=st.floats(-2, 2), k=st.floats(-2, 2), m=st.floats(0, 2))
log_rows = rows.filter(lambda row: row.m > 0)

# s from the smallest subnormal to 1e300 and n up to 1e150, so failing solves are compared too.
wide_specs = st.builds(ComputerSpec, pi=log_uniform(-10, 20), beta=log_uniform(-10, 20),
                       s=log_uniform(-323.3, 300).map(lambda s: max(s, 5e-324)),
                       c=log_uniform(3, 9), V=log_uniform(-30, 30),
                       distance=st.sampled_from([CUBE_ROOT, SQUARE_ROOT]))


@st.composite
def kink_specs(draw):
    """Specs whose FFT kink s*v = 4 lies inside (1e-30*V, V), at a uniform place u in
    log v: left of Brent's first point when u < 0.382, right of it otherwise."""
    V, u = draw(log_uniform(-10, 10)), draw(st.floats(0.001, 0.999))
    s = 4.0 / (V * V_FLOOR_FACTOR**(1.0 - u))
    return ComputerSpec(pi=draw(log_uniform(0, 20)), beta=draw(log_uniform(-5, 20)), s=s,
                        c=draw(log_uniform(3, 9)), V=V,
                        distance=draw(st.sampled_from([CUBE_ROOT, SQUARE_ROOT])))


@settings(max_examples=300, deadline=None)
@given(spec=wide_specs, cost=st.one_of(costs, rows.map(custom_cost)), n=log_uniform(0, 150))
def test_certificate_keeps_brent_answer_and_error(spec, cost, n):
    assert outcome(spec, cost, n) == brent_outcome(spec, cost, n)


@settings(max_examples=300, deadline=None)
@given(spec=kink_specs(), cost=st.one_of(st.just(fft_cost()), log_rows.map(custom_cost)),
       n=log_uniform(0, 30))
def test_certificate_keeps_brent_answer_across_fft_kink(spec, cost, n):
    assert outcome(spec, cost, n) == brent_outcome(spec, cost, n)


@pytest.mark.parametrize("spec, coeffs, n", [
    # f = 0 at every v: Brent ends beside V, and neither end is smaller.
    (ComputerSpec(pi=1, beta=1, s=1, c=1, V=10), CostCoefficients(b=0.0), 1e6),
    # f is the constant latency g/c: same.
    (ComputerSpec(pi=1, beta=1, s=1, c=1, V=10), CostCoefficients(b=0.0, g=1.0, h=0.0), 1e6),
    # The wavefront is subnormal, so t_lat steps in v and f is flat to the last bit over
    # Brent's last tolerance before V, though f(V - 2*tol1) > f(V): a probe one full
    # Brent tolerance from V would certify V where Brent keeps an interior point.
    (ComputerSpec(pi=149261506.0859075, beta=623189.2667380801, s=183365.68680901767,
                  c=447787448.29447734, V=2.5025798577307014e+180),
     CostCoefficients(a=1.3895228847102092, p=0.05699535533402589, q=1.4217031998494074,
                      r=0.0, b=17.129092659741637, w=-0.7746915597457542,
                      l=0.33639914893498424, g=1.4236078439374062, h=-1.7595605707401947,
                      k=-0.2590215463498229, m=0.929363011657385),
     73648.72882936992),
], ids=["zero-f", "constant-f", "subnormal-wavefront"])
def test_certificate_does_not_claim_v_on_flat_f(spec, coeffs, n):
    cost = custom_cost(coeffs)
    v_star, _ = outcome(spec, cost, n)
    assert v_star < spec.V
    assert outcome(spec, cost, n) == brent_outcome(spec, cost, n)


def test_certificate_keeps_minimum_left_of_fft_kink():
    # The kink s*v = 4 sits at v = 0.95, just below V = 1. Left of it f rises to the
    # kink (t_lat outgrows the rest), right of it f falls to V, and the left minimum is
    # lower. A check near V alone would claim V.
    spec = ComputerSpec(pi=1e12, beta=1e11, s=4.2, c=1e3, V=1.0)
    v_star, total = outcome(spec, fft_cost(), 1e6)
    assert v_star < 4.0 / spec.s
    assert total < time_breakdown(spec, fft_cost(), 1e6, spec.V).total
    assert (v_star, total) == brent_outcome(spec, fft_cost(), 1e6)


@pytest.mark.parametrize("s", [5e-324, 1e300], ids=["4/s-overflows", "4/s-tiny"])
def test_kink_arithmetic_at_extreme_densities(s):
    # log(4/s) at the edges of the double range neither raises nor moves the answer.
    spec = dataclasses.replace(preset("ideal"), s=s)
    sol = optimal_volume(spec, fft_cost(), 1e9)
    assert sol.v_star == spec.V
    assert (sol.v_star, sol.breakdown.total) == brent_outcome(spec, fft_cost(), 1e9)
