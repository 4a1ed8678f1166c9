import dataclasses
import math
import re
from unittest import mock

import pytest

import homlim.model
from homlim.costs import AlgorithmCost, CostCoefficients, cg_cost, custom_cost, mxm_cost
from homlim.model import (CUBE_ROOT, ComputerSpec, DistanceFn, EvaluationError,
                          OptimizationError, Regime, SQUARE_ROOT, classify_regime,
                          optimal_volume, time_breakdown)
from homlim.machines import preset

# Constant-cost kernel: W = 1, Q = 1 regardless of S, L = v.
UNIT_COST = AlgorithmCost(
    name="UNIT",
    io=lambda n, S: 1.0,
    work=lambda n: 1.0,
    wavefront=lambda v, n: v,
    output_size=lambda n: n,
)


def _t_lat(distance: DistanceFn, L: float, c: float = 1.0) -> float:
    """t_lat = D(L)/c, as the model evaluates it, for a wavefront of L at every volume."""
    spec = ComputerSpec(pi=1, beta=1, s=1, c=c, V=1e300, distance=distance)
    cost = dataclasses.replace(UNIT_COST, wavefront=lambda v, n: L)
    return time_breakdown(spec, cost, n=1, v=1.0).t_lat


def test_distance_fn():
    assert _t_lat(CUBE_ROOT, 8.0) == pytest.approx(2.0)
    assert _t_lat(SQUARE_ROOT, 9.0) == pytest.approx(3.0)
    assert _t_lat(CUBE_ROOT, 0.0) == 0.0
    assert _t_lat(CUBE_ROOT, 27.0, c=3.0) == pytest.approx(1.0)
    # L**exponent overflows a double, the distance does not.
    assert _t_lat(DistanceFn(1e-300, 2.0), 2e200) == pytest.approx(4e100, rel=1e-12)
    # The distance overflows a double, t_lat = D/c does not.
    assert _t_lat(DistanceFn(1e-90, 2.0), 1e200, c=1e20) == pytest.approx(1e290, rel=1e-12)
    with pytest.raises(EvaluationError, match="cost overflowed a double"):
        _t_lat(DistanceFn(1e-10, 2.0), 1e200)
    with pytest.raises(ValueError):
        DistanceFn(prefactor=-1.0)
    with pytest.raises(ValueError):
        DistanceFn(exponent=0.0)


def test_spec_validation_names_field():
    with pytest.raises(ValueError, match="pi"):
        ComputerSpec(pi=0.0, beta=1, s=1, c=1, V=1)
    with pytest.raises(ValueError, match="V"):
        ComputerSpec(pi=1, beta=1, s=1, c=1, V=-2.0)
    with pytest.raises(ValueError, match="beta"):
        ComputerSpec(pi=1, beta=math.inf, s=1, c=1, V=1)


def test_unit_breakdown():
    # All unit densities with the constant cost: each component is exactly 1.
    spec = ComputerSpec(pi=1, beta=1, s=1, c=1, V=10, distance=CUBE_ROOT)
    b = time_breakdown(spec, UNIT_COST, n=1, v=1.0)
    assert b.t_work == 1.0
    assert b.t_io == 1.0
    assert b.t_lat == 1.0
    assert b.total == 3.0
    assert b.performance == pytest.approx(1.0 / 3.0)
    assert b.v_used == 1.0


def test_fugaku_cg_hand_evaluation():
    # Straight-line evaluation of the decomposition with the preset's numbers.
    spec = preset("fugaku")
    cost = cg_cost()
    n, v = 1e12, spec.V
    W = 17.0 * n
    S = spec.s * v
    Q = max(7.0 * n - 4.0 * S, 0.0)
    t_work = W / (spec.pi * v)
    t_io = Q / (spec.beta * v)
    t_lat = math.sqrt(2.0 * v) / spec.c
    b = time_breakdown(spec, cost, n, v)
    assert b.t_work == pytest.approx(t_work, rel=1e-12)
    assert b.t_io == pytest.approx(t_io, rel=1e-12)
    assert b.t_lat == pytest.approx(t_lat, rel=1e-12)
    assert b.total == pytest.approx(t_work + t_io + t_lat, rel=1e-12)
    assert b.performance == pytest.approx(W / b.total, rel=1e-12)


def test_domain_errors():
    spec = ComputerSpec(pi=1, beta=1, s=1, c=1, V=10)
    with pytest.raises(ValueError):
        time_breakdown(spec, UNIT_COST, n=1, v=0.0)
    with pytest.raises(ValueError):
        time_breakdown(spec, UNIT_COST, n=1, v=11.0)
    with pytest.raises(ValueError):
        time_breakdown(spec, UNIT_COST, n=0.5, v=1.0)


def test_extreme_ranges_no_spurious_overflow():
    # Densities at the corners of their ranges; intermediates would overflow
    # naively but each time component is representable.
    spec = ComputerSpec(pi=1e-30, beta=1e-30, s=1e-30, c=3e8, V=1e-14)
    b = time_breakdown(spec, cg_cost(), n=1e30, v=1e-14)
    assert all(math.isfinite(x) for x in (b.t_work, b.t_io, b.t_lat, b.total))


def test_nonrepresentable_raises_evaluation_error():
    spec = ComputerSpec(pi=1e-300, beta=1, s=1, c=1, V=1.0)
    big = AlgorithmCost("BIG", io=lambda n, S: 0.0, work=lambda n: 1e300,
                        wavefront=lambda v, n: v, output_size=lambda n: n)
    with pytest.raises(EvaluationError):
        time_breakdown(spec, big, n=2, v=1e-30)


def test_regime_classification_and_tiebreak():
    from homlim.model import TimeBreakdown

    def b(w, q, l):
        return TimeBreakdown(w, q, l, w + q + l, 1.0, 1.0)

    assert classify_regime(b(3, 1, 1)) is Regime.COMPUTE_BOUND
    assert classify_regime(b(1, 3, 1)) is Regime.MEMORY_BOUND
    assert classify_regime(b(1, 1, 3)) is Regime.LATENCY_BOUND
    # Ties break toward COMPUTE, then MEMORY.
    assert classify_regime(b(2, 2, 1)) is Regime.COMPUTE_BOUND
    assert classify_regime(b(1, 2, 2)) is Regime.MEMORY_BOUND
    assert classify_regime(b(2, 1, 2)) is Regime.COMPUTE_BOUND


def test_optimal_volume_unit_cost_closed_form():
    # f(v) = 2/v + v (unit cost, D = identity-ish): minimum at v = sqrt(2).
    spec = ComputerSpec(pi=1, beta=1, s=1, c=1, V=10,
                        distance=DistanceFn(1.0, 1.0))
    sol = optimal_volume(spec, UNIT_COST, n=1)
    assert sol.v_star == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert sol.breakdown.total == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
    assert sol.opt.converged


def test_optimal_volume_clips_at_total_volume():
    # Tiny V forces the optimum to the boundary.
    spec = ComputerSpec(pi=1, beta=1, s=1, c=1, V=1e-3,
                        distance=DistanceFn(1.0, 1.0))
    sol = optimal_volume(spec, UNIT_COST, n=1)
    assert sol.v_star == pytest.approx(spec.V, rel=1e-6)


def test_optimal_volume_pinned_at_v_is_exact():
    spec = preset("frontier")
    sol = optimal_volume(spec, mxm_cost(), 1e9)
    assert sol.v_star == spec.V


@pytest.mark.parametrize("cost", [cg_cost(), mxm_cost()], ids=["interior", "pinned"])
def test_solution_breakdown_is_time_breakdown_at_v_star(cost):
    # The solve builds its breakdown from the f it searched; it equals a fresh evaluation.
    spec = preset("frontier")
    sol = optimal_volume(spec, cost, 1e9)
    assert sol.breakdown == time_breakdown(spec, cost, 1e9, sol.v_star)


def io_calls(spec, cost, n, certify=True):
    """Calls to cost.io during one solve, the closing breakdown included; with
    certify=False the convexity certificate is off and Brent runs alone."""
    calls = []
    counted = dataclasses.replace(cost, io=lambda n, S: calls.append(S) or cost.io(n, S))
    with mock.patch.object(homlim.model, "_certified_end",
                           homlim.model._certified_end if certify else lambda *args: None):
        optimal_volume(spec, counted, n)
    return len(calls)


def test_pinned_solve_is_certified_in_a_few_evaluations():
    # CG at n = 1e20 on Frontier: v* = V, and the FFT kink lies inside the bracket, so the
    # certificate probes x1, V, V - step, both sides of the kink and the floor, plus the
    # closing breakdown: 7 calls, where Brent alone makes more than 50.
    spec, n = preset("frontier"), 1e20
    assert optimal_volume(spec, cg_cost(), n).v_star == spec.V
    assert io_calls(spec, cg_cost(), n) <= 7
    assert io_calls(spec, cg_cost(), n, certify=False) > 50


def test_interior_solve_pays_at_most_three_probes():
    # CG at n = 1e9 on Frontier is interior: the certificate fails at V after three probes.
    spec, n = preset("frontier"), 1e9
    assert optimal_volume(spec, cg_cost(), n).v_star < spec.V
    assert io_calls(spec, cg_cost(), n) <= io_calls(spec, cg_cost(), n, certify=False) + 3


def test_cost_overflow_raises_evaluation_error():
    # 2*n**3 overflows a double for n above about 5.6e102.
    with pytest.raises(EvaluationError):
        time_breakdown(preset("frontier"), mxm_cost(), 1e120, 1.0)


@pytest.mark.parametrize("spec, cost, n", [
    # t_work = 1e300/(1e-300*v) is not a double at any v <= V.
    (ComputerSpec(pi=1e-300, beta=1, s=1, c=1, V=1.0),
     custom_cost(CostCoefficients(b=1e300, w=0.0)), 2.0),
    # W(n) = 2*n**3 itself overflows, before any volume is tried.
    (preset("frontier"), mxm_cost(), 1e120),
], ids=["t_work-inf-everywhere", "work-overflow"])
def test_failed_solve_carries_time_breakdown_error(spec, cost, n):
    with pytest.raises(OptimizationError) as failed:
        optimal_volume(spec, cost, n)
    cause = failed.value.__cause__
    assert isinstance(cause, EvaluationError)
    v = float(re.search(r"v=([^)]+)\)$", str(cause)).group(1))
    with pytest.raises(EvaluationError) as direct:
        time_breakdown(spec, cost, n, v)
    assert str(cause) == str(direct.value)
    assert str(failed.value) == f"volume minimization failed: {direct.value}"


def test_optimization_error_is_arithmetic_error():
    assert issubclass(OptimizationError, ArithmeticError)


@pytest.mark.parametrize("n", [0.5, math.inf, math.nan])
def test_bad_problem_size_is_value_error_on_every_path(n):
    spec = ComputerSpec(pi=1, beta=1, s=1, c=1, V=10)
    with pytest.raises(ValueError, match="must be finite and >= 1"):
        optimal_volume(spec, cg_cost(), n)
    with pytest.raises(ValueError, match="must be finite and >= 1"):
        time_breakdown(spec, cg_cost(), n, 1.0)


def test_optimal_volume_never_exceeds_v():
    spec = preset("frontier")
    for n in (1e3, 1e9, 1e15, 1e24):
        sol = optimal_volume(spec, mxm_cost(), n)
        assert 0.0 < sol.v_star <= spec.V


def test_optimal_volume_custom_cost_beats_manual_scan():
    from homlim.costs import CostCoefficients, custom_cost

    spec = ComputerSpec(pi=1, beta=1, s=1, c=1, V=10)
    cost = custom_cost(CostCoefficients(a=1.0, p=1.0, b=1.0, w=1.0, g=1.0, h=1.0))
    sol = optimal_volume(spec, cost, n=100)
    assert sol.opt.method == "brent"
    # Result beats a coarse manual scan.
    import numpy as np
    manual = min(time_breakdown(spec, cost, 100, float(v)).total
                 for v in np.logspace(-12, 1, 2000))
    assert sol.breakdown.total <= manual * (1 + 1e-6)
