"""Strong/weak parallel efficiency and the generalized Amdahl/Gustafson laws.

Efficiencies evaluate f at the given volumes as-is; the laws need f only at (v0, n0).
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from enum import Enum

from .costs import AlgorithmCost
from .model import ComputerSpec, EvaluationError, time_breakdown
from .model import optimal_volume  # noqa: F401  (benchmarks/tracer.py patches it here)

# Scaling baseline when no explicit v0 is given.
DEFAULT_V0_FACTOR = 1e-6
# Largest log(n) with n representable as a double.
LOG_N_MAX = math.log(sys.float_info.max)
INVERT_REL_TOL = 1e-9  # invert_k stops when K(n) is within this fraction of the target,
INVERT_MAX_ITER = 400  # or after this many bisection steps.


class KPolicy(Enum):
    """Which problem metric is held constant per unit volume in weak scaling."""

    OUTPUT_SIZE = "output"
    INPUT_N = "n"
    WORK = "work"


def k_value(policy: KPolicy, cost: AlgorithmCost, n: float) -> float:
    """K(n) under the policy; inf when it overflows a double."""
    try:
        if policy is KPolicy.OUTPUT_SIZE:
            return cost.output_size(n)
        if policy is KPolicy.INPUT_N:
            return float(n)
        return cost.work(n)
    except OverflowError:
        return math.inf


def invert_k(policy: KPolicy, cost: AlgorithmCost, target: float) -> float:
    """Solve K(n) = target for n by monotone bisection in log(n)."""
    if target <= 0:
        raise ValueError("target must be positive")
    k1 = k_value(policy, cost, 1.0)
    if k1 > target * (1.0 + INVERT_REL_TOL):
        raise ValueError(f"target {target!r} below K(1)={k1!r}")

    lo = 0.0  # log n
    hi = math.log(2.0)
    while k_value(policy, cost, math.exp(hi)) < target:
        if hi == LOG_N_MAX:
            raise EvaluationError(f"target {target!r} above K(n) for every representable n")
        lo = hi
        hi = min(2.0 * hi, LOG_N_MAX)

    for _ in range(INVERT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        k = k_value(policy, cost, math.exp(mid))
        if abs(k - target) <= INVERT_REL_TOL * target:
            return math.exp(mid)
        if k < target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _check_volumes(spec: ComputerSpec, v0: float, volumes: Sequence[float]) -> None:
    """Every volume must lie in [v0, V]; checked before any f is evaluated."""
    for v in volumes:
        if v < v0:
            raise ValueError(f"v={v!r} must be >= v0={v0!r}")
        if not v <= spec.V:
            raise ValueError(f"active volume v={v!r} outside (0, V={spec.V!r}]")


def scaling_curve(spec: ComputerSpec, cost: AlgorithmCost, n0: float, v0: float,
                  volumes: Sequence[float], k: KPolicy | None = None) -> Iterator[tuple]:
    """(v, n, f(v, n), efficiency) per volume: strong scaling at n = n0 when k is None, else weak.

    Checks every volume against [v0, V], then n0 by evaluating f(v0, n0) once, then inverts K.
    """
    _check_volumes(spec, v0, volumes)
    f0 = time_breakdown(spec, cost, n0, v0).total
    for v in volumes:
        n = n0 if k is None else scaled_problem_size(cost, k, n0, v0, v)
        fv = time_breakdown(spec, cost, n, v).total
        efficiency = (f0 * v0) / (fv * v) if k is None else fv / f0
        yield v, n, fv, efficiency


def strong_efficiency(spec: ComputerSpec, cost: AlgorithmCost, n: float,
                      v0: float, v: float) -> float:
    """P_eff = f(v0)*v0 / (f(v)*v) at fixed problem size."""
    return next(scaling_curve(spec, cost, n, v0, (v,)))[3]


def weak_efficiency(spec: ComputerSpec, cost: AlgorithmCost, k: KPolicy,
                    n0: float, v0: float, v: float) -> float:
    """P_weak = f(v, n) / f(v0, n0) with n solved from K(n)/v = K(n0)/v0."""
    return next(scaling_curve(spec, cost, n0, v0, (v,), k))[3]


def scaled_problem_size(cost: AlgorithmCost, k: KPolicy, n0: float,
                        v0: float, v: float) -> float:
    """The problem size the K policy assigns to volume v."""
    return invert_k(k, cost, k_value(k, cost, n0) * v / v0)


def _speedups(spec: ComputerSpec, cost: AlgorithmCost, n0: float, v0: float,
              volumes: Sequence[float], law: str):
    """The breakdown of f(v0, n0) and (v, speedup) per volume; see speedup_curve."""
    if law not in ("amdahl", "gustafson"):
        raise ValueError(f"law={law!r} must be 'amdahl' or 'gustafson'")
    _check_volumes(spec, v0, volumes)
    b = time_breakdown(spec, cost, n0, v0)
    t = b.t_lat / b.total  # the sequential fraction at (v0, n0)
    points = []
    for v in volumes:
        speedup = (1.0 / (v0 / v + (1.0 - v0 / v) * t) if law == "amdahl"
                   else v / v0 + (1.0 - v / v0) * t)
        if not math.isfinite(speedup):
            raise EvaluationError(f"{law} speedup={speedup!r} is not representable (v={v!r})")
        points.append((v, speedup))
    return b, points


def speedup_curve(spec: ComputerSpec, cost: AlgorithmCost, n0: float, v0: float,
                  volumes: Sequence[float], law: str) -> tuple[float, list[tuple[float, float]]]:
    """The limit T(v0)/T_L(v0) (inf only when T_L == 0) and (v, speedup) per volume under one law.

    law is "amdahl" (generalized_speedup) or "gustafson" (scaled_speedup). Checks every
    volume against [v0, V], then evaluates f(v0, n0) once; a speedup that is not finite, or a
    limit that overflows a double, is an EvaluationError.
    """
    b, points = _speedups(spec, cost, n0, v0, volumes, law)
    limit = math.inf if b.t_lat == 0.0 else b.total / b.t_lat
    if math.isinf(limit) and b.t_lat:
        raise EvaluationError(f"speedup limit T/T_L = {b.total!r}/{b.t_lat!r} overflows a double")
    return limit, points


def generalized_speedup(spec: ComputerSpec, cost: AlgorithmCost, n: float,
                        v0: float, v: float) -> float:
    """Amdahl generalized: 1 / (v0/v + (1 - v0/v) * T_L(v0)/T(v0))."""
    return _speedups(spec, cost, n, v0, (v,), "amdahl")[1][0][1]


def speedup_limit(spec: ComputerSpec, cost: AlgorithmCost, n: float, v0: float) -> float:
    """T(v0)/T_L(v0), the ceiling of the generalized speedup; inf when T_L == 0."""
    return speedup_curve(spec, cost, n, v0, (), "amdahl")[0]


def scaled_speedup(spec: ComputerSpec, cost: AlgorithmCost, n0: float,
                   v0: float, v: float) -> float:
    """Gustafson generalized: v/v0 + (1 - v/v0) * T_L(v0)/T(v0)."""
    return _speedups(spec, cost, n0, v0, (v,), "gustafson")[1][0][1]
