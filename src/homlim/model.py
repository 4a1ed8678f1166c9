"""The homogeneous computer: run-time decomposition and optimal active volume.

A computation on active volume v of a medium with densities (pi, beta, s)
takes the additive time

    f(v) = W(n)/(pi*v) + Q(n, s*v)/(beta*v) + D(L(v, n))/c

and the best-case run time minimizes f over 0 < v <= V. The formula has one
definition, _f_terms, which evaluates W(n) once per (spec, cost, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .costs import FFT_MIN_FAST_MEMORY, AlgorithmCost, _powprod
from .optimize import (BRENT_ABS_TOL, BRENT_REL_TOL, GOLDEN, OptResult, grid_refine,
                       minimize_bounded)

# Smallest active volume considered, as a fraction of V (the feasible set is
# an open interval at zero).
V_FLOOR_FACTOR = 1e-30


class EvaluationError(ArithmeticError):
    """A time component is not representable as a finite double."""


class OptimizationError(ArithmeticError):
    """Volume minimization failed; the EvaluationError that stopped it is the cause."""


def require_positive_finite(obj, names) -> None:
    """Raise ValueError naming the first of obj's fields `names` that is not positive and finite."""
    for name in names:
        value = getattr(obj, name)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{type(obj).__name__}.{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class DistanceFn:
    """Farthest signal-travel distance across a wavefront volume L: prefactor * L**exponent."""

    prefactor: float = 1.0
    exponent: float = 1.0 / 3.0

    def __post_init__(self):
        require_positive_finite(self, ("prefactor", "exponent"))


CUBE_ROOT = DistanceFn(1.0, 1.0 / 3.0)   # 3D medium
SQUARE_ROOT = DistanceFn(1.0, 0.5)       # 2D floor plan


@dataclass(frozen=True)
class ComputerSpec:
    """A homogeneous computing medium.

    pi:   compute density, flop / (volume-unit s)
    beta: external-memory bandwidth density, word / (volume-unit s)
    s:    local memory density, word / volume-unit
    c:    signal propagation speed, m/s
    V:    total volume (m^2 for 2D machines, m^3 for 3D)
    """

    pi: float
    beta: float
    s: float
    c: float
    V: float
    distance: DistanceFn = CUBE_ROOT

    def __post_init__(self):
        require_positive_finite(self, ("pi", "beta", "s", "c", "V"))


class Regime(Enum):
    """Which additive time component dominates."""

    COMPUTE_BOUND = "compute-bound"
    MEMORY_BOUND = "memory-bound"
    LATENCY_BOUND = "latency-bound"


@dataclass(frozen=True)
class TimeBreakdown:
    """The three additive times of one evaluation, all in seconds."""

    t_work: float
    t_io: float
    t_lat: float
    total: float
    v_used: float
    performance: float  # flop/s, W(n)/total


def _ratio(num: float, d1: float, d2: float) -> float:
    # num / (d1*d2) with a log-domain fallback so intermediates never
    # overflow when the result itself is representable; inf when it is not
    # (a volume that underflowed to 0.0 included).
    if num == 0.0:
        return 0.0
    try:
        out = num / d1 / d2
    except ZeroDivisionError:
        return math.inf
    if math.isfinite(out):
        return out
    try:
        return _powprod(num, (d1, -1.0), (d2, -1.0))
    except OverflowError:
        return math.inf


def _f_terms(spec: ComputerSpec, cost: AlgorithmCost, n: float):
    """W(n) and v -> (t_work, t_io, t_lat, total): the one definition of f, built per solve.

    Only the per-volume function raises EvaluationError: when a cost overflows a double
    (W(n) included, at the first v asked for) or the total is not finite.
    """
    if not 1.0 <= n < math.inf:
        raise ValueError(f"problem size n={n!r} must be finite and >= 1")
    io, wavefront = cost.io, cost.wavefront
    pi, beta, s, c = spec.pi, spec.beta, spec.s, spec.c
    prefactor, exponent = spec.distance.prefactor, spec.distance.exponent
    try:
        W, overflow = cost.work(n), None
    except OverflowError as exc:
        W, overflow = math.inf, exc

    def terms(v: float) -> tuple[float, float, float, float]:
        try:
            if overflow:
                raise overflow
            Q, L = io(n, s * v), wavefront(v, n)
            try:
                t_lat = prefactor * L**exponent / c
            except OverflowError:  # L**exponent alone may overflow where t_lat fits
                t_lat = math.inf
            if not math.isfinite(t_lat):
                t_lat = _powprod(prefactor, (L, exponent), (c, -1.0))
        except OverflowError as exc:
            raise EvaluationError(f"cost overflowed a double (n={n!r}, v={v!r})") from exc
        t_work, t_io = _ratio(W, pi, v), _ratio(Q, beta, v)
        total = t_work + t_io + t_lat
        if not math.isfinite(total):  # finite iff every term is; name the first that is not
            for name, value in (("t_work", t_work), ("t_io", t_io), ("t_lat", t_lat),
                                ("total", total)):
                if not math.isfinite(value):
                    raise EvaluationError(
                        f"{name}={value!r} is not representable (n={n!r}, v={v!r})")
        return t_work, t_io, t_lat, total

    return W, terms


def _breakdown(W: float, terms, v: float) -> TimeBreakdown:
    """The TimeBreakdown at v of the f that _f_terms built."""
    t_work, t_io, t_lat, total = terms(v)
    return TimeBreakdown(t_work, t_io, t_lat, total, v, W / total if total > 0 else math.inf)


def time_breakdown(spec: ComputerSpec, cost: AlgorithmCost, n: float, v: float) -> TimeBreakdown:
    """Evaluate the run-time decomposition at a given active volume."""
    if not (0.0 < v <= spec.V):
        raise ValueError(f"active volume v={v!r} outside (0, V={spec.V!r}]")
    return _breakdown(*_f_terms(spec, cost, n), v)


def classify_regime(b: TimeBreakdown) -> Regime:
    """Dominant component; ties break COMPUTE > MEMORY > LATENCY."""
    if b.t_work >= b.t_io and b.t_work >= b.t_lat:
        return Regime.COMPUTE_BOUND
    if b.t_io >= b.t_lat:
        return Regime.MEMORY_BOUND
    return Regime.LATENCY_BOUND


@dataclass(frozen=True)
class VolumeSolution:
    """Optimal active volume with its breakdown and optimizer diagnostics."""

    v_star: float
    breakdown: TimeBreakdown
    opt: OptResult


def _certified_end(objective, lo: float, hi: float, x_kink: float) -> OptResult | None:
    """V or the floor, as Brent plus its end checks return them, when f falls toward V.

    f is convex in x = log v on each side of the FFT kink x_kink, where f' jumps down. If f
    falls over the last step before V, and before the kink when it is in (x1, V), f falls from
    Brent's first point x1 to V and Brent ends beside V. That assumes Brent evaluates no point
    within its tol1 of V (tests/test_optimize.py pins it); step is half that. None (run Brent)
    if a probe past x1 raises, a check fails, or the kink is within a step of x1 or V.
    """
    x1 = lo + GOLDEN * (hi - lo)
    objective(x1)  # unguarded: a failing solve fails where Brent's would
    step = 0.5 * (BRENT_REL_TOL * abs(hi) + BRENT_ABS_TOL)
    try:
        f_hi = objective(hi)
        if not objective(hi - step) > f_hi:  # strict: on a flat f Brent keeps an interior point
            return None
        if min(abs(x_kink - x1), abs(x_kink - hi)) < step or (
                x1 < x_kink < hi and objective(x_kink - step) < objective(x_kink)):
            return None
    except ArithmeticError:
        return None
    try:
        f_lo = objective(lo)
    except ArithmeticError:
        f_lo = math.inf
    x, fx = (lo, f_lo) if f_lo <= f_hi else (hi, f_hi)
    return OptResult(x_star=x, f_star=fx, iterations=0, converged=True, method="brent")


def optimal_volume(spec: ComputerSpec, cost: AlgorithmCost, n: float) -> VolumeSolution:
    """Minimize total time over the active volume, searching in log(v).

    A convexity certificate of at most six probes first settles the solves where f falls
    toward V, returning what Brent would; every other solve, and every one that fails,
    runs Brent's method plus the two bracket ends, and grid refinement only when Brent
    does not converge. f is built once per solve, so W(n) is evaluated once: the
    breakdown at v* comes from the same W and terms the search used. A bad n is a
    ValueError; an EvaluationError becomes the cause of an OptimizationError.
    """
    W, terms = _f_terms(spec, cost, n)
    lo = math.log(spec.V) + math.log(V_FLOOR_FACTOR)
    hi = math.log(spec.V)

    def volume(x: float) -> float:
        # The bracket ends are the floor and V exactly; exp can miss them by an ulp.
        if x <= lo:
            return spec.V * V_FLOOR_FACTOR
        return spec.V if x >= hi else min(math.exp(x), spec.V)

    def objective(x: float) -> float:
        return terms(volume(x))[3]

    try:
        # f is convex in log v on each side of s*v = 4, a kink only for rows with m > 0.
        x_kink = math.log(FFT_MIN_FAST_MEMORY) - math.log(spec.s)  # never overflows
        result = _certified_end(objective, lo, hi, x_kink) or minimize_bounded(objective, lo, hi)
        if not result.converged:
            result = grid_refine(objective, lo, hi)
    except EvaluationError as exc:
        raise OptimizationError(f"volume minimization failed: {exc}") from exc

    v_star = volume(result.x_star)
    return VolumeSolution(v_star=v_star, breakdown=_breakdown(W, terms, v_star), opt=result)
