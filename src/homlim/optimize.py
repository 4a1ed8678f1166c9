"""Bounded one-dimensional minimization.

Brent's method (golden section with parabolic interpolation) plus both bracket
ends, with grid refinement as the fallback when Brent does not converge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

GOLDEN = 0.3819660112501051  # 2 - golden ratio; worst-case shrink per step
BRENT_REL_TOL, BRENT_ABS_TOL = 1e-9, 1e-12  # minimize_bounded's defaults; model's certificate too


class NonFiniteObjectiveError(ValueError):
    """The objective returned NaN or infinity at some point."""

    def __init__(self, x: float, value: float):
        super().__init__(f"objective returned non-finite value {value!r} at x={x!r}")
        self.x = x
        self.value = value


@dataclass(frozen=True)
class OptResult:
    """Outcome of a bounded scalar minimization."""

    x_star: float
    f_star: float
    iterations: int
    converged: bool
    method: str  # "brent" or "grid_refined"


def _checked(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise NonFiniteObjectiveError(x, fx)
    return fx


def minimize_bounded(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = BRENT_REL_TOL,
    max_iter: int = 200,
    abs_tol: float = BRENT_ABS_TOL,
) -> OptResult:
    """Minimize f on [lo, hi]: the best of Brent's point and both bracket ends.

    Brent stops one tolerance short of a bound, so the ends are tried too; an
    end where f raises ArithmeticError or is not finite is skipped.
    ``converged`` is False when max_iter ran out before the bracket shrank.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket: lo={lo!r} must be < hi={hi!r}")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")

    isfinite = math.isfinite
    a, b = lo, hi
    x = a + GOLDEN * (b - a)
    fx = _checked(f, x)
    w, fw = x, fx  # second best
    v, fv = x, fx  # third best
    d = e = 0.0
    converged = False
    it = 0

    for it in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        tol1 = rel_tol * abs(x) + abs_tol
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            converged = True
            break

        use_golden = True
        if abs(e) > tol1:
            # Parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < mid else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < mid else (a - x)
            d = GOLDEN * e

        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = f(u)
        if not isfinite(fu):
            raise NonFiniteObjectiveError(u, fu)

        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    for end in (lo, hi):
        try:
            f_end = f(end)
        except ArithmeticError:
            continue
        if math.isfinite(f_end) and f_end < fx:
            x, fx = end, f_end

    return OptResult(x_star=x, f_star=fx, iterations=it, converged=converged, method="brent")


def grid_refine(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: int = 256,
    rounds: int = 3,
) -> OptResult:
    """Repeated grid search, recursing on the bracket around the best sample.

    Robust against multimodal objectives; the result is never worse than the
    best grid sample seen. The grid is linear in x, so callers that search in
    log coordinates pass log bounds.
    """
    if points < 8:
        raise ValueError("points must be >= 8")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not lo < hi:
        raise ValueError(f"invalid bracket: lo={lo!r} must be < hi={hi!r}")
    import numpy as np  # on first use, so importing homlim does not load numpy

    best_x = lo
    best_f = math.inf
    evals = 0
    a, b = lo, hi
    for _ in range(rounds):
        grid = np.linspace(a, b, points)
        vals = [_checked(f, float(x)) for x in grid]
        evals += points
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_f = vals[i]
            best_x = float(grid[i])
        a = float(grid[max(i - 1, 0)])
        b = float(grid[min(i + 1, points - 1)])
        if not a < b:
            break

    return OptResult(x_star=best_x, f_star=best_f, iterations=evals, converged=True,
                     method="grid_refined")
