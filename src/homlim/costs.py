"""Kernel cost models: I/O volume Q, flop count W, and dependency wavefront L.

Every kernel is one row of the CostCoefficients family

    Q(n, S) = max(a * n^p * log_S(n)^m / S^q + r*S, 0),  log_S(n) = log2(n) / log2(max(S, 4))
    W(n)    = b * n^w * log2(n)^l
    L(v, n) = g * v^h / n^k
    output  = n^out_exp

of the problem size n, the effective fast memory S (words) and the active
volume v. The built-in kernels are the rows of BUILTIN_COEFFS, and custom_cost
turns any row into a cost. All word counts assume IEEE double precision words.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import partial
from typing import Callable

# Floor on S in the log_S(n) denominator; avoids the log(S) singularity for absurdly small s*v.
# s*v = 4 is the family's only point where f' (in log v) jumps down; model._certified_end needs it.
FFT_MIN_FAST_MEMORY = 4.0


@dataclass(frozen=True)
class AlgorithmCost:
    """Cost triple of one kernel, plus its output size for weak scaling."""

    name: str
    io: Callable[[float, float], float]          # (n, S) -> words moved
    work: Callable[[float], float]               # n -> flops
    wavefront: Callable[[float, float], float]   # (v, n) -> dependency volume
    output_size: Callable[[float], float]        # n -> words of output


@dataclass(frozen=True)
class CostCoefficients:
    """One row of the cost family in the module docstring.

    Every field must be finite. Q is clamped at zero. a, b, g must be non-negative;
    q >= 0, m >= 0 and r <= 0 so that Q is non-increasing in S.
    """

    a: float = 0.0
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    b: float = 1.0
    w: float = 1.0
    l: float = 0.0
    g: float = 0.0
    h: float = 1.0
    k: float = 0.0
    out_exp: float = 1.0
    m: float = 0.0

    def __post_init__(self):
        for field, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"CostCoefficients.{field} must be finite, got {value!r}")
        for field in ("a", "b", "g"):
            if getattr(self, field) < 0:
                raise ValueError(f"coefficient {field} must be non-negative")
        for field in ("q", "m"):
            if getattr(self, field) < 0:
                raise ValueError(f"exponent {field} must be non-negative (Q non-increasing in S)")
        if self.r > 0:
            raise ValueError("coefficient r must be non-positive (Q non-increasing in S)")


# Non-Strassen matrix multiply; one CG iteration without the matrix (L = 2v is the dot
# products' reduce-and-broadcast); radix-2 FFT, whose Q is the Hong-Kung bound.
BUILTIN_COEFFS: dict[str, CostCoefficients] = {
    "mxm": CostCoefficients(a=2.0, p=3.0, q=0.5, r=-3.0, b=2.0, w=3.0, g=1.0, h=1.0, k=1.0,
                            out_exp=2.0),
    "cg": CostCoefficients(a=7.0, p=1.0, r=-4.0, b=17.0, w=1.0, g=2.0, h=1.0),
    "fft": CostCoefficients(a=2.0, p=1.0, m=1.0, r=-2.0, b=8.0 / 3.0, w=1.0, l=1.0, g=1.0,
                            h=1.0),
}


# What plain floating point raises where the log domain may still give a value.
_PLAIN_FAILURES = (OverflowError, ZeroDivisionError)


def _powprod(scale: float, *pairs: tuple[float, float]) -> float:
    """scale * prod(base**exp) through logs; OverflowError when it does not fit a double,
    or when a zero base has a negative exponent."""
    if scale == 0.0:
        return 0.0
    acc = math.log(scale)
    for base, exp in pairs:
        if exp != 0.0:
            acc += exp * (math.log(base) if base > 0.0 else -math.inf)
    if not acc < math.inf:
        raise OverflowError("cost overflowed a double")
    return math.exp(acc)  # raises OverflowError above the largest double


def custom_cost(coeffs: CostCoefficients, name: str = "CUSTOM") -> AlgorithmCost:
    """The cost of one CostCoefficients row.

    Each term is computed in plain floating point, left to right. Only when that
    overflows, divides by zero or is not finite is it recomputed by _powprod.
    """
    a, p, q, r, b, w, l, g, h, k, e, m = astuple(coeffs)
    root = q == 0.5  # S**0.5 and sqrt(S) differ in the last bit for some S
    log2, sqrt, isfinite, inf = math.log2, math.sqrt, math.isfinite, math.inf

    def io(n: float, S: float) -> float:
        # The conditionals are max(S, FFT_MIN_FAST_MEMORY) and max(x, 0.0) without a call.
        try:
            x = a * n**p
            if m:
                x = x * log2(n)**m / log2(FFT_MIN_FAST_MEMORY if FFT_MIN_FAST_MEMORY > S else S)**m
            if q:
                x = x / (sqrt(S) if root else S**q)
        except _PLAIN_FAILURES:
            x = inf
        if not isfinite(x):
            x = _powprod(a, (n, p), (log2(n), m), (log2(max(S, FFT_MIN_FAST_MEMORY)), -m),
                         (S, -q))
        x = x + r * S
        return 0.0 if 0.0 > x else x

    def work(n: float) -> float:
        try:
            x = b * n**w
            if l:
                x = x * log2(n)**l
        except _PLAIN_FAILURES:
            x = inf
        return x if isfinite(x) else _powprod(b, (n, w), (log2(n), l))

    def wavefront(v: float, n: float) -> float:
        try:
            x = g * v**h
            if k:
                x = x / n**k
        except _PLAIN_FAILURES:
            x = inf
        return x if isfinite(x) else _powprod(g, (v, h), (n, -k))

    def output_size(n: float) -> float:
        try:
            x = n**e
        except _PLAIN_FAILURES:
            x = inf
        return x if isfinite(x) else _powprod(1.0, (n, e))

    return AlgorithmCost(name, io, work, wavefront, output_size)


BUILTIN_COSTS: dict[str, Callable[[], AlgorithmCost]] = {
    key: partial(custom_cost, coeffs, key.upper()) for key, coeffs in BUILTIN_COEFFS.items()}
mxm_cost, cg_cost, fft_cost = BUILTIN_COSTS.values()
