"""Cartesian parameter sweeps over computer parameters and problem sizes."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import TYPE_CHECKING, Sequence

from .costs import AlgorithmCost
from .model import ComputerSpec, classify_regime, optimal_volume, time_breakdown

if TYPE_CHECKING:
    import numpy as np

AXIS_PARAMETERS = ("pi", "beta", "s", "c", "V", "n", "v")
_SPEC_PARAMETERS = AXIS_PARAMETERS[:5]  # the ComputerSpec fields; n and v are the point's
DEFAULT_POINT_CAP = 1_000_000

# Default axis ranges: 20 log-spaced points per parameter.
DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "pi": (1e-30, 1e30),
    "beta": (1e-30, 1e30),
    "s": (1e-30, 1e30),
    "V": (1e-14, 1e14),
    "n": (1e3, 1e30),
}


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: either a lo/hi/points range or explicit values."""

    name: str
    lo: float = 0.0
    hi: float = 0.0
    points: int = 20
    spacing: str = "log"  # "log" or "linear"
    explicit: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.name not in AXIS_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.name!r}; one of {AXIS_PARAMETERS}")
        if self.explicit is not None:
            if len(self.explicit) < 1:
                raise ValueError("explicit axis needs at least one value")
            return
        if not self.lo < self.hi:
            raise ValueError(f"axis {self.name}: lo must be < hi")
        if self.points < 2:
            raise ValueError(f"axis {self.name}: points must be >= 2")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"axis {self.name}: spacing must be 'log' or 'linear'")
        if self.spacing == "log" and self.lo <= 0:
            raise ValueError(f"axis {self.name}: log spacing needs lo > 0")

    @classmethod
    def default(cls, name: str) -> "AxisSpec":
        """20 log-spaced points over DEFAULT_RANGES[name]; v and c have no default range."""
        if name not in DEFAULT_RANGES and name in AXIS_PARAMETERS:
            raise ValueError(f"sweep parameter {name!r} has no default range; give NAME:LO:HI:POINTS")
        lo, hi = DEFAULT_RANGES.get(name, (1.0, 2.0))  # __post_init__ refuses an unknown name
        return cls(name, lo, hi, 20, "log")

    def values(self) -> np.ndarray:
        import numpy as np  # on first use, so importing homlim does not load numpy

        if self.explicit is not None:
            return np.asarray(self.explicit, dtype=float)
        if self.spacing == "log":
            values = np.logspace(math.log10(self.lo), math.log10(self.hi), self.points)
            values[[0, -1]] = self.lo, self.hi  # logspace can miss its ends by an ulp
            return values
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepGrid:
    """Axes (row-major, declaration order) plus fixed values; a parameter is one or the other."""

    axes: tuple[AxisSpec, ...] = ()
    fixed: dict[str, float] = field(default_factory=dict)
    cap: int = DEFAULT_POINT_CAP

    def __post_init__(self):
        if len(self.axes) > 3:
            raise ValueError("at most 3 swept axes per run")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate sweep axes")
        for key in self.fixed:
            if key not in AXIS_PARAMETERS:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if key in names:
                raise ValueError(f"sweep parameter {key!r} is both fixed and swept")
        if "n" not in self.fixed and "n" not in names:
            raise ValueError("problem size n must be fixed or swept")

    def size(self) -> int:
        """Point count, from the axis specs alone (no axis is built)."""
        return math.prod(a.points if a.explicit is None else len(a.explicit)
                         for a in self.axes)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: inputs, optimal (or fixed) volume, times, regime."""

    pi: float
    beta: float
    s: float
    c: float
    V: float
    n: float
    v_star: float
    t_work: float
    t_io: float
    t_lat: float
    total: float
    performance: float
    regime: str
    error: str | None = None


def _point_record(template: ComputerSpec, cost: AlgorithmCost,
                  point: dict[str, float]) -> SweepRecord:
    """The row of one grid point: its inputs, then the breakdown at the optimal volume, or
    at v when v is given; NaN results and the error text when the spec or f fails."""
    inputs = {name: float(point[name]) if name in point else getattr(template, name)
              for name in _SPEC_PARAMETERS}
    n, v = float(point["n"]), point.get("v")
    try:
        spec = replace(template, **inputs)
        b = (optimal_volume(spec, cost, n).breakdown if v is None
             else time_breakdown(spec, cost, n, float(v)))
    except (ValueError, ArithmeticError) as exc:
        nan = math.nan
        return SweepRecord(**inputs, n=n, v_star=nan, t_work=nan, t_io=nan, t_lat=nan,
                           total=nan, performance=nan, regime="error", error=str(exc))
    return SweepRecord(**inputs, n=n, v_star=b.v_used, t_work=b.t_work, t_io=b.t_io,
                       t_lat=b.t_lat, total=b.total, performance=b.performance,
                       regime=classify_regime(b).value)


def run_sweep(grid: SweepGrid, spec_template: ComputerSpec,
              cost: AlgorithmCost) -> list[SweepRecord]:
    """One record per grid point, row-major over axes in declaration order.

    v_star comes from the volume minimization unless 'v' is swept or fixed, in
    which case the evaluation is at the given volume. Per-point failures are
    recorded in-line with an error marker.
    """
    if grid.size() > grid.cap:
        raise ValueError(f"sweep size {grid.size()} exceeds cap {grid.cap}")
    names = [a.name for a in grid.axes]
    return [_point_record(spec_template, cost, {**grid.fixed, **dict(zip(names, combo))})
            for combo in product(*(a.values() for a in grid.axes))]


def peak_performance_over_n(spec: ComputerSpec, cost: AlgorithmCost,
                            n_lo: float = 1e3, n_hi: float = 1e30,
                            points: int = 20) -> tuple[float, float]:
    """Sweep n log-spaced, optimizing v at each n; return (n_peak, perf_peak)."""
    best_n, best_perf = n_lo, -math.inf
    for n in AxisSpec("n", n_lo, n_hi, points).values():
        sol = optimal_volume(spec, cost, float(n))
        if sol.breakdown.performance > best_perf:
            best_n, best_perf = float(n), sol.breakdown.performance
    return best_n, best_perf


def saturation_point(records: Sequence[SweepRecord],
                     rel_improvement: float = 0.01) -> int | None:
    """First index along a single-axis sweep where one more grid step improves
    total time by less than rel_improvement; None when it never saturates."""
    totals = [r.total for r in records]
    for i in range(len(totals) - 1):
        if totals[i] - totals[i + 1] < rel_improvement * totals[i]:
            return i
    return None
