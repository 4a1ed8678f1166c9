"""homlim: best-case run times and scaling limits on a homogeneous computer.

A computation of W flops moving Q words through a dependency wavefront L,
executed on an active volume v of a medium with compute density pi, bandwidth
density beta, memory density s, and signal speed c, takes

    f(v) = W/(pi*v) + Q(s*v)/(beta*v) + D(L(v))/c.

This package minimizes f over the active volume, sweeps the parameter space,
evaluates strong/weak scaling efficiencies and the generalized Amdahl and
Gustafson laws, and ships presets for real machines.
"""
from .costs import (AlgorithmCost, BUILTIN_COSTS, CostCoefficients, cg_cost,
                    custom_cost, fft_cost, mxm_cost)
from .machines import MachinePreset, available_presets, get_preset, parse_preset, preset
from .model import (CUBE_ROOT, ComputerSpec, DistanceFn, EvaluationError,
                    OptimizationError, Regime, SQUARE_ROOT, TimeBreakdown,
                    VolumeSolution, classify_regime, optimal_volume,
                    time_breakdown)
from .optimize import OptResult, grid_refine, minimize_bounded
from .scaling import (DEFAULT_V0_FACTOR, KPolicy, generalized_speedup,
                      invert_k, k_value, scaling_curve, scaled_problem_size,
                      scaled_speedup, speedup_curve, speedup_limit,
                      strong_efficiency, weak_efficiency)
from .sweep import AxisSpec, SweepGrid, SweepRecord, peak_performance_over_n, run_sweep

__version__ = "1.0.0"

__all__ = [
    "AlgorithmCost", "BUILTIN_COSTS", "CostCoefficients", "cg_cost",
    "custom_cost", "fft_cost", "mxm_cost",
    "MachinePreset", "available_presets", "get_preset", "parse_preset", "preset",
    "CUBE_ROOT", "ComputerSpec", "DistanceFn", "EvaluationError",
    "OptimizationError", "Regime", "SQUARE_ROOT", "TimeBreakdown",
    "VolumeSolution", "classify_regime", "optimal_volume", "time_breakdown",
    "OptResult", "grid_refine", "minimize_bounded",
    "DEFAULT_V0_FACTOR", "KPolicy", "generalized_speedup", "scaling_curve", "speedup_curve",
    "invert_k", "k_value", "scaled_problem_size",
    "scaled_speedup", "speedup_limit", "strong_efficiency", "weak_efficiency",
    "AxisSpec", "SweepGrid", "SweepRecord", "peak_performance_over_n", "run_sweep",
    "__version__",
]
