"""In-memory span tracer for the traced benchmark run.

Each public homlim function is replaced, in the namespace where its callers
look it up, by a wrapper that times the call. A call and its nested calls
form a tree of spans. With millions of nested spans per run, the tracer keeps
per span name the call count, total time and self time (total minus the time
of its child spans), and per (parent, child) pair the number of calls. The
benchmark's own top-level calls (sweep panels, scaling curves, CLI processes)
are kept whole. Everything stays in memory until the run writes it out.
"""
from __future__ import annotations

import dataclasses
import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns

# Relative margin by which a grid refinement must beat Brent's point to count
# as an improvement.
IMPROVED_REL = 1e-6
V_FLOOR_FACTOR = 1e-30
# Brent stops within its tolerance of a bound without landing on it, so a
# solve counts as pinned when v* is this close to V or to the floor, relatively.
BOUND_REL = 1e-6


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.edges: Counter = Counter()   # (parent name, child name) -> calls
        self.counts: Counter = Counter()  # outcome counters, e.g. optimize.bound.at_V
        self.stack: list[list] = []       # open spans: [name, child_ns]
        self.last_brent_f = None

    def wrap(self, name: str, fn, before=None, after=None):
        """fn timed as span `name`; before(args) may replace the arguments,
        after(result, args) inspects the result."""
        stats, edges, stack = self.stats, self.edges, self.stack

        def wrapped(*args, **kwargs):
            if before is not None:
                args = before(args)
            edges[(stack[-1][0] if stack else None, name)] += 1
            stack.append([name, 0])
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
            if after is not None:
                after(result, args)
            return result

        return wrapped

    # --- outcome hooks ---------------------------------------------------
    def _objective(self, args):
        return (self.wrap("model.objective", args[0]),) + tuple(args[1:])

    def _after_brent(self, result, args):
        self.last_brent_f = result.f_star
        if not result.converged:
            self.counts["optimize.brent.unconverged"] += 1

    def _after_grid(self, result, args):
        brent = self.last_brent_f
        if brent is not None and result.f_star < brent - IMPROVED_REL * abs(brent):
            self.counts["optimize.grid_refine.improved"] += 1

    def _after_solve(self, result, args):
        V = args[0].V
        if result.v_star >= V * (1.0 - BOUND_REL):
            self.counts["optimize.bound.at_V"] += 1
        elif result.v_star <= V * V_FLOOR_FACTOR * (1.0 + BOUND_REL):
            self.counts["optimize.bound.at_floor"] += 1
        else:
            self.counts["optimize.bound.interior"] += 1
        self.last_brent_f = None

    def _after_sweep(self, result, args):
        self.counts["sweep.points"] += len(result)
        self.counts["sweep.error_rows"] += sum(r.error is not None for r in result)

    def wrap_cost(self, cost):
        """An AlgorithmCost whose closures are spans; the name, and so the solver path, stays."""
        return dataclasses.replace(
            cost, io=self.wrap("costs.io", cost.io), work=self.wrap("costs.work", cost.work),
            wavefront=self.wrap("costs.wavefront", cost.wavefront),
            output_size=self.wrap("costs.output_size", cost.output_size))

    def install(self, cli: bool = False) -> None:
        """Patch homlim's public functions where their callers look them up."""
        hooks = {"optimize.brent": (self._objective, self._after_brent),
                 "optimize.grid_refine": (self._objective, self._after_grid),
                 "model.optimal_volume": (None, self._after_solve),
                 "sweep.run_sweep": (None, self._after_sweep)}
        model_fns = [("optimal_volume", "model.optimal_volume"),
                     ("time_breakdown", "model.time_breakdown")]
        scaling_fns = ["strong_efficiency", "weak_efficiency", "scaled_problem_size",
                       "generalized_speedup", "scaled_speedup", "speedup_limit"]
        targets = [("homlim.model", "minimize_bounded", "optimize.brent"),
                   ("homlim.model", "grid_refine", "optimize.grid_refine"),
                   ("homlim.model", "time_breakdown", "model.time_breakdown"),
                   ("homlim.sweep", "run_sweep", "sweep.run_sweep"),
                   ("homlim.scaling", "invert_k", "scaling.invert_k"),
                   ("homlim.scaling", "k_value", "scaling.k_value"),
                   ("homlim.machines", "available_presets", "machines.available_presets"),
                   ("homlim.machines", "get_preset", "machines.get_preset")]
        targets += [(mod, attr, span) for mod in ("homlim.sweep", "homlim.scaling")
                    for attr, span in model_fns]
        targets += [("homlim.scaling", fn, f"scaling.{fn}") for fn in scaling_fns]
        if cli:
            targets += [("homlim.cli", attr, span) for attr, span in model_fns]
            targets += [("homlim.cli", "run_sweep", "sweep.run_sweep"),
                        ("homlim.cli", "available_presets", "machines.available_presets"),
                        ("homlim.cli", "get_preset", "machines.get_preset"),
                        ("homlim.cli", "preset", "machines.preset")]
            targets += [("homlim.cli", fn, f"scaling.{fn}") for fn in scaling_fns]
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            before, after = hooks.get(span, (None, None))
            setattr(module, attr, self.wrap(span, getattr(module, attr), before, after))
        if cli:
            costs = importlib.import_module("homlim.costs")
            cli_module = importlib.import_module("homlim.cli")
            for key, factory in list(costs.BUILTIN_COSTS.items()):
                costs.BUILTIN_COSTS[key] = (lambda f=factory: self.wrap_cost(f()))
            custom = cli_module.custom_cost
            cli_module.custom_cost = lambda coeffs: self.wrap_cost(custom(coeffs))

    def dump(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "edges": [[p, c, n] for (p, c), n in self.edges.items()],
                "counts": dict(self.counts)}


def merge(dumps: list[dict]) -> dict:
    """Sum several dumps, e.g. those of the CLI child processes."""
    stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    edges: Counter = Counter()
    counts: Counter = Counter()
    for d in dumps:
        for k, v in d["stats"].items():
            stats[k] = [a + b for a, b in zip(stats[k], v)]
        for p, c, n in d["edges"]:
            edges[(p, c)] += n
        counts.update(d["counts"])
    return {"stats": dict(stats), "edges": [[p, c, n] for (p, c), n in edges.items()],
            "counts": dict(counts)}


def layer_metrics(dump: dict, ops: int, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timed phase; per-round counts repeat exactly."""
    stats = {k: tuple(v) for k, v in dump["stats"].items()}
    edges = {(p, c): n for p, c, n in dump["edges"]}
    counts = dump["counts"]

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def total_us(name):
        return stats.get(name, (0, 0, 0))[1] / 1e3

    def self_us(prefix):
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix)) / 1e3

    def per(x, base):
        return x / base if base else 0.0

    cost_calls = sum(v[0] for k, v in stats.items() if k.startswith("costs."))
    cost_us = sum(v[1] for k, v in stats.items() if k.startswith("costs.")) / 1e3
    solves = calls("model.optimal_volume")
    brent_evals = edges.get(("optimize.brent", "model.objective"), 0)
    grid_evals = edges.get(("optimize.grid_refine", "model.objective"), 0)
    grids = calls("optimize.grid_refine")
    points = counts.get("sweep.points", 0)
    presets = calls("machines.available_presets")
    inverts = calls("scaling.invert_k")
    return {
        "costs.calls_per_op": (per(cost_calls, ops), "count"),
        "costs.us_per_call": (per(cost_us, cost_calls), "us"),
        "model.time_breakdown.calls_per_op": (per(calls("model.time_breakdown"), ops), "count"),
        "model.time_breakdown.self_us": (per(stats.get("model.time_breakdown", (0, 0, 0))[2] / 1e3,
                                             calls("model.time_breakdown")), "us"),
        "model.optimal_volume.us_per_call": (per(total_us("model.optimal_volume"), solves), "us"),
        "optimize.evals_per_solve": (per(brent_evals + grid_evals, solves), "count"),
        "optimize.brent.evals_per_solve": (per(brent_evals, solves), "count"),
        "optimize.self_us_per_solve": (per(self_us("optimize."), solves), "us"),
        "optimize.grid_refine.calls_per_solve": (per(grids, solves), "count"),
        "optimize.grid_refine.evals_per_solve": (per(grid_evals, solves), "count"),
        "optimize.grid_refine.improved_ratio":
            (per(counts.get("optimize.grid_refine.improved", 0), grids), "ratio"),
        "optimize.bound.interior": (per(counts.get("optimize.bound.interior", 0), rounds), "count"),
        "optimize.bound.at_V": (per(counts.get("optimize.bound.at_V", 0), rounds), "count"),
        "optimize.bound.at_floor": (per(counts.get("optimize.bound.at_floor", 0), rounds), "count"),
        "optimize.brent.unconverged":
            (per(counts.get("optimize.brent.unconverged", 0), rounds), "count"),
        "scaling.invert_k.calls_per_op": (per(inverts, ops), "count"),
        "scaling.invert_k.k_evals_per_call":
            (per(edges.get(("scaling.invert_k", "scaling.k_value"), 0), inverts), "count"),
        "scaling.invert_k.us_per_call": (per(total_us("scaling.invert_k"), inverts), "us"),
        "scaling.self_us_per_op": (per(self_us("scaling."), ops), "us"),
        "sweep.self_us_per_point": (per(self_us("sweep."), points), "us"),
        "sweep.error_rows": (per(counts.get("sweep.error_rows", 0), rounds), "count"),
        "machines.available_presets.calls_per_op": (per(presets, ops), "count"),
        "machines.available_presets.us_per_call":
            (per(total_us("machines.available_presets"), presets), "us"),
    }
