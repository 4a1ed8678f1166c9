"""The process that does one workload's work.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

It imports homlim from the checkout's src/, loads the preset registry and
builds the workload's inputs, then prints the line `ready`. With
--setup-only it stops there. Otherwise it repeats whole rounds of the
workload's ops until --seconds have passed. It writes the first round's
outputs to a file under out/ for run.py to check and prints one JSON line: the
timings, that file's path, whether every later round gave the same outputs,
its peak memory and, with --trace, the span statistics. Load is one process
with one thread; CLI calls run one at a time.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import inputs
from tracer import Tracer, merge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CLI_TIMEOUT_S = 60


def import_homlim(cli: bool):
    """homlim from this checkout's src/, never an installed copy."""
    if not (SRC / "homlim" / "__init__.py").is_file():
        sys.exit(f"worker: no homlim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import homlim
    if cli:
        import homlim.cli  # noqa: F401
    if Path(homlim.__file__).resolve().parent != SRC / "homlim":
        sys.exit(f"worker: imported homlim from {homlim.__file__}, not from {SRC}")
    return homlim


def make_cost(homlim, desc: dict):
    if desc["kind"] == "custom":
        return homlim.custom_cost(homlim.CostCoefficients(**desc["coeffs"]))
    return homlim.BUILTIN_COSTS[desc["kind"]]()


def peak_rss_mib(children: bool) -> float:
    """Peak resident memory of this process, or of its largest child.

    A process's ru_maxrss starts at the peak of the process that started it,
    so this process's own peak is read from VmHWM, which an exec resets. The
    cli worker stays small (it never imports numpy or homlim), so its
    children's ru_maxrss is their own.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# --- sweeps ----------------------------------------------------------------

class SweepWorkload:
    def __init__(self, homlim, inp: dict, tracer: Tracer | None):
        from homlim.sweep import AxisSpec, SweepGrid
        sweep = sys.modules["homlim.sweep"]
        self.calls = []
        for p in inp["panels"]:
            spec = homlim.preset(p["preset"])
            cost = make_cost(homlim, p["cost"])
            if tracer is not None:
                cost = tracer.wrap_cost(cost)
            grid = SweepGrid(axes=tuple(AxisSpec(name, *inputs.AXIS_DEFAULTS[name],
                                                 inputs.AXIS_POINTS, "log")
                                        for name in p["axes"]))
            # run_sweep is looked up per call, so a traced run sees the wrapper.
            self.calls.append(lambda g=grid, sp=spec, c=cost: sweep.run_sweep(g, sp, c))

    @staticmethod
    def summarize(records):
        rows = [[r.pi, r.beta, r.s, r.c, r.V, r.n, r.v_star, r.t_work, r.t_io, r.t_lat,
                 r.total, r.performance, r.regime, r.error] for r in records]
        return rows, len(rows), sum(row[13] is not None for row in rows)


# --- scaling ---------------------------------------------------------------

class ScalingWorkload:
    def __init__(self, homlim, inp: dict, tracer: Tracer | None):
        from homlim.sweep import AxisSpec
        self.scaling = sys.modules["homlim.scaling"]
        self.calls = []
        for c in inp["curves"]:
            spec = homlim.preset(c["preset"])
            cost = homlim.BUILTIN_COSTS[c["kernel"]]()
            if tracer is not None:
                cost = tracer.wrap_cost(cost)
            # The CLI's spacing: v0 = V*1e-6, log-spaced volumes from v0 to V.
            v0 = spec.V * self.scaling.DEFAULT_V0_FACTOR
            volumes = [float(v) for v in AxisSpec("v", v0, spec.V, c["points"], "log").values()]
            policy = self.scaling.KPolicy(c["policy"]) if c["kind"] == "weak" else None
            args = (c["kind"], spec, cost, c["n0"], v0, volumes, policy)
            self.calls.append(lambda a=args: self._curve(*a))

    def _point(self, kind, spec, cost, n0, v0, v, policy):
        sc = self.scaling
        if kind == "strong":
            eff = sc.strong_efficiency(spec, cost, n0, v0, v)
            return [v, n0, sc.time_breakdown(spec, cost, n0, v).total, eff]
        if kind == "weak":
            n = sc.scaled_problem_size(cost, policy, n0, v0, v)
            eff = sc.weak_efficiency(spec, cost, policy, n0, v0, v)
            return [v, n, sc.time_breakdown(spec, cost, n, v).total, eff]
        if kind == "amdahl":
            return [v, n0, None, sc.generalized_speedup(spec, cost, n0, v0, v)]
        return [v, n0, None, sc.scaled_speedup(spec, cost, n0, v0, v)]

    def _curve(self, kind, spec, cost, n0, v0, volumes, policy):
        points = []
        for v in volumes:
            try:
                points.append(self._point(kind, spec, cost, n0, v0, v, policy))
            except (ValueError, ArithmeticError) as exc:
                points.append(f"{type(exc).__name__}: {exc}")
        limit = (self.scaling.speedup_limit(spec, cost, n0, v0)
                 if kind in ("amdahl", "gustafson") else None)
        return {"v0": v0, "points": points, "limit": limit}

    @staticmethod
    def summarize(curve):
        points = curve["points"]
        return curve, len(points), sum(isinstance(p, str) for p in points)


# --- cli -------------------------------------------------------------------

class CliWorkload:
    def __init__(self, homlim, inp: dict, tracer: Tracer | None):
        self.traced = tracer is not None
        self.dir = OUT / f"cli-{os.getpid()}"
        presets = self.dir / "presets"
        presets.mkdir(parents=True, exist_ok=True)
        (presets / f"{inputs.EXTRA_PRESET}.preset").write_text(inp["extra_preset_text"])
        config = self.dir / "bench.cfg"
        config.write_text(inp["config_text"])
        base_env = {k: v for k, v in os.environ.items() if k != "HOMLIM_PRESET_PATH"}
        base_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([base_env["PYTHONPATH"]] if base_env.get("PYTHONPATH") else []))
        self.calls = []
        self.child_traces = []
        for i, call in enumerate(inp["calls"]):
            env = dict(base_env)
            if call.get("preset_path"):
                env["HOMLIM_PRESET_PATH"] = str(presets)
            if self.traced:
                env["BENCH_TRACE_OUT"] = str(self.dir / f"trace-{i}.json")
                argv = [sys.executable, str(HERE / "clitrace.py")]
            else:
                argv = [sys.executable, "-m", "homlim.cli"]
            argv = argv + inputs.cli_args(call, str(config))
            self.calls.append(lambda a=argv, e=env: self._call(a, e))

    def _call(self, argv, env):
        p = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                           text=True, timeout=CLI_TIMEOUT_S)
        if self.traced:
            self.child_traces.append(json.loads(Path(env["BENCH_TRACE_OUT"]).read_text()))
        return {"rc": p.returncode, "stdout": p.stdout, "stderr": p.stderr[-400:]}

    @staticmethod
    def summarize(result):
        return result, 1, int(result["rc"] != 0)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"sweep-builtin": SweepWorkload, "sweep-custom": SweepWorkload,
             "scaling": ScalingWorkload, "cli": CliWorkload}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    is_cli = args.workload == "cli"
    homlim = None
    if args.setup_only or not is_cli:
        # A CLI call pays for homlim.cli's import in its own process; the cli
        # worker itself only starts those processes.
        homlim = import_homlim(cli=is_cli)
        homlim.available_presets()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](homlim, inputs.build(args.workload, args.seed), tracer)
    ready_rss_mib = peak_rss_mib(children=False)
    print("ready", flush=True)
    try:
        if not args.setup_only:
            print(json.dumps(run(args, workload, tracer, ready_rss_mib)), flush=True)
    finally:
        if is_cli:
            workload.close()


def run(args, workload, tracer: Tracer | None, ready_rss_mib: float) -> dict:
    """Whole rounds of the workload's calls until --seconds have passed.

    Each call's outputs are summarized and dropped as soon as it returns, so
    that the worker's peak memory is homlim's and not the harness's: the
    first round's outputs go to a file for run.py to check, and later rounds
    are compared with it by a hash.
    """
    if tracer is not None and args.workload != "cli":
        tracer.install()
    OUT.mkdir(exist_ok=True)
    first_path = OUT / f"first-round-{os.getpid()}.jsonl"
    # Plain float arrays, so that a long run of short calls stays small.
    round_s, call_start, call_s = array("d"), array("d"), array("d")
    first_digest, identical = None, True
    ops = failed = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds or not round_s:
        digest = hashlib.sha256()
        busy = 0.0
        with open(first_path, "w") if not round_s else contextlib.nullcontext() as first:
            for call in workload.calls:
                t0 = time.perf_counter()
                result = call()
                dur = time.perf_counter() - t0
                busy += dur
                call_start.append(t0)
                call_s.append(dur)
                outputs, n_ops, n_failed = workload.summarize(result)
                del result
                ops += n_ops
                failed += n_failed
                line = json.dumps(outputs)
                digest.update(line.encode())
                if first is not None:
                    first.write(line + "\n")
        # A round's time is the time spent in its calls, without the bookkeeping.
        round_s.append(busy)
        if first_digest is None:
            first_digest = digest.digest()
        elif digest.digest() != first_digest:
            identical = False
    # Read before the result below is built.
    peak = peak_rss_mib(args.workload == "cli")
    out = {"rounds": len(round_s), "ops": ops, "failed": failed, "round_s": round_s.tolist(),
           "call_s": call_s.tolist(), "identical": identical, "ready_rss_mib": ready_rss_mib,
           "peak_rss_mib": peak, "first_round_path": str(first_path)}
    if tracer is not None:
        children = workload.child_traces if args.workload == "cli" else []
        out["trace"] = merge([tracer.dump()] + children)
        out["child_import_ms"] = [d["import_ms"] for d in children]
        calls_per_round = len(workload.calls)
        out["spans"] = [{"id": i, "round": i // calls_per_round, "call": i % calls_per_round,
                         "start_s": t0, "dur_s": d}
                        for i, (t0, d) in enumerate(zip(call_start, call_s))]
    return out


if __name__ == "__main__":
    main()
