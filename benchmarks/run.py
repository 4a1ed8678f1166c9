"""homlim benchmark: one workload, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-builtin, sweep-custom, scaling, cli (see README.md). The run
times several fresh set-ups, then one worker process that repeats whole rounds
of the workload's ops for S seconds, and checks the first round's outputs
against the oracle. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Nothing needs installing:
homlim is imported from the checkout's src/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import oracle
import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "homlim" / "data"
OUT = HERE / "out"
SETUP_REPEATS = 8
PROBE_REPEATS = 5
WORKER_GRACE_S = 150  # on top of --seconds: set-up, the last round, output

# Timed in a fresh interpreter: numpy's import, then homlim.cli's on top of it.
IMPORT_PROBE = ("import time, json; t0 = time.perf_counter(); import numpy; "
                "t1 = time.perf_counter(); import homlim.cli; t2 = time.perf_counter(); "
                "print(json.dumps([(t1 - t0) * 1e3, (t2 - t0) * 1e3]))")


class WorkerError(RuntimeError):
    pass


def start_worker(args, *extra: str) -> subprocess.Popen:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Everything the process prints after its ready line; kills it after `timeout`."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"worker exited with code {code}")
    return rest


def read_ready(proc: subprocess.Popen, timeout: float) -> None:
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not get ready (printed {line!r})")


def setup_seconds(args, repeats: int) -> list[float]:
    """Fresh interpreter to ready-for-the-first-op, `repeats` times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = start_worker(args, "--setup-only")
        read_ready(proc, 60)
        times.append(time.perf_counter() - t0)
        finish(proc, 60)
    return times


def probe_ms(argv: list[str], env: dict | None = None) -> tuple[float, str]:
    t0 = time.perf_counter()
    p = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                       timeout=60, check=True)
    return (time.perf_counter() - t0) * 1e3, p.stdout


def cli_layer_metrics(workload: str, result: dict,
                      first_round: list) -> dict[str, tuple[float, str]]:
    """Interpreter start and imports, from fresh processes; command time on cli."""
    interp = statistics.median(probe_ms([sys.executable, "-c", "pass"])[0]
                               for _ in range(PROBE_REPEATS))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = [json.loads(probe_ms([sys.executable, "-c", IMPORT_PROBE], env)[1])
               for _ in range(PROBE_REPEATS)]
    command_ms = stdout_bytes = 0.0
    if workload == "cli":
        calls = len(first_round)
        walls = [s * 1e3 for s in result["call_s"]]
        command_ms = statistics.median(
            w - interp - imp for w, imp in zip(walls, result["child_import_ms"]))
        stdout_bytes = sum(len(r["stdout"].encode()) for r in first_round) / calls
    return {"cli.interp_ms": (interp, "ms"),
            "cli.import_ms": (statistics.median(i[1] for i in imports), "ms"),
            "cli.import_numpy_ms": (statistics.median(i[0] for i in imports), "ms"),
            "cli.command_ms": (command_ms, "ms"),
            "cli.stdout_bytes_per_op": (stdout_bytes, "byte")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "homlim" / "__init__.py").is_file():
        print(f"run.py: no homlim sources under {SRC}", file=sys.stderr)
        return 2
    checker = checks.Checker(DATA)
    try:
        oracle.self_test(checker.media)
    except oracle.OracleError as exc:
        print(f"run.py: oracle self-test failed: {exc}", file=sys.stderr)
        return 3

    try:
        # Half the set-ups before the timed phase and half after it, so that
        # their median spans the run as ops_per_s does.
        setups = [] if args.trace else setup_seconds(args, SETUP_REPEATS // 2)
        proc = start_worker(args, *(["--trace"] if args.trace else []))
        read_ready(proc, 60)
        result = json.loads(finish(proc, args.seconds + WORKER_GRACE_S).splitlines()[-1])
        if not args.trace:
            setups += setup_seconds(args, SETUP_REPEATS - SETUP_REPEATS // 2)
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 4

    first_path = Path(result["first_round_path"])
    first_round = [json.loads(line) for line in first_path.read_text().splitlines()]
    first_path.unlink()
    errors = checker.check(args.workload, inputs.build(args.workload, args.seed), first_round)
    if not result["identical"]:
        errors.append("a later round's outputs differ from the first round's")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    ops = result["ops"]
    # Ops over the time spent in calls. A shared host runs in fast and slow
    # spells of several seconds; the mean over the whole phase weighs them by
    # their length, where a median over rounds would jump from one to the other.
    ops_per_s = ops / sum(result["round_s"])
    if args.trace:
        layers = tracer.layer_metrics(result["trace"], ops, result["rounds"])
        layers.update(cli_layer_metrics(args.workload, result, first_round))
        layers["trace.ops_per_s"] = (ops_per_s, "op/s")
    else:
        layers = {"ops_per_s": (ops_per_s, "op/s"),
                  "call_p50_ms": (statistics.median(result["call_s"]) * 1e3, "ms"),
                  "setup_s": (statistics.median(setups), "s"),
                  "peak_rss_mib": (result["peak_rss_mib"], "MiB")}
    summary = {"correct": not errors, "attempted": ops, "failed": result["failed"],
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**summary, "rounds": result["rounds"], "round_s": result["round_s"],
              "setup_s": setups, "ready_rss_mib": result["ready_rss_mib"], "errors": errors}
    if args.trace:
        record.update(trace=result["trace"], spans=result["spans"])
    (OUT / f"result-{stem}.json").write_text(json.dumps(record))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
