"""Run one homlim CLI call with the tracer installed (the traced cli workload).

    BENCH_TRACE_OUT=trace.json python3 benchmarks/clitrace.py ARGS...

Behaves like `python -m homlim.cli ARGS...` and, on exit, writes the span
statistics and the time to import homlim.cli to BENCH_TRACE_OUT.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import homlim.cli  # noqa: E402

_T_CLI = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install(cli=True)
    code = 0
    try:
        homlim.cli.main(args=sys.argv[1:], prog_name="homlim")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        dump = tracer.dump()
        dump["import_ms"] = (_T_CLI - _T0) * 1e3
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
