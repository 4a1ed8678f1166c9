"""The names and formats of homlim that the benchmark under benchmarks/ relies on."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homlim.machines import parse_preset

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_inputs():
    spec = importlib.util.spec_from_file_location("benchmark_inputs",
                                                  ROOT / "benchmarks" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_patches():
    # The tracer looks homlim's functions up by name; a renamed or deleted one fails here.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    result = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install(cli=True)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_extra_preset_text_parses_to_its_totals(seed):
    cli = _benchmark_inputs().cli(seed)
    p = parse_preset(cli["extra_preset_text"], source="extra.preset")
    totals = cli["extra_preset"]
    got = {key: getattr(p, key) for key in totals if not key.startswith("distance_")}
    got.update(distance_prefactor=p.distance.prefactor, distance_exponent=p.distance.exponent)
    assert got == totals
