"""The names and formats of homlim that the benchmark under benchmarks/ relies on."""
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homlim.machines import parse_preset, preset

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "homlim" / "data"


@functools.cache
def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
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
    cli = _benchmark_module("inputs").cli(seed)
    p = parse_preset(cli["extra_preset_text"], source="extra.preset")
    totals = cli["extra_preset"]
    got = {key: getattr(p, key) for key in totals if not key.startswith("distance_")}
    got.update(distance_prefactor=p.distance.prefactor, distance_exponent=p.distance.exponent)
    assert got == totals


@pytest.mark.parametrize("path", sorted(DATA.glob("*.preset")), ids=lambda path: path.stem)
def test_oracle_reads_builtin_preset_as_homlim_does(path):
    # The oracle reads the built-in files with float() and its own defaults, so a unit
    # suffix or a missing key that homlim accepts fails here, not only in a benchmark run.
    oracle = _benchmark_module("oracle")
    values = oracle.read_key_values(path.read_text())
    m, spec = oracle.medium_from_totals(values), preset(values["name"])
    assert (m.pi, m.beta, m.s, m.c, m.V) == (spec.pi, spec.beta, spec.s, spec.c, spec.V)
    assert (m.prefactor, m.exponent) == (spec.distance.prefactor, spec.distance.exponent)
