"""homlim runs without numpy: no module names it, and no command loads it or needs it."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `homlim` ARGS in this fresh interpreter, with numpy unimportable when the first
# argument is "without-numpy". The command's output goes to stdout; then whether numpy
# is loaded goes to stderr.
PROBE = """
import sys
if sys.argv[1] == "without-numpy":
    sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
import homlim.cli
homlim.cli.main(args=sys.argv[2:], prog_name="homlim", standalone_mode=False)
print(sys.modules.get("numpy") is not None, file=sys.stderr)
"""

TOY_PRESET = ("name = toy\npi_total_flops = 1e15\nb_total_bytes = 8e12\n"
              "s_total_bytes = 8e9\nvolume = 1.0\nc = 3e8\n")


def _run(mode: str, args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    (tmp_path / "run.cfg").write_text("machine = fugaku\nalg = fft\n")
    (tmp_path / "toy.preset").write_text(TOY_PRESET)
    env = {**os.environ, "PYTHONPATH": str(SRC), "HOMLIM_PRESET_PATH": str(tmp_path)}
    return subprocess.run([sys.executable, "-c", PROBE, mode, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args", [
    ["solve", "--machine", "frontier", "--n", "1e9"],
    ["solve", "--machine", "frontier", "--n", "1e9", "--format", "table"],
    ["solve", "--config", "run.cfg", "--n", "1e9"],
    ["solve", "--machine", "toy", "--n", "1e6"],
    ["machines", "list"],
    ["machines", "show", "frontier"],
    ["sweep", "--machine", "frontier", "--axis", "n"],
    ["scale", "--machine", "frontier", "--mode", "strong", "--n0", "1e9"],
    ["laws", "--machine", "frontier", "--law", "amdahl", "--n0", "1e9"],
], ids=["solve-json", "solve-table", "solve-config", "solve-path-preset",
        "machines-list", "machines-show", "sweep", "scale", "laws"])
def test_command_never_loads_numpy(args, tmp_path):
    plain = _run("plain", args, tmp_path)
    blocked = _run("without-numpy", args, tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert plain.stderr == blocked.stderr == "False\n"
    assert plain.stdout
    assert blocked.stdout == plain.stdout


@pytest.mark.parametrize("path", sorted((SRC / "homlim").glob("*.py")), ids=lambda p: p.name)
def test_no_top_level_numpy_import(path):
    # Stricter than its name: numpy appears nowhere in the module, so no import of it,
    # at top level or deferred into a function, can run.
    assert "numpy" not in path.read_text()
