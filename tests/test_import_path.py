"""numpy is loaded only by the commands that build axes: sweep, scale and laws."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `homlim` ARGS in this fresh interpreter and prints, one per line, whether
# numpy is loaded after `import homlim`, after `import homlim.cli` and after the command.
PROBE = """
import contextlib, io, sys
import homlim
print("numpy" in sys.modules)
import homlim.cli
print("numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    homlim.cli.main(args=sys.argv[1:], prog_name="homlim", standalone_mode=False)
print("numpy" in sys.modules)
"""

TOY_PRESET = ("name = toy\npi_total_flops = 1e15\nb_total_bytes = 8e12\n"
              "s_total_bytes = 8e9\nvolume = 1.0\nc = 3e8\n")


def _numpy_loaded(args: list[str], tmp_path: Path) -> list[bool]:
    (tmp_path / "run.cfg").write_text("machine = fugaku\nalg = fft\n")
    (tmp_path / "toy.preset").write_text(TOY_PRESET)
    env = {**os.environ, "PYTHONPATH": str(SRC), "HOMLIM_PRESET_PATH": str(tmp_path)}
    result = subprocess.run([sys.executable, "-c", PROBE, *args], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return [line == "True" for line in result.stdout.split()]


@pytest.mark.parametrize("args", [
    ["solve", "--machine", "frontier", "--n", "1e9"],
    ["solve", "--machine", "frontier", "--n", "1e9", "--format", "table"],
    ["solve", "--config", "run.cfg", "--n", "1e9"],
    ["solve", "--machine", "toy", "--n", "1e6"],
    ["machines", "list"],
    ["machines", "show", "frontier"],
], ids=["solve-json", "solve-table", "solve-config", "solve-path-preset",
        "machines-list", "machines-show"])
def test_command_never_loads_numpy(args, tmp_path):
    assert _numpy_loaded(args, tmp_path) == [False, False, False]


@pytest.mark.parametrize("args", [
    ["sweep", "--machine", "frontier", "--axis", "n"],
    ["scale", "--machine", "frontier", "--mode", "strong", "--n0", "1e9"],
    ["laws", "--machine", "frontier", "--law", "amdahl", "--n0", "1e9"],
], ids=["sweep", "scale", "laws"])
def test_axis_commands_take_values_from_numpy(args, tmp_path):
    assert _numpy_loaded(args, tmp_path) == [False, False, True]


def _top_level_imports(body):
    """The import statements that run when the module is imported: those outside
    function and class bodies and outside `if TYPE_CHECKING:` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _top_level_imports(node.body)
            yield from _top_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, *(h.body for h in node.handlers), node.orelse,
                          node.finalbody):
                yield from _top_level_imports(block)


@pytest.mark.parametrize("path", sorted((SRC / "homlim").glob("*.py")), ids=lambda p: p.name)
def test_no_top_level_numpy_import(path):
    for node in _top_level_imports(ast.parse(path.read_text()).body):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""])
        assert not any(n == "numpy" or n.startswith("numpy.") for n in names), (
            f"{path.name}:{node.lineno} imports numpy at top level")
