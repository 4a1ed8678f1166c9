"""Property: whatever text a numeric option gets, the CLI exits 0, 1 or 2 and
never lets a Python exception escape; laws prints only finite numbers when it exits 0."""
import math
import re
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import homlim.cli
import homlim.sweep
from homlim.cli import main

# Digits, number punctuation, the list and range separators, and the letters of
# the unit suffixes.
TEXT = st.text("0123456789.eE+-:,/PTGMKBflopsmc", min_size=1, max_size=8)

COMMANDS = {
    "solve-n": lambda t: ["solve", "--n", t],
    "solve-v": lambda t: ["solve", "--n", "1e6", "--v", t],
    "solve-pi": lambda t: ["solve", "--n", "1e6", "--pi", t],
    "sweep-n": lambda t: ["sweep", "--n", t],
    "sweep-axis": lambda t: ["sweep", "--axis", "n:" + t],
    "sweep-axis-name": lambda t: ["sweep", "--n", "1e6", "--axis", t],
    "scale-v": lambda t: ["scale", "--mode", "strong", "--n0", "1e6", "--v", t],
    "laws-n0": lambda t: ["laws", "--law", "amdahl", "--n0", t],
    "laws-v": lambda t: ["laws", "--machine", "frontier", "--law", "gustafson", "--n0", "1e3",
                         "--v", t],
    "laws-v0": lambda t: ["laws", "--machine", "frontier", "--law", "amdahl", "--n0", "1e3",
                          "--v0", t],
}


def _numbers(output: str) -> list[float]:
    """Every token of the output that parses as a float, inf and nan included."""
    numbers = []
    for token in re.split(r"[\s,=]+", output):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(text=TEXT)
@example(text="1e-310").via("a subnormal volume")  # v/v0 overflows when it is v0
@example(text="1e400").via("a volume that overflows a double")
@example(text="v").via("an axis name without a default range")  # TEXT has no v
@example(text="c").via("an axis name without a default range")
def test_exit_code_contract(command, text):
    # A small sweep cap keeps each example fast; a grid above it takes the same
    # exit-2 path as one above the default cap.
    with mock.patch.object(homlim.sweep, "DEFAULT_POINT_CAP", 64):
        result = CliRunner().invoke(main, COMMANDS[command](text))
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{type(result.exception).__name__}: {result.exception}")
    if command.startswith("laws") and result.exit_code == 0:
        assert all(math.isfinite(x) for x in _numbers(result.output)), result.output
