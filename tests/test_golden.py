"""Golden CLI output: the stdout of a fixed set of commands, byte for byte.

After an intended output change, rewrite tests/golden/NAME.txt with the stdout
of `homlim ARGS` (run from the repository root) and review the diff.
"""
from pathlib import Path

import pytest
from click.testing import CliRunner

from homlim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "solve-pinned-json": ["solve", "--machine", "frontier", "--alg", "mxm", "--n", "1e9"],
    "solve-interior-json": ["solve", "--machine", "frontier", "--alg", "cg", "--n", "1e9"],
    "solve-ideal-table": ["solve", "--alg", "fft", "--n", "1e9", "--format", "table"],
    # 4/s overflows to inf, and 4/s = 4e-300: the FFT kink lies far outside [1e-30*V, V].
    "solve-fft-s-subnormal": ["solve", "--alg", "fft", "--n", "1e9", "--s", "5e-324"],
    "solve-fft-s-huge": ["solve", "--alg", "fft", "--n", "1e9", "--s", "1e300"],
    "solve-custom-table": ["solve", "--config", str(GOLDEN / "custom.cfg"), "--n", "1e6",
                           "--format", "table"],
    "sweep-readme": ["sweep", "--machine", "frontier,fugaku", "--alg", "mxm,cg,fft",
                     "--axis", "n:1e3:1e30:20"],
    "sweep-ideal": ["sweep", "--alg", "mxm,cg,fft", "--axis", "n:1e3:1e30:20"],
    "sweep-errors": ["sweep", "--machine", "frontier", "--alg", "mxm",
                     "--axis", "n:1e100:1e120:3"],
    "sweep-custom": ["sweep", "--config", str(GOLDEN / "custom.cfg"),
                     "--axis", "n:1e3:1e30:20"],
    "scale-strong": ["scale", "--machine", "frontier", "--alg", "cg", "--mode", "strong",
                     "--n0", "1e12"],
    "scale-weak": ["scale", "--machine", "fugaku", "--alg", "fft", "--mode", "weak",
                   "--n0", "1e9", "--k", "output"],
    "scale-weak-work": ["scale", "--machine", "frontier", "--alg", "mxm", "--mode", "weak",
                        "--n0", "1e6", "--k", "work"],
    "scale-weak-n": ["scale", "--machine", "dgx-gh200", "--alg", "cg", "--mode", "weak",
                     "--n0", "1e9", "--k", "n"],
    "scale-strong-custom": ["scale", "--config", str(GOLDEN / "custom.cfg"), "--mode", "strong",
                            "--n0", "1e6"],
    "laws-amdahl": ["laws", "--law", "amdahl", "--machine", "fugaku", "--alg", "cg",
                    "--n0", "1e9"],
    "laws-gustafson": ["laws", "--law", "gustafson", "--machine", "frontier", "--alg", "fft",
                       "--n0", "1e9"],
    "laws-custom": ["laws", "--config", str(GOLDEN / "custom.cfg"), "--law", "amdahl",
                    "--n0", "1e6", "--v0", "1e-6", "--v", "1e-6,1e-4,0.01,0.5,6.9"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    result = CliRunner().invoke(main, CASES[name])
    assert result.exit_code == 0, result.output
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text()
