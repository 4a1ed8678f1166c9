import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from homlim.cli import main
from homlim.machines import (DEFAULT_WORD_BYTES, MachinePreset, PRESET_PATH_ENV,
                             available_presets, get_preset, parse_preset, parse_quantity,
                             preset, read_key_values)
from homlim.model import CUBE_ROOT, ComputerSpec, DistanceFn

BUILTIN_NAMES = {"ideal", "frontier", "fugaku", "dgx-gh200",
                 "a100-homogeneous", "a100-homogeneous-1e9"}


def test_builtin_registry():
    names = set(available_presets())
    assert names == BUILTIN_NAMES


def test_frontier_densities():
    spec = preset("frontier")
    V = 370.0
    assert spec.pi == pytest.approx(1.102e18 / V)
    assert spec.beta == pytest.approx(1.223e17 / 8 / V)
    assert spec.s == pytest.approx(3.1e12 / 8 / V)
    assert spec.c == 1e6
    assert spec.V == V
    assert spec.distance.exponent == pytest.approx(0.5)


def test_fugaku_and_dgx_totals():
    fug = get_preset("fugaku")
    assert fug.pi_total_flops == pytest.approx(4.88e17)
    assert fug.b_total_bytes == pytest.approx(1.63e17)
    assert fug.s_total_bytes == pytest.approx(5.6e12)
    assert fug.volume == 1920.0
    dgx = get_preset("dgx-gh200")
    assert dgx.pi_total_flops == pytest.approx(2.59e16)
    assert dgx.volume == pytest.approx(6.9)


def test_ideal_is_the_unit_medium():
    assert preset("ideal") == ComputerSpec(1.0, 1.0, 1.0, 3e8, 1e6, CUBE_ROOT)


def test_a100_chip_densities():
    spec = preset("a100-homogeneous")
    assert spec.pi == pytest.approx(30e12 / 826e-6)
    assert spec.beta == pytest.approx(1550e9 / 8 / 826e-6)
    assert spec.s == pytest.approx(60e6 / 8 / 826e-6)


def test_a100_presets_scale_by_1e9():
    base = preset("a100-homogeneous")
    big = preset("a100-homogeneous-1e9")
    assert big.pi / base.pi == pytest.approx(1e9, rel=1e-9)
    assert big.beta / base.beta == pytest.approx(1e9, rel=1e-9)
    assert big.s / base.s == pytest.approx(1e9, rel=1e-9)
    assert big.V == base.V
    assert big.c == base.c


def test_parse_preset_round_trip():
    text = """
    # a comment
    name = toy
    pi_total_flops = 1e15
    b_total_bytes = 8e12   # trailing comment
    s_total_bytes = 8e9
    volume = 2.0
    c = 1e6
    distance_exponent = 0.5
    notes = hello world
    """
    p = parse_preset(text, source="toy")
    assert p.name == "toy"
    spec = p.to_spec()
    assert spec.pi == pytest.approx(5e14)
    assert spec.beta == pytest.approx(5e11)
    assert spec.s == pytest.approx(5e8)
    assert p.notes == "hello world"
    assert p.word_bytes == DEFAULT_WORD_BYTES


def test_parse_preset_errors():
    with pytest.raises(ValueError, match="missing"):
        parse_preset("name = x\nc = 1")
    with pytest.raises(ValueError, match="key=value"):
        parse_preset("name x")
    with pytest.raises(ValueError, match="numeric"):
        parse_preset("name=x\npi_total_flops=abc\nb_total_bytes=1\n"
                     "s_total_bytes=1\nvolume=1\nc=1")


def test_read_key_values():
    text = "# header\n a = 1 \n\nb=x # trailing\nc = d = e\n"
    assert read_key_values(text) == {"a": "1", "b": "x", "c": "d = e"}
    with pytest.raises(ValueError, match=r"run.cfg:2: expected key=value"):
        read_key_values("a = 1\nb\n", source="run.cfg")
    with pytest.raises(ValueError, match=r"run.cfg:3: key 'a' given twice"):
        read_key_values("a = 1\nb = 2\n a=3\n", source="run.cfg")


def _toy(*lines, **changes):
    """A valid preset's text with the `changes` made, then the extra `lines`."""
    values = {"name": "toy", "pi_total_flops": "1e15", "b_total_bytes": "8e12",
              "s_total_bytes": "8e9", "volume": "2.0", "c": "1e6", **changes}
    return "".join(f"{k} = {v}\n" for k, v in values.items()) + "".join(l + "\n" for l in lines)


# Preset texts that once loaded (or exited 1), with the error that now names them.
BAD_PRESETS = {
    "misspelt-key": (_toy("distance_exponnt = 0.5"), "unknown preset key 'distance_exponnt'"),
    "word-bytes-fraction": (_toy(word_bytes="8.9"),
                            "bad numeric value for word_bytes: '8.9' is not a whole number"),
    "word-bytes-overflow": (_toy(word_bytes="1e400"),
                            "bad numeric value for word_bytes: '1e400' is not a whole number"),
    "total-inf": (_toy(pi_total_flops="inf"),
                  "bad numeric value for pi_total_flops: cannot parse number 'inf'"),
    "total-overflow": (_toy(pi_total_flops="1e400"),
                       "MachinePreset.pi_total_flops must be positive and finite, got inf"),
    "underscore": (_toy(volume="1_000"), "bad numeric value for volume"),
    "duplicate-key": (_toy("c = 2e6"), ":7: key 'c' given twice"),
}


@pytest.mark.parametrize("name", BAD_PRESETS)
def test_parse_preset_refuses(name):
    text, message = BAD_PRESETS[name]
    with pytest.raises(ValueError) as info:
        parse_preset(text, source="toy.preset")
    assert str(info.value).startswith("toy.preset") and message in str(info.value)


@pytest.mark.parametrize("name", BAD_PRESETS)
def test_bad_preset_on_path_exit_2(name, tmp_path, monkeypatch):
    # One bad file on the path stops every command that reads presets.
    text, message = BAD_PRESETS[name]
    (tmp_path / "toy.preset").write_text(text)
    monkeypatch.setenv(PRESET_PATH_ENV, str(tmp_path))
    result = CliRunner().invoke(main, ["solve", "--machine", "frontier", "--n", "1e9"])
    assert result.exit_code == 2, result.output
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1 and "Traceback" not in result.output
    assert str(tmp_path / "toy.preset") in errors[0] and message in errors[0]


def test_default_machine_is_read_from_the_registry(tmp_path, monkeypatch):
    # `ideal` is a preset like any other: a file on the path replaces it, and a bad
    # file stops a command on the default machine as it stops one on a named machine.
    monkeypatch.setenv(PRESET_PATH_ENV, str(tmp_path))
    (tmp_path / "ideal.preset").write_text(_toy(name="ideal"))
    result = CliRunner().invoke(main, ["solve", "--n", "1e9"])
    assert result.exit_code == 0 and '"v_star": 2.0' in result.output
    (tmp_path / "toy.preset").write_text(_toy(volume="0"))
    result = CliRunner().invoke(main, ["solve", "--n", "1e9"])
    assert result.exit_code == 2 and str(tmp_path / "toy.preset") in result.output


def test_parse_preset_unit_suffixes():
    p = parse_preset(_toy(pi_total_flops="1102Pflop/s", b_total_bytes="122.3PB/s",
                          s_total_bytes="3.1TB", volume="370m2", word_bytes="8.0"))
    assert p.pi_total_flops == pytest.approx(1.102e18)
    assert p.b_total_bytes == pytest.approx(1.223e17)
    assert p.s_total_bytes == pytest.approx(3.1e12)
    assert p.volume == 370.0
    assert p.word_bytes == 8 and isinstance(p.word_bytes, int)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parse_quantity_reads_repr_as_float(x):
    # Preset values once went through float(); every finite repr still reads the same.
    assert parse_quantity(repr(x)) == float(repr(x))


def test_preset_path_env(tmp_path, monkeypatch):
    (tmp_path / "mine.preset").write_text(
        "name = mine\npi_total_flops = 1e12\nb_total_bytes = 8e9\n"
        "s_total_bytes = 8e6\nvolume = 1.0\nc = 3e8\n")
    # Shadow a built-in name from the env path: env wins.
    (tmp_path / "shadow.preset").write_text(
        "name = fugaku\npi_total_flops = 1.0\nb_total_bytes = 8.0\n"
        "s_total_bytes = 8.0\nvolume = 1.0\nc = 1.0\n")
    monkeypatch.setenv(PRESET_PATH_ENV, str(tmp_path))
    presets = available_presets()
    assert "mine" in presets
    assert presets["fugaku"].pi_total_flops == 1.0
    monkeypatch.delenv(PRESET_PATH_ENV)
    assert preset("fugaku").pi > 1.0


def test_get_preset_unknown():
    with pytest.raises(KeyError, match="available"):
        get_preset("not-a-machine")


def test_preset_validation():
    with pytest.raises(ValueError, match="volume"):
        MachinePreset(name="x", pi_total_flops=1, b_total_bytes=1,
                      s_total_bytes=1, volume=0, c=1, distance=DistanceFn())
