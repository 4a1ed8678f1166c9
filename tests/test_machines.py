import math

import pytest

from homlim.machines import (A100_CHIP, ChipSpec, DEFAULT_WORD_BYTES,
                             MachinePreset, PRESET_PATH_ENV, available_presets,
                             densities_from_chip, get_preset, parse_preset,
                             preset, read_key_values, scale_spec)
from homlim.model import DistanceFn

BUILTIN_NAMES = {"frontier", "fugaku", "dgx-gh200",
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


def test_a100_chip_densities():
    pi, beta, s = densities_from_chip(A100_CHIP)
    assert pi == pytest.approx(30e12 / 826e-6)
    assert beta == pytest.approx(1550e9 / 8 / 826e-6)
    assert s == pytest.approx(60e6 / 8 / 826e-6)


def test_a100_presets_scale_by_1e9():
    base = preset("a100-homogeneous")
    big = preset("a100-homogeneous-1e9")
    assert big.pi / base.pi == pytest.approx(1e9, rel=1e-9)
    assert big.beta / base.beta == pytest.approx(1e9, rel=1e-9)
    assert big.s / base.s == pytest.approx(1e9, rel=1e-9)
    assert big.V == base.V
    assert big.c == base.c


def test_chip_validation():
    with pytest.raises(ValueError):
        ChipSpec(peak_flops=0, mem_bandwidth=1, fast_memory=1, die_area=1)


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


def test_scale_spec():
    spec = preset("frontier")
    scaled = scale_spec(spec, 10.0)
    assert scaled.pi == pytest.approx(10 * spec.pi)
    assert scaled.beta == pytest.approx(10 * spec.beta)
    assert scaled.s == pytest.approx(10 * spec.s)
    assert scaled.c == spec.c and scaled.V == spec.V
    with pytest.raises(ValueError):
        scale_spec(spec, 0.0)


def test_preset_validation():
    with pytest.raises(ValueError, match="volume"):
        MachinePreset(name="x", pi_total_flops=1, b_total_bytes=1,
                      s_total_bytes=1, volume=0, c=1, distance=DistanceFn())
