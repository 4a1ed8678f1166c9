"""Registry of real-machine parameterizations for the homogeneous model.

Presets store machine totals (flop/s, byte/s, bytes, m^2) and derive the
densities on demand. Extra preset directories can be supplied through the
HOMLIM_PRESET_PATH environment variable (os.pathsep-separated).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .model import ComputerSpec, DistanceFn

PRESET_PATH_ENV = "HOMLIM_PRESET_PATH"
PRESET_SUFFIX = ".preset"
DEFAULT_WORD_BYTES = 8  # IEEE double precision


@dataclass(frozen=True)
class ChipSpec:
    """Datasheet parameters of a single compute die."""

    peak_flops: float      # flop/s
    mem_bandwidth: float   # byte/s
    fast_memory: float     # bytes of on-die fast memory
    die_area: float        # m^2
    word_bytes: int = DEFAULT_WORD_BYTES

    def __post_init__(self):
        for field in ("peak_flops", "mem_bandwidth", "fast_memory", "die_area", "word_bytes"):
            if not getattr(self, field) > 0:
                raise ValueError(f"ChipSpec.{field} must be positive")


# Nvidia A100: 7nm, 826 mm^2 die, ~30 Tflop/s FP64 (tensor), 1550 GB/s HBM,
# 60 MB of L1+L2.
A100_CHIP = ChipSpec(peak_flops=30e12, mem_bandwidth=1550e9,
                     fast_memory=60e6, die_area=826e-6)


def densities_from_chip(chip: ChipSpec) -> tuple[float, float, float]:
    """(pi, beta, s) densities of a medium built from this die."""
    pi = chip.peak_flops / chip.die_area
    beta = (chip.mem_bandwidth / chip.word_bytes) / chip.die_area
    s = (chip.fast_memory / chip.word_bytes) / chip.die_area
    return pi, beta, s


@dataclass(frozen=True)
class MachinePreset:
    """Machine totals in SI base units plus the medium geometry."""

    name: str
    pi_total_flops: float
    b_total_bytes: float
    s_total_bytes: float
    volume: float
    c: float
    distance: DistanceFn
    word_bytes: int = DEFAULT_WORD_BYTES
    notes: str = ""

    def __post_init__(self):
        for field in ("pi_total_flops", "b_total_bytes", "s_total_bytes", "volume", "c", "word_bytes"):
            if not getattr(self, field) > 0:
                raise ValueError(f"MachinePreset.{field} must be positive")

    def to_spec(self) -> ComputerSpec:
        return ComputerSpec(
            pi=self.pi_total_flops / self.volume,
            beta=(self.b_total_bytes / self.word_bytes) / self.volume,
            s=(self.s_total_bytes / self.word_bytes) / self.volume,
            c=self.c,
            V=self.volume,
            distance=self.distance,
        )


_NUMERIC_KEYS = {"pi_total_flops", "b_total_bytes", "s_total_bytes", "volume",
                 "c", "distance_exponent", "distance_prefactor", "word_bytes"}
_REQUIRED_KEYS = {"name", "pi_total_flops", "b_total_bytes", "s_total_bytes", "volume", "c"}


def read_key_values(text: str, source: str = "<string>") -> dict[str, str]:
    """The key=value lines of a preset or config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_preset(text: str, source: str = "<string>") -> MachinePreset:
    """Parse the key=value preset format; '#' starts a comment."""
    values = read_key_values(text, source)
    missing = _REQUIRED_KEYS - values.keys()
    if missing:
        raise ValueError(f"{source}: missing preset keys: {sorted(missing)}")

    parsed: dict[str, float] = {}
    for key in _NUMERIC_KEYS & values.keys():
        try:
            parsed[key] = float(values[key])
        except ValueError as exc:
            raise ValueError(f"{source}: bad numeric value for {key}: {values[key]!r}") from exc

    distance = DistanceFn(
        prefactor=parsed.get("distance_prefactor", 1.0),
        exponent=parsed.get("distance_exponent", 1.0 / 3.0),
    )
    return MachinePreset(
        name=values["name"],
        pi_total_flops=parsed["pi_total_flops"],
        b_total_bytes=parsed["b_total_bytes"],
        s_total_bytes=parsed["s_total_bytes"],
        volume=parsed["volume"],
        c=parsed["c"],
        distance=distance,
        word_bytes=int(parsed.get("word_bytes", DEFAULT_WORD_BYTES)),
        notes=values.get("notes", ""),
    )


def _builtin_presets() -> dict[str, MachinePreset]:
    presets = {}
    data = resources.files("homlim") / "data"
    for entry in sorted(data.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(PRESET_SUFFIX):
            p = parse_preset(entry.read_text(), source=entry.name)
            presets[p.name] = p
    return presets


def available_presets() -> dict[str, MachinePreset]:
    """Built-in presets plus any found on HOMLIM_PRESET_PATH (which win on name clash)."""
    presets = _builtin_presets()
    for directory in os.environ.get(PRESET_PATH_ENV, "").split(os.pathsep):
        if not directory:
            continue
        path = Path(directory)
        if not path.is_dir():
            continue
        for file in sorted(path.glob(f"*{PRESET_SUFFIX}")):
            p = parse_preset(file.read_text(), source=str(file))
            presets[p.name] = p
    return presets


def get_preset(name: str) -> MachinePreset:
    presets = available_presets()
    if name not in presets:
        known = ", ".join(sorted(presets))
        raise KeyError(f"unknown machine preset {name!r}; available: {known}")
    return presets[name]


def preset(name: str) -> ComputerSpec:
    """ComputerSpec with densities derived from the named preset's totals."""
    return get_preset(name).to_spec()


def scale_spec(spec: ComputerSpec, factor: float) -> ComputerSpec:
    """Scale the three densities uniformly; geometry and signal speed stay."""
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    return replace(spec, pi=spec.pi * factor, beta=spec.beta * factor, s=spec.s * factor)
