"""Registry of machine parameterizations for the homogeneous model, the default `ideal` included.

Presets store machine totals (flop/s, byte/s, bytes, m^2) and derive the
densities on demand. Extra preset directories can be supplied through the
HOMLIM_PRESET_PATH environment variable (os.pathsep-separated). Preset and
config files share one key=value reader and one number grammar.
"""
from __future__ import annotations

import os
import re
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .model import ComputerSpec, DistanceFn, require_positive_finite

PRESET_PATH_ENV = "HOMLIM_PRESET_PATH"
PRESET_SUFFIX = ".preset"
DEFAULT_WORD_BYTES = 8  # IEEE double precision


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
        require_positive_finite(self, ("pi_total_flops", "b_total_bytes", "s_total_bytes",
                                       "volume", "c", "word_bytes"))

    def to_spec(self) -> ComputerSpec:
        return ComputerSpec(
            pi=self.pi_total_flops / self.volume,
            beta=(self.b_total_bytes / self.word_bytes) / self.volume,
            s=(self.s_total_bytes / self.word_bytes) / self.volume,
            c=self.c,
            V=self.volume,
            distance=self.distance,
        )


# A preset file's keys and their type names (annotations are strings in this
# module): MachinePreset's fields, with the distance given as the DistanceFn
# fields distance_prefactor and distance_exponent.
_PRESET_KEYS = {f.name: f.type for f in fields(MachinePreset) if f.name != "distance"}
_PRESET_KEYS.update({f"distance_{f.name}": f.type for f in fields(DistanceFn)})

_SUFFIXES = {
    "Eflop/s": 1e18, "Pflop/s": 1e15, "Tflop/s": 1e12, "Gflop/s": 1e9, "flop/s": 1.0,
    "EB/s": 1e18, "PB/s": 1e15, "TB/s": 1e12, "GB/s": 1e9, "MB/s": 1e6, "B/s": 1.0,
    "EB": 1e18, "PB": 1e15, "TB": 1e12, "GB": 1e9, "MB": 1e6, "KB": 1e3, "B": 1.0,
    "mm2": 1e-6, "cm2": 1e-4, "m2": 1.0, "m3": 1.0, "m/s": 1.0, "m": 1.0,
}
# A decimal number, then an optional unit suffix, which starts with a letter.
_QUANTITY_RE = re.compile(r"([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                          r"\s*([A-Za-z].*)?")


def parse_quantity(text: str) -> float:
    """'1e12', '122.3PB/s', '826mm2' ... -> SI base value."""
    text = text.strip()
    m = _QUANTITY_RE.fullmatch(text)
    if not m:
        raise ValueError(f"cannot parse number {text!r}")
    value, suffix = float(m.group(1)), m.group(2)
    if suffix is None:
        return value
    if suffix not in _SUFFIXES:
        raise ValueError(f"unknown unit suffix {suffix!r} in {text!r}")
    return value * _SUFFIXES[suffix]


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
        key = key.strip()
        if key in values:
            raise ValueError(f"{source}:{lineno}: key {key!r} given twice")
        values[key] = value.strip()
    return values


def parse_preset(text: str, source: str = "<string>") -> MachinePreset:
    """Parse the key=value preset format; numbers are read by parse_quantity."""
    values = read_key_values(text, source)
    unknown = [key for key in values if key not in _PRESET_KEYS]
    if unknown:
        raise ValueError(f"{source}: unknown preset key {unknown[0]!r}")
    missing = [f.name for f in fields(MachinePreset)
               if f.default is MISSING and f.name != "distance" and f.name not in values]
    if missing:
        raise ValueError(f"{source}: missing preset keys: {missing}")

    args: dict[str, object] = {}
    for key, value in values.items():
        kind = _PRESET_KEYS[key]
        try:
            number = value if kind == "str" else parse_quantity(value)
            if kind == "int" and not number.is_integer():
                raise ValueError(f"{value!r} is not a whole number")
        except ValueError as exc:
            raise ValueError(f"{source}: bad numeric value for {key}: {exc}") from None
        args[key] = int(number) if kind == "int" else number
    distance = {key.removeprefix("distance_"): args.pop(key)
                for key in list(args) if key.startswith("distance_")}
    try:
        return MachinePreset(**args, distance=DistanceFn(**distance))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def available_presets() -> dict[str, MachinePreset]:
    """Built-in presets, then those on HOMLIM_PRESET_PATH; a later file wins a name clash."""
    directories = [resources.files("homlim") / "data"]
    directories += [Path(d) for d in os.environ.get(PRESET_PATH_ENV, "").split(os.pathsep)
                    if d and Path(d).is_dir()]
    presets = {}
    for directory in directories:
        for file in sorted(directory.iterdir(), key=lambda f: f.name):
            if file.name.endswith(PRESET_SUFFIX):
                p = parse_preset(file.read_text(), source=str(file))
                presets[p.name] = p
    return presets


def get_preset(name: str, presets: dict[str, MachinePreset] | None = None) -> MachinePreset:
    """The named preset from `presets`; the registry is read when none are given."""
    if presets is None:
        presets = available_presets()
    if name not in presets:
        known = ", ".join(sorted(presets))
        raise KeyError(f"unknown machine preset {name!r}; available: {known}")
    return presets[name]


def preset(name: str) -> ComputerSpec:
    """ComputerSpec with densities derived from the named preset's totals."""
    return get_preset(name).to_spec()
