"""Workload inputs, built from the seed alone.

Everything here is plain data (names, numbers, strings). The worker turns it
into homlim objects; run.py hands the same data to the oracle, so the checks
never rely on homlim's own reading of the inputs. Every run repeats whole
rounds of the operations listed here.
"""
from __future__ import annotations

import random

WORKLOADS = ("sweep-builtin", "sweep-custom", "scaling", "cli")

PRESETS = ("a100-homogeneous", "a100-homogeneous-1e9", "dgx-gh200", "frontier", "fugaku")
KERNELS = ("mxm", "cg", "fft")
DENSITY_AXES = ("pi", "beta", "s", "V")

# The axes `homlim sweep --axis NAME` uses: homlim.sweep.DEFAULT_RANGES with
# AxisSpec.default's 20 log-spaced points. The README's sweep example,
# `--axis n:1e3:1e30:20`, is the n axis. Kept here as data so the checks
# know the values without asking homlim.
AXIS_DEFAULTS = {"pi": (1e-30, 1e30), "beta": (1e-30, 1e30), "s": (1e-30, 1e30),
                 "V": (1e-14, 1e14), "n": (1e3, 1e30)}
AXIS_POINTS = 20
# The volumes `scale` and `laws` use without --v: 20 and 10 log points from
# v0 = V*1e-6 to V.
SCALE_POINTS, LAWS_POINTS = 20, 10

# The built-in MXM and CG kernels written in the CostCoefficients family.
MXM_COEFFS = {"a": 2.0, "p": 3.0, "q": 0.5, "r": -3.0, "b": 2.0, "w": 3.0,
              "g": 1.0, "h": 1.0, "k": 1.0, "out_exp": 2.0}
CG_COEFFS = {"a": 7.0, "p": 1.0, "r": -4.0, "b": 17.0, "w": 1.0, "g": 2.0, "h": 1.0}

# Ranges for drawn coefficient sets. With n <= 1e30, the presets' densities
# and v >= 1e-30*V, every time component stays below about 1e130 s, so every
# grid point is finite.
COEFF_RANGES = {"a": (0.5, 10.0), "p": (0.5, 2.5), "q": (0.0, 1.0), "r": (-5.0, 0.0),
                "b": (0.5, 20.0), "w": (1.0, 3.0), "l": (0.0, 2.0), "g": (0.5, 3.0),
                "h": (0.5, 1.5), "k": (0.0, 1.0), "out_exp": (1.0, 2.0)}

# The extra preset that the cli workload puts on HOMLIM_PRESET_PATH.
EXTRA_PRESET = "bench-medium"

# The README's weak-scaling example. It fails on every run because the last
# log-spaced volume lands one ulp above Fugaku's V; it does not depend on the seed.
README_SCALE = ["scale", "--machine", "fugaku", "--alg", "fft", "--mode", "weak",
                "--n0", "1e9", "--k", "output"]


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def sweep_builtin(seed: int) -> dict:
    """The CLI's default two-axis sweep, `sweep --axis n --axis D`, per kernel and preset.

    Both axes are the CLI's defaults (`AXIS_DEFAULTS`); the seed picks the
    density axis D of each panel.
    """
    rng = random.Random(seed)
    panels = [{"preset": p, "cost": {"kind": k}, "axes": ["n", rng.choice(DENSITY_AXES)]}
              for p in PRESETS for k in KERNELS]
    return {"panels": panels}


def sweep_custom(seed: int) -> dict:
    """The README's sweep, `sweep --axis n:1e3:1e30:20`, with custom_cost.

    Two coefficient sets drawn from the seed, plus MXM and CG, on every preset.
    """
    rng = random.Random(seed)
    costs = []
    for i in range(2):
        coeffs = {name: rng.uniform(lo, hi) for name, (lo, hi) in COEFF_RANGES.items()}
        costs.append({"kind": "custom", "label": f"drawn-{i + 1}", "coeffs": coeffs})
    costs.append({"kind": "custom", "label": "mxm", "coeffs": MXM_COEFFS, "builtin": "mxm"})
    costs.append({"kind": "custom", "label": "cg", "coeffs": CG_COEFFS, "builtin": "cg"})
    panels = [{"preset": p, "cost": cost, "axes": ["n"]} for p in PRESETS for cost in costs]
    return {"panels": panels}


def scaling(seed: int) -> dict:
    """The curves of `scale` and `laws` at their default volumes, per kernel and preset.

    One n0 per kernel and preset serves every curve, as when a user runs
    `scale --mode strong`, `scale --mode weak --k` for each policy and `laws`
    for each law with the same --n0.
    """
    rng = random.Random(seed)
    curves = []
    for p in PRESETS:
        for k in KERNELS:
            n0 = _log_uniform(rng, 6.0, 12.0)
            curves.append({"preset": p, "kernel": k, "kind": "strong", "n0": n0,
                           "points": SCALE_POINTS})
            for policy in ("output", "n", "work"):
                curves.append({"preset": p, "kernel": k, "kind": "weak", "policy": policy,
                               "n0": n0, "points": SCALE_POINTS})
            for law in ("amdahl", "gustafson"):
                curves.append({"preset": p, "kernel": k, "kind": law, "n0": n0,
                               "points": LAWS_POINTS})
    return {"curves": curves}


def cli(seed: int) -> dict:
    """A fixed mix of CLI calls, plus the extra preset and config file they read."""
    rng = random.Random(seed)
    no_fugaku = [p for p in PRESETS if p != "fugaku"]
    extra_totals = {"pi_total_flops": 1.102e18 * _log_uniform(rng, -1, 1),
                    "b_total_bytes": 1.223e17 * _log_uniform(rng, -1, 1),
                    "s_total_bytes": 3.1e12 * _log_uniform(rng, -1, 1),
                    "volume": 370.0 * _log_uniform(rng, -1, 1),
                    "c": 1e6, "distance_prefactor": 1.0, "distance_exponent": 0.5,
                    "word_bytes": 8}
    extra_text = (f"name={EXTRA_PRESET}\n"
                  + "".join(f"{k}={v!r}\n" for k, v in extra_totals.items()))
    # Fugaku's own pi is about 2.5e14 flop/(m^2 s); the config overrides it.
    config = {"machine": "fugaku", "alg": "fft", "pi": _log_uniform(rng, 13, 15.5)}
    config_text = "".join(f"{k}={v}\n" for k, v in config.items())
    n_lo, n_hi = AXIS_DEFAULTS["n"]

    calls = [
        {"name": "solve-json", "machine": rng.choice(PRESETS), "alg": rng.choice(KERNELS),
         "n": _log_uniform(rng, 4, 20)},
        {"name": "solve-table-v", "machine": "a100-homogeneous", "alg": "mxm",
         "n": _log_uniform(rng, 4, 12), "v": _log_uniform(rng, 1, 6)},
        # The README's sweep example, on two drawn machines and every kernel.
        {"name": "sweep", "machines": rng.sample(PRESETS, 2), "algs": list(KERNELS),
         "n_lo": n_lo, "n_hi": n_hi, "points": AXIS_POINTS},
        {"name": "scale-strong", "machine": rng.choice(no_fugaku), "alg": rng.choice(KERNELS),
         "n0": _log_uniform(rng, 6, 12)},
        {"name": "laws-amdahl", "machine": rng.choice(no_fugaku), "alg": rng.choice(KERNELS),
         "n0": _log_uniform(rng, 6, 12)},
        {"name": "machines-list", "preset_path": True},
        {"name": "machines-show", "machine": rng.choice(PRESETS)},
        {"name": "solve-config", "n": _log_uniform(rng, 4, 20)},
        {"name": "solve-extra-preset", "machine": EXTRA_PRESET, "alg": "cg",
         "n": _log_uniform(rng, 4, 20), "preset_path": True},
        {"name": "readme-scale-weak"},
    ]
    return {"calls": calls, "extra_preset": extra_totals, "extra_preset_text": extra_text,
            "config": config, "config_text": config_text}


def cli_args(call: dict, config_path: str) -> list[str]:
    """The argument list after `python -m homlim.cli` for one call."""
    name = call["name"]
    if name == "solve-json":
        return ["solve", "--machine", call["machine"], "--alg", call["alg"],
                "--n", repr(call["n"]), "--format", "json"]
    if name == "solve-table-v":
        return ["solve", "--machine", call["machine"], "--alg", call["alg"],
                "--n", repr(call["n"]), "--v", repr(call["v"]), "--format", "table"]
    if name == "sweep":
        return ["sweep", "--machine", ",".join(call["machines"]), "--alg", ",".join(call["algs"]),
                "--axis", f"n:{call['n_lo']!r}:{call['n_hi']!r}:{call['points']}"]
    if name == "scale-strong":
        return ["scale", "--machine", call["machine"], "--alg", call["alg"],
                "--mode", "strong", "--n0", repr(call["n0"])]
    if name == "laws-amdahl":
        return ["laws", "--law", "amdahl", "--machine", call["machine"], "--alg", call["alg"],
                "--n0", repr(call["n0"])]
    if name == "machines-list":
        return ["machines", "list"]
    if name == "machines-show":
        return ["machines", "show", call["machine"]]
    if name == "solve-config":
        return ["solve", "--config", config_path, "--n", repr(call["n"])]
    if name == "solve-extra-preset":
        return ["solve", "--machine", call["machine"], "--alg", call["alg"], "--n", repr(call["n"])]
    if name == "readme-scale-weak":
        return list(README_SCALE)
    raise ValueError(f"unknown call {name!r}")


BUILDERS = {"sweep-builtin": sweep_builtin, "sweep-custom": sweep_custom,
            "scaling": scaling, "cli": cli}


def build(workload: str, seed: int) -> dict:
    return BUILDERS[workload](seed)
