"""An optimum oracle for the homogeneous-computer model, written apart from homlim.

    f(v) = W(n)/(pi*v) + Q(n, s*v)/(beta*v) + D(L(v, n))/c,   D(x) = prefactor * x**exponent

The kernels' W, Q and L are taken from the model's description (README and
PAPER.md), not from homlim's closures, and evaluated with numpy on arrays of
volumes. The minimum over the volumes homlim searches, [1e-30*V, V], comes
from a dense log-v grid refined with scipy's bounded Brent method. CG also
has a closed form, which `self_test` checks the grid against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

FLOOR_FACTOR = 1e-30
GRID_POINTS = 2001
FFT_MIN_FAST_MEMORY = 4.0


class OracleError(AssertionError):
    """The oracle disagrees with itself or with a hand-computed value."""


@dataclass(frozen=True)
class Medium:
    pi: float
    beta: float
    s: float
    c: float
    V: float
    prefactor: float = 1.0
    exponent: float = 1.0 / 3.0


def read_key_values(text: str) -> dict[str, str]:
    """The key=value format of preset and config files; '#' starts a comment."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def medium_from_totals(values: dict) -> Medium:
    """Densities are machine totals divided by the volume; bytes become words."""
    volume = float(values["volume"])
    word = float(values.get("word_bytes", 8))
    return Medium(pi=float(values["pi_total_flops"]) / volume,
                  beta=float(values["b_total_bytes"]) / word / volume,
                  s=float(values["s_total_bytes"]) / word / volume,
                  c=float(values["c"]), V=volume,
                  prefactor=float(values.get("distance_prefactor", 1.0)),
                  exponent=float(values.get("distance_exponent", 1.0 / 3.0)))


def preset_files(data_dir: Path) -> dict[str, dict[str, str]]:
    """name -> raw key=value entries of every preset file in data_dir."""
    out = {}
    for path in sorted(data_dir.glob("*.preset")):
        values = read_key_values(path.read_text())
        out[values["name"]] = values
    return out


# --- kernels ---------------------------------------------------------------
# A cost is a plain dict: {"kind": "mxm" | "cg" | "fft"} or
# {"kind": "custom", "coeffs": {a, p, q, r, b, w, l, g, h, k, out_exp}}.

_CUSTOM_DEFAULTS = {"a": 0.0, "p": 0.0, "q": 0.0, "r": 0.0, "b": 1.0, "w": 1.0, "l": 0.0,
                    "g": 0.0, "h": 1.0, "k": 0.0, "out_exp": 1.0}


def _coeffs(cost: dict) -> dict[str, float]:
    return {**_CUSTOM_DEFAULTS, **cost["coeffs"]}


def _scaled_power(scale: float, log_terms) -> np.ndarray:
    # scale * exp(sum of exponent*log(base)), zero when scale is zero.
    if scale == 0.0:
        return np.zeros_like(np.asarray(log_terms, dtype=float))
    with np.errstate(over="ignore"):
        return np.exp(math.log(scale) + log_terms)


def work(cost: dict, n: float) -> float:
    kind = cost["kind"]
    if kind == "mxm":
        return 2.0 * n**3
    if kind == "cg":
        return 17.0 * n
    if kind == "fft":
        return 8.0 / 3.0 * n * math.log2(n)
    c = _coeffs(cost)
    log_w = c["w"] * math.log(n)
    if c["l"] != 0.0:
        if n <= 1.0:
            return 0.0
        log_w += c["l"] * math.log(math.log2(n))
    return float(_scaled_power(c["b"], log_w))


def io(cost: dict, n: float, S: np.ndarray) -> np.ndarray:
    kind = cost["kind"]
    if kind == "mxm":
        q = 2.0 * n**3 / np.sqrt(S) - 3.0 * S
    elif kind == "cg":
        q = 7.0 * n - 4.0 * S
    elif kind == "fft":
        q = 2.0 * n * math.log2(n) / np.log2(np.maximum(S, FFT_MIN_FAST_MEMORY)) - 2.0 * S
    else:
        c = _coeffs(cost)
        q = _scaled_power(c["a"], c["p"] * math.log(n) - c["q"] * np.log(S)) + c["r"] * S
    return np.maximum(q, 0.0)


def wavefront(cost: dict, n: float, v: np.ndarray) -> np.ndarray:
    kind = cost["kind"]
    if kind == "mxm":
        return v / n
    if kind == "cg":
        return 2.0 * v
    if kind == "fft":
        return 1.0 * v
    c = _coeffs(cost)
    return _scaled_power(c["g"], c["h"] * np.log(v) - c["k"] * math.log(n))


def output_size(cost: dict, n: float) -> float:
    kind = cost["kind"]
    if kind == "mxm":
        return n**2
    if kind in ("cg", "fft"):
        return n
    return math.exp(_coeffs(cost)["out_exp"] * math.log(n))


def k_value(policy: str, cost: dict, n: float) -> float:
    """The weak-scaling quantity held per unit volume: output size, n, or work."""
    if policy == "output":
        return output_size(cost, n)
    if policy == "n":
        return n
    return work(cost, n)


def components(m: Medium, cost: dict, n: float, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_work, t_io, t_lat) at the volumes v."""
    v = np.asarray(v, dtype=float)
    t_work = work(cost, n) / m.pi / v
    t_io = io(cost, n, m.s * v) / m.beta / v
    t_lat = m.prefactor * wavefront(cost, n, v) ** m.exponent / m.c
    return t_work, t_io, t_lat


def total(m: Medium, cost: dict, n: float, v) -> np.ndarray:
    t_work, t_io, t_lat = components(m, cost, n, v)
    return t_work + t_io + t_lat


def minimum(m: Medium, cost: dict, n: float) -> tuple[float, float]:
    """(v*, f(v*)) over [1e-30*V, V]: dense log-v grid, then scipy's bounded Brent."""
    lo, hi = math.log(m.V * FLOOR_FACTOR), math.log(m.V)
    x = np.linspace(lo, hi, GRID_POINTS)
    v = np.minimum(np.exp(x), m.V)
    f = total(m, cost, n, v)
    i = int(np.argmin(f))
    best = (float(f[i]), float(v[i]))
    a, b = x[max(i - 1, 0)], x[min(i + 1, GRID_POINTS - 1)]
    res = minimize_scalar(lambda t: float(total(m, cost, n, min(math.exp(t), m.V))),
                          bounds=(a, b), method="bounded", options={"xatol": 1e-10})
    if res.fun < best[0]:
        best = (float(res.fun), min(math.exp(res.x), m.V))
    return best[1], best[0]


def cg_closed_form(m: Medium, n: float) -> tuple[float, float]:
    """(v*, f(v*)) for CG from the piecewise form A/v + B*v**e + C.

    Below the kink v = 7n/(4s): A = 17n/pi + 7n/beta, C = -4s/beta.
    Above it the I/O term is zero: A = 17n/pi, C = 0. B = prefactor*2**e/c.
    Each piece's stationary point (A/(e*B))**(1/(1+e)) is clamped to the
    piece's interval; the answer is the better piece.
    """
    e = m.exponent
    B = m.prefactor * 2.0**e / m.c
    floor, kink = m.V * FLOOR_FACTOR, 7.0 * n / (4.0 * m.s)
    pieces = [(17.0 * n / m.pi + 7.0 * n / m.beta, -4.0 * m.s / m.beta, floor, min(kink, m.V)),
              (17.0 * n / m.pi, 0.0, max(kink, floor), m.V)]
    best = None
    for A, C, lo, hi in pieces:
        if not lo <= hi:
            continue
        v = min(max((A / (e * B)) ** (1.0 / (1.0 + e)), lo), hi)
        value = A / v + B * v**e + C
        if best is None or value < best[1]:
            best = (v, value)
    return best


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def self_test(media: dict[str, Medium]) -> None:
    """Raise OracleError unless the oracle agrees with hand-computed values and with itself."""
    unit = Medium(pi=1.0, beta=1.0, s=1.0, c=1.0, V=1.0)
    # mxm, n=10, v=1, D=v^(1/3): W = 2000, Q = 2000/1 - 3 = 1997, L = 0.1.
    hand = [(unit, {"kind": "mxm"}, 10.0, 1.0, 3997.0 + 0.1 ** (1.0 / 3.0)),
            # fft, n=16, v=1: W = 8/3*16*4, Q = 2*16*4/log2(4) - 2 = 62, L = 1.
            (unit, {"kind": "fft"}, 16.0, 1.0, 512.0 / 3.0 + 62.0 + 1.0)]
    for m, cost, n, v, expected in hand:
        got = float(total(m, cost, n, v))
        if not _close(got, expected, 1e-14):
            raise OracleError(f"f({cost['kind']}, n={n}, v={v}) = {got!r}, by hand {expected!r}")

    sq = dict(prefactor=1.0, exponent=0.5)
    # CG with D = sqrt(2v), c = 1, so B = sqrt(2) and e = 1/2; v*^1.5 = A*sqrt(2).
    #  above the kink: A = 17*68/0.578 = 2000, kink 119   -> v* = 200, f* = 3A/v* = 30
    #  below the kink: A = 1000 + 1000, C = -0.04/0.7      -> v* = 200, f* = 30 + C
    #  pinned at V = 100, below the kink (Q = 476 - 400)    -> f = 20 + 0.76 + sqrt(200)
    cg_hand = [(Medium(0.578, 1.0, 1.0, 1.0, 1e6, **sq), 68.0, 200.0, 30.0),
               (Medium(1.7, 0.7, 0.01, 1.0, 1e6, **sq), 100.0, 200.0, 30.0 - 0.04 / 0.7),
               (Medium(0.578, 1.0, 1.0, 1.0, 100.0, **sq), 68.0, 100.0,
                20.0 + 0.76 + math.sqrt(200.0))]
    cg = {"kind": "cg"}
    for m, n, v_hand, f_hand in cg_hand:
        for label, (v, f) in (("closed form", cg_closed_form(m, n)), ("grid", minimum(m, cg, n))):
            if not (_close(v, v_hand, 1e-6) and _close(f, f_hand, 1e-10)):
                raise OracleError(f"CG {label} on {m}: v*={v!r}, f*={f!r}; "
                                  f"by hand v*={v_hand!r}, f*={f_hand!r}")

    for name, m in media.items():
        for n in np.logspace(3, 30, 6):
            v_cf, f_cf = cg_closed_form(m, float(n))
            v_gr, f_gr = minimum(m, cg, float(n))
            if not _close(f_cf, f_gr, 1e-9):
                raise OracleError(f"CG on {name}, n={n:.3e}: closed form f*={f_cf!r}, "
                                  f"grid f*={f_gr!r}")
