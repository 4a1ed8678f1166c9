"""Command-line front end: solve, sweep, scale, laws, machines.

Exit codes: 0 success, 1 computation failure, 2 configuration or validation
failure. All numeric flags accept scientific notation and the convenience
suffixes Pflop/s, PB/s, TB, mm2, etc. A --config file of key=value lines
supplies option defaults, keyed by option name; explicit flags override it.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
from pathlib import Path

import click

from . import __version__
from .costs import AlgorithmCost, BUILTIN_COSTS, CostCoefficients, custom_cost
from .machines import available_presets, get_preset, parse_quantity, read_key_values
from .machines import preset  # noqa: F401  (benchmarks/tracer.py patches it here)
from .model import ComputerSpec, DistanceFn, classify_regime, optimal_volume, time_breakdown
from .scaling import DEFAULT_V0_FACTOR, KPolicy, scaling_curve, speedup_curve
# benchmarks/tracer.py patches these here by name.
from .scaling import (generalized_speedup, scaled_problem_size, scaled_speedup,  # noqa: F401
                      speedup_limit, strong_efficiency, weak_efficiency)
from .sweep import AxisSpec, DEFAULT_POINT_CAP, SweepGrid, SweepRecord, run_sweep

# The sweep CSV columns are SweepRecord's fields; an error text replaces the regime.
_SWEEP_FIELDS = tuple(field.name for field in dataclasses.fields(SweepRecord))[:-1]

# The --alg custom coefficients, read from the config keys cost_<field>.
_COST_FIELDS = tuple(field.name for field in dataclasses.fields(CostCoefficients))


class Quantity(click.ParamType):
    name = "quantity"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        try:
            return parse_quantity(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


QUANTITY = Quantity()


def _known(name: str, presets: dict | None = None):
    """get_preset(name, presets), with an unknown name reported as a usage error."""
    try:
        return get_preset(name, presets)
    except KeyError as exc:
        raise click.UsageError(exc.args[0]) from None


def _cost_of(alg: str, config: dict[str, str]) -> AlgorithmCost:
    """A built-in cost, or the custom cost whose coefficients the config's cost_* keys give."""
    alg = alg.lower()
    if alg in BUILTIN_COSTS:
        return BUILTIN_COSTS[alg]()
    if alg != "custom":
        raise click.UsageError(f"unknown algorithm {alg!r}; one of mxm, cg, fft, custom")
    return custom_cost(CostCoefficients(**{
        field: parse_quantity(config[f"cost_{field}"])
        for field in _COST_FIELDS if f"cost_{field}" in config}))


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:  # an unwritable path is bad configuration (exit 2)
            raise click.UsageError(f"cannot write --output {output}: {exc.strerror}") from None
    else:
        click.echo(text, nl=False)


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    name = parts[0]
    try:
        if len(parts) == 1:
            return AxisSpec.default(name)
        if len(parts) in (4, 5):
            lo, hi = parse_quantity(parts[1]), parse_quantity(parts[2])
            points = int(parts[3])
            spacing = parts[4] if len(parts) == 5 else "log"
            return AxisSpec(name, lo, hi, points, spacing)
    except ValueError as exc:
        raise click.UsageError(f"bad axis spec {text!r}: {exc}")
    raise click.UsageError(
        f"bad axis spec {text!r}; expected NAME or NAME:LO:HI:POINTS[:SPACING]")


def _parse_values(text: str) -> tuple[float, ...]:
    return tuple(parse_quantity(part) for part in text.split(","))


def _volumes(text: str | None, v0: float | None, V: float, points: int):
    """(v0, volumes) from --v0 and --v; absent, they are V*1e-6 and `points` log volumes v0..V."""
    if v0 is None:
        v0 = V * DEFAULT_V0_FACTOR
    if text is None:
        return v0, AxisSpec("v", v0, V, points, "log").values().tolist()
    if ":" in text:
        axis = _parse_axis("v:" + text)
        if axis.points > DEFAULT_POINT_CAP:
            raise click.UsageError(f"--v has {axis.points} points; the cap is {DEFAULT_POINT_CAP}")
        return v0, axis.values().tolist()
    return v0, _parse_values(text)


def _read_config(ctx: click.Context, param, path: str | None) -> None:
    """--config is eager: its key=value pairs become the defaults of the other options.

    A key must name a parameter of some command, or be a cost_<field> of --alg custom.
    """
    if path is None:
        return
    values = read_key_values(Path(path).read_text(), path)
    known = {p.name for command in ctx.find_root().command.commands.values()
             for p in command.params} | {f"cost_{field}" for field in _COST_FIELDS}
    unknown = [key for key in values if key not in known]
    if unknown:
        raise click.BadParameter(f"{path}: unknown key {unknown[0]!r}", ctx=ctx, param=param)
    ctx.default_map = values


_SPEC_OPTIONS = [
    click.option("--machine", default="ideal", show_default=True,
                 help="Machine preset name."),
    click.option("--pi", type=QUANTITY, default=None, help="Override compute density."),
    click.option("--beta", type=QUANTITY, default=None, help="Override bandwidth density."),
    click.option("--s", type=QUANTITY, default=None, help="Override memory density."),
    click.option("--c", type=QUANTITY, default=None, help="Override signal speed."),
    click.option("--v-total", "V", type=QUANTITY, default=None, help="Override total volume."),
    click.option("--distance-exponent", type=QUANTITY, default=None),
    click.option("--distance-prefactor", type=QUANTITY, default=None),
    click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
                 expose_value=False, callback=_read_config,
                 help="key=value config file; flags override it."),
]


def _spec_options(command):
    """Add the shared machine options; the command gets spec_of(machine) and cost_of(alg).

    The preset registry is read once per command, when spec_of first needs it."""
    @functools.wraps(command)
    def resolved(pi, beta, s, c, V, distance_exponent, distance_prefactor, **kwargs):
        densities = {k: x for k, x in dict(pi=pi, beta=beta, s=s, c=c, V=V).items()
                     if x is not None}
        registry = functools.cache(available_presets)

        def spec_of(machine: str) -> ComputerSpec:
            spec = _known(machine, registry()).to_spec()
            d = spec.distance
            distance = DistanceFn(
                d.prefactor if distance_prefactor is None else distance_prefactor,
                d.exponent if distance_exponent is None else distance_exponent)
            return dataclasses.replace(spec, distance=distance, **densities)

        config = click.get_current_context().default_map or {}
        return command(spec_of=spec_of, cost_of=lambda alg: _cost_of(alg, config), **kwargs)

    for option in reversed(_SPEC_OPTIONS):
        resolved = option(resolved)
    return resolved


class _ExitCodeGroup(click.Group):
    """Maps the library's exceptions to exit codes: a ValueError is invalid input
    (2); an ArithmeticError, OptimizationError included, is a failed computation (1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except ArithmeticError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_ExitCodeGroup)
@click.version_option(__version__)
def main():
    """Best-case run times and scaling limits on a homogeneous computer."""


@main.command()
@_spec_options
@click.option("--alg", default="cg", show_default=True)
@click.option("--n", "n_", required=True, type=QUANTITY, help="Problem size.")
@click.option("--v", "v_", type=QUANTITY, default=None,
              help="Evaluate at this fixed active volume instead of optimizing.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json",
              show_default=True)
@click.option("--output", default=None, help="Write to file instead of stdout.")
def solve(machine, spec_of, cost_of, alg, n_, v_, fmt, output):
    """Minimize run time over the active volume (or evaluate at a fixed one)."""
    spec, cost = spec_of(machine), cost_of(alg)
    b = (optimal_volume(spec, cost, n_).breakdown if v_ is None
         else time_breakdown(spec, cost, n_, v_))

    fields = {
        "machine": machine, "algorithm": cost.name, "n": n_,
        "v_star": b.v_used, "t_work": b.t_work, "t_io": b.t_io, "t_lat": b.t_lat,
        "total": b.total, "performance": b.performance, "regime": classify_regime(b).value,
    }
    if fmt == "json":
        text = json.dumps(fields, indent=2) + "\n"
    else:
        width = max(len(k) for k in fields)
        lines = [f"{k:<{width}}  {_fmt(v) if isinstance(v, float) else v}"
                 for k, v in fields.items()]
        text = "\n".join(lines) + "\n"
    _emit(text, output)


@main.command()
@_spec_options
@click.option("--alg", default="cg", show_default=True, help="Comma list of algorithms.")
@click.option("--axis", "axes", multiple=True,
              help="Swept axis: NAME or NAME:LO:HI:POINTS[:SPACING]; repeatable.")
@click.option("--n", "n_", default=None, help="Fixed n, or comma list (becomes an axis).")
@click.option("--v", "v_", type=QUANTITY, default=None, help="Fixed active volume (skips optimization).")
@click.option("--output", default=None)
def sweep(machine, spec_of, cost_of, alg, axes, n_, v_, output):
    """Cartesian sweep; emits CSV with a '#' provenance header."""
    machines = [m.strip() for m in machine.split(",")]
    algs = [a.strip() for a in alg.split(",")]

    axis_specs = [_parse_axis(a) for a in axes]
    # A spec value given by flag or config is fixed, so the grid refuses an axis over it too.
    params = click.get_current_context().params
    fixed = {name: params[name] for name in ("pi", "beta", "s", "c", "V")
             if params[name] is not None}
    if v_ is not None:
        fixed["v"] = v_
    if n_ is not None:
        values = _parse_values(n_)
        if len(values) == 1:
            fixed["n"] = values[0]
        else:
            axis_specs.append(AxisSpec("n", explicit=values))

    grid = SweepGrid(axes=tuple(axis_specs), fixed=fixed)
    text = io.StringIO()
    text.write(f"# homlim sweep machines={','.join(machines)} algs={','.join(algs)}\n"
               f"# axes={';'.join(a or 'none' for a in axes) or 'none'} fixed={fixed!r}\n")
    rows = csv.writer(text, lineterminator="\n")  # quotes an error text that holds a comma
    rows.writerow(_SWEEP_FIELDS)
    for m in machines:
        spec = spec_of(m)
        for a in algs:
            cost = cost_of(a)
            if len(machines) > 1 or len(algs) > 1:
                text.write(f"# machine={m} algorithm={cost.name}\n")
            for r in run_sweep(grid, spec, cost):
                *numbers, regime = (getattr(r, name) for name in _SWEEP_FIELDS)
                rows.writerow([*map(_fmt, numbers),
                               regime if r.error is None else f"error:{r.error}"])
    _emit(text.getvalue(), output)


@main.command()
@_spec_options
@click.option("--alg", default="cg", show_default=True)
@click.option("--mode", type=click.Choice(["strong", "weak"]), required=True)
@click.option("--n0", type=QUANTITY, required=True, help="Baseline problem size.")
@click.option("--v0", type=QUANTITY, default=None,
              help="Baseline volume; defaults to V*1e-6.")
@click.option("--v", "v_", default=None,
              help="Volumes: comma list or LO:HI:POINTS; defaults to 20 log points v0..V.")
@click.option("--k", "k_", type=click.Choice([p.value for p in KPolicy]), default="output",
              show_default=True, help="Weak-scaling K policy.")
@click.option("--output", default=None)
def scale(machine, spec_of, cost_of, alg, mode, n0, v0, v_, k_, output):
    """Strong or weak scaling efficiency; CSV columns v,n,total,efficiency."""
    spec, cost = spec_of(machine), cost_of(alg)
    k = KPolicy(k_) if mode == "weak" else None
    v0, volumes = _volumes(v_, v0, spec.V, 20)

    lines = [f"# homlim scale mode={mode} machine={machine} alg={cost.name} "
             f"n0={_fmt(n0)} v0={_fmt(v0)}"]
    if k is not None:
        lines.append(f"# k_policy={k.value}")
    lines.append("v,n,total,efficiency")
    lines += [",".join(_fmt(x) for x in point)
              for point in scaling_curve(spec, cost, n0, v0, volumes, k)]
    _emit("\n".join(lines) + "\n", output)


@main.command()
@_spec_options
@click.option("--alg", default="cg", show_default=True)
@click.option("--law", type=click.Choice(["amdahl", "gustafson"]), required=True)
@click.option("--n0", type=QUANTITY, required=True)
@click.option("--v0", type=QUANTITY, default=None)
@click.option("--v", "v_", default=None, help="Volumes: comma list or LO:HI:POINTS.")
@click.option("--output", default=None)
def laws(machine, spec_of, cost_of, alg, law, n0, v0, v_, output):
    """Generalized Amdahl/Gustafson speedups plus the propagation-limit line."""
    spec, cost = spec_of(machine), cost_of(alg)
    v0, volumes = _volumes(v_, v0, spec.V, 10)

    limit, points = speedup_curve(spec, cost, n0, v0, volumes, law)
    label = "speedup" if law == "amdahl" else "scaled_speedup"
    lines = [f"# homlim laws law={law} machine={machine} alg={cost.name} "
             f"n0={_fmt(n0)} v0={_fmt(v0)}",
             f"v,{label}"]
    lines += [f"{_fmt(v)},{_fmt(value)}" for v, value in points]
    lines.append(f"# speedup_limit={'unbounded' if math.isinf(limit) else _fmt(limit)}")
    _emit("\n".join(lines) + "\n", output)


@main.group()
def machines():
    """Inspect the machine preset registry."""


@machines.command("list")
def machines_list():
    """Print available preset names."""
    for name in sorted(available_presets()):
        click.echo(name)


@machines.command("show")
@click.argument("name")
def machines_show(name):
    """Print totals, derived densities, and notes for one preset."""
    p = _known(name)
    spec = p.to_spec()
    rows = [
        ("name", p.name),
        ("Pi_total [flop/s]", _fmt(p.pi_total_flops)),
        ("B_total [byte/s]", _fmt(p.b_total_bytes)),
        ("S_total [byte]", _fmt(p.s_total_bytes)),
        ("V [volume-units]", _fmt(p.volume)),
        ("c [m/s]", _fmt(p.c)),
        ("D(v)", f"{p.distance.prefactor:g} * v^{p.distance.exponent:g}"),
        ("word_bytes", str(p.word_bytes)),
        ("pi [flop/(vu s)]", _fmt(spec.pi)),
        ("beta [word/(vu s)]", _fmt(spec.beta)),
        ("s [word/vu]", _fmt(spec.s)),
        ("notes", p.notes or "-"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        click.echo(f"{key:<{width}}  {value}")


if __name__ == "__main__":
    main()
