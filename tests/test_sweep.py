import math

import numpy as np
import pytest

from homlim.costs import cg_cost, mxm_cost
from homlim.machines import preset
from homlim.model import ComputerSpec, classify_regime, optimal_volume
import homlim.sweep
from homlim.sweep import AxisSpec, SweepGrid, peak_performance_over_n, run_sweep

SPEC = ComputerSpec(pi=1e15, beta=1e13, s=1e9, c=3e8, V=1e4)


class TestAxisSpec:
    def test_log_values(self):
        ax = AxisSpec("pi", 1.0, 1e4, 5, "log")
        assert np.allclose(ax.values(), [1, 10, 100, 1e3, 1e4])

    def test_log_values_end_exactly_on_bounds(self):
        # 10.0**log10(1920.0) is 1920.0000000000002, one ulp above Fugaku's V.
        vals = AxisSpec("v", 1.0, 1920.0, 5, "log").values()
        assert vals[0] == 1.0
        assert vals[-1] == 1920.0

    def test_log_values_are_libm_pow(self):
        # A log point is 10.0**x, x evenly spaced in log10: the C library's pow, the same
        # on every host. numpy's SIMD power gives ...5605 and ...174e+17 on AVX-512 hosts.
        vals = AxisSpec.default("n").values()
        assert vals[2] == 695192.7961775606
        assert vals[10] == 1.6237767391887178e+17

    def test_linear_values(self):
        ax = AxisSpec("n", 0.0, 10.0, 11, "linear")
        assert np.allclose(ax.values(), np.arange(11.0))

    def test_explicit_values(self):
        ax = AxisSpec("n", explicit=(3.0, 1.0, 2.0))
        assert list(ax.values()) == [3.0, 1.0, 2.0]

    @pytest.mark.parametrize("axis", [AxisSpec("pi", 1.0, 1e4, 5, "log"),
                                      AxisSpec("n", 0.0, 10.0, 11, "linear"),
                                      AxisSpec("n", explicit=(3, 1.0))],
                             ids=["log", "linear", "explicit"])
    def test_values_are_a_list_of_python_floats(self, axis):
        values = axis.values()
        assert type(values) is list
        assert all(type(x) is float for x in values)

    @pytest.mark.parametrize("name", ["v", "c"])
    def test_default_needs_a_default_range(self, name):
        with pytest.raises(ValueError, match=f"{name!r} has no default range"):
            AxisSpec.default(name)
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            AxisSpec.default("zeta")

    def test_default_ranges(self):
        ax = AxisSpec.default("pi")
        vals = ax.values()
        assert len(vals) == 20
        assert vals[0] == pytest.approx(1e-30)
        assert vals[-1] == pytest.approx(1e30)

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 1, 2)
        with pytest.raises(ValueError):
            AxisSpec("pi", 2, 1)
        with pytest.raises(ValueError):
            AxisSpec("pi", 1, 2, points=1)
        with pytest.raises(ValueError):
            AxisSpec("pi", 0, 2, spacing="log")
        with pytest.raises(ValueError):
            AxisSpec("pi", 1, 2, spacing="cubic")


class TestSweepGrid:
    def test_at_most_three_axes(self):
        axes = tuple(AxisSpec(p, 1, 10, 3) for p in ("pi", "beta", "s", "V"))
        with pytest.raises(ValueError, match="3 swept axes"):
            SweepGrid(axes=axes)

    def test_duplicate_axes(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepGrid(axes=(AxisSpec("pi", 1, 10), AxisSpec("pi", 1, 100)))

    @pytest.mark.parametrize("name, value", [("n", 1e9), ("v", 5.0), ("pi", 1.0)],
                             ids=["n", "v", "pi"])
    def test_fixed_and_swept_rejected(self, name, value):
        fixed = {"n": 1e9, name: value}
        with pytest.raises(ValueError, match=f"parameter {name!r} is both fixed and swept"):
            SweepGrid(axes=(AxisSpec(name, 1, 2, 2),), fixed=fixed)

    def test_requires_n_when_built(self):
        with pytest.raises(ValueError, match="problem size n must be fixed or swept"):
            SweepGrid(axes=(AxisSpec("pi", 1, 10, 3),))

    def test_size(self):
        grid = SweepGrid(axes=(AxisSpec("pi", 1, 10, 4), AxisSpec("n", 1e3, 1e6, 5)))
        assert grid.size() == 20

    def test_cap_checked_before_evaluation(self, monkeypatch):
        monkeypatch.setattr(homlim.sweep, "DEFAULT_POINT_CAP", 10)
        grid = SweepGrid(axes=(AxisSpec("n", 1e3, 1e6, 100),))
        with pytest.raises(ValueError, match="cap"):
            run_sweep(grid, SPEC, cg_cost())

    def test_size_builds_no_axis(self, monkeypatch):
        # A 4,000,000-point axis once took 61 MiB to be rejected by the cap.
        def no_values(self):
            raise AssertionError(f"axis {self.name} built its values")
        monkeypatch.setattr(AxisSpec, "values", no_values)
        grid = SweepGrid(axes=(AxisSpec("n", 1e3, 1e6, 4_000_000),
                               AxisSpec("pi", explicit=(1.0, 2.0, 3.0))))
        assert grid.size() == 12_000_000
        with pytest.raises(ValueError, match="exceeds cap"):
            run_sweep(grid, SPEC, cg_cost())


class TestRunSweep:
    def test_empty_sweep_equals_direct_call(self):
        grid = SweepGrid(fixed={"n": 1e9})
        records = run_sweep(grid, SPEC, cg_cost())
        assert len(records) == 1
        direct = optimal_volume(SPEC, cg_cost(), 1e9)
        r = records[0]
        assert r.v_star == pytest.approx(direct.v_star, rel=1e-9)
        assert r.total == pytest.approx(direct.breakdown.total, rel=1e-12)
        assert r.regime == classify_regime(direct.breakdown).value

    def test_requires_n(self):
        with pytest.raises(ValueError, match="n"):
            run_sweep(SweepGrid(), SPEC, cg_cost())

    def test_pi_axis_monotone_total(self):
        # More compute density never slows you down.
        grid = SweepGrid(axes=(AxisSpec("pi", 1e-30, 1e30, 20),), fixed={"n": 1e6})
        records = run_sweep(grid, SPEC, cg_cost())
        totals = [r.total for r in records]
        assert len(records) == 20
        assert all(b <= a * (1 + 1e-12) for a, b in zip(totals, totals[1:]))

    def test_row_major_ordering(self):
        grid = SweepGrid(axes=(AxisSpec("pi", 1.0, 10.0, 2),
                               AxisSpec("n", explicit=(1e3, 1e4, 1e5))),
                         fixed={})
        records = run_sweep(grid, SPEC, cg_cost())
        assert [r.pi for r in records] == [1.0] * 3 + [10.0] * 3
        assert [r.n for r in records] == [1e3, 1e4, 1e5] * 2

    def test_fixed_v_skips_optimization(self):
        grid = SweepGrid(fixed={"n": 1e9, "v": 2.5})
        r = run_sweep(grid, SPEC, cg_cost())[0]
        assert r.v_star == 2.5

    def test_per_point_errors_isolated(self):
        # v > V at one point: that record is marked, others still evaluate.
        grid = SweepGrid(axes=(AxisSpec("V", explicit=(1.0, 1e-8)),),
                         fixed={"n": 1e6, "v": 1e-2})
        records = run_sweep(grid, SPEC, cg_cost())
        assert records[0].error is None
        assert records[1].error is not None
        assert records[1].regime == "error"
        assert math.isnan(records[1].total)

    def test_invalid_spec_row_keeps_its_inputs(self):
        grid = SweepGrid(axes=(AxisSpec("pi", explicit=(0.0, 1.0)),), fixed={"n": 1e6})
        bad, good = run_sweep(grid, SPEC, cg_cost())
        assert (bad.pi, bad.beta, bad.s, bad.c, bad.V, bad.n) == (0.0, 1e13, 1e9, 3e8, 1e4, 1e6)
        assert bad.regime == "error" and "ComputerSpec.pi" in bad.error
        assert math.isnan(bad.v_star) and math.isnan(bad.total)
        assert good.error is None

    def test_two_axis_regime_blocks_contiguous(self):
        # Along each s-row of a (pi, s) sweep, regime labels change at most
        # twice (the plane is partitioned into contiguous bands).
        grid = SweepGrid(axes=(AxisSpec("pi", 1e-10, 1e20, 12),
                               AxisSpec("s", 1e-10, 1e20, 12)),
                         fixed={"n": 1e6})
        records = run_sweep(grid, SPEC, mxm_cost())
        assert len(records) == 144
        for row in range(12):
            labels = [records[row * 12 + i].regime for i in range(12)]
            switches = sum(a != b for a, b in zip(labels, labels[1:]))
            assert switches <= 2


def test_peak_performance_over_n_frontier_mxm():
    n_peak, perf = peak_performance_over_n(preset("frontier"), mxm_cost())
    assert perf <= 1.102e18 * (1 + 1e-9)
    assert perf > 1e18  # large MxM runs the machine near peak
    assert 1e3 <= n_peak <= 1e30
