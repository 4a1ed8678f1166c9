"""End-to-end acceptance suite: eight numbered criteria, each reporting one
PASS/FAIL line in the terminal summary (see conftest.criterion)."""
import math

import numpy as np
import pytest

from homlim import (ComputerSpec, DistanceFn, cg_cost, fft_cost, generalized_speedup,
                    invert_k, k_value, KPolicy, mxm_cost, optimal_volume,
                    peak_performance_over_n, preset, scaled_speedup,
                    speedup_limit, strong_efficiency, time_breakdown)
from homlim.costs import AlgorithmCost

from conftest import criterion

N_GRID = np.logspace(3, 30, 20)


def _performance_curve(spec, cost, ns=N_GRID):
    return [optimal_volume(spec, cost, float(n)).breakdown.performance for n in ns]


def test_criterion_1_cg_peak_reproduction():
    with criterion(1, "CG peak-performance reproduction"):
        _, fugaku_peak = peak_performance_over_n(preset("fugaku"), cg_cost())
        _, frontier_peak = peak_performance_over_n(preset("frontier"), cg_cost())
        assert fugaku_peak == pytest.approx(73e15, rel=0.15)
        assert frontier_peak == pytest.approx(62e15, rel=0.15)
        rel_diff = (fugaku_peak - frontier_peak) / frontier_peak
        assert 0.13 <= rel_diff <= 0.23


def test_criterion_2_machine_crossover():
    with criterion(2, "machine crossover, Fugaku wins only large CG"):
        frontier, fugaku, dgx = (preset(m) for m in
                                 ("frontier", "fugaku", "dgx-gh200"))
        # Frontier and DGX beat Fugaku at small-n CG.
        cg = cg_cost()
        p_fro = _performance_curve(frontier, cg)
        p_fug = _performance_curve(fugaku, cg)
        p_dgx = _performance_curve(dgx, cg)
        small = slice(0, 5)
        assert all(a > b for a, b in zip(p_fro[small], p_fug[small]))
        assert all(a > b for a, b in zip(p_dgx[small], p_fug[small]))
        # The CG crossover exists, is interior, and points the right way:
        # Fugaku stays ahead of Frontier for every larger n once it crosses.
        wins = [fug > fro for fro, fug in zip(p_fro, p_fug)]
        assert not wins[0] and wins[-1]
        cross = wins.index(True)
        assert 0 < cross < len(wins) - 1
        assert all(wins[cross:])
        # For MxM and FFT, Frontier outperforms Fugaku across the whole range,
        # and DGX has the edge at the smallest workloads.
        for costf in (mxm_cost, fft_cost):
            cost = costf()
            fro_curve = _performance_curve(frontier, cost)
            fug_curve = _performance_curve(fugaku, cost)
            assert all(a >= b for a, b in zip(fro_curve, fug_curve))
            dgx_small = optimal_volume(dgx, cost, 1e3).breakdown.performance
            fug_small = optimal_volume(fugaku, cost, 1e3).breakdown.performance
            assert dgx_small > fug_small


def test_criterion_3_a100_speedup_ceiling():
    with criterion(3, "A100 x1e9 speedup ceiling"):
        base = preset("a100-homogeneous")
        dense = preset("a100-homogeneous-1e9")

        def ratio(costf, n):
            t_base = optimal_volume(base, costf(), n).breakdown.total
            t_dense = optimal_volume(dense, costf(), n).breakdown.total
            return t_base / t_dense

        cg_ratio = ratio(cg_cost, 1e12)
        fft_ratio = ratio(fft_cost, 1e12)
        mxm_ratio = ratio(mxm_cost, 1e6)
        assert 1e2 <= cg_ratio <= 1e4
        assert 1e2 <= fft_ratio <= 1e4
        assert mxm_ratio > max(cg_ratio, fft_ratio)


def test_criterion_4_a100_density_derivation():
    with criterion(4, "A100 density derivation"):
        spec = preset("a100-homogeneous")
        assert spec.pi == pytest.approx(3.6e16, rel=0.02)
        assert spec.beta == pytest.approx(2.3e14, rel=0.03)
        assert spec.s == pytest.approx(9.2e9, rel=0.05)


def test_criterion_5_superlinear_strong_scaling():
    with criterion(5, "super-linear strong scaling, FFT"):
        n = 2.0 ** 40
        s_grid = np.logspace(-2, 12, 15)
        v0_grid = np.logspace(0, 4, 9)
        cost = fft_cost()

        def max_efficiency(pi, beta):
            best = -math.inf
            for s in s_grid:
                spec = ComputerSpec(pi=pi, beta=beta, s=float(s), c=3e8, V=1e6)
                for v0 in v0_grid:
                    for v in v0_grid:
                        if v <= v0:
                            continue
                        best = max(best, strong_efficiency(spec, cost, n,
                                                           float(v0), float(v)))
            return best

        balanced = max_efficiency(pi=1e16, beta=1e16)
        compute_rich = max_efficiency(pi=1.3e28, beta=1.3e22)  # pi = 1e6 * beta
        assert balanced > 1.05
        assert compute_rich < balanced


def test_criterion_6_optimizer_oracle_equivalence():
    with criterion(6, "optimizer matches 1e4-point grid oracle"):
        rng = np.random.default_rng(1234)
        costs = [mxm_cost(), cg_cost(), fft_cost()]
        for i in range(100):
            spec = ComputerSpec(pi=10 ** rng.uniform(-30, 30),
                                beta=10 ** rng.uniform(-30, 30),
                                s=10 ** rng.uniform(-30, 30),
                                c=3e8,
                                V=10 ** rng.uniform(-14, 14))
            n = 10 ** rng.uniform(3, 30)
            cost = costs[i % 3]
            sol = optimal_volume(spec, cost, n)
            grid = np.logspace(math.log10(spec.V) - 30, math.log10(spec.V), 10_000)
            oracle = min(time_breakdown(spec, cost, n, float(v)).total
                         for v in grid)
            assert sol.breakdown.total <= oracle * (1 + 1e-4)


def test_criterion_7_scaling_law_identities():
    with criterion(7, "scaling-law identity suite"):
        spec = ComputerSpec(pi=1e15, beta=1e13, s=1e9, c=3e8, V=1e6)
        for costf in (mxm_cost, cg_cost, fft_cost):
            cost = costf()
            n0, v0 = 1e9, 1.0
            # Exactly 1 at v = v0.
            assert strong_efficiency(spec, cost, n0, v0, v0) == 1.0
            assert generalized_speedup(spec, cost, n0, v0, v0) == 1.0
            assert scaled_speedup(spec, cost, n0, v0, v0) == 1.0
            # Speedup never exceeds the propagation limit.
            limit = speedup_limit(spec, cost, n0, v0)
            for v in np.logspace(0, 6, 40):
                assert generalized_speedup(spec, cost, n0, v0, float(v)) \
                    <= limit * (1 + 1e-12)
            # Gustafson form is affine in v/v0: second differences vanish.
            vs = np.linspace(1.0, 1e5, 64)
            vals = np.array([scaled_speedup(spec, cost, n0, v0, float(v))
                             for v in vs])
            scale = np.abs(vals).max()
            assert np.all(np.abs(np.diff(vals, 2)) <= 1e-9 * scale)
            # K inversion round-trips.
            for policy in KPolicy:
                for n in (1e4, 1e9, 1e15):
                    target = k_value(policy, cost, n)
                    assert invert_k(policy, cost, target) == \
                        pytest.approx(n, rel=1e-8)


def test_criterion_8_monotonicity_and_roofline():
    with criterion(8, "monotonicity and roofline bounds"):
        rng = np.random.default_rng(99)
        costs = [mxm_cost(), cg_cost(), fft_cost()]
        for i in range(200):
            spec = ComputerSpec(pi=10 ** rng.uniform(-10, 20),
                                beta=10 ** rng.uniform(-10, 20),
                                s=10 ** rng.uniform(-10, 20),
                                c=10 ** rng.uniform(5, 9),
                                V=10 ** rng.uniform(-6, 10))
            n = 10 ** rng.uniform(3, 15)
            cost = costs[i % 3]
            base = optimal_volume(spec, cost, n).breakdown.total
            for field in ("pi", "beta", "s", "c", "V"):
                import dataclasses
                boosted = dataclasses.replace(
                    spec, **{field: getattr(spec, field) * 10.0})
                improved = optimal_volume(boosted, cost, n).breakdown.total
                # Slack covers the optimizer's own 1e-9 volume tolerance.
                assert improved <= base * (1 + 1e-7), (field, i)
        # Roofline bracket at L == 0 and fixed v: the additive total sits
        # between the max of the two remaining terms and twice that max.
        no_latency = AlgorithmCost(
            name="NOLAT",
            io=cg_cost().io, work=cg_cost().work,
            wavefront=lambda v, n: 0.0, output_size=lambda n: n)
        spec = ComputerSpec(pi=1e15, beta=1e13, s=1e9, c=3e8, V=1e6)
        for n in np.logspace(3, 15, 13):
            for v in np.logspace(-3, 6, 10):
                b = time_breakdown(spec, no_latency, float(n), float(v))
                assert b.t_lat == 0.0
                peak = max(b.t_work, b.t_io)
                assert peak <= b.total <= 2 * peak
