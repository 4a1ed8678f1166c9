import math

import numpy as np
import pytest

from homlim.costs import CostCoefficients, cg_cost, custom_cost, fft_cost, mxm_cost
from homlim.machines import preset
from homlim.model import ComputerSpec, EvaluationError, time_breakdown
from homlim.scaling import (KPolicy, generalized_speedup, invert_k, k_value, scaled_problem_size,
                            scaled_speedup, speedup_curve, speedup_limit, strong_efficiency,
                            weak_efficiency)

SPEC = ComputerSpec(pi=1e15, beta=1e13, s=1e9, c=3e8, V=1e4)


class TestKPolicy:
    def test_k_value(self):
        cost = mxm_cost()
        assert k_value(KPolicy.OUTPUT_SIZE, cost, 10.0) == 100.0
        assert k_value(KPolicy.INPUT_N, cost, 10.0) == 10.0
        assert k_value(KPolicy.WORK, cost, 10.0) == 2000.0

    @pytest.mark.parametrize("policy", list(KPolicy))
    @pytest.mark.parametrize("costf", [mxm_cost, cg_cost, fft_cost],
                             ids=["mxm_cost", "cg_cost", "fft_cost"])
    def test_invert_round_trip(self, policy, costf):
        cost = costf()
        for n in (10.0, 1e6, 1e12):
            target = k_value(policy, cost, n)
            n_back = invert_k(policy, cost, target)
            assert n_back == pytest.approx(n, rel=1e-8)

    def test_invert_validation(self):
        with pytest.raises(ValueError):
            invert_k(KPolicy.INPUT_N, cg_cost(), 0.0)
        with pytest.raises(ValueError):
            invert_k(KPolicy.INPUT_N, cg_cost(), 0.5)

    def test_invert_above_1e154(self):
        assert invert_k(KPolicy.INPUT_N, cg_cost(), 1e155) == pytest.approx(1e155, rel=1e-8)

    def test_invert_counts_overflow_as_above_target(self):
        # W = 2n**3 overflows at the bracket's n = 2**512, before reaching the target.
        n = invert_k(KPolicy.WORK, mxm_cost(), 1e300)
        assert n == pytest.approx((0.5e300) ** (1.0 / 3.0), rel=1e-8)

    def test_invert_unreachable_target_is_evaluation_error(self):
        sqrt_out = custom_cost(CostCoefficients(out_exp=0.5))
        with pytest.raises(EvaluationError):
            invert_k(KPolicy.OUTPUT_SIZE, sqrt_out, 1e200)


class TestStrongScaling:
    def test_identity_at_v0(self):
        assert strong_efficiency(SPEC, cg_cost(), 1e9, 1.0, 1.0) == 1.0

    def test_requires_v_ge_v0(self):
        with pytest.raises(ValueError):
            strong_efficiency(SPEC, cg_cost(), 1e9, 2.0, 1.0)

    def test_matches_definition(self):
        cost = cg_cost()
        n, v0, v = 1e9, 1.0, 100.0
        f0 = time_breakdown(SPEC, cost, n, v0).total
        fv = time_breakdown(SPEC, cost, n, v).total
        assert strong_efficiency(SPEC, cost, n, v0, v) == pytest.approx(
            f0 * v0 / (fv * v), rel=1e-12)


class TestWeakScaling:
    def test_identity_at_v0(self):
        assert weak_efficiency(SPEC, cg_cost(), KPolicy.OUTPUT_SIZE,
                               1e9, 1.0, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_infinite_n0_is_value_error(self):
        # n0 is checked before K is inverted: bad input, not a failed inversion.
        with pytest.raises(ValueError, match="must be finite and >= 1"):
            weak_efficiency(SPEC, cg_cost(), KPolicy.OUTPUT_SIZE, math.inf, 1.0, 2.0)

    def test_volume_above_V_is_value_error(self):
        # Checked against [v0, V] before K is inverted: the target K(n0) * 1e300 is
        # above K(n) for every representable n, which would be an EvaluationError.
        with pytest.raises(ValueError, match=r"outside \(0, V=10000.0\]"):
            weak_efficiency(SPEC, cg_cost(), KPolicy.INPUT_N, 1e9, 1.0, 1e300)

    def test_scaled_problem_size_grows(self):
        cost = fft_cost()
        n = scaled_problem_size(cost, KPolicy.OUTPUT_SIZE, 1e6, 1.0, 8.0)
        assert n == pytest.approx(8e6, rel=1e-8)

    def test_mxm_output_policy_sqrt_growth(self):
        # Holding n^2 per volume constant: n grows like sqrt(v/v0).
        n = scaled_problem_size(mxm_cost(), KPolicy.OUTPUT_SIZE, 1e3, 1.0, 100.0)
        assert n == pytest.approx(1e4, rel=1e-8)


class TestLaws:
    def test_identity_at_v0(self):
        assert generalized_speedup(SPEC, cg_cost(), 1e9, 1.0, 1.0) == 1.0
        assert scaled_speedup(SPEC, cg_cost(), 1e9, 1.0, 1.0) == 1.0

    def test_speedup_below_limit(self):
        cost = cg_cost()
        limit = speedup_limit(SPEC, cost, 1e9, 1.0)
        for v in np.logspace(0, 4, 30):
            assert generalized_speedup(SPEC, cost, 1e9, 1.0, float(v)) <= limit * (1 + 1e-12)

    def test_monotone_in_v(self):
        cost = fft_cost()
        vals = [generalized_speedup(SPEC, cost, 1e9, 1.0, float(v))
                for v in np.logspace(0, 4, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_scaled_speedup_affine(self):
        cost = cg_cost()
        ratios = np.linspace(1.0, 1000.0, 50)
        vals = [scaled_speedup(SPEC, cost, 1e9, 1.0, float(r)) for r in ratios]
        second = np.diff(vals, 2)
        assert np.all(np.abs(second) <= 1e-9 * max(abs(v) for v in vals))

    def test_limit_infinite_without_latency(self):
        from homlim.costs import AlgorithmCost
        no_lat = AlgorithmCost("NL", io=lambda n, S: 1.0, work=lambda n: 1.0,
                               wavefront=lambda v, n: 0.0, output_size=lambda n: n)
        assert speedup_limit(SPEC, no_lat, 10.0, 1.0) == math.inf

    @pytest.mark.parametrize("law, point", [("amdahl", generalized_speedup),
                                            ("gustafson", scaled_speedup)])
    def test_curve_matches_one_point_calls(self, law, point):
        cost = fft_cost()
        volumes = [1.0, 3.0, 100.0, SPEC.V]
        limit, points = speedup_curve(SPEC, cost, 1e9, 1.0, volumes, law)
        assert limit == speedup_limit(SPEC, cost, 1e9, 1.0)
        assert points == [(v, point(SPEC, cost, 1e9, 1.0, v)) for v in volumes]

    def test_curve_rejects_bad_volumes_and_law(self):
        cost = cg_cost()
        with pytest.raises(ValueError, match="must be >= v0"):
            speedup_curve(SPEC, cost, 1e9, 2.0, [4.0, 1.0], "amdahl")
        with pytest.raises(ValueError, match=r"outside \(0, V=10000.0\]"):
            speedup_curve(SPEC, cost, 1e9, 1.0, [1.0, 2e4], "amdahl")
        with pytest.raises(ValueError, match="outside"):
            generalized_speedup(SPEC, cost, 1e9, 1.0, math.nan)
        with pytest.raises(ValueError, match="law='roofline'"):
            speedup_curve(SPEC, cost, 1e9, 1.0, [1.0], "roofline")

    def test_non_finite_speedup_is_evaluation_error(self):
        # At a subnormal v0 the latency share is 0 and v/v0 overflows: nan and inf.
        spec = preset("frontier")
        with pytest.raises(EvaluationError, match=r"gustafson speedup=nan .*\(v=370.0\)"):
            scaled_speedup(spec, cg_cost(), 1e3, 1e-310, 370.0)
        with pytest.raises(EvaluationError, match=r"amdahl speedup=inf .*\(v=370.0\)"):
            generalized_speedup(spec, cg_cost(), 1e3, 1e-310, 370.0)
        assert math.isfinite(generalized_speedup(spec, cg_cost(), 1e3, 1e-300, 370.0))

    def test_overflowing_limit_is_evaluation_error(self):
        # T_L(v0) = 1.4e-156 on Frontier CG at v0 = 1e-300: the ceiling is finite, but not
        # a double. It stays representable at v0 = 1e-200.
        spec = preset("frontier")
        with pytest.raises(EvaluationError, match="speedup limit T/T_L .* overflows a double"):
            speedup_limit(spec, cg_cost(), 1e3, 1e-300)
        assert speedup_limit(spec, cg_cost(), 1e3, 1e-200) == pytest.approx(1.2383e296, rel=1e-4)


def test_superlinear_efficiency_possible():
    # Growing the active volume grows the fast memory, cutting I/O enough to
    # beat linear scaling for FFT when pi and beta are comparable.
    spec = ComputerSpec(pi=1e16, beta=1e16, s=1e4, c=3e8, V=1e4)
    effs = [strong_efficiency(spec, fft_cost(), 2.0**40, 1.0, float(v))
            for v in np.logspace(0.1, 4, 20)]
    assert max(effs) > 1.0


def test_preset_strong_scaling_sane():
    spec = preset("frontier")
    effs = [strong_efficiency(spec, cg_cost(), 1e12, spec.V * 1e-6, float(v))
            for v in np.logspace(math.log10(spec.V * 1e-6) + 0.1, math.log10(spec.V), 15)]
    assert all(e > 0 for e in effs)
