import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from homlim.costs import (BUILTIN_COSTS, FFT_MIN_FAST_MEMORY, CostCoefficients,
                          cg_cost, custom_cost, fft_cost, mxm_cost)


class TestMxm:
    cost = mxm_cost()

    def test_work(self):
        assert self.cost.work(10.0) == 2000.0

    def test_io(self):
        n, S = 100.0, 4.0
        assert self.cost.io(n, S) == pytest.approx(2 * n**3 / math.sqrt(S) - 3 * S)

    def test_io_clamped_at_zero(self):
        # Huge fast memory drives the formula negative; Q must clamp to 0.
        assert self.cost.io(10.0, 1e9) == 0.0

    def test_wavefront_and_output(self):
        assert self.cost.wavefront(12.0, 4.0) == 3.0
        assert self.cost.output_size(7.0) == 49.0


class TestCg:
    cost = cg_cost()

    def test_work(self):
        assert self.cost.work(3.0) == 51.0

    def test_io(self):
        assert self.cost.io(100.0, 10.0) == 7 * 100.0 - 4 * 10.0
        assert self.cost.io(10.0, 1e6) == 0.0

    def test_wavefront_and_output(self):
        assert self.cost.wavefront(5.0, 123.0) == 10.0
        assert self.cost.output_size(9.0) == 9.0


class TestFft:
    cost = fft_cost()

    def test_work(self):
        assert self.cost.work(8.0) == pytest.approx((8 / 3) * 8 * 3)

    def test_io(self):
        n, S = 1024.0, 16.0
        expected = 2 * n * math.log2(n) / math.log2(S) - 2 * S
        assert self.cost.io(n, S) == pytest.approx(expected)

    def test_io_small_memory_floor(self):
        # S below the floor uses log2(4) in the denominator and stays finite.
        val = self.cost.io(1024.0, 1.0)
        assert math.isfinite(val)
        assert val == pytest.approx(2 * 1024 * 10 / 2.0 - 2 * 1.0)

    def test_io_clamped_at_zero(self):
        assert self.cost.io(16.0, 1e12) == 0.0

    def test_wavefront_and_output(self):
        assert self.cost.wavefront(3.5, 100.0) == 3.5
        assert self.cost.output_size(64.0) == 64.0


class TestCustomCost:
    def test_matches_mxm_shape(self):
        c = custom_cost(CostCoefficients(a=2.0, p=3.0, q=0.5, r=-3.0,
                                         b=2.0, w=3.0, g=1.0, h=1.0, k=1.0))
        ref = mxm_cost()
        n, S, v = 50.0, 9.0, 18.0
        assert c.io(n, S) == ref.io(n, S)
        assert c.work(n) == ref.work(n)
        assert c.wavefront(v, n) == ref.wavefront(v, n)

    @pytest.mark.parametrize("builtin", ["mxm", "cg"])
    def test_benchmark_coefficient_sets_are_the_builtins(self, builtin):
        # benchmarks/inputs.py writes MXM and CG as coefficient sets for sweep-custom.
        path = Path(__file__).parents[1] / "benchmarks" / "inputs.py"
        spec = importlib.util.spec_from_file_location("bench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        coeffs = {"mxm": inputs.MXM_COEFFS, "cg": inputs.CG_COEFFS}[builtin]
        c, ref = custom_cost(CostCoefficients(**coeffs)), BUILTIN_COSTS[builtin]()
        for n, S, v in ((1.0, 1.0, 1.0), (50.0, 9.0, 18.0), (3.7e21, 1.5e-7, 2.2e4)):
            assert c.io(n, S) == ref.io(n, S)
            assert c.work(n) == ref.work(n)
            assert c.wavefront(v, n) == ref.wavefront(v, n)
            assert c.output_size(n) == ref.output_size(n)

    def test_log_work_factor(self):
        c = custom_cost(CostCoefficients(b=8 / 3, w=1.0, l=1.0))
        assert c.work(1024.0) == pytest.approx(fft_cost().work(1024.0))
        assert c.work(1.0) == 0.0  # log2(1) = 0

    def test_extreme_exponents_no_overflow(self):
        # A value too large for a double raises OverflowError; it does not saturate at inf.
        c = custom_cost(CostCoefficients(a=1.0, p=3.0, b=1.0, w=2.0))
        with pytest.raises(OverflowError):
            c.io(1e300, 1.0)
        assert math.isfinite(c.work(1e100))

    def test_log_domain_when_plain_arithmetic_overflows(self):
        # n**2 overflows, but n**2 / S**2 is 1.
        c = custom_cost(CostCoefficients(a=1.0, p=2.0, q=2.0))
        assert c.io(1e200, 1e200) == pytest.approx(1.0, rel=1e-12)

    def test_zero_fast_memory(self):
        # Q = a*n^p/S^q has no finite value at S = 0 (an underflowed s*v) when q > 0.
        with pytest.raises(OverflowError):
            custom_cost(CostCoefficients(a=1.0, p=1.0, q=0.25)).io(10.0, 0.0)
        with pytest.raises(OverflowError):
            mxm_cost().io(10.0, 0.0)
        assert custom_cost(CostCoefficients(a=0.0, q=0.5)).io(10.0, 0.0) == 0.0

    def test_io_clamped(self):
        c = custom_cost(CostCoefficients(a=1.0, p=1.0, r=-1.0))
        assert c.io(10.0, 100.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostCoefficients(a=-1.0)
        with pytest.raises(ValueError):
            CostCoefficients(q=-0.5)
        with pytest.raises(ValueError):
            CostCoefficients(r=1.0)
        with pytest.raises(ValueError):
            CostCoefficients(p=math.inf)
        with pytest.raises(ValueError):
            CostCoefficients(m=-1.0)
        for field, value in (("a", math.inf), ("b", math.nan), ("g", math.inf),
                             ("r", -math.inf)):
            with pytest.raises(ValueError, match=rf"CostCoefficients\.{field} must be finite"):
                CostCoefficients(**{field: value})

    def test_output_size_exponent(self):
        c = custom_cost(CostCoefficients(out_exp=2.0))
        assert c.output_size(6.0) == pytest.approx(36.0)


def test_log_s_factor():
    # m is the exponent of log_S(n) = log2(n) / log2(max(S, 4)) in Q.
    c = custom_cost(CostCoefficients(a=1.0, p=1.0, m=2.0))
    assert c.io(256.0, 16.0) == 256.0 * 8.0**2 / 4.0**2
    assert c.io(256.0, 1.0) == c.io(256.0, FFT_MIN_FAST_MEMORY)


# The paper's formulas for the built-in kernels, written out term by term:
# (io(n, S), work(n), wavefront(v, n), output_size(n)).
PAPER_FORMULAS = {
    "mxm": (lambda n, S: max(2.0 * n**3 / math.sqrt(S) - 3.0 * S, 0.0),
            lambda n: 2.0 * n**3,
            lambda v, n: v / n,
            lambda n: n**2),
    "cg": (lambda n, S: max(7.0 * n - 4.0 * S, 0.0),
           lambda n: 17.0 * n,
           lambda v, n: 2.0 * v,
           lambda n: n),
    "fft": (lambda n, S: max(2.0 * n * math.log2(n) / math.log2(max(S, FFT_MIN_FAST_MEMORY))
                             - 2.0 * S, 0.0),
            lambda n: (8.0 / 3.0) * n * math.log2(n),
            lambda v, n: v,
            lambda n: n),
}


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(max_examples=600, deadline=None)
@given(kernel=st.sampled_from(sorted(PAPER_FORMULAS)),
       n=st.one_of(log_uniform(0, 100), st.floats(1.0, 1e4)),
       S=st.one_of(log_uniform(-8, 30), st.floats(0.5, 2 * FFT_MIN_FAST_MEMORY)),
       v=log_uniform(-30, 30))
@example(kernel="mxm", n=1e9, S=10063950820.587334, v=1.0)  # S**0.5 != sqrt(S) here
def test_builtin_rows_equal_paper_formulas(kernel, n, S, v):
    """Every finite value of a built-in row is the paper's formula to the last bit."""
    cost = BUILTIN_COSTS[kernel]()
    io, work, wavefront, output_size = PAPER_FORMULAS[kernel]
    for got, ref, args in ((cost.io, io, (n, S)), (cost.work, work, (n,)),
                           (cost.wavefront, wavefront, (v, n)),
                           (cost.output_size, output_size, (n,))):
        try:
            expected = ref(*args)
        except OverflowError:
            continue
        if math.isfinite(expected):
            assert got(*args) == expected
