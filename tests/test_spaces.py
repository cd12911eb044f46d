"""Partitions of unity and the multiplier norm family."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccalc.corpus import load_corpus
from speccalc.errors import DomainError
from speccalc.grids import SampledFunction
from speccalc.spaces import (
    PartitionOfUnity,
    besov_norm,
    hoermander_norm,
    mihlin_norm,
    sobexp_norm,
    sobolev_norm,
)

from oracles import dilate, per_block_besov_value


def log_gauss(s):
    return np.exp(-np.log(np.asarray(s, dtype=float)) ** 2 / 2.0)


def rho(s):
    s = np.asarray(s, dtype=float)
    return s / (1.0 + s) ** 2


def window_sum(pou, x):
    """Sum at the point x of every window whose support meets it."""
    return sum(pou.window(n)(np.array([x]))[0] for n in pou.indices_for(x, x))


@pytest.fixture()
def gauss_log():
    return SampledFunction.from_callable(log_gauss, "log", 1e-8, 1e8, 1 << 11, name="g")


@pytest.fixture()
def rho_log():
    return SampledFunction.from_callable(rho, "log", 1e-8, 1e8, 1 << 11, name="rho")


class TestPartitions:
    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_equidistant_unity(self, u):
        pou = PartitionOfUnity("equidistant")
        assert window_sum(pou, u) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=50, deadline=None)
    def test_dyadic_unity(self, e):
        pou = PartitionOfUnity("dyadic")
        assert window_sum(pou, 10.0**e) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_fourier_dyadic_unity(self, t):
        pou = PartitionOfUnity("fourier-dyadic")
        assert window_sum(pou, t) == pytest.approx(1.0, abs=1e-12)

    def test_unity_next_to_a_window_edge_warns_nothing(self):
        # at x below ~1e-308 the ramp's -1/x overflows to -inf; the value
        # must stay the exact limit without a RuntimeWarning
        pou = PartitionOfUnity("equidistant")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (5e-324, 1e-310, 1e-300):
                assert window_sum(pou, x) == 1.0
                assert pou.window(1)(np.array([x]))[0] == 0.0

    def test_window_supports(self):
        # window 3 is supported on [4, 16] and peaks at 8
        w = PartitionOfUnity("dyadic").window(3)
        assert w(np.array([3.9]))[0] == 0.0
        assert w(np.array([8.0]))[0] == pytest.approx(1.0)
        assert w(np.array([16.1]))[0] == 0.0

    def test_indices_cover_range(self):
        pou = PartitionOfUnity("fourier-dyadic")
        idx = pou.indices_for(-10.0, 10.0)
        assert 0 in idx and max(idx) >= 4 and min(idx) <= -4

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            PartitionOfUnity("triadic")


class TestSobolevScale:
    def test_parseval_at_alpha_zero(self):
        f = SampledFunction.from_callable(
            lambda u: np.exp(-(u**2)), "linear", -30.0, 30.0, 1 << 11
        )
        res = sobolev_norm(f, 0.0)
        assert res.value == pytest.approx(np.pi**0.25 / 2.0**0.25, rel=1e-10)
        assert not res.divergent

    def test_log_gaussian_closed_form(self, gauss_log):
        # f_e(u) = e^{-u^2/2}: the alpha = 1 norm squared is
        # int (1+|t|)^2 e^{-t^2} dt = (3/2) sqrt(pi) + 2.  The kink of
        # the weight at t = 0 keeps the trapezoid error at O(dt^2), so
        # check second-order convergence toward the closed form as the
        # grid span (hence the frequency resolution) doubles.
        want = math.sqrt(1.5 * math.sqrt(math.pi) + 2.0)
        err1 = abs(sobexp_norm(gauss_log, 1.0).value - want)
        wide = SampledFunction.from_callable(log_gauss, "log", 1e-16, 1e16, 1 << 12)
        err2 = abs(sobexp_norm(wide, 1.0).value - want)
        assert err1 < 3e-3 * want
        assert err2 < 0.35 * err1

    def test_alpha_monotone(self, gauss_log):
        v1 = sobexp_norm(gauss_log, 0.7).value
        v2 = sobexp_norm(gauss_log, 1.3).value
        assert v2 >= v1

    def test_divergence_flag_for_nondecaying_symbol(self):
        f = SampledFunction.from_callable(
            lambda s: 1.0 / (1.0 + s), "log", 1e-6, 1e6, 1 << 10
        )
        assert sobexp_norm(f, 1.0).divergent

    def test_linear_grid_required(self, gauss_log):
        with pytest.raises(DomainError):
            sobolev_norm(gauss_log, 1.0)


class TestLocalizedNorms:
    def test_hoermander_needs_supercritical_alpha(self, gauss_log):
        with pytest.raises(DomainError):
            hoermander_norm(gauss_log, 0.5)

    def test_hoermander_comparable_to_global_norm(self, rho_log):
        # the sup-window norm is equivalent to the global norm up to the
        # window overlap constant; the window's own slope can push the
        # localized value slightly above the global one
        h = hoermander_norm(rho_log, 1.0).value
        s = sobexp_norm(rho_log, 1.0).value
        assert 0 < h <= 2.0 * s
        assert h >= s / 4.0

    def test_hoermander_dilation_stability(self, rho_log):
        # the localized norm is a dilation-invariant quantity up to the
        # window overlap factor
        base = hoermander_norm(rho_log, 1.0).value
        for t in (math.exp(1.0 / 3.0), math.e):
            moved = hoermander_norm(dilate(rho_log, t), 1.0).value
            assert 0.5 <= moved / base <= 2.0

    def test_imaginary_power_localizes_but_does_not_globalize(self):
        # lambda^{is} has constant modulus: the global norm diverges with
        # the grid while the localized norm stays put
        f = SampledFunction.from_callable(
            lambda s: np.exp(2.0j * np.log(s)), "log", 1e-8, 1e8, 1 << 11
        )
        glob = sobexp_norm(f, 1.0)
        assert glob.divergent
        loc = hoermander_norm(f, 1.0)
        assert not loc.divergent
        assert loc.value < glob.value

class TestBesovScale:
    def test_alpha_monotone(self):
        f = SampledFunction.from_callable(
            lambda u: np.exp(-(u**2) / 2.0), "linear", -40.0, 40.0, 1 << 12
        )
        assert besov_norm(f, 1.5).value >= besov_norm(f, 1.0).value

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_batched_blocks_are_bitwise_the_per_block_loop(self, alpha):
        for f in load_corpus():
            if f.coordinate == "log":
                f = SampledFunction("linear", f.u0, f.du, f.values, name=f.name)
            assert besov_norm(f, alpha).value == per_block_besov_value(f, alpha), f.name

    def test_mihlin_finite_for_decaying_symbol(self):
        f = SampledFunction.from_callable(rho, "log", 1e-8, 1e8, 1 << 11)
        res = mihlin_norm(f, 1.0)
        assert res.value > 0
        assert not res.divergent
