"""Partitions of unity, the multiplier norm family and the built-in symbols."""

import math
import warnings

import numpy as np
import pytest

from speccalc.corpus import load_corpus
from speccalc.errors import DomainError
from speccalc.grids import SampledFunction
from speccalc.spaces import (
    _frequency_blocks,
    _unit_bumps,
    besov_norm,
    hoermander_norm,
    mihlin_norm,
    sobexp_norm,
    sobolev_norm,
)

from oracles import PartitionOfUnity, dilate, per_block_besov_value, per_window_hoermander


def log_gauss(s):
    return np.exp(-np.log(np.asarray(s, dtype=float)) ** 2 / 2.0)


def rho(s):
    s = np.asarray(s, dtype=float)
    return s / (1.0 + s) ** 2


def window_stack(kind, x):
    """(stack, closures): the windows of kind whose support meets the
    sorted points x, as the package's stack and one closure at a time."""
    pou = PartitionOfUnity(kind)
    if kind == "fourier-dyadic":
        idx, stack = _frequency_blocks(x)
        closure_idx = pou.indices_for(x[0], x[-1])
        assert list(idx) == closure_idx
    else:
        y = x if kind == "equidistant" else np.log2(x)
        lo, hi = math.floor(y[0]), math.ceil(y[-1])
        stack = _unit_bumps(y, lo, hi)
        closure_idx = range(lo, hi + 1)
        assert list(closure_idx) == pou.indices_for(x[0], x[-1])
    return stack, np.array([pou.window(n)(x) for n in closure_idx])


def dense_points(kind, count=20_000):
    """Sorted random points: uniform on [-30, 30] (equidistant), log-uniform
    on [1e-6, 1e6] (dyadic), uniform on [-200, 200] (fourier-dyadic)."""
    gen = np.random.default_rng(0)
    if kind == "equidistant":
        return np.sort(gen.uniform(-30.0, 30.0, count))
    if kind == "dyadic":
        return np.sort(10.0 ** gen.uniform(-6.0, 6.0, count))
    return np.sort(gen.uniform(-200.0, 200.0, count))


KINDS = ("equidistant", "dyadic", "fourier-dyadic")


@pytest.fixture()
def gauss_log():
    return SampledFunction.from_callable(log_gauss, "log", 1e-8, 1e8, 1 << 11, name="g")


@pytest.fixture()
def rho_log():
    return SampledFunction.from_callable(rho, "log", 1e-8, 1e8, 1 << 11, name="rho")


# (name, coordinate, lo, hi, n) of the built-in symbols, in report order
CORPUS_GRIDS = (
    ("rho", "log", 1e-6, 1e6, 4096),
    ("inverse-power", "log", 1e-6, 1e6, 4096),
    ("gaussian-log", "log", 1e-6, 1e6, 4096),
    ("gaussian-log-wide", "log", 1e-8, 1e8, 4096),
    ("bump-log", "log", 1e-6, 1e6, 4096),
    ("gaussian-log-phase-2", "log", 1e-6, 1e6, 4096),
    ("imag-power-3", "log", 1e-6, 1e6, 4096),
    ("resolvent-symbol", "log", 1e-6, 1e6, 4096),
    ("semigroup-symbol", "log", 1e-6, 1e6, 4096),
    ("gaussian", "linear", -20.0, 20.0, 2048),
)


class TestCorpus:
    def test_names_and_grids_in_report_order(self):
        corpus = load_corpus()
        assert [f.name for f in corpus] == [g[0] for g in CORPUS_GRIDS]
        for f, (name, coordinate, lo, hi, n) in zip(corpus, CORPUS_GRIDS):
            u0, u1 = (np.log(lo), np.log(hi)) if coordinate == "log" else (lo, hi)
            assert (f.coordinate, f.n, f.u0, f.du) == (coordinate, n, u0, (u1 - u0) / n), name

    def test_samples_are_the_closed_form_on_the_grid(self):
        for f in load_corpus():
            assert f.values.tobytes() == f.eval(f.x).tobytes(), f.name


class TestPartitions:
    @pytest.mark.parametrize("kind", KINDS)
    def test_windows_sum_to_exactly_one(self, kind):
        stack, _ = window_stack(kind, dense_points(kind))
        assert np.all(stack.sum(axis=0) == 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_stacks_match_the_closures(self, kind):
        stack, closures = window_stack(kind, dense_points(kind))
        if kind == "dyadic":
            # log2(x) - (n - 1) against (log2(x) - n) + 1
            assert np.max(np.abs(stack - closures)) <= 2.0**-52
        else:
            assert np.array_equal(stack, closures)

    def test_unity_next_to_a_window_edge_warns_nothing(self):
        # at x below ~1e-308 the ramp's -1/x overflows to -inf; the value
        # must stay the exact limit without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (5e-324, 1e-310, 1e-300):
                stack = _unit_bumps(np.array([x]), 0, 1)
                assert stack.sum() == 1.0
                assert stack[1, 0] == 0.0

    def test_window_supports(self):
        # dyadic window 3 is supported on [4, 16] and peaks at 8
        w = _unit_bumps(np.log2([3.9, 8.0, 16.1]), 3, 3)[0]
        assert w[0] == 0.0
        assert w[1] == pytest.approx(1.0)
        assert w[2] == 0.0

    def test_indices_cover_range(self):
        idx, stack = _frequency_blocks(np.linspace(-10.0, 10.0, 101))
        assert 0 in idx and max(idx) >= 4 and min(idx) <= -4
        assert stack.shape == (len(idx), 101)
        # a one-sided range keeps only the blocks that meet it
        for lo, hi, want in ((3.0, 200.0, range(2, 10)), (-200.0, -3.0, range(-9, -1))):
            idx, _ = _frequency_blocks(np.linspace(lo, hi, 101))
            assert list(idx) == list(want)
            assert list(idx) == PartitionOfUnity("fourier-dyadic").indices_for(lo, hi)


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

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_batched_norm_is_bitwise_the_per_window_loop(self, alpha):
        # every window of a corpus symbol pads to the same power of two,
        # so one shared FFT length reproduces the per-window transforms
        for f in load_corpus():
            if f.coordinate == "log":
                assert hoermander_norm(f, alpha) == per_window_hoermander(f, alpha), f.name


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
