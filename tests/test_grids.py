"""Sample grids and the discrete Fourier pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccalc.errors import CoverageError, DomainError
from speccalc.grids import (
    SampledFunction,
    fourier_grid,
    fourier_transform,
    log_grid,
    trapezoid_weights,
)

from oracles import dilate, fourier_at, inverse_fourier_transform


def gauss(u):
    return np.exp(-(u**2) / 2.0)


class TestSampledFunction:
    def test_grid_size_must_be_power_of_two(self):
        with pytest.raises(DomainError):
            SampledFunction("linear", 0.0, 0.1, np.ones(15))
        with pytest.raises(DomainError):
            SampledFunction("linear", 0.0, 0.1, np.ones(48))
        SampledFunction("linear", 0.0, 0.1, np.ones(16))

    def test_coordinate_and_spacing_guards(self):
        with pytest.raises(DomainError):
            SampledFunction("polar", 0.0, 0.1, np.ones(16))
        with pytest.raises(DomainError):
            SampledFunction("linear", 0.0, -0.1, np.ones(16))
        with pytest.raises(DomainError):
            SampledFunction.from_callable(gauss, "log", -1.0, 10.0, 32)

    def test_log_grid_is_geometric(self):
        f = SampledFunction.from_callable(lambda s: 1.0 / s, "log", 0.1, 10.0, 32)
        r = f.x[1:] / f.x[:-1]
        assert np.allclose(r, r[0])
        assert f.x[0] == pytest.approx(0.1)

    def test_eval_prefers_closed_form(self):
        f = SampledFunction.from_callable(gauss, "linear", -10.0, 10.0, 64)
        x = np.array([0.123, 4.5])
        assert np.allclose(f.eval(x), gauss(x), rtol=1e-15)

    def test_eval_without_closed_form_raises(self):
        g = SampledFunction.from_callable(gauss, "linear", -10.0, 10.0, 256)
        h = SampledFunction("linear", g.u0, g.du, g.values)  # samples only
        with pytest.raises(DomainError):
            h.eval(np.array([0.3, -2.7]))
        log_h = SampledFunction("log", 0.0, 0.1, g.values)
        with pytest.raises(DomainError):
            dilate(log_h, 2.0)

    def test_require_cover(self):
        f = SampledFunction.from_callable(lambda s: s, "log", 0.1, 10.0, 32)
        f.require_cover(0.2, 5.0)
        with pytest.raises(CoverageError):
            f.require_cover(0.01, 5.0)

    def test_dilation_on_log_grid(self):
        f = SampledFunction.from_callable(lambda s: s / (1 + s) ** 2, "log", 1e-4, 1e4, 64)
        g = dilate(f, 3.0)
        s = np.array([0.5, 2.0])
        assert np.allclose(g.eval(s), f.eval(3.0 * s))
        lin = SampledFunction.from_callable(gauss, "linear", -1.0, 1.0, 32)
        with pytest.raises(DomainError):
            dilate(lin, 2.0)


class TestFourierPair:
    def test_gaussian_transform_closed_form(self):
        f = SampledFunction.from_callable(gauss, "linear", -40.0, 40.0, 1 << 12)
        fh = fourier_transform(f)
        t = fh.u
        want = np.sqrt(2.0 * np.pi) * np.exp(-(t**2) / 2.0)
        sel = np.abs(t) < 8.0
        assert np.max(np.abs(fh.values[sel] - want[sel])) < 1e-10

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        f = SampledFunction("linear", -3.0, 0.05, vals)
        back = inverse_fourier_transform(fourier_transform(f), f.u0)
        assert np.allclose(back.values, f.values, atol=1e-12)

    def test_conjugate_grid_layout(self):
        t = fourier_grid(64, 0.1)
        assert len(t) == 64
        assert np.all(np.diff(t) > 0)
        assert t[1] - t[0] == pytest.approx(2.0 * np.pi / (64 * 0.1))
        assert abs(t[len(t) // 2]) < 1e-12

    def test_fourier_at_matches_fft_on_grid(self):
        f = SampledFunction.from_callable(gauss, "linear", -30.0, 30.0, 1 << 10)
        fh = fourier_transform(f)
        spot = fh.u[[100, 512, 700]]
        direct = fourier_at(f, spot)
        assert np.allclose(direct, fh.values[[100, 512, 700]], atol=1e-10)

    @given(st.integers(min_value=4, max_value=7), st.floats(min_value=0.02, max_value=0.4))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, log2n, du):
        n = 1 << log2n
        rng = np.random.default_rng(log2n)
        f = SampledFunction("linear", -1.0, du, rng.standard_normal(n))
        back = inverse_fourier_transform(fourier_transform(f), f.u0)
        assert np.allclose(back.values, f.values, atol=1e-10)


class TestQuadratureGrids:
    def test_trapezoid_weights_sum(self):
        w = trapezoid_weights(11, 0.1)
        assert w.sum() == pytest.approx(1.0)
        assert w[0] == pytest.approx(0.05)

    def test_log_grid_integrates_dt_over_t(self):
        # int_a^b dt/t = log(b/a) with unit integrand
        ts, w = log_grid(1e-3, 1e3, 4097)
        assert w.sum() == pytest.approx(np.log(1e6), rel=1e-12)
        # int_0^inf t e^{-t} dt/t = 1
        ts, w = log_grid(1e-9, 1e2, 4097)
        assert float(w @ (ts * np.exp(-ts))) == pytest.approx(1.0, rel=1e-8)

    def test_log_grid_guards(self):
        with pytest.raises(DomainError):
            log_grid(0.0, 1.0, 16)
        with pytest.raises(DomainError):
            log_grid(2.0, 1.0, 16)
