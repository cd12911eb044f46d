"""Gamma products, wave kernels, and the lower-bound certificates.

Reference values were frozen from 30-digit mpmath evaluations of the
defining integrals and series.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from speccalc import operators as ops
from speccalc import special
from speccalc.errors import ConvergenceError, DomainError, PoleError


class TestGamma:
    def test_real_axis_values(self):
        assert special.gamma(0.5) == pytest.approx(1.772453850905516, rel=1e-14)
        assert special.gamma(-1.5) == pytest.approx(2.3632718012073547, rel=1e-13)
        assert special.gamma(3.7) == pytest.approx(4.170651783796604, rel=1e-14)

    def test_complex_values(self):
        got = special.gamma(0.5 + 3.0j)
        want = 0.021445670552430646 + 0.0068653648372616779j
        assert abs(got - want) <= 1e-14 * abs(want)
        got = special.gamma(-2.3 + 1.1j)
        want = 0.01997735376367927 - 0.088828834683559923j
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_vectorized(self):
        z = np.array([0.5, 3.7, -1.5])
        out = special.gamma(z)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.772453850905516, rel=1e-13)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_reflection_formula(self, x, y):
        z = complex(x, y)
        lhs = special.gamma(z) * special.gamma(1.0 - z)
        rhs = np.pi / np.sin(np.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @given(
        st.floats(min_value=0.2, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_recurrence(self, x, y):
        z = complex(x, y)
        assert abs(special.gamma(z + 1) - z * special.gamma(z)) <= 1e-12 * abs(
            special.gamma(z + 1)
        )


class TestFiniteDifferenceProduct:
    def test_zero_structure(self):
        # the alternating sum vanishes at the negative integers that the
        # Gamma factor turns into removable points
        assert abs(special.f_m(-1.0, 2)) < 1e-14
        assert abs(special.f_m(-1.0, 3)) < 1e-13
        assert abs(special.f_m(-2.0, 3)) < 1e-13

    def test_removable_point_value(self):
        # m = 2, z = -1: the limit is 2 log 2
        got = complex(special.gamma_f_m(-1.0, 2))
        assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_removable_point_is_a_limit(self):
        center = complex(special.gamma_f_m(-1.0, 2))
        for h in (1e-5, 1e-5j, -1e-6 + 1e-6j):
            near = complex(special.gamma_f_m(-1.0 + h, 2))
            assert abs(near - center) < 1e-4

    def test_generic_values(self):
        got = complex(special.gamma_f_m(-1.3, 2))
        assert got == pytest.approx(1.5386576325849226, rel=1e-12)
        got = complex(special.gamma_f_m(-0.5 + 0.3j, 1))
        want = -2.500071308546584 - 0.036523773744283143j
        assert abs(got - want) <= 1e-12 * abs(want)
        got = complex(special.gamma_f_m(-2.2 - 0.7j, 3))
        want = -0.45431586427446 - 0.32901953168403395j
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_genuine_poles_raise(self):
        with pytest.raises(PoleError):
            special.gamma_f_m(0.0, 2)
        with pytest.raises(PoleError):
            special.gamma_f_m(-2.0, 2)
        with pytest.raises(PoleError):
            special.gamma_f_m(-3.0, 3)

    def test_vectorized_mixed_points(self):
        z = np.array([-1.0, -1.3, -0.5 + 0.3j])
        out = special.gamma_f_m(z, 2)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(2.0 * math.log(2.0), rel=1e-10)


class TestWaveKernelIntegral:
    def test_matches_closed_form(self):
        for z, m in ((-0.5 + 0.3j, 1), (-1.3, 2), (-2.2 - 0.7j, 3)):
            got = special.wave_kernel_integral(z, m)
            want = complex(special.gamma_f_m(z, m))
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_roundoff_warning_names_its_point(self):
        # quad hits roundoff at this point; the value is still right, and
        # the one warning that leaves says where and how large the error is
        z = -1.92 + 1.2j
        with pytest.warns(IntegrationWarning, match=r"z=\(-1\.92\+1\.2j\), m=2") as record:
            got = special.wave_kernel_integral(z, 2)
        assert len(record) == 1
        assert "error estimate" in str(record[0].message)
        want = complex(special.gamma_f_m(z, 2))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_strip_is_enforced(self):
        with pytest.raises(DomainError):
            special.wave_kernel_integral(0.3, 2)
        with pytest.raises(DomainError):
            special.wave_kernel_integral(-2.5, 2)


class TestContourShift:
    def test_imaginary_axis_point(self):
        got = special.contour_shifted_integral(-1.0, 2, 1j)
        want = 2j * math.log(2.0)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_interior_ray(self):
        z, m, lam = -1.3, 2, 2.0 + 0.0j
        got = special.contour_shifted_integral(z, m, lam)
        want = lam ** (-z) * complex(special.gamma_f_m(z, m))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_tilted_ray(self):
        z, m, lam = -0.5 + 0.3j, 1, 0.3 + 1.0j
        got = special.contour_shifted_integral(z, m, lam)
        want = lam ** (-z) * complex(special.gamma_f_m(z, m))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            special.contour_shifted_integral(-1.0, 2, -1.0 + 0.1j)
        with pytest.raises(DomainError):
            special.contour_shifted_integral(-1.0, 2, 0.0)


class TestHKernel:
    def test_frozen_values(self):
        got = special.h_kernel(0.7, 1.0, 2, sign=-1)
        want = -0.015185036698725718 + 2.8903872647046334j
        assert abs(got - want) <= 1e-12 * abs(want)
        got = special.h_kernel(-2.0, 1.7, 2, sign=-1)
        want = -0.00046397757569441072 + 0.0033481215136550921j
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_direction_reflection(self):
        t = np.linspace(-3.0, 3.0, 17)
        plus = special.h_kernel(-t, 1.0, 2, sign=1)
        minus = special.h_kernel(t, 1.0, 2, sign=-1)
        assert np.allclose(plus, np.conj(minus), rtol=1e-13)

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            special.h_kernel(0.5, 1.7, 1)  # needs m > alpha - 1/2
        with pytest.raises(DomainError):
            special.h_kernel(0.5, -1.0, 2)
        with pytest.raises(DomainError):
            special.h_kernel(0.5, 1.0, 2, sign=2)
        with pytest.raises(PoleError):
            special.h_kernel(0.0, 0.5, 2)


class TestTaylorKernel:
    """The Taylor remainder e^w - T_m(w) behind the wave-taylor family, on
    the imaginary arguments w = is the family evaluates it at."""

    def test_order_zero_is_plain_difference(self):
        s = np.array([-7.0, -0.3, 0.01, 2.0, 40.0])
        got = ops._exp_remainder(1j * s, 0)
        assert np.allclose(got, np.exp(1j * s) - 1.0, rtol=1e-12)

    def test_small_argument_series_joins_smoothly(self):
        # values straddling the series cutoff at |w| = 1/2 must agree
        # with the direct formula where it is still well conditioned
        s = np.array([0.4, 0.49, 0.51, 0.6])
        got = ops._exp_remainder(1j * s, 1)
        direct = np.exp(1j * s) - 1.0 - 1j * s
        assert np.allclose(got, direct, rtol=1e-10)

    def test_asymptotic_orders(self):
        # |w|^{m+1}/(m+1)! at zero, at most |w|^m-sized at infinity
        m = 1
        small = ops._exp_remainder(np.array([1e-6j]), m)[0]
        assert abs(small) == pytest.approx(1e-6 ** (m + 1) / 2.0, rel=1e-5)
        big = ops._exp_remainder(np.array([1e5j]), m)[0]
        assert abs(big) <= 3.0 * 1e5**m


class TestLowerBoundCertificate:
    @pytest.mark.parametrize("m,beta", [(2, -0.5), (3, -0.5), (2, -1.2), (3, -1.2)])
    def test_certificate_holds_on_fresh_grid(self, m, beta):
        cert = special.find_lower_bound_constants(m, beta)
        assert cert.epsilon > 0
        assert cert.delta > 0
        assert cert.N >= 0

        coef = np.array(
            [
                math.comb(m, k) * (-1) ** (m - k) * float(k) ** (-beta)
                for k in range(1, m + 1)
            ]
        )
        logs = np.log(np.arange(1, m + 1, dtype=float))
        t = np.linspace(0.0, 200.0, 10_000)
        shifts = np.arange(-cert.N, cert.N + 1) * cert.delta
        vals = np.abs(
            np.exp(-1j * (t[:, None] + shifts[None, :])[..., None] * logs) @ coef
        )
        assert float(vals.sum(axis=1).min()) >= cert.epsilon


# k = 2^a 3^b for k <= 4: the exponents of the lift of f_m to the torus
TORUS_EXPONENTS = {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (2, 0)}


def _coef_and_logs(m, beta):
    ks = np.arange(1, m + 1)
    coef = np.array([math.comb(m, k) * (-1) ** (m - k) * float(k) ** (-beta) for k in ks])
    return coef, np.log(ks.astype(float))


def _shifted_sum(m, beta, cert, t):
    """sum_{|j| <= N} |f_m(beta + i(t + j delta))| at the points t."""
    coef, logs = _coef_and_logs(m, beta)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    total = np.zeros(t.shape)
    for j in range(-cert.N, cert.N + 1):
        total += np.abs(np.exp(-1j * np.outer(t + j * cert.delta, logs)) @ coef)
    return total


def _torus_min(m, beta, cert, G=2048, rows=256):
    """The minimum of the shifted sum lifted to T^2, on a G x G grid."""
    coef, logs = _coef_and_logs(m, beta)
    theta = 2.0 * np.pi * np.arange(G) / G
    best = np.inf
    for r0 in range(0, G, rows):
        th1 = theta[r0 : r0 + rows]
        S = np.zeros((len(th1), G))
        for j in range(-cert.N, cert.N + 1):
            F = np.zeros((len(th1), G), dtype=np.complex128)
            for k in range(1, m + 1):
                a, b = TORUS_EXPONENTS[k]
                phase = np.exp(-1j * j * cert.delta * logs[k - 1])
                F += coef[k - 1] * phase * np.outer(
                    np.exp(-1j * a * th1), np.exp(-1j * b * theta)
                )
            S += np.abs(F)
        best = min(best, float(S.min()))
    return best


class TestTorusCertificate:
    @pytest.mark.parametrize("beta", [-0.5, 0.3])
    def test_known_near_cancellations_clear_epsilon(self, beta):
        # far outside any window a t-scan covers, the sum comes close to 0
        cert = special.find_lower_bound_constants(3, beta)
        sums = _shifted_sum(3, beta, cert, [1486.124242, 100328.561254])
        assert np.all(sums >= cert.epsilon), (cert, sums)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [-1.2, -0.5, 0.3])
    def test_certificate_holds_on_the_torus_and_far_out(self, m, beta):
        cert = special.find_lower_bound_constants(m, beta)
        assert cert.epsilon > 0 and cert.delta > 0 and cert.N >= 0
        assert _torus_min(m, beta, cert) >= cert.epsilon
        t = np.random.default_rng(0).uniform(0.0, 1e7, 100_000)
        assert float(_shifted_sum(m, beta, cert, t).min()) >= cert.epsilon

    def test_m1_is_the_constant_one(self):
        cert = special.find_lower_bound_constants(1, 0.3)
        assert (cert.epsilon, cert.N) == (1.0, 0)

    def test_more_than_two_primes_is_rejected(self):
        with pytest.raises(DomainError):
            special.find_lower_bound_constants(5, -0.5)

    def test_no_certificate_within_the_cap_raises(self, monkeypatch):
        # |f_3(-1/2 + it)| itself comes arbitrarily close to 0, so N = 0
        # cannot certify
        monkeypatch.setattr(special, "_CERT_MAX_N", 0)
        with pytest.raises(ConvergenceError):
            special.find_lower_bound_constants(3, -0.5)
