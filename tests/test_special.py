"""Gamma products and wave kernels.

Reference values were frozen from 30-digit mpmath evaluations of the
defining integrals and series; the finite-difference symbol f_m is
checked against mpmath at 30 digits directly.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from speccalc import operators as ops
from speccalc import special
from speccalc.errors import DomainError, PoleError


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


def _mp_sum(z, m):
    """f_m(z) at mpmath's working precision."""
    z = mpmath.mpc(z)
    return sum(
        math.comb(m, k) * (-1) ** (m - k) * mpmath.power(k, -z) for k in range(1, m + 1)
    )


def _mp_f_m(z, m):
    """f_m(z) at 30 significant digits."""
    with mpmath.workdps(30):
        return _mp_sum(z, m)


def _coefficient_scale(m, beta):
    """sum_k C(m,k) k^{-beta}, the size of the terms of f_m on Re z = beta."""
    return sum(math.comb(m, k) * float(k) ** (-beta) for k in range(1, m + 1))


def _line_error_bound(m, beta, t):
    """Absolute error allowed for f_m(beta + it) in double precision: the
    phases t log k carry a rounding of order eps |t|, and the terms add
    up to at most the coefficient scale."""
    return 4.0 * np.finfo(float).eps * (1.0 + abs(t)) * _coefficient_scale(m, beta)


class TestFiniteDifferenceSymbol:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_values_at_the_integers(self, m):
        # f_m(-n) is the m-th difference of k^n at 0: zero below n = m,
        # m! at n = m, and f_m(0) = (-1)^{m+1}
        tol = 1e-14 * _coefficient_scale(m, -m)
        assert complex(special.f_m(0.0, m)) == pytest.approx((-1) ** (m + 1), abs=tol)
        for n in range(1, m):
            assert abs(special.f_m(-float(n), m)) <= tol
        assert complex(special.f_m(-float(m), m)) == pytest.approx(
            math.factorial(m), abs=tol
        )

    def test_m1_is_the_constant_one(self):
        z = np.array([0.3, -1.7 + 2.5j, -0.5 + 1e6j, 4.0 - 3.0j])
        assert np.array_equal(special.f_m(z, 1), np.ones(4, dtype=complex))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [-1.2, -0.5, 0.3])
    def test_far_up_a_vertical_line_matches_mpmath(self, m, beta):
        t = np.concatenate(
            [[0.0, 1.0, 37.5, 1e3, 1e5], np.random.default_rng(0).uniform(0.0, 1e7, 5)]
        )
        got = special.f_m(beta + 1j * t, m)
        for ti, gi in zip(t, got):
            want = complex(_mp_f_m(complex(beta, ti), m))
            assert abs(gi - want) <= _line_error_bound(m, beta, ti), (ti, gi, want)

    @pytest.mark.parametrize(
        "beta,t", [(-0.5, 1486.124242), (0.3, 100328.561254)]
    )
    def test_near_cancellations_keep_absolute_accuracy(self, beta, t):
        # |f_3(beta + it)| dips to a few thousandths of its terms' size
        # here; the error stays at the rounding of the phases
        got = complex(special.f_m(complex(beta, t), 3))
        want = complex(_mp_f_m(complex(beta, t), 3))
        assert abs(want) < 1e-3 * _coefficient_scale(3, beta)
        assert abs(got - want) <= _line_error_bound(3, beta, t)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_derivative_matches_mpmath(self, m):
        for z in (0.3 + 0.0j, -1.7 + 2.5j, -0.5 + 40.0j):
            got = complex(special.f_m_prime(z, m))
            with mpmath.workdps(30):
                want = complex(mpmath.diff(lambda w: _mp_sum(w, m), mpmath.mpc(z)))
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)) * m, (z, got, want)

    @pytest.mark.parametrize("m", [0, -2, 1.5, "3"])
    def test_order_must_be_a_positive_integer(self, m):
        for fn in (special.f_m, special.f_m_prime, special.gamma_f_m):
            with pytest.raises(DomainError):
                fn(-0.5, m)


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
