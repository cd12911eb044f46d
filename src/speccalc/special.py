"""Gamma, finite-difference symbols, and the kernel integrals built from them.

The central objects are the entire functions

    f_m(z) = sum_{k=1}^{m} C(m, k) (-1)^{m-k} k^{-z}

and the products Gamma(z) f_m(z), which extend analytically across the
strip -m < Re z < 0 where the regularized integral

    int_0^inf s^{z-1} (e^{-s} - 1)^m ds

converges and equals Gamma(z) f_m(z).  The module evaluates the product
stably near its removable singularities (the integer points -1, ..,
-(m-1), where the Gamma pole cancels against a zero of f_m), computes the
integral by quadrature as an independent check, and continues it to rays
lambda near the imaginary axis.  Both integrals go through _log_quad, the
one function that imports scipy (its quad), so importing the module loads
numpy alone.  quad integrates the real part, then the imaginary part, and
the second pass asks for most of the first pass's nodes again; _log_quad
keeps each node's complex value for the length of its call, so the
integrand runs once per distinct node.  The integrands do their complex
arithmetic on Python complex scalars: cmath.exp agrees bit for bit with
numpy's complex exp on every node of the identities rows, at a fraction
of its per-call cost.  The real e^u stays numpy's, whose float64 exp
rounds differently from the C library's at some nodes.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Relative accuracy ~1e-14 on Re z >= 1/2; reflection handles the rest.
_LANCZOS_G = 4.7421875
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)


def _sinpi(z):
    """sin(pi z) with integer argument reduction.

    Reducing by the nearest integer keeps full relative accuracy when z is
    close to an integer, which naive sin(pi * z) loses to cancellation.
    """
    z = np.asarray(z, dtype=np.complex128)
    m = np.round(z.real)
    r = z - m
    sign = np.where(np.mod(m, 2.0) == 0.0, 1.0, -1.0)
    return sign * np.sin(np.pi * r)


def _gamma_right(z):
    """Lanczos sum, valid for Re z >= 0.5."""
    w = z - 1.0
    acc = np.full(z.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return np.sqrt(2.0 * np.pi) * t ** (w + 0.5) * np.exp(-t) * acc


def gamma(z):
    """Complex Gamma function (Lanczos with reflection).

    Raises PoleError when an entry coincides with a pole (0, -1, -2, ...)
    to within 1e-12.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    near_int = np.abs(z.real - np.round(z.real)) < 1e-12
    at_pole = near_int & (np.abs(z.imag) < 1e-12) & (np.round(z.real) <= 0)
    if np.any(at_pole):
        bad = z[at_pole][0]
        raise PoleError(f"Gamma pole at z = {bad}")
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _gamma_right(z[right])
    if np.any(~right):
        zl = z[~right]
        out[~right] = np.pi / (_sinpi(zl) * _gamma_right(1.0 - zl))
    return out[0] if scalar else out


def f_m(z, m: int):
    """The finite-difference symbol sum_{k=1}^m C(m,k)(-1)^{m-k} k^{-z}.

    Entire in z; vanishes at z = -1, .., -(m-1) and f_m(0) = (-1)^{m+1}.
    """
    return _binomial_sum(z, m, 1, lambda k: 1)


def f_m_prime(z, m: int):
    """d/dz of f_m."""
    return _binomial_sum(z, m, 2, lambda k: -math.log(k))


def _binomial_sum(z, m, first, weight):
    """sum_{k=first}^m C(m,k)(-1)^{m-k} weight(k) k^{-z}, elementwise in z."""
    _check_order(m)
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros_like(z)
    for k in range(first, m + 1):
        c = math.comb(m, k) * (-1) ** (m - k)
        out = out + c * weight(k) * np.exp(-z * math.log(k))
    return out[0] if scalar else out


def _check_order(m):
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise DomainError(f"order m must be a positive integer, got {m!r}")


def _cexpm1(w):
    """exp(w) - 1 for complex scalars, cancellation-free for small |w|."""
    w = complex(w)
    if abs(w) < 1e-4:
        return w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
    return cmath.exp(w) - 1.0


def _f_m_near_zero_of(z, n: int, m: int):
    """f_m(z) for scalar z near a zero -n (1 <= n <= m-1), cancellation-free.

    Uses f_m(-n) = 0 to rewrite each term through expm1, so the result
    keeps full relative accuracy however small z + n is.
    """
    h = complex(z) + n
    out = 0.0 + 0.0j
    for k in range(1, m + 1):
        c = math.comb(m, k) * (-1) ** (m - k) * float(k) ** n
        out += c * _cexpm1(-h * math.log(k))
    return out


def gamma_f_m(z, m: int):
    """Gamma(z) * f_m(z), continued across the removable points.

    At z = -n with 0 < n < m the Gamma pole cancels the zero of f_m and
    the value is (-1)^n f_m'(-n) / n!.  Points z = 0 and z = -n with
    n >= m are genuine poles and raise PoleError.
    """
    _check_order(m)
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)

    nearest = np.round(z.real)
    dist = np.abs(z - nearest)
    removable = (
        (dist < 1e-3) & (nearest <= -1) & (nearest >= -(m - 1)) & (np.abs(z.imag) < 1e-3)
    )

    plain = ~removable
    if np.any(plain):
        out[plain] = gamma(z[plain]) * f_m(z[plain], m)

    if np.any(removable):
        zr = z[removable]
        res = np.empty_like(zr)
        for i, zi in enumerate(zr):
            n = int(-np.round(zi.real))
            h = zi + n
            if abs(h) < 1e-12:
                res[i] = (-1.0) ** n / math.factorial(n) * f_m_prime(-float(n), m)
            else:
                # reflected Gamma keeps relative accuracy near the pole
                g = np.pi / (_sinpi(zi) * _gamma_right(np.atleast_1d(1.0 - zi))[0])
                res[i] = g * _f_m_near_zero_of(zi, n, m)
        out[removable] = res

    return out[0] if scalar else out


def h_kernel(t, alpha: float, m: int):
    """Mellin symbol of the regularized wave kernel.

    For the group direction e^{-isA},

        h(t) = exp(-i (pi/2)(1/2 - alpha)) exp(pi t / 2)
               * Gamma(1/2 - alpha + it) f_m(1/2 - alpha + it).

    Requires m > alpha - 1/2 so the Gamma argument stays right of the
    last genuine pole; alpha = 1/2 puts a non-removable pole at t = 0.
    """
    _check_order(m)
    if not (alpha > 0):
        raise DomainError("alpha must be positive")
    if not (m > alpha - 0.5):
        raise DomainError(f"need m > alpha - 1/2, got m={m}, alpha={alpha}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    c = 0.5 - alpha
    z = c + 1j * t
    if abs(c) < 1e-12 and np.any(np.abs(t) < 1e-12):
        raise PoleError("alpha = 1/2 puts a Gamma pole at t = 0")
    pref = np.exp(-1j * (np.pi / 2.0) * c) * np.exp(np.pi * t / 2.0)
    out = pref * gamma_f_m(z, m)
    return out[0] if scalar else out


def wave_kernel_integral(z, m: int):
    """int_0^inf s^{z-1} (e^{-s} - 1)^m ds by adaptive quadrature.

    Converges for -m < Re z < 0 and equals Gamma(z) f_m(z) there.  The
    integral is evaluated in u = log s, where the integrand decays like
    e^{(m + Re z) u} to the left and e^{Re z u} to the right.
    """
    _check_order(m)
    z = complex(z)
    if not (-m < z.real < 0):
        raise DomainError(f"need -m < Re z < 0, got Re z = {z.real} with m = {m}")

    def integrand(u):
        # stable at both ends: e^{(z+m)u} growth cap on the left,
        # saturation (e^{-s}-1)^m -> (-1)^m on the right
        if (m + z.real) * u < -700.0:
            return 0.0 + 0.0j
        if u < -30.0:
            return (-1.0) ** m * cmath.exp((z + m) * u)
        eu = np.exp(min(u, 700.0))
        return cmath.exp(z * u) * np.expm1(-eu) ** m

    return _log_quad(integrand, np.inf, 400, f"wave_kernel_integral(z={z}, m={m})")


def _log_quad(integrand, hi, limit, where):
    """int_{-inf}^{hi} of a complex integrand by quad, real part then imaginary.

    Tolerances epsabs 1e-13, epsrel 1e-12, at most `limit` subintervals.
    Raises ConvergenceError when the summed error estimate exceeds
    1e-6 max(1, |value|); QUADPACK's messages leave as one
    IntegrationWarning that names `where` and the estimate.
    """
    from scipy.integrate import IntegrationWarning, quad

    # the imaginary pass revisits most of the real pass's nodes; the
    # values live as long as this call
    values = {}

    def value(u):
        v = values.get(u)
        if v is None:
            v = values[u] = integrand(u)
        return v

    (re, re_err, _, *re_msg), (im, im_err, _, *im_msg) = (
        quad(part, -np.inf, hi, full_output=1, epsabs=1e-13, epsrel=1e-12, limit=limit)
        for part in (lambda u: value(u).real, lambda u: value(u).imag)
    )
    val, err = re + 1j * im, abs(re_err) + abs(im_err)
    notes = dict.fromkeys(" ".join(m.split()) for m in re_msg + im_msg)
    if notes:
        warnings.warn(f"{where}: {' / '.join(notes)} (error estimate {err:.2e})",
                      IntegrationWarning, stacklevel=3)
    if err > 1e-6 * max(1.0, abs(val)):
        raise ConvergenceError(f"{where}: quadrature error estimate {err:.2e} too large")
    return val


def _upper_tail_series(z, c, S):
    """int_S^inf s^{z-1} e^{-cs} ds by the integration-by-parts series.

    Asymptotic in 1/(cS); ten terms are accurate to ~|z/(cS)|^10.  Used
    with |c S| >~ 200 so they are far below the target tolerances.
    """
    acc = 0.0 + 0.0j
    coef = 1.0 + 0.0j
    for j in range(10):
        acc += coef * S ** (z - 1 - j) / c ** (j + 1)
        coef *= z - 1 - j
    return np.exp(-c * S) * acc


def _ray_integral_damped(z, m, lam):
    """int_0^inf s^{z-1} (e^{-lam s} - 1)^m ds for Re lam > 0.

    Adaptive quadrature in u = log s up to S, at least 40 periods of
    e^{-lam s}, then the binomial tail on (S, inf): the k = 0 term
    integrates exactly, the rest by the integration-by-parts series.
    """
    S = max(2.0 * np.pi * 40.0 / abs(lam), 50.0 / abs(lam), 1.0)

    def integrand(u):
        if (m + z.real) * u < -700.0:
            return 0.0 + 0.0j
        if u < -30.0:
            return (-lam) ** m * cmath.exp((z + m) * u)
        return cmath.exp(z * u) * _cexpm1(-lam * np.exp(u)) ** m

    where = f"_ray_integral_damped(z={z}, m={m}, lam={lam})"
    val = _log_quad(integrand, np.log(S), 800, where)

    # (e^{-lam s} - 1)^m = sum_k C(m,k)(-1)^{m-k} e^{-k lam s}
    tail = math.comb(m, 0) * (-1) ** m * (-(S**z) / z)
    for k in range(1, m + 1):
        c = math.comb(m, k) * (-1) ** (m - k)
        tail += c * _upper_tail_series(z, k * lam, S)
    return val + tail


def contour_shifted_integral(z, m: int, lam):
    """int_0^inf s^{z-1} (e^{-lam s} - 1)^m ds continued to Re lam >= 0.

    For lam strictly inside the right half-plane the integral is computed
    directly.  On (or near) the imaginary axis it is computed at the
    damped points lam + eps |lam|, eps in {1e-2, 1e-3, 1e-4}, and
    Richardson-extrapolated to eps = 0.  Equals lam^{-z} Gamma(z) f_m(z)
    with the principal branch.
    """
    _check_order(m)
    z = complex(z)
    lam = complex(lam)
    if not (-m < z.real < 0):
        raise DomainError(f"need -m < Re z < 0, got Re z = {z.real} with m = {m}")
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    if lam.real < -1e-12 * abs(lam):
        raise DomainError("lambda must lie in the closed right half-plane")

    if lam.real > 1e-6 * abs(lam):
        return _ray_integral_damped(z, m, lam)

    eps = np.array([1e-2, 1e-3, 1e-4])
    vals = np.array([_ray_integral_damped(z, m, lam + e * abs(lam)) for e in eps])
    # Neville extrapolation of the quadratic through (eps_i, v_i) to eps = 0
    p = vals.copy()
    x = eps.copy()
    for level in range(1, len(x)):
        for i in range(len(x) - level):
            p[i] = p[i + 1] + (p[i + 1] - p[i]) * x[i + level] / (x[i] - x[i + level])
    return p[0]

