"""Reference constructions the tests check the package against.

fourier_at and inverse_fourier_transform are the direct-summation and
inverse oracles of grids.fourier_transform; dilate and scale_corpus
build the dilated symbols and scaled corpora of the dilation-stability
and c1 scaling checks.  None of them is reached by `speccalc run`.
"""

from dataclasses import replace

import numpy as np

from speccalc.errors import DomainError
from speccalc.grids import SampledFunction


def inverse_fourier_transform(fhat: SampledFunction, u0: float) -> SampledFunction:
    """f(u) = (2 pi)^{-1} int fhat(t) e^{iut} dt, for a grid starting at u0.

    Exact inverse of fourier_transform when u0 matches the original grid.
    """
    n, dt = fhat.n, fhat.du
    du = 2.0 * np.pi / (n * dt)
    t = fhat.u
    phased = fhat.values * np.exp(1j * t * u0)
    vals = np.fft.ifft(np.fft.ifftshift(phased)) * (n * dt) / (2.0 * np.pi)
    return SampledFunction("linear", u0, du, vals, name=f"Finv[{fhat.name}]")


def fourier_at(f: SampledFunction, t) -> np.ndarray:
    """fhat at arbitrary frequencies by direct summation (trapezoid in u)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phase = np.exp(-1j * np.outer(t, f.u))
    return phase @ f.values * f.du


def dilate(f: SampledFunction, t: float) -> SampledFunction:
    """The dilate f(t * .) on the same grid (log coordinate only).

    Needs the closed form: eval raises DomainError without one.
    """
    if f.coordinate != "log":
        raise DomainError("dilation is defined on log grids")
    if not t > 0:
        raise DomainError("dilation factor must be positive")
    vals = f.eval(t * np.exp(f.u))
    new_fn = lambda s, _f=f.fn, _t=t: _f(_t * np.asarray(s))
    return SampledFunction("log", f.u0, f.du, vals, fn=new_fn, name=f"{f.name}@{t:g}")


def scale_corpus(corpus, c: float):
    """The corpus with every member multiplied by c (ball radius c)."""
    if not c > 0:
        raise DomainError("scale factor must be positive")
    return replace(corpus, coefficients=corpus.coefficients * c, radius=corpus.radius * c)
