"""Uniform sample grids, the discrete Fourier pair and quadrature grids.

Functions live on uniform grids in an abstract coordinate u.  A "linear"
grid samples f(u) directly; a "log" grid samples f(s) at s = e^u, so that
the measure ds/s on (0, inf) becomes du and dilation becomes translation.

Transform convention:
    fourier_transform:  fhat(t) = int f(u) e^{-i u t} du

On an N-point grid with spacing du the conjugate grid has spacing
dt = 2 pi / (N du) and spans [-pi/du, pi/du).  The transform is exact for
grid-periodic trigonometric interpolants, so the inverse with
(2 pi)^{-1} int fhat(t) e^{i u t} dt reproduces the samples to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CoverageError, DomainError

COORDINATES = ("linear", "log")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class SampledFunction:
    """A function sampled on a uniform grid, optionally with a closed form.

    coordinate: "linear" holds samples of f(u) on u0 + k du;
                "log" holds samples of f(s) at s = exp(u0 + k du).
    fn:         optional callable in the natural coordinate (u for linear,
                s for log); eval needs it.
    """

    coordinate: str
    u0: float
    du: float
    values: np.ndarray
    fn: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        if self.coordinate not in COORDINATES:
            raise DomainError(f"unknown coordinate kind {self.coordinate!r}")
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise DomainError("values must be one-dimensional")
        n = len(self.values)
        if n < 16 or not _is_power_of_two(n):
            raise DomainError(f"grid size must be a power of two >= 16, got {n}")
        if not (self.du > 0 and np.isfinite(self.du) and np.isfinite(self.u0)):
            raise DomainError("grid origin and spacing must be finite, du > 0")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def u(self) -> np.ndarray:
        """The abstract uniform grid."""
        return self.u0 + self.du * np.arange(self.n)

    @property
    def x(self) -> np.ndarray:
        """The natural grid: u itself, or s = e^u for log grids."""
        return np.exp(self.u) if self.coordinate == "log" else self.u

    @classmethod
    def from_callable(cls, fn, coordinate, lo, hi, n, name="") -> "SampledFunction":
        """Sample fn on n points spanning [lo, hi] in the natural coordinate.

        For log grids lo and hi are positive abscissae s; the grid is
        geometric.  The endpoint hi is excluded so spacing stays exactly
        (hi - lo)/n, matching the FFT's periodic convention.
        """
        n = int(n)
        if coordinate == "log":
            if not (0 < lo < hi):
                raise DomainError("log grid needs 0 < lo < hi")
            u0, u1 = np.log(lo), np.log(hi)
        else:
            if not lo < hi:
                raise DomainError("grid needs lo < hi")
            u0, u1 = float(lo), float(hi)
        du = (u1 - u0) / n
        u = u0 + du * np.arange(n)
        x = np.exp(u) if coordinate == "log" else u
        vals = np.asarray(fn(x), dtype=np.complex128)
        return cls(coordinate, u0, du, vals, fn=fn, name=name)

    def eval(self, x):
        """Evaluate the closed form at points in the natural coordinate."""
        if self.fn is None:
            raise DomainError("no closed form to evaluate off the grid")
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=np.complex128)

    def require_cover(self, lo, hi, label="grid"):
        """Raise CoverageError unless [lo, hi] lies inside the natural span."""
        xg = self.x
        if lo < xg[0] * (1 - 1e-12) or hi > xg[-1] * (1 + 1e-12):
            raise CoverageError(
                f"{label} spans [{xg[0]:.3g}, {xg[-1]:.3g}] but "
                f"[{lo:.3g}, {hi:.3g}] is needed"
            )


def fourier_grid(n: int, du: float) -> np.ndarray:
    """Conjugate frequency grid, monotone, centered at 0."""
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, d=du))


def fourier_values(values: np.ndarray, u0: float, du: float):
    """(t, fhat) for the samples values[..., k] of f(u0 + k du), each row
    transformed on its own: the conjugate grid t and
    fhat(t) = int f(u) e^{-iut} du along the last axis."""
    t = fourier_grid(values.shape[-1], du)
    raw = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1)
    return t, du * np.exp(-1j * t * u0) * raw


def fourier_transform(f: SampledFunction) -> SampledFunction:
    """fhat(t) = int f(u) e^{-iut} du on the conjugate grid."""
    t, vals = fourier_values(f.values, f.u0, f.du)
    return SampledFunction("linear", t[0], t[1] - t[0], vals, name=f"F[{f.name}]")


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def log_grid(lo: float, hi: float, n: int):
    """Geometric nodes and trapezoid weights for integrals against ds/s."""
    if not (0 < lo < hi):
        raise DomainError("log grid needs 0 < lo < hi")
    u = np.linspace(np.log(lo), np.log(hi), n)
    return np.exp(u), trapezoid_weights(n, u[1] - u[0])
