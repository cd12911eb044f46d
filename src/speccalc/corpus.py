"""The built-in symbols of the norms suite.

Each symbol is a closed form plus the grid it is sampled on, so every
function can be evaluated off the grid exactly (needed when symbols are
applied at matrix eigenvalues).  The table order is the report order.
"""

from __future__ import annotations

import numpy as np

from .grids import SampledFunction


def _bump_log(s):
    y = np.log(np.asarray(s, dtype=float)) / 2.0
    out = np.zeros_like(y)
    mid = np.abs(y) < 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - y[mid] ** 2))
    return out


# (name, closed form, coordinate, lo, hi, n)
_SYMBOLS = (
    ("rho", lambda s: s * np.exp(-s), "log", 1e-6, 1e6, 4096),
    # s / (1+s)^2 = (1/4) sech^2(u/2): smooth, decays both ways in u
    ("inverse-power", lambda s: s / (1.0 + s) ** 2, "log", 1e-6, 1e6, 4096),
    (
        "gaussian-log",
        lambda s: np.exp(-(np.log(s) ** 2) / 2.0),
        "log", 1e-6, 1e6, 4096,
    ),
    (
        "gaussian-log-wide",
        lambda s: np.exp(-(np.log(s) ** 2) / (2.0 * 2.5 * 2.5)),
        "log", 1e-8, 1e8, 4096,
    ),
    ("bump-log", _bump_log, "log", 1e-6, 1e6, 4096),
    (
        "gaussian-log-phase-2",
        lambda x: np.exp(-(np.log(x) ** 2) / 2.0 + 1j * 2.0 * np.log(x)),
        "log", 1e-6, 1e6, 4096,
    ),
    ("imag-power-3", lambda x: np.exp(1j * 3.0 * np.log(x)), "log", 1e-6, 1e6, 4096),
    (
        "resolvent-symbol",
        lambda s: s**0.5 / (np.exp(1j * 2.0) * s + 1.0),
        "log", 1e-6, 1e6, 4096,
    ),
    (
        "semigroup-symbol",
        lambda s: s * np.exp(-complex(1.0, 0.0) * s),
        "log", 1e-6, 1e6, 4096,
    ),
    ("gaussian", lambda u: np.exp(-(u**2) / 2.0), "linear", -20.0, 20.0, 2048),
)


def load_corpus() -> list[SampledFunction]:
    """The built-in symbols, sampled on their grids, in report order."""
    return [
        SampledFunction.from_callable(fn, coordinate, lo, hi, n, name=name)
        for name, fn, coordinate, lo, hi, n in _SYMBOLS
    ]
