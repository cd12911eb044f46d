"""Partitions of unity and multiplier norms.

Norms implemented (all on SampledFunction grids, FFT-based):

    sobolev_norm    W^alpha:  (2 pi)^{-1/2} ||(1+|t|)^alpha fhat||_2
    sobexp_norm     S^alpha:  the same applied to f(e^u), the symbol in
                    logarithmic coordinates
    besov_norm      dyadic frequency blocks, l^1 sum of their sups with
                    weights 2^{|n| alpha}
    mihlin_norm     besov_norm of the symbol in logarithmic coordinates
    hoermander_norm H^alpha:  sup over unit translates of the localized
                    W^alpha norm in log coordinates

The windows share one construction: a C-infinity ramp S with S = 0
left of 0 and S = 1 right of 1, evaluated once per ramp row of a stack;
each window is the difference of two adjacent rows.  Unit-spaced bumps
(_unit_bumps: hoermander_norm in u, suite.paley_littlewood_check in
log2 of the spectrum) and the fourier-dyadic blocks of besov_norm
(_frequency_blocks) therefore sum to exactly 1, in floating point too.

besov_norm, mihlin_norm and hoermander_norm also take a stack of
functions on one grid (SampledFunction values of shape (S, N)) and then
return a list of S results, each bit-equal to the function's own.  The
stack builds its window stack once and transforms one function's pieces
at a time, in one batched FFT each: one FFT over all S functions' pieces
was slower (its arrays leave the cache) and raised peak memory.  A
single function takes the same code as a one-row stack and returns one
NormResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError
from .grids import SampledFunction, fourier_transform, fourier_values

# ---------------------------------------------------------------------------
# partitions of unity


def _ramp_smooth(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        # -1/xm overflows to -inf for xm below ~1e-308; exp then gives the
        # exact limit 0
        with np.errstate(over="ignore"):
            a = np.exp(-1.0 / xm)
        b = np.exp(-1.0 / (1.0 - xm))
        out[mid] = a / (a + b)
    return out


def _unit_bumps(y, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo + 1, N) stack of windows phi(y - n), n = lo..hi, on
    the points y.

    Row n is R_{n-1} - R_n with R_k = S(y - k), so phi(y - n) lives on
    (n - 1, n + 1).  Adjacent windows share their ramp row, and the rows
    sum to exactly 1 on [lo, hi]: at most two are nonzero there,
    (1 - r) + r, which rounds to 1 for every r in [0, 1].
    """
    ramps = _ramp_smooth(np.asarray(y, dtype=float) - np.arange(lo - 1, hi + 1)[:, None])
    return ramps[:-1] - ramps[1:]


def _frequency_blocks(t):
    """The fourier-dyadic blocks that meet [t_0, t_{-1}]: (indices, stack).

    With U(t) = S(2t - 1) (0 below 1/2, 1 above 1), block 0 is
    1 - U(t) - U(-t) on (-1, 1) and block +-k is
    U(+-t / 2^{k-1}) - U(+-t / 2^k) on +-(2^{k-2}, 2^k); the blocks are
    differences of the rows U(+-t / 2^k), so they sum to exactly 1 like
    _unit_bumps.
    """
    t = np.asarray(t, dtype=float)
    lo, hi = float(t[0]), float(t[-1])
    # block k meets [lo, hi] only if 2^{k-2} < max(|lo|, |hi|)
    kmax = int(math.ceil(math.log2(max(abs(lo), abs(hi), 2.0)))) + 1
    scale = 2.0 ** np.arange(kmax + 1)[:, None]
    up = _ramp_smooth(2.0 * (t / scale) - 1.0)
    down = _ramp_smooth(2.0 * (-t / scale) - 1.0)
    stack = np.vstack([(down[:-1] - down[1:])[::-1], 1.0 - up[0] - down[0], up[:-1] - up[1:]])
    idx = np.arange(-kmax, kmax + 1)
    k = np.abs(idx)
    inner = np.where(k > 0, 2.0 ** (k - 2.0), -1.0)
    outer = np.where(k > 0, 2.0**k, 1.0)
    keep = np.where(idx >= 0, (hi > inner) & (lo < outer), (lo < -inner) & (hi > -outer))
    return idx[keep], stack[keep]


# ---------------------------------------------------------------------------
# norm results


@dataclass
class NormResult:
    """A computed norm and whether the grid can trust it.

    divergent marks values the grid shows to be untrustworthy because
    the function fails the decay the norm requires; the value is then
    the (growing) grid truncation and only its order of magnitude means
    anything.
    """

    value: float
    divergent: bool = False


def _edge_ratio(values: np.ndarray, parts: int = 20) -> float:
    """Max |f| over the outer 1/parts of the samples relative to the global max."""
    a = np.abs(np.asarray(values))
    k = max(1, len(a) // parts)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    return float(max(a[:k].max(), a[-k:].max()) / peak)


def _require_linear(f: SampledFunction):
    if f.coordinate != "linear":
        raise DomainError("this norm expects a linear-coordinate grid")


def _require_log(f: SampledFunction):
    if f.coordinate != "log":
        raise DomainError("this norm expects a log-coordinate grid")


def sobolev_norm(f: SampledFunction, alpha: float) -> NormResult:
    """W^alpha norm (2 pi)^{-1/2} ||(1+|t|)^alpha fhat||_{L^2(dt)}.

    At alpha = 0 this is Parseval's identity and reproduces the L2 norm
    of the samples exactly.
    """
    _require_linear(f)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    fh = fourier_transform(f)
    t = fh.u
    w = (1.0 + np.abs(t)) ** alpha
    val = np.sqrt(np.sum(np.abs(fh.values * w) ** 2) * fh.du / (2.0 * np.pi))
    return NormResult(value=float(val), divergent=bool(_edge_ratio(f.values) > 1e-2))


def sobexp_norm(f: SampledFunction, alpha: float) -> NormResult:
    """S^alpha norm: the W^alpha norm of the symbol in log coordinates.

    The input is a log-grid function; its samples are read as
    f_e(u) = f(e^u) on the uniform u grid.
    """
    _require_log(f)
    fe = SampledFunction("linear", f.u0, f.du, f.values, name=f"{f.name}|log")
    return sobolev_norm(fe, alpha)


def besov_norm(f: SampledFunction, alpha: float):
    """Dyadic-block Besov norm sum_n 2^{|n| alpha} sup |(fhat phi_n)^vee|.

    fhat is split over the fourier-dyadic partition; each block is
    transformed back to the original variable and its sup over the grid
    enters an l^1 sum with weight 2^{|n| alpha}.  The outermost resolved
    blocks give the tail's geometric ratio; a tail that fails to contract
    marks the value divergent.  A stack of S functions on one grid shares
    the forward transform and the window stack and gets S results, one
    per row.
    """
    _require_linear(f)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    fh = fourier_transform(f)
    idx, windows = _frequency_blocks(fh.u)
    results = []
    for values, fhat in zip(np.atleast_2d(f.values), np.atleast_2d(fh.values)):
        # the (B, N) stack of windowed blocks, transformed back in one FFT
        _, back = fourier_values(fhat * windows, fh.u0, fh.du)
        sups = np.max(np.abs(back), axis=-1) / (2.0 * np.pi)
        results.append(_besov_result(values, idx, sups, alpha))
    return results if f.values.ndim == 2 else results[0]


def _besov_result(values, idx, sups, alpha: float) -> NormResult:
    """besov_norm of the samples `values` from the sups of their blocks idx."""
    blocks = {n: 2.0 ** (abs(n) * alpha) * float(sup) for n, sup in zip(idx, sups)}
    total = float(sum(blocks.values()))
    ks = sorted({abs(n) for n in idx})
    per_k = {k: blocks.get(k, 0.0) + blocks.get(-k, 0.0) for k in ks}
    ratio = 0.0
    if len(ks) >= 3:
        a, b = per_k[ks[-3]], per_k[ks[-1]]
        if a > 0 and b > 0:
            ratio = math.sqrt(b / a)
    divergent = bool(
        _edge_ratio(values) > 1e-2
        or (ratio >= 0.95 and total > 0 and per_k[ks[-1]] > 1e-10 * total)
    )
    return NormResult(value=total, divergent=divergent)


def mihlin_norm(f: SampledFunction, gamma: float):
    """M^gamma norm: the Besov norm of the log-coordinate symbol.

    The samples of a log-grid function are read as f_e(u) = f(e^u) on a
    uniform grid and fed to besov_norm with smoothness gamma; a stack
    gets one result per row.
    """
    _require_log(f)
    fe = SampledFunction("linear", f.u0, f.du, f.values, name=f"{f.name}|log")
    return besov_norm(fe, gamma)


def hoermander_norm(f: SampledFunction, alpha: float):
    """H^alpha norm: sup over window translates of the localized W^alpha
    norm of the log-coordinate symbol.

    Uses the unit-spaced windows phi(u - n) of _unit_bumps, for the n
    whose support (n - 1, n + 1) lies inside the grid.  Each windowed
    piece is gathered from the first point of its support, zero-padded
    to the power of two at least four times the longest support (for
    frequency resolution) and transformed in one batched FFT.  A stack
    of S symbols on one grid shares the windows and their gather indices
    and gets S results, one per row.
    """
    _require_log(f)
    if alpha <= 0.5:
        raise DomainError("the localized norm needs alpha > 1/2")
    u = f.u
    n_lo = int(np.ceil(u[0])) + 1
    n_hi = int(np.floor(u[-1])) - 1
    if n_hi < n_lo:
        raise CoverageError("grid too short for even one interior window")
    windows = _unit_bumps(u, n_lo, n_hi)
    live = windows > 0
    span = np.arange(live.sum(axis=1).max())
    # past its support a window is exactly 0, and so is its piece
    cols = np.minimum(live.argmax(axis=1)[:, None] + span, len(u) - 1)
    gathered = np.take_along_axis(windows, cols, axis=1)
    m = 1 << int(np.ceil(np.log2(len(span) * 4)))
    t = 2.0 * np.pi * np.fft.fftfreq(m, d=f.du)
    w = (1.0 + np.abs(t)) ** alpha
    dt = 2.0 * np.pi / (m * f.du)
    results = []
    for values in np.atleast_2d(f.values):
        fh = np.fft.fft(gathered * values[cols], n=m, axis=-1) * f.du
        vals = np.sqrt(np.sum(np.abs(fh * w) ** 2, axis=-1) * dt / (2.0 * np.pi))
        results.append(_localized_sup(vals))
    return results if f.values.ndim == 2 else results[0]


def _localized_sup(vals) -> NormResult:
    """hoermander_norm from the localized norms vals of the windows."""
    best = float(vals.max())
    # a localized norm does not need |f| to decay (constant-modulus
    # symbols are its central inhabitants); the sup is untrustworthy only
    # when the window values are still growing at the boundary, i.e. the
    # true sup lives beyond the grid
    edge_growth = 1.0
    if len(vals) >= 4 and best > 0:
        lo_run, hi_run = vals[:4], vals[-4:]
        tiny = 1e-300
        edge_growth = max(
            lo_run[0] / max(lo_run[-1], tiny), hi_run[-1] / max(hi_run[0], tiny)
        )
    return NormResult(value=best, divergent=bool(edge_growth > 1.5))
