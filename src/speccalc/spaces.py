"""Partitions of unity and multiplier norms.

Norms implemented (all on SampledFunction grids, FFT-based):

    sobolev_norm    W^alpha:  (2 pi)^{-1/2} ||(1+|t|)^alpha fhat||_2
    sobexp_norm     S^alpha:  the same applied to f(e^u), the symbol in
                    logarithmic coordinates
    besov_norm      dyadic frequency blocks, l^q over 2^{|n| alpha} weights
    mihlin_norm     sup_{t>0, k <= k_max} |t^k f^(k)(t)|
    hoermander_norm H^alpha:  sup over unit translates of the localized
                    W^alpha norm in log coordinates

The three partition kinds share one construction: a C-infinity ramp S
with S = 0 left of 0 and S = 1 right of 1, differenced into a bump.
Their pointwise sums telescope to 1 exactly, including in floating
point, because adjacent windows reuse identical ramp evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass
class PartitionOfUnity:
    """A family of C-infinity windows summing to one.

    kind "equidistant": windows phi(u - n) on the line, unit spacing;
    kind "dyadic": windows phi(log2 x - n) on (0, inf);
    kind "fourier-dyadic": symmetric frequency blocks: a central window
    around 0 and dyadic annuli at +-[2^{n-1}, 2^{n+1}].
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("equidistant", "dyadic", "fourier-dyadic"):
            raise DomainError(f"unknown partition kind {self.kind!r}")

    # base bump on [-1, 1] with value 1 at 0
    def _bump(self, y):
        return _ramp_smooth(y + 1.0) - _ramp_smooth(y)

    def window(self, n: int) -> Callable:
        """The n-th window as a callable in the natural coordinate."""
        if self.kind == "equidistant":
            return lambda u: self._bump(np.asarray(u, dtype=float) - n)
        if self.kind == "dyadic":
            return lambda x: self._bump(np.log2(np.asarray(x, dtype=float)) - n)
        # fourier-dyadic
        def u_half(t):  # 0 below 1/2, 1 above 1
            return _ramp_smooth(2.0 * np.asarray(t, dtype=float) - 1.0)

        if n == 0:
            return lambda t: 1.0 - u_half(t) - u_half(-np.asarray(t, dtype=float))
        k = abs(n)
        sgn = 1.0 if n > 0 else -1.0

        def win(t):
            t = sgn * np.asarray(t, dtype=float)
            return u_half(t / 2.0 ** (k - 1)) - u_half(t / 2.0**k)

        return win

    def indices_for(self, lo: float, hi: float):
        """Window indices whose support meets [lo, hi]."""
        if self.kind == "equidistant":
            return list(range(math.floor(lo), math.ceil(hi) + 1))
        if self.kind == "dyadic":
            if not (0 < lo <= hi):
                raise DomainError("dyadic windows live on (0, inf)")
            n0 = math.floor(math.log2(lo))
            n1 = math.ceil(math.log2(hi))
            return list(range(n0, n1 + 1))
        out = []
        if lo <= 1.0 and hi >= -1.0:
            out.append(0)
        top = max(abs(lo), abs(hi), 2.0)
        kmax = int(math.ceil(math.log2(top))) + 2
        for k in range(1, kmax + 1):
            s_lo, s_hi = 2.0 ** (k - 2), 2.0**k
            if hi > s_lo and lo < s_hi:
                out.append(k)
            if lo < -s_lo and hi > -s_hi:
                out.append(-k)
        return sorted(out)


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


def besov_norm(f: SampledFunction, alpha: float) -> NormResult:
    """Dyadic-block Besov norm sum_n 2^{|n| alpha} sup |(fhat phi_n)^vee|.

    fhat is split over the fourier-dyadic partition; each block is
    transformed back to the original variable and its sup over the grid
    enters an l^1 sum with weight 2^{|n| alpha}.  The outermost resolved
    blocks give the tail's geometric ratio; a tail that fails to contract
    marks the value divergent.
    """
    _require_linear(f)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    fh = fourier_transform(f)
    t = fh.u
    pou = PartitionOfUnity("fourier-dyadic")
    idx = pou.indices_for(float(t[0]), float(t[-1]))
    # the (B, N) stack of windowed blocks, transformed back in one FFT
    pieces = fh.values * np.stack([pou.window(n)(t) for n in idx])
    _, back = fourier_values(pieces, fh.u0, fh.du)
    sups = np.max(np.abs(back), axis=-1) / (2.0 * np.pi)
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
        _edge_ratio(f.values) > 1e-2
        or (ratio >= 0.95 and total > 0 and per_k[ks[-1]] > 1e-10 * total)
    )
    return NormResult(value=total, divergent=divergent)


def mihlin_norm(f: SampledFunction, gamma: float) -> NormResult:
    """M^gamma norm: the Besov norm of the log-coordinate symbol.

    The samples of a log-grid function are read as f_e(u) = f(e^u) on a
    uniform grid and fed to besov_norm with smoothness gamma.
    """
    _require_log(f)
    fe = SampledFunction("linear", f.u0, f.du, f.values, name=f"{f.name}|log")
    return besov_norm(fe, gamma)


def _localized_sobolev(piece_vals: np.ndarray, du: float, alpha: float) -> float:
    """W^alpha norm of a compactly supported piece, zero-padded to at
    least four times its length for frequency resolution."""
    n = len(piece_vals)
    m = 1 << int(np.ceil(np.log2(n * 4)))
    buf = np.zeros(m, dtype=np.complex128)
    buf[:n] = piece_vals
    t = 2.0 * np.pi * np.fft.fftfreq(m, d=du)
    fh = np.fft.fft(buf) * du
    w = (1.0 + np.abs(t)) ** alpha
    dt = 2.0 * np.pi / (m * du)
    return float(np.sqrt(np.sum(np.abs(fh * w) ** 2) * dt / (2.0 * np.pi)))


def hoermander_norm(f: SampledFunction, alpha: float) -> NormResult:
    """H^alpha norm: sup over window translates of the localized W^alpha
    norm of the log-coordinate symbol.

    Uses the equidistant partition in u (unit spacing, smooth windows).
    Windows whose support leaves the grid are skipped.
    """
    _require_log(f)
    if alpha <= 0.5:
        raise DomainError("the localized norm needs alpha > 1/2")
    partition = PartitionOfUnity("equidistant")
    u = f.u
    n_lo = int(np.ceil(u[0])) + 1
    n_hi = int(np.floor(u[-1])) - 1
    if n_hi < n_lo:
        raise CoverageError("grid too short for even one interior window")
    per_window = {}
    best = 0.0
    for n in range(n_lo, n_hi + 1):
        wvals = partition.window(n)(u)
        sel = wvals > 0
        if not np.any(sel):
            continue
        piece = wvals[sel] * f.values[sel]
        val = _localized_sobolev(piece, f.du, alpha)
        per_window[n] = val
        best = max(best, val)
    # a localized norm does not need |f| to decay (constant-modulus
    # symbols are its central inhabitants); the sup is untrustworthy only
    # when the window values are still growing at the boundary, i.e. the
    # true sup lives beyond the grid
    edge_growth = 1.0
    ns = sorted(per_window)
    if len(ns) >= 4 and best > 0:
        lo_run = [per_window[n] for n in ns[:4]]
        hi_run = [per_window[n] for n in ns[-4:]]
        tiny = 1e-300
        edge_growth = max(
            lo_run[0] / max(lo_run[-1], tiny), hi_run[-1] / max(hi_run[0], tiny)
        )
    return NormResult(value=best, divergent=bool(edge_growth > 1.5))
