"""Partitions of unity and multiplier norms.

Norms implemented (all on SampledFunction grids, FFT-based):

    sobolev_norm    W^alpha:  (2 pi)^{-1/2} ||(1+|t|)^alpha fhat||_2
    sobexp_norm     S^alpha:  the same applied to f(e^u), the symbol in
                    logarithmic coordinates
    besov_norm      dyadic frequency blocks, l^q over 2^{|n| alpha} weights
    mihlin_norm     sup_{t>0, k <= k_max} |t^k f^(k)(t)|
    hoermander_norm H^alpha:  sup over unit translates of the localized
                    W^alpha norm in log coordinates
    classical_hoermander     sup_R of annulus L2 averages of t^k f^(k)
    modern_hoermander        sup over dilations t of ||psi f(t .)||_{W^alpha}

The three partition kinds share one construction: a smooth (or C^k) ramp
S with S = 0 left of 0 and S = 1 right of 1, differenced into a bump.
Their pointwise sums telescope to 1 exactly, including in floating
point, because adjacent windows reuse identical ramp evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CoverageError, DomainError
from .grids import SampledFunction, fourier_transform

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
        a = np.exp(-1.0 / xm)
        b = np.exp(-1.0 / (1.0 - xm))
        out[mid] = a / (a + b)
    return out


def _ramp_finite(order: int):
    """C^order ramp: the regularized incomplete beta I_x(order+1, order+1)."""
    from scipy.special import betainc

    def ramp(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return betainc(order + 1, order + 1, x)

    return ramp


@dataclass
class PartitionOfUnity:
    """A family of windows summing to one.

    kind "equidistant": windows phi(u - n s) on the line, spacing s;
    kind "dyadic": windows phi(log2 x - n) on (0, inf);
    kind "fourier-dyadic": symmetric frequency blocks: a central window
    around 0 and dyadic annuli at +-[2^{n-1}, 2^{n+1}].
    order None means C-infinity windows, an integer k means C^k.
    """

    kind: str
    spacing: float = 1.0
    order: Optional[int] = None
    generator: Optional[SampledFunction] = None

    def __post_init__(self):
        if self.kind not in ("equidistant", "dyadic", "fourier-dyadic"):
            raise DomainError(f"unknown partition kind {self.kind!r}")
        if self.order is not None and self.order < 1:
            raise DomainError("finite smoothness order must be >= 1")
        self._ramp = (
            _ramp_smooth if self.order is None else _ramp_finite(int(self.order))
        )

    # base bump on [-1, 1] with value 1 at 0
    def _bump(self, y):
        return self._ramp(y + 1.0) - self._ramp(y)

    def window(self, n: int) -> Callable:
        """The n-th window as a callable in the natural coordinate."""
        if self.kind == "equidistant":
            s = self.spacing
            return lambda u: self._bump(np.asarray(u, dtype=float) / s - n)
        if self.kind == "dyadic":
            return lambda x: self._bump(np.log2(np.asarray(x, dtype=float)) - n)
        # fourier-dyadic
        ramp = self._ramp

        def u_half(t):  # 0 below 1/2, 1 above 1
            return ramp(2.0 * np.asarray(t, dtype=float) - 1.0)

        if n == 0:
            return lambda t: 1.0 - u_half(t) - u_half(-np.asarray(t, dtype=float))
        k = abs(n)
        sgn = 1.0 if n > 0 else -1.0

        def win(t):
            t = sgn * np.asarray(t, dtype=float)
            return u_half(t / 2.0 ** (k - 1)) - u_half(t / 2.0**k)

        return win

    def support(self, n: int):
        """Closed support of window n in the natural coordinate."""
        if self.kind == "equidistant":
            return ((n - 1) * self.spacing, (n + 1) * self.spacing)
        if self.kind == "dyadic":
            return (2.0 ** (n - 1), 2.0 ** (n + 1))
        if n == 0:
            return (-1.0, 1.0)
        k = abs(n)
        lo, hi = 2.0 ** (k - 2), 2.0**k
        return (lo, hi) if n > 0 else (-hi, -lo)

    def indices_for(self, lo: float, hi: float):
        """Window indices whose support meets [lo, hi]."""
        if self.kind == "equidistant":
            return list(
                range(math.floor(lo / self.spacing), math.ceil(hi / self.spacing) + 1)
            )
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

    def unity(self, x) -> np.ndarray:
        """Sum of all windows at the points x (should be identically 1)."""
        x = np.asarray(x, dtype=float)
        lo, hi = float(np.min(x)), float(np.max(x))
        total = np.zeros_like(x)
        for n in self.indices_for(lo, hi):
            total = total + self.window(n)(x)
        return total


def make_partition(kind: str, params: dict | None = None) -> PartitionOfUnity:
    """Build a partition of unity.

    params: spacing (equidistant only, default 1.0) and order (default
    None, meaning C-infinity windows).
    """
    params = dict(params or {})
    spacing = float(params.pop("spacing", 1.0))
    order = params.pop("order", None)
    if params:
        raise DomainError(f"unknown partition parameters {sorted(params)}")
    if spacing <= 0:
        raise DomainError("spacing must be positive")
    pou = PartitionOfUnity(kind=kind, spacing=spacing, order=order)
    pou.generator = SampledFunction.from_callable(
        pou._bump, "linear", -2.0, 2.0, 64, name=f"{kind}-bump"
    )
    return pou


# ---------------------------------------------------------------------------
# norm results


@dataclass
class NormResult:
    """A computed norm with its grid diagnostics.

    divergent marks values the grid shows to be untrustworthy because
    the function fails the decay the norm requires; the value is then
    the (growing) grid truncation and only its order of magnitude means
    anything.
    """

    value: float
    kind: str
    alpha: float
    divergent: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __float__(self):
        return float(self.value)


def _edge_ratio(values: np.ndarray, parts: int = 20) -> float:
    """Max |f| over the outer 1/parts of the samples relative to the global max."""
    a = np.abs(np.asarray(values))
    k = max(1, len(a) // parts)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    return float(max(a[:k].max(), a[-k:].max()) / peak)


def _tail_energy_fraction(vals: np.ndarray) -> float:
    n = len(vals)
    k = max(1, n // 10)
    e = np.abs(vals) ** 2
    tot = float(e.sum())
    if tot == 0.0:
        return 0.0
    return float((e[:k].sum() + e[-k:].sum()) / tot)


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
    edge = _edge_ratio(f.values)
    tail = _tail_energy_fraction(fh.values * w)
    return NormResult(
        value=float(val),
        kind="sobolev",
        alpha=float(alpha),
        divergent=bool(edge > 1e-2),
        diagnostics={
            "edge_ratio": edge,
            "weighted_tail_fraction": tail,
            "grid_n": f.n,
            "grid_du": f.du,
        },
    )


def sobexp_norm(f: SampledFunction, alpha: float) -> NormResult:
    """S^alpha norm: the W^alpha norm of the symbol in log coordinates.

    The input is a log-grid function; its samples are read as
    f_e(u) = f(e^u) on the uniform u grid.
    """
    _require_log(f)
    fe = SampledFunction("linear", f.u0, f.du, f.values, name=f"{f.name}|log")
    res = sobolev_norm(fe, alpha)
    return NormResult(
        value=res.value,
        kind="sobexp",
        alpha=float(alpha),
        divergent=res.divergent,
        diagnostics=res.diagnostics,
    )


def besov_norm(f: SampledFunction, alpha: float) -> NormResult:
    """Dyadic-block Besov norm sum_n 2^{|n| alpha} sup |(fhat phi_n)^vee|.

    fhat is split over the fourier-dyadic partition; each block is
    transformed back to the original variable and its sup over the grid
    enters an l^1 sum with weight 2^{|n| alpha}.  The outermost resolved
    blocks give a geometric tail estimate; a tail that fails to contract
    marks the value divergent.
    """
    _require_linear(f)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    fh = fourier_transform(f)
    t = fh.u
    pou = make_partition("fourier-dyadic")
    idx = pou.indices_for(float(t[0]), float(t[-1]))
    blocks = {}
    for n in idx:
        win = pou.window(n)(t)
        piece_hat = SampledFunction("linear", fh.u0, fh.du, fh.values * win)
        back = fourier_transform(piece_hat)
        sup = float(np.max(np.abs(back.values))) / (2.0 * np.pi)
        blocks[n] = 2.0 ** (abs(n) * alpha) * sup
    total = float(sum(blocks.values()))
    ks = sorted({abs(n) for n in idx})
    per_k = {k: blocks.get(k, 0.0) + blocks.get(-k, 0.0) for k in ks}
    ratio = 0.0
    if len(ks) >= 3:
        a, b = per_k[ks[-3]], per_k[ks[-1]]
        if a > 0 and b > 0:
            ratio = math.sqrt(b / a)
    if ratio < 1.0:
        tail_estimate = per_k[ks[-1]] * ratio / (1.0 - ratio) if ks else 0.0
    else:
        tail_estimate = math.inf
    edge = _edge_ratio(f.values)
    divergent = bool(
        edge > 1e-2
        or (ratio >= 0.95 and total > 0 and per_k[ks[-1]] > 1e-10 * total)
    )
    return NormResult(
        value=total,
        kind="besov",
        alpha=float(alpha),
        divergent=divergent,
        diagnostics={
            "edge_ratio": edge,
            "blocks": blocks,
            "tail_ratio": ratio,
            "tail_estimate": tail_estimate,
        },
    )


def _log_spectral_factorial_derivative(f: SampledFunction, k: int) -> np.ndarray:
    """t^k f^(k)(t) evaluated on the log grid via (D-0)(D-1)..(D-k+1) f_e.

    D is d/du computed spectrally; exact for trigonometric interpolants,
    spectrally accurate for smooth decaying f_e.
    """
    n, du = f.n, f.du
    t = 2.0 * np.pi * np.fft.fftfreq(n, d=du)
    g = f.values.copy()
    for j in range(k):
        gh = np.fft.fft(g)
        g = np.fft.ifft((1j * t) * gh) - j * g
    return g


def mihlin_norm(f: SampledFunction, gamma: float) -> NormResult:
    """M^gamma norm: the Besov norm of the log-coordinate symbol.

    The samples of a log-grid function are read as f_e(u) = f(e^u) on a
    uniform grid and fed to besov_norm with smoothness gamma.
    """
    _require_log(f)
    fe = SampledFunction("linear", f.u0, f.du, f.values, name=f"{f.name}|log")
    res = besov_norm(fe, gamma)
    return NormResult(
        value=res.value,
        kind="mihlin",
        alpha=float(gamma),
        divergent=res.divergent,
        diagnostics=res.diagnostics,
    )


def classical_hoermander(f: SampledFunction, alpha1: int) -> NormResult:
    """sum_{k <= alpha1} sup_R R^{2k-1} int_{R/2}^{2R} |f^(k)(t)|^2 dt.

    Each derivative order takes its own sup over the annuli before the
    orders are summed; no root is applied.  R runs over a log-spaced
    grid in the inner part of the sample range so every annulus the sup
    sees is fully covered by samples.
    """
    _require_log(f)
    if not (isinstance(alpha1, (int, np.integer)) and alpha1 >= 0):
        raise DomainError("alpha1 must be a nonnegative integer")
    u = f.u
    n = f.n
    i_lo = int(0.15 * n)
    i_hi = int(0.85 * n)
    ln2 = math.log(2.0)
    per_order = []
    worst_R = []
    for k in range(alpha1 + 1):
        gk = _log_spectral_factorial_derivative(f, k)  # t^k f^(k)
        # |f^(k)(t)|^2 dt = |g_k|^2 e^{(1-2k)u} du on the log grid
        dens = np.abs(gk) ** 2 * np.exp((1.0 - 2.0 * k) * u)
        best = 0.0
        best_R = None
        for i in range(i_lo, i_hi, max(1, n // 256)):
            uc = u[i]
            sel = (u >= uc - ln2) & (u <= uc + ln2)
            if not np.any(sel):
                continue
            val = float(np.sum(dens[sel]) * f.du * np.exp((2.0 * k - 1.0) * uc))
            if val > best:
                best = val
                best_R = float(np.exp(uc))
        per_order.append(best)
        worst_R.append(best_R)
    edge = _edge_ratio(f.values)
    return NormResult(
        value=float(np.sum(per_order)),
        kind="classical-hoermander",
        alpha=float(alpha1),
        divergent=bool(edge > 1e-1),
        diagnostics={"per_order": per_order, "worst_R": worst_R, "edge_ratio": edge},
    )


def _localized_sobolev(
    piece_vals: np.ndarray, du: float, alpha: float, pad_factor: int = 4
) -> float:
    """W^alpha norm of a compactly supported piece, zero-padded for
    frequency resolution."""
    n = len(piece_vals)
    m = 1 << int(np.ceil(np.log2(n * pad_factor)))
    buf = np.zeros(m, dtype=np.complex128)
    buf[:n] = piece_vals
    t = 2.0 * np.pi * np.fft.fftfreq(m, d=du)
    fh = np.fft.fft(buf) * du
    w = (1.0 + np.abs(t)) ** alpha
    dt = 2.0 * np.pi / (m * du)
    return float(np.sqrt(np.sum(np.abs(fh * w) ** 2) * dt / (2.0 * np.pi)))


def hoermander_norm(
    f: SampledFunction, alpha: float, partition: PartitionOfUnity | None = None
) -> NormResult:
    """H^alpha norm: sup over window translates of the localized W^alpha
    norm of the log-coordinate symbol.

    Uses an equidistant partition in u (default spacing 1, smooth
    windows).  Windows whose support leaves the grid are skipped and the
    skipped mass is reported in the diagnostics.
    """
    _require_log(f)
    if alpha <= 0.5:
        raise DomainError("the localized norm needs alpha > 1/2")
    if partition is None:
        partition = make_partition("equidistant")
    if partition.kind != "equidistant":
        raise DomainError("hoermander_norm localizes with an equidistant partition")
    u = f.u
    sp = partition.spacing
    n_lo = int(np.ceil((u[0]) / sp)) + 1
    n_hi = int(np.floor((u[-1]) / sp)) - 1
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
    skipped = float(np.max(np.abs(f.values[u < (n_lo - 1) * sp])) if np.any(u < (n_lo - 1) * sp) else 0.0)
    skipped = max(
        skipped,
        float(np.max(np.abs(f.values[u > (n_hi + 1) * sp])) if np.any(u > (n_hi + 1) * sp) else 0.0),
    )
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
    return NormResult(
        value=best,
        kind="hoermander",
        alpha=float(alpha),
        divergent=bool(edge_growth > 1.5),
        diagnostics={
            "windows": (n_lo, n_hi),
            "edge_growth": edge_growth,
            "skipped_edge_peak": skipped,
            "argmax_window": max(per_window, key=per_window.get) if per_window else None,
        },
    )


def modern_hoermander(
    f: SampledFunction, alpha: float, psi: Callable | None = None
) -> NormResult:
    """sup over dilations t of || psi * f(t .) ||_{W^alpha} in the linear
    variable.

    psi defaults to the smooth dyadic bump supported on [1/2, 2].  The
    dilation grid is log-spaced over the range the sample grid covers.
    """
    _require_log(f)
    if psi is None:
        pou = make_partition("dyadic")
        psi = pou.window(0)
    s_nodes = np.linspace(1.0 / 16.0, 4.0, 512)  # linear grid holding supp psi
    du = s_nodes[1] - s_nodes[0]
    psi_vals = np.asarray(psi(s_nodes), dtype=np.complex128)
    xg = f.x
    t_lo = xg[0] / 0.5 * 1.0000001
    t_hi = xg[-1] / 2.0 * 0.9999999
    if not t_lo < t_hi:
        raise CoverageError("grid too short to dilate even once")
    t_grid = np.exp(np.linspace(np.log(t_lo), np.log(t_hi), 65))
    best = 0.0
    best_t = None
    for t in t_grid:
        sel = psi_vals != 0
        vals = np.zeros_like(psi_vals)
        vals[sel] = psi_vals[sel] * f.eval(t * s_nodes[sel])
        v = _localized_sobolev(vals, du, alpha, pad_factor=2)
        if v > best:
            best = v
            best_t = float(t)
    return NormResult(
        value=best,
        kind="modern-hoermander",
        alpha=float(alpha),
        divergent=False,
        diagnostics={"t_range": (float(t_lo), float(t_hi)), "argmax_t": best_t},
    )
