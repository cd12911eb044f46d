"""Cross-checks between the multiplier conditions on a fixed operator.

The conditions are numbered the way the reports print them:

  c1   R-bound of the calculus image of a normalized symbol corpus
  c2   imaginary powers <t>^{-alpha} A^{it}
  c3   resolvents on single rays, swept over the ray angle
  c4   resolvents averaged over the sector (two-dimensional)
  c5   semigroup on single rays, swept toward the boundary
  c6   semigroup averaged over the half-plane (two-dimensional)
  c7   regularized wave differences |s|^{-alpha} A^{1/2-alpha}(e^{isA}-1)^m
  c8   wave remainders past the Taylor polynomial (order floor(alpha-1/2))

`equivalence_report` evaluates all of them on one operator and records
the bridge ratio c2 / (2 pi c1), the angle-growth exponents, a beta
sweep, and a doubled-grid convergence study.  All randomness flows from
a single seed so a rerun reproduces the report exactly.

The corpus normalization uses the plain weighted transform norm
||<t>^alpha fhat_e||_{L^2(dt)} with <t> = sqrt(1 + t^2).  Under the
representation f(A) = (2 pi)^{-1} int fhat_e(t) A^{it} dt this is the
convention for which the single-function bound and the imaginary-power
bound differ by exactly 2 pi, which is what the bridge ratio checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .errors import ConvergenceError, CoverageError, DomainError
from .grids import SampledFunction, fourier_transform, log_grid, trapezoid_weights
from .rbound import SpaceSpec, _eig_apply_stack, r_bound, r_l2_bound, rademacher_norm
from .spaces import PartitionOfUnity, _edge_ratio

__all__ = [
    "ConditionValue",
    "MultiplierCorpus",
    "SuiteReport",
    "condition_c1",
    "condition_c2_to_c8",
    "equivalence_report",
    "multiplier_corpus",
    "paley_littlewood_check",
    "sea_to_ha_decomposition",
    "sobolev_calculus_apply",
]

# corpus transform grid: [-BIP_T, BIP_T] (the window of the c2 family)
# at step 2^-5
DEFAULT_DT = 2.0**-5

_TOLERANCES = {
    "c1": 0.05,
    "c2": 0.02,
    "c3": 0.02,
    "c4": 0.05,
    "c5": 0.02,
    "c6": 0.02,
    "c7": 0.01,
    "c8": 0.05,
    "bridge": 0.05,
}


# ---------------------------------------------------------------------------
# result containers


@dataclass
class ConditionValue:
    """One measured quantity: which condition, at which parameter, and
    whether it passed (a finite value inside its row's assertion)."""

    condition: str
    param: str
    value: float
    tolerance: float
    grid: dict = field(default_factory=dict)
    passed: bool = True
    extra: dict = field(default_factory=dict)


@dataclass
class MultiplierCorpus:
    """Symbols held by their transform samples on a uniform t grid.

    coefficients[j] are the samples of fhat_e for member j;
    multiplier_corpus normalizes every member so ||<t>^alpha
    fhat_e||_{L^2(dt)} equals 1 for the alpha it was given.
    """

    t0: float
    dt: float
    coefficients: np.ndarray

    def __len__(self) -> int:
        return self.coefficients.shape[0]

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.coefficients.shape[1])


@dataclass
class SuiteReport:
    """The rows and flags `equivalence_report` measured on one operator."""

    rows: list
    flags: dict


# ---------------------------------------------------------------------------
# the calculus through imaginary powers


def sobolev_calculus_apply(A, f: SampledFunction) -> np.ndarray:
    """f(A) through the imaginary-power representation.

    With f_e(u) = f(e^u) on the log grid,

        f(A) = (2 pi)^{-1} int fhat_e(t) A^{it} dt,

    evaluated by trapezoid sums on the transform grid.  The symbol grid
    must cover the spectrum, the samples must decay toward both grid
    edges, and the transform must decay within its frequency band; a
    symbol the grid cannot resolve raises ConvergenceError instead of
    returning a silently truncated answer.
    """
    op = ops.sectorial(A)
    if f.coordinate != "log":
        raise DomainError("the imaginary-power calculus expects a log-grid symbol")
    lo, hi = op.spectral_bounds()
    f.require_cover(lo, hi, "symbol grid")
    if float(np.max(np.abs(f.values))) == 0.0:
        return np.zeros((op.dim, op.dim), dtype=np.complex128)
    edge = _edge_ratio(f.values, 50)
    if edge > 1e-2:
        raise ConvergenceError(
            f"symbol has not decayed at the grid edges (edge ratio {edge:.2e}); "
            "enlarge the span"
        )
    fe = SampledFunction("linear", f.u0, f.du, f.values, name=f.name)
    fh = fourier_transform(fe)
    band = _edge_ratio(fh.values, 50)
    if band > 1e-3:
        raise ConvergenceError(
            f"transform has not decayed within the frequency band "
            f"(edge ratio {band:.2e}); refine the grid"
        )
    coef = fh.values * fh.du / (2.0 * np.pi)
    t = fh.u
    if op.diagonalizable:
        g = np.exp(1j * np.outer(np.log(op.eigenvalues), t)) @ coef
        return _eig_apply_stack(op.eigenbasis, g[None])[0]
    stack = ops.imaginary_powers(op, t)
    return np.tensordot(coef, stack, axes=(0, 0))


# ---------------------------------------------------------------------------
# corpus and condition (1)


def multiplier_corpus(
    A,
    alpha: float,
    size: int = 200,
    seed: int = 0,
) -> MultiplierCorpus:
    """A ball-normalized symbol corpus saturating the single-function sup.

    Members are stored by their transform samples on [-BIP_T, BIP_T]
    at spacing DEFAULT_DT.
    The mix: stationary-phase extremals <t>^{-2 alpha} e^{-it log a}
    centered at every eigenvalue (these attain the supremum for the
    weighted ball), the same shape at random centers, gaussian packets
    of varied width, and the rational bump s/(1+s)^2.
    """
    op = ops.sectorial(A)
    if size < 1:
        raise DomainError("corpus size must be positive")
    gen = np.random.default_rng(seed)
    t = np.arange(-ops.BIP_T, ops.BIP_T + DEFAULT_DT / 2.0, DEFAULT_DT)
    w = trapezoid_weights(len(t), DEFAULT_DT)
    bracket = 1.0 + t * t

    members = []
    seen = set()
    for lam in op.eigenvalues:
        a = float(lam.real)
        key = round(math.log(a), 9) if a > 0 else None
        if key is None or key in seen:
            continue
        seen.add(key)
        members.append(bracket ** (-alpha) * np.exp(-1j * t * math.log(a)))
    tt = np.where(t == 0.0, 1.0, t)
    rho_hat = np.where(t == 0.0, 1.0, np.pi * tt / np.sinh(np.pi * tt))
    members.append(rho_hat.astype(np.complex128))

    lo, hi = op.spectral_bounds()
    ulo, uhi = math.log(lo) - 1.0, math.log(hi) + 1.0
    while len(members) < size:
        c = gen.uniform(ulo, uhi)
        if len(members) % 2 == 0:
            members.append(bracket ** (-alpha) * np.exp(-1j * t * c))
        else:
            sig = gen.uniform(0.3, 3.0)
            members.append(
                sig
                * math.sqrt(2.0 * np.pi)
                * np.exp(-0.5 * (sig * t) ** 2)
                * np.exp(-1j * t * c)
            )

    C = np.stack(members[:size]).astype(np.complex128)
    norms = np.sqrt(np.sum(bracket**alpha * np.abs(C) ** 2 * w, axis=1))
    if np.any(norms == 0):
        raise DomainError("corpus member with zero ball norm")
    C = C / norms[:, None]
    return MultiplierCorpus(t0=float(t[0]), dt=float(DEFAULT_DT), coefficients=C)


def _corpus_image(op: ops.SectorialOperator, corpus: MultiplierCorpus) -> np.ndarray:
    """The stack f_j(A) over the corpus, shape (J, n, n)."""
    t = corpus.t
    w = trapezoid_weights(len(t), corpus.dt)
    coef = corpus.coefficients * w[None, :] / (2.0 * np.pi)
    if op.diagonalizable:
        P = np.exp(1j * np.outer(t, np.log(op.eigenvalues)))
        return _eig_apply_stack(op.eigenbasis, coef @ P)
    stack = ops.imaginary_powers(op, t)
    return np.tensordot(coef, stack, axes=(1, 0))


def condition_c1(A, space: SpaceSpec, corpus: MultiplierCorpus, rng=None) -> ConditionValue:
    """R-bound of the corpus image {f_j(A)}.

    The members are ball-normalized at construction, so the value scales
    linearly with the coefficients.  The row fails when r_bound reports
    an inverted bracket, which it writes to extra["bracket_violation"].
    """
    op = ops.sectorial(A)
    mats = _corpus_image(op, corpus)
    est = r_bound(mats, space, rng=rng)
    violation = est.diagnostics.get("bracket_violation")
    return ConditionValue(
        condition="c1",
        param=f"corpus:{len(corpus)}",
        value=float(est.lower),
        tolerance=_TOLERANCES["c1"],
        grid={"t_max": -corpus.t0, "dt": corpus.dt, "members": len(corpus)},
        passed=bool(np.isfinite(est.lower)) and violation is None,
        extra={
            "upper": float(est.upper),
            "method": est.method,
            **({"bracket_violation": violation} if violation else {}),
        },
    )


# ---------------------------------------------------------------------------
# conditions (2) through (8)


# the ray angles of c3 (the resolvent rays close on the spectrum as the
# angle goes to 0) and of c5 (the semigroup rays leave the decay sector
# as the angle goes to pi/2)
RESOLVENT_ANGLES = (np.pi, np.pi / 2, np.pi / 4, np.pi / 8)
SEMIGROUP_ANGLES = (0.0, np.pi / 4, 3 * np.pi / 8, 7 * np.pi / 16)
# condition: (its ray angles, the critical angle they approach)
_RAY_FITS = {"c3": (RESOLVENT_ANGLES, 0.0), "c5": (SEMIGROUP_ANGLES, np.pi / 2)}

# grid sizes of the doubled-grid convergence study (twice the defaults)
_REFINED_N = {"c2": 6402, "c7": 4096}


def _condition_table(alpha: float, beta: float) -> list:
    """The (condition, param, family, kwargs) rows of c2..c8 in report order.

    The order is the order of the rng draws of r_l2_bound's random
    starts, so it is part of the report.  A family of a normal operator
    on ell^2, or of a diagonal one on any ell^p, takes r_l2_bound's
    closed form and draws nothing.
    """
    m7 = int(round(alpha))
    m8 = int(math.floor(alpha - 0.5))
    return [
        ("c2", f"alpha={alpha:g}", "bip", {"alpha": alpha}),
        *[
            ("c3", f"theta={th:.6g}", "resolvent-ray", {"beta": beta, "theta": th})
            for th in RESOLVENT_ANGLES
        ],
        ("c4", f"beta={beta:g}", "resolvent-2d", {"alpha": alpha, "beta": beta}),
        *[
            ("c5", f"theta={th:.6g}", "semigroup-ray", {"theta": th})
            for th in SEMIGROUP_ANGLES
        ],
        ("c6", f"alpha={alpha:g}", "semigroup-2d", {"alpha": alpha}),
        ("c7", f"alpha={alpha:g},m={m7}", "wave", {"alpha": alpha, "m": m7}),
        ("c8", f"alpha={alpha:g},m={m8}", "wave-taylor", {"alpha": alpha, "m": m8}),
    ]


def _family_row(op, space, rng, condition, param, family, kwargs):
    fam = ops.family_samples(op, family, **kwargs)
    est = r_l2_bound(fam, space, rng=rng)
    value = float(est.lower)
    return ConditionValue(
        condition=condition,
        param=param,
        value=value,
        tolerance=_TOLERANCES[condition],
        grid={"samples": len(fam), "measure": fam.measure, **fam.diagnostics},
        passed=bool(np.isfinite(value)),
        extra={"upper": float(est.upper), "method": est.method},
    )


def _exponent_row(op, condition, rows, alpha, fit_tol) -> ConditionValue:
    """Least-squares slope of the log value against minus the log of the
    distance from each ray angle to the critical angle.

    The cap alpha + fit_tol comes from the stationary-phase comparison,
    which needs an eigenbasis: without one the fit is recorded and only
    its finiteness asserted.  extra holds the fitted points as plot data.
    """
    angles, critical = _RAY_FITS[condition]
    x = [-math.log(abs(abs(th) - critical)) for th in angles]
    y = [r.value for r in rows]
    expo = float(np.polyfit(x, np.log(y), 1)[0])
    within = expo <= alpha + fit_tol or not op.diagonalizable
    return ConditionValue(
        condition=condition,
        param="exponent",
        value=expo,
        tolerance=fit_tol,
        grid={"angles": [float(th) for th in angles]},
        passed=bool(np.isfinite(expo) and within),
        extra={"x": x, "y": y},
    )


def condition_c2_to_c8(
    A,
    space: SpaceSpec,
    alpha: float = 1.0,
    beta: float = 0.5,
    fit_tol: float = 0.15,
    rng=None,
) -> dict:
    """Evaluate conditions (2) through (8); returns {condition: [rows]}.

    Each row of _condition_table samples one family and bounds its
    averaged norm; the single-parameter conditions give one row each.
    The ray conditions c3 (RESOLVENT_ANGLES, resolvent exponent beta)
    and c5 (SEMIGROUP_ANGLES) give a row per angle plus a fitted-exponent
    row whose growth is capped at alpha + fit_tol on an operator with an
    eigenbasis (_exponent_row).  The imaginary powers
    run over [-BIP_T, BIP_T].
    """
    op = ops.sectorial(A)
    out = {}
    for condition, param, family, kwargs in _condition_table(alpha, beta):
        row = _family_row(op, space, rng, condition, param, family, kwargs)
        out.setdefault(condition, []).append(row)
    for condition in _RAY_FITS:
        out[condition].append(
            _exponent_row(op, condition, out[condition], alpha, fit_tol)
        )
    return out


# ---------------------------------------------------------------------------
# the full report


def _require_original_basis(op, space: SpaceSpec):
    """A reduced core is written in an orthonormal basis of the range, an
    isometry on ell^2 only: reject every other ell^p."""
    if op.reduction is not None and float(space.p) != 2.0:
        lp = f"l{space.p:g}"
        raise DomainError(f"{lp} of a reduced core is not {lp} of the operator")


def equivalence_report(
    A,
    space: SpaceSpec,
    alpha: float = 1.0,
    beta: float = 0.5,
    fit_tol: float = 0.15,
    corpus_size: int = 200,
    seed: int = 0,
) -> SuiteReport:
    """Measure conditions (1)-(8) on one operator and cross-check them.

    Records the bridge ratio c2 / (2 pi c1), the angle-growth exponents
    with their alpha cap, a beta sweep of the ray resolvents, and a
    doubled-grid convergence study for c2 and c7, whose refined rows
    carry their relative drift from the base value in `extra["drift"]`.
    On an operator without a usable eigenbasis the same numbers are
    reported but the equivalence flag is withheld: the estimated
    quantities are still averages of matrix samples, yet the corpus sup
    is no longer attained by stationary phase, so the two sides are not
    claimed equal, and the exponent and bridge rows assert only that
    their values are finite.  A reduced operator off ell^2 raises
    DomainError (_require_original_basis).
    """
    op = ops.sectorial(A)
    _require_original_basis(op, space)
    alpha, beta, fit_tol = float(alpha), float(beta), float(fit_tol)
    beta_sweep = (0.25, 0.5, 0.75)
    gen = np.random.default_rng(seed)
    corpus = multiplier_corpus(op, alpha, size=corpus_size, seed=seed)
    c1 = condition_c1(op, space, corpus, rng=gen)
    rows = [c1]

    conds = condition_c2_to_c8(op, space, alpha, beta, fit_tol, rng=gen)
    for key in sorted(conds):
        rows.extend(conds[key])

    values = {key: conds[key][0].value for key in conds}
    exponents = [conds[key][-1] for key in _RAY_FITS]

    bridge = float("nan")
    if c1.value > 0:
        bridge = values["c2"] / (2.0 * np.pi * c1.value)
        # like the exponent caps, the bridge is asserted with an eigenbasis only
        within = 0.95 <= bridge <= 1.05 or not op.diagonalizable
        rows.append(
            ConditionValue(
                condition="bridge",
                param="c2/(2 pi c1)",
                value=float(bridge),
                tolerance=_TOLERANCES["bridge"],
                grid={},
                passed=bool(np.isfinite(bridge) and within),
            )
        )
    for b in beta_sweep:
        rows.append(
            _family_row(
                op, space, gen, "c3", f"beta={b:g}@theta={np.pi / 2:.6g}",
                "resolvent-ray", {"beta": b, "theta": np.pi / 2},
            )
        )

    # the c2 and c7 rows again on grids twice as fine
    for condition, param, family, kwargs in _condition_table(alpha, beta):
        if condition not in _REFINED_N:
            continue
        kwargs = {**kwargs, "n": _REFINED_N[condition]}
        fine = _family_row(op, space, gen, condition, param, family, kwargs)
        refined, base = fine.value, values[condition]
        drift = abs(refined - base) / abs(base) if base else float("inf")
        rows.append(
            ConditionValue(
                condition=condition,
                param="refined",
                value=refined,
                tolerance=_TOLERANCES[condition],
                grid={"refine": 2.0},
                passed=bool(np.isfinite(refined)),
                extra={
                    "drift": drift,
                    "upper": fine.extra["upper"],
                    "method": fine.extra["method"],
                },
            )
        )

    all_finite = all(np.isfinite(r.value) for r in rows)
    exponents_ok = all(r.passed for r in exponents)
    flags = {
        "all_finite": bool(all_finite),
        "exponents_ok": bool(exponents_ok),
        "bridge_ok": bool(np.isfinite(bridge) and 0.95 <= bridge <= 1.05),
        "equivalence_asserted": bool(
            op.diagonalizable and all_finite and exponents_ok
        ),
        "zero_mode_reduced": op.reduction is not None,
        "diagonalizable": bool(op.diagonalizable),
    }
    if op.reduction is not None:
        flags["core_dim"] = int(op.reduction.core_dim)

    return SuiteReport(rows=rows, flags=flags)


# ---------------------------------------------------------------------------
# randomized block two-sidedness


def paley_littlewood_check(A, space: SpaceSpec, trials: int = 100, seed: int = 0):
    """Two-sided randomized square-function ratios over dyadic blocks.

    For each random unit x the ratio E || sum_n eps_n psi_n(A) x || / ||x||
    is collected (first moment over independent signs); the return value
    is (min, max, stderr): the least and largest ratio over the trials
    and the largest Monte Carlo standard error among them.  The windows
    must sum to one on the spectrum, otherwise CoverageError.  Sign
    enumeration is exact up to 12 blocks, with stderr 0.0, and Monte
    Carlo with 4096 draws beyond.  A reduced operator off ell^2 raises
    DomainError (_require_original_basis), and one without an eigenbasis
    NotSectorialError (_eig_apply_stack): dyadic windows are not
    analytic, so no contour calculus stands in for it.
    """
    op = ops.sectorial(A)
    _require_original_basis(op, space)
    if space.n != op.dim:
        raise DomainError("space dimension does not match the operator")
    lam = op.eigenvalues
    if float(np.max(np.abs(lam.imag))) > 1e-9 * float(np.max(np.abs(lam))):
        raise DomainError("dyadic blocks slice the positive axis; spectrum is complex")
    pou = PartitionOfUnity("dyadic")
    lo, hi = op.spectral_bounds()
    # one row of window values on the spectrum per dyadic block
    windows = np.array([pou.window(n)(lam.real) for n in pou.indices_for(lo, hi)])
    unity = windows.sum(axis=0)
    if float(np.max(np.abs(unity - 1.0))) > 1e-8:
        raise CoverageError(
            f"windows sum to {unity.min():.3f}..{unity.max():.3f} on the "
            "spectrum; the blocks do not cover it"
        )
    windows = windows[np.max(np.abs(windows), axis=1) >= 1e-14]
    if not len(windows):
        raise CoverageError("no window meets the spectrum")
    blocks = _eig_apply_stack(op.eigenbasis, windows)

    gen = np.random.default_rng(seed)
    ratios, stderr = np.empty(trials), 0.0
    for i in range(trials):
        x = gen.standard_normal(op.dim) + 1j * gen.standard_normal(op.dim)
        x /= space.vector_norm(x)
        X = np.stack([B @ x for B in blocks])
        ratios[i], err, _ = rademacher_norm(X, space, rng=gen)
        stderr = max(stderr, float(err))
    return float(ratios.min()), float(ratios.max()), stderr


# ---------------------------------------------------------------------------
# splitting the shifted semigroup symbol


def sea_to_ha_decomposition(z):
    """Split e^{-z lambda} into a sector-bounded part and a square part.

    The bounded part g_z(lambda) = e^{-(z+1) lambda} is measured in sup
    norm on the boundary rays r e^{+-i pi/8}; the remainder is read off
    through h_z(t) = e^{-zt}(1 - e^{-t}) in the first-order square norm

        ||h_z||^2 = int_0^inf (|h_z|^2 + |t h_z'|^2) dt/t.

    Returns (g_norm, h_norm).  Requires |z| = 1 and Re z > 0; the square
    norm blows up like 1/Re z as z approaches the imaginary axis, which
    is the blow-up rate the slope diagnostics track.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise DomainError(f"z must lie on the unit circle, got |z| = {abs(z):.6g}")
    x = z.real
    if not x > 0:
        raise DomainError("need Re z > 0")

    t, w = log_grid(1e-7, max(60.0, 60.0 / x), 1 << 12)
    decay = np.exp(-z * t)
    ramp = -np.expm1(-t)  # 1 - e^{-t}
    h = decay * ramp
    hp = decay * (np.exp(-t) - z * ramp)
    h_norm = math.sqrt(float(np.sum((np.abs(h) ** 2 + np.abs(t * hp) ** 2) * w)))

    r = np.concatenate([[0.0], np.logspace(-6, math.log10(60.0 / x), 513)])
    g_norm = 0.0
    for sgn in (+1.0, -1.0):
        ray = np.exp(sgn * 1j * np.pi / 8.0)
        g_norm = max(g_norm, float(np.max(np.exp(-r * ((z + 1.0) * ray).real))))
    return float(g_norm), float(h_norm)
