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
c1 evaluates that representation as an average of the c2 family's own
samples (OperatorFamily.averages), so the corpus is held on the c2 grid
of operators.family_samples and the two sides of the bridge share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from . import operators as ops
from .errors import ConvergenceError, CoverageError, DomainError
from .grids import SampledFunction, fourier_transform, log_grid, trapezoid_weights
from .rbound import _eig_apply_stack, r_bound, r_l2_bound, square_sum_norm
from .spaces import _edge_ratio, _unit_bumps

__all__ = [
    "Row",
    "SuiteReport",
    "condition_c1",
    "condition_c2_to_c8",
    "equivalence_report",
    "multiplier_corpus",
    "paley_littlewood_check",
    "sea_to_ha_decomposition",
    "sobolev_calculus_apply",
]

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
class Row:
    """One row of a report: which condition, at which parameter, and
    whether it passed (a finite value inside its row's assertion).
    `extra` is written to the suite JSON only, so the CSV bodies that
    `compare` checks stay as they are."""

    condition: str
    param: str
    value: float
    tolerance: float
    grid: dict = field(default_factory=dict)
    passed: bool = True
    extra: dict = field(default_factory=dict)

    def check_brackets(self, *estimates) -> "Row":
        """This row, failed with extra["bracket_violation"] when one of the
        estimates it was built from has an inverted bracket (the first one
        that has)."""
        violation = next((e.violation for e in estimates if e.violation), None)
        if violation:
            self.passed = False
            self.extra["bracket_violation"] = violation
        return self


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


# members per chunk of the corpus build, and the length B of the fine
# phase table (k = B a + b splits the grid index; 64 gives 51 + 64 exps
# per member on the BIP_N = 3201-point grid)
_CORPUS_CHUNK = 16
_PHASE_BLOCK = 64


def _phases(c, t0: float, dt: float, n: int) -> np.ndarray:
    """The table e^{-i c_j (t0 + k dt)}, shape (len(c), n), for k < n.

    With k = B a + b (B = _PHASE_BLOCK, 0 <= b < B) the phase is the
    product of a coarse factor e^{-i c_j (t0 + B a dt)} and a fine one
    e^{-i c_j b dt}, so a row costs about 2 sqrt(n) exps instead of n.
    The result is a view of a (len(c), B ceil(n/B)) product.
    """
    c = c[:, None]
    starts = t0 + (_PHASE_BLOCK * dt) * np.arange(-(-n // _PHASE_BLOCK))
    coarse = np.exp(-1j * (c * starts))
    fine = np.exp(-1j * (c * (dt * np.arange(_PHASE_BLOCK))))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(c), -1)[:, :n]


def multiplier_corpus(
    A,
    alpha: float,
    size: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """A ball-normalized symbol corpus saturating the single-function sup.

    Returns the (J, T) array whose row j holds the transform samples
    fhat_e of member j, normalized so ||<t>^alpha fhat_e||_{L^2(dt)} = 1
    for the alpha given.  The grid is that of the c2 family
    (operators.family_samples "bip"): the BIP_N points of
    np.linspace(-BIP_T, BIP_T, BIP_N), step 2^-5, which condition_c1
    averages over.

    The mix: stationary-phase extremals <t>^{-2 alpha} e^{-it log a}
    centered at every eigenvalue (these attain the supremum for the
    weighted ball), the rational bump s/(1+s)^2 (transform rho_hat),
    then, alternating, the extremal shape at a random center c and a
    gaussian packet of random width sigma times e^{-itc}.  The draws
    are scalar and in member order, c then sigma for a gaussian, so a
    seed gives the same centers and widths as a member-by-member build.

    Member j is a real envelope e_j (<t>^{-2 alpha}, the gaussian or
    rho_hat) times the phase e^{-i c_j t}, with c = 0 for rho_hat.  Its
    ball norm N_j is one real product of e_j^2 with <t>^{2 alpha} w
    (w the trapezoid weights), and it is stored as (e_j * (1 / N_j))
    times the phase.  The grid t_k = t0 + k dt is uniform, so with
    k = B a + b (B = _PHASE_BLOCK) the phase is the product of two short
    tables (_phases): no member takes an exp per grid point.  The corpus
    is filled _CORPUS_CHUNK members at a time, so one chunk's envelopes
    and phases are the only temporaries.

    Rounding bound, to first order in the unit roundoff u.  Let e_jk be
    the computed envelope and N_j the exact norm of the computed
    envelopes.  The nodes t0 + B a dt and b dt are exact (dt is a power
    of two and every node has few bits), so the two phase arguments
    round once each, by at most |c_j| (|t0 + B a dt| + b dt) u <=
    |c_j| (|t_k| + 2 B dt) u together.  Each exp of an imaginary
    argument is good to 1 ulp per component (2u) and the complex
    product to sqrt(2) gamma_2 (3u), so the phase is off by at most
    (|c_j| (|t_k| + 2 B dt) + 7) u.  The n_t nonnegative terms of N_j^2
    take 3u each and their sum (n_t - 1) u, so N_j is off by
    (n_t / 2 + 2) u; the reciprocal and the two scalings add 3u.  The
    stored entry is therefore

        (e_jk / N_j) e^{-i c_j t_k} (1 + d),
        |d| <= (|c_j| (|t_k| + 2 B dt) + n_t / 2 + 12) u.

    A member-by-member build with one exp per entry, which takes N_j
    from the moduli of its complex entries, is off by at most
    (|c_j t_k| + n_t / 2 + 20) u, so the two agree to
    (2 |c_j| (|t_k| + B dt) + n_t + 32) u relative, where
    |c_j| <= max(|log lo|, |log hi|) + 1 on a positive spectrum with
    bounds lo, hi.  Entries that underflow (the far tails of gaussian
    packets, whose N_j > 1) are off by at most 2^-1074 absolute per
    component in either build instead.
    """
    op = ops.sectorial(A)
    if size < 1:
        raise DomainError("corpus size must be positive")
    gen = np.random.default_rng(seed)
    t = np.linspace(-ops.BIP_T, ops.BIP_T, ops.BIP_N)
    dt = t[1] - t[0]
    bracket = 1.0 + t * t
    weight = bracket**alpha * trapezoid_weights(len(t), dt)

    # the center of every member and the width of every gaussian
    # (0 for the extremal shape); member `bump` is rho_hat
    centers, widths = [], []
    seen = set()
    for lam in op.eigenvalues:
        a = float(lam.real)
        key = round(math.log(a), 9) if a > 0 else None
        if key is None or key in seen:
            continue
        seen.add(key)
        centers.append(math.log(a))
        widths.append(0.0)
    bump = len(centers)
    centers.append(0.0)
    widths.append(0.0)
    lo, hi = op.spectral_bounds()
    ulo, uhi = math.log(lo) - 1.0, math.log(hi) + 1.0
    while len(centers) < size:
        gaussian = len(centers) % 2 == 1
        centers.append(gen.uniform(ulo, uhi))
        widths.append(gen.uniform(0.3, 3.0) if gaussian else 0.0)
    centers, widths = np.array(centers[:size]), np.array(widths[:size])

    extremal = bracket ** (-alpha)
    tt = np.where(t == 0.0, 1.0, t)
    rho_hat = np.where(t == 0.0, 1.0, np.pi * tt / np.sinh(np.pi * tt))
    C = np.empty((size, len(t)), dtype=np.complex128)
    for j0 in range(0, size, _CORPUS_CHUNK):
        js = slice(j0, j0 + _CORPUS_CHUNK)
        env = np.tile(extremal, (len(centers[js]), 1))
        if j0 <= bump < j0 + len(env):
            env[bump - j0] = rho_hat
        g = widths[js] > 0
        sig = widths[js][g, None]
        env[g] = sig * math.sqrt(2.0 * np.pi) * np.exp(-0.5 * (sig * t) ** 2)
        norms = np.sqrt((env * env) @ weight)
        if np.any(norms == 0):
            raise DomainError("corpus member with zero ball norm")
        env *= (1.0 / norms)[:, None]
        np.multiply(env, _phases(centers[js], t[0], dt, len(t)), out=C[js])
    return C


def _estimate_row(condition, param, est, grid) -> Row:
    """The row of an estimate: its lower end, asserted finite, with the
    upper end and the method in extra; an inverted bracket fails it."""
    row = Row(condition, param, float(est.lower), _TOLERANCES[condition], grid,
              bool(np.isfinite(est.lower)),
              {"upper": float(est.upper), "method": est.method})
    return row.check_brackets(est)


def condition_c1(A, p: float, corpus: np.ndarray, rng=None) -> Row:
    """R-bound of the corpus image {f_j(A)} on ell^p.

    f_j(A) = (2 pi)^{-1} int fhat_j(t) A^{it} dt is the trapezoid average
    of the c2 family at alpha = 0 (the bare A^{it}) with the (J, T)
    coefficients of multiplier_corpus, so c1 and c2 sample A^{it} on one
    grid.  The members are ball-normalized at construction, so the value
    scales linearly with the coefficients.
    """
    fam = ops.family_samples(A, "bip", alpha=0.0)
    est = r_bound(fam.averages(corpus) / (2.0 * np.pi), p, rng=rng)
    t = fam.points
    grid = {"t_max": float(t[-1]), "dt": float(t[1] - t[0]), "members": len(corpus)}
    return _estimate_row("c1", f"corpus:{len(corpus)}", est, grid)


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


def _family_row(op, p, rng, condition, param, family, kwargs) -> Row:
    fam = ops.family_samples(op, family, **kwargs)
    est = r_l2_bound(fam, p, rng=rng)
    grid = {"samples": len(fam), "measure": fam.measure, **fam.diagnostics}
    return _estimate_row(condition, param, est, grid)


def _exponent_row(op, condition, rows, alpha, fit_tol) -> Row:
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
    return Row(
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
    p: float,
    alpha: float = 1.0,
    beta: float = 0.5,
    fit_tol: float = 0.15,
    rng=None,
) -> dict:
    """Evaluate conditions (2) through (8) on ell^p; returns {condition: [rows]}.

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
        row = _family_row(op, p, rng, condition, param, family, kwargs)
        out.setdefault(condition, []).append(row)
    for condition in _RAY_FITS:
        out[condition].append(
            _exponent_row(op, condition, out[condition], alpha, fit_tol)
        )
    return out


# ---------------------------------------------------------------------------
# the full report


def _require_original_basis(op, p: float):
    """A reduced core is written in an orthonormal basis of the range, an
    isometry on ell^2 only: reject every other ell^p."""
    if op.reduction is not None and float(p) != 2.0:
        lp = f"l{p:g}"
        raise DomainError(f"{lp} of a reduced core is not {lp} of the operator")


def equivalence_report(
    A,
    p: float,
    alpha: float = 1.0,
    beta: float = 0.5,
    fit_tol: float = 0.15,
    corpus_size: int = 200,
    seed: int = 0,
) -> SuiteReport:
    """Measure conditions (1)-(8) on one operator on ell^p and cross-check them.

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
    _require_original_basis(op, p)
    alpha, beta, fit_tol = float(alpha), float(beta), float(fit_tol)
    beta_sweep = (0.25, 0.5, 0.75)
    gen = np.random.default_rng(seed)
    corpus = multiplier_corpus(op, alpha, size=corpus_size, seed=seed)
    c1 = condition_c1(op, p, corpus, rng=gen)
    rows = [c1]

    conds = condition_c2_to_c8(op, p, alpha, beta, fit_tol, rng=gen)
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
            Row(
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
                op, p, gen, "c3", f"beta={b:g}@theta={np.pi / 2:.6g}",
                "resolvent-ray", {"beta": b, "theta": np.pi / 2},
            )
        )

    # the c2 and c7 rows again on grids twice as fine
    for condition, param, family, kwargs in _condition_table(alpha, beta):
        if condition not in _REFINED_N:
            continue
        kwargs = {**kwargs, "n": _REFINED_N[condition]}
        fine = _family_row(op, p, gen, condition, param, family, kwargs)
        base = values[condition]
        drift = abs(fine.value - base) / abs(base) if base else float("inf")
        rows.append(replace(fine, param="refined", grid={"refine": 2.0},
                            extra={**fine.extra, "drift": drift}))

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
# dyadic block two-sidedness


def _unit_draws(gen, trials: int, n: int, p: float) -> np.ndarray:
    """trials random unit vectors of ell^p, the rows of a (trials, n) array.

    Real and imaginary parts are standard normal, drawn from gen as one
    (trials, 2, n) block: the draws of a loop that takes the real and
    then the imaginary part of one vector at a time, in the same order.
    """
    z = gen.standard_normal((trials, 2, n))
    x = z[:, 0] + 1j * z[:, 1]
    x /= _kernels.row_norms(x, p)[:, None]
    return x


def paley_littlewood_check(A, p: float, trials: int = 100, seed: int = 0):
    """Two-sided square-function ratios over dyadic spectral blocks on ell^p.

    For `trials` random unit x (_unit_draws, from the seed) the ratio
    ||(sum_n |psi_n(A) x|^2)^{1/2}||_p / ||x||_p is computed exactly, as
    rbound.square_sum_norm does, with every image psi_n(A) x from one
    product of the block stack; the return value is (min, max) over the
    trials.  No signs are drawn or enumerated.

    These are the paper's square sums, and they stand for the Rademacher
    averages E||sum_n eps_n psi_n(A) x||_p that define R-boundedness:
      * on ell^2 the ratio is the Rademacher square moment exactly, since
        E||sum eps_n X_n||_2^2 = sum ||X_n||_2^2 by orthogonality;
      * for 1 <= p < inf, Khintchine's inequality in each coordinate and
        Fubini put (E||sum eps_n X_n||_p^p)^{1/p} between A_p and B_p
        times ||(sum |X_n|^2)^{1/2}||_p; at p = 1 that is the first moment,
        with A_1 = 1/sqrt(2) (Szarek 1976; for complex coordinates
        Latala-Oleszkiewicz, Studia Math. 109, 1994) and B_1 = 1;
      * at p = inf only the lower relation holds: each coordinate gives
        E||sum eps_n X_n||_inf >= ||(sum |X_n|^2)^{1/2}||_inf / sqrt(2),
        and no upper constant is free of the dimension.
    So two-sided ratios here are two-sided Rademacher ratios, up to these
    constants.

    The windows must sum to one on the spectrum, otherwise CoverageError.
    A reduced operator off ell^2 raises DomainError
    (_require_original_basis), and one without an eigenbasis
    NotSectorialError (_eig_apply_stack): dyadic windows are not
    analytic, so no contour calculus stands in for it.
    """
    op = ops.sectorial(A)
    _require_original_basis(op, p)
    lam = op.eigenvalues
    if float(np.max(np.abs(lam.imag))) > 1e-9 * float(np.max(np.abs(lam))):
        raise DomainError("dyadic blocks slice the positive axis; spectrum is complex")
    lo, hi = op.spectral_bounds()
    # one row of window values phi(log2 lambda - n) per dyadic block
    n_lo, n_hi = math.floor(math.log2(lo)), math.ceil(math.log2(hi))
    windows = _unit_bumps(np.log2(lam.real), n_lo, n_hi)
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

    x = _unit_draws(np.random.default_rng(seed), trials, op.dim, p)
    K, n = len(blocks), op.dim
    # images[t, k] = psi_k(A) x_t
    images = (x @ blocks.reshape(K * n, n).T).reshape(trials, K, n)
    ratios = square_sum_norm(images, p)
    return float(ratios.min()), float(ratios.max())


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
