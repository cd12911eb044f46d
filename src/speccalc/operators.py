"""Sectorial matrices and the calculi built on them.

A SectorialOperator wraps a square matrix with spectrum in a sector
strictly inside the cut plane.  Matrices with an orthogonal kernel are
compressed onto their range first (RangeReduction records the
compression); spectrum on the negative real axis, or a nilpotent part
at zero, is rejected.

On top of that live the concrete calculi: the holomorphic contour
calculus for decaying analytic functions, imaginary and fractional
powers, the sampled operator families whose averaged norms the suite
estimates, and the Mellin identities tying those families to the
imaginary powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import (
    ContourError,
    ConvergenceError,
    DomainError,
    NotSectorialError,
)
from .grids import log_grid, trapezoid_weights
from .rbound import OperatorFamily
from .special import h_kernel, w_alpha_kernel

MAX_DIM = 512


# ---------------------------------------------------------------------------
# construction


@dataclass
class RangeReduction:
    """Record of the compression onto the range of a non-injective matrix."""

    basis: np.ndarray  # original_dim x core_dim, orthonormal columns
    original_dim: int
    core_dim: int
    residual: float  # ||A - Q (Q^H A Q) Q^H|| / ||A||


@dataclass
class SectorialOperator:
    """An injective matrix with spectral angle omega, plus decompositions.

    eigenvectors is None when the eigenbasis is too ill-conditioned to
    trust; matrix functions then go through Schur/Taylor fallbacks.
    """

    matrix: np.ndarray
    omega: float
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    eigenvectors_inv: Optional[np.ndarray]
    reduction: Optional[RangeReduction] = None
    name: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonalizable(self) -> bool:
        return self.eigenvectors is not None

    def spectral_bounds(self):
        a = np.abs(self.eigenvalues)
        return float(a.min()), float(a.max())


def sectorial(A, name: str = "") -> SectorialOperator:
    """Wrap a matrix for the calculus, compressing away an orthogonal kernel."""
    if isinstance(A, SectorialOperator):
        return A
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("operator must be a square matrix")
    if A.shape[0] > MAX_DIM:
        raise DomainError(f"dimension {A.shape[0]} exceeds the supported {MAX_DIM}")
    scale = float(np.linalg.norm(A, 2))
    if scale == 0.0:
        raise NotSectorialError("the zero matrix has no sectorial calculus")

    tol = 1e-10
    reduction = None
    lam, V = np.linalg.eig(A)
    if np.any(np.abs(lam) <= tol * scale):
        # compress onto the range; valid only when the kernel is orthogonal
        U, s, _ = np.linalg.svd(A)
        r = int(np.sum(s > tol * s[0]))
        Q = U[:, :r]
        core = Q.conj().T @ A @ Q
        residual = float(np.linalg.norm(A - Q @ core @ Q.conj().T, 2) / scale)
        if residual > 1e-8:
            raise NotSectorialError(
                "zero eigenvalue with kernel not orthogonal to the range "
                f"(compression residual {residual:.2e})"
            )
        reduction = RangeReduction(
            basis=Q, original_dim=A.shape[0], core_dim=r, residual=residual
        )
        A = core
        lam, V = np.linalg.eig(A)
        if np.any(np.abs(lam) <= tol * scale):
            raise NotSectorialError("nilpotent part at zero survives compression")

    on_cut = (lam.real < 0) & (np.abs(lam.imag) <= tol * np.abs(lam))
    if np.any(on_cut):
        raise NotSectorialError(
            f"eigenvalue {lam[on_cut][0]} lies on the negative real axis"
        )
    omega = float(np.max(np.abs(np.angle(lam))))

    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    V = V[:, order]
    try:
        Vinv = np.linalg.inv(V)
        cond = np.linalg.norm(V, 2) * np.linalg.norm(Vinv, 2)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e8:
        V = Vinv = None
    return SectorialOperator(
        matrix=A,
        omega=omega,
        eigenvalues=lam,
        eigenvectors=V,
        eigenvectors_inv=Vinv,
        reduction=reduction,
        name=name,
    )


def operator_from_spec(spec: str) -> SectorialOperator:
    """Parse operator presets.

    diag:(1,2,5,10)        diagonal with the listed entries
    diag-logspaced:16      geometric diagonal 2^{-(n-1)/2} .. 2^{(n-1)/2}
    cycle-laplacian:12     circulant graph Laplacian (zero mode compressed)
    path-laplacian:12      path graph Laplacian (zero mode compressed)
    jordan:(3,4)           a I + nilpotent shift, dimension 4

    Parentheses around the argument list are optional.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if arg.startswith("(") and arg.endswith(")"):
        arg = arg[1:-1]
    if kind == "diag":
        vals = np.array([float(v) for v in arg.split(",") if v.strip()])
        if len(vals) == 0:
            raise DomainError("diag needs at least one entry")
        return sectorial(np.diag(vals.astype(np.complex128)), name=spec)
    if kind in ("diag-logspaced", "cycle-laplacian", "path-laplacian"):
        n = int(arg)
        if n < 2:
            raise DomainError(f"{kind} needs n >= 2")
    if kind == "diag-logspaced":
        expo = np.arange(n) - (n - 1) / 2.0
        return sectorial(np.diag((2.0**expo).astype(np.complex128)), name=spec)
    if kind == "cycle-laplacian":
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A[0, -1] -= 1.0
        A[-1, 0] -= 1.0
        return sectorial(A, name=spec)
    if kind == "path-laplacian":
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A[0, 0] = 1.0
        A[-1, -1] = 1.0
        return sectorial(A, name=spec)
    if kind == "jordan":
        parts = arg.split(",")
        a, n = float(parts[0]), int(parts[1])
        if a <= 0:
            raise NotSectorialError("jordan block eigenvalue must be positive")
        A = a * np.eye(n) + np.eye(n, k=1)
        return sectorial(A, name=spec)
    raise DomainError(f"unknown operator preset {spec!r}")


# ---------------------------------------------------------------------------
# matrix functions


def _eig_apply(op: SectorialOperator, fvals: np.ndarray) -> np.ndarray:
    """V diag(fvals) V^{-1} for one set of eigenvalue samples."""
    return (op.eigenvectors * fvals) @ op.eigenvectors_inv


def _eig_apply_stack(op: SectorialOperator, fvals: np.ndarray) -> np.ndarray:
    """Stacked V diag(fvals[k]) V^{-1}; fvals has shape (K, dim)."""
    return np.einsum("ij,kj,jl->kil", op.eigenvectors, fvals, op.eigenvectors_inv)


def imaginary_powers(A, t):
    """A^{it}; t scalar gives one matrix, t array gives a (T, n, n) stack."""
    op = sectorial(A)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if op.diagonalizable:
        fvals = np.exp(1j * np.outer(t_arr, np.log(op.eigenvalues)))
        out = _eig_apply_stack(op, fvals)
    else:
        L = scipy.linalg.logm(op.matrix)
        out = np.stack([scipy.linalg.expm(1j * tv * L) for tv in t_arr])
    return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def fractional_power(A, gamma: float) -> np.ndarray:
    """A^gamma with the principal branch."""
    op = sectorial(A)
    if op.diagonalizable:
        return _eig_apply(op, np.exp(gamma * np.log(op.eigenvalues)))
    L = scipy.linalg.logm(op.matrix)
    return scipy.linalg.expm(gamma * L)


# ---------------------------------------------------------------------------
# holomorphic contour calculus


def _tanh_sinh_nodes(a: float, b: float, n: int):
    """Nodes and weights on [a, b] clustering double-exponentially at the ends."""
    tau = np.linspace(-3.2, 3.2, n)
    dtau = tau[1] - tau[0]
    g = np.tanh(0.5 * np.pi * np.sinh(tau))
    gp = 0.5 * np.pi * np.cosh(tau) / np.cosh(0.5 * np.pi * np.sinh(tau)) ** 2
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * g, half * gp * dtau


_SOLVE_CHUNK = 256  # contour nodes per stacked resolvent solve


def holomorphic_calculus(A, f: Callable) -> np.ndarray:
    """f(A) = (2 pi i)^{-1} oint f(z) (z - A)^{-1} dz over the sector boundary.

    The contour is the pair of rays arg z = +-angle with
    angle = min(max(1.5 omega, 0.35), (omega + pi)/2), cut to radii seven
    decades beyond the spectrum.  f must be analytic on the sector
    |arg z| <= angle and decay at 0 and infinity (an integrable power of
    |z| suffices).  Node counts double until the result changes by less
    than 1e-9 relative.
    """
    op = sectorial(A)
    lo, hi = op.spectral_bounds()
    angle = min(max(1.5 * op.omega, 0.35), 0.5 * (op.omega + np.pi))
    # the truncated-tail error of a first-order symbol scales like
    # 1/r_max, so the radii overshoot the spectrum by seven decades
    u_min, u_max = np.log(lo / 1e7), np.log(hi * 1e7)
    # a node is too close when it lies within 1e-9 |lambda_j| of some
    # lambda_j; an absolute 1e-9 max|lambda| would reject the nodes passing
    # the small end of a wide spectrum (diag-logspaced:30 spans 2^29)
    near = 1e-9 * np.abs(op.eigenvalues)

    def evaluate(n_nodes: int) -> np.ndarray:
        u, w = _tanh_sinh_nodes(u_min, u_max, n_nodes)
        r = np.exp(u)
        wr = w * r  # dr = r du
        total = np.zeros_like(op.matrix)
        I = np.eye(op.dim)
        for sgn in (-1.0, +1.0):
            e = np.exp(1j * sgn * angle)
            z = r * e
            if np.any(np.abs(z[:, None] - op.eigenvalues[None, :]) < near[None, :]):
                raise ContourError("contour node too close to the spectrum")
            fz = np.asarray(f(z), dtype=np.complex128)
            acc = np.zeros_like(op.matrix)
            nodes = np.flatnonzero((fz != 0.0) | (wr != 0.0))
            # stacked solves in chunks bound the (chunk, n, n) resolvent
            # stack; the sum stays in node order so its rounding is fixed
            for lo_k in range(0, len(nodes), _SOLVE_CHUNK):
                ks = nodes[lo_k : lo_k + _SOLVE_CHUNK]
                Rs = np.linalg.solve(z[ks, None, None] * I - op.matrix, I)
                for c, Rm in zip(wr[ks] * fz[ks], Rs):
                    acc += c * Rm
            total += (-sgn) * e * acc  # down the upper ray, out the lower
        return total / (2.0j * np.pi)

    n = 384
    prev = evaluate(n)
    for _ in range(4):
        n *= 2
        cur = evaluate(n)
        gap = float(
            np.linalg.norm(cur - prev, 2) / max(np.linalg.norm(cur, 2), 1e-300)
        )
        if gap < 1e-9:
            return cur
        prev = cur
    raise ConvergenceError(
        f"contour quadrature did not stabilize (last relative change {gap:.2e})"
    )


# ---------------------------------------------------------------------------
# operator families


# half-width of the imaginary-power window [-BIP_T, BIP_T]; the suite's
# corpus transform grid spans the same window, which the bridge
# c2 / (2 pi c1) needs
BIP_T = 50.0

# the arguments each family's formula reads
_FAMILY_ARGS = {
    "bip": ("alpha", "n"),
    "resolvent-ray": ("beta", "theta", "n"),
    "resolvent-2d": ("alpha", "beta"),
    "semigroup-ray": ("theta", "n"),
    "semigroup-2d": ("alpha",),
    "wave": ("alpha", "m", "n"),
    "wave-taylor": ("alpha", "m", "n"),
}

# grid size of each family when the caller passes none; the 2-D families
# have fixed grids
_DEFAULT_N = {
    "bip": 3201,
    "resolvent-ray": 1024,
    "semigroup-ray": 1024,
    "wave": 2048,
    "wave-taylor": 2048,
}


def family_samples(
    A,
    family: str,
    alpha: float | None = None,
    beta: float | None = None,
    theta: float | None = None,
    m: int | None = None,
    n: int | None = None,
) -> OperatorFamily:
    """Sample one of the averaged families the equivalence suite studies.

    family keys and their elements (mu is the quadrature measure):

      bip             <t>^{-alpha} A^{it},        mu = dt on [-BIP_T, BIP_T]
      resolvent-ray   t^beta A^{1-beta} (e^{i theta} t - A)^{-1},  mu = dt/t
      resolvent-2d    |theta|^{alpha-1/2} t^beta A^{1-beta}
                      (e^{i theta} t - A)^{-1},   mu = dtheta x dt/t
      semigroup-ray   (tA)^{1/2} e^{-e^{i theta} t A},     mu = dt/t
      semigroup-2d    (x/|x+iy|)^alpha |x|^{-1/2} A^{1/2} e^{-(x+iy)A},
                                                           mu = dx dy
      wave            |s|^{-alpha} A^{1/2-alpha} (e^{isA} - 1)^m,  mu = ds
      wave-taylor     A^{1/2-alpha}|s|^{-alpha}(e^{isA} - T_m(isA)),
                                                           mu = ds on R

    Each family reads only the arguments in its formula (_FAMILY_ARGS)
    and raises DomainError when any other is passed.  Unpassed arguments
    default to alpha = 1, beta = 1/2, theta = 0 and m = 1.  n is the
    number of grid points (for the two waves, per sign of s); it defaults
    to _DEFAULT_N, the grids the suite reports.  The 2-D families have
    fixed grids: resolvent-2d 48 angles log-spaced in [1e-2, pi] of each
    sign times 192 radii, semigroup-2d 49 angles psi = arg(x + iy) in
    [-pi/2 + 5e-3, pi/2 - 5e-3] times 48 values of x.
    """
    if family not in _FAMILY_ARGS:
        raise DomainError(f"unknown family {family!r}")
    passed = {"alpha": alpha, "beta": beta, "theta": theta, "m": m, "n": n}
    reads = _FAMILY_ARGS[family]
    unread = [k for k, v in passed.items() if v is not None and k not in reads]
    if unread:
        raise DomainError(f"family {family!r} does not read {', '.join(unread)}")
    alpha = 1.0 if alpha is None else alpha
    beta = 0.5 if beta is None else beta
    theta = 0.0 if theta is None else theta
    m = 1 if m is None else m
    n = _DEFAULT_N.get(family) if n is None else n
    op = sectorial(A)
    lam = op.eigenvalues
    lo, hi = op.spectral_bounds()
    defective = not op.diagonalizable

    def build(points, weights, fvals, measure, label, diagnostics=None, stack=None):
        mats = stack if stack is not None else _eig_apply_stack(op, fvals)
        return OperatorFamily(
            label=label,
            points=np.asarray(points),
            weights=np.asarray(weights, dtype=float),
            matrices=mats,
            measure=measure,
            diagnostics=diagnostics or {},
        )

    def resolvent_stack(ts, theta):
        # batched (e^{i theta} t - A)^{-1} for a vector of t
        I = np.eye(op.dim)
        Z = np.exp(1j * theta) * ts[:, None, None] * I[None] - op.matrix[None]
        return np.linalg.inv(Z)

    def exp_stack(zs):
        # e^{z A} for each z in zs (defective path only)
        return np.stack([scipy.linalg.expm(z * op.matrix) for z in zs])

    def taylor_remainder_stack(ss, m):
        # e^{isA} - sum_{j<=m} (isA)^j / j!, stable for small |s| ||A||
        I = np.eye(op.dim, dtype=np.complex128)
        out = np.empty((len(ss), op.dim, op.dim), dtype=np.complex128)
        nrm = float(np.linalg.norm(op.matrix, 2))
        for k, s in enumerate(ss):
            B = 1j * s * op.matrix
            if abs(s) * nrm < 0.5:
                term = np.linalg.matrix_power(B, m + 1) / math.factorial(m + 1)
                acc = term.copy()
                for j in range(m + 2, m + 30):
                    term = term @ B / j
                    acc += term
                    if np.linalg.norm(term, 2) < 1e-18 * max(np.linalg.norm(acc, 2), 1e-300):
                        break
                out[k] = acc
            else:
                R = scipy.linalg.expm(B) - I
                P = I.copy()
                for j in range(1, m + 1):
                    P = P @ B / j
                    R = R - P
                out[k] = R
        return out

    if family == "bip":
        t = np.linspace(-BIP_T, BIP_T, n)
        w = trapezoid_weights(n, 2 * BIP_T / (n - 1))
        weight = (1.0 + t * t) ** (-alpha / 2.0)
        if defective:
            stack = weight[:, None, None] * imaginary_powers(op, t)
            return build(t, w, None, "dt", f"bip[{alpha:g}]", stack=stack)
        fvals = np.exp(1j * np.outer(t, np.log(lam)))
        return build(t, w, weight[:, None] * fvals, "dt", f"bip[{alpha:g}]")

    if family == "resolvent-ray":
        if abs(theta) <= op.omega:
            raise DomainError("ray angle must clear the spectral angle")
        t, w = log_grid(lo * 1e-5, hi * 1e5, n)
        e = np.exp(1j * theta)
        if defective:
            Afrac = fractional_power(op, 1.0 - beta)
            stack = t[:, None, None] ** beta * (resolvent_stack(t, theta) @ Afrac)
            return build(t, w, None, "dt/t", f"resolvent-ray[{theta:g}]", stack=stack)
        # eigenvalue-wise: t^beta a^{1-beta} / (e^{i theta} t - a)
        fvals = (
            t[:, None] ** beta
            * lam[None, :] ** (1.0 - beta)
            / (e * t[:, None] - lam[None, :])
        )
        return build(t, w, fvals, "dt/t", f"resolvent-ray[{theta:g}]")

    if family == "resolvent-2d":
        theta0, th_min, n_t, n_th = np.pi, 1e-2, 192, 48
        u_th = np.linspace(np.log(th_min), np.log(theta0), n_th)
        th_abs = np.exp(u_th)
        w_th = trapezoid_weights(n_th, u_th[1] - u_th[0]) * th_abs  # dtheta
        t, w_t = log_grid(lo * 1e-4, hi * 1e4, n_t)
        pts, wts, vals, stacks = [], [], [], []
        Afrac = fractional_power(op, 1.0 - beta) if defective else None
        for sgn in (+1.0, -1.0):
            for j, th in enumerate(sgn * th_abs):
                if abs(th) <= op.omega:
                    continue
                if defective:
                    stacks.append(
                        abs(th) ** (alpha - 0.5)
                        * t[:, None, None] ** beta
                        * (resolvent_stack(t, th) @ Afrac)
                    )
                else:
                    e = np.exp(1j * th)
                    vals.append(
                        abs(th) ** (alpha - 0.5)
                        * t[:, None] ** beta
                        * lam[None, :] ** (1.0 - beta)
                        / (e * t[:, None] - lam[None, :])
                    )
                pts.append(np.column_stack([np.full(n_t, th), t]))
                wts.append(w_th[j] * w_t)
        diag = {"theta_min": th_min, "theta0": theta0}
        return build(
            np.concatenate(pts),
            np.concatenate(wts),
            np.concatenate(vals) if not defective else None,
            "dtheta*dt/t",
            f"resolvent-2d[{alpha:g}]",
            diag,
            stack=np.concatenate(stacks) if defective else None,
        )

    if family == "semigroup-ray":
        if abs(theta) >= np.pi / 2.0 - op.omega:
            raise DomainError("semigroup ray outside the decay sector")
        t, w = log_grid(1e-6 / hi, 60.0 / (lo * np.cos(theta)), n)
        z = np.exp(1j * theta)
        if defective:
            Ah = fractional_power(op, 0.5)
            stack = np.sqrt(t)[:, None, None] * (exp_stack(-z * t) @ Ah)
            return build(t, w, None, "dt/t", f"semigroup-ray[{theta:g}]", stack=stack)
        fvals = np.sqrt(t[:, None] * lam[None, :]) * np.exp(
            -z * t[:, None] * lam[None, :]
        )
        return build(t, w, fvals, "dt/t", f"semigroup-ray[{theta:g}]")

    if family == "semigroup-2d":
        n_x, n_psi, eps_psi = 48, 49, 5e-3
        x, wx = log_grid(1e-6 / hi, 60.0 / lo, n_x)  # wx: dx/x weights
        psi = np.linspace(-np.pi / 2 + eps_psi, np.pi / 2 - eps_psi, n_psi)
        wpsi = trapezoid_weights(n_psi, psi[1] - psi[0])
        pts, wts, vals, stacks = [], [], [], []
        Ah = fractional_power(op, 0.5) if defective else None
        for j, ps in enumerate(psi):
            v = np.tan(ps)
            zfac = 1.0 + 1j * v  # x + iy = x (1 + i v)
            # weight (x/|x+iy|)^alpha = cos(psi)^alpha; dy = x sec^2 dpsi
            if defective:
                stacks.append(
                    np.cos(ps) ** alpha
                    * x[:, None, None] ** (-0.5)
                    * (exp_stack(-zfac * x) @ Ah)
                )
            else:
                vals.append(
                    np.cos(ps) ** alpha
                    * x[:, None] ** (-0.5)
                    * np.sqrt(lam[None, :])
                    * np.exp(-zfac * x[:, None] * lam[None, :])
                )
            pts.append(np.column_stack([x, v * x]))
            # dx dy = x^2 sec^2(psi) (dx/x) dpsi
            wts.append(wx * x * x / np.cos(ps) ** 2 * wpsi[j])
        return build(
            np.concatenate(pts),
            np.concatenate(wts),
            np.concatenate(vals) if not defective else None,
            "dxdy",
            f"semigroup-2d[{alpha:g}]",
            stack=np.concatenate(stacks) if defective else None,
        )

    if family == "wave":
        if not (m - 0.5 < alpha < m + 0.5):
            raise DomainError("need m - 1/2 < alpha < m + 1/2")
        s_min, s_max = 1e-4 / hi, 2e3 / lo
        s_abs, w_log = log_grid(s_min, s_max, n)
        pts, wts, vals, stacks = [], [], [], []
        Apre = fractional_power(op, 0.5 - alpha) if defective else None
        for sgn in (+1.0, -1.0):
            s = sgn * s_abs
            if defective:
                I = np.eye(op.dim)
                E = np.stack(
                    [
                        np.linalg.matrix_power(scipy.linalg.expm(1j * sv * op.matrix) - I, m)
                        for sv in s
                    ]
                )
                stacks.append(np.abs(s)[:, None, None] ** (-alpha) * (E @ Apre))
            else:
                vals.append(
                    np.abs(s)[:, None] ** (-alpha)
                    * lam[None, :] ** (0.5 - alpha)
                    * (np.exp(1j * s[:, None] * lam[None, :]) - 1.0) ** m
                )
            pts.append(s)
            wts.append(w_log * s_abs)  # ds = s du
        diag = {"s_min": s_min, "s_max": s_max}
        return build(
            np.concatenate(pts),
            np.concatenate(wts),
            np.concatenate(vals) if not defective else None,
            "ds",
            "wave",
            diag,
            stack=np.concatenate(stacks) if defective else None,
        )

    if family == "wave-taylor":
        s_min, s_max = 1e-4 / hi, 1e3 / lo
        s_abs, w_log = log_grid(s_min, s_max, n)
        pts, wts, vals, stacks = [], [], [], []
        Apre = fractional_power(op, 0.5 - alpha) if defective else None
        for sgn in (+1.0, -1.0):
            s = sgn * s_abs
            if defective:
                R = taylor_remainder_stack(s, m)
                stacks.append(np.abs(s)[:, None, None] ** (-alpha) * (R @ Apre))
            else:
                # a^{1/2-alpha}|s|^{-alpha}(e^{isa} - T_m) = a^{1/2} w_alpha(s a)
                vals.append(np.sqrt(lam[None, :]) * w_alpha_kernel_outer(s, lam, alpha, m))
            pts.append(s)
            wts.append(w_log * s_abs)
        # the |s|^2 part of |remainder|^2 decays like s^{2-2alpha}, so the
        # truncated tail scales as (s_max * a)^{3-2alpha}
        diag = {"s_max": s_max, "tail_exponent": 3.0 - 2.0 * alpha}
        return build(
            np.concatenate(pts),
            np.concatenate(wts),
            np.concatenate(vals) if not defective else None,
            "ds",
            f"wave-taylor[{alpha:g},{m}]",
            diag,
            stack=np.concatenate(stacks) if defective else None,
        )


def w_alpha_kernel_outer(s, lam, alpha, m):
    """w_alpha(s * a) on the outer product grid; lam must be positive."""
    a = np.real(lam)
    out = np.empty((len(s), len(a)), dtype=np.complex128)
    for j, av in enumerate(a):
        out[:, j] = w_alpha_kernel(s * av, alpha, m)
    return out


# ---------------------------------------------------------------------------
# Mellin identities for the wave family


def wave_mellin_lhs(A, t_grid, alpha: float, m: int):
    """Mellin transform (in s) of s^{1/2-alpha} (e^{-isA} - 1)^m.

    Returns a (T, n, n) stack: for each t the matrix
    int_0^inf s^{(1/2-alpha)+it} (e^{-isA} - 1)^m ds/s, computed
    after rotating the ray by phi = 0.42 into the damped quadrant (the
    arcs vanish for 1/2 < alpha < m + 1/2).  Equals
    h_{-1}(t) A^{alpha-1/2-it} with h_sign from special.h_kernel.
    """
    op = sectorial(A)
    if not op.diagonalizable:
        raise NotSectorialError("wave Mellin path uses the eigen decomposition")
    if not (0.5 < alpha < m + 0.5):
        raise DomainError("need 1/2 < alpha < m + 1/2")
    sign = -1  # the group direction e^{i sign s A}
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    phi = 0.42
    c = 0.5 - alpha
    left_rate = m + c
    right_rate = -c
    u_lo = -32.0 / left_rate - 2.0
    u_hi = 32.0 / right_rate + 2.0
    # oscillation: the damped exponential rings at ~ 30 cot(phi) per unit u
    freq = 30.0 * m / np.tan(phi) + float(np.max(np.abs(t_grid))) + 10.0
    du = min(0.5 * np.pi / freq, 0.02)
    n_u = int(np.ceil((u_hi - u_lo) / du))
    u = np.linspace(u_lo, u_hi, n_u)
    du = u[1] - u[0]

    lam = op.eigenvalues.real
    vals = np.empty((len(t_grid), len(lam)), dtype=np.complex128)
    z_t = c + 1j * t_grid
    pref = np.exp(1j * sign * phi * z_t)
    phases = np.exp(1j * np.outer(t_grid, u))  # (T, U)
    base = np.exp(c * u)
    for j, a in enumerate(lam):
        # rotating s = e^{-i sign phi} sigma turns e^{i sign s a} into
        # e^{-mu sigma} with mu in the damped half plane
        mu = a * (np.sin(phi) - 1j * sign * np.cos(phi))
        w = np.exp(-mu * np.exp(u))
        G = base * (w - 1.0) ** m
        small = np.abs(mu) * np.exp(u) < 1e-8  # avoid cancellation at the left end
        if np.any(small):
            G[small] = base[small] * (-mu * np.exp(u[small])) ** m
        vals[:, j] = pref * (phases @ G) * du
    return _eig_apply_stack(op, vals)


def wave_mellin_rhs(A, t_grid, alpha: float, m: int):
    """h_{-1}(t) A^{alpha - 1/2 - it} as a (T, n, n) stack."""
    op = sectorial(A)
    if not op.diagonalizable:
        raise NotSectorialError("wave Mellin path uses the eigen decomposition")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    h = h_kernel(t_grid, alpha, m, sign=-1)
    lam = op.eigenvalues
    fvals = h[:, None] * np.exp(
        (alpha - 0.5 - 1j * t_grid[:, None]) * np.log(lam[None, :])
    )
    return _eig_apply_stack(op, fvals)


def wave_taylor_mellin_lhs(A, t_grid, alpha: float, m: int):
    """Mellin transform of s^{1/2} applied to the Taylor-regularized wave
    kernel family: int_0^inf s^{(1/2-alpha)+it} (e^{isA} - T_m(isA)) ds/s.

    Computed on the fully rotated ray (the integrand is entire and the
    arcs vanish when alpha - 1/2 is inside (m, m+1)), where it becomes a
    real-damped remainder integral.  Equals
    e^{i pi z_t / 2} Gamma(z_t) A^{-z_t} with z_t = 1/2 - alpha + it.
    """
    op = sectorial(A)
    if not op.diagonalizable:
        raise NotSectorialError("wave Mellin path uses the eigen decomposition")
    if not (m < alpha - 0.5 < m + 1):
        raise DomainError("need alpha - 1/2 strictly inside (m, m+1)")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    c = 0.5 - alpha
    left_rate = m + 1 + c
    right_rate = alpha - 0.5 - m
    u_lo = -32.0 / left_rate - 2.0
    u_hi = 34.0 / right_rate + 2.0
    freq = float(np.max(np.abs(t_grid))) + 12.0
    du = min(0.5 * np.pi / freq, 0.05)
    n_u = int(np.ceil((u_hi - u_lo) / du))
    u = np.linspace(u_lo, u_hi, n_u)
    du = u[1] - u[0]

    lam = op.eigenvalues.real
    z_t = c + 1j * t_grid
    pref = np.exp(1j * np.pi * z_t / 2.0)
    phases = np.exp(1j * np.outer(t_grid, u))
    base = np.exp(c * u)
    vals = np.empty((len(t_grid), len(lam)), dtype=np.complex128)
    for j, a in enumerate(lam):
        x = a * np.exp(u)  # rotated |s| axis: e^{isa} -> e^{-x}
        rem = _exp_remainder(-x, m)
        G = base * rem
        vals[:, j] = pref * (phases @ G) * du
    return _eig_apply_stack(op, vals)


def _exp_remainder(w, m):
    """e^w - sum_{j<=m} w^j/j!, stable for small |w| (w real array)."""
    w = np.asarray(w, dtype=float)
    out = np.exp(w)
    term = np.ones_like(w)
    acc = term.copy()
    for j in range(1, m + 1):
        term = term * w / j
        acc += term
    direct = out - acc
    # series for the small-|w| region
    small = np.abs(w) < 0.5
    if np.any(small):
        ws = w[small]
        term = ws ** (m + 1) / math.factorial(m + 1)
        total = term.copy()
        for j in range(m + 2, m + 40):
            term = term * ws / j
            total += term
        direct[small] = total
    return direct


def resolvent_bip_mellin(A, beta: float, theta: float, s_grid):
    """Both sides of the resolvent-to-imaginary-powers Mellin identity.

    lhs(s) = e^{i theta beta} A^{1-beta} int_0^inf t^{beta+is} (e^{i theta} t + A)^{-1} dt/t
    rhs(s) = pi / sin(pi (beta + is)) e^{theta s} A^{is}

    Returns (lhs, rhs) as (S, n, n) stacks.  theta must avoid pi, where
    the integration ray would cross the spectrum.
    """
    op = sectorial(A)
    if not op.diagonalizable:
        raise NotSectorialError("Mellin identity path uses the eigen decomposition")
    if not (0.0 < beta < 1.0):
        raise DomainError("need 0 < beta < 1")
    if abs(abs(theta) - np.pi) < 1e-9:
        raise DomainError("theta = pi puts the pole on the integration ray")
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    lam = op.eigenvalues
    lo, hi = op.spectral_bounds()
    t, w = log_grid(lo * 1e-7, hi * 1e7, 4096)
    e = np.exp(1j * theta)
    lhs_vals = np.empty((len(s_grid), len(lam)), dtype=np.complex128)
    # eigenvalue-wise quadrature of t^{beta+is-1} / (e^{i theta} t + a)
    for j, a in enumerate(lam):
        integ = 1.0 / (e * t + a)
        tpow = t**beta * integ * w  # remaining factor t^{is}
        lhs_vals[:, j] = (
            np.exp(1j * np.outer(s_grid, np.log(t))) @ tpow
        ) * np.exp(1j * theta * beta) * a ** (1.0 - beta)
    rhs_vals = (
        np.pi
        / np.sin(np.pi * (beta + 1j * s_grid))[:, None]
        * np.exp(theta * s_grid)[:, None]
        * np.exp(1j * np.outer(s_grid, np.log(lam)))
    )
    return _eig_apply_stack(op, lhs_vals), _eig_apply_stack(op, rhs_vals)
