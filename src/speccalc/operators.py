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
imaginary powers.  Every family element is scale * g(z, A) * A^power
with g one of five cores (imaginary power, resolvent, semigroup, wave,
Taylor-regularized wave), evaluated on the eigenvalues when the
eigenbasis is usable and by stacked dense matrix functions otherwise
(_samples).  The contour calculus sums the resolvent core of _samples
over its nodes, so it takes the same two paths.  Each Mellin identity
returns its two sides as eigenvalue tables.  Every V diag(f) V^{-1} in
the package, a table mapped through the eigenbasis, is one call of
rbound._eig_apply_stack, which raises NotSectorialError on an operator
without a usable eigenbasis.
scipy.linalg is imported inside fractional_power and the defective
branch of _samples only, the two places that call expm and logm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import special
from .errors import (
    ContourError,
    ConvergenceError,
    DomainError,
    NotSectorialError,
)
from .grids import log_grid, trapezoid_weights
from .rbound import OperatorFamily, _eig_apply_stack

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
    trust; matrix functions then act on the dense matrix, by stacked
    calls of scipy's expm and logm, inv and matrix_power in _samples,
    and by the power series of the Taylor remainder where |z| ||A|| < 1/2.
    normal records ||A A^H - A^H A|| <= 1e-12 ||A||^2 (on the core of a
    reduced matrix), read from the matrix by sectorial.
    """

    matrix: np.ndarray
    omega: float
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    eigenvectors_inv: Optional[np.ndarray]
    reduction: Optional[RangeReduction] = None
    normal: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonalizable(self) -> bool:
        return self.eigenvectors is not None

    @property
    def eigenbasis(self):
        """(V, V^{-1}), or None without a usable eigenbasis."""
        return (self.eigenvectors, self.eigenvectors_inv) if self.diagonalizable else None

    def spectral_bounds(self):
        a = np.abs(self.eigenvalues)
        return float(a.min()), float(a.max())


def sectorial(A) -> SectorialOperator:
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
    # roundoff leaves about 1e-16 ||A||^2 on the Hermitian Laplacian
    # cores; a departure from normality d moves the closed-form values of
    # a normal operator's families by O(d) while the commutator is
    # O(d^2), so the threshold stays near roundoff
    AH = A.conj().T
    normal = float(np.linalg.norm(A @ AH - AH @ A, 2)) <= 1e-12 * scale**2

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
        normal=normal,
    )


def _number(convert, text: str, spec: str, form: str):
    """convert(text), int or float, for one argument of a preset, or a
    DomainError naming the spec and the form it should have."""
    try:
        return convert(text)
    except ValueError:
        what = "an integer" if convert is int else "a number"
        raise DomainError(
            f"{spec!r} is not of the form {form}: {text.strip()!r} is not {what}"
        ) from None


def operator_from_spec(spec: str) -> SectorialOperator:
    """Parse operator presets.

    diag:(1,2,5,10)        diagonal with the listed entries
    diag-logspaced:16      geometric diagonal 2^{-(n-1)/2} .. 2^{(n-1)/2}
    cycle-laplacian:12     circulant graph Laplacian (zero mode compressed)
    path-laplacian:12      path graph Laplacian (zero mode compressed)
    jordan:(3,4)           a I + nilpotent shift, dimension 4

    Parentheses around the argument list are optional.  An argument that
    does not parse as its number raises DomainError naming the spec and
    the preset's form.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if arg.startswith("(") and arg.endswith(")"):
        arg = arg[1:-1]
    if kind == "diag":
        vals = np.array(
            [_number(float, v, spec, "diag:a,b,...") for v in arg.split(",") if v.strip()]
        )
        if len(vals) == 0:
            raise DomainError("diag needs at least one entry")
        return sectorial(np.diag(vals.astype(np.complex128)))
    if kind in ("diag-logspaced", "cycle-laplacian", "path-laplacian"):
        n = _number(int, arg, spec, f"{kind}:n")
        if n < 2:
            raise DomainError(f"{kind} needs n >= 2")
    if kind == "diag-logspaced":
        expo = np.arange(n) - (n - 1) / 2.0
        return sectorial(np.diag((2.0**expo).astype(np.complex128)))
    if kind == "cycle-laplacian":
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A[0, -1] -= 1.0
        A[-1, 0] -= 1.0
        return sectorial(A)
    if kind == "path-laplacian":
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A[0, 0] = 1.0
        A[-1, -1] = 1.0
        return sectorial(A)
    if kind == "jordan":
        parts = arg.split(",")
        if len(parts) != 2:
            raise DomainError(f"jordan needs exactly a,n, got {spec!r}")
        a = _number(float, parts[0], spec, "jordan:a,n")
        n = _number(int, parts[1], spec, "jordan:a,n")
        if n < 1:
            raise DomainError(f"jordan needs n >= 1, got {spec!r}")
        if a <= 0:
            raise NotSectorialError("jordan block eigenvalue must be positive")
        A = a * np.eye(n) + np.eye(n, k=1)
        return sectorial(A)
    raise DomainError(f"unknown operator preset {spec!r}")


# ---------------------------------------------------------------------------
# matrix functions


def imaginary_powers(A, t):
    """A^{it}; t scalar gives one matrix, t array gives a (T, n, n) stack."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ones = np.ones(len(t_arr))
    out = OperatorFamily(
        "A^{it}", t_arr, ones, measure="point",
        **_samples(sectorial(A), "bip", t_arr, ones, 0.0),
    ).matrices
    return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def fractional_power(A, gamma: float) -> np.ndarray:
    """A^gamma = exp(gamma log A) with the principal branch, by dense
    matrix functions (a diagonalizable operator's powers act on its
    eigenvalues in _samples instead)."""
    import scipy.linalg

    return scipy.linalg.expm(gamma * scipy.linalg.logm(sectorial(A).matrix))


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


# contour nodes per _samples call: bounds the (chunk, n, n) resolvent
# stack of a defective operator; one 6144-node stack was slower than
# 256-node chunks at n = 16
_NODE_CHUNK = 256


def holomorphic_calculus(A, f: Callable) -> np.ndarray:
    """f(A) = (2 pi i)^{-1} oint f(z) (z - A)^{-1} dz over the sector boundary.

    The contour is the pair of rays arg z = +-angle with
    angle = min(max(1.5 omega, 0.35), (omega + pi)/2), cut to radii seven
    decades beyond the spectrum.  f must be analytic on the sector
    |arg z| <= angle and decay at 0 and infinity (an integrable power of
    |z| suffices).  Each ray carries a tanh-sinh rule in log r with
    384 * 2^k nodes, k = 0..4; the node count doubles until the result
    changes by less than 1e-9 relative.

    Each ray keeps its own coefficients c_k = w_k r_k f(z_k), so f needs
    no conjugate symmetry, and each chunk of its nodes is the resolvent
    core of _samples scaled by c_k, which chooses the path: with an
    eigenbasis the (chunk, n) table c_k / (z_k - lambda_j), whose two ray
    sums are combined on the eigenvalues and mapped through the
    eigenbasis once per node count; on a defective operator the
    (chunk, n, n) stack c_k (z_k - A)^{-1}, one dense inverse per node.
    Either is summed in node order, one slice after another, so the
    rounding of the sum is the node-by-node loop's.
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
        total = 0.0
        for sgn in (-1.0, +1.0):
            e = np.exp(1j * sgn * angle)
            z = r * e
            if np.any(np.abs(z[:, None] - op.eigenvalues[None, :]) < near[None, :]):
                raise ContourError("contour node too close to the spectrum")
            c = wr * np.asarray(f(z), dtype=np.complex128)
            acc = 0.0
            for lo_k in range(0, n_nodes, _NODE_CHUNK):
                ks = slice(lo_k, lo_k + _NODE_CHUNK)
                sample = _samples(op, "resolvent", z[ks], c[ks], 0.0)
                part = sample["symbols"] if "symbols" in sample else sample["matrices"]
                part[0] += acc
                acc = np.add.reduce(part, axis=0)  # slice by slice, in node order
            total = total + (-sgn) * e * acc  # down the upper ray, out the lower
        total = total / (2.0j * np.pi)
        return total if total.ndim == 2 else _eig_apply_stack(op.eigenbasis, total[None])[0]

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


# the imaginary-power grid: BIP_N points on [-BIP_T, BIP_T], step 2^-5;
# c1 averages this family's samples, so c1 and c2 share the grid the
# bridge c2 / (2 pi c1) needs
BIP_T = 50.0
BIP_N = 3201

# the arguments each family's formula reads, with their defaults; n is
# the grid size of the grids the suite reports (the 2-D families have
# fixed grids and read no n)
_FAMILY_ARGS = {
    "bip": {"alpha": 1.0, "n": BIP_N},
    "resolvent-ray": {"beta": 0.5, "theta": 0.0, "n": 1024},
    "resolvent-2d": {"alpha": 1.0, "beta": 0.5},
    "semigroup-ray": {"theta": 0.0, "n": 1024},
    "semigroup-2d": {"alpha": 1.0},
    "wave": {"alpha": 1.0, "m": 1, "n": 2048},
    "wave-taylor": {"alpha": 1.0, "m": 1, "n": 2048},
}


def _samples(op: SectorialOperator, core: str, z, scale, power: float, m=None) -> dict:
    """The samples scale_k g(z_k, A) A^power for one of the cores

      bip           A^{iz}
      resolvent     (z - A)^{-1}
      semigroup     e^{-zA}
      wave          (e^{izA} - 1)^m
      wave-taylor   e^{izA} - T_m(izA), T_m the Taylor polynomial of degree m

    as the OperatorFamily arguments of one of its two forms.  With an
    eigenbasis, g and the power act on the eigenvalues, giving the (K, n)
    eigenvalue table, which carries the operator's normality.  On a
    defective operator each core is one stacked dense call (expm, inv,
    matrix_power) times the dense A^power, giving the (K, n, n) stack;
    the Taylor remainder switches to its power series where
    |z| ||A|| < 1/2, where the direct difference cancels.
    family_samples, imaginary_powers and holomorphic_calculus choose
    between the two paths only here.  A^0 is the identity on both paths
    and is not multiplied in on the stack.
    """
    if op.diagonalizable:
        lam = op.eigenvalues
        if core == "bip":
            g = np.exp(1j * np.outer(z, np.log(lam)))
        elif core == "resolvent":
            g = 1.0 / (z[:, None] - lam[None, :])
        elif core == "semigroup":
            g = np.exp(-z[:, None] * lam[None, :])
        elif core == "wave":
            g = (np.exp(1j * z[:, None] * lam[None, :]) - 1.0) ** m
        else:
            g = _exp_remainder(1j * z[:, None] * lam[None, :], m)
        return {"symbols": scale[:, None] * g * lam**power, "eigenbasis": op.eigenbasis,
                "normal": op.normal}
    import scipy.linalg

    A = op.matrix
    I = np.eye(op.dim)
    if core == "bip":
        G = scipy.linalg.expm(1j * z[:, None, None] * scipy.linalg.logm(A))
    elif core == "resolvent":
        G = np.linalg.inv(z[:, None, None] * I - A)
    elif core == "semigroup":
        G = scipy.linalg.expm(-z[:, None, None] * A)
    elif core == "wave":
        G = np.linalg.matrix_power(scipy.linalg.expm(1j * z[:, None, None] * A) - I, m)
    else:
        B = 1j * z[:, None, None] * A
        G = scipy.linalg.expm(B) - I
        P = I
        for j in range(1, m + 1):
            P = P @ B / j
            G = G - P
        small = np.abs(z) * np.linalg.norm(A, 2) < 0.5
        if np.any(small):
            Bs = B[small]
            term = np.linalg.matrix_power(Bs, m + 1) / math.factorial(m + 1)
            acc = term.copy()
            for j in range(m + 2, m + 30):
                term = term @ Bs / j
                acc += term
                tail = np.linalg.norm(term, 2, axis=(1, 2))
                if np.all(tail < 1e-18 * np.maximum(np.linalg.norm(acc, 2, axis=(1, 2)), 1e-300)):
                    break
            G[small] = acc
    if power != 0.0:  # A^0 = I exactly, where expm(0 logm(A)) costs milliseconds
        G = G @ fractional_power(op, power)
    return {"matrices": scale[:, None, None] * G}


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

    Every element is scale_k g(z_k, A) A^power, with g one of the cores
    of _samples.  The families (mu is the quadrature measure):

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

    Each family reads only the arguments in its formula (_FAMILY_ARGS,
    which also holds their defaults) and raises DomainError when any
    other is passed.  n is the number of grid points (for the two
    waves, per sign of s).  The 2-D families have fixed grids:
    resolvent-2d 48 angles log-spaced in [1e-2, pi] of each sign times
    192 radii, semigroup-2d 49 angles psi = arg(x + iy) in
    [-pi/2 + 5e-3, pi/2 - 5e-3] times 48 values of x, which needs a
    spectral angle below 5e-3.  The waves need
    a nonnegative integer m, with m - 1/2 < alpha < m + 1/2 for wave
    and m < alpha - 1/2 < m + 1 for wave-taylor.
    """
    if family not in _FAMILY_ARGS:
        raise DomainError(f"unknown family {family!r}")
    passed = {"alpha": alpha, "beta": beta, "theta": theta, "m": m, "n": n}
    args = _FAMILY_ARGS[family]
    unread = [k for k, v in passed.items() if v is not None and k not in args]
    if unread:
        raise DomainError(f"family {family!r} does not read {', '.join(unread)}")
    args = {**args, **{k: v for k, v in passed.items() if v is not None}}
    alpha, beta, theta, m, n = (args.get(k) for k in passed)
    if "m" in args and not (isinstance(m, (int, np.integer)) and m >= 0):
        raise DomainError(f"order m must be a nonnegative integer, got {m!r}")
    op = sectorial(A)
    lo, hi = op.spectral_bounds()
    diagnostics = {}

    if family == "bip":
        points = np.linspace(-BIP_T, BIP_T, n)
        weights = trapezoid_weights(n, 2 * BIP_T / (n - 1))
        scale, z = (1.0 + points * points) ** (-alpha / 2.0), points
        core, power, measure, label = "bip", 0.0, "dt", f"bip[{alpha:g}]"

    elif family == "resolvent-ray":
        if abs(theta) <= op.omega:
            raise DomainError("ray angle must clear the spectral angle")
        points, weights = log_grid(lo * 1e-5, hi * 1e5, n)
        scale, z = points**beta, np.exp(1j * theta) * points
        core, power, measure = "resolvent", 1.0 - beta, "dt/t"
        label = f"resolvent-ray[{theta:g}]"

    elif family == "resolvent-2d":
        theta0, th_min, n_t, n_th = np.pi, 1e-2, 192, 48
        th_abs, w_th = log_grid(th_min, theta0, n_th)
        w_th = w_th * th_abs  # dtheta
        t, w_t = log_grid(lo * 1e-4, hi * 1e4, n_t)
        th, w_th = np.concatenate([th_abs, -th_abs]), np.tile(w_th, 2)
        keep = np.abs(th) > op.omega
        th, w_th = np.repeat(th[keep], n_t), np.repeat(w_th[keep], n_t)
        t, w_t = np.tile(t, keep.sum()), np.tile(w_t, keep.sum())
        points, weights = np.column_stack([th, t]), w_th * w_t
        scale, z = np.abs(th) ** (alpha - 0.5) * t**beta, np.exp(1j * th) * t
        core, power, measure = "resolvent", 1.0 - beta, "dtheta*dt/t"
        label = f"resolvent-2d[{alpha:g}]"
        diagnostics = {"theta_min": th_min, "theta0": theta0}

    elif family == "semigroup-ray":
        if abs(theta) >= np.pi / 2.0 - op.omega:
            raise DomainError("semigroup ray outside the decay sector")
        points, weights = log_grid(1e-6 / hi, 60.0 / (lo * np.cos(theta)), n)
        scale, z = np.sqrt(points), np.exp(1j * theta) * points
        core, power, measure = "semigroup", 0.5, "dt/t"
        label = f"semigroup-ray[{theta:g}]"

    elif family == "semigroup-2d":
        n_x, n_psi, eps_psi = 48, 49, 5e-3
        if op.omega >= eps_psi:
            # e^{-(x+iy)A} decays for |arg(x+iy)| < pi/2 - omega only
            raise DomainError("semigroup-2d angles reach outside the decay sector")
        x, wx = log_grid(1e-6 / hi, 60.0 / lo, n_x)  # wx: dx/x weights
        psi = np.linspace(-np.pi / 2 + eps_psi, np.pi / 2 - eps_psi, n_psi)
        wpsi = trapezoid_weights(n_psi, psi[1] - psi[0])
        psi, wpsi = np.repeat(psi, n_x), np.repeat(wpsi, n_x)
        x, wx = np.tile(x, n_psi), np.tile(wx, n_psi)
        v = np.tan(psi)  # x + iy = x (1 + i v)
        points = np.column_stack([x, v * x])
        # dx dy = x^2 sec^2(psi) (dx/x) dpsi
        weights = wx * x * x / np.cos(psi) ** 2 * wpsi
        # weight (x/|x+iy|)^alpha = cos(psi)^alpha
        scale, z = np.cos(psi) ** alpha * x ** (-0.5), (1.0 + 1j * v) * x
        core, power, measure = "semigroup", 0.5, "dxdy"
        label = f"semigroup-2d[{alpha:g}]"

    else:  # the two waves
        if family == "wave" and not (m - 0.5 < alpha < m + 0.5):
            raise DomainError("need m - 1/2 < alpha < m + 1/2")
        if family == "wave-taylor" and not (m < alpha - 0.5 < m + 1):
            raise DomainError(
                f"need alpha - 1/2 strictly inside ({m}, {m + 1}), got alpha = {alpha}"
            )
        s_min, s_max = 1e-4 / hi, (2e3 if family == "wave" else 1e3) / lo
        s_abs, w_log = log_grid(s_min, s_max, n)
        points, weights = np.concatenate([s_abs, -s_abs]), np.tile(w_log * s_abs, 2)
        scale, z = np.abs(points) ** (-alpha), points
        core, power, measure = family, 0.5 - alpha, "ds"
        if family == "wave":
            label, diagnostics = "wave", {"s_min": s_min, "s_max": s_max}
        else:
            label = f"wave-taylor[{alpha:g},{m}]"
            # the |s|^2 part of |remainder|^2 decays like s^{2-2alpha}, so
            # the truncated tail scales as (s_max * a)^{3-2alpha}
            diagnostics = {"s_max": s_max, "tail_exponent": 3.0 - 2.0 * alpha}

    return OperatorFamily(
        label=label,
        points=points,
        weights=weights,
        measure=measure,
        diagnostics=diagnostics,
        **_samples(op, core, z, scale, power, m),
    )


# ---------------------------------------------------------------------------
# Mellin identities: each returns (lhs, rhs) as (T, n) eigenvalue tables,
# row k the functions of the eigenvalues at the k-th grid point


def _mellin_sums(phases, kernels):
    """The (T, n) table with column j the quadrature sum phases @ kernels[j]
    of the (n, U) kernels: one GEMV per eigenvalue, since one GEMM rounds
    differently and the identities' residuals are roundoff-sized."""
    return np.stack([phases @ g for g in kernels], axis=1)


def wave_mellin(A, t_grid, alpha: float, m: int):
    """Both sides of the wave-to-imaginary-powers Mellin identity.

    lhs(t) = int_0^inf s^{(1/2-alpha)+it} (e^{-isA} - 1)^m ds/s
    rhs(t) = h_{-1}(t) A^{alpha-1/2-it}, h_sign from special.h_kernel

    The lhs is computed after rotating the ray by phi = 0.42 into the
    damped quadrant (the arcs vanish for 1/2 < alpha < m + 1/2).
    """
    op = sectorial(A)
    if not (0.5 < alpha < m + 0.5):
        raise DomainError("need 1/2 < alpha < m + 1/2")
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

    z_t = c + 1j * t_grid
    pref = np.exp(-1j * phi * z_t)
    phases = np.exp(1j * np.outer(t_grid, u))  # (T, U)
    base = np.exp(c * u)
    eu = np.exp(u)
    # rotating s = e^{i phi} sigma turns e^{-isa} into e^{-mu sigma} with
    # mu in the damped half plane, one row per eigenvalue a
    mu = op.eigenvalues.real[:, None] * (np.sin(phi) + 1j * np.cos(phi))
    x = -mu * eu
    G = base * (np.exp(x) - 1.0) ** m
    # its leading term x^m at the left end, where the difference cancels
    small = np.abs(mu) * eu < 1e-8
    G[small] = np.broadcast_to(base, G.shape)[small] * x[small] ** m
    lhs = pref[:, None] * _mellin_sums(phases, G) * du
    h = special.h_kernel(t_grid, alpha, m, sign=-1)
    rhs = h[:, None] * np.exp(
        (alpha - 0.5 - 1j * t_grid[:, None]) * np.log(op.eigenvalues[None, :])
    )
    return lhs, rhs


def wave_taylor_mellin(A, t_grid, alpha: float, m: int):
    """Both sides of the Mellin identity of the Taylor-regularized wave.

    lhs(t) = int_0^inf s^{(1/2-alpha)+it} (e^{isA} - T_m(isA)) ds/s
    rhs(t) = e^{i pi z_t / 2} Gamma(z_t) A^{-z_t},  z_t = 1/2 - alpha + it

    The lhs is computed on the fully rotated ray (the integrand is entire
    and the arcs vanish when alpha - 1/2 is inside (m, m+1)), where it
    becomes a real-damped remainder integral.
    """
    op = sectorial(A)
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

    z_t = c + 1j * t_grid
    pref = np.exp(1j * np.pi * z_t / 2.0)
    phases = np.exp(1j * np.outer(t_grid, u))
    # rotated |s| axis: e^{isa} -> e^{-x}, x = a e^u, one row per eigenvalue a
    x = op.eigenvalues.real[:, None] * np.exp(u)
    G = np.exp(c * u) * _exp_remainder(-x, m)
    lhs = pref[:, None] * _mellin_sums(phases, G) * du
    rhs = (special.gamma(z_t) * pref)[:, None] * np.exp(
        -z_t[:, None] * np.log(op.eigenvalues[None, :])
    )
    return lhs, rhs


def _exp_remainder(w, m):
    """e^w - sum_{j<=m} w^j/j!, stable for small |w| (w a real or complex
    array)."""
    w = np.asarray(w)
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

    Returns (lhs, rhs) as (S, n) eigenvalue tables.  theta must avoid pi,
    where the integration ray would cross the spectrum.
    """
    op = sectorial(A)
    if not (0.0 < beta < 1.0):
        raise DomainError("need 0 < beta < 1")
    if abs(abs(theta) - np.pi) < 1e-9:
        raise DomainError("theta = pi puts the pole on the integration ray")
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    lam = op.eigenvalues
    lo, hi = op.spectral_bounds()
    t, w = log_grid(lo * 1e-7, hi * 1e7, 4096)
    # eigenvalue-wise quadrature of t^{beta+is-1} / (e^{i theta} t + a),
    # one row per eigenvalue a, against the remaining factor t^{is}
    integ = 1.0 / (np.exp(1j * theta) * t + lam[:, None])
    tpow = t**beta * integ * w
    phases = np.exp(1j * np.outer(s_grid, np.log(t)))
    lhs = (_mellin_sums(phases, tpow) * np.exp(1j * theta * beta)
           * np.power(lam, 1.0 - beta))
    rhs = (
        np.pi
        / np.sin(np.pi * (beta + 1j * s_grid))[:, None]
        * np.exp(theta * s_grid)[:, None]
        * np.exp(1j * np.outer(s_grid, np.log(lam)))
    )
    return lhs, rhs
