"""Reference constructions the tests check the package against.

fourier_at and inverse_fourier_transform are the direct-summation and
inverse oracles of grids.fourier_transform; dilate and scale_corpus
build the dilated symbols and scaled corpora of the dilation-stability
and c1 scaling checks; node_by_node_calculus is the contour calculus
summed one node at a time, the bitwise reference of
operators.holomorphic_calculus; sequential_witness_search is the
ell^p witness search of rbound.r_bound run one restart after another,
one tuple per score, its bitwise reference; per_matrix_operator_norm is
rbound.operator_norm off p in {1, 2, inf} run one matrix at a time, its
bitwise reference; per_member_corpus is suite.multiplier_corpus built
one member at a time with a complex exp per entry, its reference within
a stated rounding bound.  None of them is reached by `speccalc run`.
"""

import math
from dataclasses import replace

import numpy as np

from speccalc.errors import ContourError, ConvergenceError, DomainError
from speccalc import _kernels
from speccalc import operators as ops
from speccalc.grids import SampledFunction, trapezoid_weights
from speccalc.operators import _SOLVE_CHUNK, _tanh_sinh_nodes, sectorial
from speccalc.rbound import OperatorFamily, operator_norm, r_l2_bound
from speccalc.suite import DEFAULT_DT, MultiplierCorpus


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
    return replace(corpus, coefficients=corpus.coefficients * c)


def node_by_node_calculus(A, f) -> np.ndarray:
    """operators.holomorphic_calculus as two solves per node pair.

    Same contour, node rules and stopping test; each ray solves its own
    resolvents in chunks of _SOLVE_CHUNK and adds c_k R_k to its sum one
    node at a time (skipping a node whose f(z_k) and w_k r_k are both
    exactly 0), so the result is the one holomorphic_calculus must
    reproduce bit for bit.
    """
    op = sectorial(A)
    lo, hi = op.spectral_bounds()
    angle = min(max(1.5 * op.omega, 0.35), 0.5 * (op.omega + np.pi))
    u_min, u_max = np.log(lo / 1e7), np.log(hi * 1e7)
    near = 1e-9 * np.abs(op.eigenvalues)

    def evaluate(n_nodes: int) -> np.ndarray:
        u, w = _tanh_sinh_nodes(u_min, u_max, n_nodes)
        r = np.exp(u)
        wr = w * r
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
            for lo_k in range(0, len(nodes), _SOLVE_CHUNK):
                ks = nodes[lo_k : lo_k + _SOLVE_CHUNK]
                Rs = np.linalg.solve(z[ks, None, None] * I - op.matrix, I)
                for c, Rm in zip(wr[ks] * fz[ks], Rs):
                    acc += c * Rm
            total += (-sgn) * e * acc
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


def _tuple_ratio(mats, X, p, signs) -> float:
    """sqrt(E||sum eps T_j x_j||^2 / E||sum eps x_j||^2) of one tuple over
    one sign batch, through the same real GEMM as rbound._ratio."""
    k, n = X.shape
    Z = np.empty((k, 2 * n), dtype=np.complex128)
    Z[:, :n] = X
    Z[:, n:] = np.matmul(mats, X[:, :, None])[:, :, 0]
    S = (signs @ Z.view(np.float64)).view(np.complex128)
    den = float(np.mean(_kernels.row_norms(S[:, :n], p) ** 2))
    num = float(np.mean(_kernels.row_norms(S[:, n:], p) ** 2))
    return math.sqrt(num / den) if den > 0 else 0.0


def sequential_witness_search(mats, p, gen):
    """(lower, witness) of rbound.r_bound's ell^p witness search, one
    restart after another.

    Starts from the best singleton, then makes the 16 restarts of 60
    perturbation steps each, drawing every restart's size, subset, start
    and perturbations from gen as it climbs and scoring one tuple per
    call, so r_bound's lockstep search must reproduce its lower end and
    witness bit for bit and leave gen in the same state.
    """
    K, n, _ = mats.shape
    norms_p = operator_norm(mats, p)
    lower = float(norms_p.max())
    witness = {"operator": int(norms_p.argmax()), "kind": "singleton"}
    sizes = sorted({s for s in (1, 2, min(4, K), K) if s <= min(K, 14)})
    for _ in range(16):
        k = int(gen.choice(sizes))
        idx = gen.choice(K, size=k, replace=False)
        sub = mats[idx]
        X = gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n))
        signs = _kernels.sign_rows(k, 0, 1 << (k - 1))
        val = _tuple_ratio(sub, X, p, signs)
        for _ in range(60):
            Y = X + 0.3 * (
                gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n))
            )
            cand = _tuple_ratio(sub, Y, p, signs)
            if cand > val:
                val, X = cand, Y
        if val > lower:
            lower = val
            witness = {"operator": idx.tolist(), "kind": "search", "vectors": X}
    return lower, witness


def per_matrix_operator_norm(T, p):
    """rbound.operator_norm at p not in {1, 2, inf}, one matrix at a time.

    Each T_k becomes the one-sample family {T_k} with weight 1 and its own
    r_l2_bound call, which draws its random starts from a fresh generator,
    so operator_norm's single batch must reproduce every norm bit for bit.
    """
    T = np.asarray(T, dtype=np.complex128)
    n = T.shape[-1]
    norms = []
    for S in T.reshape(-1, n, n):
        one = OperatorFamily("T", np.zeros(1), np.ones(1), S[None], "point")
        norms.append(r_l2_bound(one, p).lower)
    return norms[0] if T.ndim == 2 else np.array(norms)


def per_member_corpus(A, alpha: float, size: int = 200, seed: int = 0):
    """suite.multiplier_corpus built one member at a time, with one
    complex exp per member and grid point and the ball norms taken from
    the moduli of the complex members.

    Draws the same centers and widths in the same order, so the two
    builds agree entry by entry within the rounding bound of the
    multiplier_corpus docstring.
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
