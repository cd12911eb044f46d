"""Reference constructions the tests check the package against.

fourier_at and inverse_fourier_transform are the direct-summation and
inverse oracles of grids.fourier_transform; dilate and scale_corpus
build the dilated symbols and scaled corpora of the dilation-stability
and c1 scaling checks; node_by_node_calculus is the contour calculus
with one dense solve per node, summed one node at a time, the bitwise
reference of operators.holomorphic_calculus on an operator without an
eigenbasis and its dense reference on one with an eigenbasis;
per_node_eigenvalue_calculus is the contour calculus summed on the
eigenvalues one node at a time, the bitwise reference of
operators.holomorphic_calculus on an operator with an eigenbasis;
PartitionOfUnity evaluates each window of a partition as its own
closure, the reference of the window stacks spaces._unit_bumps and
spaces._frequency_blocks (bitwise on the equidistant and fourier-dyadic
kinds, within 2^-52 on the dyadic kind); per_window_hoermander is
spaces.hoermander_norm with one zero-padded FFT per window, its bitwise
reference on the corpus; per_block_besov_value is the value of
spaces.besov_norm with one inverse transform per dyadic block, its
bitwise reference; sequential_witness_search is the
ell^p witness search of rbound.r_bound run one restart after another,
one tuple per score, its bitwise reference; per_matrix_operator_norm is
rbound.operator_norm off p in {1, 2, inf} run one matrix at a time, its
bitwise reference; per_trial_paley_littlewood is
suite.paley_littlewood_check one random x at a time, the loop that
drew Rademacher signs (the bitwise reference of its x's on at most 12
blocks) and the reference of its square-function ratios within
roundoff; per_member_corpus is suite.multiplier_corpus built
one member at a time with a complex exp per entry on the grid of
corpus_grid, its reference within a stated rounding bound;
per_eigenvalue_wave_mellin, per_eigenvalue_wave_taylor_mellin and
per_eigenvalue_resolvent_bip_mellin are the Mellin identities of
operators with one quadrature loop per eigenvalue, their bitwise
references; two_call_wave_kernel_integral and
two_call_contour_shifted_integral are the Gamma integrals with one quad
call per real and imaginary part, numpy's complex exp and one integrand
evaluation per quad call, the bitwise references of
special.wave_kernel_integral and special.contour_shifted_integral;
per_symbol_calculus_apply is suite.sobolev_calculus_apply on one
operator and one symbol, transform and phase table built per call, its
bitwise reference; full_series_exp_remainder is
operators._exp_remainder with both branches on every entry and all 38
terms of its series, its bitwise reference; full_stack_taylor_remainder
is the Taylor remainder core of operators._samples on a defective
operator with expm on every sample, its bitwise reference;
one_line_eigenvalue_samples is the eigenvalue path of
operators._samples with each core a one-line expression on fresh
temporaries and the scaling scale[:, None] * g * lam**power, the
bitwise reference of the tables it builds in one buffer;
repeated_grid_arguments is the grid and the arguments of the 2-D
families of operators.family_samples with every factor taken on the
repeated grid, their bitwise reference; stack_gram_factor,
stack_averages and stack_r_l2_bound are rbound._gram_factor,
OperatorFamily.averages and the bilinear loop of rbound.r_l2_bound on a
family's (K, n, n) stack, the bitwise references of the flattened table
of a family without an eigenbasis.  None of them is reached by
`speccalc run`.
"""

import math

import numpy as np

from speccalc.errors import ContourError, ConvergenceError, DomainError
from speccalc import _kernels, special
from speccalc import operators as ops
from speccalc.grids import SampledFunction, fourier_transform, log_grid, trapezoid_weights
from speccalc.operators import _NODE_CHUNK, _exp_remainder, _tanh_sinh_nodes, sectorial
from speccalc.rbound import (
    EXACT_LIMIT,
    SAMPLES,
    OperatorFamily,
    RBoundEstimate,
    _alternate,
    _eig_apply_stack,
    _rng,
    _transfer_constant,
    operator_norm,
    r_l2_bound,
    square_sum_norm,
)
from speccalc.spaces import NormResult, _edge_ratio, _ramp_smooth, _unit_bumps

# the step of the corpus transform grid
CORPUS_DT = 2.0**-5


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
    return corpus * c


def _contour_calculus(A, f, ray_sum, finish):
    """The contour, node rules and stopping test of
    operators.holomorphic_calculus, with ray_sum(op, z, c) the sum of
    c_k times the resolvent at z_k over one ray and finish(op, total)
    the matrix of the combined sum."""
    op = sectorial(A)
    lo, hi = op.spectral_bounds()
    angle = min(max(1.5 * op.omega, 0.35), 0.5 * (op.omega + np.pi))
    u_min, u_max = np.log(lo / 1e7), np.log(hi * 1e7)
    near = 1e-9 * np.abs(op.eigenvalues)

    def evaluate(n_nodes: int) -> np.ndarray:
        u, w = _tanh_sinh_nodes(u_min, u_max, n_nodes)
        r = np.exp(u)
        wr = w * r
        total = 0.0
        for sgn in (-1.0, +1.0):
            e = np.exp(1j * sgn * angle)
            z = r * e
            if np.any(np.abs(z[:, None] - op.eigenvalues[None, :]) < near[None, :]):
                raise ContourError("contour node too close to the spectrum")
            c = wr * np.asarray(f(z), dtype=np.complex128)
            total = total + (-sgn) * e * ray_sum(op, z, c)
        return finish(op, total / (2.0j * np.pi))

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


def _dense_ray_sum(op, z, c):
    acc = np.zeros_like(op.matrix)
    I = np.eye(op.dim)
    for lo_k in range(0, len(z), _NODE_CHUNK):
        ks = slice(lo_k, lo_k + _NODE_CHUNK)
        Rs = np.linalg.solve(z[ks, None, None] * I - op.matrix, I)
        for ck, Rm in zip(c[ks], Rs):
            acc += ck * Rm
    return acc


def node_by_node_calculus(A, f) -> np.ndarray:
    """operators.holomorphic_calculus as one dense solve per node.

    Same contour, node rules and stopping test; each ray solves its own
    resolvents in chunks of _NODE_CHUNK and adds c_k R_k to its sum one
    node at a time, so the result is the one holomorphic_calculus must
    reproduce bit for bit on an operator without an eigenbasis, and
    within roundoff on one with an eigenbasis.
    """
    return _contour_calculus(A, f, _dense_ray_sum, lambda op, total: total)


def _eigenvalue_ray_sum(op, z, c):
    lam = op.eigenvalues
    acc = np.zeros_like(lam)
    for zk, ck in zip(z, c):
        acc += ck * (1.0 / (zk - lam)) * lam**0.0
    return acc


def per_node_eigenvalue_calculus(A, f) -> np.ndarray:
    """operators.holomorphic_calculus on an operator with an eigenbasis,
    one node at a time.

    Same contour, node rules and stopping test; each ray adds
    c_k / (z_k - lambda) * lambda^0, the resolvent row of
    operators._samples, to its (n,) sum one node at a time, and the
    combined sum is mapped through the eigenbasis once per node count,
    so the result is the one holomorphic_calculus must reproduce bit
    for bit.
    """
    return _contour_calculus(
        A, f, _eigenvalue_ray_sum,
        lambda op, total: _eig_apply_stack(op.eigenbasis, total[None])[0],
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


def per_trial_paley_littlewood(A, p, trials=100, seed=0, signs=True):
    """(xs, first, square) of suite.paley_littlewood_check, one trial at a
    time: the unit x's as rows, the first Rademacher moments
    E||sum_n eps_n psi_n(A) x||_p / ||x||_p as rbound.rademacher_norm
    takes them, and the square-function ratios by rbound.square_sum_norm,
    each image psi_n(A) x formed one block at a time.

    With signs=True this is the loop the suite ran before it computed
    square functions: beyond EXACT_LIMIT blocks it draws SAMPLES Monte
    Carlo signs from the generator of the x's, so only on at most 12
    blocks are the x's those of the suite.  With signs=False no moment is
    taken (first is None) and the x's are the suite's at any size.
    """
    op = sectorial(A)
    lam = op.eigenvalues.real
    lo, hi = op.spectral_bounds()
    windows = _unit_bumps(np.log2(lam), math.floor(math.log2(lo)), math.ceil(math.log2(hi)))
    windows = windows[np.max(np.abs(windows), axis=1) >= 1e-14]
    blocks = _eig_apply_stack(op.eigenbasis, windows)
    K = len(blocks)
    gen = np.random.default_rng(seed)
    xs, first, square = [], [], []
    for _ in range(trials):
        x = gen.standard_normal(op.dim) + 1j * gen.standard_normal(op.dim)
        x /= _kernels.row_norms(x[None], p)[0]
        X = np.stack([B @ x for B in blocks])
        if signs and K <= EXACT_LIMIT:
            first.append(_kernels.enum_mean_norm(X, p))
        elif signs:
            first.append(_kernels.mc_mean_norm(X, p, _kernels.random_signs(gen, SAMPLES, K))[0])
        square.append(square_sum_norm(X, p))
        xs.append(x)
    return np.array(xs), (np.array(first) if signs else None), np.array(square)


def corpus_grid() -> np.ndarray:
    """The transform grid [-BIP_T, BIP_T] at step CORPUS_DT, built by
    arange instead of the linspace of operators.family_samples."""
    return np.arange(-ops.BIP_T, ops.BIP_T + CORPUS_DT / 2.0, CORPUS_DT)


def per_member_corpus(A, alpha: float, size: int = 200, seed: int = 0):
    """suite.multiplier_corpus built one member at a time on corpus_grid,
    with one complex exp per member and grid point and the ball norms
    taken from the moduli of the complex members.

    Draws the same centers and widths in the same order, so the two
    builds agree entry by entry within the rounding bound of the
    multiplier_corpus docstring.
    """
    op = ops.sectorial(A)
    if size < 1:
        raise DomainError("corpus size must be positive")
    gen = np.random.default_rng(seed)
    t = corpus_grid()
    w = trapezoid_weights(len(t), CORPUS_DT)
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
    return C / norms[:, None]


def per_eigenvalue_wave_mellin(A, t_grid, alpha: float, m: int):
    """operators.wave_mellin with one quadrature loop per eigenvalue,
    its bitwise reference.

    Both sides of the wave-to-imaginary-powers Mellin identity.

    lhs(t) = int_0^inf s^{(1/2-alpha)+it} (e^{-isA} - 1)^m ds/s
    rhs(t) = h(t) A^{alpha-1/2-it}, h from special.h_kernel

    The lhs is computed after rotating the ray by phi = 0.42 into the
    damped quadrant (the arcs vanish for 1/2 < alpha < m + 1/2).
    """
    op = sectorial(A)
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
    lhs = np.empty((len(t_grid), len(lam)), dtype=np.complex128)
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
        lhs[:, j] = pref * (phases @ G) * du
    h = special.h_kernel(t_grid, alpha, m)
    rhs = h[:, None] * np.exp(
        (alpha - 0.5 - 1j * t_grid[:, None]) * np.log(op.eigenvalues[None, :])
    )
    return lhs, rhs


def per_eigenvalue_wave_taylor_mellin(A, t_grid, alpha: float, m: int):
    """operators.wave_taylor_mellin with one quadrature loop per
    eigenvalue, its bitwise reference.

    Both sides of the Mellin identity of the Taylor-regularized wave.

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

    lam = op.eigenvalues.real
    z_t = c + 1j * t_grid
    pref = np.exp(1j * np.pi * z_t / 2.0)
    phases = np.exp(1j * np.outer(t_grid, u))
    base = np.exp(c * u)
    lhs = np.empty((len(t_grid), len(lam)), dtype=np.complex128)
    for j, a in enumerate(lam):
        x = a * np.exp(u)  # rotated |s| axis: e^{isa} -> e^{-x}
        rem = _exp_remainder(-x, m)
        G = base * rem
        lhs[:, j] = pref * (phases @ G) * du
    rhs = (special.gamma(z_t) * pref)[:, None] * np.exp(
        -z_t[:, None] * np.log(op.eigenvalues[None, :])
    )
    return lhs, rhs


def per_eigenvalue_resolvent_bip_mellin(A, beta: float, theta: float, s_grid):
    """operators.resolvent_bip_mellin with the phase table built and
    summed once per eigenvalue, its bitwise reference.

    Both sides of the resolvent-to-imaginary-powers Mellin identity.

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
    e = np.exp(1j * theta)
    lhs = np.empty((len(s_grid), len(lam)), dtype=np.complex128)
    # eigenvalue-wise quadrature of t^{beta+is-1} / (e^{i theta} t + a)
    for j, a in enumerate(lam):
        integ = 1.0 / (e * t + a)
        tpow = t**beta * integ * w  # remaining factor t^{is}
        lhs[:, j] = (
            np.exp(1j * np.outer(s_grid, np.log(t))) @ tpow
        ) * np.exp(1j * theta * beta) * a ** (1.0 - beta)
    rhs = (
        np.pi
        / np.sin(np.pi * (beta + 1j * s_grid))[:, None]
        * np.exp(theta * s_grid)[:, None]
        * np.exp(1j * np.outer(s_grid, np.log(lam)))
    )
    return lhs, rhs


class PartitionOfUnity:
    """The windows one closure at a time, the reference of the window
    stacks spaces._unit_bumps and spaces._frequency_blocks.

    kind "equidistant": windows phi(u - n) on the line, unit spacing;
    kind "dyadic": windows phi(log2 x - n) on (0, inf);
    kind "fourier-dyadic": symmetric frequency blocks: a central window
    around 0 and dyadic annuli at +-[2^{n-1}, 2^{n+1}].  Each window
    evaluates its own ramps, phi(y) = S(y + 1) - S(y).
    """

    def __init__(self, kind: str):
        self.kind = kind

    def _bump(self, y):
        return _ramp_smooth(y + 1.0) - _ramp_smooth(y)

    def window(self, n: int):
        """The n-th window as a callable in the natural coordinate."""
        if self.kind == "equidistant":
            return lambda u: self._bump(np.asarray(u, dtype=float) - n)
        if self.kind == "dyadic":
            return lambda x: self._bump(np.log2(np.asarray(x, dtype=float)) - n)

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
            return list(range(math.floor(math.log2(lo)), math.ceil(math.log2(hi)) + 1))
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


def per_window_hoermander(f: SampledFunction, alpha: float) -> NormResult:
    """spaces.hoermander_norm with one zero-padded FFT per window, each
    padded to its own power of two, its bitwise reference."""
    partition = PartitionOfUnity("equidistant")
    u = f.u
    per_window = {}
    for n in range(int(np.ceil(u[0])) + 1, int(np.floor(u[-1]))):
        wvals = partition.window(n)(u)
        sel = wvals > 0
        piece = wvals[sel] * f.values[sel]
        m = 1 << int(np.ceil(np.log2(len(piece) * 4)))
        buf = np.zeros(m, dtype=np.complex128)
        buf[: len(piece)] = piece
        t = 2.0 * np.pi * np.fft.fftfreq(m, d=f.du)
        fh = np.fft.fft(buf) * f.du
        w = (1.0 + np.abs(t)) ** alpha
        dt = 2.0 * np.pi / (m * f.du)
        per_window[n] = float(np.sqrt(np.sum(np.abs(fh * w) ** 2) * dt / (2.0 * np.pi)))
    vals = list(per_window.values())
    best = max(vals)
    edge_growth = 1.0
    if len(vals) >= 4 and best > 0:
        tiny = 1e-300
        edge_growth = max(vals[0] / max(vals[3], tiny), vals[-1] / max(vals[-4], tiny))
    return NormResult(value=best, divergent=bool(edge_growth > 1.5))


def per_block_besov_value(f: SampledFunction, alpha: float) -> float:
    """The value of spaces.besov_norm with one fourier_transform per
    dyadic block, its bitwise reference:
    sum_n 2^{|n| alpha} sup |(fhat phi_n)^vee|."""
    fh = fourier_transform(f)
    t = fh.u
    pou = PartitionOfUnity("fourier-dyadic")
    blocks = []
    for n in pou.indices_for(float(t[0]), float(t[-1])):
        win = pou.window(n)(t)
        piece_hat = SampledFunction("linear", fh.u0, fh.du, fh.values * win)
        back = fourier_transform(piece_hat)
        sup = float(np.max(np.abs(back.values))) / (2.0 * np.pi)
        blocks.append(2.0 ** (abs(n) * alpha) * sup)
    return float(sum(blocks))


def _two_call_quad(integrand, hi, limit):
    """quad on the real part, then on the imaginary part, over (-inf, hi]:
    the value and summed error estimate, scipy's warnings left as they are."""
    from scipy.integrate import quad

    opts = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": limit}
    re, re_err = quad(lambda u: integrand(u).real, -np.inf, hi, **opts)
    im, im_err = quad(lambda u: integrand(u).imag, -np.inf, hi, **opts)
    return re + 1j * im, abs(re_err) + abs(im_err)


def two_call_wave_kernel_integral(z, m: int):
    """special.wave_kernel_integral with its two quad calls written out,
    its bitwise reference, raising ConvergenceError on the same test."""
    z = complex(z)

    def integrand(u):
        if (m + z.real) * u < -700.0:
            return 0.0 + 0.0j
        if u < -30.0:
            return (-1.0) ** m * np.exp((z + m) * u)
        eu = np.exp(min(u, 700.0))
        return np.exp(z * u) * np.expm1(-eu) ** m

    val, err = _two_call_quad(integrand, np.inf, 400)
    if err > 1e-6 * max(1.0, abs(val)):
        raise ConvergenceError(f"quadrature error estimate {err:.2e} too large")
    return val


def _numpy_cexpm1(w):
    """special._cexpm1 on numpy's complex exp."""
    w = complex(w)
    if abs(w) < 1e-4:
        return w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
    return complex(np.exp(w)) - 1.0


def _two_call_ray_integral(z, m, lam):
    """special._ray_integral_damped with its two quad calls written out;
    it returns the error estimate and tests nothing."""
    S = max(2.0 * np.pi * 40.0 / abs(lam), 50.0 / abs(lam), 1.0)

    def integrand(u):
        if (m + z.real) * u < -700.0:
            return 0.0 + 0.0j
        if u < -30.0:
            return (-lam) ** m * np.exp((z + m) * u)
        return np.exp(z * u) * _numpy_cexpm1(-lam * np.exp(u)) ** m

    val, err = _two_call_quad(integrand, np.log(S), 800)
    tail = math.comb(m, 0) * (-1) ** m * (-(S**z) / z)
    for k in range(1, m + 1):
        c = math.comb(m, k) * (-1) ** (m - k)
        tail += c * special._upper_tail_series(z, k * lam, S)
    return val + tail, err


def two_call_contour_shifted_integral(z, m: int, lam):
    """special.contour_shifted_integral on _two_call_ray_integral, its
    bitwise reference; like the code it replaced, it drops the error
    estimates."""
    z, lam = complex(z), complex(lam)
    if lam.real > 1e-6 * abs(lam):
        return _two_call_ray_integral(z, m, lam)[0]
    eps = np.array([1e-2, 1e-3, 1e-4])
    p = np.array([_two_call_ray_integral(z, m, lam + e * abs(lam))[0] for e in eps])
    for level in range(1, len(eps)):
        for i in range(len(eps) - level):
            p[i] = p[i + 1] + (p[i + 1] - p[i]) * eps[i + level] / (eps[i] - eps[i + level])
    return p[0]


def per_symbol_calculus_apply(A, f: SampledFunction) -> np.ndarray:
    """suite.sobolev_calculus_apply on one operator and one symbol, its
    bitwise reference: f(A), or the CoverageError or ConvergenceError
    raised by the first check that fails.  It builds its own phase table
    e^{i t log lambda_j}, not the transpose of operators._powers."""
    op = sectorial(A)
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
    fh = fourier_transform(SampledFunction("linear", f.u0, f.du, f.values))
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
    return np.tensordot(coef, ops.imaginary_powers(op, t), axes=(0, 0))


def full_series_exp_remainder(w, m):
    """operators._exp_remainder with both branches on every entry and
    all 38 terms of its small-|w| series, its bitwise reference: the
    exp and the Taylor part run on all of w, and the series overwrites
    the |w| < 1/2 entries."""
    w = np.asarray(w)
    out = np.exp(w)
    term = np.ones_like(w)
    acc = term.copy()
    for j in range(1, m + 1):
        term = term * w / j
        acc += term
    direct = out - acc
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


def full_stack_taylor_remainder(A, z, m):
    """The Taylor remainder core e^{izA} - T_m(izA) of operators._samples
    on a defective operator, with expm on every sample and the series
    overwriting the samples with |z| ||A|| < 1/2: its bitwise reference."""
    import scipy.linalg

    I = np.eye(A.shape[0])
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
    return G


def one_line_eigenvalue_samples(op, core, z, scale, power, m=None) -> np.ndarray:
    """The (K, n) table scale_k g(z_k, lambda_j) lambda_j^power of
    operators._samples on an operator with an eigenbasis, each core one
    expression that allocates a new array per operation: its bitwise
    reference."""
    lam = op.eigenvalues
    if core == "bip":
        w = 1j * z
        g = np.ascontiguousarray(np.exp(np.multiply(w[None, :], np.log(lam)[:, None])).T)
    elif core == "resolvent":
        g = 1.0 / (z[:, None] - lam[None, :])
    elif core == "semigroup":
        g = np.exp(-z[:, None] * lam[None, :])
    elif core == "wave":
        g = (np.exp(1j * z[:, None] * lam[None, :]) - 1.0) ** m
    else:
        g = _exp_remainder(1j * z[:, None] * lam[None, :], m)
    return scale[:, None] * g * lam**power


def repeated_grid_arguments(op, family, alpha=1.0, beta=0.5):
    """(points, weights, scale, z) of the 2-D family ("resolvent-2d" or
    "semigroup-2d") of operators.family_samples on op, with every factor
    taken on the repeated (K,) grid, one exp, power, cos or tan per
    sample: the bitwise reference of the grids that take each factor once
    per angle or radius."""
    lo, hi = op.spectral_bounds()
    if family == "resolvent-2d":
        th_abs, w_th = log_grid(1e-2, np.pi, 48)
        w_th = w_th * th_abs
        t, w_t = log_grid(lo * 1e-4, hi * 1e4, 192)
        th, w_th = np.concatenate([th_abs, -th_abs]), np.tile(w_th, 2)
        keep = np.abs(th) > op.omega
        th, w_th = np.repeat(th[keep], 192), np.repeat(w_th[keep], 192)
        t, w_t = np.tile(t, keep.sum()), np.tile(w_t, keep.sum())
        points, weights = np.column_stack([th, t]), w_th * w_t
        return points, weights, np.abs(th) ** (alpha - 0.5) * t**beta, np.exp(1j * th) * t
    x, wx = log_grid(1e-6 / hi, 60.0 / lo, 48)
    psi = np.linspace(-np.pi / 2 + 5e-3, np.pi / 2 - 5e-3, 49)
    wpsi = trapezoid_weights(49, psi[1] - psi[0])
    psi, wpsi = np.repeat(psi, 48), np.repeat(wpsi, 48)
    x, wx = np.tile(x, 49), np.tile(wx, 49)
    v = np.tan(psi)
    points = np.column_stack([x, v * x])
    weights = wx * x * x / np.cos(psi) ** 2 * wpsi
    return points, weights, np.cos(psi) ** alpha * x ** (-0.5), (1.0 + 1j * v) * x


def stack_gram_factor(family):
    """rbound._gram_factor on the family's (K, n, n) stack: the thin SVD
    of the flattened stack, and the mean by tensordot over the samples."""
    N, w = family.matrices, family.weights
    n = N.shape[-1]
    _, s, Wh = np.linalg.svd(np.sqrt(w)[:, None] * N.reshape(len(w), n * n),
                             full_matrices=False)
    return (s[:, None] * Wh).reshape(-1, n, n), np.tensordot(w, N, axes=(0, 0))


def stack_averages(family, h):
    """OperatorFamily.averages on the family's (K, n, n) stack, by
    tensordot over the samples."""
    return np.tensordot(h, family.weights[:, None, None] * family.matrices, axes=(1, 0))


def stack_r_l2_bound(family, p, rng=None):
    """rbound.r_l2_bound's bilinear loop on stack_gram_factor; with the
    two above, the bitwise reference of the one table path on a family
    without an eigenbasis."""
    n = family.dim
    P, mean = stack_gram_factor(family)
    flat = P.reshape(len(P), n * n)
    top = float(np.linalg.eigvalsh(flat @ flat.conj().T)[-1])
    val, x, xp = _alternate(P[None], mean[None], p, _rng(rng))
    return RBoundEstimate(
        lower=float(val[0]),
        upper=_transfer_constant(p, n) * math.sqrt(max(top, 0.0)),
        method="bilinear-power",
        witness={"x": x[0], "x_prime": xp[0]},
    )
