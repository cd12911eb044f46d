"""Randomized-sum norms and R-bound estimates for matrix families.

Two kinds of object are estimated here.  For a finite set of matrices
acting on ell^p, r_bound brackets the Rademacher bound

    R = sup sqrt( E || sum_j eps_j T_j x_j ||^2 / E || sum_j eps_j x_j ||^2 )

over finite selections and nonzero vector tuples.  On ell^2, and on
C^1 = ell^p_1, the Rademacher sum is orthogonal, the supremum collapses
to the largest operator norm and the bracket is exact.  Elsewhere both
ends are proven: the lower end is the value of a singleton or of a
witness tuple scored on the full sign enumeration of a subfamily of at
most 14 matrices, the upper end the smaller of the sum of the
interpolated closed-form norms and the ell^2 value transferred to ell^p.

For a weighted family of samples N(t_k) of a continuous family,
r_l2_bound brackets the averaged (square function) value

    sup_{||x||_p <= 1, ||x'||_{p'} <= 1} sqrt( sum_k w_k |<N_k x, x'>|^2 ),

the largest ell^p norm of the averages sum_k w_k h_k N_k over the unit
ball of L2(w), by one alternating bilinear iteration for every p: a
feasible witness pair gives the lower end, the flattened Gram bound
times the ell^2 -> ell^p transfer factor the upper end; operator_norm
runs the same iteration on a batch of one-matrix families.  A normal
operator's eigenvalue table on ell^2, and a diagonal one's on every
ell^p, give the value in closed form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import DomainError, NotSectorialError

DEFAULT_SEED = 20240601
# rademacher_norm enumerates up to EXACT_LIMIT vectors (at most 2^11 sign
# rows) and averages SAMPLES random sign rows beyond
EXACT_LIMIT = 12
SAMPLES = 4096


def _rng(rng):
    return np.random.default_rng(DEFAULT_SEED) if rng is None else rng


def _exponent(p) -> float:
    """p as a float, or DomainError unless p >= 1 (nan included): below 1
    the ell^p "norm" is no norm, and nothing computed from it a bound."""
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"the exponent p must be >= 1, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# containers


def _eig_apply_stack(eigenbasis, fvals) -> np.ndarray:
    """Stacked V diag(fvals[k]) V^{-1} for eigenbasis = (V, V^{-1});
    fvals has shape (K, n).

    The one place the package maps eigenvalue samples through an
    eigenbasis.  eigenbasis is None for an operator without a usable one
    (SectorialOperator.eigenbasis), which raises NotSectorialError.
    """
    if eigenbasis is None:
        raise NotSectorialError("no usable eigenbasis")
    V, Vinv = eigenbasis
    return np.einsum("ij,kj,jl->kil", V, fvals, Vinv)


class OperatorFamily:
    """Weighted samples N_k = N(t_k) of an operator family, in one of two forms.

    A stack holds the (K, n, n) samples themselves.  An eigenvalue table
    holds a diagonalizable operator's eigenbasis (V, V^{-1}) and the
    (K, n) table `symbols` with N_k = V diag(symbols[k]) V^{-1}, which
    fixes the family in 1/n of the stack's memory; reading `matrices`
    builds its stack once (_eig_apply_stack).  Pass `matrices` for a
    stack, `symbols` and `eigenbasis` for a table.  A table's `normal`
    records that its operator is normal (operators._samples passes
    SectorialOperator.normal), which lets r_l2_bound read its ell^2
    value off the table; a stack ignores it.

    label names the family in the error a non-finite sample raises;
    points holds the parameter values (K,) or (K, d); weights the
    quadrature weights of the measure named in `measure`.
    """

    def __init__(self, label, points, weights, matrices=None, measure="",
                 diagnostics=None, *, symbols=None, eigenbasis=None, normal=False):
        self.points, self.measure = points, measure
        self.diagnostics = {} if diagnostics is None else diagnostics
        self.weights = np.asarray(weights, dtype=float)
        one_form = (matrices is None) != (symbols is None)
        if not one_form or (symbols is None) != (eigenbasis is None):
            raise DomainError("give either matrices or symbols with their eigenbasis")
        self.normal = bool(normal)
        if matrices is not None:
            self._stack = np.asarray(matrices, dtype=np.complex128)
            self.symbols = self.eigenbasis = None
            shape = self._stack.shape
            if len(shape) != 3 or shape[1] != shape[2]:
                raise DomainError("matrices must be a (K, n, n) stack")
        else:
            self._stack = None
            self.symbols = np.asarray(symbols, dtype=np.complex128)
            self.eigenbasis = eigenbasis
            shape = self.symbols.shape
            if len(shape) != 2 or any(np.shape(M) != (shape[1],) * 2 for M in eigenbasis):
                raise DomainError("symbols must be a (K, n) table on an n x n eigenbasis")
        if not np.all(np.isfinite(self.symbols if self._stack is None else self._stack)):
            raise DomainError(f"family {label!r} has non-finite samples")
        if len(self.weights) != shape[0]:
            raise DomainError("one weight per sample required")
        if np.any(self.weights < 0):
            raise DomainError("weights must be nonnegative")

    @property
    def matrices(self) -> np.ndarray:
        """The (K, n, n) stack, built from a table on first read."""
        if self._stack is None:
            self._stack = _eig_apply_stack(self.eigenbasis, self.symbols)
        return self._stack

    def averages(self, h) -> np.ndarray:
        """The (J, n, n) stack of N_h = sum_k w_k h[j, k] N_k (r_l2_bound's
        N_h), one average per row of the (J, K) coefficients h.

        The weights scale the (K, n) table or the (K, n, n) stack, never
        the coefficients; a table's averages are mapped through the
        eigenbasis once, as the (J, n) table h @ (w f).
        """
        if self.symbols is not None:
            table = h @ (self.weights[:, None] * self.symbols)
            return _eig_apply_stack(self.eigenbasis, table)
        return np.tensordot(h, self.weights[:, None, None] * self.matrices, axes=(1, 0))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return (self._stack if self.symbols is None else self.symbols).shape[-1]


@dataclass
class RBoundEstimate:
    lower: float
    upper: float
    method: str
    witness: dict = field(default_factory=dict)

    @property
    def violation(self):
        """{"lower", "proven_upper"} when the lower end exceeds the upper
        end, which no proven bracket can do; None otherwise.  The ends are
        compared as computed, so an inversion by roundoff counts too.
        Every row built from an estimate fails on it and writes it to its
        extra."""
        if self.lower > self.upper:
            return {"lower": self.lower, "proven_upper": self.upper}
        return None


# ---------------------------------------------------------------------------
# randomized sums of vectors


def rademacher_norm(X, p: float):
    """E || sum_k eps_k X[k] ||_p over independent signs.

    Exact enumeration for K <= EXACT_LIMIT, otherwise Monte Carlo with
    SAMPLES draws from a generator seeded with DEFAULT_SEED.  Returns
    (mean, stderr); stderr is 0.0 for the enumerated case.
    """
    X = np.ascontiguousarray(X, dtype=np.complex128)
    if X.ndim != 2:
        raise DomainError("X must be (K, n)")
    p = _exponent(p)
    K = X.shape[0]
    if K <= EXACT_LIMIT:
        return _kernels.enum_mean_norm(X, p), 0.0
    signs = _kernels.random_signs(_rng(None), SAMPLES, K)
    return _kernels.mc_mean_norm(X, p, signs)


def square_sum_norm(X, p: float):
    """|| (sum_k |X[k]|^2)^{1/2} ||_p, the square function of the rows of
    a (K, n) array; for a (T, K, n) stack, the T norms of X[0], ..., X[T-1]
    in one pass."""
    p = _exponent(p)
    X = np.asarray(X, dtype=np.complex128)
    square = np.sqrt(np.sum(np.abs(X) ** 2, axis=-2))
    norms = _kernels.row_norms(np.atleast_2d(square), p)
    return float(norms[0]) if X.ndim == 2 else norms


# ---------------------------------------------------------------------------
# operator norms on ell^p


def operator_norm(T, p: float):
    """||T||_{p->p} of a matrix, or the norms of a (K, n, n) stack.

    Closed forms for p in {1, 2, inf} (the spectral norms of a stack in
    one batched SVD).  Any other p takes the lower end of r_l2_bound on
    each one-sample family {T_k} with weight 1: the sup of |<T x, x'>|
    over ||x||_p <= 1 and ||x'||_{p'} <= 1 is ||T||_{p->p}, and on this
    rank-one form every dual-map half step is exact, so the alternating
    loop is Boyd's power iteration (Boyd 1974; Higham 1992).  The value
    is that of a feasible pair, a lower end of the norm.  All K families
    run in one batch (_alternate) with the starts of rng=None, so the
    caller's generator is untouched and each norm is bit-equal to the
    r_l2_bound of {T_k} alone.
    """
    T = np.asarray(T, dtype=np.complex128)
    p = _exponent(p)
    if p == 1.0:
        return np.abs(T).sum(axis=-2).max(axis=-1)  # largest column sum
    if np.isinf(p):
        return np.abs(T).sum(axis=-1).max(axis=-1)  # largest row sum
    if p == 2.0:
        return np.linalg.norm(T, 2, axis=(-2, -1))
    n = T.shape[-1]
    stack = T.reshape(-1, n, n)
    # the one-member Gram factors _gram_factor builds at weight 1, in one SVD
    _, s, Wh = np.linalg.svd(stack.reshape(-1, 1, n * n), full_matrices=False)
    P = (s[..., None] * Wh).reshape(-1, 1, n, n)
    norms = _alternate(P, stack, p, _rng(None))[0]
    return norms[0] if T.ndim == 2 else norms


def _conjugate(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1."""
    return math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def _transfer_constant(p: float, n: int) -> float:
    # || id: l2 -> lp || * || id: lp -> l2 || = n^{|1/p - 1/2|}
    ip = 0.0 if np.isinf(p) else 1.0 / p
    return float(n ** abs(ip - 0.5))


# ---------------------------------------------------------------------------
# R-bound of a finite family


def _ratio(mats, X, p, signs) -> np.ndarray:
    """sqrt(E||sum eps T_j x_j||^2 / E||sum eps x_j||^2) of G tuples.

    mats (G, k, n, n) and X (G, k, n) hold one subfamily and one tuple
    per restart; the (G,) result holds each tuple's ratio.  Both averages
    run over the rows of the real (S, k) batch signs.  Each tuple and its
    image form one (k, 2n) complex array Z = [X | T_j x_j]; signs @ Z is
    then one real GEMM against the float64 view of Z (each real and
    imaginary column is linear in the signs), viewed back as complex, so
    the batch is never cast to complex.  The stacked products run one
    restart at a time in the same kernels, so each ratio is bit-equal to
    that of its tuple scored alone.  The GEMM and the norms take the
    restarts in slices of at most 2^13 sign rows in all, the enumeration
    of one 14-member subfamily, so memory does not grow with G.
    """
    G, k, n = X.shape
    Z = np.empty((G, k, 2 * n), dtype=np.complex128)
    Z[..., :n] = X
    Z[..., n:] = np.matmul(mats, X[..., None])[..., 0]
    Z = Z.view(np.float64)
    ratio = np.zeros(G)
    rows = len(signs)
    width = max(1, (1 << 13) // rows)
    for lo in range(0, G, width):
        S = (signs @ Z[lo : lo + width]).view(np.complex128).reshape(-1, 2 * n)
        den = (_kernels.row_norms(S[:, :n], p) ** 2).reshape(-1, rows)
        num = (_kernels.row_norms(S[:, n:], p) ** 2).reshape(-1, rows)
        # np.mean's own arithmetic, without its dispatch
        den = np.add.reduce(den, axis=1) / rows
        num = np.add.reduce(num, axis=1) / rows
        pos = den > 0
        ratio[lo : lo + width][pos] = np.sqrt(num[pos] / den[pos])
    return ratio


def r_bound(mats, p: float, rng=None) -> RBoundEstimate:
    """Bracket the R-bound of a finite matrix family on ell^p.

    On ell^2 the value is exactly max_j ||T_j||_2 (Rademacher sums are
    orthogonal in Hilbert space) and lower == upper, and so on C^1, where
    every ell^p norm is |x|.  Elsewhere both ends are proven.

    Lower end: the best singleton (the one-term sum gives R >= ||T_j||_p,
    and operator_norm returns a value of that norm) or the best tuple of
    a witness search.  The search makes 16 restarts of 60 perturbation
    steps each, a restart on k random members with k drawn from 1, 2,
    min(4, K) and K, whichever are at most 14.  It scores its first tuple
    and every proposal, numerator and denominator alike, on the full
    enumeration of the 2^{k-1} sign patterns with eps_k = +1 (the global
    sign symmetry covers the rest), so each value it keeps is the exact
    ratio of one tuple.  No draw depends on which proposals are kept, so
    the restarts first draw their sizes, subsets, starts and
    perturbations, one restart after another; they then advance in
    lockstep, the restarts of one subset size scored together on one
    enumeration at every step, and each sees the same arithmetic as if it
    ran alone.  The restarts are then read in their drawn order, so the
    witness and the generator's state are those of the sequential search.

    Upper end: min(sum_j ||T_j||_1^{1/p} ||T_j||_inf^{1-1/p},
    n^{|1/p - 1/2|} max_j ||T_j||_2).  For a selection T_{j_1}, ...,
    T_{j_N} (repeats allowed) and vectors x_i, sum_i eps_i T_{j_i} x_i =
    sum_j T_j y_j with y_j the sum of the eps_i x_i over the i with
    j_i = j.  The triangle inequality in L2(ell^p) bounds its norm by
    sum_j ||T_j||_p ||y_j||, and ||y_j|| <= ||sum_i eps_i x_i|| because
    y_j is a conditional expectation of that sum, so R <= sum_j ||T_j||_p.
    Riesz-Thorin bounds each ||T_j||_p by the interpolated closed forms,
    exactly at p in {1, inf}.  The second term passes through ell^2, where
    R is the largest spectral norm, at the cost of _transfer_constant.
    Both ends are reported as they are: should the witness ever lie above
    the proven upper end, the estimate's violation records the inverted
    bracket and the row built from it fails.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim == 2:
        mats = mats[None]
    K, n, _ = mats.shape
    p = _exponent(p)
    norms_2 = operator_norm(mats, 2.0)
    if p == 2.0 or n == 1:
        v = float(norms_2.max())
        return RBoundEstimate(
            lower=v,
            upper=v,
            method="hilbert-exact",
            witness={"operator": int(norms_2.argmax())},
        )

    norms_p = operator_norm(mats, p)
    gen = _rng(rng)
    lower = float(norms_p.max())
    witness = {"operator": int(norms_p.argmax()), "kind": "singleton"}
    sizes = sorted({s for s in (1, 2, min(4, K), K) if s <= min(K, 14)})
    restarts = []
    for _ in range(16):
        k = int(gen.choice(sizes))
        idx = gen.choice(K, size=k, replace=False)
        X = gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n))
        noise = gen.standard_normal((60, 2, k, n))
        restarts.append((k, idx, X, 0.3 * (noise[:, 0] + 1j * noise[:, 1])))
    vals, tuples = [0.0] * 16, [None] * 16
    for k in sizes:
        group = [r for r in range(16) if restarts[r][0] == k]
        if not group:
            continue
        sub = mats[np.stack([restarts[r][1] for r in group])]
        X = np.stack([restarts[r][2] for r in group])
        steps = np.stack([restarts[r][3] for r in group], axis=1)
        signs = _kernels.sign_rows(k, 0, 1 << (k - 1))
        val = _ratio(sub, X, p, signs)
        for step in steps:
            Y = X + step
            cand = _ratio(sub, Y, p, signs)
            keep = cand > val
            val = np.where(keep, cand, val)
            X = np.where(keep[:, None, None], Y, X)
        for r, v, x in zip(group, val, X):
            vals[r], tuples[r] = float(v), x
    for (_, idx, _, _), val, X in zip(restarts, vals, tuples):
        if val > lower:
            lower = val
            witness = {"operator": idx.tolist(), "kind": "search", "vectors": X}

    ip = 1.0 / p
    interpolated = operator_norm(mats, 1.0) ** ip * operator_norm(mats, math.inf) ** (1.0 - ip)
    proven = min(
        float(np.sum(interpolated)),
        _transfer_constant(p, n) * float(norms_2.max()),
    )
    return RBoundEstimate(
        lower=lower,
        upper=proven,
        method="search+transfer",
        witness=witness,
    )


def r_l1_vs_rbound(mats, p: float, rng=None):
    """(R, R_L1): the family's R-bound and that of its l1-average set.

    R_L1 estimates the R-bound of {sum_k f_k T_k : sum_k |f_k| <= 1},
    sampled at the vertices (the family itself, so R <= R_L1 is
    structural) plus 64 random points of the l1 sphere.  The two-point
    contraction gives R_L1 <= 2 R on the other side.  R's lower end,
    when larger, lifts R_L1's lower end; its upper end stays as proven.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim == 2:
        mats = mats[None]
    K = mats.shape[0]
    gen = _rng(rng)
    R = r_bound(mats, p, rng=gen)
    ball = [T for T in mats]
    for _ in range(64):
        f = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        f /= np.sum(np.abs(f))
        ball.append(np.tensordot(f, mats, axes=(0, 0)))
    RL1 = r_bound(np.stack(ball), p, rng=gen)
    # any witness for the vertex subfamily witnesses the ball family too
    if R.lower > RL1.lower:
        RL1 = replace(RL1, lower=R.lower)
    return R, RL1


# ---------------------------------------------------------------------------
# averaged (square function) bound of a weighted family


def _ball_top(M, v, r):
    """Raise the forms u^H M_s u of a PSD stack M over the unit ball of ell^r.

    Returns the values (S,) and the vectors (S, n).  r = 2 takes the top
    eigenvector, r = 1 the coordinate vector e_i of the largest diagonal
    entry: both global maxima, as a convex form peaks at an extreme point
    of the ball (on ell^1, a unimodular multiple of some e_i).  Any other
    r steps from the better of v and that e_i to the point u of the ball
    that maximizes Re <g, u>, g = M v: the dual map
    u_j = phase(g_j) |g_j|^{r'-1} normalized in ell^r (phase(g) for
    r = inf).  By convexity f(u) >= f(v) + 2 Re <g, u - v> >= f(v), and
    v is kept unless u is strictly better, so roundoff cannot lose ground.
    """
    if r == 2.0:
        vals, vecs = np.linalg.eigh(M)
        return vals[:, -1], vecs[:, :, -1]
    S, n, _ = M.shape
    d = np.einsum("sii->si", M).real
    i = d.argmax(axis=1)
    e = np.eye(n, dtype=np.complex128)[i]
    best = d[np.arange(S), i]
    if r == 1.0:
        return best, e

    def form(u):
        # u^H (M u) as stacked matmuls: a lone form rounds like a stack's
        return np.matmul(u.conj()[:, None, :], np.matmul(M, u[:, :, None]))[:, 0, 0].real

    fv = form(v)
    v = np.where((fv >= best)[:, None], v, e)
    fv = np.maximum(fv, best)
    g = np.matmul(M, v[:, :, None])[:, :, 0]
    top = np.abs(g).max(axis=1, keepdims=True)
    top = np.where(top > 0, top, 1.0)
    # phase times |g|^{r'-1}, scaled so that the largest entry is 1: the
    # power cannot overflow.  The scaling divides the real and imaginary
    # parts apart (complex division by a subnormal top overflows), and
    # entries with |g_j| <= tiny * top count as zero: their phase would
    # overflow the same way, and their share of the step is below roundoff
    g = g.real / top + 1j * (g.imag / top)
    a = np.abs(g)
    live = a > np.finfo(float).tiny
    u = np.where(live, g / np.where(live, a, 1.0), 0.0) * a ** (_conjugate(r) - 1.0)
    nrm = _kernels.row_norms(u, r)
    u /= np.where(nrm > 0, nrm, 1.0)[:, None]
    fu = form(u)
    gain = fu > fv
    return np.where(gain, fu, fv), np.where(gain[:, None], u, v)


def _gram_factor(family: OperatorFamily):
    """(P, mean): m <= min(K, n^2) unit-weight matrices with the family's
    Gram, and the weighted mean sum_k w_k N_k.

    Write flat for the (K, n^2) matrix of rows sqrt(w_k) vec(N_k)^T, so
    Gram = sum_k w_k conj(vec N_k) vec(N_k)^T = flat^H flat.  With the thin
    SVD flat = U S W^H, the rows of S W^H give Gram = (S W^H)^H (S W^H),
    and they unflatten to P.  An eigenvalue table N_k = V diag(f_k) V^{-1}
    has vec N_k = B f_k with B[(i, l), j] = V[i, j] V^{-1}[j, l], so flat
    is (sqrt(w) f) B^T; the thin SVD of the (K, n) table sqrt(w_k) f_k^T
    then gives P_c = V diag((S W^H)_c) V^{-1}, min(K, n) members, and the
    (K, n, n) stack is never built.
    """
    w, n = family.weights, family.dim
    root = np.sqrt(w)[:, None]
    if family.symbols is not None:
        _, s, Wh = np.linalg.svd(root * family.symbols, full_matrices=False)
        # the mean's table sum_k w_k f_k rides along as one more row
        rows = np.vstack([s[:, None] * Wh, w @ family.symbols])
        P = _eig_apply_stack(family.eigenbasis, rows)
        return P[:-1], P[-1]
    N = family.matrices
    _, s, Wh = np.linalg.svd(root * N.reshape(len(w), n * n), full_matrices=False)
    return (s[:, None] * Wh).reshape(-1, n, n), np.tensordot(w, N, axes=(0, 0))


def r_l2_bound(family: OperatorFamily, p: float, rng=None) -> RBoundEstimate:
    """Bracket V = sup_h ||N_h||_{p->p}, the averaged value of a family.

    N_h = sum_k w_k h_k N_k runs over the unit ball sum_k w_k |h_k|^2 <= 1
    of L2(w).  Duality in h and in ell^p gives

        V^2 = sup { F(x, x') : ||x||_p <= 1, ||x'||_{p'} <= 1 },
        F(x, x') = sum_k w_k |<N_k x, x'>|^2,

    and V is at most the R-bound of {N_h} on ell^p (on ell^2 the two are
    equal, an R-bound there being the sup of the operator norms).

    F(x, x') = z^H Gram z with z = vec(conj(x') x^T) and the flattened
    Gram = sum_k w_k conj(vec N_k) vec(N_k)^T, so F, and the forms G and
    H below, depend on the family only through Gram.  The bound therefore
    runs on the m <= min(K, n^2) unit-weight matrices P_c of _gram_factor,
    which have the same Gram: the lower end, the witness and the upper end
    are those of the family itself, up to roundoff.

    Lower end: sqrt(F) at the returned witness (x, x'), which lies in the
    two unit balls, so it is a value of the supremum.  It is found by
    alternating half steps.  For fixed x', F is the form x^H G x with
    G = sum_c (P_c^H x')(P_c^H x')^H, and for fixed x it is x'^H H x'
    with H = sum_c (P_c x)(P_c x)^H; each half step raises its form
    over its ball (_ball_top: exact on ell^2 and ell^1, a monotone
    conditional-gradient step otherwise), so F never decreases.  Each
    start runs at most 80 alternations and stops when a step gains less
    than 1e-12 relative; the result is the first start with the largest
    value.  The ten starts for x' are the first unit vector, the top
    left singular vector of sum_k w_k N_k and 8 random vectors.  All ten
    stay because no prefix of them returns the same values: on the Jordan,
    ell^1 and ell^3 runs at seeds 0 and 1, the first two alone lower the
    returned lower end by up to 2.6%, 18.7% and 9.9%, and dropping only
    the last moves some values by up to 6e-9 relative.  Off
    ell^2 the first start is instead e_r of the best basis pair
    (e_i, e_r), the pair that maximizes Gram's diagonal entry
    sum_c |P_c[r, i]|^2, and every start is normalized in ell^{p'}; the
    first half step from e_r reaches at least that pair, so the lower end
    is never below it.  The starts advance in lockstep (_alternate, which
    operator_norm runs on many families), a start leaving the stack when
    it stops, and each sees the same arithmetic as if it ran alone.

    Upper end: for unit x, x' in ell^2 the vector z is a unit vector, so
    V^2 <= lambda_max(Gram) on ell^2; Gram = flat(P)^H flat(P) shares its
    nonzero eigenvalues with the m x m matrix flat(P) flat(P)^H, which
    gives lambda_max.  Passing through ell^2 costs
    ||id: ell^2 -> ell^p|| ||id: ell^p -> ell^2|| = n^{|1/p - 1/2|}
    (_transfer_constant), the factor on the ell^2 bound.

    Closed form (method "spectral"), taken instead of the loop for an
    eigenvalue table N_k = V diag(f_k) V^{-1} whose operator is normal,
    on ell^2, or whose eigenbasis V has one nonzero entry per column, on
    every ell^p; then lower = upper = max_j (sum_k w_k |f_kj|^2)^{1/2}.
    Lower end: for the eigenvector v of column j, N_k v = f_kj v, so the
    pair x = x' = v / ||v|| gives F = sum_k w_k |f_kj|^2; it is a unit
    vector of ell^p and of ell^{p'} (on ell^2 by its scaling, and for a
    one-entry v on every ell^p).  Upper end for normal A on ell^2: take
    a unitary U with N_k = U diag(f_k) U^H (the f_kj depend only on the
    eigenvalue, not on the eigenbasis the table was built on).  Then
    <N_k x, x'> = sum_j f_kj u_j with u = (U^H x) o conj(U^H x'), and
    ||u||_1 <= ||x||_2 ||x'||_2 <= 1 by Cauchy-Schwarz, so
    F = u^H G u with the PSD G = sum_k w_k conj(f_k) f_k^T.  A convex
    form on the ell^1 ball peaks at a vertex, a unimodular multiple of
    some e_j, where it is G_jj = sum_k w_k |f_kj|^2.  For a one-entry-
    per-column V, N_k is the diagonal matrix diag(f_k) with its entries
    permuted, u_j is x_i conj(x'_i) at the matching coordinate i, and
    Hoelder gives ||u||_1 <= ||x||_p ||x'||_{p'} <= 1 on every ell^p;
    the rest is the same.
    """
    n = family.dim
    p = _exponent(p)
    if family.symbols is not None:
        V = family.eigenbasis[0]
        if (family.normal and p == 2.0) or np.count_nonzero(V) == n:
            moduli = np.abs(family.symbols)
            sq = family.weights @ np.square(moduli, out=moduli)
            j = int(np.argmax(sq))
            v = V[:, j] / np.linalg.norm(V[:, j])
            value = math.sqrt(float(sq[j]))
            return RBoundEstimate(lower=value, upper=value, method="spectral",
                                  witness={"x": v, "x_prime": v})
    P, mean = _gram_factor(family)
    flat = P.reshape(len(P), n * n)
    top = float(np.linalg.eigvalsh(flat @ flat.conj().T)[-1])
    val, x, xp = _alternate(P[None], mean[None], p, _rng(rng))
    return RBoundEstimate(
        lower=float(val[0]),
        upper=_transfer_constant(p, n) * math.sqrt(max(top, 0.0)),
        method="bilinear-power",
        witness={"x": x[0], "x_prime": xp[0]},
    )


def _alternate(P, means, p, gen):
    """(values, x, x') of r_l2_bound's loop on B families, given by their
    Gram factors P (B, m, n, n) and means (B, n, n): ten starts each, the
    first two from its own P and mean, the 8 random ones drawn once from
    gen and shared.  Start i belongs to family i // 10; all advance in
    lockstep, and each family returns its first best start.
    """
    B, m, n, _ = P.shape
    q = _conjugate(p)

    # half_step maps a stack of start vectors to their Hermitian forms
    # with one matrix-vector product per start (a stacked matmul on its
    # family's maps, gathered for B > 1), never one product for the whole
    # batch: BLAS rounds a batched product differently with the batch
    # size, and starts drop out as they stop
    maps = (P.conj().transpose(0, 1, 3, 2).reshape(B, m * n, n), P.reshape(B, m * n, n))

    def half_step(M, vs, live):
        Y = np.matmul(M[live // 10] if B > 1 else M[0], vs[:, :, None]).reshape(-1, m, n)
        return np.matmul(Y.transpose(0, 2, 1), Y.conj())

    XP = np.empty((B * 10, n), dtype=np.complex128)
    XP[::10] = np.eye(n)[0]
    XP[1::10] = np.linalg.svd(means)[0][:, :, 0]
    for i in range(2, 10):
        v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        XP[i::10] = v / np.linalg.norm(v)
    if p != 2.0:
        # the row of each family's best basis pair, often the optimum off
        # ell^2 (always, for diagonal families); ell^2 keeps e_0 so that
        # its reported values and witnesses do not move
        pairs = np.sum(np.abs(P) ** 2, axis=1).reshape(B, n * n)
        XP[::10] = np.eye(n)[pairs.argmax(axis=1) // n]
        XP /= _kernels.row_norms(XP, q)[:, None]

    X = np.zeros_like(XP)
    val = np.zeros(len(XP))
    live = np.arange(len(XP))
    for _ in range(80):
        _, x = _ball_top(half_step(maps[0], XP[live], live), X[live], p)
        v2, xp = _ball_top(half_step(maps[1], x, live), XP[live], q)
        X[live], XP[live] = x, xp
        stop = v2 <= val[live] * (1.0 + 1e-12)
        val[live] = np.where(stop, np.maximum(val[live], v2), v2)
        live = live[~stop]
        if not live.size:
            break
    b = 10 * np.arange(B) + val.reshape(B, 10).argmax(axis=1)
    return np.sqrt(np.maximum(val[b], 0.0)), X[b], XP[b]
