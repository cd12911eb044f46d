"""Randomized-sum norms and R-bound estimates for matrix families.

Two kinds of object are estimated here.  For a finite set of matrices
acting on ell^p, r_bound brackets the Rademacher bound

    R = sup sqrt( E || sum_j eps_j T_j x_j ||^2 / E || sum_j eps_j x_j ||^2 )

over finite selections and nonzero vector tuples.  On ell^2 the
Rademacher sum is orthogonal, the supremum collapses to the largest
operator norm and the bracket is exact.  On other ell^p both ends are
proven: the lower end is the value of a singleton or of a witness tuple
scored on the full sign enumeration of a subfamily of at most 14
matrices, the upper end the smaller of the sum of the interpolated
closed-form norms and the ell^2 value transferred to ell^p.

For a weighted family of samples N(t_k) of a continuous family,
r_l2_bound brackets the averaged (square function) value

    sup_{||x||_p <= 1, ||x'||_{p'} <= 1} sqrt( sum_k w_k |<N_k x, x'>|^2 ),

the largest ell^p norm of the averages sum_k w_k h_k N_k over the unit
ball of L2(w), by one alternating bilinear iteration for every p: a
feasible witness pair gives the lower end, the flattened Gram bound
times the ell^2 -> ell^p transfer factor the upper end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import DomainError

DEFAULT_SEED = 20240601
# rademacher_norm enumerates up to EXACT_LIMIT vectors (at most 2^11 sign
# rows) and averages SAMPLES random sign rows beyond
EXACT_LIMIT = 12
SAMPLES = 4096


def _rng(rng):
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


# ---------------------------------------------------------------------------
# containers


@dataclass
class SpaceSpec:
    """ell^p norm on C^n; p may be inf."""

    p: float
    n: int

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise DomainError("p must be >= 1")
        if self.n < 1:
            raise DomainError("dimension must be positive")

    def vector_norm(self, v) -> float:
        return float(_kernels.row_norms(np.asarray(v)[None], self.p)[0])


def _eig_apply_stack(eigenbasis, fvals) -> np.ndarray:
    """Stacked V diag(fvals[k]) V^{-1} for eigenbasis = (V, V^{-1});
    fvals has shape (K, n)."""
    V, Vinv = eigenbasis
    return np.einsum("ij,kj,jl->kil", V, fvals, Vinv)


class OperatorFamily:
    """Weighted samples N_k = N(t_k) of an operator family, in one of two forms.

    A stack holds the (K, n, n) samples themselves.  An eigenvalue table
    holds a diagonalizable operator's eigenbasis (V, V^{-1}) and the
    (K, n) table `symbols` with N_k = V diag(symbols[k]) V^{-1}, which
    fixes the family in 1/n of the stack's memory; reading `matrices`
    builds its stack once (_eig_apply_stack).  Pass `matrices` for a
    stack, `symbols` and `eigenbasis` for a table.

    points holds the parameter values (K,) or (K, d); weights the
    quadrature weights of the measure named in `measure`.
    """

    def __init__(self, label, points, weights, matrices=None, measure="",
                 diagnostics=None, *, symbols=None, eigenbasis=None):
        self.label, self.points, self.measure = label, points, measure
        self.diagnostics = {} if diagnostics is None else diagnostics
        self.weights = np.asarray(weights, dtype=float)
        one_form = (matrices is None) != (symbols is None)
        if not one_form or (symbols is None) != (eigenbasis is None):
            raise DomainError("give either matrices or symbols with their eigenbasis")
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
            if len(shape) != 2 or eigenbasis[0].shape != (shape[1], shape[1]):
                raise DomainError("symbols must be a (K, n) table on an n x n eigenbasis")
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
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper * (1 + 1e-12):
            raise DomainError("estimate bracket is inverted")


# ---------------------------------------------------------------------------
# randomized sums of vectors


def rademacher_norm(X, space: SpaceSpec, rng=None):
    """E || sum_k eps_k X[k] ||_p over independent signs.

    Exact enumeration for K <= EXACT_LIMIT, otherwise Monte Carlo with
    SAMPLES draws.  Returns (mean, stderr, exact_flag); stderr is 0.0
    for the enumerated case.
    """
    X = np.ascontiguousarray(X, dtype=np.complex128)
    if X.ndim != 2:
        raise DomainError("X must be (K, n)")
    if X.shape[1] != space.n:
        raise DomainError("space dimension does not match the vectors")
    p = float(space.p)
    K = X.shape[0]
    if K <= EXACT_LIMIT:
        return _kernels.enum_mean_norm(X, p), 0.0, True
    signs = _kernels.random_signs(_rng(rng), SAMPLES, K)
    mean, stderr = _kernels.mc_mean_norm(X, p, signs)
    return mean, stderr, False


def square_sum_norm(X, space: SpaceSpec) -> float:
    """|| (sum_k |X[k]|^2)^{1/2} ||_p, the square function of the rows."""
    X = np.asarray(X, dtype=np.complex128)
    if X.shape[1] != space.n:
        raise DomainError("space dimension does not match the vectors")
    return space.vector_norm(np.sqrt(np.sum(np.abs(X) ** 2, axis=0)))


# ---------------------------------------------------------------------------
# operator norms on ell^p


def operator_norm(T, p: float):
    """||T||_{p->p} of a matrix, or the norms of a (K, n, n) stack.

    Closed forms for p in {1, 2, inf} (the spectral norms of a stack in
    one batched SVD).  Any other p takes the lower end of r_l2_bound on
    the one-sample family {T} with weight 1: the sup of |<T x, x'>| over
    ||x||_p <= 1 and ||x'||_{p'} <= 1 is ||T||_{p->p}, and on this
    rank-one form every dual-map half step is exact, so the alternating
    loop is Boyd's power iteration.  The value is that of a feasible
    pair, a lower end of the norm.
    """
    T = np.asarray(T, dtype=np.complex128)
    if p == 1.0:
        return np.abs(T).sum(axis=-2).max(axis=-1)  # largest column sum
    if np.isinf(p):
        return np.abs(T).sum(axis=-1).max(axis=-1)  # largest row sum
    if p == 2.0:
        return np.linalg.norm(T, 2, axis=(-2, -1))
    space = SpaceSpec(p=p, n=T.shape[-1])
    norms = []
    for S in T.reshape(-1, space.n, space.n):
        one = OperatorFamily("T", np.zeros(1), np.ones(1), S[None], "point")
        norms.append(r_l2_bound(one, space).lower)
    return norms[0] if T.ndim == 2 else np.array(norms)


def _conjugate(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1."""
    return math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def _transfer_constant(p: float, n: int) -> float:
    # || id: l2 -> lp || * || id: lp -> l2 || = n^{|1/p - 1/2|}
    ip = 0.0 if np.isinf(p) else 1.0 / p
    return float(n ** abs(ip - 0.5))


# ---------------------------------------------------------------------------
# R-bound of a finite family


def _ratio(mats, X, p, signs) -> float:
    """sqrt(E||sum eps T_j x_j||^2 / E||sum eps x_j||^2) over one sign batch.

    Both averages run over the rows of the real (S, k) batch signs.  The
    tuple and its image form one (k, 2n) complex array Z = [X | T_j x_j];
    signs @ Z is then one real GEMM against the float64 view of Z (each
    real and imaginary column is linear in the signs), viewed back as
    complex, so the batch is never cast to complex.
    """
    k, n = X.shape
    Z = np.empty((k, 2 * n), dtype=np.complex128)
    Z[:, :n] = X
    Z[:, n:] = np.matmul(mats, X[:, :, None])[:, :, 0]
    S = (signs @ Z.view(np.float64)).view(np.complex128)
    den = float(np.mean(_kernels.row_norms(S[:, :n], p) ** 2))
    num = float(np.mean(_kernels.row_norms(S[:, n:], p) ** 2))
    return math.sqrt(num / den) if den > 0 else 0.0


def r_bound(mats, space: SpaceSpec, rng=None) -> RBoundEstimate:
    """Bracket the R-bound of a finite matrix family on ell^p.

    On ell^2 the value is exactly max_j ||T_j||_2 (Rademacher sums are
    orthogonal in Hilbert space) and lower == upper.  Elsewhere both ends
    are proven.

    Lower end: the best singleton (the one-term sum gives R >= ||T_j||_p,
    and operator_norm returns a value of that norm) or the best tuple of
    a witness search.  The search makes 16 restarts of 60 perturbation
    steps each, a restart on k random members with k drawn from 1, 2,
    min(4, K) and K, whichever are at most 14.  It scores its first tuple
    and every proposal, numerator and denominator alike, on the full
    enumeration of the 2^{k-1} sign patterns with eps_k = +1 (the global
    sign symmetry covers the rest), so each value it keeps is the exact
    ratio of one tuple.

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
    Should roundoff lift the witness above that upper end, the reported
    upper is raised to the witness and diagnostics["bracket_violation"]
    records both ends.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim == 2:
        mats = mats[None]
    K, n, _ = mats.shape
    if n != space.n:
        raise DomainError("space dimension does not match the matrices")
    p = float(space.p)
    norms_2 = operator_norm(mats, 2.0)
    if p == 2.0:
        v = float(norms_2.max())
        return RBoundEstimate(
            lower=v,
            upper=v,
            method="hilbert-exact",
            witness={"operator": int(norms_2.argmax())},
            diagnostics={"operator_norms_2": norms_2},
        )

    norms_p = operator_norm(mats, p)
    gen = _rng(rng)
    lower = float(norms_p.max())
    witness = {"operator": int(norms_p.argmax()), "kind": "singleton"}
    sizes = sorted({s for s in (1, 2, min(4, K), K) if s <= min(K, 14)})
    for _ in range(16):
        k = int(gen.choice(sizes))
        idx = gen.choice(K, size=k, replace=False)
        sub = mats[idx]
        X = gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n))
        signs = _kernels.sign_rows(k, 0, 1 << (k - 1))
        val = _ratio(sub, X, p, signs)
        for _ in range(60):
            Y = X + 0.3 * (
                gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n))
            )
            cand = _ratio(sub, Y, p, signs)
            if cand > val:
                val, X = cand, Y
        if val > lower:
            lower = val
            witness = {"operator": idx.tolist(), "kind": "search", "vectors": X}

    ip = 1.0 / p
    interpolated = operator_norm(mats, 1.0) ** ip * operator_norm(mats, math.inf) ** (1.0 - ip)
    proven = min(
        float(np.sum(interpolated)),
        _transfer_constant(p, n) * float(norms_2.max()),
    )
    diagnostics = {"operator_norms_p": norms_p, "operator_norms_2": norms_2}
    if proven < lower:
        # the witness beats the upper end: report the inverted bracket
        # instead of hiding it behind the clamp that keeps lower <= upper
        diagnostics["bracket_violation"] = {"lower": lower, "proven_upper": proven}
    return RBoundEstimate(
        lower=lower,
        upper=max(proven, lower),
        method="search+transfer",
        witness=witness,
        diagnostics=diagnostics,
    )


def r_l1_vs_rbound(mats, space: SpaceSpec, rng=None):
    """(R, R_L1): the family's R-bound and that of its l1-average set.

    R_L1 estimates the R-bound of {sum_k f_k T_k : sum_k |f_k| <= 1},
    sampled at the vertices (the family itself, so R <= R_L1 is
    structural) plus 64 random points of the l1 sphere.  The two-point
    contraction gives R_L1 <= 2 R on the other side.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim == 2:
        mats = mats[None]
    K = mats.shape[0]
    gen = _rng(rng)
    R = r_bound(mats, space, rng=gen)
    ball = [T for T in mats]
    for _ in range(64):
        f = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        f /= np.sum(np.abs(f))
        ball.append(np.tensordot(f, mats, axes=(0, 0)))
    RL1 = r_bound(np.stack(ball), space, rng=gen)
    # any witness for the vertex subfamily witnesses the ball family too
    if R.lower > RL1.lower:
        RL1 = replace(RL1, lower=R.lower, upper=max(RL1.upper, R.lower))
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
        return np.einsum("si,sij,sj->s", u.conj(), M, u).real

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


def _reduce(family: OperatorFamily):
    """(gram, mean, pairs, top): what r_l2_bound reads of a family.

    gram is the flattened (n^2, n^2) Gram sum_k w_k conj(vec N_k) vec(N_k)^T
    where the half steps run on it (K >= 2 n^2, n^2 <= 1024), else None;
    mean = sum_k w_k N_k; pairs[r, i] = sum_k w_k |N_k[r, i]|^2, the
    diagonal of the Gram; top = lambda_max(Gram), or for a stack with
    n^2 and K both above 4096 the trace bound.  r_l2_bound's docstring
    derives the reductions of an eigenvalue table.
    """
    w, K, n = family.weights, len(family), family.dim
    steps = n * n <= 1024 and K >= 2 * n * n
    if family.symbols is not None:
        V, Vinv = family.eigenbasis
        F = family.symbols
        B = (V[:, None, :] * Vinv.T[None, :, :]).reshape(n * n, n)
        C = (F.conj() * w[:, None]).T @ F
        BC = B.conj() @ C
        R = np.linalg.qr(B.conj(), mode="r")
        top = float(np.linalg.eigvalsh(R @ C @ R.conj().T)[-1])
        pairs = np.einsum("aj,aj->a", BC, B).real.reshape(n, n)
        return BC @ B.T if steps else None, (V * (w @ F)) @ Vinv, pairs, top
    N = family.matrices
    flat = N.reshape(K, n * n)
    gram = None
    if steps or n * n <= min(K, 4096):
        gram = (flat.conj() * w[:, None]).T @ flat
    if n * n <= min(K, 4096):
        top = float(np.linalg.eigvalsh(gram)[-1])
    elif K <= 4096:
        # Gram = U^H U with U = diag(sqrt w) flat, and U U^H (K x K) has
        # the same nonzero eigenvalues
        U = np.sqrt(w)[:, None] * flat
        top = float(np.linalg.eigvalsh(U @ U.conj().T)[-1])
    else:
        top = float(w @ np.sum(np.abs(flat) ** 2, axis=1))
    mean = np.tensordot(w, N, axes=(0, 0))
    pairs = np.tensordot(w, np.abs(N) ** 2, axes=(0, 0))
    return gram if steps else None, mean, pairs, top


def r_l2_bound(family: OperatorFamily, space: SpaceSpec, rng=None) -> RBoundEstimate:
    """Bracket V = sup_h ||N_h||_{p->p}, the averaged value of a family.

    N_h = sum_k w_k h_k N_k runs over the unit ball sum_k w_k |h_k|^2 <= 1
    of L2(w).  Duality in h and in ell^p gives

        V^2 = sup { F(x, x') : ||x||_p <= 1, ||x'||_{p'} <= 1 },
        F(x, x') = sum_k w_k |<N_k x, x'>|^2,

    and V is at most the R-bound of {N_h} on ell^p (on ell^2 the two are
    equal, an R-bound there being the sup of the operator norms).

    Lower end: sqrt(F) at the returned witness (x, x'), which lies in the
    two unit balls, so it is a value of the supremum.  It is found by
    alternating half steps.  For fixed x', F is the form x^H G x with
    G = sum_k w_k (N_k^H x')(N_k^H x')^H, and for fixed x it is x'^H H x'
    with H = sum_k w_k (N_k x)(N_k x)^H; each half step raises its form
    over its ball (_ball_top: exact on ell^2 and ell^1, a monotone
    conditional-gradient step otherwise), so F never decreases.  Each
    start runs at most 80 alternations and stops when a step gains less
    than 1e-12 relative; the result is the first start with the largest
    value.  The ten starts for x' are the first unit vector, the top
    left singular vector of sum_k w_k N_k and 8 random vectors.  Off
    ell^2 the first start is instead e_r of the best basis pair
    (e_i, e_r), the pair that maximizes sum_k w_k |N_k[r, i]|^2, and
    every start is normalized in ell^{p'}; the first half step from e_r
    reaches at least that pair, so the lower end is never below it.

    Upper end: for unit x, x' in ell^2, F(x, x') = z^H Gram z with the
    unit vector z = vec(conj(x') x^T) and the flattened Gram matrix
    Gram = sum_k w_k conj(vec N_k) vec(N_k)^T, so V^2 <= lambda_max(Gram)
    on ell^2.  Passing through ell^2 costs
    ||id: ell^2 -> ell^p|| ||id: ell^p -> ell^2|| = n^{|1/p - 1/2|}
    (_transfer_constant), the factor on the ell^2 bound.

    The family enters only through Gram, its weighted mean and the
    diagonal of Gram (_reduce).  A stack takes lambda_max from the
    (n^2, n^2) Gram or from the (K, K) matrix
    [sqrt(w_k w_l) <vec N_l, vec N_k>], which has the same nonzero
    spectrum, whichever is smaller; where both exceed 4096 it is bounded
    by trace(Gram) = sum_k w_k ||N_k||_F^2.  An eigenvalue table with
    N_k = V diag(f_k) V^{-1} never builds the stack.  Its entries
    N_k[i, l] = sum_j V[i, j] f_k[j] V^{-1}[j, l] say vec N_k = B f_k
    with B[(i, l), j] = V[i, j] V^{-1}[j, l], so

        Gram = conj(B) C B^T,    C = sum_k w_k conj(f_k) f_k^T  (n x n),

    one O(K n^2) pass over the table where the stack costs O(K n^4).
    Write conj(B) = QR, Q (n^2 x n) with orthonormal columns; then
    B^T = conj(B)^H = R^H Q^H and Gram = Q (R C R^H) Q^H, and Gram and
    the n x n matrix R C R^H share their nonzero eigenvalues (if
    (R C R^H) y = mu y then Gram (Q y) = mu Q y, and Q^H maps the
    eigenvectors of Gram back), so lambda_max(Gram) = lambda_max(R C R^H)
    exactly, at any n.  The mean is V diag(sum_k w_k f_k) V^{-1}.

    For long families (K >= 2 n^2, n^2 <= 1024) each half step is one
    product with the Gram tensor read as an (n^2, n^2) matrix; shorter
    families form G and H from the samples, which builds the stack of a
    table.  The ten starts advance in lockstep, a start leaving the
    stack when it stops, and each sees the same arithmetic as if it ran
    alone.
    """
    w = family.weights
    K, n = len(family), family.dim
    if space.n != n:
        raise DomainError("space dimension does not match the family")
    p = float(space.p)
    q = _conjugate(p)
    gen = _rng(rng)
    gram, mean, pairs, top = _reduce(family)

    # the objective sum_k w_k |<N_k x, x'>|^2 only sees the family through
    # the (n^2, n^2) Gram tensor, so for long families the K dimension is
    # collapsed once and every iteration runs on the small tensor.
    # half_step maps a stack of start vectors to their Hermitian matrices
    # with one matrix-vector product per start (a stacked matmul), never
    # one product for the whole batch: BLAS rounds a batched product
    # differently with the batch size, and starts drop out as they stop
    if gram is not None:
        T4 = gram.reshape(n, n, n, n)
        # vec G = Px vec(x' x'^H) and vec H = Pxp vec(x x^H)
        maps = (
            T4.transpose(1, 3, 0, 2).reshape(n * n, n * n),
            T4.conj().transpose(0, 2, 1, 3).reshape(n * n, n * n),
        )

        def half_step(P, vs):
            outer = vs[:, :, None] * vs.conj()[:, None, :]
            return np.matmul(P, outer.reshape(-1, n * n, 1)).reshape(-1, n, n)

    else:
        # G = sum_k w_k y_k y_k^H with y_k = N_k^H x', H alike with N_k x
        N = family.matrices
        maps = (N.conj().transpose(0, 2, 1).reshape(K * n, n), N.reshape(K * n, n))

        def half_step(P, vs):
            Y = np.matmul(P, vs[:, :, None]).reshape(-1, K, n)
            return np.matmul((Y * w[:, None]).transpose(0, 2, 1), Y.conj())

    XP = np.empty((10, n), dtype=np.complex128)
    XP[0] = np.eye(n)[0]
    XP[1] = np.linalg.svd(mean)[0][:, 0]
    for i in range(2, 10):
        v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        XP[i] = v / np.linalg.norm(v)
    if p != 2.0:
        # the row of the best basis pair, often the optimum off ell^2
        # (always, for diagonal families); ell^2 keeps e_0 so that its
        # reported values and witnesses do not move
        XP[0] = np.eye(n)[np.unravel_index(np.argmax(pairs), pairs.shape)[0]]
        XP /= _kernels.row_norms(XP, q)[:, None]

    X = np.zeros_like(XP)
    val = np.zeros(len(XP))
    live = np.arange(len(XP))
    for _ in range(80):
        _, x = _ball_top(half_step(maps[0], XP[live]), X[live], p)
        v2, xp = _ball_top(half_step(maps[1], x), XP[live], q)
        X[live], XP[live] = x, xp
        stop = v2 <= val[live] * (1.0 + 1e-12)
        val[live] = np.where(stop, np.maximum(val[live], v2), v2)
        live = live[~stop]
        if not live.size:
            break
    b = int(np.argmax(val))
    return RBoundEstimate(
        lower=math.sqrt(max(float(val[b]), 0.0)),
        upper=_transfer_constant(p, n) * math.sqrt(max(top, 0.0)),
        method="bilinear-power",
        witness={"x": X[b], "x_prime": XP[b]},
    )
