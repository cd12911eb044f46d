"""Hot inner loops, vectorized with numpy.

Kernels:
  sign_rows(K, start, stop) rows start..stop-1 of the sign enumeration
  random_signs(gen, S, K)  S independent rows of K fair signs
  row_norms(Y, p)          row-wise l^p norms, p may be inf
  enum_mean_norm(X, p)     exact E||sum_k eps_k X_k||_p over all sign patterns
  mc_mean_norm(X, p, S)    the same average over a precomputed sign batch

rbound.rademacher_norm averages through enum_mean_norm (at most 2^11
sign rows, one batch) and mc_mean_norm over a random_signs batch.  A
run reaches it only through the rbound suite's moment-order row, six
vectors enumerated; the paley-littlewood rows compute square functions
and draw no signs, so no run reaches mc_mean_norm or random_signs.  The
witness search of rbound.r_bound groups its restarts by subset size,
scores each group at every step on one shared full sign_rows
enumeration and does its own products.  row_norms is the one l^p vector
norm of the package.
"""

import numpy as np


def sign_rows(K, start, stop):
    """Rows start..stop-1 of the 2^{K-1} sign patterns with eps_K = +1.

    Row i has eps_k = +1 where bit k of i is set and -1 where it is
    clear (k < K-1); the global sign symmetry of a Rademacher average
    fixes the last sign and halves the enumeration.
    """
    idx = np.arange(start, stop, dtype=np.uint64)
    bits = np.arange(K - 1, dtype=np.uint64)
    signs = np.empty((idx.size, K), dtype=np.float64)
    signs[:, :-1] = (((idx[:, None] >> bits) & 1) * 2.0) - 1.0
    signs[:, -1] = 1.0
    return signs


def random_signs(gen, samples, K):
    """A (samples, K) batch of independent fair signs drawn from gen.

    u < 1/2 maps to -1 and u >= 1/2 to +1, as floor(2u) * 2 - 1 computed
    in place on the uniform draws.
    """
    u = gen.random((samples, K))
    u *= 2.0
    np.floor(u, out=u)
    u *= 2.0
    u -= 1.0
    return u


def row_norms(Y, p):
    """Row-wise l^p norms of a complex matrix; p = inf takes the max.

    Off p in {1, 2, inf} each row is divided by its largest entry before
    the power, so |y|^p neither underflows to 0 nor overflows to inf at
    large p; a zero row stays 0 and a row with an infinite entry inf.
    """
    A = np.abs(Y)
    if p == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", A, A))
    if p == 1.0:
        return A.sum(axis=1)
    if np.isinf(p):
        return A.max(axis=1)
    top = A.max(axis=1)
    scale = np.where((top > 0) & (top < np.inf), top, 1.0)
    return top * ((A / scale[:, None]) ** p).sum(axis=1) ** (1.0 / p)


def enum_mean_norm(X, p):
    X = np.asarray(X, dtype=np.complex128)
    K = X.shape[0]
    M = 1 << (K - 1)
    return float(row_norms(sign_rows(K, 0, M) @ X, float(p)).sum() / M)


def mc_mean_norm(X, p, signs):
    X = np.asarray(X, dtype=np.complex128)
    vals = row_norms(np.asarray(signs, dtype=np.float64) @ X, float(p))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, stderr

