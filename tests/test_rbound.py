"""Randomized sums, R-bound brackets, and weighted family averages."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from speccalc import _kernels, rbound
from speccalc.errors import DomainError, NotSectorialError
from speccalc.grids import log_grid
from speccalc.rbound import (
    OperatorFamily,
    RBoundEstimate,
    _eig_apply_stack,
    _ratio,
    operator_norm,
    r_bound,
    r_l1_vs_rbound,
    r_l2_bound,
    rademacher_norm,
    square_sum_norm,
)

from oracles import per_matrix_operator_norm, sequential_witness_search


def random_family(n, K, seed):
    gen = np.random.default_rng(seed)
    N = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
    return OperatorFamily("random", np.arange(K), gen.uniform(0.1, 1.0, K), N, "dt")


def serial_r_l2_bound(family, gen):
    """(lower, upper, x, x') of the l2 bilinear power iteration, run one
    start after another with one unstacked product per half step on the
    Gram factor P of the family; upper comes from the full (n^2, n^2)
    Gram of the family itself, an oracle independent of the factor."""
    N, w = family.matrices, family.weights
    K, n, _ = N.shape
    V = N.reshape(K, n * n)
    gram = (V.conj() * w[:, None]).T @ V
    P = rbound._gram_factor(family)[0]
    m = len(P)

    def sum_outer(M, v):
        y = (M @ v).reshape(m, n)
        return y.T @ y.conj()

    def G(xp):
        return sum_outer(P.conj().transpose(0, 2, 1).reshape(m * n, n), xp)

    def H(x):
        return sum_outer(P.reshape(m * n, n), x)

    def top(M):
        vals, vecs = np.linalg.eigh(M)
        return vals[-1], vecs[:, -1]

    starts = [np.eye(n, dtype=np.complex128)[0]]
    starts.append(np.linalg.svd(np.tensordot(w, N, axes=(0, 0)))[0][:, 0])
    for _ in range(8):
        v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        starts.append(v / np.linalg.norm(v))

    best, bx, bxp = 0.0, None, None
    for xp in starts:
        val = 0.0
        for _ in range(80):
            _, x = top(G(xp))
            v2, xp = top(H(x))
            if v2 <= val * (1.0 + 1e-12):
                val = max(val, v2)
                break
            val = v2
        if val > best:
            best, bx, bxp = val, x, xp
    upper = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(best), math.sqrt(upper), bx, bxp


def decay_family(n=2, lo=1e-8, hi=1e3, K=1024):
    """sqrt(t) e^{-t} I with ds/t weights; square average 1/sqrt(2)."""
    ts, w = log_grid(lo, hi, K)
    mats = (np.sqrt(ts) * np.exp(-ts))[:, None, None] * np.eye(n)[None, :, :]
    return OperatorFamily("decay", ts, w, mats, "dt/t")


class TestRademacherSums:
    def test_exact_enumeration_two_vectors(self):
        # || eps1 (1,1) + eps2 (1,-1) ||_1 = 4 for every sign choice... no:
        # (+,+) -> (2,0), (+,-) -> (0,2), each l1 norm 2; mean is 2
        X = np.array([[1.0, 1.0], [1.0, -1.0]])
        mean, stderr = rademacher_norm(X, 1.0)
        assert stderr == 0.0
        assert mean == pytest.approx(2.0)

    def test_monte_carlo_agrees_with_enumeration(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        exact_mean, exact_err = rademacher_norm(X, 1.0)
        assert exact_err == 0.0
        monkeypatch.setattr(rbound, "EXACT_LIMIT", 2)
        monkeypatch.setattr(rbound, "SAMPLES", 20000)
        mc_mean, mc_err = rademacher_norm(X, 1.0)
        assert mc_err > 0.0
        assert abs(mc_mean - exact_mean) < 5 * max(mc_err, 1e-3 * exact_mean)

    def test_first_moment_below_square_function_moment(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 5))
        for p in (1.0, 2.0, np.inf):
            first, _ = rademacher_norm(X, p)
            # on ell^2 the second moment is exactly the square function
            if p == 2.0:
                assert first <= square_sum_norm(X, p) * (1 + 1e-12)

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_enumeration_matches_brute_force(self, p, K):
        rng = np.random.default_rng(K)
        X = rng.standard_normal((3, K, 3)) + 1j * rng.standard_normal((3, K, 3))
        T = rng.standard_normal((3, K, 3, 3)) + 1j * rng.standard_normal((3, K, 3, 3))
        patterns = [np.array(eps) for eps in itertools.product((-1.0, 1.0), repeat=K)]
        # the witness ratios over the half enumeration r_bound uses for
        # K <= 14, three tuples scored in one call
        signs = _kernels.sign_rows(K, 0, 1 << (K - 1))
        got = _ratio(T, X, p, signs)
        assert got.shape == (3,)
        for g in range(3):
            TX = np.einsum("kij,kj->ki", T[g], X[g])
            norms = np.array([_kernels.row_norms((eps @ X[g])[None], p)[0] for eps in patterns])
            images = np.array([_kernels.row_norms((eps @ TX)[None], p)[0] for eps in patterns])
            assert _kernels.enum_mean_norm(X[g], p) == pytest.approx(norms.mean(), rel=1e-12)
            want = math.sqrt(np.mean(images**2) / np.mean(norms**2))
            assert got[g] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K, n, S", [(1, 1, 5), (3, 4, 64), (20, 4, 2048)])
    def test_real_view_product_is_the_complex_product(self, K, n, S):
        # signs @ Z through the float64 view equals the complex GEMM of the
        # batch cast to complex
        rng = np.random.default_rng(K)
        Z = rng.standard_normal((K, 2 * n)) + 1j * rng.standard_normal((K, 2 * n))
        signs = _kernels.random_signs(rng, S, K)
        got = (signs @ Z.view(np.float64)).view(np.complex128)
        want = signs.astype(np.complex128) @ Z
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_sup_norm_takes_the_largest_entry(self, monkeypatch):
        # every sign sum is (+-3, +-4), whose sup norm is 4
        X = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert rademacher_norm(X, np.inf) == (4.0, 0.0)
        monkeypatch.setattr(rbound, "EXACT_LIMIT", 0)
        monkeypatch.setattr(rbound, "SAMPLES", 64)
        assert rademacher_norm(X, np.inf) == (4.0, 0.0)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (2048, 70), (33, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_random_signs_match_the_threshold_reference(self, seed, shape):
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kernels.random_signs(gen, *shape)
        want = np.where(ref.random(shape) < 0.5, -1.0, 1.0)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_random_signs_split_at_one_half(self):
        class Fixed:
            def random(self, shape):
                return np.array([0.0, 0.25, 0.5 - 2.0**-54, 0.5, 0.75, 1.0 - 2.0**-53])

        got = _kernels.random_signs(Fixed(), 1, 6)
        assert got.tolist() == [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]

    def test_shape_guards(self):
        with pytest.raises(DomainError):
            rademacher_norm(np.ones((2, 3, 4)), 2.0)

    @pytest.mark.parametrize("p", [300.0, 700.0, 5000.0])
    @pytest.mark.parametrize("c", [1e-300, 1e-3, 1e200])
    def test_large_p_norms_neither_underflow_nor_overflow(self, p, c):
        # ||(c, c, c, c)||_p = c 4^{1/p}; |c|^p alone leaves the float range
        Y = np.array([[c] * 4, [1j * c, 0.0, 0.0, c / 2.0], [0.0] * 4])
        got = _kernels.row_norms(Y, p)
        assert got[0] == pytest.approx(c * 4.0 ** (1.0 / p), rel=1e-14)
        assert got[1] == pytest.approx(c * (1.0 + 2.0**-p) ** (1.0 / p), rel=1e-14)
        assert got[2] == 0.0


class TestOperatorNorm:
    def test_closed_forms(self):
        T = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert operator_norm(T, 1.0) == pytest.approx(4.0)  # max column sum
        assert operator_norm(T, np.inf) == pytest.approx(3.5)  # max row sum
        assert operator_norm(T, 2.0) == pytest.approx(np.linalg.norm(T, 2))

    def test_general_p_bracketed_by_interpolation(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((4, 4))
        v3 = operator_norm(T, 3.0)
        # Riesz-Thorin: ||T||_3 <= ||T||_2^{2/3} ||T||_inf^{1/3}
        bound = operator_norm(T, 2.0) ** (2 / 3) * operator_norm(T, np.inf) ** (1 / 3)
        assert v3 <= bound * (1 + 1e-8)
        # and the ascent must at least reach the diagonal witness
        assert v3 >= abs(T).max() * 0.99

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_stack_matches_one_matrix_at_a_time(self, p):
        rng = np.random.default_rng(8)
        mats = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        stack = operator_norm(mats, p)
        assert stack.shape == (5,)
        assert stack.tolist() == [operator_norm(T, p) for T in mats]

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 5.0])
    def test_general_p_reaches_boyd_ascent(self, p):
        # the bilinear value is never below a plain power ascent on ||Tx||_p
        # by more than its stop rule (1e-12 relative on the squared value)
        # leaves on a slowly converging ascent
        q = p / (p - 1.0)
        rng = np.random.default_rng(int(4 * p))
        for n in (1, 2, 3, 5, 8):
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            best = 0.0
            for _ in range(4):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(200):
                    x /= np.linalg.norm(x, p)
                    y = T @ x
                    g = T.conj().T @ (np.abs(y) ** (p - 1.0) * np.exp(1j * np.angle(y)))
                    x = np.abs(g) ** (q - 1.0) * np.exp(1j * np.angle(g))
                x /= np.linalg.norm(x, p)
                best = max(best, float(np.linalg.norm(T @ x, p)))
            assert operator_norm(T, p) >= best * (1.0 - 1e-9)
            # a value of the norm: never above the Riesz-Thorin bound
            ip = 1.0 / p
            assert operator_norm(T, p) <= (
                operator_norm(T, 1.0) ** ip * operator_norm(T, np.inf) ** (1 - ip)
            ) * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("K", [1, 2, 66, 200])
    def test_stack_matches_the_per_matrix_oracle(self, K, n, p):
        # one batch over the whole stack reproduces one r_l2_bound call per
        # matrix bit for bit
        gen = np.random.default_rng(100 * K + n)
        T = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        assert np.array_equal(operator_norm(T, p), per_matrix_operator_norm(T, p))
        assert operator_norm(T[0], p) == per_matrix_operator_norm(T[0], p)

    def test_general_p_makes_no_r_l2_bound_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator_norm called r_l2_bound")

        gen = np.random.default_rng(3)
        T = gen.standard_normal((5, 4, 4)) + 1j * gen.standard_normal((5, 4, 4))
        want = per_matrix_operator_norm(T, 3.0)
        monkeypatch.setattr(rbound, "r_l2_bound", refuse)
        assert np.array_equal(operator_norm(T, 3.0), want)

    def test_stack_memory_stays_bounded(self):
        # 200 matrices x 10 starts advance together; their per-start maps
        # and forms stay a few MB each
        gen = np.random.default_rng(16)
        T = gen.standard_normal((200, 16, 16)) + 1j * gen.standard_normal((200, 16, 16))
        tracemalloc.start()
        try:
            norms = operator_norm(T, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norms.shape == (200,) and np.all(norms > 0)
        assert peak < 32e6, peak


class TestRBound:
    def test_hilbert_case_is_exact(self):
        mats = [np.diag([1.0, 2.0]), np.array([[0.0, 3.0], [0.0, 0.0]])]
        est = r_bound(mats, 2.0)
        assert est.method == "hilbert-exact"
        assert est.lower == est.upper == pytest.approx(3.0)
        assert est.witness["operator"] == 1

    def test_sign_pair_on_l1(self):
        # {I, diag(1,-1)} on ell^1_2: the pair witness x1=(1,1), x2=(1,-1)
        # forces sqrt(2), and the l2 transfer matches it exactly
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        est = r_bound(mats, 1.0, rng=np.random.default_rng(0))
        assert est.upper == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert est.lower <= est.upper + 1e-12
        assert est.lower >= 1.0  # singleton witness
        # the explicit witness tuple achieves sqrt(2): check via the
        # definition E||sum eps T_j x_j||_1^2 = 8, E||sum eps x_j||_1^2 = 4
        assert est.lower >= 1.15  # the search should get most of the way

    def test_singleton_family(self):
        est = r_bound(np.diag([2.0, 1.0]), 1.0)
        assert est.lower >= 2.0 - 1e-12
        assert est.upper >= est.lower

    def test_l1_ball_bracket(self):
        rng = np.random.default_rng(4)
        mats = []
        for _ in range(3):
            Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mats.append((Z + Z.conj().T) / 2.0)
        for p in (2.0, 1.0):
            R, RL1 = r_l1_vs_rbound(mats, p, rng=rng)
            assert isinstance(R, RBoundEstimate) and isinstance(RL1, RBoundEstimate)
            # structural: vertices sit inside the ball, ball within 2x
            assert R.lower <= RL1.lower * 1.05
            assert RL1.lower <= 2.0 * R.lower * 1.05

    def test_upper_end_reads_no_general_p_norm(self, monkeypatch):
        # the upper end interpolates the closed forms: zeroing the norms
        # the ascent returns at p = 3 leaves it where it was
        rng = np.random.default_rng(12)
        mats = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        before = r_bound(mats, 3.0, rng=np.random.default_rng(0)).upper
        norm = rbound.operator_norm

        def closed_forms_only(T, p):
            return norm(T, p) if p in (1.0, 2.0, np.inf) else 0.0 * norm(T, 1.0)

        monkeypatch.setattr(rbound, "operator_norm", closed_forms_only)
        after = r_bound(mats, 3.0, rng=np.random.default_rng(0)).upper
        assert after == before
        ip = 1.0 / 3.0
        interpolated = norm(mats, 1.0) ** ip * norm(mats, np.inf) ** (1 - ip)
        transfer = 3.0 ** (0.5 - ip) * norm(mats, 2.0).max()
        assert before == pytest.approx(min(interpolated.sum(), transfer), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    @pytest.mark.parametrize("K", [1, 3, 20])
    def test_proven_ends_never_cross(self, K, p):
        rng = np.random.default_rng(K)
        mats = rng.standard_normal((K, 3, 3)) + 1j * rng.standard_normal((K, 3, 3))
        est = r_bound(mats, p, rng=rng)
        assert est.violation is None
        assert est.lower >= operator_norm(mats, p).max()

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_scalar_families_are_exact(self, p):
        # on C^1 every ell^p norm is |x|, so R = max_j |t_j| with lower ==
        # upper: no roundoff can invert the bracket
        gen = np.random.default_rng(int(10 * min(p, 9.0)))
        for _ in range(2000):
            K = int(gen.integers(1, 5))
            t = gen.standard_normal(K) + 1j * gen.standard_normal(K)
            est = r_bound(t[:, None, None], p, rng=gen)
            assert est.method == "hilbert-exact" and est.violation is None
            assert est.lower == est.upper == pytest.approx(np.abs(t).max(), rel=1e-15)

    def test_inverted_bracket_is_reported_unclamped(self, monkeypatch):
        # a transfer constant far too small drives the proven upper end
        # below the singleton witness; both ends are reported as they are
        monkeypatch.setattr(rbound, "_transfer_constant", lambda p, n: 1e-6)
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        est = r_bound(mats, 1.0, rng=np.random.default_rng(0))
        assert est.upper == pytest.approx(1e-6) and est.lower >= 1.0
        assert est.violation == {"lower": est.lower, "proven_upper": est.upper}

    def test_l1_ball_lift_keeps_the_proven_upper_end(self, monkeypatch):
        # R's witness lifts R_L1's lower end only: an inverted R_L1 stays
        # inverted instead of being raised to the lifted lower end
        monkeypatch.setattr(rbound, "_transfer_constant", lambda p, n: 1e-6)
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        R, RL1 = r_l1_vs_rbound(mats, 1.0, rng=np.random.default_rng(0))
        assert RL1.lower >= R.lower
        assert RL1.upper == pytest.approx(1e-6)
        assert RL1.violation == {"lower": RL1.lower, "proven_upper": RL1.upper}

    @staticmethod
    def _record_search(monkeypatch):
        """Record every random_signs batch and every _ratio call of r_bound
        as (restarts scored, subset size, sign batch)."""
        batches, evals = [], []
        draw, ratio = _kernels.random_signs, rbound._ratio

        def counted_draw(gen, samples, K):
            batches.append(draw(gen, samples, K))
            return batches[-1]

        def counted_ratio(mats, X, p, signs):
            evals.append((X.shape[0], X.shape[1], signs))
            return ratio(mats, X, p, signs)

        monkeypatch.setattr(_kernels, "random_signs", counted_draw)
        monkeypatch.setattr(rbound, "_ratio", counted_ratio)
        return batches, evals

    def test_large_family_draws_no_signs(self, monkeypatch):
        # K = 20 > 14: no restart picks more than 14 members, none draws a
        # random sign batch, and each size group scores all 61 of its
        # evaluations on one full enumeration of its subfamily
        batches, evals = self._record_search(monkeypatch)
        K, n = 20, 3
        gen = np.random.default_rng(5)
        mats = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        est = r_bound(mats, 1.0, rng=np.random.default_rng(9))
        assert est.lower <= est.upper
        assert batches == []
        assert sum(G for G, _, _ in evals) == 16 * 61
        assert len(evals) % 61 == 0
        for i in range(0, len(evals), 61):
            G, k, first = evals[i]
            assert k <= 14 and first.shape == (1 << (k - 1), k)
            assert all(g == G and s is first for g, _, s in evals[i : i + 61])
        # one group per subset size drawn
        assert len({k for _, k, _ in evals}) == len(evals) // 61

    def test_enumerated_restarts_draw_no_signs(self, monkeypatch):
        batches, evals = self._record_search(monkeypatch)
        K, n = 14, 2
        gen = np.random.default_rng(6)
        mats = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        r_bound(mats, 1.0, rng=np.random.default_rng(0))
        assert batches == []
        assert any(k == K for _, k, _ in evals)
        assert sum(G for G, _, _ in evals) == 16 * 61

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 14, 15, 20, 66])
    def test_search_matches_the_sequential_oracle(self, K, n, p):
        # the lockstep search reproduces the one-restart-at-a-time search
        # bit for bit and leaves the shared generator where it left it
        gen = np.random.default_rng(100 * K + n)
        mats = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        got_gen, want_gen = np.random.default_rng(K), np.random.default_rng(K)
        est = r_bound(mats, p, rng=got_gen)
        lower, witness = sequential_witness_search(mats, p, want_gen)
        ip = 1.0 / p
        interpolated = operator_norm(mats, 1.0) ** ip * operator_norm(mats, np.inf) ** (1 - ip)
        proven = min(
            float(np.sum(interpolated)),
            rbound._transfer_constant(p, n) * float(operator_norm(mats, 2.0).max()),
        )
        assert est.lower == lower
        assert est.upper == proven
        assert est.method == "search+transfer"
        assert est.witness["kind"] == witness["kind"]
        assert est.witness["operator"] == witness["operator"]
        if witness["kind"] == "search":
            assert np.array_equal(est.witness["vectors"], witness["vectors"])
        else:
            assert "vectors" not in est.witness
        assert got_gen.standard_normal() == want_gen.standard_normal()

    def test_search_memory_does_not_grow_with_the_restarts(self, monkeypatch):
        # this generator sends 7 of the 16 restarts to all 14 members, 8192
        # sign rows each; their scores are summed a restart at a time, so
        # the peak stays that of one such restart and not seven
        _, evals = self._record_search(monkeypatch)
        K, n = 14, 16
        gen = np.random.default_rng(45)
        mats = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        tracemalloc.start()
        try:
            est = r_bound(mats, 1.0, rng=np.random.default_rng(45))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.lower <= est.upper
        assert sum(G for G, k, _ in evals if k == K) == 7 * 61
        assert peak < 32e6, peak

    def test_violation_names_an_inverted_bracket(self):
        # an inverted bracket is a value, not an exception: the rows built
        # from the estimate fail on it
        est = RBoundEstimate(lower=2.0, upper=1.0, method="x")
        assert est.violation == {"lower": 2.0, "proven_upper": 1.0}
        assert RBoundEstimate(lower=1.0, upper=1.0, method="x").violation is None
        assert RBoundEstimate(lower=1.0, upper=2.0, method="x").violation is None


class TestAveragedFamilies:
    def test_scalar_decay_value(self):
        est = r_l2_bound(decay_family(), 2.0)
        # int_0^inf t e^{-2t} dt/t = 1/2
        assert est.lower == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)
        assert est.upper >= est.lower * (1 - 1e-12)

    def test_both_ascent_paths_hit_the_exact_value(self):
        # many samples in a small dimension (a factor of n^2 members) and
        # few samples in a larger one (K members) must both reproduce the
        # closed form
        # sqrt(int e^{-2t} t dt/t) = 1/sqrt(2) for sqrt(t) e^{-t} P with
        # a rank-one projection P.
        want = 1.0 / math.sqrt(2.0)
        for n, K in ((2, 512), (6, 64)):
            ts, w = log_grid(1e-8, 1e3, K)
            P = np.zeros((n, n))
            P[0, 0] = 1.0
            prof = np.sqrt(ts) * np.exp(-ts)
            fam = OperatorFamily("p1", ts, w, prof[:, None, None] * P[None], "dt/t")
            got = r_l2_bound(fam, 2.0, rng=np.random.default_rng(1)).lower
            assert got == pytest.approx(want, rel=5e-3), (n, K)

    def test_rank_one_family_witness(self):
        # family of a single projection scaled by the grid function: the
        # optimum is the L2 norm of the scalar profile
        ts, w = log_grid(1e-6, 1e2, 768)
        P = np.array([[1.0, 0.0], [0.0, 0.0]])
        fam = OperatorFamily("proj", ts, w, np.exp(-ts)[:, None, None] * P, "dt/t")
        got = r_l2_bound(fam, 2.0).lower
        want = math.sqrt(float(w @ np.exp(-2.0 * ts)))
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [1.5, 3.0])
    @pytest.mark.parametrize("c, s", [(1.0, 1e-310), (1e-3, 1e-306)])
    def test_ball_step_survives_a_subnormal_gradient_entry(self, c, s, r):
        # M v has a subnormal last entry, whose phase g / |g| overflowed
        # and turned the step into NaN, so the step was lost; the step to
        # the all-ones block, with that entry at (or near) zero, is kept
        M = c * np.diag([1.0, 1.0, 1.0, s]).astype(complex)
        M[:3, :3] = c
        v = np.ones(4, dtype=complex) / 4.0 ** (1.0 / r)
        before = max(float((v.conj() @ M @ v).real), c)  # the old value
        val, u = rbound._ball_top(M[None], v[None], r)
        assert np.all(np.isfinite(u))
        assert val[0] >= before
        assert val[0] == pytest.approx(c * 9.0 / 3.0 ** (2.0 / r), rel=1e-12)
        assert _kernels.row_norms(u[0][None], r)[0] <= 1.0 + 1e-12

    def test_non_hilbert_space_value(self):
        fam = decay_family(n=3, K=256)
        v2 = r_l2_bound(fam, 2.0).lower
        v1 = r_l2_bound(fam, 1.0, rng=np.random.default_rng(2)).lower
        # scalar multiples of the identity: the averaged square function
        # is the same scalar profile in every ell^p
        assert v1 == pytest.approx(v2, rel=0.05)

    @pytest.mark.parametrize(
        "n, K",
        [(2, 8), (3, 18), (4, 40), (6, 100), (2, 7), (3, 17), (5, 30), (6, 64),
         (3, 9), (4, 7), (6, 20)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep_starts_match_serial_starts(self, n, K, seed):
        # the factor has min(K, n^2) members on both sides of K = n^2;
        # the lockstep starts must reproduce every serial start bit for
        # bit, and the upper end the lambda_max of the family's own Gram
        fam = random_family(n, K, seed)
        est = r_l2_bound(fam, 2.0, rng=np.random.default_rng(seed + 7))
        lower, upper, x, xp = serial_r_l2_bound(fam, np.random.default_rng(seed + 7))
        assert est.lower == lower
        assert est.upper == pytest.approx(upper, rel=1e-12)
        assert np.array_equal(est.witness["x"], x)
        assert np.array_equal(est.witness["x_prime"], xp)

    @pytest.mark.parametrize("p, q", [(1.0, np.inf), (1.5, 3.0), (3.0, 1.5), (np.inf, 1.0)])
    @pytest.mark.parametrize("n, K", [(2, 3), (3, 18), (4, 7), (5, 50), (2, 40)])
    def test_lp_witness_is_feasible_and_brackets(self, n, K, p, q):
        # the witness lies in the unit balls of l^p and l^q, reproduces the
        # lower end, and the lower end sits between the best basis pair and
        # the transferred Gram bound
        fam = random_family(n, K, 10 * n + K)
        est = r_l2_bound(fam, p, rng=np.random.default_rng(K))
        x, xp = est.witness["x"], est.witness["x_prime"]
        assert _kernels.row_norms(x[None], p)[0] <= 1.0 + 1e-12
        assert _kernels.row_norms(xp[None], q)[0] <= 1.0 + 1e-12
        pairing = np.einsum("r,krs,s->k", xp.conj(), fam.matrices, x)
        value = math.sqrt(float(fam.weights @ np.abs(pairing) ** 2))
        assert value == pytest.approx(est.lower, rel=1e-9)
        pairs = np.tensordot(fam.weights, np.abs(fam.matrices) ** 2, axes=(0, 0))
        assert math.sqrt(pairs.max()) <= est.lower * (1.0 + 1e-12)
        assert est.lower <= est.upper

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l1_value_matches_a_phase_scan(self, seed):
        # on l^1_2 the sup sits at x = e_i and x' = (1, e^{i phi}), the
        # extreme points of the two balls up to a common phase
        fam = random_family(2, 9, seed)
        N, w = fam.matrices, fam.weights
        phase = np.exp(-1j * np.linspace(0.0, 2.0 * np.pi, 200001))
        scan = max(
            float(np.max(w @ np.abs(N[:, 0, i, None] + phase * N[:, 1, i, None]) ** 2))
            for i in range(2)
        )
        est = r_l2_bound(fam, 1.0, rng=np.random.default_rng(seed))
        assert est.lower == pytest.approx(math.sqrt(scan), rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_short_family_upper_matches_the_gram(self, p):
        # K < n^2: lambda_max comes from the factor's K x K side and must
        # equal the (n^2, n^2) Gram's
        n, K = 6, 5
        fam = random_family(n, K, 3)
        V = fam.matrices.reshape(K, n * n)
        top = np.linalg.eigvalsh((V.conj() * fam.weights[:, None]).T @ V)[-1]
        est = r_l2_bound(fam, p, rng=np.random.default_rng(0))
        want = rbound._transfer_constant(p, n) * math.sqrt(top)
        assert est.upper == pytest.approx(want, rel=1e-12)

    def test_large_dimension_upper_is_exact_below_the_trace(self):
        # n^2 = 4900 with two samples: the factor's 2 x 2 side gives
        # lambda_max = sigma_max(diag(sqrt w) V)^2, below the trace
        n, K = 70, 2
        fam = random_family(n, K, 4)
        U = np.sqrt(fam.weights)[:, None] * fam.matrices.reshape(K, n * n)
        est = r_l2_bound(fam, 2.0, rng=np.random.default_rng(0))
        assert est.upper == pytest.approx(np.linalg.norm(U, 2), rel=1e-12)
        assert est.upper < math.sqrt(np.sum(np.abs(U) ** 2)) * (1 - 1e-3)

    def test_family_validation(self):
        ts, w = log_grid(0.1, 1.0, 16)
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, w, np.ones((16, 2, 3)), "dt/t")
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, w[:-1], np.ones((16, 2, 2)), "dt/t")
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, -w, np.ones((16, 2, 2)), "dt/t")
        basis = (np.eye(2), np.eye(2))
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, w, measure="dt/t", symbols=np.ones((16, 2)))
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, w, np.ones((16, 2, 2)), "dt/t",
                           symbols=np.ones((16, 2)), eigenbasis=basis)
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, w, measure="dt/t", symbols=np.ones((16, 3)),
                           eigenbasis=basis)
        with pytest.raises(DomainError):
            OperatorFamily("bad", ts, w[:-1], measure="dt/t", symbols=np.ones((16, 2)),
                           eigenbasis=basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_family_rejects_non_finite_samples(self, bad):
        ts, w = log_grid(0.1, 1.0, 16)
        mats = np.ones((16, 2, 2), dtype=complex)
        mats[3, 1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            OperatorFamily("bad", ts, w, mats, "dt/t")
        symbols = np.ones((16, 2), dtype=complex)
        symbols[5, 1] = bad * 1j
        with pytest.raises(DomainError, match="finite"):
            OperatorFamily("bad", ts, w, measure="dt/t", symbols=symbols,
                           eigenbasis=(np.eye(2), np.eye(2)))

    def test_family_rejects_an_inverse_of_the_wrong_shape(self):
        ts, w = log_grid(0.1, 1.0, 16)
        for Vinv in (np.eye(3), np.eye(2)[:1], np.eye(2)[0]):
            with pytest.raises(DomainError, match="eigenbasis"):
                OperatorFamily("bad", ts, w, measure="dt/t", symbols=np.ones((16, 2)),
                               eigenbasis=(np.eye(2), Vinv))

    @pytest.mark.parametrize("n, K, J", [(3, 40, 7), (8, 200, 1), (1, 5, 3)])
    def test_average_branches_agree(self, n, K, J):
        # the table's (J, n) averages mapped through the eigenbasis against
        # the same family held as a stack, and against sum_k w_k h_jk N_k
        table = random_table(n, K, n + K, cond=1e3)
        stack = OperatorFamily("stack", table.points, table.weights, table.matrices, "dt")
        gen = np.random.default_rng(J)
        h = gen.standard_normal((J, K)) + 1j * gen.standard_normal((J, K))
        got, want = table.averages(h), stack.averages(h)
        assert got.shape == want.shape == (J, n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        direct = np.einsum("jk,k,kil->jil", h, table.weights, table.matrices)
        assert np.max(np.abs(want - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_the_eigenbasis_helper_needs_an_eigenbasis(self):
        # SectorialOperator.eigenbasis is None on a defective operator
        with pytest.raises(NotSectorialError, match="eigenbasis"):
            _eig_apply_stack(None, np.ones((3, 2)))


def random_table(n, K, seed, cond=10.0):
    """A random eigenvalue table on an eigenbasis with cond(V) = cond."""
    gen = np.random.default_rng(seed)

    def unitary():
        Z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        return np.linalg.qr(Z)[0]

    V = unitary() @ np.diag(np.geomspace(1.0, cond, n)) @ unitary()
    symbols = gen.standard_normal((K, n)) + 1j * gen.standard_normal((K, n))
    return OperatorFamily("table", np.arange(K), gen.uniform(0.1, 1.0, K), measure="dt",
                          symbols=symbols, eigenbasis=(V, np.linalg.inv(V)))


def gram_gap(A, B):
    """||A^H A - B^H B||_F / ||A^H A||_F, without forming either Gram.

    With the QR factorization [A; B]^H = Q R, the difference is
    Q R J R^H Q^H for J = diag(1, ..., 1, -1, ..., -1), whose Frobenius
    norm is that of the small matrix R J R^H; ||A^H A||_F = ||A A^H||_F.
    """
    R = np.linalg.qr(np.vstack([A, B]).conj().T, mode="r")
    J = np.concatenate([np.ones(len(A)), -np.ones(len(B))])
    return np.linalg.norm((R * J) @ R.conj().T) / np.linalg.norm(A @ A.conj().T)


class TestGramFactor:
    """r_l2_bound reads a family only through the m <= min(K, n^2)
    unit-weight matrices P of rbound._gram_factor, which carry its Gram."""

    @pytest.mark.parametrize("form", ["table", "stack"])
    @pytest.mark.parametrize("n, K", [(3, 4), (3, 9), (3, 20), (2, 1), (4, 50), (70, 2)])
    def test_factor_carries_the_gram(self, form, n, K):
        fam = random_table(n, K, n + K) if form == "table" else random_family(n, K, n + K)
        P, mean = rbound._gram_factor(fam)
        assert len(P) <= min(K, n * n)
        if form == "table":
            assert len(P) == min(K, n)
        flat = np.sqrt(fam.weights)[:, None] * fam.matrices.reshape(K, n * n)
        assert gram_gap(flat, P.reshape(len(P), n * n)) <= 1e-12
        want = np.tensordot(fam.weights, fam.matrices, axes=(0, 0))
        assert np.max(np.abs(mean - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("form", ["table", "stack"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_upper_end_holds_against_brute_force(self, n, form, p, seed):
        # random weights over five decades and an ill-conditioned
        # eigenbasis; the grid mixes random directions with near-vertex
        # ones (a high power sharpens |x_i| toward one coordinate) so that
        # the ell^1 ball's extreme points are reached
        K = (1, 3, 12)[seed]
        if form == "table":
            fam = random_table(n, K, 100 + seed, cond=1e3)
        else:
            fam = random_family(n, K, 100 + seed)
        fam.weights[:] = np.geomspace(1e-3, 1e2, K)
        est = r_l2_bound(fam, p, rng=np.random.default_rng(seed))
        gen = np.random.default_rng(7 + seed)

        def sphere(r, count):
            Z = gen.standard_normal((count, n)) + 1j * gen.standard_normal((count, n))
            Z *= np.abs(Z) ** gen.uniform(0.0, 6.0, (count, 1))
            Z = np.vstack([Z, np.eye(n)])
            return Z / _kernels.row_norms(Z, r)[:, None]

        X, XP = sphere(p, 1000), sphere(rbound._conjugate(p), 1000)
        F = sum(wk * np.abs(XP.conj() @ Nk @ X.T) ** 2 for wk, Nk in zip(fam.weights, fam.matrices))
        grid = math.sqrt(float(np.max(F)))
        assert est.lower <= est.upper
        assert grid <= est.upper * (1.0 + 1e-12)
