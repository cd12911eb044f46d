"""Randomized sums, R-bound brackets, and weighted family averages."""

import itertools
import math

import numpy as np
import pytest

from speccalc import _kernels, rbound
from speccalc.errors import DomainError
from speccalc.grids import log_grid
from speccalc.rbound import (
    OperatorFamily,
    RBoundEstimate,
    SpaceSpec,
    _ratio,
    operator_norm,
    r_bound,
    r_l1_vs_rbound,
    r_l2_bound,
    rademacher_norm,
    square_sum_norm,
)


def random_family(n, K, seed):
    gen = np.random.default_rng(seed)
    N = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
    return OperatorFamily("random", np.arange(K), gen.uniform(0.1, 1.0, K), N, "dt")


def serial_r_l2_bound(family, gen):
    """(lower, upper, x, x') of the l2 bilinear power iteration, run one
    start after another with one unstacked product per half step."""
    N, w = family.matrices, family.weights
    K, n, _ = N.shape
    V = N.reshape(K, n * n)
    gram = (V.conj() * w[:, None]).T @ V
    if K >= 2 * n * n:
        T4 = gram.reshape(n, n, n, n)
        Px = T4.transpose(1, 3, 0, 2).reshape(n * n, n * n)
        Pxp = T4.conj().transpose(0, 2, 1, 3).reshape(n * n, n * n)

        def G(xp):
            return (Px @ np.outer(xp, xp.conj()).ravel()).reshape(n, n)

        def H(x):
            return (Pxp @ np.outer(x, x.conj()).ravel()).reshape(n, n)

    else:

        def sum_outer(M, v):
            y = (M @ v).reshape(K, n)
            return (y * w[:, None]).T @ y.conj()

        def G(xp):
            return sum_outer(N.conj().transpose(0, 2, 1).reshape(K * n, n), xp)

        def H(x):
            return sum_outer(N.reshape(K * n, n), x)

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
        mean, stderr, exact = rademacher_norm(X, SpaceSpec(p=1.0, n=2))
        assert exact and stderr == 0.0
        assert mean == pytest.approx(2.0)

    def test_monte_carlo_agrees_with_enumeration(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        exact_mean, _, exact = rademacher_norm(X, SpaceSpec(p=1.0, n=4))
        assert exact
        monkeypatch.setattr(rbound, "EXACT_LIMIT", 2)
        monkeypatch.setattr(rbound, "SAMPLES", 20000)
        mc_mean, mc_err, mc_exact = rademacher_norm(
            X, SpaceSpec(p=1.0, n=4), rng=np.random.default_rng(0)
        )
        assert not mc_exact
        assert abs(mc_mean - exact_mean) < 5 * max(mc_err, 1e-3 * exact_mean)

    def test_first_moment_below_square_function_moment(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 5))
        for p in (1.0, 2.0, np.inf):
            space = SpaceSpec(p=p, n=5)
            first, _, _ = rademacher_norm(X, space)
            # on ell^2 the second moment is exactly the square function
            if p == 2.0:
                assert first <= square_sum_norm(X, space) * (1 + 1e-12)

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_enumeration_matches_brute_force(self, p, K):
        rng = np.random.default_rng(K)
        X = rng.standard_normal((K, 3)) + 1j * rng.standard_normal((K, 3))
        T = rng.standard_normal((K, 3, 3)) + 1j * rng.standard_normal((K, 3, 3))
        TX = np.einsum("kij,kj->ki", T, X)
        space = SpaceSpec(p=p, n=3)
        patterns = [np.array(eps) for eps in itertools.product((-1.0, 1.0), repeat=K)]
        norms = np.array([space.vector_norm(eps @ X) for eps in patterns])
        images = np.array([space.vector_norm(eps @ TX) for eps in patterns])
        assert _kernels.enum_mean_norm(X, p) == pytest.approx(norms.mean(), rel=1e-12)
        # the witness ratio over the half enumeration r_bound uses for K <= 14
        signs = _kernels.sign_rows(K, 0, 1 << (K - 1))
        want = math.sqrt(np.mean(images**2) / np.mean(norms**2))
        assert _ratio(T, X, p, signs) == pytest.approx(want, rel=1e-12)

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
        space = SpaceSpec(p=np.inf, n=2)
        assert rademacher_norm(X, space) == (4.0, 0.0, True)
        monkeypatch.setattr(rbound, "EXACT_LIMIT", 0)
        monkeypatch.setattr(rbound, "SAMPLES", 64)
        mean, stderr, exact = rademacher_norm(X, space, rng=0)
        assert not exact
        assert (mean, stderr) == (4.0, 0.0)

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
            rademacher_norm(np.ones((2, 3, 4)), SpaceSpec(p=2.0, n=4))
        with pytest.raises(DomainError):
            rademacher_norm(np.ones((2, 3)), SpaceSpec(p=2.0, n=4))


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


class TestRBound:
    def test_hilbert_case_is_exact(self):
        mats = [np.diag([1.0, 2.0]), np.array([[0.0, 3.0], [0.0, 0.0]])]
        est = r_bound(mats, SpaceSpec(p=2.0, n=2))
        assert est.method == "hilbert-exact"
        assert est.lower == est.upper == pytest.approx(3.0)
        assert est.witness["operator"] == 1

    def test_sign_pair_on_l1(self):
        # {I, diag(1,-1)} on ell^1_2: the pair witness x1=(1,1), x2=(1,-1)
        # forces sqrt(2), and the l2 transfer matches it exactly
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        est = r_bound(mats, SpaceSpec(p=1.0, n=2), rng=np.random.default_rng(0))
        assert est.upper == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert est.lower <= est.upper + 1e-12
        assert est.lower >= 1.0  # singleton witness
        # the explicit witness tuple achieves sqrt(2): check via the
        # definition E||sum eps T_j x_j||_1^2 = 8, E||sum eps x_j||_1^2 = 4
        assert est.lower >= 1.15  # the search should get most of the way

    def test_singleton_family(self):
        est = r_bound(np.diag([2.0, 1.0]), SpaceSpec(p=1.0, n=2))
        assert est.lower >= 2.0 - 1e-12
        assert est.upper >= est.lower

    def test_l1_ball_bracket(self):
        rng = np.random.default_rng(4)
        mats = []
        for _ in range(3):
            Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mats.append((Z + Z.conj().T) / 2.0)
        for p in (2.0, 1.0):
            R, RL1 = r_l1_vs_rbound(mats, SpaceSpec(p=p, n=4), rng=rng)
            assert isinstance(R, RBoundEstimate) and isinstance(RL1, RBoundEstimate)
            # structural: vertices sit inside the ball, ball within 2x
            assert R.lower <= RL1.lower * 1.05
            assert RL1.lower <= 2.0 * R.lower * 1.05

    def test_upper_end_reads_no_general_p_norm(self, monkeypatch):
        # the upper end interpolates the closed forms: zeroing the norms
        # the ascent returns at p = 3 leaves it where it was
        rng = np.random.default_rng(12)
        mats = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        space = SpaceSpec(p=3.0, n=3)
        before = r_bound(mats, space, rng=np.random.default_rng(0)).upper
        norm = rbound.operator_norm

        def closed_forms_only(T, p):
            return norm(T, p) if p in (1.0, 2.0, np.inf) else 0.0 * norm(T, 1.0)

        monkeypatch.setattr(rbound, "operator_norm", closed_forms_only)
        after = r_bound(mats, space, rng=np.random.default_rng(0)).upper
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
        est = r_bound(mats, SpaceSpec(p=p, n=3), rng=rng)
        assert "bracket_violation" not in est.diagnostics
        assert est.lower >= est.diagnostics["operator_norms_p"].max()

    def test_clamped_bracket_is_recorded(self, monkeypatch):
        # a transfer constant far too small drives the proven upper end
        # below the singleton witness; the clamp must leave a trace
        monkeypatch.setattr(rbound, "_transfer_constant", lambda p, n: 1e-6)
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        est = r_bound(mats, SpaceSpec(p=1.0, n=2), rng=np.random.default_rng(0))
        violation = est.diagnostics["bracket_violation"]
        assert violation["lower"] == est.lower == est.upper
        assert violation["proven_upper"] == pytest.approx(1e-6)

    @staticmethod
    def _record_search(monkeypatch):
        """Record every random_signs batch and every _ratio call of r_bound."""
        batches, evals = [], []
        draw, ratio = _kernels.random_signs, rbound._ratio

        def counted_draw(gen, samples, K):
            batches.append(draw(gen, samples, K))
            return batches[-1]

        def counted_ratio(mats, X, p, signs):
            evals.append((X.shape[0], signs))
            return ratio(mats, X, p, signs)

        monkeypatch.setattr(_kernels, "random_signs", counted_draw)
        monkeypatch.setattr(rbound, "_ratio", counted_ratio)
        return batches, evals

    def test_large_family_draws_no_signs(self, monkeypatch):
        # K = 20 > 14: no restart picks more than 14 members, none draws a
        # random sign batch, and each scores all 61 of its evaluations on
        # one full enumeration of its subfamily
        batches, evals = self._record_search(monkeypatch)
        K, n = 20, 3
        gen = np.random.default_rng(5)
        mats = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        est = r_bound(mats, SpaceSpec(p=1.0, n=n), rng=np.random.default_rng(9))
        assert est.lower <= est.upper
        assert batches == []
        assert len(evals) == 16 * 61
        for i in range(0, len(evals), 61):
            k, first = evals[i]
            assert k <= 14 and first.shape == (1 << (k - 1), k)
            assert all(s is first for _, s in evals[i : i + 61])

    def test_enumerated_restarts_draw_no_signs(self, monkeypatch):
        batches, evals = self._record_search(monkeypatch)
        K, n = 14, 2
        gen = np.random.default_rng(6)
        mats = gen.standard_normal((K, n, n)) + 1j * gen.standard_normal((K, n, n))
        r_bound(mats, SpaceSpec(p=1.0, n=n), rng=np.random.default_rng(0))
        assert batches == []
        assert any(k == K for k, _ in evals)

    def test_bracket_never_inverted(self):
        with pytest.raises(DomainError):
            RBoundEstimate(lower=2.0, upper=1.0, method="x")


class TestAveragedFamilies:
    def test_scalar_decay_value(self):
        est = r_l2_bound(decay_family(), SpaceSpec(p=2.0, n=2))
        # int_0^inf t e^{-2t} dt/t = 1/2
        assert est.lower == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)
        assert est.upper >= est.lower * (1 - 1e-12)

    def test_both_ascent_paths_hit_the_exact_value(self):
        # the collapsed Gram tensor kicks in for many samples in a small
        # dimension; few samples in a larger dimension keep the generic
        # per-sample ascent.  Both must reproduce the closed form
        # sqrt(int e^{-2t} t dt/t) = 1/sqrt(2) for sqrt(t) e^{-t} P with
        # a rank-one projection P.
        want = 1.0 / math.sqrt(2.0)
        for n, K in ((2, 512), (6, 64)):  # fast gate: K >= 2 n^2
            ts, w = log_grid(1e-8, 1e3, K)
            P = np.zeros((n, n))
            P[0, 0] = 1.0
            prof = np.sqrt(ts) * np.exp(-ts)
            fam = OperatorFamily("p1", ts, w, prof[:, None, None] * P[None], "dt/t")
            got = r_l2_bound(fam, SpaceSpec(p=2.0, n=n), rng=np.random.default_rng(1)).lower
            assert got == pytest.approx(want, rel=5e-3), (n, K)

    def test_rank_one_family_witness(self):
        # family of a single projection scaled by the grid function: the
        # optimum is the L2 norm of the scalar profile
        ts, w = log_grid(1e-6, 1e2, 768)
        P = np.array([[1.0, 0.0], [0.0, 0.0]])
        fam = OperatorFamily("proj", ts, w, np.exp(-ts)[:, None, None] * P, "dt/t")
        got = r_l2_bound(fam, SpaceSpec(p=2.0, n=2)).lower
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
        assert SpaceSpec(p=r, n=4).vector_norm(u[0]) <= 1.0 + 1e-12

    def test_non_hilbert_space_value(self):
        fam = decay_family(n=3, K=256)
        v2 = r_l2_bound(fam, SpaceSpec(p=2.0, n=3)).lower
        v1 = r_l2_bound(fam, SpaceSpec(p=1.0, n=3), rng=np.random.default_rng(2)).lower
        # scalar multiples of the identity: the averaged square function
        # is the same scalar profile in every ell^p
        assert v1 == pytest.approx(v2, rel=0.05)

    @pytest.mark.parametrize(
        "n, K",
        [(2, 8), (3, 18), (4, 40), (6, 100), (2, 7), (3, 17), (5, 30), (6, 64)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep_starts_match_serial_starts(self, n, K, seed):
        # K >= 2 n^2 takes the Gram-matrix half steps, K < 2 n^2 the
        # direct ones; both must reproduce every start bit for bit
        fam = random_family(n, K, seed)
        est = r_l2_bound(fam, SpaceSpec(p=2.0, n=n), rng=np.random.default_rng(seed + 7))
        lower, upper, x, xp = serial_r_l2_bound(fam, np.random.default_rng(seed + 7))
        assert (est.lower, est.upper) == (lower, upper)
        assert np.array_equal(est.witness["x"], x)
        assert np.array_equal(est.witness["x_prime"], xp)

    @pytest.mark.parametrize("p, q", [(1.0, np.inf), (1.5, 3.0), (3.0, 1.5), (np.inf, 1.0)])
    @pytest.mark.parametrize("n, K", [(2, 3), (3, 18), (4, 7), (5, 50), (2, 40)])
    def test_lp_witness_is_feasible_and_brackets(self, n, K, p, q):
        # the witness lies in the unit balls of l^p and l^q, reproduces the
        # lower end, and the lower end sits between the best basis pair and
        # the transferred Gram bound
        fam = random_family(n, K, 10 * n + K)
        est = r_l2_bound(fam, SpaceSpec(p=p, n=n), rng=np.random.default_rng(K))
        x, xp = est.witness["x"], est.witness["x_prime"]
        assert SpaceSpec(p=p, n=n).vector_norm(x) <= 1.0 + 1e-12
        assert SpaceSpec(p=q, n=n).vector_norm(xp) <= 1.0 + 1e-12
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
        est = r_l2_bound(fam, SpaceSpec(p=1.0, n=2), rng=np.random.default_rng(seed))
        assert est.lower == pytest.approx(math.sqrt(scan), rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_short_family_upper_matches_the_gram(self, p):
        # K < n^2: lambda_max comes from the (K, K) side and must equal the
        # (n^2, n^2) Gram's
        n, K = 6, 5
        fam = random_family(n, K, 3)
        V = fam.matrices.reshape(K, n * n)
        top = np.linalg.eigvalsh((V.conj() * fam.weights[:, None]).T @ V)[-1]
        est = r_l2_bound(fam, SpaceSpec(p=p, n=n), rng=np.random.default_rng(0))
        want = rbound._transfer_constant(p, n) * math.sqrt(top)
        assert est.upper == pytest.approx(want, rel=1e-12)

    def test_large_dimension_upper_is_exact_below_the_trace(self):
        # n^2 > 4096 with few samples: the (K, K) side still gives
        # lambda_max = sigma_max(diag(sqrt w) V)^2, below the trace
        n, K = 70, 2
        fam = random_family(n, K, 4)
        U = np.sqrt(fam.weights)[:, None] * fam.matrices.reshape(K, n * n)
        est = r_l2_bound(fam, SpaceSpec(p=2.0, n=n), rng=np.random.default_rng(0))
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
