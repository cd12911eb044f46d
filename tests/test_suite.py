"""The multiplier-condition suite against scalar closed forms.

Scale invariance of the dt/t averages makes every positive diagonal
reproduce the one-eigenvalue values, so the oracles below are exact
integrals:

    resolvent ray,  beta=1/2:  sqrt((pi - theta) / sin(theta))
    beta sweep at theta=pi/2:  sqrt(pi / (2 sin(pi beta)))
    semigroup ray:             (2 cos(theta))^{-1/2}
    semigroup plane, alpha=1:  sqrt(pi/2)
    wave alpha=1, m=1:         sqrt(2 pi)
    imaginary powers, T=50:    sqrt(pi) (as T -> inf)
"""

import math
import tracemalloc

import numpy as np
import pytest

from speccalc import _kernels, rbound, suite
from speccalc import operators as ops
from speccalc.errors import (
    ConvergenceError,
    CoverageError,
    DomainError,
    NotSectorialError,
)
from speccalc.cli import _grid_stacks
from speccalc.corpus import load_corpus
from speccalc.grids import SampledFunction, trapezoid_weights

from oracles import (
    CORPUS_DT,
    corpus_grid,
    per_member_corpus,
    per_symbol_calculus_apply,
    per_trial_paley_littlewood,
    scale_corpus,
)


@pytest.fixture(scope="module")
def diag124():
    return ops.sectorial(np.diag([1.0, 2.0, 4.0]))


CORPUS_ALPHA = 1.0


@pytest.fixture(scope="module")
def corpus124(diag124):
    return suite.multiplier_corpus(diag124, alpha=CORPUS_ALPHA, size=60, seed=0)


def rho_symbol():
    return SampledFunction.from_callable(
        lambda s: s / (1.0 + s) ** 2, "log", 1e-7, 1e7, 1 << 11, name="rho"
    )


# the six operators of perfbench's many-small workload
MANY_SMALL = [
    "diag:1,2", "diag:1,10,100", "diag:0.2,0.9,4,11,30",
    "diag-logspaced:6", "path-laplacian:8", "cycle-laplacian:6",
]


def _apply_one(A, f):
    """sobolev_calculus_apply on one operator and one symbol: f(A), or
    its error raised."""
    ((out,),) = suite.sobolev_calculus_apply([A], f)
    if isinstance(out, Exception):
        raise out
    return out


def _comparable(out):
    """A matrix as its bytes, an error as its type and text."""
    return (type(out), str(out)) if isinstance(out, Exception) else out.tobytes()


class TestCalculusApply:
    def test_matches_eigen_action(self, diag124):
        f = rho_symbol()
        got = _apply_one(diag124, f)
        want = np.diag(f.eval(np.array([1.0, 2.0, 4.0])))
        assert np.linalg.norm(got - want, 2) < 1e-9

    def test_zero_symbol_shortcut(self, diag124):
        f = SampledFunction.from_callable(
            lambda s: np.zeros_like(np.asarray(s)), "log", 1e-6, 1e6, 1 << 10
        )
        out = _apply_one(diag124, f)
        assert np.all(out == 0)

    def test_undecayed_symbol_is_refused(self, diag124):
        f = SampledFunction.from_callable(
            lambda s: 1.0 / (1.0 + s), "log", 1e-2, 1e2, 64
        )
        with pytest.raises(ConvergenceError):
            _apply_one(diag124, f)

    def test_coverage_guard(self):
        f = SampledFunction.from_callable(lambda s: 1.0 / (1.0 + s), "log", 0.5, 2.0, 16)
        with pytest.raises(CoverageError):
            _apply_one(np.diag([0.1, 10.0]), f)

    def test_coverage_is_reported_before_edge_decay(self):
        # 1/(1+s) on [0.5, 2] neither covers [0.1, 10] nor decays
        f = SampledFunction.from_callable(lambda s: 1.0 / (1.0 + s), "log", 0.5, 2.0, 16)
        with pytest.raises(ConvergenceError, match="grid edges"):
            _apply_one(np.diag([0.6, 1.5]), f)
        with pytest.raises(CoverageError, match=r"\[0\.1, 10\] is needed"):
            _apply_one(np.diag([0.1, 10.0]), f)

    def test_each_row_and_operator_gets_its_own_outcome(self, diag124):
        # a zero row, an undecayed row and a resolvable row on one grid,
        # for an operator the grid covers and one it does not
        rho = SampledFunction.from_callable(
            lambda s: s / (1.0 + s) ** 2, "log", 1e-6, 1e6, 1 << 10)
        x = rho.x
        rows = np.stack([np.zeros_like(x), 1.0 / (1.0 + x), rho.values.real])
        stack = SampledFunction("log", rho.u0, rho.du, rows)
        covered, uncovered = suite.sobolev_calculus_apply(
            [diag124, np.diag([1e-8, 1.0])], stack)
        assert np.all(covered[0] == 0)
        assert isinstance(covered[1], ConvergenceError)
        want = np.diag([1 / 4, 2 / 9, 4 / 25])
        assert np.linalg.norm(covered[2] - want, 2) < 1e-9
        # coverage comes first, even for the zero row
        assert all(isinstance(out, CoverageError) for out in uncovered)

    @pytest.mark.parametrize(
        "spec",
        # the workload operators, three with the eigenvalue 1, whose
        # phase-table entries are the two tables' only difference (the
        # sign of a zero imaginary part), and two more
        ["diag-logspaced:16", *MANY_SMALL, "diag:3", "diag:1", "diag:0.5,1,2",
         "diag:1e-7,1", "jordan:1,3"],
    )
    def test_per_grid_apply_is_bitwise_the_per_symbol_oracle(self, spec):
        op = ops.operator_from_spec(spec)
        for members, stack in _grid_stacks(load_corpus()):
            (outcomes,) = suite.sobolev_calculus_apply([op], stack)
            assert len(outcomes) == len(members)
            for f, got in zip(members, outcomes):
                try:
                    want = per_symbol_calculus_apply(op, f)
                except (ConvergenceError, CoverageError) as err:
                    want = err
                assert _comparable(got) == _comparable(want), (spec, f.name)


class TestCorpus:
    def test_ball_normalization(self, corpus124):
        # every member sits on the sphere of the weighted transform norm
        t = corpus_grid()
        w = (1.0 + t * t) ** (CORPUS_ALPHA / 2.0)
        norms = np.sqrt(np.sum(np.abs(corpus124 * w) ** 2, axis=1) * CORPUS_DT)
        # members that do not vanish at the grid edge differ from the
        # plain Riemann sum by the trapezoid half-weight, about 2e-6 here
        assert np.allclose(norms, 1.0, rtol=1e-5)

    @pytest.mark.parametrize(
        "spec",
        ["diag:1,2", "diag:1,10,100", "path-laplacian:8", "diag-logspaced:16",
         "jordan:1,3"],
    )
    def test_matches_the_per_member_oracle(self, spec):
        # the rounding bound of the multiplier_corpus docstring, with
        # |c_j| <= max(|log lo|, |log hi|) + 1, plus the underflowed
        # gaussian tails (2^-1074 per component in each build)
        op = ops.operator_from_spec(spec)
        lo, hi = op.spectral_bounds()
        c_max = max(abs(math.log(lo)), abs(math.log(hi))) + 1.0
        m = len({round(math.log(a), 9) for a in op.eigenvalues.real}) + 1
        u = np.finfo(float).eps / 2.0
        t, block = corpus_grid(), suite._PHASE_BLOCK * CORPUS_DT
        for seed in (0, 3):
            for alpha in (0.75, 1.0, 1.7):
                for size in sorted({1, m - 1, m, m + 1, 60, 200}):
                    got = suite.multiplier_corpus(op, alpha, size=size, seed=seed)
                    want = per_member_corpus(op, alpha, size=size, seed=seed)
                    assert isinstance(want, np.ndarray)
                    assert got.shape == want.shape == (size, len(t))
                    rel = (2.0 * c_max * (np.abs(t) + block) + len(t) + 32) * u
                    bound = rel * np.abs(want) + 2.0**-1072
                    err = np.abs(got - want)
                    assert np.all(err <= bound), (seed, alpha, size)

    def test_build_memory_stays_bounded(self):
        # the chunked build holds the output and one chunk's temporaries,
        # not a (J, T) complex temporary beside the output
        op = ops.operator_from_spec("diag-logspaced:16")
        tracemalloc.start()
        try:
            corpus = suite.multiplier_corpus(op, 1.0, size=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * corpus.nbytes, peak

    @pytest.mark.parametrize("spec", ["diag:1,10,100", "path-laplacian:8", "jordan:1,3"])
    def test_grid_is_the_c2_grid(self, spec):
        # the bridge c2 / (2 pi c1) needs c1's corpus on the c2 family's
        # grid: the arange grid at step 2^-5 is its linspace, bit for bit
        op = ops.operator_from_spec(spec)
        fam = ops.family_samples(op, "bip")
        assert np.array_equal(corpus_grid(), fam.points)
        assert suite.multiplier_corpus(op, 1.0, size=3).shape == (3, len(fam))

    def test_scaling_is_exact(self, corpus124):
        double = scale_corpus(corpus124, 2.0)
        assert isinstance(double, np.ndarray)
        assert np.array_equal(double, 2.0 * corpus124)


class TestConditionOne:
    def test_closed_form_value_and_witness(self, diag124, corpus124):
        res = suite.condition_c1(diag124, 2.0, corpus124)
        # the peak member is the eigenvalue-centered extremal, whose
        # operator norm is (2 pi)^{-1} || <t>^{-1} ||_{L2[-50, 50]}
        want = math.sqrt(2.0 * math.atan(50.0)) / (2.0 * math.pi)
        assert res.value == pytest.approx(want, rel=1e-4)
        assert res.condition == "c1" and res.passed

    def test_inverted_bracket_fails_the_row(self, diag124, corpus124, monkeypatch):
        clean = suite.condition_c1(diag124, 1.0, corpus124, rng=np.random.default_rng(0))
        assert clean.passed and "bracket_violation" not in clean.extra
        monkeypatch.setattr(rbound, "_transfer_constant", lambda p, n: 1e-6)
        res = suite.condition_c1(diag124, 1.0, corpus124, rng=np.random.default_rng(0))
        assert not res.passed
        violation = res.extra["bracket_violation"]
        assert violation["lower"] == res.value
        assert violation["proven_upper"] == res.extra["upper"] < res.value

    @pytest.mark.parametrize("spec", ["diag:1,10,100", "path-laplacian:8", "jordan:1,3"])
    def test_image_is_the_imaginary_power_average(self, spec, monkeypatch):
        # the stack c1 bounds is (2 pi)^{-1} sum_k w_k fhat_j(t_k) A^{it_k},
        # summed here over the dense A^{it} of every grid point
        op = ops.operator_from_spec(spec)
        corpus = suite.multiplier_corpus(op, 1.0, size=12, seed=0)
        seen = []

        def r_bound(mats, p, rng=None):
            seen.append(mats)
            return rbound.r_bound(mats, p, rng=rng)

        monkeypatch.setattr(suite, "r_bound", r_bound)
        suite.condition_c1(op, 2.0, corpus)
        t = corpus_grid()
        w = trapezoid_weights(len(t), CORPUS_DT)
        want = np.tensordot(corpus * w, ops.imaginary_powers(op, t), axes=(1, 0)) / (2 * np.pi)
        assert np.max(np.abs(seen[0] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_scales_with_radius(self, diag124, corpus124):
        base = suite.condition_c1(diag124, 2.0, corpus124)
        big = suite.condition_c1(diag124, 2.0, scale_corpus(corpus124, 3.0))
        assert big.value == pytest.approx(3.0 * base.value, rel=1e-12)


class TestConditionTable:
    def test_resolvent_ray_closed_forms(self, diag124):
        thetas = (np.pi, np.pi / 2, np.pi / 4)
        rows = suite.condition_c2_to_c8(diag124, 2.0)["c3"]
        got = {r.param: r.value for r in rows if r.param != "exponent"}
        for th in thetas:
            want = math.sqrt((np.pi - th) / math.sin(th)) if th != np.pi else 1.0
            assert got[f"theta={th:.6g}"] == pytest.approx(want, rel=2e-3), th

    def test_semigroup_ray_closed_forms(self, diag124):
        psis = (0.0, np.pi / 4)
        rows = suite.condition_c2_to_c8(diag124, 2.0)["c5"]
        got = {r.param: r.value for r in rows if r.param != "exponent"}
        for ps in psis:
            want = (2.0 * math.cos(ps)) ** -0.5
            assert got[f"theta={ps:.6g}"] == pytest.approx(want, rel=2e-3), ps

    def test_plane_averages_and_wave(self, diag124):
        rows = suite.condition_c2_to_c8(diag124, 2.0)
        c6 = rows["c6"][0].value
        c7 = rows["c7"][0].value
        assert c6 == pytest.approx(math.sqrt(math.pi / 2.0), rel=5e-3)
        assert c7 == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-3)

    def test_bip_value(self, diag124):
        rows = suite.condition_c2_to_c8(diag124, 2.0)
        # int_{-T}^{T} dt / (1 + t^2) -> pi, so the T = 50 average sits
        # just under sqrt(pi)
        val = rows["c2"][0].value
        want = math.sqrt(2.0 * math.atan(50.0))
        assert val == pytest.approx(want, rel=1e-3)


    @pytest.mark.parametrize(
        "spec",
        ["diag:1,2", "diag:1,10,100", "diag:0.2,0.9,4,11,30", "diag-logspaced:6",
         "diag-logspaced:16", "path-laplacian:8", "cycle-laplacian:6"],
    )
    def test_c2_is_the_weight_sum_on_normal_operators(self, spec):
        # |lambda^{it}| = 1 on a positive spectrum, so for a normal operator
        # c2 = (sum_k w_k <t_k>^{-2 alpha})^{1/2} on the bip grid, whatever A
        op = ops.operator_from_spec(spec)
        assert op.normal and np.all(op.eigenvalues.real > 0)
        row = suite.condition_c2_to_c8(op, 2.0)["c2"][0]
        grid = ops.family_samples(op, "bip")
        t, w = grid.points, grid.weights
        want = math.sqrt(float(w @ (1.0 + t * t) ** -1.0))
        assert row.value == pytest.approx(want, rel=1e-12)
        assert row.extra["upper"] == row.value
        assert want == pytest.approx(math.sqrt(2.0 * math.atan(50.0)), rel=1e-6)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the c2 row is the "
                       "[-BIP_T, BIP_T] window's value, 23% below K_2 at alpha = 0.6, "
                       "with lower = upper")
    def test_c2_bracket_contains_the_paper_constant(self):
        # on a normal operator with positive spectrum c2^2 is
        # int <t>^{-2 alpha} dt over all of R = sqrt(pi) Gamma(alpha - 1/2) / Gamma(alpha)
        alpha = 0.6
        op = ops.operator_from_spec("diag-logspaced:16")
        row = suite.condition_c2_to_c8(op, 2.0, alpha=alpha)["c2"][0]
        k2 = math.sqrt(math.sqrt(math.pi) * math.gamma(alpha - 0.5) / math.gamma(alpha))
        assert row.value <= k2 <= row.extra["upper"]


class TestEquivalenceReport:
    def test_diagonal_report_asserts_equivalence(self, diag124):
        rep = suite.equivalence_report(diag124, 2.0, corpus_size=40, seed=0)
        assert rep.flags["diagonalizable"]
        assert rep.flags["all_finite"]
        assert rep.flags["bridge_ok"]
        assert rep.flags["equivalence_asserted"]
        bridge = [r for r in rep.rows if r.condition == "bridge"]
        assert len(bridge) == 1
        assert bridge[0].value == pytest.approx(1.0, rel=1e-6)
        refined = [r for r in rep.rows if r.param == "refined"]
        assert sorted(r.condition for r in refined) == ["c2", "c7"]
        assert all(r.extra["drift"] <= 0.05 for r in refined)

    def test_beta_sweep_closed_form(self, diag124):
        rep = suite.equivalence_report(diag124, 2.0, corpus_size=40, seed=0)
        sweep = {
            r.param: r.value
            for r in rep.rows
            if r.condition == "c3" and r.param.startswith("beta=")
        }
        th = np.pi / 2
        for beta in (0.25, 0.5, 0.75):
            want = math.sqrt(np.pi / (2.0 * math.sin(np.pi * beta)))
            assert sweep[f"beta={beta:g}@theta={th:.6g}"] == pytest.approx(
                want, rel=2e-3
            )

    def test_jordan_report_records_without_asserting(self):
        op = ops.operator_from_spec("jordan:1,3")
        rep = suite.equivalence_report(op, 2.0, corpus_size=30, seed=0)
        assert not rep.flags["diagonalizable"]
        assert not rep.flags["equivalence_asserted"]
        assert rep.flags["all_finite"]
        # without an eigenbasis the exponent and bridge rows carry no cap:
        # values outside the caps of a diagonalizable operator pass
        uncapped = {
            r.condition: r for r in rep.rows if r.param == "exponent" or r.condition == "bridge"
        }
        assert sorted(uncapped) == ["bridge", "c3", "c5"]
        assert uncapped["c5"].value > 1.0 + 0.15
        assert not 0.95 <= uncapped["bridge"].value <= 1.05
        assert all(np.isfinite(r.value) and r.passed for r in uncapped.values())

    @pytest.mark.parametrize("p", [0.0, 0.5, math.nan])
    def test_exponent_below_one_is_refused(self, diag124, p):
        with pytest.raises(DomainError, match="p must be >= 1"):
            suite.equivalence_report(diag124, p, corpus_size=30)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: r_l2_bound's lower end "
                       "lands 1-4 ulp above its upper end on l2")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_jordan_block_passes_every_row_on_l2(self, seed):
        # six rows (c2, c4, c6, c7 and both refined) fail at either seed
        op = ops.operator_from_spec("jordan:1,2")
        rep = suite.equivalence_report(op, 2.0, seed=seed)
        assert [(r.condition, r.param) for r in rep.rows if not r.passed] == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16: c2 of a Jordan block of "
                       "size n diverges for alpha < n - 1/2, yet the windowed value "
                       "9.84 reads finite")
    def test_a_divergent_condition_is_not_reported_finite(self):
        op = ops.operator_from_spec("jordan:1,2")
        rep = suite.equivalence_report(op, 2.0, alpha=1.0, corpus_size=30)
        assert not rep.flags["all_finite"]

    def test_zero_mode_reduction_is_flagged(self):
        op = ops.operator_from_spec("cycle-laplacian:8")
        rep = suite.equivalence_report(op, 2.0, corpus_size=30, seed=0)
        assert rep.flags["zero_mode_reduced"]
        assert rep.flags["core_dim"] == 7
        bridge = [r for r in rep.rows if r.condition == "bridge"][0]
        assert bridge.value == pytest.approx(1.0, rel=1e-3)


def _spy(monkeypatch, name):
    """Record (args, result) of every call of suite.<name>."""
    calls, real = [], getattr(suite, name)

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(suite, name, recorded)
    return calls


def _assert_rademacher_bracket(X, S, p):
    """Check the square function S of the rows of X against the Rademacher
    averages of X, enumerated.  On ell^2, S^2 is the square moment
    (orthogonality); on ell^1, S / sqrt(2) <= E||sum eps_k X_k||_1 <= S
    (Khintchine with Szarek's A_1), the lower end an equality where each
    coordinate meets two equal coefficients, as on diag-logspaced:6."""
    K = X.shape[0]
    norms = _kernels.row_norms(_kernels.sign_rows(K, 0, 1 << (K - 1)) @ X, p)
    if p == 2.0:
        assert S**2 == pytest.approx(float(np.mean(norms**2)), rel=1e-12)
    else:
        first = float(np.mean(norms))
        assert S / math.sqrt(2) <= first * (1 + 1e-12)
        assert first <= S * (1 + 1e-12)


class TestPaleyLittlewood:
    def test_two_sided_frame_on_log_spectrum(self):
        op = ops.operator_from_spec("diag-logspaced:16")
        lo, hi = suite.paley_littlewood_check(
            op, 2.0, trials=50, seed=0
        )
        assert 0.1 <= lo <= hi <= 10.0
        assert hi / lo <= 1.5  # ell^2 blocks are nearly tight frames

    def test_sup_norm_ratios_are_contractions(self):
        # every eigenvalue of diag-logspaced:6 sits at a half-integer of
        # log2, where two windows take 1/2 each, so each coordinate of the
        # square function is |x_j| / sqrt(2) and so is every ratio
        op = ops.operator_from_spec("diag-logspaced:6")
        lo, hi = suite.paley_littlewood_check(op, np.inf, trials=20, seed=0)
        assert lo == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert hi == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        # the windows are nonnegative and sum to one, so each coordinate
        # weight (sum_n psi_n(lambda_j)^2)^{1/2} is at most one
        op = ops.operator_from_spec("diag:1,10,100")
        lo, hi = suite.paley_littlewood_check(op, np.inf, trials=20, seed=0)
        assert 0.0 < lo < hi <= 1.0 + 1e-12

    def test_square_function_brackets_enumerated_averages(self):
        gen = np.random.default_rng(7)
        for _ in range(40):
            K, n = int(gen.integers(1, 11)), int(gen.integers(1, 7))
            X = gen.standard_normal((K, n)) + 1j * gen.standard_normal((K, n))
            for p in (2.0, 1.0):
                _assert_rademacher_bracket(X, rbound.square_sum_norm(X, p), p)

    @pytest.mark.parametrize("spec", MANY_SMALL)
    def test_square_function_brackets_enumerated_averages_on_blocks(self, monkeypatch, spec):
        # the block stacks of the suite itself, at its seed-0 x's
        calls = _spy(monkeypatch, "square_sum_norm")
        op = ops.operator_from_spec(spec)
        # the compressed Laplacians run on ell^2 only
        spaces = (2.0, 1.0) if op.reduction is None else (2.0,)
        for p in spaces:
            suite.paley_littlewood_check(op, p, trials=100, seed=0)
            (images, _), ratios = calls.pop()
            assert len(ratios) == 100
            for X, S in zip(images, ratios):
                _assert_rademacher_bracket(X, S, p)

    @pytest.mark.parametrize("spec", MANY_SMALL + ["diag-logspaced:16"])
    def test_batched_ratios_match_the_per_trial_loop(self, monkeypatch, spec):
        calls = _spy(monkeypatch, "square_sum_norm")
        op = ops.operator_from_spec(spec)
        spaces = (2.0, 1.0, 3.0, np.inf) if op.reduction is None else (2.0,)
        for p in spaces:
            lo, hi = suite.paley_littlewood_check(op, p, trials=30, seed=3)
            ratios = calls.pop()[1]
            _, _, square = per_trial_paley_littlewood(op, p, trials=30, seed=3, signs=False)
            np.testing.assert_allclose(ratios, square, rtol=1e-13, atol=0)
            assert (lo, hi) == (ratios.min(), ratios.max())

    @pytest.mark.parametrize("spec", MANY_SMALL)
    def test_unit_draws_are_those_of_the_sign_drawing_loop(self, monkeypatch, spec):
        # at most 12 blocks: the loop drew no signs, so its x's are the
        # batched ones bit for bit; per x, the first moment it reported
        # lies below the square moment reported now
        calls = _spy(monkeypatch, "_unit_draws")
        op = ops.operator_from_spec(spec)
        suite.paley_littlewood_check(op, 2.0, trials=100, seed=0)
        xs, first, square = per_trial_paley_littlewood(op, 2.0, trials=100, seed=0)
        assert np.array_equal(calls.pop()[1], xs)
        assert np.all(first <= square * (1 + 1e-12))

    @pytest.mark.parametrize("spec", ["diag-logspaced:16", "diag:1,10,100"])
    def test_no_signs_are_drawn_or_enumerated(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("sign average on the square-function path")

        for name in ("random_signs", "sign_rows", "enum_mean_norm", "mc_mean_norm"):
            monkeypatch.setattr(_kernels, name, refuse)
        monkeypatch.setattr(rbound, "rademacher_norm", refuse)
        op = ops.operator_from_spec(spec)
        for p in (2.0, 1.0):
            lo, hi = suite.paley_littlewood_check(op, p, trials=100, seed=0)
            assert 0.1 <= lo <= hi <= 1.0 + 1e-12

    def test_partition_must_cover(self, monkeypatch):
        # two dyadic windows cannot cover a spectrum spanning 2^15
        bumps = suite._unit_bumps
        monkeypatch.setattr(suite, "_unit_bumps", lambda y, lo, hi: bumps(y, 0, 1))
        op = ops.operator_from_spec("diag-logspaced:16")
        with pytest.raises(CoverageError):
            suite.paley_littlewood_check(op, 2.0, trials=5, seed=0)

    @pytest.mark.parametrize("p", [0.0, 0.5, math.nan])
    def test_exponent_below_one_is_refused(self, p):
        with pytest.raises(DomainError, match="p must be >= 1"):
            suite.paley_littlewood_check(ops.operator_from_spec("diag-logspaced:6"), p)

    def test_defective_is_refused(self):
        op = ops.operator_from_spec("jordan:1,3")
        with pytest.raises(NotSectorialError):
            suite.paley_littlewood_check(op, 2.0, trials=5, seed=0)


class TestBoundaryDecomposition:
    def test_bounded_part_is_exactly_one(self):
        for x in (1e-1, 1e-3):
            z = complex(x, math.sqrt(1.0 - x * x))
            g, h = suite.sea_to_ha_decomposition(z)
            assert abs(g - 1.0) < 1e-9
            assert np.isfinite(h)

    def test_square_part_blowup_rate(self):
        xs = np.array([1e-1, 1e-2, 1e-3])
        hs = []
        for x in xs:
            z = complex(x, math.sqrt(1.0 - x * x))
            hs.append(suite.sea_to_ha_decomposition(z)[1])
        slope = np.polyfit(np.log(xs), np.log(hs), 1)[0]
        assert -1.05 <= slope <= -0.95
        # h ~ 1/(2 Re z) near the boundary
        assert hs[1] == pytest.approx(1.0 / (2.0 * 1e-2), rel=0.05)

    def test_needs_unit_circle_right_half(self):
        with pytest.raises(DomainError):
            suite.sea_to_ha_decomposition(2.0 + 0.0j)
        with pytest.raises(DomainError):
            suite.sea_to_ha_decomposition(complex(-0.1, math.sqrt(1 - 0.01)))
