"""Sectorial wrappers, matrix functions, and the averaged families.

The defective-path checks use the exact 2x2 closed form
f(aI + N) = f(a) I + f'(a) N, which sidesteps the ill-conditioned
eigenbasis entirely.
"""

import dataclasses
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from speccalc import operators as ops
from speccalc import _kernels, rbound, special
from speccalc.errors import ConvergenceError, DomainError, NotSectorialError
from speccalc.rbound import OperatorFamily, _eig_apply_stack, r_l2_bound

from oracles import (
    full_stack_taylor_remainder,
    node_by_node_calculus,
    one_line_eigenvalue_samples,
    per_node_eigenvalue_calculus,
    per_eigenvalue_resolvent_bip_mellin,
    per_eigenvalue_wave_mellin,
    per_eigenvalue_wave_taylor_mellin,
)


def jordan2(a=1.0):
    return ops.sectorial(np.array([[a, 1.0], [0.0, a]]))


def closed_form_2x2(g, gp, a=1.0):
    """g(aI+N) for the 2x2 shift block."""
    return np.array([[g(a), gp(a)], [0.0, g(a)]], dtype=np.complex128)


class TestSectorialWrapper:
    def test_guards(self):
        with pytest.raises(NotSectorialError):
            ops.sectorial(np.zeros((3, 3)))
        with pytest.raises(NotSectorialError):
            ops.sectorial(np.diag([1.0, -2.0]))
        with pytest.raises(DomainError):
            ops.sectorial(np.ones((2, 3)))
        with pytest.raises(NotSectorialError):
            ops.sectorial(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_spectral_data(self):
        op = ops.sectorial(np.diag([4.0, 1.0, 2.0]))
        assert op.dim == 3
        assert op.diagonalizable
        assert np.allclose(op.eigenvalues, [1.0, 2.0, 4.0])  # sorted
        assert op.spectral_bounds() == (1.0, 4.0)
        assert op.omega == 0.0

    def test_complex_sector_angle(self):
        op = ops.sectorial(np.diag([1.0 + 1.0j, 2.0]))
        assert op.omega == pytest.approx(np.pi / 4.0)

    def test_jordan_block_is_marked_defective(self):
        op = jordan2()
        assert not op.diagonalizable
        assert op.eigenvectors is None

    def test_zero_mode_compression(self):
        op = ops.operator_from_spec("cycle-laplacian:6")
        assert op.reduction is not None
        assert op.reduction.original_dim == 6
        assert op.reduction.core_dim == 5
        assert op.reduction.residual < 1e-12
        assert np.all(op.eigenvalues.real > 1e-10)

    def test_idempotent_wrap(self):
        op = ops.sectorial(np.diag([1.0, 2.0]))
        assert ops.sectorial(op) is op

    @pytest.mark.parametrize("spec", ["diag:1e200,1e-200", "jordan:1e300,2"])
    def test_huge_norms_build(self, spec):
        # ||A A^H - A^H A|| would overflow past ||A|| ~ 1.3e154; the
        # normality test runs on A / ||A|| instead
        op = ops.operator_from_spec(spec)
        assert np.all(np.isfinite(op.eigenvalues))
        if spec.startswith("diag"):
            assert op.normal

    @pytest.mark.parametrize("spec", ["diag:nan", "diag:inf"])
    def test_non_finite_entries_are_rejected_before_lapack(self, spec, monkeypatch):
        def decomposition(*args, **kwargs):
            raise AssertionError("a decomposition ran on a non-finite matrix")

        for name in ("norm", "eig", "svd", "inv"):
            monkeypatch.setattr(np.linalg, name, decomposition)
        entry = spec.split(":")[1]
        with pytest.raises(DomainError, match=rf"matrix entry \(0, 0\) is \({entry}\+0j\)"):
            ops.operator_from_spec(spec)


class TestPresets:
    def test_diag_with_and_without_parens(self):
        a = ops.operator_from_spec("diag:(1,2,5,10)")
        b = ops.operator_from_spec("diag:1,2,5,10")
        assert np.allclose(a.matrix, b.matrix)

    def test_logspaced_is_geometric_and_symmetric(self):
        op = ops.operator_from_spec("diag-logspaced:16")
        d = np.sort(np.real(np.diag(op.matrix)))
        r = d[1:] / d[:-1]
        assert np.allclose(r, r[0])
        assert d[0] * d[-1] == pytest.approx(1.0)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            ops.operator_from_spec("hilbert:5")
        with pytest.raises(NotSectorialError):
            ops.operator_from_spec("jordan:-1,3")

    @pytest.mark.parametrize("spec", ["jordan:1,2,3", "jordan:1", "jordan:1,0"])
    def test_jordan_needs_exactly_a_and_n(self, spec):
        with pytest.raises(DomainError, match="jordan"):
            ops.operator_from_spec(spec)

    @pytest.mark.parametrize("spec, a, n", [("jordan:1,1", 1.0, 1), ("jordan:(2.5,3)", 2.5, 3)])
    def test_jordan_block(self, spec, a, n):
        op = ops.operator_from_spec(spec)
        assert np.array_equal(op.matrix, a * np.eye(n) + np.eye(n, k=1))

    @pytest.mark.parametrize(
        "spec", ["diag-logspaced:2.5", "cycle-laplacian:", "jordan:1,2.5", "diag:1,x", "jordan:y,2"]
    )
    def test_unparsable_arguments_name_the_form(self, spec):
        kind = spec.partition(":")[0]
        with pytest.raises(DomainError) as info:
            ops.operator_from_spec(spec)
        assert repr(spec) in str(info.value)
        assert f"of the form {kind}:" in str(info.value)

    @pytest.mark.parametrize(
        "spec, diagonal",
        [
            ("diag:(1, 2.5,4)", [1.0, 2.5, 4.0]),
            ("diag:1e-3,7,", [1e-3, 7.0]),
            ("diag-logspaced: 3 ", [0.5, 1.0, 2.0]),
            ("diag-logspaced:(4)", [2**-1.5, 2**-0.5, 2**0.5, 2**1.5]),
        ],
    )
    def test_diagonal_presets_parse_their_entries(self, spec, diagonal):
        op = ops.operator_from_spec(spec)
        assert np.array_equal(op.matrix, np.diag(np.array(diagonal, dtype=np.complex128)))

    @pytest.mark.parametrize(
        "spec, eigenvalues",
        [("cycle-laplacian:4", [2.0, 2.0, 4.0]), ("path-laplacian:(3)", [1.0, 3.0])],
    )
    def test_laplacian_presets_parse_their_size(self, spec, eigenvalues):
        op = ops.operator_from_spec(spec)
        assert np.allclose(np.sort(op.eigenvalues.real), eigenvalues)

    @pytest.mark.parametrize(
        "kind", ["cycle-laplacian", "path-laplacian", "diag-logspaced"]
    )
    @pytest.mark.parametrize("n", [0, 1])
    def test_sized_presets_need_two_vertices(self, kind, n):
        with pytest.raises(DomainError, match="n >= 2"):
            ops.operator_from_spec(f"{kind}:{n}")

    @pytest.mark.parametrize("spec", ["diag:1e-11,1", "diag:1e-5,1,1e5", "diag:1e-6,1e6"])
    def test_an_injective_diagonal_keeps_its_small_eigenvalue(self, spec):
        op = ops.operator_from_spec(spec)
        assert op.reduction is None and op.dim == len(spec.split(","))

    @pytest.mark.parametrize("k", range(1, 16))
    def test_the_kernel_cut_is_eight_n_u_norm(self, k):
        # on diag(10^-k, 1) the cut 8 n u ||A||_2 is 16 u = 1.8e-15: every
        # entry above it is provably nonzero and kept, 1e-15 is compressed
        small = float(f"1e-{k}")
        op = ops.operator_from_spec(f"diag:{small!r},1")
        kept = small > 8 * 2 * 2.0**-53
        assert kept is (k <= 14)
        assert op.dim == (2 if kept else 1)
        assert (op.reduction is None) is kept
        if kept:
            assert op.eigenvalues[0] == small

    @pytest.mark.parametrize("kind", ["cycle-laplacian", "path-laplacian"])
    @pytest.mark.parametrize("n", [2, 3, 6, 8, 12, 64, 128])
    def test_laplacians_compress_exactly_their_zero_mode(self, kind, n):
        op = ops.operator_from_spec(f"{kind}:{n}")
        assert op.reduction.original_dim == n and op.dim == n - 1
        assert op.reduction.residual < 1e-14

    def test_a_rounding_zero_without_an_orthogonal_kernel_raises(self):
        # the eigenvalue 1e-16 of this Jordan block is below the cut, and
        # the block's kernel is not orthogonal to its range
        with pytest.raises(NotSectorialError, match=r"eigenvalue \(1e-16\+0j\) is zero"):
            ops.operator_from_spec("jordan:1e-16,2")

    def test_a_kernel_off_orthogonal_by_more_than_rounding_raises(self):
        # compressing away this kernel, 1e-9 off orthogonal to the range,
        # would change the matrix by 1e-9 of its norm, far above rounding
        with pytest.raises(NotSectorialError, match="residual 1.00e-09"):
            ops.sectorial(np.array([[0.0, 1e-9], [0.0, 1.0]]))

    def test_smallest_path_laplacian(self):
        # [[1, -1], [-1, 1]] with its zero mode compressed
        op = ops.operator_from_spec("path-laplacian:2")
        assert op.reduction.original_dim == 2
        assert np.allclose(op.eigenvalues, [2.0])


class TestSectorialityCheck:
    def test_positive_diagonal_is_sectorial_everywhere(self):
        op = ops.sectorial(np.diag([1.0, 3.0, 9.0]))
        assert op.omega == 0.0
        # ray constant sup_t ||A (e^{i theta} t - A)^{-1}|| from the
        # resolvent-ray family at beta = 0: finite on every ray off the
        # spectrum, and growing as the ray closes on it
        thetas = (np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)
        cs = []
        for theta in thetas:
            fam = ops.family_samples(op, "resolvent-ray", beta=0.0, theta=theta)
            norms = np.linalg.norm(fam.matrices, 2, axis=(1, 2))
            assert np.all(np.isfinite(norms))
            cs.append(float(norms.max()))
        assert all(a >= b for a, b in zip(cs, cs[1:]))
        # sup_t |a / (e^{i theta} t - a)| is 1/sin(theta) below pi/2 and the
        # t -> 0 limit 1 beyond; the log grid stops just short of t = 0
        assert cs[0] == pytest.approx(1.0 / np.sin(np.pi / 8), rel=1e-3)
        assert cs[1] == pytest.approx(np.sqrt(2.0), rel=1e-3)
        assert min(cs) >= 0.99


class TestMatrixFunctions:
    def test_imaginary_powers_diag(self):
        op = ops.sectorial(np.diag([1.0, 2.0, 4.0]))
        t = 0.8
        got = ops.imaginary_powers(op, t)
        want = np.diag(np.exp(1j * t * np.log([1.0, 2.0, 4.0])))
        assert np.allclose(got, want, atol=1e-13)
        assert np.allclose(ops.imaginary_powers(op, 0.0), np.eye(3), atol=1e-13)

    def test_imaginary_powers_group_law(self):
        op = ops.operator_from_spec("diag-logspaced:8")
        a, b = 0.37, -1.91
        lhs = ops.imaginary_powers(op, a) @ ops.imaginary_powers(op, b)
        rhs = ops.imaginary_powers(op, a + b)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-12

    def test_imaginary_powers_jordan(self):
        t = 1.3
        got = ops.imaginary_powers(jordan2(), t)
        want = closed_form_2x2(lambda a: a ** (1j * t), lambda a: 1j * t * a ** (1j * t - 1))
        assert np.allclose(got, want, atol=1e-10)

    def test_fractional_power_squares_back(self):
        for spec in ("diag:1,2,5,10", "jordan:2,2"):
            op = ops.operator_from_spec(spec)
            H = ops.fractional_power(op, 0.5)
            assert np.allclose(H @ H, op.matrix, atol=1e-9)

    @pytest.mark.parametrize("spec", ["jordan:1,3", "jordan:0.1,4", "diag:1,2,5"])
    def test_fractional_power_stacks_its_exponents(self, spec):
        # an array of exponents gives one matrix per exponent, each the
        # bits of its own call
        op = ops.operator_from_spec(spec)
        for gamma in (np.array([0.5, -0.5, 0.25, -1.2]), np.array([0.5, 0.3j, -2.1j, 1 + 1j])):
            got = ops.fractional_power(op, gamma)
            assert got.shape == (len(gamma), op.dim, op.dim)
            for g, mat in zip(gamma, got):
                assert mat.tobytes() == ops.fractional_power(op, g.item()).tobytes()

    def test_semigroup_matches_expm(self):
        # (tA)^{1/2} e^{-ztA} on the ray z = e^{i theta}, against scipy's
        # expm and sqrtm, on the defective and the eigenbasis path
        theta = float(np.angle(0.7 + 0.2j))
        for op in (jordan2(1.5), ops.sectorial(np.array([[1.5, 1.0], [0.0, 2.5]]))):
            fam = ops.family_samples(op, "semigroup-ray", theta=theta, n=64)
            Ah = scipy.linalg.sqrtm(op.matrix)
            for k in range(0, 64, 9):
                t = fam.points[k]
                z = np.exp(1j * theta) * t
                want = np.sqrt(t) * scipy.linalg.expm(-z * op.matrix) @ Ah
                assert np.allclose(fam.matrices[k], want, atol=1e-11)

    def test_resolvent_value(self):
        # t (e^{i theta} t - A)^{-1} on the ray through 3 + i, against a
        # direct inverse, for a non-normal diagonalizable A
        A = np.array([[1.0, 1.0], [0.0, 2.0]])
        theta = float(np.angle(3.0 + 1.0j))
        fam = ops.family_samples(A, "resolvent-ray", beta=1.0, theta=theta, n=64)
        for k in range(0, 64, 9):
            t = fam.points[k]
            want = t * np.linalg.inv(np.exp(1j * theta) * t * np.eye(2) - A)
            assert np.allclose(fam.matrices[k], want, atol=1e-13)

    def test_holomorphic_calculus_against_eigen(self):
        op = ops.sectorial(np.diag([1.0, 2.0, 4.0]))
        rho = lambda z: z / (1.0 + z) ** 2
        got = ops.holomorphic_calculus(op, rho)
        want = np.diag(rho(np.array([1.0, 2.0, 4.0], dtype=complex)))
        assert np.linalg.norm(got - want, 2) < 1e-7

    def test_holomorphic_calculus_wide_spectrum(self):
        # the spectrum spans 2^29, so contour nodes pass within 1e-9 max|lambda|
        # of the smallest eigenvalues while staying far from them relatively
        op = ops.operator_from_spec("diag-logspaced:30")
        rho = lambda z: z / (1.0 + z) ** 2
        got = ops.holomorphic_calculus(op, rho)
        want = _eig_apply_stack(op.eigenbasis, rho(op.eigenvalues)[None])[0]
        assert np.linalg.norm(got - want, 2) < 1e-9 * np.linalg.norm(want, 2)

    def test_holomorphic_calculus_jordan(self):
        rho = lambda z: z / (1.0 + z) ** 2
        rho_p = lambda z: (1.0 - z) / (1.0 + z) ** 3
        got = ops.holomorphic_calculus(jordan2(), rho)
        want = closed_form_2x2(rho, rho_p)
        assert np.linalg.norm(got - want, 2) < 1e-7


def _rho(z):
    return z / (1.0 + z) ** 2


def _rotated_rho(z):
    return np.exp(0.3j) * z / (1.0 + z) ** 2


# a complex diagonal: its spectrum is not symmetric about the real axis
COMPLEX_DIAG = np.diag([1.0 + 0.5j, 2.0, 3.0 - 0.2j])
# real and non-normal, with the conjugate eigenpair 1 +- 0.5i
REAL_NONNORMAL = np.array([[1.0, -0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.0, 2.0]])


# the diagonalizable contour cases: (spec, f), spec a preset or a key of
# _CONTOUR_MATRICES
_CONTOUR_CASES = [
    ("diag-logspaced:16", _rho),
    ("diag:1,10,100", _rho),
    ("path-laplacian:8", _rho),
    ("cycle-laplacian:6", _rho),
    ("complex-diag", _rho),
    ("cycle-laplacian:6", _rotated_rho),
]
_CONTOUR_MATRICES = {"complex-diag": COMPLEX_DIAG, "real-nonnormal": REAL_NONNORMAL}


def _contour_operator(spec):
    if spec in _CONTOUR_MATRICES:
        return ops.sectorial(_CONTOUR_MATRICES[spec])
    return ops.operator_from_spec(spec)


def _forced_dense(op):
    """op without its eigenbasis, so _samples takes the stack path."""
    return dataclasses.replace(op, eigenvectors=None, eigenvectors_inv=None)


class TestContourCalculus:
    """holomorphic_calculus on both paths of _samples against its
    node-by-node forms and the eigenbasis."""

    # the contour-vs-eigen rows are gated at 1e-6 relative drift on values
    # of 1e-10..1e-8, so each path's sum may not move by one rounding
    @pytest.mark.parametrize(
        "spec, f, dense",
        [("jordan:1.5,4", _rho, False)] + [(s, f, True) for s, f in _CONTOUR_CASES],
    )
    def test_stack_path_is_bitwise_the_node_by_node_sum(self, spec, f, dense):
        op = _contour_operator(spec)
        if dense:
            op = _forced_dense(op)
        assert not op.diagonalizable
        got = ops.holomorphic_calculus(op, f)
        assert np.array_equal(got, node_by_node_calculus(op, f))

    @pytest.mark.parametrize("spec, f", _CONTOUR_CASES)
    def test_table_path_is_bitwise_the_per_node_eigenvalue_sum(self, spec, f):
        op = _contour_operator(spec)
        assert op.diagonalizable
        got = ops.holomorphic_calculus(op, f)
        assert np.array_equal(got, per_node_eigenvalue_calculus(op, f))

    @pytest.mark.parametrize(
        "spec, f",
        _CONTOUR_CASES + [("real-nonnormal", _rho), ("diag-logspaced:30", _rho)],
    )
    def test_table_path_agrees_with_the_dense_resolvents(self, spec, f):
        op = _contour_operator(spec)
        got = ops.holomorphic_calculus(op, f)
        want = node_by_node_calculus(op, f)
        assert np.linalg.norm(got - want, 2) <= 1e-14 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize(
        "A", [REAL_NONNORMAL, COMPLEX_DIAG], ids=["real-nonnormal", "complex-diag"]
    )
    def test_against_the_eigenbasis(self, A):
        op = ops.sectorial(A)
        assert op.diagonalizable
        got = ops.holomorphic_calculus(op, _rho)
        want = _eig_apply_stack(op.eigenbasis, _rho(op.eigenvalues)[None])[0]
        assert np.linalg.norm(got - want, 2) < 1e-7 * np.linalg.norm(want, 2)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the cut rays' tail error "
                       "is absolute, 109% of f at the small end of diag:1e-8,1")
    def test_small_end_of_a_wide_spectrum_is_accurate_or_an_error(self):
        op = ops.operator_from_spec("diag:1e-8,1")
        try:
            got = np.diag(ops.holomorphic_calculus(op, _rho))
        except ConvergenceError:
            return
        want = _rho(op.eigenvalues)
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))

    def test_the_table_path_makes_no_dense_solve(self, monkeypatch):
        counts = {"solved": 0, "nodes": 0}

        def counting(fn):
            def call(a, *args):
                counts["solved"] += a.shape[0] if a.ndim == 3 else 1
                return fn(a, *args)
            return call

        rule = ops._tanh_sinh_nodes

        def counting_rule(a, b, n):
            counts["nodes"] += n
            return rule(a, b, n)

        op = ops.operator_from_spec("diag-logspaced:16")  # sectorial inverts V
        monkeypatch.setattr(np.linalg, "solve", counting(np.linalg.solve))
        monkeypatch.setattr(np.linalg, "inv", counting(np.linalg.inv))
        monkeypatch.setattr(ops, "_tanh_sinh_nodes", counting_rule)
        ops.holomorphic_calculus(op, _rho)
        # 384 + 768 + ... + 6144 nodes per ray, each on the eigenvalues
        assert counts == {"solved": 0, "nodes": 11904}

        # without its eigenbasis, one inverse per node of each ray
        counts.update(solved=0, nodes=0)
        ops.holomorphic_calculus(_forced_dense(op), _rho)
        assert counts == {"solved": 2 * 11904, "nodes": 11904}


class TestFamilies:
    """Spot-check family elements against hand formulas, including the
    exact Jordan closed form on the defective path."""

    def pick(self, fam, count=5):
        idx = np.linspace(0, len(fam.weights) - 1, count).astype(int)
        return idx

    def test_bip_diag(self):
        op = ops.sectorial(np.diag([1.0, 2.0]))
        fam = ops.family_samples(op, "bip", alpha=1.0, n=64)
        t = fam.points
        for k in self.pick(fam):
            want = (1.0 + t[k] ** 2) ** -0.5 * np.diag(
                np.exp(1j * t[k] * np.log([1.0, 2.0]))
            )
            assert np.allclose(fam.matrices[k], want, atol=1e-12)

    def test_bip_jordan(self):
        fam = ops.family_samples(jordan2(), "bip", alpha=1.0, n=64)
        t = fam.points
        for k in self.pick(fam):
            want = (1.0 + t[k] ** 2) ** -0.5 * closed_form_2x2(
                lambda a: a ** (1j * t[k]),
                lambda a: 1j * t[k] * a ** (1j * t[k] - 1.0),
            )
            assert np.allclose(fam.matrices[k], want, atol=1e-9)

    def test_resolvent_ray_jordan(self):
        beta, theta = 0.5, np.pi / 2
        fam = ops.family_samples(jordan2(), "resolvent-ray", beta=beta, theta=theta, n=64)
        e = np.exp(1j * theta)
        for k in self.pick(fam):
            t = fam.points[k]
            g = lambda a: t**beta * a ** (1 - beta) / (e * t - a)
            gp = lambda a: t**beta * (
                (1 - beta) * a ** (-beta) / (e * t - a)
                + a ** (1 - beta) / (e * t - a) ** 2
            )
            assert np.allclose(fam.matrices[k], closed_form_2x2(g, gp), atol=1e-9)

    def test_semigroup_ray_jordan(self):
        theta = np.pi / 4
        fam = ops.family_samples(jordan2(), "semigroup-ray", theta=theta, n=64)
        z = np.exp(1j * theta)
        for k in self.pick(fam):
            t = fam.points[k]
            g = lambda a: np.sqrt(t * a) * np.exp(-z * t * a)
            gp = lambda a: (
                np.sqrt(t) * (0.5 / np.sqrt(a) - z * t * np.sqrt(a)) * np.exp(-z * t * a)
            )
            assert np.allclose(fam.matrices[k], closed_form_2x2(g, gp), atol=1e-9)

    def test_wave_jordan(self):
        alpha, m = 1.0, 1
        fam = ops.family_samples(jordan2(), "wave", alpha=alpha, m=m, n=32)
        for k in self.pick(fam):
            s = fam.points[k]
            g = lambda a: abs(s) ** -alpha * a ** (0.5 - alpha) * (np.exp(1j * s * a) - 1) ** m
            gp = lambda a: abs(s) ** -alpha * (
                (0.5 - alpha) * a ** (-0.5 - alpha) * (np.exp(1j * s * a) - 1) ** m
                + a ** (0.5 - alpha)
                * m
                * (np.exp(1j * s * a) - 1) ** (m - 1)
                * 1j
                * s
                * np.exp(1j * s * a)
            )
            assert np.allclose(fam.matrices[k], closed_form_2x2(g, gp), atol=1e-8)

    def test_wave_taylor_jordan(self):
        alpha, m = 1.7, 1
        fam = ops.family_samples(jordan2(), "wave-taylor", alpha=alpha, m=m, n=32)
        for k in self.pick(fam):
            s = fam.points[k]
            g = lambda a: abs(s) ** -alpha * a ** (0.5 - alpha) * (
                np.exp(1j * s * a) - 1 - 1j * s * a
            )
            gp = lambda a: abs(s) ** -alpha * (
                (0.5 - alpha) * a ** (-0.5 - alpha) * (np.exp(1j * s * a) - 1 - 1j * s * a)
                + a ** (0.5 - alpha) * (1j * s * np.exp(1j * s * a) - 1j * s)
            )
            assert np.allclose(fam.matrices[k], closed_form_2x2(g, gp), atol=1e-8)

    def test_semigroup_2d_jordan(self):
        alpha = 1.0
        fam = ops.family_samples(jordan2(), "semigroup-2d", alpha=alpha)
        for k in self.pick(fam):
            x, y = fam.points[k]
            zf = 1.0 + 1j * (y / x)
            c = math.cos(math.atan2(y, x)) ** alpha * x ** (-0.5)
            g = lambda a: c * np.sqrt(a) * np.exp(-zf * x * a)
            gp = lambda a: c * (0.5 / np.sqrt(a) - zf * x * np.sqrt(a)) * np.exp(-zf * x * a)
            assert np.allclose(fam.matrices[k], closed_form_2x2(g, gp), atol=1e-8)

    def test_ray_angle_guards(self):
        op = ops.sectorial(np.diag([1.0, 2.0]))
        with pytest.raises(DomainError):
            ops.family_samples(op, "resolvent-ray", theta=0.0)
        with pytest.raises(DomainError):
            ops.family_samples(op, "semigroup-ray", theta=np.pi / 2)
        with pytest.raises(DomainError):
            ops.family_samples(op, "nonsense")

    @pytest.mark.parametrize("phase", [5e-3, 0.3, 1.2])
    def test_semigroup_2d_needs_the_angles_inside_the_decay_sector(self, phase):
        # its angles reach pi/2 - 5e-3, where e^{-(x+iy)A} grows on an
        # eigenvalue of argument >= 5e-3: at 0.3 the table held NaN and
        # r_l2_bound raised LinAlgError
        op = ops.sectorial(np.diag([1.0, 2.0 * np.exp(1j * phase), 3.0]))
        with pytest.raises(DomainError, match="decay sector"):
            ops.family_samples(op, "semigroup-2d")
        fam = ops.family_samples(ops.sectorial(np.diag([1.0, 2.0 * np.exp(1e-3j), 3.0])),
                                 "semigroup-2d")
        assert np.all(np.isfinite(fam.symbols))

    _UNREAD = [
        ("bip", "beta"), ("bip", "theta"), ("bip", "m"),
        ("resolvent-ray", "alpha"), ("resolvent-ray", "m"),
        ("resolvent-2d", "theta"), ("resolvent-2d", "m"), ("resolvent-2d", "n"),
        ("semigroup-ray", "alpha"), ("semigroup-ray", "beta"), ("semigroup-ray", "m"),
        ("semigroup-2d", "beta"), ("semigroup-2d", "theta"), ("semigroup-2d", "m"),
        ("semigroup-2d", "n"),
        ("wave", "beta"), ("wave", "theta"),
        ("wave-taylor", "beta"), ("wave-taylor", "theta"),
    ]

    @pytest.mark.parametrize("family, arg", _UNREAD)
    def test_arguments_the_family_does_not_read_are_rejected(self, family, arg):
        # an argument outside the family's formula used to be dropped
        # silently, e.g. n=10 on resolvent-2d gave the fixed 18432 samples
        op = ops.sectorial(np.diag([1.0, 2.0]))
        value = {"alpha": 1.0, "beta": 0.5, "theta": 0.3, "m": 1, "n": 10}[arg]
        with pytest.raises(DomainError, match=f"does not read {arg}"):
            ops.family_samples(op, family, **{arg: value})

    def test_every_family_accepts_the_arguments_it_reads(self):
        op = ops.sectorial(np.diag([1.0, 2.0]))
        given = {"alpha": 1.0, "beta": 0.5, "theta": 0.7, "m": 1, "n": 16}
        for family, reads in ops._FAMILY_ARGS.items():
            # the rejected and the read arguments split the five between them
            unread = {arg for fam, arg in self._UNREAD if fam == family}
            assert not unread & set(reads) and unread | set(reads) == set(given)
            args = {k: given[k] for k in reads}
            if family == "wave-taylor":
                args["m"] = 0  # alpha - 1/2 must lie in (m, m + 1)
            fam = ops.family_samples(op, family, **args)
            if "n" in reads:
                assert len(fam) == (32 if family.startswith("wave") else 16)


def _taylor_remainder(B, m):
    """e^B - T_m(B) = B^{m+1} phi_{m+1}(B), where phi_{m+1}(B) is the
    top-right block of the exponential of the (m+2)-block matrix with B
    in the corner and identities on the superdiagonal: no cancellation
    for small B."""
    n, k = len(B), m + 1
    M = np.zeros(((k + 1) * n, (k + 1) * n), dtype=np.complex128)
    M[:n, :n] = B
    for j in range(k):
        M[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = np.eye(n)
    return np.linalg.matrix_power(B, k) @ scipy.linalg.expm(M)[:n, k * n :]


def _dense_reference(family, point, A):
    """One family element from scipy's dense matrix functions."""
    I = np.eye(len(A))
    frac = lambda p: scipy.linalg.fractional_matrix_power(A, p)
    if family == "bip":
        t = point
        return (1 + t * t) ** -0.5 * scipy.linalg.expm(1j * t * scipy.linalg.logm(A))
    if family in ("resolvent-ray", "resolvent-2d"):
        th, t = (2.0, point) if family == "resolvent-ray" else point
        R = np.linalg.inv(np.exp(1j * th) * t * I - A)
        return (abs(th) ** 0.5 if family == "resolvent-2d" else 1.0) * t**0.5 * R @ frac(0.5)
    if family == "semigroup-ray":
        t = point
        return np.sqrt(t) * scipy.linalg.expm(-np.exp(0.5j) * t * A) @ frac(0.5)
    if family == "semigroup-2d":
        x, y = point
        c = x / abs(x + 1j * y) * x**-0.5
        return c * scipy.linalg.expm(-(x + 1j * y) * A) @ frac(0.5)
    s = point
    if family == "wave":
        return abs(s) ** -1.0 * (scipy.linalg.expm(1j * s * A) - I) @ frac(-0.5)
    return abs(s) ** -1.7 * _taylor_remainder(1j * s * A, 1) @ frac(-1.2)


class TestDenseReference:
    """Every family on the eigenbasis and the defective path against
    scipy's inv, expm, logm and fractional_matrix_power."""

    ARGS = {
        "bip": {"alpha": 1.0, "n": 32},
        "resolvent-ray": {"beta": 0.5, "theta": 2.0, "n": 32},
        "resolvent-2d": {"alpha": 1.0, "beta": 0.5},
        "semigroup-ray": {"theta": 0.5, "n": 32},
        "semigroup-2d": {"alpha": 1.0},
        "wave": {"alpha": 1.0, "m": 1, "n": 32},
        "wave-taylor": {"alpha": 1.7, "m": 1, "n": 32},
    }

    @pytest.mark.parametrize("family", list(ARGS))
    @pytest.mark.parametrize("spec", ["nonnormal", "jordan:1.5,2"])
    def test_samples_match_dense_functions(self, family, spec):
        if spec == "nonnormal":
            op = ops.sectorial(np.array([[1.5, 1.0], [0.0, 2.5]]))
            assert op.diagonalizable
        else:
            op = ops.operator_from_spec(spec)
            assert not op.diagonalizable
        fam = ops.family_samples(op, family, **self.ARGS[family])
        for k in np.linspace(0, len(fam) - 1, 7).astype(int):
            want = _dense_reference(family, fam.points[k], op.matrix)
            err = np.linalg.norm(fam.matrices[k] - want, 2)
            assert err <= 1e-9 * np.linalg.norm(want, 2), (k, fam.points[k])

    @pytest.mark.parametrize("spec", ["jordan:1,3", "jordan:1,2", "jordan:0.1,4"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_taylor_remainder_exponentiates_only_the_large_samples(self, spec, m, monkeypatch):
        # expm runs on the samples with |z| ||A|| >= 1/2 only, the series
        # on the others, and the stack is the all-samples expm's bit for bit
        op = ops.operator_from_spec(spec)
        s = np.geomspace(1e-4, 1e3, 40) / np.linalg.norm(op.matrix, 2)
        z = np.concatenate([s, -s])
        scale = np.ones(len(z))
        want = scale[:, None, None] * full_stack_taylor_remainder(op.matrix, z, m)
        exponentiated = []
        expm = scipy.linalg.expm

        def counting(a):
            exponentiated.append(len(a))
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting)
        got = ops._samples(op, "wave-taylor", z, scale, 0.0, m)["matrices"]
        assert exponentiated == [int(np.sum(np.abs(z) * np.linalg.norm(op.matrix, 2) >= 0.5))]
        assert 0 < exponentiated[0] < len(z)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", ["diag:1,2", "jordan:1,2"])
    @pytest.mark.parametrize("alpha, m", [(1.0, 1), (1.5, 1), (0.5, 0)])
    def test_wave_taylor_window_on_both_paths(self, spec, alpha, m):
        # alpha - 1/2 must lie strictly inside (m, m + 1); the defective
        # path used to sample the family outside that window
        op = ops.operator_from_spec(spec)
        with pytest.raises(DomainError, match="strictly inside"):
            ops.family_samples(op, "wave-taylor", alpha=alpha, m=m, n=32)


def _similar(n, cond, seed):
    """S diag(geomspace(0.5, 4, n)) S^{-1} with cond(S) = cond."""
    gen = np.random.default_rng(seed)

    def unitary():
        Z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        return np.linalg.qr(Z)[0]

    S = unitary() @ np.diag(np.geomspace(1.0, cond, n)) @ unitary()
    return ops.sectorial(S @ np.diag(np.geomspace(0.5, 4.0, n)) @ np.linalg.inv(S))


# the seven workload operators, one with complex eigenvectors and a
# nonnormal eigenbasis, and one spanning seven decades
_TABLE_SPECS = [
    "diag-logspaced:16", "diag:1,2", "diag:1,10,100", "diag:0.2,0.9,4,11,30",
    "diag-logspaced:6", "path-laplacian:8", "cycle-laplacian:6", "similar:3,30",
    "diag:1e-7,1",
]


def _table_operator(spec):
    if spec.startswith("similar"):
        return _similar(3, 30.0, seed=3)
    return ops.operator_from_spec(spec)


class TestOneBufferTables:
    """The eigenvalue path of _samples builds each table in one buffer,
    in place, each operation with the operands of the one-line
    expression it replaces: the tables are those bit for bit."""

    # the family powers 0, 1/2, 1/2 - alpha and 1 - beta, at alpha in
    # {1, 1.7} and beta in {0.5, 0.25}
    POWERS = (0.0, 0.5, -0.5, -1.2, 0.75)

    @staticmethod
    def _cases():
        """(core, z, scale, orders m) on grids like the families'."""
        s = np.geomspace(1e-3, 1e3, 61)
        s2 = np.concatenate([s, -s])
        t = np.linspace(-50.0, 50.0, 257)
        return [
            ("bip", t, (1.0 + t * t) ** -0.5, [None]),
            ("resolvent", np.exp(2.0j) * s, s**0.5, [None]),
            # holomorphic_calculus scales the resolvent by complex weights
            ("resolvent", np.exp(-0.4j) * s, s * np.exp(0.3j * s), [None]),
            ("semigroup", (1.0 + 0.5j) * s, np.sqrt(s), [None]),
            ("wave", s2, np.abs(s2) ** -1.0, [0, 1, 2, 3]),
            ("wave-taylor", s2, np.abs(s2) ** -1.5, [0, 1, 2]),
        ]

    @pytest.mark.parametrize("spec", _TABLE_SPECS)
    def test_tables_are_the_one_line_expressions(self, spec):
        op = _table_operator(spec)
        assert op.diagonalizable
        for core, z, scale, orders in self._cases():
            for m in orders:
                for power in self.POWERS:
                    got = ops._samples(op, core, z, scale, power, m)["symbols"]
                    want = one_line_eigenvalue_samples(op, core, z, scale, power, m)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (core, m, power)

    @pytest.mark.parametrize("spec", _TABLE_SPECS)
    def test_the_contour_calculus_keeps_its_bits(self, spec):
        # holomorphic_calculus sums the resolvent core of _samples
        op = _table_operator(spec)
        got = ops.holomorphic_calculus(op, _rho)
        assert np.array_equal(got, per_node_eigenvalue_calculus(op, _rho))


class TestEigenvalueTable:
    """A diagonalizable operator's family is its (K, n) eigenvalue table;
    r_l2_bound factors the table without the (K, n, n) stack and must
    agree with the factor of the stack."""

    @staticmethod
    def _rel(a, b):
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    @staticmethod
    def _terms(family):
        """(Gram, mean, pairs, lambda_max) of a family, read off its factor."""
        P, mean = rbound._gram_factor(family)
        flat = P.reshape(len(P), -1)
        top = np.linalg.eigvalsh(flat @ flat.conj().T)[-1]
        return flat.conj().T @ flat, mean, np.sum(np.abs(P) ** 2, axis=0), top

    # the table's factor has n members, the stack's min(K, n^2): on the
    # Laplacian's 5-dimensional core the 32-sample families have K < n^2
    @pytest.mark.parametrize("family", list(TestDenseReference.ARGS))
    @pytest.mark.parametrize("spec", ["similar:4,1e3", "similar:3,30", "cycle-laplacian:6"])
    def test_table_reduces_like_its_stack(self, family, spec):
        if spec.startswith("similar"):
            n, cond = spec.split(":")[1].split(",")
            op = _similar(int(n), float(cond), seed=int(n))
        else:
            op = ops.operator_from_spec(spec)
        table = ops.family_samples(op, family, **TestDenseReference.ARGS[family])
        assert table.symbols is not None and len(table) == len(table.weights)
        assert table.dim == op.dim
        stack = OperatorFamily(
            "stack", table.points, table.weights,
            _eig_apply_stack(op.eigenbasis, table.symbols), table.measure,
        )
        gram, mean, pairs, top = self._terms(table)
        want = self._terms(stack)
        assert self._rel(gram, want[0]) <= 1e-12
        assert self._rel(mean, want[1]) <= 1e-12
        assert self._rel(pairs, want[2]) <= 1e-12
        assert top == pytest.approx(want[3], rel=1e-12)
        for p in (2.0, 3.0):
            got = r_l2_bound(table, p, rng=np.random.default_rng(5))
            ref = r_l2_bound(stack, p, rng=np.random.default_rng(5))
            if op.normal and p == 2.0:
                # the Laplacian core is normal: the table's closed form lies
                # in the bracket the stack's bilinear loop gives
                assert got.method == "spectral" and got.lower == got.upper
                assert ref.lower <= got.lower * (1.0 + 1e-12)
                assert got.upper <= ref.upper * (1.0 + 1e-12)
                continue
            assert got.method == "bilinear-power"
            assert got.upper == pytest.approx(ref.upper, rel=1e-12)
            if p == 2.0:
                assert got.lower == pytest.approx(ref.lower, rel=1e-10)
        # the stack a table builds is the eigenbasis helper's, bit for bit
        assert np.array_equal(table.matrices, stack.matrices)

    @pytest.mark.parametrize("family", list(TestDenseReference.ARGS))
    def test_a_short_table_never_builds_its_stack(self, family):
        # K = 32 samples on the 5-dimensional core: the bound reads the
        # table's n-member factor, never the (K, n, n) stack
        op = ops.operator_from_spec("cycle-laplacian:6")
        table = ops.family_samples(op, family, **TestDenseReference.ARGS[family])
        for p in (2.0, 3.0):
            r_l2_bound(table, p, rng=np.random.default_rng(5))
        assert table._stack is None

    def test_the_long_table_never_builds_its_stack(self):
        # the 18432-sample resolvent-2d stack of diag-logspaced:16 alone is
        # 72 MB; its table and every reduction of it stay far below
        op = ops.operator_from_spec("diag-logspaced:16")
        tracemalloc.start()
        try:
            fam = ops.family_samples(op, "resolvent-2d")
            est = r_l2_bound(fam, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fam) == 18432 and est.lower <= est.upper
        assert peak < 24e6, peak

    def test_a_table_is_built_in_one_buffer(self):
        # every core and its scaling run in place on the one (K, n) table:
        # 3.3 times its bytes when each operation took a new array
        op = ops.operator_from_spec("diag-logspaced:16")
        tracemalloc.start()
        try:
            fam = ops.family_samples(op, "resolvent-2d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * fam.symbols.nbytes, peak


def _unitary_conjugate(n, seed):
    """U diag(lam) U^H with a random unitary U and lam spread over four decades."""
    gen = np.random.default_rng(seed)
    Z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    U = np.linalg.qr(Z)[0]
    lam = 10.0 ** np.sort(gen.uniform(-2.0, 2.0, n))
    lam[[0, -1]] = 1e-2, 1e2
    return ops.sectorial(U @ np.diag(lam) @ U.conj().T)


def _stack_of(table):
    return OperatorFamily("stack", table.points, table.weights, table.matrices,
                          table.measure)


def _form_at(family, x, xp) -> float:
    """F(x, x') = sum_k w_k |<N_k x, x'>|^2, read off the family's stack."""
    pairing = np.einsum("r,krs,s->k", xp.conj(), family.matrices, x)
    return float(family.weights @ np.abs(pairing) ** 2)


class TestNormalClosedForm:
    """A normal operator's table on ell^2, and a diagonal one's on every
    ell^p, give r_l2_bound's value in closed form; the stack of the same
    family runs the bilinear loop, whose bracket must contain it."""

    @pytest.mark.parametrize(
        "spec, normal",
        [("diag:1,2", True), ("diag:1,10,100", True), ("diag:0.2,0.9,4,11,30", True),
         ("diag-logspaced:6", True), ("diag-logspaced:16", True),
         ("path-laplacian:8", True), ("cycle-laplacian:6", True),
         ("jordan:1,3", False), ("jordan:1.5,4", False)],
    )
    def test_sectorial_reads_normality(self, spec, normal):
        op = ops.operator_from_spec(spec)
        assert op.normal is normal
        # the Laplacians are normal on their reduced core
        assert (op.reduction is not None) == ("laplacian" in spec)

    def test_workload_operators_keep_their_normal_flag(self, monkeypatch):
        # the scaled test reads what ||A A^H - A^H A|| <= 1e-12 ||A||^2 read
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        specs = {s for w in workloads.WORKLOADS.values() for s in w["operators"]}
        assert len(specs) == 7
        for spec in sorted(specs):
            op = ops.operator_from_spec(spec)
            A, AH = op.matrix, op.matrix.conj().T
            unscaled = np.linalg.norm(A @ AH - AH @ A, 2) <= 1e-12 * np.linalg.norm(A, 2) ** 2
            assert op.normal is bool(unscaled) is True, spec

    def test_a_nonnormal_table_keeps_the_loop(self):
        op = _similar(3, 30.0, seed=3)
        assert op.diagonalizable and not op.normal
        table = ops.family_samples(op, "bip", **TestDenseReference.ARGS["bip"])
        assert not table.normal
        for p in (1.0, 2.0, 3.0):
            est = r_l2_bound(table, p, rng=np.random.default_rng(0))
            assert est.method == "bilinear-power"

    @pytest.mark.parametrize("family", list(TestDenseReference.ARGS))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_closed_form_inside_the_stack_bracket(self, n, family):
        op = _unitary_conjugate(n, seed=10 * n + len(family))
        assert op.normal
        table = ops.family_samples(op, family, **TestDenseReference.ARGS[family])
        est = r_l2_bound(table, 2.0)
        ref = r_l2_bound(_stack_of(table), 2.0, rng=np.random.default_rng(n))
        assert est.method == "spectral" and ref.method == "bilinear-power"
        value = est.lower
        assert est.upper == value
        assert ref.lower <= value * (1.0 + 1e-12)
        assert value <= ref.upper * (1.0 + 1e-12)
        # the witness is a unit eigenvector pair that attains the value
        x, xp = est.witness["x"], est.witness["x_prime"]
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-14)
        assert _form_at(table, x, xp) == pytest.approx(value**2, rel=1e-12)
        if n == 2:
            # no unit pair of a 1000 x 1000 grid beats the value; F is the
            # form z^H Gram z in z = vec(conj(x') x^T)
            gen = np.random.default_rng(7)

            def sphere(count):
                Z = gen.standard_normal((count, 2)) + 1j * gen.standard_normal((count, 2))
                return Z / np.linalg.norm(Z, axis=1)[:, None]

            flat = table.matrices.reshape(len(table), 4)
            gram = (flat.conj().T * table.weights) @ flat
            X, XP = sphere(1000), sphere(1000)
            top = 0.0
            for chunk in np.split(XP, 10):
                Z = (chunk.conj()[:, None, :, None] * X[None, :, None, :]).reshape(-1, 4)
                F = np.einsum("mi,ij,mj->m", Z.conj(), gram, Z).real
                top = max(top, float(F.max()))
            assert math.sqrt(top) <= value * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("spec", ["diag:1,10,100", "diag:0.2,0.9,4,11,30",
                                      "diag-logspaced:6"])
    @pytest.mark.parametrize("family", list(TestDenseReference.ARGS))
    def test_diagonal_closed_form_on_every_lp(self, family, spec, p):
        op = ops.operator_from_spec(spec)
        table = ops.family_samples(op, family, **TestDenseReference.ARGS[family])
        two = r_l2_bound(table, 2.0)
        est = r_l2_bound(table, p)
        ref = r_l2_bound(_stack_of(table), p, rng=np.random.default_rng(0))
        assert est.method == "spectral" and ref.method == "bilinear-power"
        assert est.lower == est.upper == two.lower
        assert ref.lower <= est.lower * (1.0 + 1e-12)
        # the witness e_j is a unit vector of ell^p and of ell^{p'}
        x, xp = est.witness["x"], est.witness["x_prime"]
        assert _kernels.row_norms(x[None], p)[0] == pytest.approx(1.0, rel=1e-14)
        assert _kernels.row_norms(xp[None], rbound._conjugate(p))[0] == (
            pytest.approx(1.0, rel=1e-14))
        assert _form_at(table, x, xp) == pytest.approx(est.lower**2, rel=1e-12)


def _stack_rel(got, want) -> float:
    """max_k ||got_k - want_k|| / max_k ||want_k|| over two (K, n, n) stacks."""
    return float(
        np.max(np.linalg.norm(got - want, axis=(1, 2)))
        / np.max(np.linalg.norm(want, axis=(1, 2)))
    )


class TestMellinIdentities:
    """Each identity returns both sides as eigenvalue tables; mapped
    through the eigenbasis they are compared with each other and with
    independent dense references."""

    def test_wave_mellin_identity(self):
        op = ops.sectorial(np.diag([1.0, 2.0, 5.0, 10.0]))
        t = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
        lhs, rhs = (_eig_apply_stack(op.eigenbasis, side)
                    for side in ops.wave_mellin(op, t, alpha=1.0, m=2))
        assert _stack_rel(lhs, rhs) < 1e-6

    def test_wave_taylor_identity(self):
        op = ops.sectorial(np.diag([1.0, 2.0, 4.0]))
        t = np.array([-1.0, 0.3, 2.0])
        zt = 0.5 - 1.7 + 1j * t
        lhs, _ = ops.wave_taylor_mellin(op, t, alpha=1.7, m=1)
        lhs = _eig_apply_stack(op.eigenbasis, lhs)
        lamlog = np.log(np.array([1.0, 2.0, 4.0]))
        gam = special.gamma(zt) * np.exp(1j * np.pi * zt / 2.0)
        want = np.stack(
            [g * np.diag(np.exp(-z * lamlog)) for g, z in zip(gam, zt)]
        )
        assert _stack_rel(lhs, want) < 1e-6

    def test_resolvent_bip_identity(self):
        op = ops.sectorial(np.diag([1.0, 2.0, 4.0]))
        s = np.array([-1.0, 0.0, 0.7])
        lhs, rhs = (_eig_apply_stack(op.eigenbasis, side)
                    for side in ops.resolvent_bip_mellin(op, 0.5, np.pi / 2, s))
        assert _stack_rel(lhs, rhs) < 1e-3

    @pytest.mark.parametrize("spec", ["similar:3,30", "cycle-laplacian:6"])
    def test_identities_through_a_nonnormal_eigenbasis(self, spec):
        # V != I: the tables must be mapped through the eigenbasis, and
        # each rhs must be the dense A^z = expm(z logm(A)) it stands for
        if spec.startswith("similar"):
            n, cond = spec.split(":")[1].split(",")
            op = _similar(int(n), float(cond), seed=int(n))
        else:
            op = ops.operator_from_spec(spec)
        assert np.linalg.cond(op.eigenvectors) > 1.2
        log_a = scipy.linalg.logm(op.matrix)

        def power(z):
            return scipy.linalg.expm(z * log_a)

        t = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
        s = np.array([-1.0, 0.0, 0.7])
        zt = 0.5 - 1.7 + 1j * t
        h = special.h_kernel(t, 1.0, 2)
        gam = special.gamma(zt) * np.exp(1j * np.pi * zt / 2.0)
        cases = [
            (ops.wave_mellin(op, t, alpha=1.0, m=2), 1e-6,
             [hk * power(0.5 - 1j * tk) for hk, tk in zip(h, t)]),
            (ops.wave_taylor_mellin(op, t, alpha=1.7, m=1), 1e-6,
             [g * power(-z) for g, z in zip(gam, zt)]),
            (ops.resolvent_bip_mellin(op, 0.5, np.pi / 2, s), 1e-3,
             [np.pi / np.sin(np.pi * (0.5 + 1j * sk)) * np.exp(np.pi / 2 * sk)
              * power(1j * sk) for sk in s]),
        ]
        for tables, tol, dense in cases:
            lhs, rhs = (_eig_apply_stack(op.eigenbasis, side) for side in tables)
            assert _stack_rel(rhs, np.stack(dense)) < 1e-12
            assert _stack_rel(lhs, rhs) < tol

    @pytest.mark.parametrize("spec", [
        "diag-logspaced:16", "diag:1,2", "diag:1,10,100", "diag:0.2,0.9,4,11,30",
        "diag-logspaced:6", "path-laplacian:8", "cycle-laplacian:6", "diag:3",
        "similar:3,30",
    ])
    def test_tables_match_the_per_eigenvalue_loops(self, spec):
        # bit for bit, at the CLI's parameters and one other valid pair
        # each: the identities' residuals are roundoff-sized, so their
        # kernels are summed one GEMV per eigenvalue, as the loops did
        op = _similar(3, 30.0, seed=3) if spec.startswith("similar") else (
            ops.operator_from_spec(spec))
        t, s = np.linspace(-3.0, 3.0, 13), np.linspace(-1.5, 1.5, 5)
        cases = [
            (ops.wave_mellin, per_eigenvalue_wave_mellin, (op, t, 1.0, 2)),
            (ops.wave_mellin, per_eigenvalue_wave_mellin, (op, t, 2.2, 3)),
            (ops.wave_taylor_mellin, per_eigenvalue_wave_taylor_mellin, (op, t, 1.7, 1)),
            (ops.wave_taylor_mellin, per_eigenvalue_wave_taylor_mellin, (op, t, 2.9, 2)),
            (ops.resolvent_bip_mellin, per_eigenvalue_resolvent_bip_mellin,
             (op, 0.5, np.pi / 2, s)),
            (ops.resolvent_bip_mellin, per_eigenvalue_resolvent_bip_mellin,
             (op, 0.3, np.pi / 4, s)),
        ]
        for identity, oracle, args in cases:
            for got, want in zip(identity(*args), oracle(*args)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want), (identity.__name__, args[1:])

    @pytest.mark.parametrize("spec", ["diag:1,2", "diag-logspaced:16", "cycle-laplacian:6",
                                      "similar:3,30"])
    def test_bip_table_is_the_inline_exponential(self, spec):
        # the bip core of _samples reads its powers from ops._powers; the
        # c1, c2 and bip-group-law rows need the table of the inline form
        op = _similar(3, 30.0, seed=3) if spec.startswith("similar") else (
            ops.operator_from_spec(spec))
        lam = op.eigenvalues
        for alpha in (0.0, 1.0):
            fam = ops.family_samples(op, "bip", alpha=alpha)
            t = fam.points
            scale = (1.0 + t * t) ** (-alpha / 2.0)
            want = scale[:, None] * np.exp(1j * np.outer(t, np.log(lam))) * lam**0.0
            assert np.array_equal(fam.symbols.view(np.uint64), want.view(np.uint64))

    def test_resolvent_bip_rejects_cut_angle(self):
        op = ops.sectorial(np.diag([1.0, 2.0]))
        with pytest.raises(DomainError):
            ops.resolvent_bip_mellin(op, 0.5, np.pi, np.array([0.0]))
