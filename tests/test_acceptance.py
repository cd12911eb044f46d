"""Fifteen gate checks, one test per check, each printing its verdict.

These pin the package's headline numbers end to end: the Gamma product
behind the wave kernels, the contour shift, the Mellin bridges between
the operator families and the imaginary powers, the corpus averages
against their closed forms, the dilation and growth behaviour of the
localized norms, the dyadic square-function bounds, the randomized
family brackets, the semigroup symbol splitting, and the determinism of
the command line runner.  Tolerances are pinned; a change that moves any
of these numbers must be deliberate.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning
from scipy.optimize import curve_fit

import speccalc
from speccalc import operators as ops
from speccalc import rbound, special
from speccalc import suite as experiments
from speccalc.grids import SampledFunction
from speccalc.rbound import _eig_apply_stack
from speccalc.spaces import hoermander_norm, sobexp_norm

from oracles import dilate

TWO_LN2 = 2.0 * math.log(2.0)


def verdict(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} [{label}] {detail}")
    assert ok, f"[{label}] {detail}"


def unit_pairs(dim: int, count: int, seed: int):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        x = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        y = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        yield x / np.linalg.norm(x), y / np.linalg.norm(y)


def bilinear(stack: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<M_t x, y> down a (T, n, n) stack."""
    return np.einsum("i,tij,j->t", np.conj(y), stack, x)


def log_symbol(fn, n: int = 1 << 12) -> SampledFunction:
    return SampledFunction.from_callable(fn, "log", 1e-8, 1e8, n)


def test_01_wave_integral_matches_gamma_product():
    # quad reports roundoff at a few grid points; each such warning must
    # name its own point, and the value there must still be right
    worst = 0.0
    warned = []
    for m in (1, 2, 3):
        re = np.linspace(-m + 0.08, -0.08, 5)
        im = np.array([-1.3, -0.4, 0.6, 1.2])
        for z in (re[:, None] + 1j * im[None, :]).ravel():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = special.wave_kernel_integral(z, m)
            want = special.gamma_f_m(z, m)
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            for w in caught:
                assert issubclass(w.category, IntegrationWarning), str(w.message)
                assert f"z={complex(z)}, m={m}" in str(w.message), str(w.message)
                assert rel <= 1e-8, (z, m, rel)
                warned.append(f"z={complex(z)},m={m}")
    t0 = time.monotonic()
    removable = special.wave_kernel_integral(-1.0, 2)
    elapsed = time.monotonic() - t0
    err = abs(removable - TWO_LN2) / TWO_LN2
    verdict(
        worst <= 1e-8 and err <= 1e-6 and elapsed < 5.0,
        "01 gamma product",
        f"grid rel {worst:.2e} (<=1e-8), 2ln2 rel {err:.2e} (<=1e-6), "
        f"{elapsed:.2f}s (<5s), roundoff warned at {warned or 'no point'}",
    )


def test_02_contour_shift_to_imaginary_base_point():
    got = special.contour_shifted_integral(-1.0, 2, 1j)
    want = 2j * math.log(2.0)
    err = abs(got - want) / abs(want)
    verdict(err <= 1e-4, "02 contour shift", f"rel {err:.2e} (<=1e-4) at lambda=i")


def test_03_gamma_band_is_flat_after_compensation():
    t = np.linspace(1.0, 100.0, 397)
    ratios = {}
    for alpha in (1.0, 1.7):
        comp = (
            np.abs(special.gamma(0.5 - alpha + 1j * t))
            * np.exp(np.pi * t / 2.0)
            * t**alpha
        )
        ratios[alpha] = float(comp.max() / comp.min())
    ok = all(r <= 4.0 for r in ratios.values())
    verdict(
        ok,
        "03 gamma band",
        f"max/min ratio {ratios[1.0]:.3f} (alpha=1), {ratios[1.7]:.3f} "
        f"(alpha=1.7), both <=4",
    )


def test_04_wave_mellin_equals_imaginary_power_bilinearly():
    t0 = time.monotonic()
    A = np.diag([1.0, 2.0, 5.0, 10.0])
    t_grid = np.linspace(-3.0, 3.0, 13)
    half = ops.fractional_power(A, -0.5)
    lhs, _ = ops.wave_mellin(A, t_grid, alpha=1.0, m=2)
    lhs = half[None] @ _eig_apply_stack(ops.sectorial(A).eigenbasis, lhs)
    h = special.h_kernel(t_grid, 1.0, 2, sign=-1)
    rhs = h[:, None, None] * ops.imaginary_powers(A, -t_grid)
    worst = 0.0
    for x, y in unit_pairs(4, 20, seed=11):
        num = bilinear(lhs, x, y)
        ref = bilinear(rhs, x, y)
        worst = max(worst, float(np.max(np.abs(num - ref)) / np.max(np.abs(ref))))
    elapsed = time.monotonic() - t0
    verdict(
        worst <= 1e-3 and elapsed < 30.0,
        "04 wave mellin",
        f"worst pair rel {worst:.2e} (<=1e-3) over 20 pairs, {elapsed:.1f}s (<30s)",
    )


def test_05_taylor_wave_mellin_equals_gamma_times_power():
    A = np.diag([1.0, 2.0, 5.0, 10.0])
    lam = np.diag(A)
    t_grid = np.linspace(-3.0, 3.0, 13)
    lhs, _ = ops.wave_taylor_mellin(A, t_grid, alpha=1.7, m=1)
    lhs = _eig_apply_stack(ops.sectorial(A).eigenbasis, lhs)
    zt = 0.5 - 1.7 + 1j * t_grid
    gam = special.gamma(zt) * np.exp(1j * np.pi * zt / 2.0)
    powers = lam[None, :] ** (-zt[:, None])
    rhs = gam[:, None, None] * (np.eye(4)[None] * powers[:, None, :])
    worst = 0.0
    for x, y in unit_pairs(4, 20, seed=12):
        num = bilinear(lhs, x, y)
        ref = bilinear(rhs, x, y)
        worst = max(worst, float(np.max(np.abs(num - ref)) / np.max(np.abs(ref))))
    verdict(
        worst <= 1e-3,
        "05 taylor wave mellin",
        f"worst pair rel {worst:.2e} (<=1e-3) over 20 pairs, alpha=1.7",
    )


def test_06_weighted_imaginary_powers_average_near_sqrt_pi():
    spectra = {
        "diag(1,2,5,10)": np.diag([1.0, 2.0, 5.0, 10.0]),
        "logspaced 8": np.diag(np.logspace(-1.0, 1.0, 8)),
        "diag(.5,3,40)": np.diag([0.5, 3.0, 40.0]),
    }
    devs = {}
    for name, A in spectra.items():
        fam = ops.family_samples(A, "bip", alpha=1.0)
        value = rbound.r_l2_bound(fam, 2.0).lower
        devs[name] = abs(value / math.sqrt(math.pi) - 1.0)
    ok = all(d <= 0.02 for d in devs.values())
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in devs.items())
    verdict(ok, "06 bip average", f"|value/sqrt(pi) - 1| <= 0.02 on 3 spectra ({detail})")


def test_07_corpus_sup_bridges_to_the_family_average():
    op = ops.sectorial(np.diag([1.0, 2.0, 4.0]))
    corpus = experiments.multiplier_corpus(op, 1.0, size=200, seed=0)
    c1 = experiments.condition_c1(op, 2.0, corpus).value
    c2 = experiments.condition_c2_to_c8(op, 2.0)["c2"][0].value
    bridge = c2 / (2.0 * np.pi * c1)
    verdict(
        0.95 <= bridge <= 1.05,
        "07 corpus bridge",
        f"c2/(2 pi c1) = {bridge:.4f} in [0.95, 1.05] (200 symbols)",
    )


def test_08_ray_resolvents_scalar_value_and_angle_growth():
    assert experiments.RESOLVENT_ANGLES == (np.pi, np.pi / 2, np.pi / 4, np.pi / 8)
    scalar_rows = experiments.condition_c2_to_c8(np.diag([1.0]), 2.0)["c3"]
    at_pi = next(r.value for r in scalar_rows if r.param == f"theta={np.pi:.6g}")
    expos = []
    for A in (np.diag(np.logspace(-1, 1, 8)), np.diag(np.logspace(0, 2, 6))):
        rows = experiments.condition_c2_to_c8(A, 2.0, alpha=1.0)["c3"]
        expos.append(next(r.value for r in rows if r.param == "exponent"))
    ok = abs(at_pi - 1.0) <= 0.01 and all(x <= 1.0 for x in expos)
    verdict(
        ok,
        "08 ray resolvents",
        f"scalar c3(pi) = {at_pi:.4f} (within 1% of 1), exponents "
        + ", ".join(f"{x:.3f}" for x in expos)
        + " <= alpha=1 on 2-decade spectra",
    )


def test_09_wave_family_average_is_sqrt_two_pi():
    op = ops.sectorial(np.diag(np.logspace(-1, 1, 8)))
    c7 = experiments.condition_c2_to_c8(op, 2.0)["c7"][0].value
    err = abs(c7 / math.sqrt(2.0 * np.pi) - 1.0)
    verdict(err <= 0.01, "09 wave average", f"|c7/sqrt(2 pi) - 1| = {err:.4f} (<=0.01)")


def test_10_localized_norm_is_dilation_stable():
    symbols = {
        "rho": lambda s: np.sqrt(s) / (1.0 + s),
        "log bump": lambda s: np.exp(-np.log(s) ** 2 / 4.0),
        "low pass": lambda s: 1.0 / (1.0 + s),
        "band": lambda s: s / (1.0 + s * s),
        "high pass": lambda s: s / (1.0 + s),
    }
    scales = (math.exp(1.0 / 3.0), math.e, math.exp(3.5))
    lo, hi = 1.0, 0.0
    for fn in symbols.values():
        f = log_symbol(fn)
        base = hoermander_norm(f, 1.0).value
        for t in scales:
            ratio = hoermander_norm(dilate(f, t), 1.0).value / base
            lo, hi = min(lo, ratio), max(hi, ratio)
    verdict(
        0.5 <= lo and hi <= 2.0,
        "10 dilation stability",
        f"ratio range [{lo:.3f}, {hi:.3f}] within [0.5, 2] "
        f"(5 symbols, 3 scales up to e^3.5)",
    )


def test_11_imaginary_power_symbol_grows_like_s_to_alpha():
    shifts = np.array([1.0, 4.0, 16.0, 64.0])

    def symbol(s):
        return log_symbol(lambda lam: np.exp(1j * s * np.log(lam)), n=1 << 13)

    # least-squares power fit in linear space: the growth law holds
    # asymptotically, and a log-log slope would let the window's own
    # spectral width (an O(1) floor at small s) bias the exponent down
    exponents = {}
    for alpha in (1.0, 1.5):
        vals = np.array([hoermander_norm(symbol(s), alpha).value for s in shifts])
        (_, e), _ = curve_fit(
            lambda x, c, e: c * x**e, 1.0 + shifts, vals, p0=[1.0, alpha]
        )
        exponents[alpha] = float(e)
    growth_ok = all(abs(e - a) <= 0.1 * a for a, e in exponents.items())
    divergent = all(sobexp_norm(symbol(s), 1.0).divergent for s in shifts)
    verdict(
        growth_ok and divergent,
        "11 imaginary powers",
        f"H^alpha exponents {exponents[1.0]:.3f} (alpha=1), {exponents[1.5]:.3f} "
        f"(alpha=1.5), both within 10%; global norm flagged divergent",
    )


def test_12_dyadic_blocks_are_two_sided():
    t0 = time.monotonic()
    op = ops.operator_from_spec("diag-logspaced:32")
    lo, hi = op.spectral_bounds()
    blocks = range(math.floor(math.log2(lo)), math.ceil(math.log2(hi)) + 1)
    lo_r, hi_r = experiments.paley_littlewood_check(
        op, 2.0, trials=100, seed=0
    )
    elapsed = time.monotonic() - t0
    verdict(
        len(blocks) >= 6
        and 0.1 <= lo_r
        and hi_r <= 10.0
        and hi_r / lo_r <= 10.0
        and elapsed < 60.0,
        "12 dyadic blocks",
        f"{len(blocks)} blocks (>=6), ratios [{lo_r:.3f}, {hi_r:.3f}] in "
        f"[0.1, 10], spread {hi_r / lo_r:.2f} (<=10), {elapsed:.1f}s (<60s)",
    )


def test_14_l1_hull_doubles_the_family_bound_at_most():
    worst_hi, worst_lo = 0.0, 0.0
    for seed, k in ((0, 2), (1, 3), (2, 3)):
        gen = np.random.default_rng(seed)
        mats = []
        for _ in range(k):
            Z = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
            mats.append((Z + Z.conj().T) / 2.0)
        for p in (2.0, 1.0):
            R, RL1 = rbound.r_l1_vs_rbound(
                np.stack(mats), p, rng=np.random.default_rng(seed + 100)
            )
            worst_hi = max(worst_hi, RL1.lower / (2.0 * R.lower))
            worst_lo = max(worst_lo, R.lower / RL1.lower)
    verdict(
        worst_hi <= 1.05 and worst_lo <= 1.05,
        "14 l1 hull bracket",
        f"RL1/(2R) <= {worst_hi:.3f}, R/RL1 <= {worst_lo:.3f} (both <=1.05, "
        "3 hermitian families, p in {2, 1})",
    )


def test_15_semigroup_symbol_splits_with_the_right_blowup():
    xs = np.array([1e-1, 1e-2, 1e-3])
    h_vals, g_vals = [], []
    for x in xs:
        g, h = experiments.sea_to_ha_decomposition(x + 1j * math.sqrt(1.0 - x * x))
        g_vals.append(g)
        h_vals.append(h)
    slope = float(np.polyfit(np.log(xs), np.log(h_vals), 1)[0])
    exact = all(g == 1.0 for g in g_vals)
    verdict(
        exact and -1.2 <= slope <= -0.8,
        "15 symbol splitting",
        f"sup|g| = 1 exactly on the sector boundary, h slope {slope:.4f} "
        "in [-1.2, -0.8]",
    )


def test_16_runner_finishes_fast_and_reruns_identically(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operators": ["diag-logspaced:16"], "seed": 0}))
    outs = (tmp_path / "r1", tmp_path / "r2")
    # the runner imports the package these tests import, installed or not
    src = os.path.dirname(os.path.dirname(speccalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    elapsed = []
    for out in outs:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "speccalc.cli", "run",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        elapsed.append(time.monotonic() - t0)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    man = json.loads((outs[0] / "manifest.json").read_text())
    identical = all(
        (outs[0] / f"{name}.csv").read_bytes() == (outs[1] / f"{name}.csv").read_bytes()
        for name in man["suites"]
    )
    verdict(
        identical and max(elapsed) < 300.0,
        "16 runner determinism",
        f"{len(man['suites'])} suites in {elapsed[0]:.1f}s (<300s), "
        "rerun byte-identical",
    )
