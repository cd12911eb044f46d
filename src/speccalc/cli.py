"""Command line runner producing comparable measurement reports.

    speccalc run --config cfg.json [--suite NAME]... [--seed N] [--out DIR]
    speccalc compare OUT_A/manifest.json OUT_B/manifest.json

`run` evaluates the configured suites on the configured operators and
writes one CSV and one JSON per suite, plot data for the angle sweeps
and slope fits, and a manifest tying everything to the sha256 of the
resolved configuration.  All randomness is seeded, so two runs from the
same configuration produce byte-identical CSV bodies; timings (the
operator build, each suite's seconds, and the whole run from the build
on) and the creation time live only in the manifest, where `compare`
does not read them.  The exit status is 0 when
every asserted invariant held, 1 when at least one row failed, 2 for a
configuration problem.  Rows whose preconditions fail (a defective
matrix asked for an eigenbasis test, a symbol the grid cannot resolve)
are recorded as skipped rather than failed; the manifest counts them
apart from the passed rows.

`compare` checks two manifests for agreement: configuration hash,
version, per-suite row counts (passed, failed and skipped), the list of
plot files, and the suite and plot CSV bodies byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import operators as ops
from . import special
from . import suite as experiments
from .corpus import load_corpus
from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    DomainError,
    NotSectorialError,
)
from .grids import SampledFunction, log_grid
from .rbound import (
    OperatorFamily,
    _eig_apply_stack,
    r_bound,
    r_l1_vs_rbound,
    r_l2_bound,
    rademacher_norm,
    square_sum_norm,
)
from .spaces import hoermander_norm, mihlin_norm, sobexp_norm, sobolev_norm
from .suite import Row

SUITES = (
    "norms",
    "identities",
    "rbound",
    "theorem-equivalence",
    "paley-littlewood",
    "sea-to-ha",
)

SKIP_ERRORS = (ConvergenceError, CoverageError, DomainError, NotSectorialError)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Run configuration; unknown file keys are rejected.

    validate checks the values that run, so cmd_run calls it once, after
    the command line has overridden the file's suites and seed.
    """

    operators: list
    suites: list = field(default_factory=lambda: list(SUITES))
    alpha: float = 1.0
    beta: float = 0.5
    space: float = 2.0
    seed: int = 0
    corpus_size: int = 200
    trials: int = 100
    fit_tol: float = 0.15

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "operators" not in raw:
            raise ConfigError("config needs an 'operators' list")
        return cls(**raw)

    def validate(self):
        """Check the type and range of every field; operator specs are
        parsed by build_operators."""

        def real(x):
            return isinstance(x, (int, float)) and not isinstance(x, bool)

        def count(x, least):
            return isinstance(x, int) and not isinstance(x, bool) and x >= least

        for name in ("operators", "suites"):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise ConfigError(f"'{name}' must be a list of strings")
            repeated = sorted({s for s in value if value.count(s) > 1})
            if repeated:
                raise ConfigError(f"'{name}' lists {', '.join(repeated)} more than once")
        bad = sorted(set(self.suites) - set(SUITES))
        if bad:
            raise ConfigError(
                f"unknown suites: {', '.join(bad)} (known: {', '.join(SUITES)})"
            )
        a, b, p, tol = self.alpha, self.beta, self.space, self.fit_tol
        # c7 and c8 need m - 1/2 < alpha < m + 1/2 with m = round(alpha) and
        # m < alpha - 1/2 < m + 1 with m = floor(alpha - 1/2) >= 0
        wave = real(a) and 0.5 < a < math.inf and a - 0.5 != math.floor(a - 0.5)
        rules = (
            ("alpha", real(a) and 0 < a < math.inf, "a finite number > 0"),
            (
                "alpha",
                wave or "theorem-equivalence" not in self.suites,
                "a number > 1/2 with alpha - 1/2 not an integer when "
                "theorem-equivalence runs",
            ),
            ("beta", real(b) and 0 < b < 1, "a number in (0, 1)"),
            ("space", real(p) and p >= 1, "an exponent p >= 1"),
            ("fit_tol", real(tol) and 0 <= tol < math.inf, "a finite number >= 0"),
            ("seed", count(self.seed, 0), "an integer >= 0"),
            ("corpus_size", count(self.corpus_size, 1), "an integer >= 1"),
            ("trials", count(self.trials, 1), "an integer >= 1"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def build_operators(self) -> dict:
        """{spec: SectorialOperator} for every configured operator, parsed once."""
        operators = {}
        for spec in self.operators:
            try:
                operators[spec] = ops.operator_from_spec(spec)
            except Exception as e:
                raise ConfigError(f"operator {spec!r}: {e}") from e
        return operators

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# serialization of (operator, Row) pairs


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return "%.12g" % x


def _slug(text: str) -> str:
    out = "".join(c if c.isalnum() else "-" for c in text)
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-")


def write_suite_csv(path: Path, name: str, rows, cfg_hash: str):
    buf = io.StringIO()
    buf.write(f"# config {cfg_hash}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["operator", "suite", "condition", "param", "value", "tolerance", "grid", "pass"]
    )
    for operator, r in rows:
        w.writerow(
            [
                operator,
                name,
                r.condition,
                r.param,
                _fmt(r.value),
                _fmt(r.tolerance),
                json.dumps(_jsonable(r.grid), sort_keys=True, separators=(",", ":")),
                "true" if r.passed else "false",
            ]
        )
    path.write_text(buf.getvalue())


def write_suite_json(path: Path, name: str, rows, cfg_hash: str):
    doc = {
        "config_hash": cfg_hash,
        "suite": name,
        "rows": [
            {
                "operator": operator,
                "condition": r.condition,
                "param": r.param,
                "value": _jsonable(r.value),
                "tolerance": _jsonable(r.tolerance),
                "grid": _jsonable(r.grid),
                "pass": bool(r.passed),
                **({"extra": _jsonable(r.extra)} if r.extra else {}),
            }
            for operator, r in rows
        ],
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def write_plot_csv(path: Path, cfg_hash: str, columns, data, comments=()):
    buf = io.StringIO()
    buf.write(f"# config {cfg_hash}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for rec in data:
        w.writerow([_fmt(v) for v in rec])
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# suite runners; each takes the config and the parsed operators by spec
# and returns (rows, plots) where rows holds (operator, Row) pairs and
# plots maps a file stem to (columns, data, comments)


def _skip(condition, param, err) -> Row:
    return Row(
        f"skipped-{condition}",
        param,
        float("nan"),
        0.0,
        {"reason": type(err).__name__, "detail": str(err)[:120]},
        True,
    )


def _grid_stacks(symbols):
    """The log-grid symbols grouped by grid, in order of first appearance:
    [(members, one SampledFunction whose rows are their samples)]."""
    groups = {}
    for f in symbols:
        if f.coordinate == "log":
            groups.setdefault((f.u0, f.du, f.n), []).append(f)
    return [
        (members, SampledFunction("log", members[0].u0, members[0].du,
                                  np.stack([f.values for f in members])))
        for members in groups.values()
    ]


def run_norms(cfg: RunConfig, operators: dict):
    rows, plots = [], {}
    symbols = load_corpus()
    stacks = _grid_stacks(symbols)
    # each norm and the calculus run once per grid, on the stack of its
    # symbols; the rows keep the corpus order
    hoermander, mihlin, applied = {}, {}, {}
    for members, stack in stacks:
        names = [f.name for f in members]
        if cfg.alpha > 0.5:
            hoermander.update(zip(names, hoermander_norm(stack, cfg.alpha)))
        mihlin.update(zip(names, mihlin_norm(stack, cfg.alpha)))
        per_operator = experiments.sobolev_calculus_apply(
            [operators[spec] for spec in cfg.operators], stack)
        for spec, outcomes in zip(cfg.operators, per_operator):
            applied.update(((spec, name), out) for name, out in zip(names, outcomes))

    for f in symbols:
        if f.coordinate != "log":
            res = sobolev_norm(f, cfg.alpha)
            rows.append(("-", Row("sobolev-norm", f.name, res.value, 0.0,
                                  {"alpha": cfg.alpha, "divergent": res.divergent})))
            continue
        res = sobexp_norm(f, cfg.alpha)
        rows.append(("-", Row("sobexp-norm", f.name, res.value, 0.0,
                              {"alpha": cfg.alpha, "divergent": res.divergent})))
        if cfg.alpha > 0.5:
            res = hoermander[f.name]
            rows.append(("-", Row("hoermander-norm", f.name, res.value, 0.0,
                                  {"alpha": cfg.alpha, "divergent": res.divergent})))
        res = mihlin[f.name]
        rows.append(("-", Row("mihlin-norm", f.name, res.value, 0.0,
                              {"gamma": cfg.alpha, "divergent": res.divergent})))
    for spec in cfg.operators:
        op = operators[spec]
        for f in symbols:
            if f.coordinate != "log":
                continue
            out = applied[spec, f.name]
            if isinstance(out, SKIP_ERRORS):
                rows.append((spec, _skip("applied-error", f.name, out)))
                continue
            if op.diagonalizable:
                table = f.eval(np.abs(op.eigenvalues))[None]
                ref = _eig_apply_stack(op.eigenbasis, table)[0]
                scale = float(np.linalg.norm(ref, 2))
                err = (
                    float(np.linalg.norm(out - ref, 2) / scale)
                    if scale > 0
                    else float(np.linalg.norm(out, 2))
                )
                rows.append((spec, Row("applied-error", f.name, err, 1e-5,
                                       {"grid_n": f.n}, err <= 1e-5)))
            else:
                rows.append((spec, Row("applied-norm", f.name,
                                       float(np.linalg.norm(out, 2)), 0.0,
                                       {"grid_n": f.n, "reference": "none"})))
    return rows, plots


def _stack_rel_error(lhs, rhs) -> float:
    """max_k ||L_k - R_k|| / max_k ||R_k|| over two (K, n, n) stacks."""
    return float(
        np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)))
        / np.max(np.linalg.norm(rhs, axis=(1, 2)))
    )


def _quadrature_row(condition, param, tol, grid, reference, integral, *args) -> Row:
    """The relative error of integral(*args) against reference; a
    quadrature that cannot vouch for its value fails its row (no skip)."""
    try:
        rel = abs(integral(*args) - reference) / abs(reference)
    except ConvergenceError as err:
        return Row(condition, param, float("nan"), tol, grid, False, {"error": str(err)})
    return Row(condition, param, rel, tol, grid, rel <= tol)


def run_identities(cfg: RunConfig, operators: dict):
    rows, plots = [], {}

    # finite-difference Gamma products and their integral representations
    val = complex(special.gamma_f_m(-1.0, 2))
    ref = 2.0 * math.log(2.0)
    rel = abs(val - ref) / abs(ref)
    rows.append(("-", Row("gamma-product", "z=-1,m=2", rel, 1e-6,
                          {"reference": "2 log 2"}, rel <= 1e-6)))
    for z, m in ((-0.5 + 0.3j, 1), (-1.3, 2), (-2.2, 3)):
        rows.append(("-", _quadrature_row(
            "kernel-integral", f"z={z:g},m={m}", 1e-8, {},
            complex(special.gamma_f_m(z, m)), special.wave_kernel_integral, z, m)))
    rows.append(("-", _quadrature_row(
        "contour-shift", "z=-1,m=2,lam=i", 1e-4, {"reference": "2 i log 2"},
        2j * math.log(2.0), special.contour_shifted_integral, -1.0, 2, 1j)))

    # the compensated Gamma modulus is flat along vertical lines
    for a in (1.0, 1.7):
        t = np.linspace(1.0, 100.0, 397)
        comp = (
            np.abs(special.gamma(0.5 - a + 1j * t))
            * np.exp(np.pi * t / 2.0)
            * t**a
        )
        ratio = float(comp.max() / comp.min())
        rows.append(("-", Row("gamma-band", f"alpha={a:g}", ratio, 4.0,
                              {"t_range": [1.0, 100.0], "level": float(comp[-1])},
                              ratio <= 4.0)))

    t_spot = np.linspace(-3.0, 3.0, 13)
    s_spot = np.linspace(-1.5, 1.5, 5)
    for spec in cfg.operators:
        op = operators[spec]
        # the Mellin identities and the contour check compare against the
        # eigenbasis; one skip row stands for all four on a defective
        # operator, whose imaginary powers still obey the group law
        if not op.diagonalizable:
            rows.append((spec, _skip("mellin-identities", "eigenbasis",
                                     NotSectorialError("no usable eigenbasis"))))
        else:
            identities = (
                ("wave-mellin", "alpha=1,m=2", {"t_points": len(t_spot)},
                 ops.wave_mellin(op, t_spot, alpha=1.0, m=2)),
                ("wave-taylor-mellin", "alpha=1.7,m=1", {"t_points": len(t_spot)},
                 ops.wave_taylor_mellin(op, t_spot, alpha=1.7, m=1)),
                ("resolvent-bip-mellin", "beta=0.5,theta=pi/2", {"s_points": len(s_spot)},
                 ops.resolvent_bip_mellin(op, 0.5, np.pi / 2, s_spot)),
            )
            for condition, param, grid, tables in identities:
                lhs, rhs = (_eig_apply_stack(op.eigenbasis, table) for table in tables)
                rel = _stack_rel_error(lhs, rhs)
                rows.append((spec, Row(condition, param, rel, 1e-3, grid, rel <= 1e-3)))

        # group law of the imaginary powers
        s, t = 0.7, -1.3
        G = ops.imaginary_powers(op, s) @ ops.imaginary_powers(op, t)
        ref = ops.imaginary_powers(op, s + t)
        rel = float(np.linalg.norm(G - ref, 2) / np.linalg.norm(ref, 2))
        rows.append((spec, Row("bip-group-law", f"s={s:g},t={t:g}", rel, 1e-10,
                               {}, rel <= 1e-10)))
        if not op.diagonalizable:
            continue

        # contour calculus against the eigenbasis
        rho = lambda z: z / (1.0 + z) ** 2
        contour_val = ops.holomorphic_calculus(op, rho)
        eig_val = _eig_apply_stack(op.eigenbasis, rho(op.eigenvalues)[None])[0]
        rel = float(
            np.linalg.norm(contour_val - eig_val, 2) / np.linalg.norm(eig_val, 2)
        )
        rows.append((spec, Row("contour-vs-eigen", "rho", rel, 1e-7, {}, rel <= 1e-7)))
    return rows, plots


def run_rbound(cfg: RunConfig, operators: dict):
    rows, plots = [], {}
    gen = np.random.default_rng(cfg.seed)

    # the sign-flip pair on ell^1: bracket must close on sqrt(2), and a
    # witness above the proven upper end fails the lower row
    pair = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    est = r_bound(pair, 1.0, rng=gen)
    root2 = math.sqrt(2.0)
    rows.append(("-", Row("pair-l1-lower", "{I,diag(1,-1)}", est.lower, 0.05,
                          {"upper": est.upper}).check_brackets(est)))
    rows.append(("-", Row("pair-l1-upper", "{I,diag(1,-1)}", est.upper, 1e-9,
                          {"reference": "sqrt(2)"}, abs(est.upper - root2) <= 1e-9)))

    # ell^1 averages of random hermitian families stay within the
    # two-point transfer factor of the plain bound
    for trial in range(3):
        k = 2 + trial % 2
        mats = []
        for _ in range(k):
            Z = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
            mats.append((Z + Z.conj().T) / 2.0)
        for p in (2.0, 1.0):
            R, RL1 = r_l1_vs_rbound(mats, p, rng=gen)
            ratio = RL1.lower / R.lower if R.lower > 0 else float("inf")
            ok = R.lower <= RL1.lower * 1.05 and RL1.lower <= 2.0 * R.lower * 1.05
            row = Row("l1-average-ratio", f"trial={trial},p={p:g}", ratio, 1.05,
                      {"R": R.lower, "R_L1": RL1.lower, "k": k}, ok)
            rows.append(("-", row.check_brackets(R, RL1)))

    # scalar decay family sqrt(t) e^{-t} I: square average 1/sqrt(2) over dt/t
    ts, w = log_grid(1e-8, 1e3, 1024)
    fam = OperatorFamily(
        label="decay",
        points=ts,
        weights=w,
        matrices=(np.sqrt(ts) * np.exp(-ts))[:, None, None] * np.eye(2)[None, :, :],
        measure="dt/t",
    )
    est = r_l2_bound(fam, 2.0)
    ref = 1.0 / math.sqrt(2.0)
    row = Row("decay-family", "e^{-t}I", est.lower, 1e-3, {"reference": "1/sqrt(2)"},
              abs(est.lower - ref) / ref <= 1e-3)
    rows.append(("-", row.check_brackets(est)))

    # first moment below the square moment on ell^2
    X = gen.standard_normal((6, 4)) + 1j * gen.standard_normal((6, 4))
    first, _ = rademacher_norm(X, 2.0)
    second = square_sum_norm(X, 2.0)
    rows.append(("-", Row("moment-order", "first<=square", first / second, 1.0,
                          {"first": first, "square": second},
                          first <= second * (1 + 1e-12))))
    return rows, plots


def run_theorem_equivalence(cfg: RunConfig, operators: dict):
    rows, plots = [], {}
    for spec in cfg.operators:
        try:
            rep = experiments.equivalence_report(
                operators[spec],
                cfg.space,
                alpha=cfg.alpha,
                beta=cfg.beta,
                fit_tol=cfg.fit_tol,
                corpus_size=cfg.corpus_size,
                seed=cfg.seed,
            )
        except SKIP_ERRORS as e:
            rows.append((spec, _skip("report", "-", e)))
            continue
        for r in rep.rows:
            if r.param == "exponent":
                # the fitted points go to a plot file, not the suite JSON
                stem = f"{_slug(spec)}-{r.condition}-angles"
                plots[stem] = (
                    ["minus_log_angle_gap", "value"],
                    list(zip(r.extra.pop("x"), r.extra.pop("y"))),
                    [f"operator {spec}", f"fitted exponent {_fmt(r.value)}"],
                )
            rows.append((spec, r))
        for name in sorted(rep.flags):
            rows.append((spec, Row("flag", name, float(bool(rep.flags[name])), 0.0)))
    return rows, plots


def run_paley_littlewood(cfg: RunConfig, operators: dict):
    rows, plots = [], {}
    for spec in cfg.operators:
        try:
            lo, hi = experiments.paley_littlewood_check(
                operators[spec], cfg.space, trials=cfg.trials, seed=cfg.seed
            )
        except SKIP_ERRORS as e:
            rows.append((spec, _skip("two-sided", "-", e)))
            continue
        spread = hi / lo if lo > 0 else float("inf")
        param = f"trials={cfg.trials}"
        rows.append((spec, Row("pl-lower", param, lo, 0.1, {"space": cfg.space}, lo >= 0.1)))
        rows.append((spec, Row("pl-upper", param, hi, 10.0, {"space": cfg.space}, hi <= 10.0)))
        rows.append((spec, Row("pl-spread", param, spread, 10.0, {}, spread <= 10.0)))
    return rows, plots


def run_sea_to_ha(cfg: RunConfig, operators: dict):
    rows, plots = [], {}
    xs = (1e-1, 1e-2, 1e-3)
    hs = []
    for x in xs:
        z = complex(x, math.sqrt(1.0 - x * x))
        g, h = experiments.sea_to_ha_decomposition(z)
        hs.append(h)
        rows.append(("-", Row("bounded-part", f"re={x:g}", g, 1e-9,
                              {"reference": 1.0}, abs(g - 1.0) <= 1e-9)))
        exact = experiments._h_norm_closed_form(z)
        rows.append(("-", Row("square-part", f"re={x:g}", h, 1e-10, {},
                              abs(h - exact) <= 1e-10 * exact, {"closed_form": exact})))
    slope = float(np.polyfit(np.log(xs), np.log(hs), 1)[0])
    rows.append(("-", Row("h-slope", "re z -> 0", slope, 0.2,
                          {"points": list(xs)}, -1.2 <= slope <= -0.8)))
    plots["sea-to-ha-slope"] = (
        ["re_z", "h_norm"],
        list(zip(xs, hs)),
        [f"fitted slope {_fmt(slope)}"],
    )
    return rows, plots


RUNNERS = {
    "norms": run_norms,
    "identities": run_identities,
    "rbound": run_rbound,
    "theorem-equivalence": run_theorem_equivalence,
    "paley-littlewood": run_paley_littlewood,
    "sea-to-ha": run_sea_to_ha,
}


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    cfg = RunConfig.from_file(args.config)
    if args.suite:
        cfg.suites = list(args.suite)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    started = time.perf_counter()
    operators = cfg.build_operators()
    build_seconds = time.perf_counter() - started
    cfg_hash = cfg.hash()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plot_dir = out / "plots"

    outputs, plot_files = {}, []
    failed_total = 0
    for name in cfg.suites:
        suite_started = time.perf_counter()
        rows, plots = RUNNERS[name](cfg, operators)
        seconds = time.perf_counter() - suite_started
        csv_path = out / f"{name}.csv"
        json_path = out / f"{name}.json"
        write_suite_csv(csv_path, name, rows, cfg_hash)
        write_suite_json(json_path, name, rows, cfg_hash)
        failed = sum(1 for _, r in rows if not r.passed)
        # a skipped row passes its CSV flag but counts as no pass
        skipped = sum(1 for _, r in rows if r.condition.startswith("skipped-"))
        failed_total += failed
        outputs[name] = {
            "csv": csv_path.name,
            "json": json_path.name,
            "rows": len(rows),
            "passed": len(rows) - failed - skipped,
            "failed": failed,
            "skipped": skipped,
            "seconds": round(seconds, 4),
        }
        for stem, (columns, data, comments) in sorted(plots.items()):
            plot_dir.mkdir(parents=True, exist_ok=True)
            p = plot_dir / f"{stem}.csv"
            write_plot_csv(p, cfg_hash, columns, data, comments)
            plot_files.append(str(p.relative_to(out)))
        print(f"{name}: {len(rows)} rows, {failed} failed, {skipped} skipped")

    manifest = {
        "config_hash": cfg_hash,
        "config": asdict(cfg),
        "version": __version__,
        "seed": cfg.seed,
        "suites": list(cfg.suites),
        "outputs": outputs,
        "plot_files": plot_files,
        "build_seconds": round(build_seconds, 4),
        "wallclock_seconds": round(time.perf_counter() - started, 3),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    )
    print(f"manifest: {out / 'manifest.json'} (config {cfg_hash[:12]})")
    return 1 if failed_total else 0


def cmd_compare(args) -> int:
    path_a, path_b = Path(args.manifest_a), Path(args.manifest_b)
    try:
        man_a = json.loads(path_a.read_text())
        man_b = json.loads(path_b.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot load manifest: {e}") from e
    for path, man in ((path_a, man_a), (path_b, man_b)):
        if not isinstance(man, dict):
            raise ConfigError(f"manifest {path} is not a JSON object")
        outputs, plots = man.get("outputs", {}), man.get("plot_files", [])
        if not (
            isinstance(outputs, dict)
            and all(isinstance(o, dict) and isinstance(o.get("csv"), str)
                    for o in outputs.values())
            and isinstance(plots, list)
            and all(isinstance(rel, str) for rel in plots)
        ):
            raise ConfigError(
                f"manifest {path}: every output must name its csv file, "
                "and plot_files must list file names"
            )

    diffs = []
    for key in ("config_hash", "version", "seed", "suites"):
        if man_a.get(key) != man_b.get(key):
            diffs.append(f"{key}: {man_a.get(key)!r} != {man_b.get(key)!r}")
    common = sorted(
        set(man_a.get("outputs", {})) & set(man_b.get("outputs", {}))
    )
    for name in sorted(
        set(man_a.get("outputs", {})) ^ set(man_b.get("outputs", {}))
    ):
        diffs.append(f"suite {name}: present in only one run")
    files = []  # (label, path in run a, path in run b) of every CSV compared
    for name in common:
        oa, ob = man_a["outputs"][name], man_b["outputs"][name]
        for key in ("rows", "passed", "failed", "skipped"):
            if oa.get(key) != ob.get(key):
                diffs.append(f"{name}.{key}: {oa.get(key)} != {ob.get(key)}")
        files.append((name, oa["csv"], ob["csv"]))
    plots_a, plots_b = man_a.get("plot_files", []), man_b.get("plot_files", [])
    if plots_a != plots_b:
        diffs.append(f"plot_files: {plots_a!r} != {plots_b!r}")
    files += [(rel, rel, rel) for rel in plots_a if rel in plots_b]
    for label, rel_a, rel_b in files:
        try:
            body_a = (path_a.parent / rel_a).read_bytes()
            body_b = (path_b.parent / rel_b).read_bytes()
        except OSError as e:
            diffs.append(f"{label}: cannot read CSV ({e})")
            continue
        if body_a != body_b:
            diffs.append(f"{label}: CSV bodies differ")
    if diffs:
        for d in diffs:
            print(f"DIFFER  {d}")
        return 1
    print(
        f"IDENTICAL  {len(common)} suites, {len(plots_a)} plots, "
        f"config {man_a.get('config_hash', '')[:12]}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speccalc",
        description="measure multiplier-condition suites on matrix operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate suites and write a report")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help="run only this suite (repeatable); overrides the config list",
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", default="speccalc-out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run manifests")
    p_cmp.add_argument("manifest_a")
    p_cmp.add_argument("manifest_b")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
