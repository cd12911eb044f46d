"""End-to-end checks of the command line runner."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speccalc
from speccalc import operators as ops
from speccalc import rbound, special, suite
from speccalc.cli import SUITES, RunConfig, main
from speccalc.errors import ConfigError, ConvergenceError, DomainError

from oracles import per_matrix_operator_norm


def write_config(tmp_path, **overrides):
    cfg = {"operators": ["diag:1,2"], "suites": ["sea-to-ha"]}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# config ")
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def equivalence_run(tmp_path_factory):
    """The output directory of one theorem-equivalence run on a normal
    and a Jordan operator."""
    tmp = tmp_path_factory.mktemp("eq")
    path = write_config(
        tmp, operators=["diag:1,2", "jordan:1,3"],
        suites=["theorem-equivalence"], corpus_size=30,
    )
    out = tmp / "eq"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    return out


class TestConfig:
    def test_unknown_keys_are_rejected(self, tmp_path):
        path = write_config(tmp_path, typo_field=1)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "moebius:7", "jordan:1,2,3", "jordan:1", "diag-logspaced:2.5",
            "cycle-laplacian:", "jordan:1,2.5", "diag:1,x",
        ],
    )
    def test_bad_operator_is_rejected(self, tmp_path, capsys, spec):
        path = write_config(tmp_path, operators=["diag:1,2", spec])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"operator {spec!r}" in err
        # the preset's own error, not a bare int() or float() one
        assert "invalid literal" not in err and "could not convert" not in err

    @pytest.mark.parametrize("spec", ["diag:nan", "diag:inf"])
    def test_non_finite_operator_is_a_config_error(self, tmp_path, capsys, spec):
        path = write_config(tmp_path, operators=[spec])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        entry = spec.split(":")[1]
        err = capsys.readouterr().err
        assert (f"config error: operator {spec!r}: matrix entry (0, 0) is ({entry}+0j), "
                "not a finite number") in err
        assert "SVD" not in err and "infs or NaNs" not in err

    def test_bad_suite_is_rejected(self, tmp_path):
        path = write_config(tmp_path, suites=["sea-to-ha", "astrology"])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        good = write_config(tmp_path)
        for suites in (["astrology"], ["sea-to-ha", "sea-to-ha"]):
            flags = [arg for name in suites for arg in ("--suite", name)]
            rc = main(["run", "--config", str(good), *flags, "--out", str(tmp_path / "o")])
            assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_missing_and_malformed_files(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": -1.0},
            {"alpha": 0.5},
            {"alpha": 1.5},
            {"beta": 1.5},
            {"space": 0.5},
            {"seed": -2},
            {"seed": "x"},
            {"seed": True},
            {"seed": 1.5},
            {"alpha": "1"},
            {"beta": "0.5"},
            {"space": "2"},
            {"trials": 0},
            {"corpus_size": 0},
            {"corpus_size": True},
            {"fit_tol": -1},
            {"fit_tol": float("nan")},
            {"suites": [1]},
            {"suites": ["norms", "norms"]},
            {"operators": ["diag:1,2", "diag:1,2"]},
        ],
        ids=repr,
    )
    def test_parameter_ranges(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **{"suites": list(SUITES), **overrides})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_alpha_without_a_wave_window_runs_without_theorem_equivalence(
        self, tmp_path, capsys
    ):
        path = write_config(tmp_path, alpha=0.4, suites=list(SUITES))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "alpha must be" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--suite", "norms", "--out", str(out)]) == 0

    def test_alpha_rule_is_the_wave_families_domain(self):
        # validate rejects exactly the alpha at which c7 or c8 cannot
        # sample its family, so no such run ends in a skipped report
        op = ops.operator_from_spec("diag:1,2")
        grid = [0.25, 0.4, 0.5, math.nextafter(0.5, 1.0), 0.75, 1.0,
                math.nextafter(1.5, 0.0), 1.5, math.nextafter(1.5, 2.0), 2.5, 3.7]
        for alpha in grid:
            cfg = RunConfig(operators=["diag:1,2"], alpha=alpha)
            try:
                cfg.validate()
                rejected = False
            except ConfigError:
                rejected = True
            raises = False
            for _, _, family, kwargs in suite._condition_table(alpha, 0.5):
                if family in ("wave", "wave-taylor"):
                    try:
                        ops.family_samples(op, family, n=16, **kwargs)
                    except DomainError:
                        raises = True
            assert rejected == raises, alpha

    def test_hash_ignores_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"operators": ["diag:1,2"], "alpha": 1.25}')
        b.write_text('{"alpha": 1.25, "operators": ["diag:1,2"]}')
        assert RunConfig.from_file(a).hash() == RunConfig.from_file(b).hash()

    def test_hash_tracks_every_field(self, tmp_path):
        base = RunConfig.from_file(write_config(tmp_path)).hash()
        assert RunConfig.from_file(write_config(tmp_path, seed=5)).hash() != base
        assert RunConfig.from_file(write_config(tmp_path, alpha=1.2)).hash() != base


class TestRun:
    def test_minimal_run_layout(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["suites"] == ["sea-to-ha"]
        assert man["outputs"]["sea-to-ha"]["failed"] == 0
        assert (out / "sea-to-ha.csv").exists()
        assert (out / "sea-to-ha.json").exists()
        rows = read_rows(out / "sea-to-ha.csv")
        assert {"operator", "suite", "condition", "param", "value",
                "tolerance", "grid", "pass"} <= set(rows[0])
        doc = json.loads((out / "sea-to-ha.json").read_text())
        assert doc["config_hash"] == man["config_hash"]
        assert len(doc["rows"]) == len(rows) == man["outputs"]["sea-to-ha"]["rows"]

    def test_manifest_times_the_build_and_each_suite(self, tmp_path, monkeypatch):
        build = ops.operator_from_spec

        def slow_build(spec):
            time.sleep(0.2)
            return build(spec)

        monkeypatch.setattr(ops, "operator_from_spec", slow_build)
        path = write_config(tmp_path, suites=["norms", "sea-to-ha"])
        out = tmp_path / "timed"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        seconds = [man["outputs"][name]["seconds"] for name in ("norms", "sea-to-ha")]
        assert all(s > 0 for s in seconds)
        # the run's clock starts before the operators are built
        assert man["build_seconds"] >= 0.2
        assert man["wallclock_seconds"] + 1e-3 >= man["build_seconds"] + sum(seconds)

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, suites=["rbound", "sea-to-ha"], seed=3)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("rbound.csv", "sea-to-ha.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_suite_and_seed_overrides(self, tmp_path):
        path = write_config(tmp_path, suites=["rbound", "sea-to-ha"])
        out = tmp_path / "o"
        assert main(
            ["run", "--config", str(path), "--suite", "sea-to-ha",
             "--seed", "9", "--out", str(out)]
        ) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["suites"] == ["sea-to-ha"]
        assert man["seed"] == 9
        assert not (out / "rbound.csv").exists()

    def test_each_operator_is_parsed_once(self, tmp_path, monkeypatch):
        built = []
        wrap = ops.sectorial

        def counting(A, *args, **kwargs):
            if not isinstance(A, ops.SectorialOperator):
                built.append(A)
            return wrap(A, *args, **kwargs)

        monkeypatch.setattr(ops, "sectorial", counting)
        specs = ["diag:1,2", "diag-logspaced:4"]
        path = write_config(
            tmp_path, operators=specs, suites=["identities", "paley-littlewood"]
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(built) == len(specs)

    def test_norms_suite_records_expected_skips(self, tmp_path):
        path = write_config(tmp_path, suites=["norms"])
        out = tmp_path / "n"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_rows(out / "norms.csv")
        conditions = {r["condition"] for r in rows}
        assert "sobexp-norm" in conditions
        assert "applied-error" in conditions
        # symbols that keep oscillating or growing at the grid edge are
        # recorded as skipped, never as failures
        skips = [r for r in rows if r["condition"].startswith("skipped-")]
        assert skips and all(r["pass"] == "true" for r in skips)

    def test_defective_operator_keeps_its_group_law_row(self, tmp_path):
        # no eigenbasis: one skip row stands for the Mellin identities and
        # the contour check, while the imaginary powers still obey the
        # group law A^{is} A^{it} = A^{i(s+t)}
        path = write_config(tmp_path, operators=["jordan:1.5,4"], suites=["identities"])
        out = tmp_path / "id"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = [r for r in read_rows(out / "identities.csv") if r["operator"] == "jordan:1.5,4"]
        assert [r["condition"] for r in rows] == ["skipped-mellin-identities", "bip-group-law"]
        law = rows[1]
        assert law["pass"] == "true"
        assert float(law["value"]) <= float(law["tolerance"]) == 1e-10

    def test_equivalence_suite_emits_plots_and_flags(self, equivalence_run):
        out = equivalence_run
        man = json.loads((out / "manifest.json").read_text())
        assert any("c3-angles" in p for p in man["plot_files"])
        rows = read_rows(out / "theorem-equivalence.csv")
        flags = {r["param"] for r in rows if r["condition"] == "flag"}
        assert "equivalence_asserted" in flags
        # every c2-c8 bracket carries its upper end in the JSON only
        doc = json.loads((out / "theorem-equivalence.json").read_text())
        bracketed = [
            r for r in doc["rows"]
            if r["condition"] in ("c2", "c3", "c4", "c5", "c6", "c7", "c8")
            and r["param"] != "exponent"
        ]
        # per operator: 13 families, 3 beta-sweep rays, 2 refined grids
        assert len(bracketed) == 2 * 18
        for r in bracketed:
            key = (r["operator"], r["condition"], r["param"])
            if r["operator"] == "diag:1,2":
                # a normal operator's value is closed: lower == upper
                assert r["extra"]["method"] == "spectral", key
                assert r["value"] == r["extra"]["upper"], key
            else:
                assert r["extra"]["method"] == "bilinear-power", key
                assert r["value"] <= r["extra"]["upper"], key
        assert all("upper" not in r["grid"] for r in rows)

    def test_refined_rows_carry_their_drift_in_the_json(self, equivalence_run):
        out = equivalence_run
        csv_rows = read_rows(out / "theorem-equivalence.csv")
        doc = json.loads((out / "theorem-equivalence.json").read_text())
        refined = [r for r in doc["rows"] if r["param"] == "refined"]
        assert sorted((r["operator"], r["condition"]) for r in refined) == [
            ("diag:1,2", "c2"), ("diag:1,2", "c7"),
            ("jordan:1,3", "c2"), ("jordan:1,3", "c7"),
        ]
        for r in refined:
            # the base value is the condition's first row
            same = [
                c for c in csv_rows
                if (c["operator"], c["condition"]) == (r["operator"], r["condition"])
            ]
            base = float(same[0]["value"])
            fine = float(next(c["value"] for c in same if c["param"] == "refined"))
            want = abs(fine - base) / abs(base)
            assert r["extra"]["drift"] == pytest.approx(want, rel=1e-9, abs=1e-11)
        # no other row carries a drift
        assert sum("drift" in r.get("extra", {}) for r in doc["rows"]) == len(refined)

    def test_inverted_bracket_fails_the_pair_row(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, suites=["rbound"])
        out = tmp_path / "clean"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "rbound.json").read_text())
        assert all("bracket_violation" not in r.get("extra", {}) for r in doc["rows"])
        # a transfer constant far too small on the pair's space (l^1 on C^2)
        # drives the proven upper end below the witness: the row fails
        transfer = rbound._transfer_constant
        monkeypatch.setattr(
            rbound, "_transfer_constant",
            lambda p, n: 1e-6 if (p, n) == (1.0, 2) else transfer(p, n),
        )
        out = tmp_path / "inverted"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        doc = json.loads((out / "rbound.json").read_text())
        row = next(r for r in doc["rows"] if r["condition"] == "pair-l1-lower")
        assert not row["pass"]
        violation = row["extra"]["bracket_violation"]
        assert violation["lower"] == row["value"]
        assert violation["proven_upper"] == pytest.approx(1e-6)

    def test_inverted_brackets_fail_the_rbound_rows(self, tmp_path, monkeypatch):
        # with every transfer constant far too small, each bracket off the
        # closed forms inverts: the run ends with failed rows, no traceback
        monkeypatch.setattr(rbound, "_transfer_constant", lambda p, n: 1e-6)
        path = write_config(tmp_path, suites=["rbound"])
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        doc = json.loads((out / "rbound.json").read_text())
        inverted = {
            (r["condition"], r["param"])
            for r in doc["rows"] if "bracket_violation" in r.get("extra", {})
        }
        assert inverted == {
            ("pair-l1-lower", "{I,diag(1,-1)}"), ("decay-family", "e^{-t}I"),
            *(("l1-average-ratio", f"trial={t},p=1") for t in range(3)),
        }
        assert not any(r["pass"] for r in doc["rows"]
                       if (r["condition"], r["param"]) in inverted)

    def test_inverted_brackets_fail_the_report_instead_of_skipping_it(
        self, tmp_path, monkeypatch
    ):
        # an inverted bracket is a failure of the row built from it, never
        # a precondition that turns the whole report into a passing skip
        monkeypatch.setattr(rbound, "_transfer_constant", lambda p, n: 1e-6)
        path = write_config(
            tmp_path, operators=["jordan:1,3"], suites=["theorem-equivalence"],
            corpus_size=30,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        doc = json.loads((out / "theorem-equivalence.json").read_text())
        assert not any(r["condition"].startswith("skipped-") for r in doc["rows"])
        bracketed = [
            r for r in doc["rows"]
            if r["condition"] in ("c2", "c3", "c4", "c5", "c6", "c7", "c8")
            and r["param"] != "exponent"
        ]
        # 13 families, 3 beta-sweep rays, 2 refined grids
        assert len(bracketed) == 18
        for r in bracketed:
            assert not r["pass"]
            violation = r["extra"]["bracket_violation"]
            assert violation["lower"] == r["value"]
            assert violation["proven_upper"] == r["extra"]["upper"] < r["value"]

    def test_a_failed_quadrature_fails_its_row_not_the_run(self, tmp_path, monkeypatch):
        # a Gamma integral that cannot vouch for its value fails its own
        # row: no traceback, no skip, and every other row as before
        path = write_config(tmp_path, suites=["identities"])
        clean = tmp_path / "clean"
        assert main(["run", "--config", str(path), "--out", str(clean)]) == 0

        def refuse(integrand, hi, limit, where):
            raise ConvergenceError(f"{where}: quadrature error estimate 1.00e+00 too large")

        monkeypatch.setattr(special, "_log_quad", refuse)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        before = json.loads((clean / "identities.json").read_text())["rows"]
        after = json.loads((out / "identities.json").read_text())["rows"]
        key = lambda r: (r["operator"], r["condition"], r["param"])
        assert [key(r) for r in after] == [key(r) for r in before]
        failed = [r for r in after if not r["pass"]]
        assert [r["condition"] for r in failed] == ["kernel-integral"] * 3 + ["contour-shift"]
        for r in failed:
            assert math.isnan(r["value"])
            assert "too large" in r["extra"]["error"]
        failed_keys = {key(r) for r in failed}
        assert [r for r in after if r["pass"]] == [
            r for r in before if key(r) not in failed_keys
        ]
        assert not any(r["condition"].startswith("skipped-") for r in after)

    def test_square_part_rows_hold_the_closed_form(self, tmp_path, monkeypatch):
        # each square-part row passes only within 1e-10 relative of the
        # closed-form ||h_z|| its JSON carries, so an h off by 1e-9
        # fails the three rows and nothing else
        path = write_config(tmp_path)

        def run(out, status):
            assert main(["run", "--config", str(path), "--out", str(out)]) == status
            return json.loads((out / "sea-to-ha.json").read_text())["rows"]

        clean = [r for r in run(tmp_path / "clean", 0) if r["condition"] == "square-part"]
        exact = [suite._h_norm_closed_form(complex(x, math.sqrt(1.0 - x * x)))
                 for x in (1e-1, 1e-2, 1e-3)]
        assert [r["extra"]["closed_form"] for r in clean] == exact
        for r in clean:
            assert r["pass"] and r["tolerance"] == 1e-10
            assert abs(r["value"] - r["extra"]["closed_form"]) <= 1e-12 * r["value"]

        real = suite.sea_to_ha_decomposition

        def perturbed(z):
            g, h = real(z)
            return g, h * (1.0 + 1e-9)

        monkeypatch.setattr(suite, "sea_to_ha_decomposition", perturbed)
        rows = run(tmp_path / "bad", 1)
        assert [r["condition"] for r in rows if not r["pass"]] == ["square-part"] * 3

    def test_paley_littlewood_rows_are_the_library_call(self, tmp_path):
        # diag-logspaced:16 spans more than 12 dyadic blocks and diag:1,2,4
        # three; neither row carries a Monte Carlo error any more
        specs = ["diag-logspaced:16", "diag:1,2,4"]
        path = write_config(
            tmp_path, operators=specs, suites=["paley-littlewood"], trials=3, seed=5,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "paley-littlewood.json").read_text())
        got = {(r["operator"], r["condition"]): r for r in doc["rows"]}
        assert len(got) == 6
        assert all("extra" not in r for r in doc["rows"])
        for spec in specs:
            lo, hi = suite.paley_littlewood_check(
                ops.operator_from_spec(spec), 2.0, trials=3, seed=5
            )
            assert got[spec, "pl-lower"]["value"] == lo
            assert got[spec, "pl-upper"]["value"] == hi
            assert got[spec, "pl-spread"]["value"] == hi / lo


class TestLpRuns:
    def test_l1_report_matches_the_l2_report_on_a_diagonal_operator(self, tmp_path):
        # for diagonal families the l^p optimum of the averaged square
        # function is a basis pair, whose value does not depend on p
        values = {}
        for space in (2.0, 1.0):
            path = write_config(
                tmp_path, operators=["diag-logspaced:4"],
                suites=["theorem-equivalence"], space=space,
            )
            out = tmp_path / f"l{space:g}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            values[space] = {
                (r["condition"], r["param"]): float(r["value"])
                for r in read_rows(out / "theorem-equivalence.csv")
            }
        l1, l2 = values[1.0], values[2.0]
        assert 0.95 <= l1[("bridge", "c2/(2 pi c1)")] <= 1.05
        families = [key for key in l1 if key[0] in ("c2", "c3", "c4", "c5", "c6", "c7", "c8")]
        assert len(families) == 20
        for key in families:
            assert l1[key] == pytest.approx(l2[key], rel=1e-9), key

    def test_l3_report_matches_the_per_matrix_norms(self, tmp_path, monkeypatch, capsys):
        # the first run off p in {1, 2, inf}: every c1 row takes ell^3 norms
        # of a corpus image, and the per-matrix oracle writes the same bytes
        path = write_config(
            tmp_path, operators=["diag:1,2", "jordan:1,2"],
            suites=["theorem-equivalence"], space=3.0, corpus_size=30,
        )
        out = tmp_path / "batch"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        c1 = [r for r in read_rows(out / "theorem-equivalence.csv") if r["condition"] == "c1"]
        assert len(c1) == 2 and all(r["pass"] == "true" for r in c1)
        batch = rbound.operator_norm
        monkeypatch.setattr(
            rbound, "operator_norm",
            lambda T, p: batch(T, p) if p in (1.0, 2.0, math.inf) else per_matrix_operator_norm(T, p),
        )
        oracle = tmp_path / "oracle"
        assert main(["run", "--config", str(path), "--out", str(oracle)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out / "manifest.json"), str(oracle / "manifest.json")]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_a_large_exponent_keeps_the_paley_littlewood_ratios(self, tmp_path):
        # at p = 700 a unit vector's |x_j|^p underflows; unscaled l^p
        # norms read 0 and failed pl-lower
        path = write_config(
            tmp_path, operators=["diag-logspaced:4"], suites=["paley-littlewood"], space=700,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = {r["condition"]: r for r in read_rows(out / "paley-littlewood.csv")}
        assert rows["pl-lower"]["pass"] == "true"
        assert 0.1 <= float(rows["pl-lower"]["value"]) <= float(rows["pl-upper"]["value"]) <= 10.0

    def test_scalar_operators_pass_c1_off_l2(self, tmp_path):
        # on C^1 the R-bound is max |t_j| exactly; a roundoff-inverted
        # bracket used to fail both c1 rows
        path = write_config(
            tmp_path, operators=["diag:1", "diag:3"], suites=["theorem-equivalence"], space=1.0,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        c1 = [r for r in read_rows(out / "theorem-equivalence.csv") if r["condition"] == "c1"]
        assert len(c1) == 2 and all(r["pass"] == "true" for r in c1)

    def test_reduced_operator_is_skipped_off_l2(self, tmp_path):
        # the reduced core lives in an orthonormal basis of the range,
        # where l^1 is not the l^1 of the graph
        path = write_config(
            tmp_path, operators=["cycle-laplacian:6"],
            suites=["theorem-equivalence", "paley-littlewood"], space=1.0,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        for name in ("theorem-equivalence", "paley-littlewood"):
            rows = read_rows(out / f"{name}.csv")
            assert len(rows) == 1, name
            assert rows[0]["condition"].startswith("skipped-")
            assert json.loads(rows[0]["grid"])["reason"] == "DomainError"
            # a skip is no pass: the manifest counts it on its own
            counts = {k: man["outputs"][name][k] for k in ("rows", "passed", "failed", "skipped")}
            assert counts == {"rows": 1, "passed": 0, "failed": 0, "skipped": 1}, name

    def test_compare_reports_a_changed_skip_count(self, tmp_path, capsys):
        # the l^2 run measures the paley-littlewood rows the l^1 run skips
        outs = {}
        for space in (1.0, 2.0):
            path = write_config(
                tmp_path, operators=["cycle-laplacian:6"], suites=["paley-littlewood"],
                space=space,
            )
            outs[space] = tmp_path / f"l{space:g}"
            assert main(["run", "--config", str(path), "--out", str(outs[space])]) == 0
        man = json.loads((outs[2.0] / "manifest.json").read_text())
        assert man["outputs"]["paley-littlewood"]["skipped"] == 0
        capsys.readouterr()
        rc = main(["compare", str(outs[1.0] / "manifest.json"), str(outs[2.0] / "manifest.json")])
        assert rc == 1
        assert "DIFFER  paley-littlewood.skipped: 1 != 0" in capsys.readouterr().out


class TestCompare:
    def test_identical_runs_compare_clean(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2)])
        rc = main(
            ["compare", str(out1 / "manifest.json"), str(out2 / "manifest.json")]
        )
        assert rc == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_timings_do_not_enter_the_comparison(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2)])
        man = json.loads((out2 / "manifest.json").read_text())
        man["outputs"]["sea-to-ha"]["seconds"] += 1.0
        man["build_seconds"] += 1.0
        man["wallclock_seconds"] += 2.0
        (out2 / "manifest.json").write_text(json.dumps(man))
        rc = main(
            ["compare", str(out1 / "manifest.json"), str(out2 / "manifest.json")]
        )
        assert rc == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_peak_memory_does_not_enter_the_comparison(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2)])
        man = json.loads((out2 / "manifest.json").read_text())
        # the peak resident set so far, after the build and after each suite
        peaks = [man["build_max_rss_mb"]] + [
            man["outputs"][name]["max_rss_mb"] for name in man["suites"]
        ]
        assert all(p > 0 for p in peaks) and peaks == sorted(peaks)
        man["outputs"]["sea-to-ha"]["max_rss_mb"] += 100.0
        man["build_max_rss_mb"] += 100.0
        (out2 / "manifest.json").write_text(json.dumps(man))
        rc = main(
            ["compare", str(out1 / "manifest.json"), str(out2 / "manifest.json")]
        )
        assert rc == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_differing_runs_are_flagged(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--seed", "4", "--out", str(out2)])
        rc = main(
            ["compare", str(out1 / "manifest.json"), str(out2 / "manifest.json")]
        )
        assert rc == 1
        assert "config_hash" in capsys.readouterr().out

    def test_tampered_csv_is_caught(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2)])
        body = (out2 / "sea-to-ha.csv").read_text()
        (out2 / "sea-to-ha.csv").write_text(body.replace("true", "true", 1) + "x")
        rc = main(
            ["compare", str(out1 / "manifest.json"), str(out2 / "manifest.json")]
        )
        assert rc == 1
        assert "bodies differ" in capsys.readouterr().out

    def test_tampered_plot_is_caught(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2)])
        plot = out2 / "plots" / "sea-to-ha-slope.csv"
        lines = plot.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(",", ",9", 1)
        plot.write_text("".join(lines))
        rc = main(
            ["compare", str(out1 / "manifest.json"), str(out2 / "manifest.json")]
        )
        assert rc == 1
        assert "plots/sea-to-ha-slope.csv: CSV bodies differ" in capsys.readouterr().out

    def test_missing_manifest(self, tmp_path):
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2

    def test_malformed_manifest_is_a_config_error(self, tmp_path, capsys):
        # exit status 2, not the 1 of a traceback that reads as "differ"
        path = write_config(tmp_path)
        out = tmp_path / "m"
        main(["run", "--config", str(path), "--out", str(out)])
        good = out / "manifest.json"
        man = json.loads(good.read_text())
        listed = tmp_path / "list.json"
        listed.write_text(json.dumps([man]))
        no_plot_list = tmp_path / "no-plot-list.json"
        no_plot_list.write_text(json.dumps({**man, "plot_files": 5}))
        del man["outputs"]["sea-to-ha"]["csv"]
        no_csv = tmp_path / "no-csv.json"
        no_csv.write_text(json.dumps(man))
        capsys.readouterr()
        for bad in (listed, no_csv, no_plot_list):
            assert main(["compare", str(good), str(bad)]) == 2, bad.name
            assert main(["compare", str(bad), str(good)]) == 2, bad.name
        err = capsys.readouterr().err
        assert "is not a JSON object" in err and "must name its csv file" in err


class TestConfigObject:
    def test_from_file_requires_operator_list(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"suites": ["norms"]}')
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)
        path.write_text('["diag:1,2"]')
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


# a fresh interpreter imports the runner, optionally runs one command,
# and prints its exit status and the scipy modules it loaded
PROBE = """
import json, sys
import speccalc.cli as cli
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"rc": rc, "scipy": sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def probe(*argv):
    """(exit status, scipy modules loaded) of one command in a fresh
    interpreter that imports the package these tests import."""
    src = os.path.dirname(os.path.dirname(speccalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["rc"], result["scipy"]


class TestScipyStaysUnloaded:
    """scipy serves only the identities suite's quadrature and the dense
    matrix functions of defective operators; no other path loads it."""

    def test_import_loads_no_scipy(self):
        assert probe() == (0, [])

    def test_run_and_compare_without_identities_load_no_scipy(self, tmp_path):
        path = write_config(
            tmp_path, operators=["diag-logspaced:4"],
            suites=["norms", "rbound", "theorem-equivalence", "paley-littlewood", "sea-to-ha"],
        )
        out = tmp_path / "o"
        assert probe("run", "--config", str(path), "--out", str(out)) == (0, [])
        manifest = str(out / "manifest.json")
        assert probe("compare", manifest, manifest) == (0, [])

    def test_identities_still_writes_its_quadrature_rows(self, tmp_path):
        path = write_config(tmp_path, operators=["diag:1,2"], suites=["identities"])
        out = tmp_path / "id"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        quadrature = [
            r for r in read_rows(out / "identities.csv")
            if r["condition"] in ("kernel-integral", "contour-shift")
        ]
        assert sorted(r["condition"] for r in quadrature) == ["contour-shift"] + ["kernel-integral"] * 3
        assert all(r["pass"] == "true" for r in quadrature)
