"""End-to-end checks of the command line runner."""

import csv
import json
from pathlib import Path

import pytest

from speccalc import operators as ops
from speccalc.cli import SUITES, RunConfig, main
from speccalc.errors import ConfigError


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


class TestConfig:
    def test_unknown_keys_are_rejected(self, tmp_path):
        path = write_config(tmp_path, typo_field=1)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_bad_operator_is_rejected(self, tmp_path):
        path = write_config(tmp_path, operators=["diag:1,2", "moebius:7"])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_bad_suite_is_rejected(self, tmp_path):
        path = write_config(tmp_path, suites=["sea-to-ha", "astrology"])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        good = write_config(tmp_path)
        rc = main(
            ["run", "--config", str(good), "--suite", "astrology",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_missing_and_malformed_files(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": -1.0},
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
        ],
        ids=repr,
    )
    def test_parameter_ranges(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **{"suites": list(SUITES), **overrides})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_hash_ignores_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"operators": ["diag:1,2"], "alpha": 1.5}')
        b.write_text('{"alpha": 1.5, "operators": ["diag:1,2"]}')
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

    def test_equivalence_suite_emits_plots_and_flags(self, tmp_path):
        path = write_config(
            tmp_path, suites=["theorem-equivalence"], corpus_size=30
        )
        out = tmp_path / "eq"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
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
        assert len(bracketed) == 18  # 13 families, 3 beta-sweep rays, 2 refined grids
        for r in bracketed:
            assert r["extra"]["method"] == "bilinear-power"
            assert r["value"] <= r["extra"]["upper"], (r["condition"], r["param"])
        assert all("upper" not in r["grid"] for r in rows)


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

    def test_reduced_operator_is_skipped_off_l2(self, tmp_path):
        # the reduced core lives in an orthonormal basis of the range,
        # where l^1 is not the l^1 of the graph
        path = write_config(
            tmp_path, operators=["cycle-laplacian:6"],
            suites=["theorem-equivalence", "paley-littlewood"], space=1.0,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        for name in ("theorem-equivalence", "paley-littlewood"):
            rows = read_rows(out / f"{name}.csv")
            assert len(rows) == 1, name
            assert rows[0]["condition"].startswith("skipped-")
            assert json.loads(rows[0]["grid"])["reason"] == "DomainError"


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


class TestConfigObject:
    def test_from_file_requires_operator_list(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"suites": ["norms"]}')
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)
        path.write_text('["diag:1,2"]')
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)
