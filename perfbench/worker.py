"""One benchmark process: repeated `speccalc run` of one workload.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
the BLAS thread count fixed.  It imports `speccalc.cli` once, then calls
the workload through `cli.main` (the console entry point), one whole
call after another, as many as end within --seconds but at least
MIN_RUNS (one pair when traced), and gates every call against the reference rows
(workloads.check_rows).  With --trace 1 the calls come in pairs of one
seed, untraced then traced: the traced call gives the per-layer metrics
and is compared with its untraced twin by `speccalc compare`.  The
result goes to <work>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import speccalc
import speccalc.cli as cli
import speccalc.operators as operators

from tracer import Tracer
from workloads import WORKLOADS, check_rows, config_for, load_reference, read_rows

MIN_RUNS = 3  # the least number of untraced calls per invocation; traced, one pair
# No call starts that would end past this, even below MIN_RUNS: it keeps
# one invocation near a minute when the machine runs slow.
HARD_STOP_S = 70.0
SEED_STRIDE = 1_000_003  # distance between the seeds of successive untraced runs


def _samples(args, kwargs, result):
    return {"samples": len(args[0])}


def _matrices(args, kwargs, result):
    mats = args[0]  # a list or stack of matrices, or one matrix
    return {"matrices": len(mats) if getattr(mats, "ndim", 3) == 3 else 1}


def _family_counts(args, kwargs, result):
    return {"samples": len(result), "bytes": int(result.matrices.nbytes)}


def _builds(args, kwargs, result):
    # a SectorialOperator passed back through is not a rebuild
    return {"builds": 0 if isinstance(args[0], operators.SectorialOperator) else 1}


# (module, function, span name, work counter)
TRACED = [
    ("speccalc.rbound", "r_l2_bound", "rbound.r_l2_bound", _samples),
    ("speccalc.rbound", "r_bound", "rbound.r_bound", _matrices),
    ("speccalc.rbound", "r_l1_vs_rbound", "rbound.r_l1_vs_rbound", None),
    ("speccalc.rbound", "operator_norm", "rbound.operator_norm", None),
    ("speccalc.operators", "holomorphic_calculus", "operators.holomorphic_calculus", None),
    ("speccalc.operators", "family_samples", "operators.family_samples", _family_counts),
    ("speccalc.operators", "imaginary_powers", "operators.imaginary_powers", None),
    ("speccalc.operators", "sectorial", "operators.sectorial", _builds),
    ("speccalc.suite", "equivalence_report", "suite.equivalence_report", None),
    ("speccalc.suite", "multiplier_corpus", "suite.multiplier_corpus", None),
    ("speccalc.suite", "condition_c1", "suite.condition_c1", None),
    ("speccalc.suite", "condition_c2_to_c8", "suite.condition_c2_to_c8", None),
    ("speccalc.suite", "sobolev_calculus_apply", "suite.sobolev_calculus_apply", None),
    ("speccalc.suite", "paley_littlewood_check", "suite.paley_littlewood_check", None),
    ("speccalc.spaces", "sobolev_norm", "spaces.sobolev_norm", None),
    ("speccalc.spaces", "sobexp_norm", "spaces.sobexp_norm", None),
    ("speccalc.spaces", "hoermander_norm", "spaces.hoermander_norm", None),
    ("speccalc.spaces", "mihlin_norm", "spaces.mihlin_norm", None),
    ("speccalc.special", "wave_kernel_integral", "special.identities", None),
    ("speccalc.special", "contour_shifted_integral", "special.identities", None),
    ("speccalc.grids", "fourier_transform", "grids.fourier_transform", None),
    ("speccalc._kernels", "enum_mean_norm", "kernels.enum_mean_norm", None),
    ("speccalc._kernels", "mc_mean_norm", "kernels.mc_mean_norm", None),
] + [
    ("speccalc.cli", f"run_{s.replace('-', '_')}", f"cli.run_{s.replace('-', '_')}", None)
    for s in cli.SUITES
]

# per-layer metric -> (span name, field of its summary)
LAYER_METRICS = {
    "rbound.r_l2_bound.calls": ("rbound.r_l2_bound", "calls"),
    "rbound.r_l2_bound.self_s": ("rbound.r_l2_bound", "self_s"),
    "rbound.r_l2_bound.samples": ("rbound.r_l2_bound", "samples"),
    "rbound.r_bound.calls": ("rbound.r_bound", "calls"),
    "rbound.r_bound.self_s": ("rbound.r_bound", "self_s"),
    "rbound.r_bound.matrices": ("rbound.r_bound", "matrices"),
    "rbound.r_l1_vs_rbound.calls": ("rbound.r_l1_vs_rbound", "calls"),
    "rbound.operator_norm.calls": ("rbound.operator_norm", "calls"),
    "operators.holomorphic_calculus.calls": ("operators.holomorphic_calculus", "calls"),
    "operators.holomorphic_calculus.total_s": ("operators.holomorphic_calculus", "total_s"),
    "operators.family_samples.calls": ("operators.family_samples", "calls"),
    "operators.family_samples.total_s": ("operators.family_samples", "total_s"),
    "operators.family_samples.samples": ("operators.family_samples", "samples"),
    "operators.family_samples.bytes": ("operators.family_samples", "bytes"),
    "operators.imaginary_powers.calls": ("operators.imaginary_powers", "calls"),
    "operators.imaginary_powers.total_s": ("operators.imaginary_powers", "total_s"),
    "operators.sectorial.calls": ("operators.sectorial", "builds"),
    "operators.sectorial.total_s": ("operators.sectorial", "total_s"),
    "suite.equivalence_report.self_s": ("suite.equivalence_report", "self_s"),
    "suite.multiplier_corpus.total_s": ("suite.multiplier_corpus", "total_s"),
    "suite.condition_c1.total_s": ("suite.condition_c1", "total_s"),
    "suite.condition_c2_to_c8.total_s": ("suite.condition_c2_to_c8", "total_s"),
    "suite.sobolev_calculus_apply.total_s": ("suite.sobolev_calculus_apply", "total_s"),
    "suite.paley_littlewood_check.total_s": ("suite.paley_littlewood_check", "total_s"),
    # the rbound suite runs on one workload only; elsewhere its time would read 0
    **{
        f"cli.run_{s.replace('-', '_')}.total_s": (f"cli.run_{s.replace('-', '_')}", "total_s")
        for s in cli.SUITES if s != "rbound"
    },
    "cli.run_rbound.calls": ("cli.run_rbound", "calls"),
    "spaces.sobolev_norm.total_s": ("spaces.sobolev_norm", "total_s"),
    "spaces.sobexp_norm.total_s": ("spaces.sobexp_norm", "total_s"),
    "spaces.hoermander_norm.total_s": ("spaces.hoermander_norm", "total_s"),
    "spaces.mihlin_norm.total_s": ("spaces.mihlin_norm", "total_s"),
    "special.identities.total_s": ("special.identities", "total_s"),
    "grids.fourier_transform.total_s": ("grids.fourier_transform", "total_s"),
    "kernels.enum_mean_norm.calls": ("kernels.enum_mean_norm", "calls"),
    "kernels.mc_mean_norm.calls": ("kernels.mc_mean_norm", "calls"),
    "kernels.total_s": ("kernels", "total_s"),
}


def run_once(config_path: Path, out: Path, seed: int) -> dict:
    """One `speccalc run`: its exit status (None if it raised), wall and CPU seconds."""
    log = out.with_suffix(".log")
    with open(log, "w") as fh, contextlib.redirect_stdout(fh):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(["run", "--config", str(config_path), "--out", str(out),
                           "--seed", str(seed)])
        except Exception as e:  # the run itself failed: every row counts as failed
            rc = None
            print(f"speccalc run raised {type(e).__name__}: {e}", file=sys.stderr)
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"exit_status": rc, "seconds": seconds, "cpu_seconds": cpu}


def compare(manifest_a: Path, manifest_b: Path) -> bool:
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(["compare", str(manifest_a), str(manifest_b)]) == 0


def layer_metrics(summary: dict, out: Path) -> dict:
    # only one of the two kernels runs on some workloads, so time them together
    summary["kernels"] = {"total_s": sum(
        summary.get(f"kernels.{k}", {}).get("total_s", 0.0)
        for k in ("enum_mean_norm", "mc_mean_norm"))}
    metrics = {}
    for metric, (span, key) in LAYER_METRICS.items():
        metrics[metric] = summary.get(span, {}).get(key, 0)
    metrics["cli.output.bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return metrics


def rep_seed(seed: int, k: int, trace: int) -> int:
    """The speccalc seed of run k.

    Untraced, every run takes a new seed derived from the benchmark seed,
    so run_s is taken over more than one draw of the seed-dependent work
    (the witness search draws its subset sizes at random).  Traced, runs
    come in pairs of one seed, untraced then traced, so the pair is also
    a rerun.
    """
    i = k // 2 if trace else k
    return (seed + i * SEED_STRIDE) % (1 << 32)


def blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    work = Path(args.work)
    suites = WORKLOADS[args.workload]["suites"]
    ref = load_reference(args.workload)
    min_runs = 2 if args.trace else MIN_RUNS

    runs, layers = [], []
    tracer = None
    started = time.perf_counter()
    while True:
        k = len(runs)
        seed = rep_seed(args.seed, k, args.trace)
        traced = args.trace == 1 and k % 2 == 1
        config_path = work / f"config{k}.json"
        config_path.write_text(json.dumps(config_for(args.workload, seed)))
        out = work / f"run{k}"
        if traced:
            tracer = Tracer()
            tracer.install(TRACED)
        try:
            call = run_once(config_path, out, seed)
        finally:
            if traced:
                tracer.uninstall()
        rc = call["exit_status"]
        wrote = rc is not None and (out / "manifest.json").exists()
        if wrote:
            check = check_rows(read_rows(out, suites), ref, seed)
        else:
            check = {"attempted": len(ref["rows"]), "failed": len(ref["rows"]),
                     "skipped": 0, "drift_max": None,
                     "reason": f"no report written (exit status {rc})"}
        runs.append({"seed": seed, "traced": traced, **call, **check})
        if not wrote:
            break
        if traced:
            layers.append(layer_metrics(tracer.summary(), out))
            tracer.dump(work / "spans.jsonl")
            runs[-1]["rerun_identical"] = compare(
                work / f"run{k - 1}" / "manifest.json", out / "manifest.json")
        if args.trace and len(runs) % 2 == 1:
            continue  # finish the pair
        # once min_runs are made, start no call (traced: no pair) that
        # would end past --seconds
        elapsed = time.perf_counter() - started
        upcoming = statistics.median(r["seconds"] for r in runs) * (2 if args.trace else 1)
        if (len(runs) >= min_runs and elapsed + upcoming > args.seconds) or (
                elapsed + upcoming > HARD_STOP_S):
            break

    untraced = [r for r in runs if not r["traced"]]
    result = {
        "runs": runs,
        # the fastest call: a neighbour on the host only ever slows a call down
        "run_s": min(r["seconds"] for r in untraced),
        "run_median_s": statistics.median(r["seconds"] for r in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "speccalc": speccalc.__version__,
            "kernel_backend": speccalc.KERNEL_BACKEND,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_name(),
        },
    }
    if layers:
        merged = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        merged["trace.run_s"] = min(r["seconds"] for r in runs if r["traced"])
        merged["trace.untraced_run_s"] = result["run_s"]
        merged["trace.overhead_s"] = merged["trace.run_s"] - result["run_s"]
        merged["trace.spans"] = len(tracer.spans)
        result["layers"] = merged
    (work / "result.json").write_text(json.dumps(result, indent=1))
    for k in range(len(runs)):
        shutil.rmtree(work / f"run{k}", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
