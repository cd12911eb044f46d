"""Benchmark of `speccalc run`: end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload standard --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its src/.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics, from a traced run, with the tracing overhead.
Every run is gated for correctness (workloads.check_rows).  It prints a
table of every metric with its unit and the stamp (commit, machine,
BLAS, versions, kernel backend); the last line of stdout is the JSON
result.  The full report goes to
perfbench/.work/<workload>-seed<seed>/report.json.  README.md describes
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 165.0
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({k: str(BLAS_THREADS) for k in THREAD_VARS})
    return env


def import_seconds(env, repeats: int) -> list:
    """Wall time of a fresh interpreter running `import speccalc.cli`.

    Called after the worker, so the file cache is warm (and the bytecode
    cached, unless PYTHONDONTWRITEBYTECODE is set).
    """
    cmd = [sys.executable, "-c", "import speccalc.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown(env) -> dict:
    """Self import time of speccalc, numpy and scipy modules from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import speccalc.cli"],
        env=env, check=True, timeout=60, capture_output=True, text=True,
    )
    out = {"speccalc": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            if top in out:
                out[top] += int(m.group(1)) * 1e-6
    return {f"import.{k}.s": v for k, v in out.items()}


def stamp(versions: dict) -> dict:
    """What a result must match before it is compared with another."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        **versions,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "speccalc" / "cli.py").is_file():
        print(f"no speccalc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    seed = args.seed % (1 << 32)  # speccalc takes a nonnegative seed
    ref = load_reference(args.workload)

    work = HERE / ".work" / f"{args.workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()

    with open(work / "worker.err", "w") as err:
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            rc = worker.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
            return 1
    if rc != 0 or not (work / "result.json").exists():
        print(f"worker failed with exit status {rc}:", file=sys.stderr)
        print((work / "worker.err").read_text()[-4000:], file=sys.stderr)
        return 1
    res = json.loads((work / "result.json").read_text())
    info = stamp(res["versions"])
    setup = [] if args.trace else import_seconds(env, SETUP_REPEATS)

    runs = res["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    skipped = [r["skipped"] for r in runs]
    drifts = [r["drift_max"] for r in runs if r["drift_max"] is not None]
    correct = (
        failed == 0
        and all(r["exit_status"] == 0 for r in runs)
        and all(s == ref["skipped"] for s in skipped)
        and all(r.get("rerun_identical", True) for r in runs)
    )

    if args.trace and "layers" not in res:
        print("no traced run completed; per-layer metrics unavailable", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {**res["layers"], **import_breakdown(env)}
    else:
        metrics = {
            "run_s": res["run_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "rows_skipped": statistics.median(skipped),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "stamp": info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "row_fail_ratio": failed / attempted,
        "value_drift_max": max(drifts) if drifts else None,
        "run_median_s": res["run_median_s"],
        "setup_seconds": setup,
        "runs": runs,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {seed}  runs {len(res['runs'])}  "
          f"correct {correct}")
    print("stamp " + json.dumps(info, sort_keys=True))
    extra = {"row_fail_ratio": (failed / attempted, "ratio"),
             "value_drift_max": (report["value_drift_max"], "ratio"),
             "run_median_s": (res["run_median_s"], "s")}
    for name, (value, unit) in extra.items():
        shown = "n/a (reference is seed 0 only)" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown} {unit}")
    for name, m in report["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for r in runs:
        if r["reason"] or not r.get("rerun_identical", True):
            print(f"  run seed {r['seed']}: {r['reason'] or 'rerun differs'}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
