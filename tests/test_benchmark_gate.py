"""The benchmark's correctness gate, run as a test.

Each perfbench workload runs once at the reference seed through
`speccalc.cli.main`, in a fresh interpreter with one BLAS thread as the
benchmark's worker has, and its rows go through the benchmark's own gate
(`perfbench/workloads.check_rows` against `perfbench/reference.json`).
A value that drifts past `DRIFT_TOL` from the reference, a changed row
key or a flipped pass flag fails here, not only in a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# loaded by path, so perfbench's flat module names stay off sys.path
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

RUN = "import sys, speccalc.cli as cli; sys.exit(cli.main(sys.argv[1:]))"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_the_benchmark_gate(workload, tmp_path):
    seed = workloads.REFERENCE_SEED
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.config_for(workload, seed)))
    out = tmp_path / "out"
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "run", "--config", str(config), "--out", str(out),
         "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    ref = workloads.load_reference(workload)
    rows = workloads.read_rows(out, workloads.WORKLOADS[workload]["suites"])
    check = workloads.check_rows(rows, ref, seed)
    assert check["failed"] == 0, check["reason"]
    assert check["skipped"] == ref["skipped"]
