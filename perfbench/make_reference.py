"""Write perfbench/reference.json, the rows every benchmark run is gated on.

    PYTHONPATH=src python3 perfbench/make_reference.py

For each workload it runs `speccalc run` at the reference seed (0) and at
two more seeds.  It keeps the seed-0 rows (keys, values, pass flags) and
marks a row as seeded when its value differs between the seeds; the
drift gate applies only to the other rows.  It refuses to write a
reference from a run with a failed row.  Regenerate it only when a
change is meant to alter the rows, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import speccalc.cli as cli

from workloads import (
    REFERENCE_PATH, REFERENCE_SEED, WORKLOADS, config_for, drift, is_skip, read_rows,
)

PROBE_SEEDS = (1, 2)


def run_rows(workload: str, seed: int, tmp: Path):
    cfg = tmp / f"{workload}.json"
    cfg.write_text(json.dumps(config_for(workload, seed)))
    out = tmp / f"{workload}-{seed}"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
    rows = read_rows(out, WORKLOADS[workload]["suites"])
    if rc != 0 or not all(r[5] for r in rows):
        raise SystemExit(f"{workload} seed {seed}: exit status {rc} or a failed row")
    return rows


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for workload in WORKLOADS:
            base = run_rows(workload, REFERENCE_SEED, Path(tmp))
            others = [run_rows(workload, s, Path(tmp)) for s in PROBE_SEEDS]
            rows = []
            for i, row in enumerate(base):
                for other in others:
                    if tuple(other[i][:4]) != tuple(row[:4]):
                        raise SystemExit(f"{workload}: row keys depend on the seed")
                seeded = any(drift(o[i][4], row[4]) > 1e-12 for o in others)
                rows.append([*row, seeded])
            reference[workload] = {
                "seed": REFERENCE_SEED,
                "skipped": sum(1 for r in base if is_skip(r)),
                "rows": rows,
            }
            print(f"{workload}: {len(rows)} rows, {reference[workload]['skipped']} "
                  f"skipped, {sum(r[6] for r in rows)} seeded", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
