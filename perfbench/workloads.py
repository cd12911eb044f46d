"""Workload configs, the seed-0 reference and the correctness gate.

Every workload is one `speccalc run` on a fixed config; the benchmark
seed goes to `speccalc run --seed`.  README.md says why each was chosen.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

ALL_SUITES = [
    "norms", "identities", "rbound", "theorem-equivalence",
    "paley-littlewood", "sea-to-ha",
]
NO_RBOUND = [s for s in ALL_SUITES if s != "rbound"]

WORKLOADS = {
    "standard": {
        "operators": ["diag-logspaced:16"],
        "suites": ALL_SUITES,
    },
    "many-small": {
        # six operators, not twelve: a call of about 6 s leaves room for
        # seven or eight calls in one invocation (README.md, Steadiness)
        "operators": [
            "diag:1,2", "diag:1,10,100", "diag:0.2,0.9,4,11,30",
            "diag-logspaced:6", "path-laplacian:8", "cycle-laplacian:6",
        ],
        "suites": NO_RBOUND,
    },
}

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Largest relative change of a seed-independent row value (against the
# seed-0 reference) that still passes the gate.  Rows whose value depends
# on the seed are gated by their pass flags only; their drift is reported.
DRIFT_TOL = 1e-6


def config_for(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    return {"operators": spec["operators"], "suites": spec["suites"], "seed": seed}


def read_rows(out_dir: Path, suites) -> list:
    """The CSV rows of a run as (operator, suite, condition, param, value, pass)."""
    rows = []
    for name in suites:
        with open(out_dir / f"{name}.csv", newline="") as fh:
            body = [line for line in fh if not line.startswith("#")]
        for rec in csv.DictReader(body):
            rows.append((
                rec["operator"], rec["suite"], rec["condition"], rec["param"],
                rec["value"], rec["pass"] == "true",
            ))
    return rows


def is_skip(row) -> bool:
    return row[2].startswith("skipped-")


def _as_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def drift(value: str, ref: str) -> float:
    """Relative deviation of a CSV value from its reference value."""
    a, b = _as_float(value), _as_float(ref)
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]


def check_rows(rows, ref: dict, seed: int) -> dict:
    """Gate one run's rows against the reference of its workload.

    Returns attempted (the reference row count), failed, skipped and
    drift_max (None unless `seed` is the reference seed).  A row set
    that differs from the reference in its keys or their order counts
    every expected row as failed.
    """
    expected = ref["rows"]  # [operator, suite, condition, param, value, pass, seeded]
    attempted = len(expected)
    skipped = sum(1 for r in rows if is_skip(r))
    if [tuple(r[:4]) for r in rows] != [tuple(e[:4]) for e in expected]:
        return {"attempted": attempted, "failed": attempted, "skipped": skipped,
                "drift_max": None, "reason": "row keys differ from the reference"}
    failed = 0
    reasons = []
    drift_max = 0.0 if seed == REFERENCE_SEED else None
    for row, exp in zip(rows, expected):
        bad = row[5] != exp[5]
        if drift_max is not None:
            d = drift(row[4], exp[4])
            drift_max = max(drift_max, d)
            if not exp[6] and d > DRIFT_TOL:
                bad = True
        if bad:
            failed += 1
            if len(reasons) < 5:
                reasons.append("/".join(row[:4]))
    return {"attempted": attempted, "failed": failed, "skipped": skipped,
            "drift_max": drift_max, "reason": "; ".join(reasons)}
