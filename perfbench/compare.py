"""Compare the metrics of two benchmark reports.

    python3 perfbench/compare.py BASE/report.json NEW/report.json

Prints each metric of both reports and the relative change.  Refuses
(exit status 2) when the two reports come from different workloads or
trace modes, or when their stamps differ in anything but the commit and
the source hash: numbers from another machine, BLAS setting, library
version or kernel backend are not comparable.
"""

from __future__ import annotations

import json
import sys

CODE_FIELDS = {"commit", "source_sha256"}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(p).read()) for p in args)
    problems = [
        f"{key}: {base[key]!r} != {new[key]!r}"
        for key in ("workload", "trace") if base[key] != new[key]
    ]
    fields = (set(base["stamp"]) | set(new["stamp"])) - CODE_FIELDS
    problems += [
        f"stamp {key}: {base['stamp'].get(key)!r} != {new['stamp'].get(key)!r}"
        for key in sorted(fields) if base["stamp"].get(key) != new["stamp"].get(key)
    ]
    if problems:
        print("not comparable:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2
    print(f"workload {base['workload']}  seeds {base['seed']} -> {new['seed']}  "
          f"correct {base['correct']} -> {new['correct']}")
    for name, m in base["metrics"].items():
        a = m["value"]
        b = new["metrics"].get(name, {}).get("value")
        if b is None:
            print(f"  {name:42s} {a:.6g} -> missing")
            continue
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:42s} {a:.6g} -> {b:.6g} {m['unit']}  ({change})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
