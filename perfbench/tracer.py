"""In-memory span tracer for the per-layer run of the benchmark.

The tracer replaces selected public functions of the speccalc modules
with timing wrappers, under every name that binds them: a module
attribute (``suite.r_l2_bound`` and ``rbound.r_l2_bound`` are the same
function bound twice) or a value of a module-level dict (``cli.RUNNERS``).
A call through a name the tracer did not rebind would bypass its span,
so ``install`` rebinds them all and ``uninstall`` restores the originals.

Each call records one span: its name, start, end, the index of the span
that was open when it started, and an optional work count.  Spans stay
in memory until ``summary`` aggregates them (and ``dump`` writes them
out) after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "speccalc"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts or None, nested]
        self._stack = []
        self._depth = defaultdict(int)
        self._saved = []  # (container, key, original) to restore

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name, fn, count):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, depth[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each (module, function, span name, count) of `targets`.

        `count(args, kwargs, result)` returns a dict of work counts for
        the span, or None.  Every binding of the function object in the
        loaded speccalc modules is replaced.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for module_name, func_name, span_name, count in targets:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrapper(span_name, original, count)
            bound = 0
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._saved.append((namespace, key, original))
                        namespace[key] = wrapper
                        bound += 1
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._saved.append((value, k, original))
                                value[k] = wrapper
                                bound += 1
            if bound == 0:
                raise RuntimeError(f"{module_name}.{func_name} is bound nowhere")

    def uninstall(self):
        for container, key, original in reversed(self._saved):
            container[key] = original
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def summary(self):
        """{name: {calls, total_s, self_s, <counts>}} over the recorded spans.

        total_s sums only the outermost span of a name (a recursive call
        is not counted twice); self_s is each span's duration minus the
        durations of its direct child spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, counts, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, counts, nested) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            if not nested:
                agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path):
        """Write the spans as JSON lines of (name, start, end, parent, counts)."""
        with open(path, "w") as fh:
            for name, start, end, parent, counts, nested in self.spans:
                fh.write(json.dumps([name, start, end, parent, counts]) + "\n")
