"""Spans around the calls into quatcalc's public functions, from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``quatcalc.*`` namespace that holds it (and ``QMatrix.__matmul__`` on
the class), so calls between library modules are seen too.  Spans stay in
memory as ``[name, parent, start, end]`` and are written out once, at the
end of the run.  A span's self time is its duration minus the durations of
its direct children; the calls are strictly nested on one thread, so the
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# layer (module) -> public functions whose calls are timed; only functions
# that a workload reaches are listed
TRACED = {
    "quaternion": ("qmul", "circularize"),
    "qmatrix": ("matmul", "chi", "chi_inv", "op_norm"),
    "spectrum": ("spherical_spectrum", "delta"),
    "scalculus": ("build_contour", "riesz_projection", "func_calc",
                  "range_basis", "riesz_decompose"),
    "irreducibility": ("is_strongly_irreducible",),
    "discretize": ("paper_example", "volterra_op", "kernel_op", "mult_op"),
    "cli": ("main",),
}
# functions taking a Contour: their quadrature nodes are counted
QUADRATURE = ("scalculus.riesz_projection", "scalculus.func_calc")


# per-layer facts measured outside the spans (see run.py)
EXTRA_METRICS = (
    ("scalculus.nodes", "count"),
    ("spectrum.hausdorff", "1"),
    ("probe.ops", "count"),
    ("probe.failed", "count"),
    ("trace_overhead_s", "s"),
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for mod, fns in TRACED.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.s", "s"),
                    (f"{mod}.{fn}.self_s", "s")]
    return out + list(EXTRA_METRICS)


def contour_nodes(contour) -> int:
    """circles x twins x nodes_per_circle; an off-axis circle has a twin."""
    twins = sum(2 if c.height > 0.0 else 1 for c in contour.circles)
    return twins * contour.nodes_per_circle


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from quatcalc.qmatrix import QMatrix

        targets = []
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"quatcalc.{mod}")
            for fn in fns:
                if (mod, fn) == ("qmatrix", "matmul"):
                    continue
                targets.append((f"{mod}.{fn}", getattr(module, fn)))

        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "quatcalc" or name.startswith("quatcalc.")]
        for name, orig in targets:
            wrapper = self._wrap(name, orig)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, orig))
        orig = QMatrix.__dict__["__matmul__"]
        QMatrix.__matmul__ = self._wrap("qmatrix.matmul", orig)
        self._restore.append((QMatrix, "__matmul__", orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        node_count = None
        if name in QUADRATURE:
            sig = inspect.signature(fn)

            def node_count(args, kwargs):
                contour = sig.bind(*args, **kwargs).arguments["contour"]
                self.counts["scalculus.nodes"] += contour_nodes(contour)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if node_count is not None:
                node_count(args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Where ``summarize`` should start: spans and counts from here on."""
        return len(self.spans), Counter(self.counts)

    def summarize(self, since: tuple[int, Counter]) -> dict:
        """calls, inclusive and self seconds per span name since ``since``.

        Inclusive time counts only the outermost span of a name, so a
        function reached again inside itself is not counted twice.
        """
        lo, counts0 = since
        spans = self.spans
        child = Counter()
        for name, parent, start, end in spans[lo:]:
            if parent >= lo:
                child[parent] += end - start
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in range(lo, len(spans)):
            name, parent, start, end = spans[i]
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            p = parent
            while p >= lo and spans[p][0] != name:
                p = spans[p][1]
            if p < lo:
                out[f"{name}.s"] += dur
        out["scalculus.nodes"] = self.counts["scalculus.nodes"] - \
            counts0["scalculus.nodes"]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def median_summary(per_pass: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
