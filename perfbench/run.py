#!/usr/bin/env python3
"""quatcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload riesz-nonnormal --seed 0 --seconds 45

Run it from the root of a checkout; quatcalc is imported from the
checkout's ``src/``.  A run builds the workload's inputs from ``--seed``,
then repeats passes over the workload's fixed operation list until
``--seconds`` have gone by (always finishing the pass it is in).  Every
operation is timed alone and then checked against its oracle.

``--trace 0`` reports the end-to-end metrics:

* wall_s: time of one pass, the sum over the op list of each op's median
  latency (oracle checks excluded);
* peak_rss_mb: ``ru_maxrss`` of this process, one process per run;
* accuracy_digits: min over oracle-checked ops of -log10(max(residual,
  1e-16)), residuals relative;
* setup_s: median import time of quatcalc in SETUP_REPEATS fresh
  interpreters plus the median of SETUP_REPEATS input builds.

``--trace 1`` alternates an untraced and a traced pass over the same
inputs and reports the per-layer metrics: per-pass medians of each traced
function's calls, inclusive and self seconds, the quadrature node count,
the spectrum's Hausdorff error, the tracing overhead as the median paired
difference, and the known-defect probe (operations that fail today, run
once after the passes and kept out of ``attempted`` and ``failed``).

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
a JSON report with per-op latencies and residuals, each failure with its
reason, the probe, the set-up samples and the environment.  Traced runs
also write their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("examples-large", "riesz-nonnormal")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 5
E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits",
             "setup_s": "s"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quatcalc; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Record:
    pass_index: int
    op: str
    seconds: float
    outcome: object  # workloads.Outcome


def run_op(op, p: int):
    """Time one operation, then check it; a raise is a failed operation."""
    from workloads import Outcome

    t0 = perf_counter()
    try:
        result = op.run()
    except SystemExit as e:  # argparse inside cli.main exits on bad argv
        result = e.code
    except Exception as e:
        dt = perf_counter() - t0
        reason = "raised " + "".join(
            traceback.format_exception_only(type(e), e)).strip()
        return Record(p, op.name, dt, Outcome(False, None, reason))
    dt = perf_counter() - t0
    try:
        outcome = op.check(result)
    except Exception as e:
        reason = "check raised " + "".join(
            traceback.format_exception_only(type(e), e)).strip()
        outcome = Outcome(False, None, reason)
    return Record(p, op.name, dt, outcome)


def run_pass(workload, p: int, records: list) -> float:
    """Run pass p; returns the summed op time (checks excluded)."""
    total = 0.0
    for op in workload.ops(p):
        rec = run_op(op, p)
        records.append(rec)
        total += rec.seconds
    return total


def import_seconds(env: dict) -> list[float]:
    """Import time of quatcalc in fresh interpreters, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=120, check=True)
        times.append(float(r.stdout))
    return times


def environment(cap: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "nproc": cap,
        "cpu_count": os.cpu_count(),
        "blas_threads_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


def op_table(records: list) -> dict:
    table = {}
    for rec in records:
        row = table.setdefault(rec.op, {"runs": 0, "failed": 0,
                                        "seconds": [], "max_residual": None})
        row["runs"] += 1
        row["failed"] += not rec.outcome.ok
        row["seconds"].append(rec.seconds)
        r = rec.outcome.residual
        if r is not None:
            row["max_residual"] = max(r, row["max_residual"] or 0.0)
    for row in table.values():
        row["median_s"] = statistics.median(row.pop("seconds"))
    return table


def pass_seconds(records: list) -> float:
    """Time of one pass: the sum over the op list of each op's median.

    Per-op medians across passes shed a burst of machine noise that hits
    one op, which a median of whole-pass sums keeps.
    """
    by_op: dict[str, list] = {}
    for r in records:
        by_op.setdefault(r.op, []).append(r.seconds)
    return sum(statistics.median(v) for v in by_op.values())


def end_to_end(records: list, setup_s: float) -> dict:
    digits = [-math.log10(max(r.outcome.residual, 1e-16)) for r in records
              if r.outcome.ok and r.outcome.residual is not None]
    return {
        "wall_s": pass_seconds(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "accuracy_digits": min(digits) if digits else 0.0,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quatcalc" / "__init__.py").is_file():
        print(f"perfbench: no quatcalc package under {SRC}; run from the "
              "root of a quatcalc checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # cap BLAS threads at the usable cores before numpy is first imported
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))

    import_times = import_seconds(env)
    import quatcalc
    pkg = Path(quatcalc.__file__).resolve().parent
    if pkg != (SRC / "quatcalc").resolve():
        print(f"perfbench: imported quatcalc from {quatcalc.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, layer_metric_names, median_summary

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        cls = workloads.WORKLOADS[args.workload]
        build_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload = cls(args.seed, workdir)
            build_times.append(perf_counter() - t0)
        setup_s = statistics.median(import_times) + \
            statistics.median(build_times)

        records: list[Record] = []
        untraced: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        tracer = Tracer() if args.trace else None
        start = perf_counter()
        p = 0
        while True:
            untraced.append(run_pass(workload, p, records))
            if tracer:
                since = tracer.mark()
                tracer.install()
                try:
                    traced.append(run_pass(workload, p, records))
                finally:
                    tracer.uninstall()
                layers.append(tracer.summarize(since))
            p += 1
            if perf_counter() - start >= args.seconds:
                break

        # known-defect probe: reported with the per-layer metrics
        probe = ([run_op(op, -1) for op in workload.probe()]
                 if args.trace else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.outcome.ok for r in records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": p,
        "pass_s": untraced,
        "ops": op_table(records),
        "op_samples": len(records),
        "failures": [{"pass": r.pass_index, "op": r.op,
                      "reason": r.outcome.detail}
                     for r in records if not r.outcome.ok],
        "probe": [{"op": r.op, "ok": r.outcome.ok, "seconds": r.seconds,
                   "reason": r.outcome.detail} for r in probe],
        "setup": {"import_s": import_times, "inputs_s": build_times},
        "environment": environment(cap),
    }

    if args.trace:
        values = median_summary(layers)
        values["trace_overhead_s"] = statistics.median(
            t - u for t, u in zip(traced, untraced))
        values["spectrum.hausdorff"] = max(
            (r.outcome.hausdorff for r in records
             if r.outcome.hausdorff is not None), default=0.0)
        values["probe.ops"] = len(probe)
        values["probe.failed"] = sum(not r.outcome.ok for r in probe)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans)
        report["spans"] = str(spans.relative_to(ROOT))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_metric_names()}
    else:
        values = end_to_end(records, setup_s)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
