"""The benchmark's workloads: seeded inputs and oracle-checked operations.

A workload is built once from the seed (input generation, timed as part of
set-up) and then hands out the fixed list of operations for each pass.
Every operation is one timed call into quatcalc, followed by an untimed
check of its output against an oracle from ``oracles``.

Library functions are always reached through their module
(``spectrum.spherical_spectrum``), never through a name bound at import
time, so that the traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from quatcalc import cli, irreducibility, scalculus, spectrum
from quatcalc.qmatrix import QMatrix
from quatcalc.quaternion import Quaternion

import oracles


@dataclass
class Outcome:
    """Result of checking one operation against its oracle.

    ``residual`` is the relative residual that enters accuracy_digits, or
    None for an operation kept out of it.  ``hausdorff`` is the Hausdorff
    error of a computed spectrum against its oracle, where there is one.
    """

    ok: bool
    residual: float | None
    detail: str = ""
    hausdorff: float | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _within(residual: float, tol: float, what: str, accuracy: bool = True,
            hausdorff: float | None = None) -> Outcome:
    ok = bool(residual <= tol)
    detail = "" if ok else f"{what} residual {residual:.3e} > {tol:.1e}"
    return Outcome(ok, residual if accuracy else None, detail, hausdorff)


def _cli_exit(rc: int) -> Outcome | None:
    if rc != cli.EXIT_OK:
        return Outcome(False, None, f"cli exit code {rc}, expected "
                       f"{cli.EXIT_OK}")
    return None


def _write_qmatrix(path: Path, e: np.ndarray) -> None:
    """Write e as the CLI's matrix JSON: data[r][c] = [w, x, y, z]."""
    with open(path, "w") as fh:
        json.dump({"rows": e.shape[0], "cols": e.shape[1],
                   "data": e.tolist()}, fh)


def _square(q: Quaternion) -> Quaternion:
    return q * q


# ---------------------------------------------------------------------------
# examples-large
# ---------------------------------------------------------------------------


class ExamplesLarge:
    """The paper's operators at large n, the Volterra sweep, a big spectrum.

    This is where the broadcast Hamilton ``@``, the full-SVD ``op_norm`` and
    the O(n^2) ``circularize`` scan dominate.  The inputs are the paper's
    fixed grids, so the seed does not change this workload.  n = 384 for
    ``examples`` is left out: today's ``@`` needs a 2.7 GB peak there and a
    27 s single call, which does not fit a shared 2-core machine or the
    run budget; n = 1024 needs a ~34 GB temporary.
    """

    EXAMPLES = (("nonnormal", 96), ("nonnormal", 192),
                ("normal", 96), ("normal", 192))
    SWEEP = "64:1024"
    SWEEP_NS = (64, 128, 256, 512, 1024)
    SPECTRUM_N = 384
    # The eigenvalues of this lower-triangular, strongly non-normal T are
    # ill-conditioned: a backward-stable eigensolver moves them by 3e-3 to
    # 5e-3 for n = 96..384 although ||T|| ~ 0.64.  The gate catches a wrong
    # sphere set, not rounding, so this op stays out of accuracy_digits.
    SPECTRUM_HAUSDORFF_GATE = 1e-2

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        n = self.SPECTRUM_N
        e = oracles.nonnormal_T(n)
        self.T_spec = QMatrix(e)
        self.spheres_spec = oracles.nonnormal_spheres(n)
        # the trace is the one spectral quantity eigenvalue fragility
        # cannot move: sum over spheres of mult * re = sum of Re diag(T)
        self.trace_spec = float(np.trace(e[..., 0]))

    def ops(self, p: int) -> list[Op]:
        ops = [self._example_op(w, n) for w, n in self.EXAMPLES]
        ops.append(self._sweep_op())
        ops.append(Op(f"spherical_spectrum.nonnormal.{self.SPECTRUM_N}",
                      lambda: spectrum.spherical_spectrum(self.T_spec),
                      self._check_spectrum))
        return ops

    def probe(self) -> list[Op]:
        return []

    def _example_op(self, which: str, n: int) -> Op:
        out = self.workdir / f"examples-{which}-{n}.json"
        ref = (oracles.volterra_norm(n) if which == "nonnormal"
               else oracles.normal_kernel_norm(n))

        def check(rc: int) -> Outcome:
            bad = _cli_exit(rc)
            if bad:
                return bad
            with open(out) as fh:
                d = json.load(fh)["diagnostics"]
            rel = abs(d["norm_K"] - ref) / ref
            fact = d["factorization_residual"] / d["norm_T"]
            return _within(max(rel, fact), 1e-12, "||K|| and T = (W+K)S")

        return Op(f"cli.examples.{which}.{n}",
                  lambda: cli.main(["examples", "--which", which, "--n",
                                    str(n), "--output", str(out)]),
                  check)

    def _sweep_op(self) -> Op:
        out = self.workdir / "sweep.csv"

        def check(rc: int) -> Outcome:
            bad = _cli_exit(rc)
            if bad:
                return bad
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            ns = tuple(int(r["n"]) for r in rows)
            if ns != self.SWEEP_NS:
                return Outcome(False, None, f"sweep grid {ns}")
            refs = [oracles.volterra_norm(n) for n in ns]
            rel = max(abs(float(r["norm"]) - ref) / ref
                      for r, ref in zip(rows, refs))
            return _within(rel, 1e-12, "Volterra norm vs cot(pi/4n)/(4n)")

        return Op("cli.examples.sweep",
                  lambda: cli.main(["examples", "--sweep", self.SWEEP,
                                    "--output", str(out)]),
                  check)

    def _check_spectrum(self, spec) -> Outcome:
        n = self.SPECTRUM_N
        got = np.array([(s.re, s.rad) for s in spec.spheres])
        if len(got) != n or sum(spec.multiplicities) != n:
            return Outcome(False, None, f"{len(got)} spheres, total "
                           f"multiplicity {sum(spec.multiplicities)}, "
                           f"expected {n}")
        h = oracles.hausdorff(got, self.spheres_spec)
        trace = sum(m * s.re for s, m in zip(spec.spheres,
                                             spec.multiplicities))
        tr_rel = abs(trace - self.trace_spec) / abs(self.trace_spec)
        if tr_rel > 1e-10:
            return Outcome(False, None, f"trace residual {tr_rel:.3e}")
        return _within(h, self.SPECTRUM_HAUSDORFF_GATE, "spectrum Hausdorff",
                       accuracy=False, hausdorff=h)


# ---------------------------------------------------------------------------
# riesz-nonnormal
# ---------------------------------------------------------------------------


def _paper_T(which: str, n: int) -> np.ndarray:
    return oracles.normal_T(n) if which == "normal" else oracles.nonnormal_T(n)


def _decision_op(which: str, n: int, T: np.ndarray) -> Op:
    """Strong-irreducibility decision on a paper operator.

    Both operators have more than one distinct sphere for n >= 2, so the
    oracle verdict is "decomposable"; the witness E is certified by
    ||E^2 - E|| and ||ET - TE|| and must be nontrivial.
    """
    Tq = QMatrix(T)

    def check(rep) -> Outcome:
        if rep.verdict != "decomposable":
            why = rep.detail.get("note") or rep.detail.get("reason") or ""
            kd = rep.detail.get("kernel_dim")
            return Outcome(False, None, f"verdict {rep.verdict!r}, expected "
                           f"'decomposable' (kernel_dim {kd}) {why}".strip())
        E = rep.witness.entries
        if not oracles.is_nontrivial(E):
            return Outcome(False, None, "trivial witness")
        idem, comm = oracles.idempotent_certificate(E, T)
        return _within(max(idem, comm), 1e-8, "witness certificate")

    return Op(f"is_strongly_irreducible.{which}.{n}",
              lambda: irreducibility.is_strongly_irreducible(Tq), check)


class RieszNonnormal:
    """Contour-quadrature Riesz projections on seeded non-normal n = 48 inputs.

    Drives the per-node solve/chi loop of ``scalculus`` where LAPACK and
    Python overhead both matter; the number of distinct spheres (3 or 8)
    sets the quadrature node count.  It also carries the decision
    procedure on the paper's own operators.
    """

    N = 48
    SPHERES = {
        "3": ((-1.0, 0.5), (0.5, 0.0), (1.2, 0.4)),
        "8": tuple((-1.5 + 0.42 * k, 0.0 if k % 2 == 0 else 0.3)
                   for k in range(8)),
    }
    # paper-operator decisions inside the timed passes (they pass today)
    DECISIONS = (("normal", 12),)
    # every paper-operator decision the issue asks for; the ones that fail
    # today (a raise at nonnormal n = 12, "indeterminate" at n = 48) are a
    # known defect reported by the probe instead of the timed passes
    PROBE = (("normal", 12), ("nonnormal", 12), ("normal", 48),
             ("nonnormal", 48))

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = np.random.default_rng([seed, zlib.crc32(b"riesz-nonnormal")])
        self.inputs = {k: oracles.SimilarInput(rng, s, self.N)
                       for k, s in self.SPHERES.items()}
        self.paths = {}
        for k, inp in self.inputs.items():
            self.paths[k] = workdir / f"T{k}.json"
            _write_qmatrix(self.paths[k], inp.T)
        self.projections = {k: inp.riesz_projection(0)
                            for k, inp in self.inputs.items()}
        self.norms = {k: oracles.op_norm(inp.T)
                      for k, inp in self.inputs.items()}
        T3 = self.inputs["3"].T
        self.T3 = QMatrix(T3)
        self.T3_squared = oracles.qmatmul(T3, T3)
        self.paper = {(w, n): _paper_T(w, n) for w, n in self.PROBE}

    def ops(self, p: int) -> list[Op]:
        ops = [self._riesz_op(k) for k in self.inputs]
        ops += [self._spectrum_op(k) for k in self.inputs]
        ops.append(Op("func_calc.square.3", self._func_calc_square,
                      self._check_square))
        ops += [_decision_op(w, n, self.paper[w, n])
                for w, n in self.DECISIONS]
        return ops

    def probe(self) -> list[Op]:
        return [_decision_op(w, n, self.paper[w, n]) for w, n in self.PROBE]

    def _riesz_op(self, k: str) -> Op:
        inp = self.inputs[k]
        re, rad = inp.spheres[0]
        out = self.workdir / f"riesz{k}.json"
        # argparse reads "--partition -1,0.5" as an unknown option and exits
        # 2; a value starting with "-" only gets through in the
        # "--partition=re,rad" form (a CLI defect, left as it is here)
        argv = ["riesz", "--input", str(self.paths[k]),
                f"--partition={re!r},{rad!r}", "--output", str(out)]

        def check(rc: int) -> Outcome:
            bad = _cli_exit(rc)
            if bad:
                return bad
            with open(out) as fh:
                rep = json.load(fh)
            if not rep["passed"]:
                return Outcome(False, None, "riesz report not passed")
            sig = rep["spectrum_sigma"]
            if (len(sig) != 1 or math.hypot(sig[0]["re"] - re,
                                             sig[0]["rad"] - rad) > 1e-8):
                return Outcome(False, None, f"spectrum_sigma {sig}")
            P = np.asarray(rep["P_sigma"]["data"], dtype=float)
            return _within(oracles.rel_err(P, self.projections[k]), 1e-10,
                           "P_sigma vs G E G^-1")

        return Op(f"cli.riesz.{k}", lambda: cli.main(argv), check)

    def _spectrum_op(self, k: str) -> Op:
        inp = self.inputs[k]
        out = self.workdir / f"spectrum{k}.json"
        norm = self.norms[k]

        def check(rc: int) -> Outcome:
            bad = _cli_exit(rc)
            if bad:
                return bad
            with open(out) as fh:
                got = json.load(fh)["spheres"]
            if len(got) != len(inp.spheres):
                return Outcome(False, None, f"{len(got)} spheres, expected "
                               f"{len(inp.spheres)}")
            h = oracles.hausdorff([(s["re"], s["rad"]) for s in got],
                                  inp.spheres)
            for s in got:
                k_near = min(range(len(inp.spheres)), key=lambda i: math.hypot(
                    inp.spheres[i][0] - s["re"], inp.spheres[i][1] - s["rad"]))
                if s["mult"] != inp.multiplicity(k_near):
                    return Outcome(False, None, f"multiplicity {s['mult']} "
                                   f"at {inp.spheres[k_near]}")
            dsv = max(s["delta_min_sv"] for s in got) / norm ** 2
            return _within(max(h / norm, dsv), 1e-8,
                           "spheres and singular Delta", hausdorff=h)

        return Op(f"cli.spectrum.{k}",
                  lambda: cli.main(["spectrum", "--input", str(self.paths[k]),
                                    "--output", str(out)]),
                  check)

    def _func_calc_square(self):
        spec = spectrum.spherical_spectrum(self.T3)
        contour = scalculus.build_contour(spec.spheres)
        return scalculus.func_calc(_square, "right", self.T3, contour, spec)

    def _check_square(self, F) -> Outcome:
        return _within(oracles.rel_err(F.entries, self.T3_squared), 1e-10,
                       "func_calc(q^2) vs T@T")


WORKLOADS = {
    "examples-large": ExamplesLarge,
    "riesz-nonnormal": RieszNonnormal,
}
