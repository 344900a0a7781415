"""Command-line front end.

Subcommands: ``spectrum``, ``riesz``, ``examples``, ``verify``.
Exit codes: 0 success, 1 invariant failure, 2 input error, 3 partition
error, 4 separation error.  All reports are JSON (CSV for sweeps) and are
byte-identical for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .quaternion import Sphere
from .qmatrix import QMatrix, op_norm
from .spectrum import (SpectrumProximityError, _delta_singular_values,
                       spherical_spectrum)
from .scalculus import riesz_decompose, SeparationError, PartitionError
from .discretize import paper_example, volterra_op
from .verify import run_all, default_tolerances, SUITES

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_PARTITION = 3
EXIT_SEPARATION = 4

# the tolerances the riesz command gates its report on
_RIESZ_TOLS = ("riesz-step", "riesz-restricted")


class CliInputError(Exception):
    pass


def _load_matrix(path: str) -> QMatrix:
    if path is None:
        raise CliInputError("--input is required")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliInputError(f"malformed JSON in {path}: {e}")
    try:
        return QMatrix.from_json(obj)
    except (KeyError, ValueError, TypeError) as e:
        raise CliInputError(f"invalid matrix in {path}: {e}")


def _emit(text: str, output: str | None) -> None:
    if output:
        tmp = output + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(report: dict, output: str | None) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True), output)


def _parse_partition(spec: str) -> list[Sphere]:
    spheres = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise CliInputError(
                f"partition entry {part!r} is not of the form re,rad")
        try:
            re_v, rad_v = float(bits[0]), float(bits[1])
        except ValueError:
            raise CliInputError(f"partition entry {part!r} is not numeric")
        spheres.append(Sphere(re_v, rad_v))
    if not spheres:
        raise CliInputError("partition selects no spheres")
    return spheres


def _tol_overrides(args) -> dict:
    out = {}
    for name in default_tolerances():
        val = getattr(args, "tol_" + name.replace("-", "_"), None)
        if val is not None:
            if val <= 0:
                raise CliInputError(f"--tol-{name} must be positive")
            out[name] = val
    return out


def cmd_spectrum(args) -> int:
    T = _load_matrix(args.input)
    if not T.is_square:
        raise CliInputError("operator must be square")
    spec = spherical_spectrum(T)
    entries = spec.to_json()
    for rep, s in zip(entries, spec.spheres):
        rep["delta_min_sv"] = float(_delta_singular_values(T, s)[-1])
    _dump({"spheres": entries, "size": T.rows}, args.output)
    return EXIT_OK


def cmd_riesz(args) -> int:
    T = _load_matrix(args.input)
    if not T.is_square:
        raise CliInputError("operator must be square")
    sigma = _parse_partition(args.partition)
    tols = default_tolerances()
    tols.update(_tol_overrides(args))
    pair = riesz_decompose(T, sigma)
    step_keys = ["idempotent_sigma", "idempotent_tau", "sum_identity",
                 "product_zero", "commute_sigma", "commute_tau"]
    # self-adjointness of the projections is an invariant for normal T only
    scale = max(op_norm(T), 1.0)
    if op_norm(T @ T.adjoint() - T.adjoint() @ T) <= 1e-10 * scale ** 2:
        step_keys += ["self_adjoint_sigma", "self_adjoint_tau"]
    ok = (max(pair.residuals[k] for k in step_keys) <= tols["riesz-step"]
          and max(pair.residuals["spectrum_sigma_hausdorff"],
                  pair.residuals["spectrum_tau_hausdorff"])
          <= tols["riesz-restricted"])
    report = {
        "P_sigma": pair.P_sigma.to_json(),
        "P_tau": pair.P_tau.to_json(),
        "spectrum_sigma": pair.spectrum_sigma.to_json(),
        "spectrum_tau": pair.spectrum_tau.to_json(),
        "residuals": pair.residuals,
        "tolerances": {name: tols[name] for name in _RIESZ_TOLS},
        "passed": ok,
    }
    _dump(report, args.output)
    return EXIT_OK if ok else EXIT_INVARIANT


def _parse_sweep(spec: str) -> list[int]:
    try:
        a, b = spec.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise CliInputError("--sweep must be of the form a:b")
    if lo < 2 or hi < lo:
        raise CliInputError("--sweep bounds must satisfy 2 <= a <= b")
    ns, n = [], lo
    while n <= hi:
        ns.append(n)
        n *= 2
    return ns


def cmd_examples(args) -> int:
    if args.sweep:
        ns = _parse_sweep(args.sweep)
        ref = 1.0 / math.pi
        lines = ["n,norm,reference,error"]
        for n in ns:
            v = op_norm(volterra_op(n).matrix)
            lines.append(f"{n},{v!r},{ref!r},{abs(v - ref)!r}")
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    if args.n is None:
        raise CliInputError("--n is required without --sweep")
    try:
        bundle = paper_example(args.which, args.n)
    except ValueError as e:
        raise CliInputError(str(e))
    diag = dict(bundle.diagnostics)
    report = {
        "example": bundle.name,
        "n": bundle.n,
        "diagnostics": diag,
        "T": bundle.T.matrix.to_json() if args.full else None,
    }
    _dump(report, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = args.suites.split(",") if args.suites else list(SUITES)
    report = run_all(seed=args.seed, tol_overrides=_tol_overrides(args),
                     suites=suites)
    _dump(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quatcalc",
        description="Quaternionic operator calculus: spectra, Riesz "
                    "projections, strong-irreducibility decisions, and "
                    "grid discretizations of the worked examples.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", help="write the report here "
                                         "(default: stdout)")

    def tolerance_flags(sp, names=None):
        defaults = default_tolerances()
        for name in names or defaults:
            sp.add_argument(f"--tol-{name}", type=float, default=None,
                            dest="tol_" + name.replace("-", "_"),
                            help=f"override tolerance {name} "
                                 f"(default {defaults[name]:g})")

    sp = sub.add_parser("spectrum", help="spherical spectrum of an operator")
    sp.add_argument("--input", help="QMatrix JSON file")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("riesz", help="Riesz decomposition for a partition")
    sp.add_argument("--input", help="QMatrix JSON file")
    sp.add_argument("--partition", required=True,
                    help='sigma spheres as "re,rad;re,rad;..."')
    common(sp)
    tolerance_flags(sp, _RIESZ_TOLS)
    sp.set_defaults(func=cmd_riesz)

    sp = sub.add_parser("examples", help="reproduce the worked examples")
    sp.add_argument("--which", choices=["normal", "nonnormal"],
                    default="normal")
    sp.add_argument("--n", type=int, default=None,
                    help="grid size (multiple of 3)")
    sp.add_argument("--sweep", default=None,
                    help="norm-convergence sweep a:b (CSV output)")
    sp.add_argument("--full", action="store_true",
                    help="embed the assembled operator in the report")
    common(sp)
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suites", default=None,
                    help=f"comma-separated subset of {','.join(SUITES)}")
    common(sp)
    tolerance_flags(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value starting with "-" (a negative real part) as an
    # option, so bind "--partition -1,0.5" as "--partition=-1,0.5"
    if "--partition" in argv[:-1]:
        k = argv.index("--partition")
        argv[k:k + 2] = [f"--partition={argv[k + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PartitionError as e:
        print(f"partition error: {e}", file=sys.stderr)
        return EXIT_PARTITION
    except SeparationError as e:
        print(f"separation error: {e}", file=sys.stderr)
        return EXIT_SEPARATION
    except SpectrumProximityError as e:
        print(f"separation error: {e}", file=sys.stderr)
        return EXIT_SEPARATION
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
