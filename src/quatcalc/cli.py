"""Command-line front end.

Subcommands: ``spectrum``, ``riesz``, ``examples``, ``verify``.
Exit codes: 0 success or a reader that closed stdout, 1 invariant failure,
2 input error, 3 partition error, 4 separation error, a quadrature that
fails its round-off check, a LAPACK routine that fails on a valid input
(numpy's ``LinAlgError``) or an intermediate result that overflows on a
finite input (``OverflowError``).  All reports are JSON (CSV for sweeps)
and are byte-identical for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

from .quaternion import Sphere
from .qmatrix import QMatrix, _normality_defect, op_norm
from .spectrum import (SpectrumProximityError, _delta_min_sv,
                       spherical_spectrum)
from .scalculus import riesz_decompose, SeparationError, PartitionError
from .discretize import paper_example, volterra_norm
from .verify import run_all, default_tolerances, SUITES

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_PARTITION = 3
EXIT_SEPARATION = 4

# the tolerances the riesz command gates its report on
_RIESZ_TOLS = ("riesz-step", "riesz-restricted")

# largest --sweep bound: volterra_norm(4096) holds one n x n float64
# table, 128 MiB (plus a 16 MiB bool mask while it is built), on the
# Perron path; a matrix that falls back forms an n x n Gram matrix too
# and pays an O(n^3) eigensolve, and each doubling of n quadruples both
SWEEP_MAX_N = 4096

# largest --n: paper_example(which, n) peaks near 128 n^2 bytes (traced
# at n = 192, 768), 288 MiB at n = 1536; with --full near 550 n^2 bytes
EXAMPLES_MAX_N = 1536


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
        T = QMatrix.from_json(obj)
        if not np.isfinite(T.entries).all():
            r, c = np.argwhere(~np.isfinite(T.entries))[0][:2]
            raise ValueError(f"non-finite entry {T.entries[r, c].tolist()} "
                             f"at ({r}, {c})")
    except (KeyError, ValueError, TypeError) as e:
        raise CliInputError(f"invalid matrix in {path}: {e}")
    return T


def _emit(text: str, output: str | None) -> None:
    if output:
        tmp = output + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, output)
        except OSError as e:
            if os.path.isfile(tmp):
                os.remove(tmp)
            raise CliInputError(f"cannot write {output}: {e}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_json(o, level: int, out: list) -> None:
    """Append the text of o, nested ``level`` deep, to ``out``.

    Containers are written here, and every other value and key by
    ``json.dumps``, which raises json's ``TypeError`` for a value it cannot
    write.  A list of finite floats is joined from ``float.__repr__`` in
    one call; json writes nan and inf as NaN and Infinity, and their reprs
    hold the only "n" a float's repr can have.
    """
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        try:
            text = ("," + inner).join(map(float.__repr__, o))
        except TypeError:  # not all floats
            text = "n"
        if "n" not in text:
            out.append("[" + inner + text + "\n" + "  " * level + "]")
            return
        out.append("[")
        for k, value in enumerate(o):
            out.append("," + inner if k else inner)
            _write_json(value, level + 1, out)
        out.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        out.append("{")
        for k, (key, value) in enumerate(sorted(o.items())):
            out.append(("," if k else "") + inner
                       + json.dumps(_json_key(key)) + ": ")
            _write_json(value, level + 1, out)
        out.append("\n" + "  " * level + "}")
    else:
        out.append(json.dumps(o))


def _dumps(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte.

    json's C encoder ignores ``indent``, so json writes indented text with
    its Python encoder; this writer makes the same text faster.  A cyclic
    value, which no report is, raises ``RecursionError`` instead of json's
    ``ValueError``.
    """
    out: list[str] = []
    _write_json(report, 0, out)
    return "".join(out)


def _dump(report: dict, output: str | None) -> None:
    _emit(_dumps(report), output)


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
        if not (math.isfinite(re_v) and 0.0 <= rad_v < math.inf):
            raise CliInputError(f"partition entry {part!r} needs a finite "
                                f"re and a finite rad >= 0")
        spheres.append(Sphere(re_v, rad_v))
    if not spheres:
        raise CliInputError("partition selects no spheres")
    return spheres


def _tol_overrides(args) -> dict:
    out = {}
    for name in default_tolerances():
        val = getattr(args, "tol_" + name.replace("-", "_"), None)
        if val is not None:
            if not val > 0:  # nan too
                raise CliInputError(f"--tol-{name} must be positive")
            out[name] = val
    return out


def cmd_spectrum(args) -> int:
    T = _load_matrix(args.input)
    if not T.is_square:
        raise CliInputError("operator must be square")
    spec = spherical_spectrum(T)
    entries = spec.to_json()
    for rep, v in zip(entries, _delta_min_sv(T, spec.spheres)):
        rep["delta_min_sv"] = v
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
    step_keys = ["idempotent_sigma", "commute_sigma"]
    # self-adjointness of the projection is an invariant for normal T only;
    # the restricted spectra are gated relative to ||T|| (> 0: T = 0 has
    # one sphere, which no partition splits)
    scale = op_norm(T)
    if _normality_defect(T) / scale <= 1e-10 * scale:  # no scale ** 2 overflow
        step_keys.append("self_adjoint_sigma")
    ok = (max(pair.residuals[k] for k in step_keys) <= tols["riesz-step"]
          and max(pair.residuals["spectrum_sigma_hausdorff"],
                  pair.residuals["spectrum_tau_hausdorff"]) / scale
          <= tols["riesz-restricted"])
    report = {
        "P_sigma": pair.P_sigma.to_json(),
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
    if hi > SWEEP_MAX_N:
        raise CliInputError(f"--sweep upper bound {hi} is above {SWEEP_MAX_N}")
    ns, n = [], lo
    while n <= hi:
        ns.append(n)
        n *= 2
    return ns


def cmd_examples(args) -> int:
    if args.sweep:
        for flag, given in (("--which", args.which is not None),
                            ("--n", args.n is not None), ("--full", args.full)):
            if given:
                raise CliInputError(f"{flag} cannot be combined with --sweep")
        ns = _parse_sweep(args.sweep)
        ref = 1.0 / math.pi
        lines = ["n,norm,reference,error"]
        for n in ns:
            v = volterra_norm(n)
            lines.append(f"{n},{v!r},{ref!r},{abs(v - ref)!r}")
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    if args.n is None:
        raise CliInputError("--n is required without --sweep")
    if args.n > EXAMPLES_MAX_N:
        raise CliInputError(f"--n {args.n} is above {EXAMPLES_MAX_N}")
    try:
        bundle = paper_example(args.which or "normal", args.n)
    except ValueError as e:
        raise CliInputError(str(e))
    diag = dict(bundle.diagnostics)
    report = {
        "example": bundle.name,
        "n": bundle.n,
        "diagnostics": diag,
        "T": bundle.T.to_json() if args.full else None,
    }
    _dump(report, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = args.suites.split(",") if args.suites else list(SUITES)
    report = run_all(seed=args.seed, tol_overrides=_tol_overrides(args),
                     suites=suites)
    _dump(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


@functools.cache  # built on first use; parsing leaves it unchanged
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
                    default=None,
                    help="worked example (default: normal; not with --sweep)")
    sp.add_argument("--n", type=int, default=None,
                    help=f"grid size (multiple of 3, <= {EXAMPLES_MAX_N})")
    sp.add_argument("--sweep", default=None,
                    help="Volterra norm sweep over n = a, 2a, ... <= b, "
                         f"b <= {SWEEP_MAX_N} (CSV output; not with --which, "
                         "--n or --full)")
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
    except BrokenPipeError:
        # quatcalc ... | head -1: shutdown's flush must not meet the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PartitionError as e:
        print(f"partition error: {e}", file=sys.stderr)
        return EXIT_PARTITION
    except (SeparationError, SpectrumProximityError) as e:
        print(f"separation error: {e}", file=sys.stderr)
        return EXIT_SEPARATION
    except LinAlgError as e:  # a ValueError, but not the input's fault
        print(f"numerical error: LAPACK failed: {e}", file=sys.stderr)
        return EXIT_SEPARATION
    except OverflowError as e:  # a finite input whose intermediates overflow
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_SEPARATION
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
