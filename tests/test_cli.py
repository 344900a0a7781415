import argparse
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatcalc import cli
from quatcalc import qmatrix as qm
from quatcalc.cli import main
from quatcalc.qmatrix import QMatrix, chi, chi_inv, op_norm
from quatcalc.quaternion import Quaternion, Sphere
from quatcalc.spectrum import hausdorff_distance, spherical_spectrum


def _write_matrix(path, T: QMatrix):
    path.write_text(json.dumps(T.to_json()))


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture
def diag_ij3(tmp_path):
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    p = tmp_path / "T.json"
    _write_matrix(p, T)
    return p


def test_spectrum_command(diag_ij3, tmp_path):
    out = tmp_path / "spec.json"
    rc = main(["spectrum", "--input", str(diag_ij3), "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["size"] == 2
    spheres = sorted(report["spheres"], key=lambda s: s["re"])
    assert spheres[0]["re"] == pytest.approx(0.0, abs=1e-12)
    assert spheres[0]["rad"] == pytest.approx(1.0, abs=1e-12)
    assert spheres[1]["re"] == pytest.approx(3.0, abs=1e-12)
    assert all(s["mult"] == 1 for s in spheres)
    assert all(s["delta_min_sv"] <= 1e-9 for s in spheres)


def test_spectrum_report_is_the_same_for_one_and_two_blas_threads(tmp_path):
    """One seeded non-normal n = 48 input, ``python -m quatcalc spectrum``
    under OPENBLAS_NUM_THREADS=1 and =2: byte-identical reports."""
    p = tmp_path / "T.json"
    _write_matrix(p, QMatrix(np.random.default_rng(5).standard_normal(
        (48, 48, 4))))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"spec{threads}.json"
        done = subprocess.run(
            [sys.executable, "-m", "quatcalc", "spectrum", "--input", str(p),
             "--output", str(out)],
            env={**_src_env(), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["spheres"]) == 48


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--input", None], id="spectrum"),
    pytest.param(["examples", "--sweep", "64:128"], id="examples-sweep"),
])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_exits_2(diag_ij3, tmp_path, capsys, argv, where):
    """An --output that cannot be written is an input error naming the path:
    exit 2, nothing on stdout, no traceback, and no .tmp left behind (a
    directory at the path fails only at the replace, after the write)."""
    argv = [str(diag_ij3) if a is None else a for a in argv]
    if where == "missing-dir":
        out = tmp_path / "nodir" / "x.json"
    else:
        out = tmp_path / "taken"
        out.mkdir()
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert not Path(str(out) + ".tmp").exists()


def test_spectrum_of_empty_matrix(tmp_path):
    p = tmp_path / "empty.json"
    _write_matrix(p, QMatrix.zeros(0))
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--input", str(p), "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == {"spheres": [], "size": 0}


def test_spectrum_rejects_nonsquare(tmp_path):
    p = tmp_path / "bad.json"
    _write_matrix(p, QMatrix.zeros(2, 3))
    assert main(["spectrum", "--input", str(p)]) == 2


def test_spectrum_rejects_missing_file(tmp_path):
    assert main(["spectrum", "--input", str(tmp_path / "nope.json")]) == 2


def test_spectrum_rejects_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["spectrum", "--input", str(p)]) == 2


def test_spectrum_exits_4_when_lapack_fails(tmp_path, monkeypatch, capsys):
    """A LAPACK routine that does not converge on a valid input is a
    numerical refusal (exit 4), not an input error, although numpy's
    ``LinAlgError`` is a ``ValueError``.  The input is not triangular, so
    its spectrum reaches the eigensolver."""
    e = np.zeros((2, 2, 4))
    e[..., 0] = [[0.0, 1.0], [1.0, 3.0]]
    e[0, 0, 2] = 1.0
    p = tmp_path / "T.json"
    _write_matrix(p, QMatrix(e))

    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    assert main(["spectrum", "--input", str(p)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical error: LAPACK failed: Eigenvalues did "
                            "not converge\n")


@pytest.fixture
def overflowing(tmp_path):
    """A finite input whose products overflow: [[1, 1e308], [0, 1e308]]."""
    e = np.zeros((2, 2, 4))
    e[..., 0] = [[1.0, 1e308], [0.0, 1e308]]
    p = tmp_path / "T.json"
    _write_matrix(p, QMatrix(e))
    return p


@pytest.mark.parametrize("argv, stage", [
    (["spectrum"], "Delta_q(T) = T^2 - 2 re(q) T + |q|^2 I overflows at "
                   "the sphere (re 1.0, rad 0.0)"),
    (["riesz", "--partition", "1,0"],
     "the normality defect TT* - T*T overflows"),
], ids=["spectrum", "riesz"])
def test_overflowing_products_of_a_finite_input_exit_4(overflowing, capsys,
                                                        argv, stage):
    """Products that overflow are a numerical refusal (exit 4) that names
    the stage, not an input error about an internal matrix, and no numpy
    warning reaches stderr (the suite turns warnings into errors)."""
    assert main(argv + ["--input", str(overflowing)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical error: {stage}\n"


def test_spectrum_whose_eigenvalues_overflow_exits_4(tmp_path, capsys):
    """A finite input with an eigenvalue past the largest float (2e308 for
    the all-1e308 2 x 2 matrix) is a numerical refusal that names the
    eigensolve, not a non-finite point handed to the sphere clustering."""
    e = np.zeros((2, 2, 4))
    e[..., 0] = 1e308
    p = tmp_path / "T.json"
    _write_matrix(p, QMatrix(e))
    assert main(["spectrum", "--input", str(p)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical error: the eigenvalues of chi(T) "
                            "overflow\n")


def test_riesz_past_the_square_root_of_the_largest_float_reaches_its_gates(
        tmp_path):
    """||T||^2 overflows once ||T|| > 1.34e154 while TT* - T*T stays
    finite: the normality test divides the defect by ||T|| first, so the
    request is no numerical error (exit 4).  It reaches its gates and
    passes both: the step gate and the restricted-spectra gate, which
    divides the Hausdorff distances by ||T|| (the report keeps them raw)."""
    p = tmp_path / "T.json"
    T = QMatrix(np.full((4, 4, 4), [5e153, 0.0, 0.0, 0.0]))
    _write_matrix(p, T)
    out = tmp_path / "riesz.json"
    assert main(["riesz", "--input", str(p), "--partition", "2e154,0",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    res, tols = report["residuals"], report["tolerances"]
    assert max(res[k] for k in ("idempotent_sigma", "commute_sigma",
                                "self_adjoint_sigma")) <= tols["riesz-step"]
    hausdorff = max(res["spectrum_sigma_hausdorff"],
                    res["spectrum_tau_hausdorff"])
    assert tols["riesz-restricted"] < hausdorff
    assert hausdorff <= tols["riesz-restricted"] * op_norm(T)


@pytest.mark.parametrize("c", [1.0, 2.0 ** -40, 2.0 ** 500])
@pytest.mark.parametrize("shift", [0.0, 1e-3])
def test_riesz_rejects_a_restricted_spectrum_shifted_by_1e_3(
        c, shift, tmp_path, monkeypatch):
    """c diag(j, 3) split at c j: a restricted sigma spectrum moved by
    1e-3 c, ||T|| = 3c, fails the relative gate (exit 1) at every scale c;
    the unshifted one passes."""
    T = QMatrix.diag([Quaternion(0, 0, c, 0), Quaternion(3 * c, 0, 0, 0)])
    p = tmp_path / "T.json"
    _write_matrix(p, T)
    decompose = cli.riesz_decompose

    def shifted(T, sigma):
        pair = decompose(T, sigma)
        moved = [Sphere(s.re + shift * c, s.rad)
                 for s in pair.spectrum_sigma.spheres]
        return dataclasses.replace(pair, residuals=dict(
            pair.residuals, spectrum_sigma_hausdorff=hausdorff_distance(
                moved, pair.spectrum_sigma.spheres)))

    monkeypatch.setattr(cli, "riesz_decompose", shifted)
    assert main(["riesz", "--input", str(p), "--partition", f"0,{c!r}",
                 "--output", str(tmp_path / "r.json")]) == (1 if shift else 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_spectrum_rejects_non_finite_entry(tmp_path, capsys, bad):
    e = np.eye(2)[..., None] * np.array([1.0, 0, 0, 0])
    e[0, 1, 2] = bad
    p = tmp_path / "bad.json"
    _write_matrix(p, QMatrix(e))
    assert main(["spectrum", "--input", str(p)]) == 2
    assert "non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_riesz_rejects_non_finite_entry(tmp_path, capsys, bad):
    """The loader names the input file and the entry, before any stage."""
    e = np.eye(2)[..., None] * np.array([1.0, 0, 0, 0])
    e[0, 1, 2] = bad
    p = tmp_path / "bad.json"
    _write_matrix(p, QMatrix(e))
    assert main(["riesz", "--input", str(p), "--partition", "1,0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: invalid matrix in {p}: non-finite entry "
                       f"[0.0, 0.0, {bad}, 0.0] at (0, 1)\n")


def test_riesz_command(diag_ij3, tmp_path):
    out = tmp_path / "riesz.json"
    rc = main(["riesz", "--input", str(diag_ij3),
               "--partition", "0,1", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["residuals"]["idempotent_sigma"] <= 1e-10
    assert "P_tau" not in report
    assert report["spectrum_sigma"][0]["rad"] == pytest.approx(1.0, abs=1e-8)
    P = QMatrix.from_json(report["P_sigma"])
    assert P.rows == 2


def test_riesz_full_sigma_is_partition_error(diag_ij3):
    rc = main(["riesz", "--input", str(diag_ij3), "--partition", "0,1;3,0"])
    assert rc == 3


def test_riesz_unmatched_sphere_is_partition_error(diag_ij3):
    rc = main(["riesz", "--input", str(diag_ij3), "--partition", "9,0"])
    assert rc == 3


def test_riesz_odd_chi_rank_is_partition_error(diag_ij3, monkeypatch, capsys):
    """A projection whose chi(P) has odd rank is not the projection of the
    requested split: exit 3, not an input error."""
    svd = np.linalg.svd

    def odd_svd(M, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            return svd(M, *args, **kwargs)
        U, sv, Vt = svd(M, *args, **kwargs)
        sv = sv.copy()
        sv[2] = 0.9  # a third singular value above the 0.5 cut
        return U, sv, Vt

    monkeypatch.setattr(np.linalg, "svd", odd_svd)
    rc = main(["riesz", "--input", str(diag_ij3), "--partition", "0,1"])
    assert rc == 3
    assert "partition error: chi(P) has odd rank 3" in capsys.readouterr().err


def test_riesz_malformed_partition(diag_ij3, capsys):
    assert main(["riesz", "--input", str(diag_ij3),
                 "--partition", "zero,one"]) == 2
    for entry in ("nan,0", "0,inf", "-inf,1", "0.5,-1"):
        assert main(["riesz", "--input", str(diag_ij3),
                     "--partition", entry]) == 2
        assert repr(entry) in capsys.readouterr().err


def test_examples_report(tmp_path):
    out = tmp_path / "ex.json"
    rc = main(["examples", "--which", "nonnormal", "--n", "48",
               "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n"] == 48
    assert report["T"] is None
    diag = report["diagnostics"]
    assert diag["factorization_residual"] <= 1e-12
    assert abs(diag["norm_K"] - 1.0 / np.pi) < 1e-2


@pytest.mark.parametrize("which", ["normal", "nonnormal"])
def test_examples_report_takes_no_quaternion_product(which, tmp_path,
                                                     monkeypatch):
    """The factorization check scales columns by S's diagonal: an
    examples report makes no dense QMatrix product."""
    def refuse(self, other):
        raise AssertionError("QMatrix.__matmul__ called")

    monkeypatch.setattr(QMatrix, "__matmul__", refuse)
    out = tmp_path / "ex.json"
    assert main(["examples", "--which", which, "--n", "96",
                 "--output", str(out)]) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["factorization_residual"] <= 1e-14 * diag["norm_T"]


def test_examples_bad_n(tmp_path):
    assert main(["examples", "--which", "normal", "--n", "100"]) == 2


def test_examples_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["examples", "--sweep", "8:32", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,norm,reference,error"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [8, 16, 32]
    errors = [float(r[3]) for r in rows]
    assert errors[2] < errors[1] < errors[0]


def test_examples_sweep_to_1024_matches_closed_form(tmp_path):
    """End to end: each swept Volterra norm is cot(pi/4n)/(4n) to 1e-15, and
    the CSV has the bytes of the Perron path's norms."""
    out = tmp_path / "sweep.csv"
    assert main(["examples", "--sweep", "64:1024", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9bb42a4c2e47ff308d55d54b5533d4bba8cc3c3e7f991b3d6ad7b2b2f62546df")
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    ns = [int(r[0]) for r in rows]
    assert ns == [64, 128, 256, 512, 1024]
    for n, r in zip(ns, rows):
        exact = 1.0 / (4 * n * np.tan(np.pi / (4 * n)))
        assert abs(float(r[1]) - exact) <= 1e-15 * exact


def test_examples_sweep_to_1024_holds_one_table(tmp_path, traced_peak):
    """The sweep holds one n x n float64 table at n = 1024, plus its build
    mask (traced by tracemalloc): the norm core reads the unit table in
    place instead of making a scaled copy."""
    out = str(tmp_path / "sweep.csv")
    main(["examples", "--sweep", "8:8", "--output", out])  # lazy imports
    peak = traced_peak(
        lambda: main(["examples", "--sweep", "64:1024", "--output", out]))
    assert peak <= 1.2 * 8 * 1024 * 1024


def test_examples_bad_sweep():
    assert main(["examples", "--sweep", "32:8"]) == 2


@pytest.mark.parametrize("extra, flag", [
    (["--n", "96"], "--n"),
    (["--full"], "--full"),
    (["--which", "nonnormal"], "--which"),
    (["--which", "normal"], "--which"),
])
def test_examples_sweep_refuses_example_flags(extra, flag, capsys):
    assert main(["examples", "--sweep", "64:128"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_examples_sweep_refuses_a_bound_above_the_cap(monkeypatch, capsys):
    """The bound is checked before any norm is taken: an oversized sweep
    exits 2 and never reaches volterra_norm."""
    def refuse(n):
        raise AssertionError(f"volterra_norm({n}) called")

    monkeypatch.setattr(cli, "volterra_norm", refuse)
    for hi in (cli.SWEEP_MAX_N + 1, 1000000):
        assert main(["examples", "--sweep", f"64:{hi}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cli.SWEEP_MAX_N) in captured.err
    assert cli._parse_sweep(f"64:{cli.SWEEP_MAX_N}")[-1] == cli.SWEEP_MAX_N


def test_examples_refuses_a_grid_above_the_cap(monkeypatch, capsys):
    """--n is checked before anything is built: an oversized grid exits 2
    and never reaches paper_example."""
    def refuse(which, n):
        raise AssertionError(f"paper_example({which!r}, {n}) called")

    monkeypatch.setattr(cli, "paper_example", refuse)
    for n in (cli.EXAMPLES_MAX_N + 3, 6000):
        assert main(["examples", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cli.EXAMPLES_MAX_N) in captured.err
    with pytest.raises(AssertionError, match="called"):
        main(["examples", "--n", str(cli.EXAMPLES_MAX_N)])


def test_verify_subset_and_determinism(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    argv = ["verify", "--seed", "3", "--suites", "polar,extension"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert report["seed"] == 3
    suites = {c["suite"] for c in report["checks"]}
    assert suites == {"polar", "extension"}


def test_verify_tol_override_forces_failure(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", "--suites", "polar",
               "--tol-polar-residual", "1e-30", "--output", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_tol_must_be_positive(diag_ij3, value, capsys):
    for argv in (["verify", "--suites", "polar", "--tol-polar-residual"],
                 ["riesz", "--input", str(diag_ij3), "--partition", "0,1",
                  "--tol-riesz-step"]):
        assert main(argv + [value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive" in captured.err


def test_riesz_partition_with_negative_real_part(tmp_path):
    T = QMatrix.diag([Quaternion(-1, 0.5, 0, 0), Quaternion(3, 0, 0, 0)])
    p = tmp_path / "T.json"
    _write_matrix(p, T)
    out = tmp_path / "riesz.json"
    rc = main(["riesz", "--input", str(p), "--partition", "-1,0.5",
               "--output", str(out)])
    assert rc == 0
    sigma = json.loads(out.read_text())["spectrum_sigma"]
    assert sigma[0]["re"] == pytest.approx(-1.0, abs=1e-8)
    assert sigma[0]["rad"] == pytest.approx(0.5, abs=1e-8)


def test_tolerance_flags_only_where_used(diag_ij3):
    for argv in (["spectrum", "--input", str(diag_ij3)],
                 ["examples", "--sweep", "8:16"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol-riesz-step", "1e-3"])
        assert exc.value.code == 2
    # riesz gates on riesz-step and riesz-restricted only
    with pytest.raises(SystemExit) as exc:
        main(["riesz", "--input", str(diag_ij3), "--partition", "0,1",
              "--tol-polar-residual", "1e-3"])
    assert exc.value.code == 2


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "quatcalc", "verify", "--suites", "polar"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"]


def test_one_process_builds_the_parser_once(diag_ij3, tmp_path, monkeypatch):
    """spectrum, riesz, examples and verify in one process share one
    parser, and the examples report it writes after the others equals a
    fresh ``python -m quatcalc`` process's, byte for byte."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    example = ["examples", "--which", "nonnormal", "--n", "48", "--output"]
    for argv in (["spectrum", "--input", str(diag_ij3), "--output"],
                 ["riesz", "--input", str(diag_ij3), "--partition", "0,1",
                  "--output"],
                 example,
                 ["verify", "--suites", "discretize", "--output"]):
        assert main(argv + [str(tmp_path / f"{argv[0]}.json")]) == 0
    assert built.count("quatcalc") == 1
    out = tmp_path / "fresh.json"
    done = subprocess.run([sys.executable, "-m", "quatcalc"] + example
                          + [str(out)], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (tmp_path / "examples.json").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["riesz", "--help"]],
                         ids=["quatcalc", "riesz"])
def test_help_of_a_used_parser_is_a_fresh_process_help(argv, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["examples", "--sweep", "8:16"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    done = subprocess.run([sys.executable, "-m", "quatcalc"] + argv,
                          env={**_src_env(), "COLUMNS": "80"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert capsys.readouterr().out == done.stdout


def test_closed_stdout_exits_0(monkeypatch):
    """A reader that stops early (quatcalc ... | head -1) is no error: exit
    0, nothing on stderr, and stdout now goes to os.devnull."""
    r, w = os.pipe()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return w

    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    try:
        assert main(["examples", "--n", "12"]) == 0
        assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
    finally:
        os.close(r)
        os.close(w)
    assert err.getvalue() == ""


def test_closed_stdout_exits_0_in_a_child():
    """The read end closes before the child has imported numpy, so its first
    write meets a closed pipe; shutdown prints no "Exception ignored"."""
    child = subprocess.Popen(
        [sys.executable, "-m", "quatcalc", "examples", "--n", "12",
         "--which", "normal", "--full"],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    try:
        err = child.stderr.read()
        assert child.wait(timeout=120) == 0
    finally:
        child.stderr.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    assert err == b""


@pytest.mark.parametrize("k", [4, 6])
def test_riesz_round_off_refusal_is_a_separation_error(k, tmp_path, capsys):
    """T = G J_k(0.5 + 0.3i) G^-1 is a valid input whose quadrature around
    its first sphere fails the round-off check (defect 2.2e9 at k = 4,
    2.0e11 at k = 6): exit 4, naming the defect, not 2."""
    rng = np.random.default_rng(0)
    G = chi(QMatrix(rng.standard_normal((k, k, 4)) / np.sqrt(k))
            + QMatrix.eye(k) * 2.0)
    J = QMatrix.from_complex((0.5 + 0.3j) * np.eye(k) + np.eye(k, k=1))
    T = chi_inv(G @ chi(J) @ np.linalg.inv(G), tol=1e-10)
    p = tmp_path / "T.json"
    _write_matrix(p, T)
    s = spherical_spectrum(T).spheres[0]
    assert main(["riesz", "--input", str(p),
                 "--partition", f"{s.re!r},{s.rad!r}"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(
        "separation error: quadrature round-off check: defect ")


# report-shaped values: what the writer must reproduce byte for byte
_json_scalars = (
    st.none() | st.booleans()
    | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0,
                       5e-324, 1e308])
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | st.text(st.characters(codec="utf-8"), max_size=8))
# one key type per dict, so that sorting the keys cannot raise
_json_keys = st.sampled_from([
    st.text(st.characters(codec="utf-8"), max_size=6),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
])
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.floats(), max_size=5)
                   | _json_keys.flatmap(
                       lambda keys: st.dictionaries(keys, inner, max_size=5))),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(obj=_json_values)
def test_report_writer_matches_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    {1, 2}, {"a": [1.0, {2.0}]}, [np.array([1.0])], (1.0, 2j),
    {(1, 2): 3}, {1: 2, "a": 3},
])
def test_report_writer_raises_where_json_dumps_does(obj):
    with pytest.raises(TypeError) as ref:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        cli._dumps(obj)
    assert str(got.value) == str(ref.value)


def test_riesz_request_computes_the_norm_of_T_once(tmp_path, monkeypatch):
    """One riesz request runs the norm's eigensolve on T's matrix once; a
    new QMatrix with the same entries computes its own norm."""
    e = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0),
                      Quaternion(-1, 0.5, 0, 0)]).entries.copy()
    e[0, 1] = (1.0, 0.0, 0.5, 0.0)   # not normal
    T = QMatrix(e)
    p = tmp_path / "T.json"
    _write_matrix(p, T)
    M_T = qm._norm_matrix(T)
    seen = []
    matrix_norm = qm._matrix_norm

    def recording(M, **route):
        seen.append(M.shape == M_T.shape and np.array_equal(M, M_T))
        return matrix_norm(M, **route)

    monkeypatch.setattr(qm, "_matrix_norm", recording)
    assert main(["riesz", "--input", str(p), "--partition", "3,0",
                 "--output", str(tmp_path / "r.json")]) == 0
    assert sum(seen) == 1
    seen.clear()
    first, again = QMatrix(e), QMatrix(e)
    assert op_norm(first) == op_norm(first) == op_norm(again) > 1.0
    assert seen == [True, True]
