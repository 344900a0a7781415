import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatcalc.cli import main
from quatcalc.qmatrix import QMatrix
from quatcalc.quaternion import Quaternion


def _write_matrix(path, T: QMatrix):
    path.write_text(json.dumps(T.to_json()))


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_spectrum_rejects_non_finite_entry(tmp_path, capsys, bad):
    e = np.eye(2)[..., None] * np.array([1.0, 0, 0, 0])
    e[0, 1, 2] = bad
    p = tmp_path / "bad.json"
    _write_matrix(p, QMatrix(e))
    assert main(["spectrum", "--input", str(p)]) == 2
    assert "non-finite entry" in capsys.readouterr().err


def test_riesz_command(diag_ij3, tmp_path):
    out = tmp_path / "riesz.json"
    rc = main(["riesz", "--input", str(diag_ij3),
               "--partition", "0,1", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["residuals"]["sum_identity"] <= 1e-10
    assert report["spectrum_sigma"][0]["rad"] == pytest.approx(1.0, abs=1e-8)
    P = QMatrix.from_json(report["P_sigma"])
    assert P.rows == 2


def test_riesz_below_minimum_nodes_is_input_error(diag_ij3, capsys):
    rc = main(["riesz", "--input", str(diag_ij3), "--partition", "0,1",
               "--nodes", "8"])
    assert rc == 2
    assert "at least 16 nodes" in capsys.readouterr().err


def test_riesz_full_sigma_is_partition_error(diag_ij3):
    rc = main(["riesz", "--input", str(diag_ij3), "--partition", "0,1;3,0"])
    assert rc == 3


def test_riesz_unmatched_sphere_is_partition_error(diag_ij3):
    rc = main(["riesz", "--input", str(diag_ij3), "--partition", "9,0"])
    assert rc == 3


def test_riesz_malformed_partition(diag_ij3):
    assert main(["riesz", "--input", str(diag_ij3),
                 "--partition", "zero,one"]) == 2


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
    """End to end: each swept Volterra norm is cot(pi/4n)/(4n) to 1e-13."""
    out = tmp_path / "sweep.csv"
    assert main(["examples", "--sweep", "64:1024", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    ns = [int(r[0]) for r in rows]
    assert ns == [64, 128, 256, 512, 1024]
    for n, r in zip(ns, rows):
        exact = 1.0 / (4 * n * np.tan(np.pi / (4 * n)))
        assert abs(float(r[1]) - exact) <= 1e-13 * exact


def test_examples_bad_sweep():
    assert main(["examples", "--sweep", "32:8"]) == 2


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


def test_tol_must_be_positive(diag_ij3):
    assert main(["verify", "--suites", "polar",
                 "--tol-polar-residual", "-1"]) == 2


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


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-m", "quatcalc", "verify", "--suites", "polar"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"]
