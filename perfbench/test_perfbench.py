"""Small-n tests of the benchmark's oracles, tracer and result contract.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quatcalc import (  # noqa: E402
    QMatrix,
    Sphere,
    build_contour,
    func_calc,
    is_strongly_irreducible,
    op_norm,
    paper_example,
    riesz_decompose,
    spherical_spectrum,
    volterra_op,
)
from quatcalc.qmatrix import chi  # noqa: E402

SPHERES_3 = ((-1.0, 0.5), (0.5, 0.0), (1.2, 0.4))


def _similar(n=6, seed=3, spheres=SPHERES_3):
    return oracles.SimilarInput(np.random.default_rng(seed), spheres, n)


# -- oracles ---------------------------------------------------------------


def test_chi_and_product_match_library():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 3, 3, 4))
    np.testing.assert_array_equal(oracles.chi(a), chi(QMatrix(a)))
    np.testing.assert_allclose(oracles.unchi(oracles.chi(a)), a, atol=0)
    np.testing.assert_allclose(oracles.qmatmul(a, b),
                               (QMatrix(a) @ QMatrix(b)).entries, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
def test_volterra_norm_is_cot_over_4n(n):
    weights = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
    direct = np.linalg.norm(0.5 * weights / n, 2)
    assert oracles.volterra_norm(n) == pytest.approx(direct, rel=1e-13)
    assert op_norm(volterra_op(n).matrix) == pytest.approx(
        oracles.volterra_norm(n), rel=1e-13)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_paper_operators_match_library(n):
    for which, build in (("normal", oracles.normal_T),
                         ("nonnormal", oracles.nonnormal_T)):
        np.testing.assert_allclose(
            build(n), paper_example(which, n).T.matrix.entries, atol=1e-15)
    assert paper_example("normal", n).K.norm() == pytest.approx(
        oracles.normal_kernel_norm(n), rel=1e-12)
    assert paper_example("nonnormal", n).K.norm() == pytest.approx(
        oracles.volterra_norm(n), rel=1e-12)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_nonnormal_spheres(n):
    spec = spherical_spectrum(QMatrix(oracles.nonnormal_T(n)))
    got = [(s.re, s.rad) for s in spec.spheres]
    assert len(got) == n
    assert oracles.hausdorff(got, oracles.nonnormal_spheres(n)) < 1e-2


@pytest.mark.parametrize("n", [3, 6, 12, 48])
def test_paper_operators_have_several_spheres(n):
    # the reason the oracle verdict of both operators is "decomposable"
    for build in (oracles.normal_T, oracles.nonnormal_T):
        eig = np.linalg.eigvals(oracles.chi(build(n)))
        assert np.ptp(eig.real) > 0.1


def test_riesz_oracle_matches_quadrature():
    inp = _similar()
    P = inp.riesz_projection(0)
    assert max(oracles.idempotent_certificate(P, inp.T)) < 1e-13
    total = sum(inp.riesz_projection(k) for k in range(3))
    np.testing.assert_allclose(total, oracles.qeye(6), atol=1e-13)
    pair = riesz_decompose(QMatrix(inp.T), [Sphere(*SPHERES_3[0])])
    assert oracles.rel_err(pair.P_sigma.entries, P) < 1e-10


def test_similar_input_spectrum_and_multiplicities():
    inp = _similar(n=8)
    spec = spherical_spectrum(QMatrix(inp.T))
    got = [(s.re, s.rad) for s in spec.spheres]
    assert oracles.hausdorff(got, SPHERES_3) < 1e-10
    assert sorted(spec.multiplicities) == sorted(
        inp.multiplicity(k) for k in range(3))


def test_func_calc_square_is_T_times_T():
    inp = _similar()
    T = QMatrix(inp.T)
    spec = spherical_spectrum(T)
    F = func_calc(lambda q: q * q, "right", T, build_contour(spec.spheres),
                  spec)
    assert oracles.rel_err(F.entries, oracles.qmatmul(inp.T, inp.T)) < 1e-10


def test_idempotent_certificate():
    T = oracles.normal_T(3)
    rep = is_strongly_irreducible(QMatrix(T))
    assert rep.verdict == "decomposable"
    assert oracles.is_nontrivial(rep.witness.entries)
    assert max(oracles.idempotent_certificate(rep.witness.entries, T)) < 1e-12
    assert not oracles.is_nontrivial(oracles.qeye(3))
    assert not oracles.is_nontrivial(np.zeros((3, 3, 4)))
    assert oracles.idempotent_certificate(2.0 * oracles.qeye(3), T)[0] > 0.1


# -- tracer ----------------------------------------------------------------


def test_self_time_from_nesting():
    tr = tracing.Tracer()
    tr.spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["qmatrix.op_norm", 0, 1.0, 4.0],
        ["qmatrix.chi", 1, 1.5, 2.0],
        ["qmatrix.op_norm", 1, 2.0, 3.0],   # reached again inside itself
        ["qmatrix.op_norm", 0, 5.0, 6.0],
    ]
    s = tr.summarize((0, tr.counts.copy()))
    assert s["cli.main.s"] == 10.0 and s["cli.main.self_s"] == 6.0
    assert s["qmatrix.op_norm.calls"] == 3
    assert s["qmatrix.op_norm.s"] == 4.0            # outermost spans only
    assert s["qmatrix.op_norm.self_s"] == 3.5       # 1.5 + 1 + 1
    assert s["qmatrix.chi.self_s"] == 0.5


def test_tracer_sees_calls_between_modules_and_restores():
    import quatcalc.qmatrix as qm
    import quatcalc.spectrum as sp

    originals = (qm.op_norm, sp.op_norm, QMatrix.__dict__["__matmul__"])
    inp = _similar()
    T = QMatrix(inp.T)
    tr = tracing.Tracer()
    since = tr.mark()
    tr.install()
    try:
        spec = sp.spherical_spectrum(T)
        import quatcalc.scalculus as sc
        contour = sc.build_contour(spec.spheres[:1], spec.spheres[1:])
        sc.riesz_projection(T, contour, spec)
        T @ T
    finally:
        tr.uninstall()
    s = tr.summarize(since)
    assert s["spectrum.spherical_spectrum.calls"] == 1
    assert s["qmatrix.op_norm.calls"] >= 2      # via spectrum and scalculus
    assert s["qmatrix.matmul.calls"] == 1
    assert s["scalculus.nodes"] == tracing.contour_nodes(contour) > 0
    assert (qm.op_norm, sp.op_norm,
            QMatrix.__dict__["__matmul__"]) == originals


# -- result contract -------------------------------------------------------


def test_benchmark_json_matches_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        tracing.layer_metric_names()
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    rec = run.Record(0, "op", 0.5, workloads.Outcome(True, 1e-15))
    e2e = run.end_to_end([rec], 0.1)
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]]
               for m in doc["end_to_end"])


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "riesz-nonnormal", "--seed", "0", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout == ""
