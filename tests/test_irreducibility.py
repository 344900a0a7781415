import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quatcalc
from quatcalc import irreducibility
from quatcalc.discretize import paper_example
from quatcalc.qmatrix import QMatrix, chi, chi_inv, op_norm, polar
from quatcalc.quaternion import Quaternion
from quatcalc.scalculus import SeparationError
from quatcalc.irreducibility import (
    _commutant,
    _find_idempotent,
    complex_strongly_irreducible,
    extension_irreducibility_check,
    is_strongly_irreducible,
)
from quatcalc.verify import _random_qmatrix, _small_catalog, run_all

Q_I = Quaternion(0, 0, 1, 0)
Q_J = Quaternion(0, 0, 0, 1)


def _jordan(eig: complex, n: int) -> QMatrix:
    M = np.eye(n, dtype=complex) * eig + np.eye(n, k=1, dtype=complex)
    full = np.zeros((2 * n, 2 * n), dtype=complex)
    full[:n, :n] = M
    full[n:, n:] = M.conj()
    return chi_inv(full)


def test_commutant_dimensions():
    # diag(i, 3): commutant is {diag(a, b) : a i = i a} -> a in span{1,i},
    # b arbitrary quaternion: real dimension 2 + 4 = 6
    T = QMatrix.diag([Q_I, Quaternion(3, 0, 0, 0)])
    basis = _commutant(T)
    assert len(basis) == 6
    # Jordan block J2(i): commutant = {aI + bN : a,b in span{1,i}} -> dim 4
    J = _jordan(1j, 2)
    assert len(_commutant(J)) == 4
    # identity commutes with everything: dim = 4 n^2
    assert len(_commutant(QMatrix.eye(2))) == 16


def test_commutant_elements_commute():
    rng = np.random.default_rng(3)
    T = QMatrix(rng.standard_normal((3, 3, 4)))
    for M in _commutant(T):
        assert op_norm(M @ T - T @ M) <= 1e-8 * max(op_norm(T), 1.0)


def test_strong_irreducibility_catalog():
    cases = [
        (_jordan(1j, 2), "irreducible"),
        (_jordan(1j, 3), "irreducible"),
        (_jordan(0.5, 2), "irreducible"),
        (QMatrix.diag([Q_I, Quaternion(3, 0, 0, 0)]), "decomposable"),
        (QMatrix.diag([Q_I, Q_I]), "decomposable"),
        (QMatrix.eye(2), "decomposable"),
        (QMatrix.diag([Q_I]), "irreducible"),
        (QMatrix.diag([Quaternion(2, 0, 0, 0)]), "irreducible"),
    ]
    for T, expected in cases:
        rep = is_strongly_irreducible(T)
        assert rep.verdict == expected, rep.detail
        if expected == "decomposable":
            res = rep.detail["residuals"]
            assert set(res) == {"idempotent", "commutes"}
            assert max(res.values()) <= 1e-6
            P = rep.witness
            scale = max(op_norm(T), 1.0)
            assert op_norm(P @ P - P) <= 1e-6
            assert op_norm(P @ T - T @ P) <= 1e-6 * scale
            # nontrivial: neither 0 nor the identity
            assert op_norm(P) > 1e-3
            assert op_norm(P - QMatrix.eye(T.rows)) > 1e-3


def test_strong_irreducibility_similarity_invariant():
    rng = np.random.default_rng(5)
    J = _jordan(1j, 2)
    D = QMatrix.diag([Q_I, Quaternion(3, 0, 0, 0)])
    for _ in range(10):
        while True:
            X = QMatrix(rng.standard_normal((2, 2, 4)))
            Xc = chi(X)
            if np.linalg.cond(Xc) < 20:
                break
        Xinv = chi_inv(np.linalg.inv(Xc))
        assert is_strongly_irreducible(X @ J @ Xinv).verdict == "irreducible"
        assert is_strongly_irreducible(X @ D @ Xinv).verdict == "decomposable"


def test_find_idempotent_oracle():
    D = QMatrix.diag([Q_I, Quaternion(3, 0, 0, 0)])
    P = _find_idempotent(D, seed=7)
    assert P is not None
    assert op_norm(P @ P - P) <= 1e-8
    assert op_norm(P @ D - D @ P) <= 1e-8 * op_norm(D)
    assert op_norm(P) > 1e-3 and op_norm(P - QMatrix.eye(2)) > 1e-3
    # single Jordan block has only trivial commuting idempotents
    assert _find_idempotent(_jordan(1j, 2), seed=7) is None


@pytest.mark.parametrize("n", [7, 48])
def test_commutant_oracle_refuses_large_input_without_allocating(n):
    """Above n = 6 the dense 4n^2 x 4n^2 system is refused before it is
    built.  Built, it peaks at 0.9 MB for n = 7 (with its SVD) and its
    matrix alone takes 680 MB for n = 48; the refusal takes about 1 kB."""
    T = QMatrix.eye(n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limited to n <= 6, got n = {n}"):
            _commutant(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def _force_search_route(monkeypatch):
    def no_reducing_eigenvector(M):
        # commutes with T, but is not idempotent
        return QMatrix.eye(M.shape[0] // 2) * 2.0

    monkeypatch.setattr(irreducibility, "_reducing_eigenvector",
                        no_reducing_eigenvector)


def test_search_route_finds_a_witness_within_the_guard(monkeypatch):
    _force_search_route(monkeypatch)
    T = QMatrix.diag([Q_I, Q_I])
    rep = is_strongly_irreducible(T)
    assert rep.verdict == "decomposable", rep.detail
    assert rep.detail["route"] == "search"
    assert max(rep.detail["residuals"].values()) <= 1e-6


def test_search_route_is_indeterminate_above_the_guard(monkeypatch):
    """A decision function never starts the O(n^6) search above the guard:
    with the guard lowered to 1, a 2 x 2 input stands in for n = 7."""
    _force_search_route(monkeypatch)
    monkeypatch.setattr(irreducibility, "_ORACLE_MAX_N", 1)

    def no_search(T, seed=0):
        raise AssertionError("the witness search ran above the guard")

    monkeypatch.setattr(irreducibility, "_find_idempotent", no_search)
    rep = is_strongly_irreducible(QMatrix.diag([Q_I, Q_I]))
    assert rep.verdict == "indeterminate"
    assert rep.witness is None
    assert rep.detail["route"] == "eigenvector"
    assert rep.detail["residuals"]["idempotent"] > 1e-6
    assert "limited to n <= 1" in rep.detail["reason"]


@pytest.mark.parametrize("n", [12, 48, 96])
@pytest.mark.parametrize("which", ["normal", "nonnormal"])
def test_most_isolated_sphere_is_a_certified_riesz_witness(which, n):
    """Both paper operators split off the sphere farthest from its nearest
    neighbour (ties towards the larger re); chi(E) has trace 2 mult."""
    T = paper_example(which, n).T
    rep = is_strongly_irreducible(T)
    assert rep.verdict == "decomposable", rep.detail
    assert rep.detail["route"] == "riesz"
    assert max(rep.detail["residuals"].values()) <= 1e-12
    spheres, mults = rep.spectrum.spheres, rep.spectrum.multiplicities
    k = max(range(len(spheres)), key=lambda r: (min(
        spheres[r].distance(o) for o in spheres if o is not spheres[r]),
        spheres[r].re))
    assert 0 < mults[k] < n
    chi_trace = 2 * np.trace(rep.witness.entries[..., 0])
    assert chi_trace == pytest.approx(2 * mults[k], abs=1e-9)


def _riesz_idempotent_but_trivial(T, contour, spec):
    return QMatrix.eye(T.rows)


def _riesz_not_idempotent(T, contour, spec):
    # chi trace 2 = 2 mult(sigma), but E^2 - E = -E/2 on its range
    return QMatrix.diag([0.5, 0.5, 0.0])


def _riesz_inseparable(T, contour, spec):
    raise SeparationError("quadrature round-off check: defect 1.0e+00")


@pytest.mark.parametrize("fake", [_riesz_idempotent_but_trivial,
                                  _riesz_not_idempotent, _riesz_inseparable])
def test_refused_riesz_witness_falls_through_to_the_rank_route(
        monkeypatch, fake):
    """An uncertified witness gives no verdict: a trivial one fails the
    trace rule, a non-idempotent one the gate, and a quadrature that
    raises is refused.  diag(0, 1, 2) then reaches the rank route, where
    its mean sphere 1 has a minimal eigenspace: only the spread of the
    spheres, wider than the jitter resolution, keeps it from "irreducible"."""
    monkeypatch.setattr(irreducibility, "riesz_projection", fake)
    rep = is_strongly_irreducible(QMatrix.diag([0.0, 1.0, 2.0]))
    assert rep.verdict == "indeterminate", rep.detail
    assert rep.witness is None
    assert rep.detail["route"] == "rank"
    assert rep.detail["kernel_dim"] == rep.detail["minimal_dim"] == 2
    assert rep.detail["reason"] == "sphere cluster too wide for a rank decision"


def test_similar_jordan_blocks_are_never_decomposable():
    """G J_k(0.5 + 0.3i) G^-1 is one Jordan block, so no verdict may be
    "decomposable" and none may raise.  Its computed spheres spread by
    about eps^(1/k); the verdicts are pinned per draw."""
    rng = np.random.default_rng(1)
    expected = {3: ["irreducible"] * 3,
                4: ["indeterminate", "irreducible", "indeterminate"],
                6: ["indeterminate"] * 3,
                8: ["indeterminate"] * 3}
    for k, want in expected.items():
        Jc = chi(_jordan(0.5 + 0.3j, k))
        got = []
        for _ in want:
            G = chi(QMatrix(rng.standard_normal((k, k, 4))))
            T = chi_inv(G @ Jc @ np.linalg.inv(G), tol=1e-6)
            got.append(is_strongly_irreducible(T).verdict)
        assert got == want, k
    for n in (8, 12):
        assert is_strongly_irreducible(_jordan(0, n)).verdict == "irreducible"


def _extreme_cases():
    R = np.random.default_rng(0).standard_normal((4, 4, 4))
    D = np.zeros((3, 3, 4))
    D[[0, 1, 2], [0, 1, 2], 0] = [1.0, 2.0, 3.0]
    return [("zero3", np.zeros((3, 3, 4)))] + [
        (f"{name}*1e{e}", M * 10.0 ** e) for name, M in
        (("random4", R), ("diag123", D)) for e in (150, -150, 300, -300)]


@pytest.mark.parametrize("name, entries", _extreme_cases())
def test_extreme_finite_inputs_get_a_certified_verdict(name, entries):
    """The decision never raises on a finite input: the zero matrix and,
    at 1e+-150 and 1e+-300, a random and a diagonal one with distinct
    spheres are all decomposable, and the witness passes the gate."""
    rep = is_strongly_irreducible(QMatrix(entries))
    assert rep.verdict == "decomposable", rep.detail
    assert max(rep.detail["residuals"].values()) <= 1e-6


def test_orthogonally_split_jordan_structure_has_an_eigenvector_witness():
    """J2(i) (+) i I5: one sphere, a 6-dimensional eigenspace, and e_3 spans
    a reducing subspace although T is not normal."""
    n = 7
    M = np.eye(n, dtype=complex) * 1j + np.diag([1.0] + [0.0] * (n - 2), 1)
    T = chi_inv(np.block([[M, np.zeros((n, n))], [np.zeros((n, n)), M.conj()]]))
    rep = is_strongly_irreducible(T)
    assert rep.verdict == "decomposable", rep.detail
    assert rep.detail["route"] == "eigenvector"
    assert max(rep.detail["residuals"].values()) <= 1e-12
    E = rep.witness
    assert op_norm(E) > 0.5 and op_norm(QMatrix.eye(n) - E) > 0.5


@pytest.mark.parametrize("seed", [57, 77])
def test_irreducibility_suite_passes_at_seeds_57_and_77(seed):
    report = run_all(seed=seed, suites=("irreducibility",))
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_eigenvector_witness_loads_no_scipy_linalg():
    """The eigenvector and the Riesz witness run on numpy's BLAS only."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "from quatcalc import QMatrix, Quaternion, is_strongly_irreducible\n"
            "from quatcalc.discretize import paper_example\n"
            "i = Quaternion(0, 1, 0, 0)\n"
            "for T, route in ((QMatrix.diag([i, i, i]), 'eigenvector'),\n"
            "                 (paper_example('nonnormal', 12).T, 'riesz')):\n"
            "    rep = is_strongly_irreducible(T)\n"
            "    assert rep.verdict == 'decomposable', rep.detail\n"
            "    assert rep.detail['route'] == route, rep.detail\n"
            "assert 'scipy.linalg' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_dense_oracles_are_not_public():
    for name in ("commutant", "find_idempotent", "is_reducible",
                 "ReducibilityReport"):
        assert not hasattr(quatcalc, name), name
        assert not hasattr(irreducibility, name), name


def test_empty_input_is_indeterminate():
    rep = is_strongly_irreducible(QMatrix.zeros(0))
    assert rep.verdict == "indeterminate"
    assert rep.witness is None
    assert "0 x 0" in rep.detail["reason"]


def test_chained_spheres_split_at_the_nearest_leader():
    """Spheres at 0, 0.9 tau and 1.8 tau, tau the jitter resolution at
    n = 3: every sphere is 0.9 tau from its nearest neighbour, so the tie
    goes to the largest re, and 1.8 tau splits off with a certified
    Riesz witness."""
    tau = float(np.finfo(float).eps) ** 0.25  # cluster_tol at n = 3
    T = QMatrix.diag([Quaternion(x, 0, 0, 0) for x in (0.0, 0.9 * tau,
                                                         1.8 * tau)])
    rep = is_strongly_irreducible(T)
    assert rep.verdict == "decomposable", rep.detail
    E = rep.witness
    assert op_norm(E @ E - E) <= 1e-12
    assert op_norm(E @ T - T @ E) <= 1e-12
    # nontrivial: neither E nor I - E vanishes
    assert op_norm(E) >= 0.5 and op_norm(QMatrix.eye(3) - E) >= 0.5


def test_subnormal_input_gets_a_verdict():
    """The witness commutator of an all-1e-300 matrix is subnormal; its
    norm used to raise LinAlgError."""
    rep = is_strongly_irreducible(QMatrix(np.full((3, 3, 4), 1e-300)))
    assert rep.verdict == "decomposable", rep.detail
    assert all(np.isfinite(v) for v in rep.detail["residuals"].values())


def test_complex_strong_irreducibility():
    J2 = np.array([[1j, 1], [0, 1j]])
    assert complex_strongly_irreducible(J2)
    D = np.diag([1j, 3.0 + 0j])
    assert not complex_strongly_irreducible(D)
    # two Jordan blocks for the same eigenvalue: geometric multiplicity 2
    J22 = np.zeros((4, 4), dtype=complex)
    J22[:2, :2] = J2
    J22[2:, 2:] = J2
    assert not complex_strongly_irreducible(J22)
    # eigenvalues 1e-3 apart are two spheres, not Jordan jitter
    assert not complex_strongly_irreducible(np.diag([1j, 1j + 1e-3]))


def test_complex_strong_irreducibility_of_empty_matrix():
    # a 0 x 0 matrix has no Jordan block
    assert complex_strongly_irreducible(np.zeros((0, 0))) is False


def test_extension_check_of_empty_operator():
    out = extension_irreducibility_check(np.zeros((0, 0)), QMatrix.zeros(0))
    assert out["complex_strongly_irreducible"] is False
    assert out["quaternionic_verdict"] == "indeterminate"
    assert out["agree"] is False


@pytest.mark.parametrize("lam, n", [(1j, 3), (0.3, 5)])
def test_complex_strong_irreducibility_of_similar_jordan_blocks(lam, n):
    """G J_n(lam) G^-1 is one Jordan block, although its computed
    eigenvalues spread by about eps^(1/n)."""
    rng = np.random.default_rng(11)
    J = np.eye(n, dtype=complex) * lam + np.eye(n, k=1)
    for _ in range(20):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert complex_strongly_irreducible(G @ J @ np.linalg.inv(G))


def test_extension_preserves_irreducibility_verdict():
    rng = np.random.default_rng(9)
    n = 3
    cases = [
        np.eye(n, dtype=complex) * 1j + np.eye(n, k=1, dtype=complex),
        np.diag([1j, 3.0 + 0j, -1.0 + 2j]),
        np.diag([1j, 1j, 0.5 + 0j]),
    ]
    A = QMatrix(rng.standard_normal((n, n, 4))) + QMatrix.eye(n) * 3.0
    U, _ = polar(A)
    J = U @ QMatrix.diag([Q_I] * n) @ U.adjoint()
    for Sp in cases:
        out = extension_irreducibility_check(Sp, J)
        assert out["agree"], out
        assert out["quaternionic_verdict"] in ("irreducible", "decomposable")
        assert out["complex_strongly_irreducible"] == (
            out["quaternionic_verdict"] == "irreducible")


def test_similar_copies_of_two_blocks_on_one_sphere_never_say_irreducible():
    """G T G^-1 for T = jordan([i, i, i], [0]) (a 2-block and a 1-block on
    one sphere) is decomposable.  Every verdict must say so or be
    "indeterminate", and every witness must be a commuting idempotent."""
    T = _small_catalog()[9]
    rng = np.random.default_rng(0)
    verdicts = []
    while len(verdicts) < 10:
        G = _random_qmatrix(rng, 3) + QMatrix.real_scalar(3, 2.0)
        sv = np.linalg.svd(chi(G), compute_uv=False)
        if sv[0] / sv[-1] >= 20.0:
            continue
        Tsim = chi_inv(chi(G) @ chi(T) @ np.linalg.inv(chi(G)), tol=1e-6)
        rep = is_strongly_irreducible(Tsim)
        verdicts.append(rep.verdict)
        assert rep.verdict in ("decomposable", "indeterminate")
        if rep.witness is not None:
            E = rep.witness
            assert op_norm(E @ E - E) <= 1e-6
            assert op_norm(E @ Tsim - Tsim @ E) / op_norm(Tsim) <= 1e-6
    assert "decomposable" in verdicts
