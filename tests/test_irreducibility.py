import tracemalloc

import numpy as np
import pytest

import quatcalc
from quatcalc import irreducibility
from quatcalc.qmatrix import QMatrix, chi, chi_inv, op_norm, polar
from quatcalc.quaternion import Quaternion
from quatcalc.irreducibility import (
    _commutant,
    _find_idempotent,
    complex_strongly_irreducible,
    extension_irreducibility_check,
    is_strongly_irreducible,
)

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
    def no_eigensystem(T):
        raise ValueError("no normal eigensystem")

    monkeypatch.setattr(irreducibility, "normal_eigensystem", no_eigensystem)


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
    assert rep.detail["route"] == "search"
    assert "limited to n <= 1" in rep.detail["note"]


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
    """0.9 tau lies within tau of both 0 and 1.8 tau, but 1.8 tau is more
    than tau from 0: the spheres form two groups, not one chain."""
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
