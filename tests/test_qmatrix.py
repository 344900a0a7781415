import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from quatcalc.quaternion import Quaternion, UNIT_I, qmul
from quatcalc.qmatrix import (
    QMatrix,
    _slice_matrix,
    cartesian,
    chi,
    chi_inv,
    chi_vec,
    extend,
    modulus,
    normal_eigensystem,
    op_norm,
    plus_eigenbasis,
    polar,
    positive_sqrt,
    restrict,
    slice_split,
)


def rand_q(rng, shape):
    return QMatrix(rng.standard_normal(shape + (4,)))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_chi_is_a_star_homomorphism(rng):
    A = rand_q(rng, (4, 3))
    B = rand_q(rng, (3, 5))
    assert np.allclose(chi(A @ B), chi(A) @ chi(B), atol=1e-12)
    assert np.allclose(chi(A.adjoint()), chi(A).conj().T, atol=1e-12)
    assert op_norm(chi_inv(chi(A)) - A) <= 1e-12


def test_chi_vec_intertwines_action(rng):
    A = rand_q(rng, (4, 4))
    v = rng.standard_normal((4, 4))
    lhs = chi(A) @ chi_vec(v)
    rhs = chi_vec(A.apply(v))
    assert np.allclose(lhs, rhs, atol=1e-12)


def _hamilton_matmul(P: QMatrix, Q: QMatrix) -> np.ndarray:
    """Reference product: broadcast Hamilton contraction over the shared index."""
    return qmul(P.entries[:, :, None, :], Q.entries[None, :, :, :]).sum(axis=1)


@settings(max_examples=60, deadline=None)
@example(r=1, k=1, c=1, seed=0)
@example(r=2, k=5, c=3, seed=1)
@given(r=st.integers(1, 7), k=st.integers(1, 7), c=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_and_apply_match_hamilton_contraction(r, k, c, seed):
    rng = np.random.default_rng(seed)
    P = rand_q(rng, (r, k))
    Q = rand_q(rng, (k, c))
    v = rng.standard_normal((k, 4))
    ref = _hamilton_matmul(P, Q)
    assert np.abs((P @ Q).entries - ref).max() <= 1e-13 * k * \
        max(np.abs(ref).max(), 1.0)
    ref_v = qmul(P.entries, v[None, :, :]).sum(axis=1)
    assert P.apply(v).shape == (r, 4)
    assert np.abs(P.apply(v) - ref_v).max() <= 1e-13 * k * \
        max(np.abs(ref_v).max(), 1.0)


def _chi_norm(T: QMatrix) -> float:
    """Reference: largest singular value of the full 2n x 2m chi(T)."""
    return float(np.linalg.svd(chi(T), compute_uv=False)[0])


@settings(max_examples=80, deadline=None)
@given(r=st.integers(1, 9), c=st.integers(1, 9), u=st.sampled_from([0, 1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_op_norm_of_slice_valued_matrix_matches_chi(r, c, u, seed):
    """Real (u = 0) and C_i, C_j, C_k entries: ||T|| from the n x m slice matrix."""
    rng = np.random.default_rng(seed)
    e = np.zeros((r, c, 4))
    e[..., 0] = rng.standard_normal((r, c))
    if u:
        e[..., u] = rng.standard_normal((r, c))
    T = QMatrix(e)
    Z = _slice_matrix(T)
    assert Z is not None and Z.shape == (r, c)
    assert np.iscomplexobj(Z) == bool(u)
    ref = _chi_norm(T)
    assert abs(op_norm(T) - ref) <= 1e-13 * ref


@settings(max_examples=80, deadline=None)
@given(r=st.integers(1, 9), c=st.integers(1, 9), parts=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_op_norm_matches_scipy_svdvals(r, c, parts, seed):
    """The Gram matrix's largest eigenvalue gives scipy's largest singular
    value of chi(T), for real (parts = 1) and C_i (2) slice-valued T and
    general quaternionic T (4)."""
    e = np.zeros((r, c, 4))
    e[..., :parts] = np.random.default_rng(seed).standard_normal((r, c, parts))
    T = QMatrix(e)
    assert (_slice_matrix(T) is None) == (parts == 4)
    ref = scipy.linalg.svdvals(chi(T))[0]
    assert abs(op_norm(T) - ref) <= 1e-14 * ref


def test_import_loads_no_scipy_linalg():
    """Hot paths use numpy's LAPACK only, so one BLAS library is loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, quatcalc; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _with_entries(shape, cells) -> QMatrix:
    e = np.zeros(shape + (4,))
    for (r, c), q in cells.items():
        e[r, c] = q
    return QMatrix(e)


@pytest.mark.parametrize("T", [
    _with_entries((2, 3), {(0, 0): [1.0, 2.0, 0, 0], (1, 2): [0.5, 0, -3.0, 0]}),
    _with_entries((3, 3), {(1, 1): [0.0, 0, 1.0, 1.0], (0, 2): [2.0, 0, 0, 0]}),
], ids=["one entry i, another j", "an entry j + k"])
def test_op_norm_falls_back_to_chi_across_slices(T):
    # a C_i or C_j matrix built from these entries would have the wrong norm
    assert _slice_matrix(T) is None
    assert abs(op_norm(T) - _chi_norm(T)) <= 1e-13 * _chi_norm(T)


def test_op_norm_of_zero_and_empty_matrices():
    assert op_norm(QMatrix.zeros(3, 2)) == 0.0
    assert op_norm(QMatrix.zeros(0, 4)) == 0.0


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 9), c=st.integers(1, 9), u=st.sampled_from([0, 1, 2, 3, 4]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-200, 1e200]))
def test_op_norm_is_scale_equivariant(r, c, u, seed, scale):
    """||cT|| = c||T|| far beyond the range where an unscaled Gram matrix
    would underflow to 0 or overflow to inf: real (u = 0), C_u (1-3) and
    general quaternionic (4) T."""
    rng = np.random.default_rng(seed)
    e = np.zeros((r, c, 4))
    e[..., 0] = rng.standard_normal((r, c))
    if u == 4:
        e[..., 1:] = rng.standard_normal((r, c, 3))
    elif u:
        e[..., u] = rng.standard_normal((r, c))
    norm = op_norm(QMatrix(e))
    assert abs(op_norm(QMatrix(scale * e)) - scale * norm) <= 1e-14 * scale * norm


@pytest.mark.parametrize("q, parts", [
    ([1e300, 0, 0, 0], [0]),
    ([6e299, 0, 8e299, 0], [0, 2]),
    ([5e299, 5e299, 5e299, 5e299], [0, 1, 2, 3]),
], ids=["real", "C_j", "general"])
def test_op_norm_of_a_single_huge_entry(q, parts):
    """One entry of modulus 1e300 among O(1) entries of the same slice:
    ||T|| = 1e300 to round-off, where an unscaled Gram matrix is inf."""
    e = np.zeros((4, 5, 4))
    e[..., parts] = np.random.default_rng(3).standard_normal((4, 5, len(parts)))
    e[2, 1] = q
    T = QMatrix(e)
    assert (_slice_matrix(T) is None) == (len(parts) == 4)
    assert abs(op_norm(T) - 1e300) <= 1e-14 * 1e300


@pytest.mark.parametrize("parts", [[0], [0, 2], [0, 1, 2, 3]],
                         ids=["real", "C_j", "general"])
def test_op_norm_of_a_subnormal_matrix(parts):
    """||T 2^-1040|| against ||(T 2^-1040) 2^1040|| 2^-1040: scaling the
    subnormal entries up by 2^1040 is exact, so both sides norm the same
    matrix.  The complex division by a subnormal max|M| used to overflow."""
    e = np.zeros((4, 5, 4))
    e[..., parts] = np.random.default_rng(7).standard_normal((4, 5, len(parts)))
    tiny = QMatrix(np.ldexp(e, -1040))
    assert (_slice_matrix(tiny) is None) == (len(parts) == 4)
    up = op_norm(QMatrix(np.ldexp(tiny.entries, 1040)))
    got = op_norm(tiny)
    assert 0.0 < got
    assert abs(got - math.ldexp(up, -1040)) <= 4 * math.ulp(0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("parts", [1, 4], ids=["real", "general"])
def test_op_norm_rejects_non_finite_entries(bad, parts):
    e = np.zeros((3, 4, 4))
    e[..., :parts] = np.random.default_rng(5).standard_normal((3, 4, parts))
    e[1, 2, parts - 1] = bad
    with pytest.raises(ValueError, match=r"non-finite entry .* at \(1, 2\)"):
        op_norm(QMatrix(e))


def test_chi_inv_rejects_incompatible_matrix():
    M = np.arange(16, dtype=complex).reshape(4, 4)
    with pytest.raises(ValueError):
        chi_inv(M)


def test_matmul_associativity_and_scaling(rng):
    A = rand_q(rng, (3, 3))
    B = rand_q(rng, (3, 3))
    C = rand_q(rng, (3, 3))
    assert op_norm((A @ B) @ C - A @ (B @ C)) <= 1e-12
    q = Quaternion(0.3, -1.0, 0.5, 2.0)
    # left scaling is matrix multiplication by q*I on the left
    lhs = (A @ B).scale_left(q)
    rhs = A.scale_left(q) @ B
    assert op_norm(lhs - rhs) <= 1e-12


def test_positive_sqrt_and_modulus(rng):
    A = rand_q(rng, (5, 5))
    P = A.adjoint() @ A
    R = positive_sqrt(P)
    assert op_norm(R @ R - P) <= 1e-10 * max(op_norm(P), 1.0)
    assert op_norm(R - R.adjoint()) <= 1e-10
    assert op_norm(modulus(A) - R) <= 1e-9 * max(op_norm(P), 1.0)


def test_positive_sqrt_rejects_non_positive(rng):
    A = rand_q(rng, (4, 4))
    with pytest.raises(ValueError):
        positive_sqrt(A - A.adjoint() + QMatrix.real_scalar(4, 1e-3))
    with pytest.raises(ValueError):
        positive_sqrt(QMatrix.real_scalar(3, -1.0))


def test_polar_decomposition_full_rank(rng):
    T = rand_q(rng, (5, 5))
    W, absT = polar(T)
    assert op_norm(T - W @ absT) <= 1e-10 * op_norm(T)
    # partial isometry: W*W is the identity on the full-rank case
    assert op_norm(W.adjoint() @ W - QMatrix.eye(5)) <= 1e-10


def test_polar_rank_deficient(rng):
    A = rand_q(rng, (5, 2))
    B = rand_q(rng, (2, 5))
    T = A @ B
    W, absT = polar(T)
    assert op_norm(T - W @ absT) <= 1e-10 * op_norm(T)
    sv_w = np.linalg.svd(chi(W), compute_uv=False)
    assert np.count_nonzero(sv_w > 0.5) == 4  # chi rank = 2 * quaternionic


def _random_normal(rng, lams):
    n = len(lams)
    W, _ = polar(rand_q(rng, (n, n)) + QMatrix.real_scalar(n, 3.0))
    return W @ QMatrix.diag(lams) @ W.adjoint()


def test_normal_eigensystem_reconstructs(rng):
    lams = [Quaternion(0, 1, 0, 0), Quaternion(0, 0, 2, 0),
            Quaternion(3, 0, 0, 0), Quaternion(-1, 0.5, 0.5, 0)]
    T = _random_normal(rng, lams)
    lam, U = normal_eigensystem(T)
    assert np.all(lam.imag >= -1e-12)
    D = QMatrix.diag([Quaternion(z.real, z.imag, 0, 0) for z in lam])
    assert op_norm(U @ D @ U.adjoint() - T) <= 1e-9 * op_norm(T)
    assert op_norm(U @ U.adjoint() - QMatrix.eye(4)) <= 1e-10


def test_cartesian_decomposition(rng):
    lams = [Quaternion(1, 2, 0, 0), Quaternion(0, 0, 1, 0),
            Quaternion(2, 0, 0, 0)]
    T = _random_normal(rng, lams)
    parts = cartesian(T)
    recon = parts.A + 0.5 * (parts.J @ parts.B)
    assert op_norm(T - recon) <= 1e-9 * op_norm(T)
    assert op_norm(parts.J + parts.J.adjoint()) <= 1e-10
    assert op_norm(parts.J @ parts.J.adjoint() - QMatrix.eye(3)) <= 1e-10


def test_cartesian_rejects_nonnormal(rng):
    ent = QMatrix.zeros(2, 2).entries.copy()
    ent[0, 1] = np.array([1.0, 0, 0, 0])
    with pytest.raises(ValueError):
        cartesian(QMatrix(ent))


def _random_J(rng, n):
    W, _ = polar(rand_q(rng, (n, n)) + QMatrix.real_scalar(n, 3.0))
    return W @ QMatrix.diag([Quaternion(0, 1, 0, 0)] * n) @ W.adjoint()


def test_plus_eigenbasis_is_a_unitary_of_plus_i_eigenvectors(rng):
    n = 4
    J = _random_J(rng, n)
    U = plus_eigenbasis(J)
    i_n = QMatrix.diag([Quaternion(0, 1, 0, 0)] * n)
    assert op_norm(J @ U - U @ i_n) <= 1e-10
    assert op_norm(U.adjoint() @ U - QMatrix.eye(n)) <= 1e-10


def test_plus_eigenbasis_of_empty_J():
    assert plus_eigenbasis(QMatrix.zeros(0)).entries.shape == (0, 0, 4)


def test_slice_split(rng):
    J = _random_J(rng, 4)
    x = rng.standard_normal((4, 4))
    xp, xm = slice_split(x, J)
    assert np.allclose(xp + xm, x, atol=1e-12)
    # J x_+ = x_+ * i and J x_- = -x_- * i
    from quatcalc.quaternion import qmul
    i_arr = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(J.apply(xp), qmul(xp, i_arr), atol=1e-10)
    assert np.allclose(J.apply(xm), -qmul(xm, i_arr), atol=1e-10)


def test_extend_restrict_roundtrip_and_norm(rng):
    n = 4
    J = _random_J(rng, n)
    basis = plus_eigenbasis(J)
    Sp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Tq = extend(Sp, J, basis=basis)
    assert abs(op_norm(Tq) - np.linalg.norm(Sp, 2)) <= 1e-12 * \
        max(1.0, np.linalg.norm(Sp, 2))
    assert op_norm(J @ Tq - Tq @ J) <= 1e-10 * max(1.0, op_norm(Tq))
    back = restrict(Tq, J, basis=basis)
    assert np.linalg.norm(back - Sp, 2) <= 1e-10 * \
        max(1.0, np.linalg.norm(Sp, 2))


def test_restrict_rejects_non_commuting(rng):
    J = _random_J(rng, 3)
    V = rand_q(rng, (3, 3))
    with pytest.raises(ValueError):
        restrict(V, J)


def test_json_round_trip(rng):
    A = rand_q(rng, (2, 3))
    obj = A.to_json()
    assert obj["rows"] == 2 and obj["cols"] == 3
    B = QMatrix.from_json(obj)
    assert op_norm(A - B) == 0.0
