import logging
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
from quatcalc.scalculus import build_contour, riesz_projection
from quatcalc.spectrum import s_resolvent, spherical_spectrum
from quatcalc.qmatrix import (
    QMatrix,
    _matrix_norm,
    _normality_defect,
    _pair,
    _slice_matrix,
    _unpair,
    cartesian,
    chi,
    chi_inv,
    chi_vec,
    extend,
    gram_schmidt,
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


def _pair_rule(P: QMatrix, Q: QMatrix) -> np.ndarray:
    """Reference product: the pair rule's four complex GEMMs on any operands."""
    A1, B1 = _pair(P.entries)
    A2, B2 = _pair(Q.entries)
    return _unpair(A1 @ A2 - B1 @ B2.conj(), A1 @ B2 + B1 @ A2.conj())


def _in_slice(rng, shape, u):
    """A random matrix with entries in C_u (u = 0: real)."""
    e = np.zeros(shape + (4,))
    e[..., 0] = rng.standard_normal(shape)
    if u:
        e[..., u] = rng.standard_normal(shape)
    return QMatrix(e)


@pytest.mark.parametrize("u, v", [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1),
                                  (0, 2), (3, 0), (2, 0)])
@pytest.mark.parametrize("r, k, c", [(1, 1, 1), (3, 5, 2), (12, 12, 12)])
def test_slice_products_match_the_pair_rule(u, v, r, k, c):
    """Operands in one slice C_w (a real one lies in every slice) multiply as
    one complex GEMM: the pair rule's product to round-off, exactly when no
    operand reaches j or k, and +0.0 outside components 0 and w."""
    rng = np.random.default_rng(100 * u + 10 * v + r)
    P, Q = _in_slice(rng, (r, k), u), _in_slice(rng, (k, c), v)
    got = (P @ Q).entries
    ref = _pair_rule(P, Q)
    if not (u and v) or u == v == 1:
        assert np.array_equal(got, ref)
    else:
        assert np.abs(got - ref).max() <= 1e-14 * k * np.abs(ref).max()
    outside = [p for p in (1, 2, 3) if p != (u or v)]
    assert (got[..., outside] == 0.0).all()
    assert not np.signbit(got[..., outside]).any()


@pytest.mark.parametrize("u, v", [(1, 2), (2, 3), (3, 1), (0, 4), (4, 2),
                                  (4, 4)])
def test_products_across_slices_keep_the_pair_rule_bits(u, v):
    """C_i x C_j and general operands (4: every component) take the pair
    rule, bit for bit."""
    rng = np.random.default_rng(10 * u + v)

    def operand(shape, w):
        return rand_q(rng, shape) if w == 4 else _in_slice(rng, shape, w)

    P, Q = operand((6, 7), u), operand((7, 5), v)
    assert (P @ Q).entries.tobytes() == _pair_rule(P, Q).tobytes()


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


def _nonnegative(kind, r, c, rng):
    M = rng.random((r, c))
    if kind == "rank one":
        M = np.outer(rng.random(r), rng.random(c))
    elif kind == "zero lines":
        M[rng.random(r) < 0.3] = 0.0
        M[:, rng.random(c) < 0.3] = 0.0
    elif kind == "diagonal":
        M = np.zeros((r, c))
        np.fill_diagonal(M, rng.random(min(r, c)))
    elif kind == "blocks":   # reducible: two diagonal blocks
        k = int(rng.integers(0, min(r, c) + 1))
        M[:k, k:] = 0.0
        M[k:, :k] = 0.0
    return M


@settings(max_examples=200, deadline=None)
@example(kind="dense", r=1, c=1, seed=0, scale=1.0)
@example(kind="dense", r=24, c=24, seed=0, scale=2.0 ** -1060)
@given(kind=st.sampled_from(["dense", "rank one", "zero lines", "diagonal",
                             "blocks"]),
       r=st.integers(1, 24), c=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 1e300, 1e-300, 2.0 ** -1060]))
def test_matrix_norm_of_nonnegative_real_matrices_matches_svd(kind, r, c,
                                                              seed, scale):
    """Tall, wide, rank-one, reducible, zero-line and diagonal M >= 0, near
    overflow and in the subnormals: the Perron path (or, where its bracket
    cannot close, the eigensolve) gives sigma_max to 8 eps."""
    M = _nonnegative(kind, r, c, np.random.default_rng(seed)) * scale
    ref = float(np.linalg.svd(M, compute_uv=False)[0])
    assert abs(_matrix_norm(M) - ref) <= 8 * np.finfo(float).eps * ref


def _counting_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(G):
        calls.append(G.shape)
        return eigvalsh(G)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("M, bits", [
    (np.diag([0.3, 0.7, 0.5]), "0x1.6666666666666p-1"),
    (np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]]),
     "0x1.30d10b51174fbp+3"),
], ids=["diagonal", "zero column"])
def test_matrix_norm_falls_back_to_one_eigensolve(M, bits, monkeypatch):
    """A bracket that cannot close (diagonal) or a zero row of the Gram
    matrix sends M >= 0 to the Gram eigensolve, with the bits it gave
    before the Perron path existed."""
    calls = _counting_eigvalsh(monkeypatch)
    assert _matrix_norm(M).hex() == bits
    assert calls == [(3, 3)]


def test_normal_example_norm_falls_back_after_few_products(monkeypatch,
                                                           caplog):
    """The "normal" example's T >= 0 contracts its bracket by about 0.9 per
    product: it pays two products, then one eigensolve, same bits."""
    from quatcalc.discretize import paper_example

    T = QMatrix(paper_example("normal", 96).T.entries)  # no cached norm
    calls = _counting_eigvalsh(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="quatcalc"):
        assert op_norm(T).hex() == "0x1.505e48d2667e3p-2"
    assert calls == [(96, 96)]
    assert "after 2 products" in caplog.text


def _unit_scaled(route: str) -> np.ndarray:
    """A 256 x 256 matrix with max|M| exactly 1 for each route of the core."""
    rng = np.random.default_rng(5)
    M = rng.random((256, 256))
    if route == "gram":
        M = 0.5 * (M + 1j * rng.random((256, 256)))
    elif route == "hermitian":
        M = 0.5 * (M + M.T)
    M[0, 0] = 1.0
    return M


def test_matrix_norm_reads_a_unit_scaled_matrix_in_place(traced_peak):
    """A real M >= 0 with max|M| exactly 1 is read in place: the Perron
    path holds a few n-vectors, no scaled n x n copy (traced by
    tracemalloc), and M is unchanged."""
    M = _unit_scaled("perron")
    before = M.tobytes()
    _matrix_norm(M)   # first calls load lazy numpy modules
    assert traced_peak(lambda: _matrix_norm(M)) <= 0.05 * M.nbytes
    assert M.tobytes() == before


@pytest.mark.parametrize("route", ["perron", "gram", "hermitian"])
def test_matrix_norm_of_a_unit_scaled_matrix_is_unchanged_bitwise(route):
    """Reading M in place when its scale is 1 gives the bits that the
    scaled copy of 0.5 M (the same unit-scaled X) gives, on every route."""
    M = _unit_scaled(route)
    hermitian = route == "hermitian"
    assert (_matrix_norm(M, hermitian).hex()
            == (2 * _matrix_norm(0.5 * M, hermitian)).hex())


@pytest.mark.parametrize("M, message", [
    (np.eye(2) * 3.0, "Perron bracket closed after 1 products, width 0.00e+00"),
    (np.eye(2) * 1j, "2 x 2 Gram eigensolve (complex entries)"),
    (np.array([[1.0, -1.0], [0.5, 2.0]]), "Gram eigensolve (a negative entry)"),
    (np.array([[1.0, 0.0], [2.0, 0.0]]),
     "Gram eigensolve (a zero row of the Gram matrix)"),
    (np.diag([1.0, 0.5]), "Gram eigensolve (bracket width 7.50e-01 after 2 "
                          "products)"),
], ids=["closed", "complex", "negative", "zero column", "no contraction"])
def test_matrix_norm_logs_its_path(M, message, caplog):
    with caplog.at_level(logging.DEBUG, logger="quatcalc"):
        _matrix_norm(M)
    assert [r.name for r in caplog.records] == ["quatcalc"]
    assert message in caplog.text


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


def test_normal_eigensystem_past_the_square_root_of_the_largest_float():
    """||T||^2 overflows once ||T|| > 1.34e154 while TT* - T*T stays
    finite: the normality test compares defect / ||T|| with the tolerance
    times ||T||, so the eigenvalues {0, 0, 0, 2e154} come out."""
    T = QMatrix(np.full((4, 4, 4), [5e153, 0.0, 0.0, 0.0]))
    lam, U = normal_eigensystem(T)
    assert np.abs(lam - [0.0, 0.0, 0.0, 2e154]).max() <= 1e-15 * 2e154
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


# the imaginary components of each kind of T; "iC_j" has Z = iC, whose
# ZZ* - Z*Z is exactly real
_DEFECT_PARTS = {"real": [0], "C_i": [0, 1], "C_j": [0, 2], "C_k": [0, 3],
                 "iC_j": [2], "general": [0, 1, 2, 3]}


@settings(max_examples=120, deadline=None)
@example(n=1, kind="general", scale=1.0, seed=0)
@example(n=12, kind="C_j", scale=2.0 ** -1060, seed=1)
@given(n=st.integers(1, 12), kind=st.sampled_from(sorted(_DEFECT_PARTS)),
       scale=st.sampled_from([1.0, 1e150, 1e-150, 2.0 ** -1060]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normality_defect_matches_svd_of_chi(n, kind, scale, seed):
    """||TT* - T*T|| as a spectral radius (of ZZ* - Z*Z for slice-valued T)
    against the largest singular value of chi(TT* - T*T).  The two round D
    differently, by up to about n eps ||T||^2 when T is nearly normal."""
    parts = _DEFECT_PARTS[kind]
    e = np.zeros((n, n, 4))
    e[..., parts] = np.random.default_rng(seed).standard_normal(
        (n, n, len(parts)))
    T = QMatrix(scale * e)
    D = T @ T.adjoint() - T.adjoint() @ T
    ref = np.linalg.svd(chi(D), compute_uv=False)[0]
    eps = np.finfo(float).eps
    assert abs(_normality_defect(T) - ref) <= 16 * n * eps * op_norm(T) ** 2


@pytest.mark.parametrize("T", [QMatrix.zeros(0, 0), QMatrix.zeros(3, 3),
                               QMatrix(np.full((2, 2, 4), -0.0))],
                         ids=["empty", "zero", "negative zero"])
def test_normality_defect_of_zero_and_empty_matrices(T):
    assert _normality_defect(T).hex() == "0x0.0p+0"


@pytest.mark.parametrize("parts", _DEFECT_PARTS.values(), ids=_DEFECT_PARTS)
def test_normality_defect_refuses_overflow_and_non_finite_entries(parts):
    e = np.zeros((2, 2, 4))
    e[0, 1, parts] = 1e308
    e[1, 1, parts] = 1e308
    e[0, 0, 0] = 1.0
    with pytest.raises(OverflowError, match="normality defect"):
        _normality_defect(QMatrix(e))
    e[1, 0, parts[-1]] = np.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        _normality_defect(QMatrix(e))


def _no_quaternion_algebra(*args):
    raise AssertionError("quaternion adjoint or product called")


@pytest.mark.parametrize("which, n, side", [
    ("normal", 12, "12 x 12"), ("nonnormal", 12, "12 x 12"),
    (None, 5, "10 x 10")], ids=["real", "C_j", "general"])
def test_normality_defect_is_one_self_adjoint_eigensolve(which, n, side,
                                                         monkeypatch, caplog):
    """Slice-valued T never forms T* or a quaternion product: the defect is
    one eigvalsh of the n x n ZZ* - Z*Z.  Other T take the 2n x 2n chi side."""
    from quatcalc.discretize import paper_example

    T = (paper_example(which, n).T if which
         else rand_q(np.random.default_rng(7), (n, n)))
    D = T @ T.adjoint() - T.adjoint() @ T
    ref = np.linalg.svd(chi(D), compute_uv=False)[0]
    if which:
        monkeypatch.setattr(QMatrix, "adjoint", _no_quaternion_algebra)
        monkeypatch.setattr(QMatrix, "__matmul__", _no_quaternion_algebra)
    with caplog.at_level(logging.DEBUG, logger="quatcalc"):
        got = _normality_defect(T)
    assert [r.getMessage() for r in caplog.records] == [
        f"norm: {side} self-adjoint eigensolve"]
    assert abs(got - ref) <= 1e-14 * ref


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-5])
def test_normality_test_is_scale_invariant(rng, s):
    """Normality is judged relative to ||T||^2 at every size: a small
    non-normal matrix is refused and a small normal one is decomposed."""
    ent = np.zeros((2, 2, 4))
    ent[0, 0] = (0.0, 0.5, 0.0, 0.0)
    ent[0, 1] = (1.0, 0.0, 0.0, 0.0)
    bad = s * QMatrix(ent)
    for decompose in (normal_eigensystem, cartesian):
        with pytest.raises(ValueError, match="not normal"):
            decompose(bad)
    N = s * _random_normal(rng, [Quaternion(1, 2, 0, 0), Quaternion(0, 0, 1, 0),
                                 Quaternion(-2, 0, 0, 0.5)])
    tol = 1e-9 * op_norm(N)
    lam, U = normal_eigensystem(N)
    D = QMatrix.diag([Quaternion(z.real, z.imag, 0, 0) for z in lam])
    assert op_norm(U @ D @ U.adjoint() - N) <= tol
    parts = cartesian(N)
    assert op_norm(parts.A + 0.5 * (parts.J @ parts.B) - N) <= tol


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
    for rows, cols in ((2, 3), (0, 0), (3, 0), (0, 2)):
        A = rand_q(rng, (rows, cols))
        obj = A.to_json()
        assert obj["rows"] == rows and obj["cols"] == cols
        B = QMatrix.from_json(obj)
        assert B.entries.shape == (rows, cols, 4)
        assert op_norm(A - B) == 0.0


def test_qmatrix_copies_the_callers_array(rng):
    e = rng.standard_normal((3, 4, 4))
    before = e.copy()
    T = QMatrix(e)
    e[...] = 7.0
    assert np.array_equal(T.entries, before)
    F = np.asfortranarray(before)
    assert QMatrix(F).entries.flags.c_contiguous
    assert not np.shares_memory(QMatrix(F).entries, F)


def _every_builder_and_operation(rng):
    """name -> (result, operand entries it must not share memory with)."""
    A, B = rand_q(rng, (3, 3)), rand_q(rng, (3, 3))
    row, col = rand_q(rng, (1, 4)), rand_q(rng, (4, 1))
    M = chi(A)
    q = Quaternion(0.3, -1.0, 0.5, 2.0)
    J = _random_J(rng, 3)
    far = Quaternion(10.0, 1.0, 0.0, 0.0)
    spheres = spherical_spectrum(A).spheres
    return {
        "QMatrix(e)": (QMatrix(A.entries), [A]),
        "zeros": (QMatrix.zeros(2, 3), []),
        "eye": (QMatrix.eye(3), []),
        "diag": (QMatrix.diag([1.0, 2j, q]), []),
        "real_scalar": (QMatrix.real_scalar(3, 2.5), []),
        "from_complex": (QMatrix.from_complex(M[:3, :3]), []),
        "from_json": (QMatrix.from_json(A.to_json()), [A]),
        "+": (A + B, [A, B]),
        "-": (A - B, [A, B]),
        "neg": (-A, [A]),
        "scalar *": (2.0 * A, [A]),
        "@": (A @ B, [A, B]),
        "adjoint": (A.adjoint(), [A]),
        "adjoint 1 x n": (row.adjoint(), [row]),
        "adjoint n x 1": (col.adjoint(), [col]),
        "scale_left": (A.scale_left(q), [A]),
        "scale_right": (A.scale_right(q), [A]),
        "chi_inv": (chi_inv(M), [A]),
        "gram_schmidt": (gram_schmidt(M, 3, 0.1)[1], [A]),
        "positive_sqrt": (positive_sqrt(A.adjoint() @ A), [A]),
        "plus_eigenbasis": (plus_eigenbasis(J), [J]),
        "s_resolvent left": (s_resolvent(A, far).left, [A]),
        "s_resolvent right": (s_resolvent(A, far).right, [A]),
        "riesz_projection": (riesz_projection(A, build_contour(spheres)), [A]),
    }


@pytest.mark.parametrize("name", list(_every_builder_and_operation(
    np.random.default_rng(0))))
def test_results_are_read_only_c_contiguous_and_own_their_entries(name):
    T, operands = _every_builder_and_operation(np.random.default_rng(1))[name]
    e = T.entries
    assert e.dtype == np.float64 and e.ndim == 3 and e.shape[2] == 4
    assert e.flags.c_contiguous
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0, 0, 0] = 1.0
    assert not any(np.shares_memory(e, X.entries) for X in operands)


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3, 4), dtype=np.float32),
    np.asfortranarray(np.zeros((2, 3, 4))),
    np.zeros((2, 3, 4))[:, ::2],
    np.zeros((2, 3)),
    np.zeros((2, 3, 3)),
], ids=["float32", "fortran", "strided", "2-d", "3 parts"])
def test_adopt_refuses_any_other_layout(bad):
    with pytest.raises(ValueError, match="C-contiguous float64"):
        QMatrix._adopt(bad)
