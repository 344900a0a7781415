import hashlib
from fractions import Fraction

import numpy as np
import pytest

from quatcalc.qmatrix import QMatrix, op_norm
from quatcalc.quaternion import Quaternion, Sphere
from quatcalc.spectrum import spherical_spectrum
from quatcalc.verify import _normal_example_commutator_norm
from quatcalc.discretize import (
    ExampleBundle,
    grid_points,
    kernel_op,
    mult_op,
    paper_example,
    volterra_norm,
    volterra_op,
)


def test_grid_points():
    assert np.allclose(grid_points(4), [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(ValueError):
        grid_points(0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [
    grid_points,
    lambda n: mult_op(lambda x: x, n),
    lambda n: kernel_op(lambda x, y: x * y, n),
    volterra_op,
    volterra_norm,
], ids=["grid_points", "mult_op", "kernel_op", "volterra_op", "volterra_norm"])
def test_builders_need_at_least_one_cell(build, n):
    with pytest.raises(ValueError, match="need at least one cell"):
        build(n)


def test_mult_op_is_diagonal_with_sample_values():
    op = mult_op(lambda x: x, 4)
    expected = QMatrix.diag([Quaternion(v, 0, 0, 0)
                             for v in (0.125, 0.375, 0.625, 0.875)])
    assert op_norm(op - expected) == 0.0
    assert op_norm(op) == pytest.approx(0.875)


def test_mult_op_spectrum_is_real_in_unit_interval():
    op = mult_op(lambda x: x, 12)
    spec = spherical_spectrum(op)
    assert spec.total_multiplicity() == 12
    for s in spec.spheres:
        assert s.rad <= 1e-12
        assert -1e-12 <= s.re <= 1.0


def test_kernel_op_adjoint_matches_conjugate_transpose():
    op = kernel_op(lambda x, y: x * y, 8)
    # real symmetric kernel -> self-adjoint matrix, exactly
    assert op_norm(op - op.adjoint()) == 0.0


def test_volterra_on_constant_function():
    """V applied to g = 1 samples (1/2) * x at the midpoints, exactly."""
    n = 16
    V = volterra_op(n)
    ones = np.zeros((n, 4))
    ones[:, 0] = 1.0
    out = V.apply(ones)
    assert np.allclose(out[:, 0], 0.5 * grid_points(n))
    assert np.allclose(out[:, 1:], 0.0)


def test_volterra_quaternionic_coefficient():
    n = 8
    V = volterra_op(n, coeff=Quaternion(0, 0, 0, 0.5))
    ones = np.zeros((n, 4))
    ones[:, 0] = 1.0
    out = V.apply(ones)
    assert np.allclose(out[:, 3], 0.5 * grid_points(n))
    assert np.allclose(out[:, :3], 0.0)


def test_volterra_norm_converges_to_two_over_pi_halved():
    """||(1/2) Int_0^x|| on L^2[0,1] is 1/pi; midpoint rule converges fast."""
    errs = []
    for n in (64, 128, 256):
        errs.append(abs(op_norm(volterra_op(n)) - 1.0 / np.pi))
    assert errs[0] < 2.0 / 64
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-5


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 50, 128, 300, 512, 1024])
def test_volterra_norm_exact_closed_form(n):
    """volterra_op(n) = (h/4)(I+N)(I-N)^-1 (N the nilpotent shift), a scaled
    Cayley transform of N, whose norm is exactly cot(pi/4n)/(4n); 512 and
    1024 are the largest sizes of the ``examples --sweep`` run."""
    exact = 1.0 / (4 * n * np.tan(np.pi / (4 * n)))
    norm = op_norm(volterra_op(n))
    assert abs(norm - exact) <= 1e-13
    assert abs(norm - exact) <= 2e-15 * exact


def test_modulus_positivity():
    V = volterra_op(32)
    VstarV = V.adjoint() @ V
    from quatcalc.qmatrix import chi
    w = np.linalg.eigvalsh(chi(VstarV))
    assert w.min() >= -1e-14


def test_paper_example_validation():
    with pytest.raises(ValueError):
        paper_example("normal", 100)   # not divisible by 3
    with pytest.raises(ValueError):
        paper_example("bogus", 9)
    with pytest.raises(ValueError):
        paper_example("normal", 0)


@pytest.mark.parametrize("which", ["normal", "nonnormal"])
def test_examples_factor_exactly(which):
    b = paper_example(which, 48)
    assert isinstance(b, ExampleBundle)
    scale = op_norm(b.T)
    assert b.factorization_residual() <= 1e-14 * scale
    assert op_norm(b.K) < 0.5


def test_rank_one_kernel_norm_limit():
    """||(1/2) x y|| on L^2 is (1/2)||x||^2 = 1/6; discrete norms approach it."""
    for n in (4, 7, 16, 64, 256):
        norm = op_norm(kernel_op(lambda x, y: 0.5 * x * y, n))
        assert abs(norm - 1.0 / 6.0) <= 2.0 / n
        assert norm < 1.0 / 3.0


@pytest.mark.parametrize("n", [3, 12, 96])
def test_rank_one_kernels_match_kernel_op_bitwise(n):
    """The "normal" example's vectorized K equals kernel_op's entries bit for bit."""
    fast = paper_example("normal", n).K.entries
    ref = kernel_op(lambda x, y: 0.5 * x * y, n).entries
    assert fast.tobytes() == ref.tobytes()


# sha256 prefixes of the T, W, K, S entry bytes and of repr(diagnostics),
# recorded before the builders shared one assembler; the normal n = 12 and
# n = 96 diagnostics since norm_K, of a rank-one K >= 0, takes the Perron path;
# the nonnormal ones since products within one slice take one complex GEMM
# and norm_K of K = (j/2)V reads the real table V/2; normal n = 3 and the
# nonnormal ones since the normality defect is the spectral radius of
# ZZ* - Z*Z on the slice matrix Z (its last digits moved)
_EXAMPLE_BYTES = {
    ("normal", 3): ("8d2a12c6fece2d2e", "83e6ebdd69ce84ab", "231c7805350ca373",
                    "07a1a91affa909bf", "c97c18aae4065533"),
    ("normal", 12): ("7b0c0207e8259c55", "f3f1a8e5e38d1836", "98c13fd279e73d92",
                     "5883ffdc3cae67ef", "f58c037b96a5cf20"),
    ("normal", 96): ("0d99875e167b8b66", "74bc6073fbfe395e", "809ace56fa46e29c",
                     "9d77031d47f6e069", "d0295049106cc976"),
    ("nonnormal", 3): ("4d1344413ebd7fa9", "83e6ebdd69ce84ab",
                       "efb7fb719f8a694f", "07a1a91affa909bf",
                       "d5d46c092f441e4b"),
    ("nonnormal", 12): ("1f9c973d42f33dc5", "f3f1a8e5e38d1836",
                        "cb4fb67a4ec6b540", "5883ffdc3cae67ef",
                        "06283e0c83891af1"),
    ("nonnormal", 96): ("3526cbc812c52628", "74bc6073fbfe395e",
                        "e3a23f48b81fccff", "9d77031d47f6e069",
                        "9f6af65ebde9d941"),
}


@pytest.mark.parametrize("which, n", sorted(_EXAMPLE_BYTES))
def test_paper_example_bytes_are_unchanged(which, n):
    """The one-assembler builders give the recorded operators bit for bit
    (the diagnostics' norms also depend on the LAPACK build)."""
    b = paper_example(which, n)
    blobs = [op.entries.tobytes() for op in (b.T, b.W, b.K, b.S)]
    blobs.append(repr(b.diagnostics).encode())
    got = tuple(hashlib.sha256(blob).hexdigest()[:16] for blob in blobs)
    assert got == _EXAMPLE_BYTES[which, n]


@pytest.mark.parametrize("n", [3, 12, 96, 192])
@pytest.mark.parametrize("which", ["normal", "nonnormal"])
def test_column_scaled_factor_product_is_the_dense_product_bitwise(which, n):
    """(W + K) S by column scaling equals the quaternion product of the
    dense factors byte for byte, signed zeros included, and so does the
    residual taken from it."""
    b = paper_example(which, n)
    product = (b.W + b.K) @ b.S
    assert b._factor_product().tobytes() == product.entries.tobytes()
    assert (b.factorization_residual().hex()
            == op_norm(b.T - product).hex())


@pytest.mark.parametrize("which", ["normal", "nonnormal"])
def test_paper_example_peak_memory_holds_no_dense_factors(which, traced_peak):
    """Building an example and its diagnostics peaks at 128 n^2 bytes
    (traced by tracemalloc), within 136 n^2: W and S stay diagonals, so
    T and K are held with one work space of 64 n^2, the factorization
    check's product and residual or the normality defect's matrices."""
    paper_example(which, 6)   # first calls load lazy numpy modules
    n = 192
    assert traced_peak(lambda: paper_example(which, n)) <= 136 * n * n


@pytest.mark.parametrize("n", [12, 96, 192])
def test_normal_example_defect_matches_closed_form(n):
    """The spectral radius of ZZ* - Z*Z on the real slice matrix agrees
    with the closed-form ||[T, T*]|| of the rank <= 4 commutator."""
    got = paper_example("normal", n).diagnostics["normality_defect"]
    ref = _normal_example_commutator_norm(n)
    assert abs(got - ref) <= 1e-14 * ref


def test_normal_example_is_actually_nonnormal():
    # the multiplication-plus-rank-one operator fails to be normal: the
    # rank-one kernel does not commute with multiplication by x
    b = paper_example("normal", 48)
    scale = op_norm(b.T) ** 2
    assert b.normality_defect() > 1e-3 * scale


def _continuum_commutator_norm():
    """||[T, T*]|| of the "normal" example on L^2[0, 1], from exact integrals.

    [T, T*] = sum_ij C_ij |f_i><f_j| with f = (x, x^2, x^2 chi, x^3 chi) and
    chi = 1[0, 1/3]; its nonzero eigenvalues are those of C G, G the Gram
    matrix of f, whose entries are integrals of monomials over [0, 1] or
    [0, 1/3].
    """
    powers = (1, 2, 2, 3)
    cut = (False, False, True, True)
    G = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            a = powers[i] + powers[j] + 1
            top = Fraction(1, 3) if cut[i] or cut[j] else Fraction(1)
            G[i][j] = top ** a / a
    half = Fraction(1, 2)
    C = [[Fraction(0)] * 4 for _ in range(4)]
    C[0][3] = C[3][0] = half
    C[1][2] = C[2][1] = -half
    C[0][0] = G[1][1] / 4
    C[1][1] = -G[0][0] / 4
    CG = [[float(sum(C[i][k] * G[k][j] for k in range(4))) for j in range(4)]
          for i in range(4)]
    return float(np.max(np.abs(np.linalg.eigvals(np.array(CG)))))


def test_normal_example_commutator_converges_to_continuum():
    # the discrete defect d_n approaches the continuum commutator norm from
    # below at the midpoint rule's O(1/n^2) rate
    c_inf = _continuum_commutator_norm()
    assert abs(c_inf - 4.985381282969e-3) <= 1e-12
    prev = 0.0
    for n in (12, 48, 96, 192):
        d = paper_example("normal", n).normality_defect()
        assert prev < d < c_inf
        assert n * n * (c_inf - d) <= 0.02
        prev = d


def test_nonnormal_example_defect():
    b = paper_example("nonnormal", 48)
    scale = op_norm(b.T) ** 2
    assert b.normality_defect() > 1e-3 * scale


def test_nonnormal_kernel_norm_tracks_one_over_pi():
    b = paper_example("nonnormal", 96)
    assert abs(op_norm(b.K) - 1.0 / np.pi) <= 1e-3


def test_factor_S_is_shifted_multiplication():
    b = paper_example("normal", 9)
    S = b.S
    # S is diagonal multiplication by phi with phi > 0 away from the cut
    for r in range(9):
        for c in range(9):
            if r != c:
                assert abs(S[r, c]) == 0.0
    assert op_norm(S - S.adjoint()) == 0.0


def _einsum_volterra(n: int, coeff: Quaternion) -> np.ndarray:
    """Reference entries: the einsum formula volterra_op used to evaluate."""
    h = 1.0 / n
    weights = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
    return np.einsum("rc,q->rcq", h * weights, coeff.to_array())


@pytest.mark.parametrize("n", [3, 96, 1024])
@pytest.mark.parametrize("coeff", [
    Quaternion(0.5, 0, 0, 0),
    Quaternion(0, 0, 0.5, 0),
    Quaternion(*np.random.default_rng(11).standard_normal(4)),
], ids=["one-half", "j-half", "random"])
def test_volterra_op_matches_the_einsum_formula_bitwise(n, coeff):
    """Built in place, the entries equal the einsum formula byte for byte,
    signed zeros included (the random coefficient has negative parts)."""
    got = volterra_op(n, coeff).entries
    assert got.tobytes() == _einsum_volterra(n, coeff).tobytes()


def test_volterra_op_norm_peak_memory_is_within_1_6_entries(traced_peak):
    """Building the n = 512 Volterra matrix and taking its norm holds at
    most 1.6 times the entries' bytes at once (traced by tracemalloc):
    the entries are written once, into the array the QMatrix adopts."""
    op_norm(volterra_op(8))   # first calls load lazy numpy modules
    peak = traced_peak(lambda: op_norm(volterra_op(512)))
    assert peak <= 1.6 * 512 * 512 * 4 * 8


@pytest.mark.parametrize("n", [1, 2, 3, 64, 96, 128, 256, 512, 1024])
def test_volterra_norm_equals_op_norm_of_volterra_op_bitwise(n):
    assert volterra_norm(n).hex() == op_norm(volterra_op(n)).hex()


@pytest.mark.parametrize("n", [3, 12, 96, 192])
def test_nonnormal_norm_K_equals_volterra_norm_bitwise(n):
    """K = (j/2)V has a zero real part, so its norm is that of the real table
    V/2, which takes the Perron path as the Volterra weights do."""
    assert (op_norm(paper_example("nonnormal", n).K).hex()
            == volterra_norm(n).hex())


def test_volterra_norm_peak_memory_is_below_one_entries_array(traced_peak):
    """The norm holds one real n x n table at once (traced by tracemalloc):
    the unit table, which the norm core reads in place since its scale is
    exactly 1, plus ``np.tri``'s n x n bool mask (1/8 of a table) while it
    is built.  That is about a quarter of the 4 n^2 doubles of the
    quaternion entries that ``volterra_op`` would build: the Perron path
    forms no Gram matrix and no scaled copy."""
    volterra_norm(8)   # first calls load lazy numpy modules
    peak = traced_peak(lambda: volterra_norm(512))
    assert peak <= 1.2 * 512 * 512 * 8


@pytest.mark.parametrize("n", [64, 1024, 2048])
def test_volterra_norm_needs_no_eigensolver(n, monkeypatch):
    """The weights are real and nonnegative, so their Collatz-Wielandt
    bracket closes and no ``eigvalsh`` runs; the norm is cot(pi/4n)/(4n)
    to 1e-15."""
    def refuse(G):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    exact = 1.0 / (4 * n * np.tan(np.pi / (4 * n)))
    assert abs(volterra_norm(n) - exact) <= 1e-15 * exact


def test_grid_builders_make_read_only_c_contiguous_entries():
    b = paper_example("nonnormal", 12)
    built = [mult_op(lambda t: t, 5), kernel_op(lambda x, y: x * y, 5),
             volterra_op(5), b.T, b.W, b.K, b.S]
    for op in built:
        e = op.entries
        assert e.flags.c_contiguous and not e.flags.writeable
        assert e.dtype == np.float64
