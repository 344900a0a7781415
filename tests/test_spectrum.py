import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from quatcalc.discretize import grid_points, paper_example
from quatcalc.quaternion import (ImaginaryUnit, Quaternion, Sphere,
                                 slice_embed, sphere_of)
from quatcalc.qmatrix import QMatrix, chi, chi_inv, op_norm
from quatcalc.spectrum import (
    SpectrumProximityError,
    _chi_eigenvalues,
    _delta_min_sv,
    _delta_of_square,
    delta,
    s_resolvent,
    spherical_spectrum,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_delta_depends_only_on_sphere():
    T = QMatrix(np.random.default_rng(0).standard_normal((3, 3, 4)))
    q1 = Quaternion(1.0, 2.0, 0.0, 0.0)
    u = Quaternion(0.3, 1.0, -0.7, 0.2)
    q2 = u * q1 * u.inverse()
    assert sphere_of(q1).distance(sphere_of(q2)) <= 1e-12
    assert op_norm(delta(T, q1) - delta(T, q2)) <= 1e-12 * op_norm(T) ** 2


def test_spectrum_of_diagonal():
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    spec = spherical_spectrum(T)
    assert spec.distance_to(Sphere(0.0, 1.0)) <= 1e-12
    assert spec.distance_to(Sphere(3.0, 0.0)) <= 1e-12
    for want in (Sphere(0, 1), Sphere(3, 0)):
        assert [m for sp, m in zip(spec.spheres, spec.multiplicities)
                if sp.distance(want) <= 1e-8] == [1]
    assert spec.total_multiplicity() == 2


def test_spectrum_of_identity():
    spec = spherical_spectrum(QMatrix.eye(5))
    assert spec.distance_to(Sphere(1.0, 0.0)) <= 1e-12
    assert len(spec.spheres) == 1
    assert spec.multiplicities == (5,)


def test_delta_singular_exactly_on_spectrum():
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    for s in spherical_spectrum(T).spheres:
        D = delta(T, Quaternion(s.re, s.rad, 0, 0))
        sv = np.linalg.svd(chi(D), compute_uv=False)
        assert sv[-1] <= 1e-9 * max(op_norm(T) ** 2, 1.0)
    # a point far from the spectrum gives an invertible Delta
    D = delta(T, Quaternion(7.0, 1.0, 0, 0))
    sv = np.linalg.svd(chi(D), compute_uv=False)
    assert sv[-1] > 1.0


def test_resolvent_identities(rng):
    T = QMatrix(rng.standard_normal((5, 5, 4)))
    spec = spherical_spectrum(T)
    eye = QMatrix.eye(5)
    s = Quaternion(4.0, 2.0, 1.0, -0.5)
    res = s_resolvent(T, s, spec)
    denom = op_norm(res.left) * (abs(s) + op_norm(T))
    assert op_norm(res.left.scale_right(s) - T @ res.left - eye) \
        <= 1e-12 * denom
    assert op_norm(res.right.scale_left(s) - res.right @ T - eye) \
        <= 1e-12 * denom


def test_resolvent_matches_series_for_large_s(rng):
    """Independent oracle: S_L^{-1}(s,T) = sum_k T^k s^{-k-1} for |s|>||T||."""
    T = QMatrix(rng.standard_normal((4, 4, 4)) * 0.1)
    s = Quaternion(2.0, 1.0, 0.0, 1.0)
    series = QMatrix.zeros(4, 4)
    power = QMatrix.eye(4)
    s_inv_pow = s.inverse()
    for _ in range(60):
        series = series + power.scale_right(s_inv_pow)
        power = power @ T
        s_inv_pow = s_inv_pow * s.inverse()
    res = s_resolvent(T, s)
    assert op_norm(res.left - series) <= 1e-10


def test_resolvent_near_spectrum_raises():
    T = QMatrix.diag([Quaternion(1, 0, 0, 0)])
    with pytest.raises(SpectrumProximityError) as e:
        s_resolvent(T, Quaternion(1.0 + 1e-12, 0, 0, 0))
    assert e.value.distance <= 1e-10


def _delta_route(T: QMatrix, s: Quaternion) -> tuple[QMatrix, QMatrix]:
    """Reference S-resolvents through the companion operator:
    S_L^-1 = -Delta_s(T)^-1 (T - conj(s) I), S_R^-1 = -(T - conj(s) I)
    Delta_s(T)^-1, with chi(Delta_s) inverted (squared conditioning)."""
    Dinv = chi_inv(np.linalg.inv(chi(delta(T, s))), tol=math.inf)
    shift = T - QMatrix.eye(T.rows).scale_right(s.conjugate())
    return -1.0 * (Dinv @ shift), -1.0 * (shift @ Dinv)


def _identity_residual(T: QMatrix, s: Quaternion, res) -> float:
    """max of ||S_L^-1 s - T S_L^-1 - I|| and ||s S_R^-1 - S_R^-1 T - I||,
    relative to ||S_L^-1|| (|s| + ||T||)."""
    eye = QMatrix.eye(T.rows)
    denom = op_norm(res.left) * (abs(s) + op_norm(T))
    return max(op_norm(res.left.scale_right(s) - T @ res.left - eye),
               op_norm(res.right.scale_left(s) - res.right @ T - eye)) / denom


_SLICES = {
    "real": None,
    "C_i": ImaginaryUnit(1.0, 0.0, 0.0),
    "C_j": ImaginaryUnit(0.0, 1.0, 0.0),
    "tilted": ImaginaryUnit.normalized(0.3, -0.5, 0.8),
    "near -i": ImaginaryUnit.normalized(-1.0, 1e-9, -2e-9),
}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), kind=st.sampled_from(sorted(_SLICES)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resolvent_matches_the_delta_route(n, kind, seed):
    """One LU of chi(T') - z gives the companion-operator S-resolvents to
    1e-12 relative, for general quaternionic T and s in any slice."""
    rng = np.random.default_rng(seed)
    T = QMatrix(rng.standard_normal((n, n, 4)))
    spec = spherical_spectrum(T)
    scale = max(op_norm(T), 1.0)
    m = _SLICES[kind]
    while True:
        re = float(rng.uniform(-2.0, 2.0)) * scale
        rad = 0.0 if m is None else float(rng.uniform(0.0, 2.0)) * scale
        if spec.distance_to(Sphere(re, rad)) >= 0.3 * scale:
            break
    s = Quaternion(re) if m is None else Quaternion(re, *(rad * m.to_array()[1:]))
    res = s_resolvent(T, s, spec)
    left, right = _delta_route(T, s)
    assert op_norm(res.left - left) <= 1e-12 * op_norm(left)
    assert op_norm(res.right - right) <= 1e-12 * op_norm(right)


@pytest.mark.parametrize("seed", range(5))
def test_resolvent_identities_hold_near_the_spectrum(seed):
    """At distance 1e-7 max(||T||, 1) from each sphere the resolvent
    identities hold to round-off: chi(T') - z is inverted directly, where
    inverting chi(Delta_s) squared its conditioning (residuals ~1e-9)."""
    rng = np.random.default_rng(seed)
    T = QMatrix(rng.standard_normal((6, 6, 4)))
    spec = spherical_spectrum(T)
    scale = max(op_norm(T), 1.0)
    m = ImaginaryUnit.normalized(*rng.standard_normal(3))
    for sp in spec.spheres:
        rad = sp.rad + 1e-7 * scale
        s = Quaternion(sp.re, *(rad * m.to_array()[1:]))
        assert _identity_residual(T, s, s_resolvent(T, s, spec)) <= 1e-13


def test_resolvent_at_a_tiny_imaginary_part(rng):
    """s = 4 + 1e-160 (i + j): its slice's unit is found without the
    squares of the imaginary part underflowing."""
    T = QMatrix(rng.standard_normal((5, 5, 4)))
    res = s_resolvent(T, Quaternion(4.0, 1e-160, 1e-160, 0.0))
    ref = s_resolvent(T, Quaternion(4.0))
    assert op_norm(res.left - ref.left) <= 1e-14 * op_norm(ref.left)
    assert op_norm(res.right - ref.right) <= 1e-14 * op_norm(ref.right)


@pytest.mark.parametrize("m", [_SLICES["C_j"], _SLICES["tilted"]],
                         ids=["C_j", "tilted"])
@pytest.mark.parametrize("sphere", [Sphere(0.0, 1.0), Sphere(3.0, 0.0)],
                         ids=["sphere-of-j", "real-sphere"])
def test_resolvent_guard_at_its_edge(m, sphere):
    """The guard refuses [s] within 1e-8 max(||T||, 1) of the spectrum, and
    evaluates at twice that distance, whatever the slice of s."""
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    scale = max(op_norm(T), 1.0)

    def at(d):
        rad = sphere.rad + d * scale
        return Quaternion(sphere.re, *(rad * m.to_array()[1:]))

    with pytest.raises(SpectrumProximityError) as e:
        s_resolvent(T, at(0.99e-8))
    assert e.value.distance < 1e-8 * scale
    s = at(2e-8)
    assert _identity_residual(T, s, s_resolvent(T, s)) <= 1e-13


@pytest.mark.parametrize("s", [Quaternion(4.0, 2.0, 1.0, -0.5),
                               Quaternion(4.0)], ids=["non-real", "real"])
def test_resolvent_round_off_check_sees_independent_inverse_noise(
        rng, monkeypatch, s):
    """With 1e-3 relative noise on every inverse, the exact block mirror
    of R disagrees with the independent inverse at conj(z) (with R itself
    for real s)."""
    T = QMatrix(rng.standard_normal((5, 5, 4)))
    spec = spherical_spectrum(T)
    s_resolvent(T, s, spec)
    inv = np.linalg.inv
    noise = np.random.default_rng(5)

    def noisy_inv(M):
        R = inv(M)
        return R + 1e-3 * np.abs(R).max() * noise.standard_normal(R.shape)

    monkeypatch.setattr(np.linalg, "inv", noisy_inv)
    with pytest.raises(ValueError, match="round-off check"):
        s_resolvent(T, s, spec)


@pytest.mark.parametrize("s, calls", [(Quaternion(4.0, 2.0, 1.0, -0.5), 2),
                                      (Quaternion(4.0), 1)],
                         ids=["non-real", "real"])
def test_resolvent_takes_one_inverse_and_a_sentinel(rng, monkeypatch, s,
                                                     calls):
    """One LU inverse gives both resolvents; the sentinel adds one at
    conj(z), none for real s."""
    T = QMatrix(rng.standard_normal((5, 5, 4)))
    seen = []
    inv = np.linalg.inv

    def counting_inv(M):
        seen.append(M.shape)
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    s_resolvent(T, s)
    assert seen == [(10, 10)] * calls


def test_real_spheres_use_half_multiplicity():
    # a real eigenvalue contributes a conjugate pair to chi: quaternionic
    # multiplicity is half the complex count
    T = QMatrix.diag([Quaternion(2, 0, 0, 0)] * 3)
    spec = spherical_spectrum(T)
    assert spec.multiplicities == (3,)


def _slice_valued(Z: np.ndarray, u: int) -> QMatrix:
    e = np.zeros((*Z.shape, 4))
    e[..., 0], e[..., u] = Z.real, Z.imag
    return QMatrix(e)


@pytest.mark.parametrize("u", [2, 3], ids=["C_j", "C_k"])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_chi_eigenvalues_of_slice_valued_matrix(u, n):
    """eig(Z) with its conjugates is the eigenvalue multiset of chi(T)."""
    rng = np.random.default_rng(100 * u + n)
    # distinct, well-separated diagonal plus a small coupling: well conditioned
    Z = np.diag(np.arange(n) + 1j * rng.uniform(-2, 2, n)) \
        + 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    T = _slice_valued(Z, u)
    got = _chi_eigenvalues(T)
    ref = np.linalg.eigvals(chi(T))
    assert got.shape == ref.shape == (2 * n,)
    dist = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-12 * max(op_norm(T), 1.0)


@pytest.mark.parametrize("u", [1, 2, 3], ids=["C_i", "C_j", "C_k"])
@pytest.mark.parametrize("side", [np.triu, np.tril], ids=["upper", "lower"])
def test_triangular_slice_matrix_spectrum_is_its_diagonal(u, side,
                                                         monkeypatch, caplog):
    """An exactly triangular Z gives its diagonal and the conjugates, with
    no eigensolver, and the "quatcalc" logger says so at DEBUG."""
    rng = np.random.default_rng(u)
    n = 6
    Z = side(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(Z)

    def fail(M):
        raise AssertionError("eigvals called on a triangular slice matrix")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    T = _slice_valued(Z, u)
    with caplog.at_level(logging.DEBUG, logger="quatcalc"):
        w = _chi_eigenvalues(T)
    assert w.tolist() == np.concatenate([d, d.conj()]).tolist()
    assert "triangular 6 x 6 slice matrix" in caplog.text
    spec = spherical_spectrum(T)
    assert spec.spheres == tuple(Sphere(z.real, abs(z.imag))
                                 for z in sorted(d, key=lambda z: z.real))
    assert spec.multiplicities == (1,) * n


def test_non_triangular_slice_matrix_calls_the_eigensolver(monkeypatch):
    """One entry off the triangle sends Z to ``eigvals``."""
    Z = np.tril(np.arange(1.0, 17.0).reshape(4, 4) + 0.5j)
    Z[0, 3] = 1e-300
    calls = []
    eigvals = np.linalg.eigvals

    def recording(M):
        calls.append(M.shape)
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    _chi_eigenvalues(_slice_valued(Z, 2))
    assert calls == [(4, 4)]


def test_nonnormal_example_spectrum_matches_closed_form():
    """The lower-triangular nonnormal T has diagonal x_r 1[x_r <= 1/3] + j x_r/(4n):
    its spheres are (x_r 1[x_r <= 1/3], x_r/(4n)), each of multiplicity one."""
    n = 96
    x = grid_points(n)
    ref = np.stack([np.where(x <= 1.0 / 3.0, x, 0.0), x / (4.0 * n)], axis=1)
    ref = ref[np.lexsort((ref[:, 1], ref[:, 0]))]
    spec = spherical_spectrum(paper_example("nonnormal", n).T)
    got = np.array([(s.re, s.rad) for s in spec.spheres])
    assert got.shape == (n, 2)
    assert spec.multiplicities == (1,) * n
    assert np.abs(got - ref).max() <= 1e-14


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8), defective=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_multiplicities_count_every_eigenvalue_once(n, defective, seed):
    """Upper-triangular quaternionic T; a constant diagonal makes it
    defective, and jitter splits its conjugate chi eigenvalue pairs."""
    rng = np.random.default_rng(seed)
    e = np.triu(rng.standard_normal((4, n, n)), 1).transpose(1, 2, 0)
    e[range(n), range(n)] = (rng.standard_normal(4) if defective
                             else rng.standard_normal((n, 4)))
    spec = spherical_spectrum(QMatrix(e))
    assert spec.total_multiplicity() == n
    assert all(m >= 1 for m in spec.multiplicities)


def _delta_svd(T: QMatrix, spheres) -> list[tuple[float, float, float]]:
    """(sigma_min, ||C||, max|C|) of C = chi(Delta_q(T)) per sphere, by SVD."""
    T2 = T @ T
    out = []
    for sp in spheres:
        C = chi(_delta_of_square(T, T2, slice_embed(sp)))
        sv = np.linalg.svd(C, compute_uv=False)
        out.append((float(sv[-1]), float(sv[0]), float(np.abs(C).max())))
    return out


def _chi_jordan(eig: complex, n: int) -> QMatrix:
    M = np.eye(n, dtype=complex) * eig + np.eye(n, k=1, dtype=complex)
    full = np.zeros((2 * n, 2 * n), dtype=complex)
    full[:n, :n], full[n:, n:] = M, M.conj()
    return chi_inv(full)


_CERTIFIED = (
    [pytest.param(QMatrix(np.random.default_rng(seed).standard_normal(
        (n, n, 4))), id=f"random-{n}-{seed}")
     for n in (1, 2, 5, 8, 12) for seed in (0, 1, 2)]
    + [pytest.param(paper_example(w, n).T, id=f"{w}-{n}")
       for w in ("normal", "nonnormal") for n in (12, 48)])


@pytest.mark.parametrize("T", _CERTIFIED)
def test_delta_certificate_bounds_the_smallest_singular_value(T):
    """Each certificate v is at least sigma_min(C) up to 1e-13 ||C||, and it
    is the SVD's value or at most 1e-8 max|C| (so a gate v <= tol passes
    only when sigma_min does)."""
    spheres = spherical_spectrum(T).spheres
    got = _delta_min_sv(T, spheres)
    assert len(got) == len(spheres)
    for v, (smin, norm, s) in zip(got, _delta_svd(T, spheres)):
        assert v >= smin - 1e-13 * norm
        assert v == smin or v <= 1e-8 * s


@pytest.mark.parametrize("T", [
    pytest.param(QMatrix.zeros(3), id="zero-3"),
    pytest.param(_chi_jordan(0.5, 4), id="J4(0.5)"),
    pytest.param(_chi_jordan(0.5 + 0.3j, 6), id="J6(0.5+0.3i)"),
    pytest.param(QMatrix.diag([Quaternion(0, 1, 0, 0), Quaternion(3, 0, 0, 0)]),
                 id="diag(i,3)"),
])
def test_delta_certificate_of_singular_pivots_is_the_svd_value(T):
    """Exactly singular pivots (and the zero matrix) report the SVD value."""
    spheres = spherical_spectrum(T).spheres
    assert spheres
    assert _delta_min_sv(T, spheres) == [smin for smin, _, _ in
                                         _delta_svd(T, spheres)]


def _symmetric_orthogonal_to_ones(n: int) -> QMatrix:
    """T = Q diag(k + (0.4 + 0.1 k) i) Q^T, k = 1..n, for a real orthogonal Q
    whose first column is all-ones over sqrt n: the other columns, and with
    them the small singular vectors of chi(Delta_q) at every sphere but the
    first, are orthogonal to the all-ones vector."""
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    Q[:, 0] = 1.0
    Q = np.linalg.qr(Q)[0]
    k = np.arange(1.0, n + 1)
    e = np.zeros((n, n, 4))
    e[..., 0] = Q @ np.diag(k) @ Q.T
    e[..., 1] = Q @ np.diag(0.4 + 0.1 * k) @ Q.T
    return QMatrix(e)


@pytest.mark.parametrize("T", [
    pytest.param(QMatrix(np.random.default_rng(3).standard_normal(
        (48, 48, 4))), id="random-48"),
    pytest.param(_symmetric_orthogonal_to_ones(8),
                 id="symmetric-orthogonal-to-ones-8"),
])
def test_delta_certificate_takes_no_svd_off_singular_pivots(T, monkeypatch):
    """No SVD without an exactly singular pivot, also when the small singular
    vectors are orthogonal to the all-ones vector."""
    spheres = spherical_spectrum(T).spheres

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    got = _delta_min_sv(T, spheres)
    assert len(got) == len(spheres) == T.rows
    assert max(got) <= 1e-12 * op_norm(T) ** 2
