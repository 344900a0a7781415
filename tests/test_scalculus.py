import logging
import multiprocessing
import queue
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quatcalc.quaternion import (
    UNIT_I,
    ImaginaryUnit,
    Quaternion,
    Sphere,
)
from quatcalc.qmatrix import QMatrix, chi, chi_inv, op_norm
from quatcalc import scalculus
from quatcalc.discretize import paper_example
from quatcalc.scalculus import (
    Circle,
    Contour,
    PartitionError,
    SeparationError,
    build_contour,
    calc_adjoint_check,
    func_calc,
    range_basis,
    riesz_decompose,
    riesz_projection,
)
from quatcalc.spectrum import (SpectrumProximityError, SphericalSpectrum,
                               spherical_spectrum)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _random_unitary(rng, n):
    from quatcalc.qmatrix import polar
    A = QMatrix(rng.standard_normal((n, n, 4))) + QMatrix.eye(n) * 3.0
    U, _ = polar(A)
    return U


def test_contour_winding_and_json():
    c = build_contour([Sphere(0.0, 1.0)], [Sphere(3.0, 0.0)])
    assert c.winding(Sphere(0.0, 1.0)) == 1
    assert c.winding(Sphere(3.0, 0.0)) == 0
    blob = c.to_json()
    assert set(blob) == {"m", "circles", "nodes"}
    assert all(set(circ) == {"center", "radius", "height"}
               for circ in blob["circles"])


def test_contour_nodes_close_up():
    """Quadrature nodes integrate dq to zero around each closed circle."""
    c = build_contour([Sphere(0.5, 0.25)], [])
    total = sum(w for _, w in c.nodes())
    assert abs(total) <= 1e-13


def test_build_contour_below_minimum_nodes_is_value_error():
    with pytest.raises(ValueError, match="at least 16 nodes"):
        build_contour([Sphere(0.0, 1.0)], [Sphere(3.0, 0.0)], nodes=8)


def test_contour_defaults_to_the_minimum_node_count():
    assert Contour(circles=(Circle(0.0, 1.0),)).nodes_per_circle == 16
    with pytest.raises(ValueError, match="at least 16 nodes"):
        Contour(circles=(Circle(0.0, 1.0),), nodes_per_circle=8)


def test_circle_validation():
    with pytest.raises(ValueError):
        Circle(0.0, -1.0)
    with pytest.raises(ValueError):
        Circle(0.0, 1.0, height=-0.5)


def test_separation_error_on_overlap():
    # requested sphere and excluded sphere coincide: no contour can separate
    with pytest.raises(SeparationError):
        build_contour([Sphere(0.0, 1.0)], [Sphere(0.0, 1.0)])


def test_projection_on_diagonal_matches_indicator(rng):
    # T = diag(i, 3): projection onto the sphere of i is diag(1, 0)
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    spec = spherical_spectrum(T)
    c = build_contour([Sphere(0.0, 1.0)], [Sphere(3.0, 0.0)])
    P = riesz_projection(T, c, spec)
    expected = QMatrix.diag([Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0)])
    assert op_norm(P - expected) <= 1e-10


def test_projection_similarity_covariance(rng):
    """Oracle: Riesz projection commutes with unitary change of basis."""
    D = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0),
                      Quaternion(-1, 0.5, 0, 0)])
    U = _random_unitary(rng, 3)
    T = U @ D @ U.adjoint()
    sig = [Sphere(0.0, 1.0), Sphere(-1.0, 0.5)]
    pair = riesz_decompose(T, sig)
    P_direct = riesz_decompose(D, sig).P_sigma
    assert op_norm(pair.P_sigma - U @ P_direct @ U.adjoint()) <= 1e-10
    for key in ("idempotent_sigma", "commute_sigma",
                "spectrum_sigma_hausdorff", "spectrum_tau_hausdorff"):
        assert pair.residuals[key] <= 1e-8


def test_riesz_partition_errors():
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    with pytest.raises(PartitionError):
        riesz_decompose(T, [Sphere(0, 1), Sphere(3, 0)])  # tau empty
    with pytest.raises(PartitionError):
        riesz_decompose(T, [Sphere(9.0, 0.0)])  # no such sphere


def test_func_calc_polynomial(rng):
    """f(q) = q^2 + 2q + 1 through the calculus vs direct evaluation."""
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(0.5, 0.25, 0, 0)])
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres, [])
    direct = T @ T + T * 2.0 + QMatrix.eye(2)

    def f(q):
        return q * q + 2.0 * q + Quaternion(1, 0, 0, 0)

    for side in ("left", "right"):
        got = func_calc(f, side, T, c, spec)
        assert op_norm(got - direct) <= 1e-10


def test_func_calc_constant_is_identity_scale():
    T = QMatrix.diag([Quaternion(0, 0, 1, 0)])
    c = build_contour(spherical_spectrum(T).spheres, [])
    got = func_calc(lambda q: Quaternion(1, 0, 0, 0), "left", T, c)
    assert op_norm(got - QMatrix.eye(1)) <= 1e-12


def test_calc_adjoint_rule(rng):
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(2, 1, 0, 0)])
    c = build_contour(spherical_spectrum(T).spheres, [])

    def f(q):
        return q * q + 3.0 * q

    assert calc_adjoint_check(f, T, c) <= 1e-8


def test_slice_independence(rng):
    """The projection must not depend on the slice unit m used for the contour."""
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    spec = spherical_spectrum(T)
    tilted = ImaginaryUnit.normalized(1.0, 1.0, 0.0)
    c1 = build_contour([Sphere(0.0, 1.0)], [Sphere(3.0, 0.0)], m=UNIT_I)
    c2 = build_contour([Sphere(0.0, 1.0)], [Sphere(3.0, 0.0)], m=tilted)
    P1 = riesz_projection(T, c1, spec)
    P2 = riesz_projection(T, c2, spec)
    assert op_norm(P1 - P2) <= 1e-8


def test_range_basis_is_orthonormal(rng):
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0),
                      Quaternion(3, 0, 0, 0)])
    pair = riesz_decompose(T, [Sphere(3.0, 0.0)])
    B = pair.basis_sigma
    assert B.cols == 2
    gram = B.adjoint() @ B
    assert op_norm(gram - QMatrix.eye(2)) <= 1e-10


def test_range_basis_reports_the_odd_chi_rank_it_found(monkeypatch):
    P = QMatrix.diag([Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0)])
    svd = np.linalg.svd

    def odd_svd(M, *args, **kwargs):
        U, sv, Vt = svd(M, *args, **kwargs)
        sv = sv.copy()
        sv[2] = 0.9  # a third singular value above the 0.5 cut
        return U, sv, Vt

    monkeypatch.setattr(np.linalg, "svd", odd_svd)
    with pytest.raises(PartitionError, match="odd rank 3"):
        range_basis(P)


@pytest.mark.parametrize("n, seed", [(4, 0), (8, 1), (12, 2), (12, 3)])
def test_riesz_decompose_takes_both_bases_from_one_svd(n, seed, monkeypatch):
    """On T = G D G^-1 (non-normal), basis_tau comes from the right singular
    vectors of the one SVD of chi(P_sigma): it is quaternionic-orthonormal
    and spans ker P_sigma = range P_tau, and basis_sigma is range_basis's."""
    r = np.random.default_rng(seed)
    eigs = [Quaternion(0, 0, 1, 0), Quaternion(2, 0, 0, 0.5),
            Quaternion(-1, 0, 0, 0)]
    D = QMatrix.diag([eigs[k % 3] for k in range(n)])
    G = chi(QMatrix(r.standard_normal((n, n, 4))) * (1.0 / n)
            + QMatrix.eye(n) * 2.0)
    T = chi_inv(G @ chi(D) @ np.linalg.inv(G), tol=1e-10)
    assert op_norm(T @ T.adjoint() - T.adjoint() @ T) > 1e-3
    svd_calls = []
    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        svd_calls.append(M.shape)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    pair = riesz_decompose(T, [Sphere(0.0, 1.0)])
    assert svd_calls == [(2 * n, 2 * n)]
    B = pair.basis_tau
    assert B.cols == n - pair.basis_sigma.cols == n - len(range(0, n, 3))
    assert op_norm(B.adjoint() @ B - QMatrix.eye(B.cols)) <= 1e-12
    assert op_norm(pair.P_sigma @ B) <= 1e-12
    assert op_norm(pair.P_tau @ B - B) <= 1e-12
    assert np.array_equal(pair.basis_sigma.entries,
                          range_basis(pair.P_sigma).entries)


def test_restricted_spectra_partition(rng):
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0),
                      Quaternion(-1, 0.5, 0, 0)])
    pair = riesz_decompose(T, [Sphere(0.0, 1.0)])
    assert pair.spectrum_sigma.distance_to(Sphere(0.0, 1.0)) <= 1e-8
    assert pair.spectrum_tau.distance_to(Sphere(3.0, 0.0)) <= 1e-8
    assert pair.spectrum_tau.distance_to(Sphere(-1.0, 0.5)) <= 1e-8
    assert pair.residuals["spectrum_tau_hausdorff"] <= 1e-8


def test_hard_geometry_real_point_between_traces():
    """A real excluded sphere lying between the conjugate traces of sigma."""
    T = QMatrix.diag([Quaternion(-0.626, 0.574, 0, 0),
                      Quaternion(-0.7, 0, 0, 0)])
    pair = riesz_decompose(T, [Sphere(-0.626, 0.574)])
    assert pair.residuals["idempotent_sigma"] <= 1e-10


def _nonnormal(rng):
    """T = G D G^-1 with three separated spheres and a non-unitary G."""
    D = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(2, 0, 0, 0.5),
                      Quaternion(-1, 0, 0, 0), Quaternion(2, 0.5, 0, 0)])
    G = chi(QMatrix(rng.standard_normal((4, 4, 4))) + QMatrix.eye(4) * 3.0)
    return chi_inv(G @ chi(D) @ np.linalg.inv(G), tol=1e-10)


def _dense_quadrature(f, side, T, contour):
    """Reference loop: the scalar factors chi(q I) as dense 2n x 2n products."""
    n = T.rows
    Tc = chi(T)
    eye = np.eye(2 * n)
    acc = np.zeros((2 * n, 2 * n), dtype=complex)
    for s, w in contour.nodes():
        Dinv = np.linalg.inv(Tc @ Tc - 2.0 * s.re * Tc + s.norm_sq() * eye)
        shift = Tc - chi(QMatrix.diag([s.conjugate()] * n))
        if side == "left":
            acc -= Dinv @ shift @ chi(QMatrix.diag([w * f(s)] * n))
        else:
            acc -= chi(QMatrix.diag([f(s) * w] * n)) @ shift @ Dinv
    return chi_inv(acc, tol=1e-6)


@pytest.mark.parametrize("side", ["left", "right"])
def test_block_scaled_quadrature_matches_dense_products(rng, side):
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres[:2], spec.spheres[2:], nodes=64,
                      m=ImaginaryUnit.normalized(1.0, -2.0, 0.5))

    def f(q):
        return q * q + q * Quaternion(0.0, 0.3, -0.2, 0.7)

    got = func_calc(f, side, T, c, spec)
    ref = _dense_quadrature(f, side, T, c)
    assert op_norm(got - ref) <= 1e-12 * max(op_norm(ref), 1.0)


def test_riesz_projection_is_right_calculus_of_one(rng):
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres[:1], spec.spheres[1:],
                      m=ImaginaryUnit.normalized(0.0, 1.0, 1.0))
    P = riesz_projection(T, c, spec)
    assert op_norm(P - func_calc(lambda q: 1.0, "right", T, c, spec)) \
        <= 1e-13
    assert op_norm(P @ P - P) <= 1e-10
    assert op_norm(T @ P - P @ T) <= 1e-10 * op_norm(T)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("m", [ImaginaryUnit(-1.0, 0.0, 0.0),
                               ImaginaryUnit(0.0, 1.0, 0.0),
                               ImaginaryUnit(0.0, 0.0, 1.0),
                               ImaginaryUnit.normalized(-1.0, 1e-9, 0.0)],
                         ids=["-i", "j", "k", "near-minus-i"])
def test_quadrature_slice_rotation_edge_cases(rng, side, m):
    """Contours in any slice C_m are turned onto C_i, also near m = -i."""
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres[:2], spec.spheres[2:], nodes=32, m=m)

    def f(q):
        return q * q + q * Quaternion(0.0, 0.3, -0.2, 0.7)

    got = func_calc(f, side, T, c, spec)
    ref = _dense_quadrature(f, side, T, c)
    assert op_norm(got - ref) <= 1e-12 * max(op_norm(ref), 1.0)


# odd N puts a real node on each on-axis circle that is its own partner, and
# the off-axis circle with radius > height puts lead nodes below the axis
_ODD_CONTOUR = Contour(m=ImaginaryUnit.normalized(0.2, -1.0, 0.4),
                       circles=(Circle(0.7, 0.7),
                                Circle(-3.0, 0.25, height=1e-3),
                                Circle(1e-3, 2.0, height=5.0)),
                       nodes_per_circle=17)


@pytest.mark.parametrize("side", ["left", "right"])
def test_quadrature_matches_dense_products_on_odd_axis_crossing_contour(
        rng, side):
    # ||T - 0.7|| = 0.2 puts the spectrum inside Circle(0.7, 0.7)
    E = QMatrix(rng.standard_normal((5, 5, 4)))
    T = QMatrix.eye(5) * 0.7 + E * (0.2 / op_norm(E))

    def f(q):
        return q * q + q * Quaternion(0.0, 0.3, -0.2, 0.7)

    got = func_calc(f, side, T, _ODD_CONTOUR)
    ref = _dense_quadrature(f, side, T, _ODD_CONTOUR)
    assert op_norm(got - ref) <= 1e-12 * max(op_norm(ref), 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inverse_at_conjugate_node_is_the_block_mirror(n, re, im, seed):
    """inv(M - conj z) = [[conj U, -conj S], [-conj Q, conj P]] for
    inv(M - z) = [[P, Q], [S, U]], M = chi(T) or chi(T)^T."""
    T = QMatrix(np.random.default_rng(seed).standard_normal((n, n, 4)))
    z = complex(re, im)
    eye = np.eye(2 * n)
    for M in (chi(T), chi(T).T):
        assume(np.linalg.cond(M - z * eye) < 1e3)
        R = np.linalg.inv(M - z * eye)
        P, Q, S, U = R[:n, :n], R[:n, n:], R[n:, :n], R[n:, n:]
        mirror = np.block([[U.conj(), -S.conj()], [-Q.conj(), P.conj()]])
        ref = np.linalg.inv(M - z.conjugate() * eye)
        assert np.abs(mirror - ref).max() <= 1e-12 * np.abs(ref).max()


def test_quadrature_round_off_check_sees_independent_inverse_noise(
        rng, monkeypatch):
    """With 1e-3 relative noise on every inverse, the independent inverse at
    the sentinel's partner disagrees with the mirror of the sentinel's."""
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres[:1], spec.spheres[1:])
    riesz_projection(T, c, spec)
    inv = np.linalg.inv
    noise = np.random.default_rng(5)

    def noisy_inv(M):
        R = inv(M)
        return R + 1e-3 * np.abs(R).max() * noise.standard_normal(R.shape)

    monkeypatch.setattr(np.linalg, "inv", noisy_inv)
    with pytest.raises(ValueError, match="round-off check"):
        riesz_projection(T, c, spec)


@pytest.mark.parametrize("contour", [
    build_contour([Sphere(0.5, 0.0), Sphere(-1.0, 0.5)], [Sphere(2.0, 1.0)]),
    _ODD_CONTOUR,
], ids=["built", "hand-built-odd"])
def test_slice_nodes_pair_with_their_conjugates(contour):
    z, w, partner = contour.slice_nodes()
    N = contour.nodes_per_circle
    assert z.shape == w.shape == partner.shape
    assert z.size == N * sum(1 if c.height == 0.0 else 2
                             for c in contour.circles)
    assert np.array_equal(partner[partner], np.arange(z.size))
    assert np.all(np.abs(z[partner] - z.conj()) <= 4 * np.spacing(np.abs(z)))
    assert np.all(np.abs(w[partner] - w.conj()) <= 4 * np.spacing(np.abs(w)))
    # the trapezoid nodes themselves: c +- ih + r e^{2 pi i k/N}
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    expected = np.concatenate([
        complex(c.center, h) + c.radius * roots
        for c in contour.circles
        for h in ([0.0] if c.height == 0.0 else [c.height, -c.height])])
    assert np.abs(z - expected).max() <= 1e-15 * np.abs(expected).max()
    # nodes() yields the same points, embedded in C_m
    s, _ = zip(*contour.nodes())
    m = contour.m.to_array()
    emb = np.array([[zk.real, *(zk.imag * m[1:])] for zk in z])
    assert np.abs(np.array([q.to_array() for q in s]) - emb).max() <= 1e-15


def test_quadrature_refuses_nodes_near_the_spectrum():
    # T = diag(j, 3); a circle through (almost) the real sphere 3
    T = QMatrix.diag([Quaternion(0, 0, 1, 0), Quaternion(3, 0, 0, 0)])
    spec = spherical_spectrum(T)
    gap = 1e-10 * op_norm(T)
    c = Contour(circles=(Circle(2.0, 1.0 + gap / 2),), nodes_per_circle=16)
    with pytest.raises(SpectrumProximityError) as exc:
        riesz_projection(T, c, spec)
    assert exc.value.distance <= gap
    with pytest.raises(SpectrumProximityError):
        func_calc(lambda q: q, "left", T, c, spec)
    with pytest.raises(SpectrumProximityError):
        func_calc(lambda q: q, "right", T, c)


def test_projection_accuracy_on_fragile_nonnormal_example():
    """The n = 12 example's eigenvalues are fragile (||P|| = 7.26e3, as a
    40-digit Parlett oracle gives): per-node LU inverses keep P idempotent
    (||P^2 - P|| = 2.3e-8), a once-per-call unitary similarity of chi(T)
    does not."""
    T = paper_example("nonnormal", 12).T
    spheres = sorted(spherical_spectrum(T).spheres)
    c = build_contour(spheres[:1], spheres[1:])
    P = riesz_projection(T, c)
    assert op_norm(P @ P - P) <= 1e-6


def test_quadrature_starts_no_thread(rng, monkeypatch):
    """One serial loop: BLAS threads are the only parallelism."""
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres[:1], spec.spheres[1:])

    def refuse(self):
        raise AssertionError("the quadrature started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    riesz_projection(T, c, spec)
    func_calc(lambda q: q * q, "left", T, build_contour(spec.spheres), spec)


def test_riesz_projection_runs_in_a_forked_child(rng):
    """The quadrature holds no state that a fork breaks: a child gives the
    parent's bits."""
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres[:1], spec.spheres[1:])
    P = riesz_projection(T, c, spec)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(
        target=lambda: out.put(riesz_projection(T, c, spec).entries))
    child.start()
    try:
        got = out.get(timeout=30)
    except queue.Empty:
        pytest.fail("riesz_projection did not finish in a forked child")
    finally:
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(got, P.entries)


def _jordan(n):
    """The real n x n Jordan block at 0.5: one sphere, a pole of order n."""
    return QMatrix.from_complex(0.5 * np.eye(n) + np.eye(n, k=1))


def test_quadrature_logs_its_sentinel_defect(rng, caplog):
    T = _nonnormal(rng)
    spec = spherical_spectrum(T)
    with caplog.at_level(logging.DEBUG, logger="quatcalc"):
        c = build_contour(spec.spheres[:1], spec.spheres[1:], nodes=64)
        riesz_projection(T, c, spec)
    built, rec = [r for r in caplog.records if r.name == "quatcalc"]
    assert built.levelno == rec.levelno == logging.DEBUG
    assert built.args[0] == len(c.circles)
    assert built.args[1] >= (1 - 1e-12) / 0.45
    assert built.args[2] == c.nodes_per_circle == 64
    z, _, partner = c.slice_nodes()
    lead = int(np.count_nonzero(np.arange(z.size) <= partner))
    assert rec.args[:2] == (z.size, lead)
    assert 0.0 <= rec.args[2] <= 1e-12
    assert rec.args[3:] == (64, "as built")
    # a pole of order 24 at the center of a 16-node circle raises the count
    T = _jordan(24)
    spec = spherical_spectrum(T)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="quatcalc"):
        c = build_contour(spec.spheres)
        riesz_projection(T, c, spec)
    built, rec = [r for r in caplog.records if r.name == "quatcalc"]
    assert built.args == (1, float("inf"), 16)
    assert rec.args[0] == 32
    assert rec.args[3:] == (32, "raised from 16: pole order up to 24")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [17, 24])
def test_func_calc_on_a_jordan_block_does_not_alias(n, side):
    """The N-point rule on a circle centered at a pole of order n integrates
    the resolvent exactly only for N >= n: 16 nodes alias (error 5.2 at
    n = 24), so the quadrature raises the count to the enclosed
    multiplicity.  The left calculus, the right one on T*, keeps the floor
    through T*'s spectrum."""
    T = _jordan(n)
    spec = spherical_spectrum(T)
    assert spec.multiplicities == (n,)
    c = build_contour(spec.spheres)
    assert c.nodes_per_circle == 16
    F = func_calc(lambda q: q * q, side, T, c, spec)
    assert op_norm(F - T @ T) <= 1e-12 * op_norm(T @ T)


_SPHERE_SETS = {
    2: ((2.0, 1.0), (8.0, 1.0)),
    3: ((-1.0, 0.5), (0.5, 0.0), (1.2, 0.4)),
    8: tuple((-1.5 + 0.42 * k, 0.0 if k % 2 == 0 else 0.3)
             for k in range(8)),
}


def _similar_factors(count):
    """G (as chi(G)), D and the sphere labels of D's rows for ``_similar``."""
    n = 16
    rng = np.random.default_rng(count)
    spheres = _SPHERE_SETS[count]
    labels = np.arange(n) % count
    D = np.zeros((n, n, 4))
    for r, k in enumerate(labels):
        m = rng.standard_normal(3)
        D[r, r, 0] = spheres[k][0]
        D[r, r, 1:] = spheres[k][1] * m / np.linalg.norm(m)
    G = chi(QMatrix.eye(n) + QMatrix(rng.standard_normal((n, n, 4)))
            * (0.3 / np.sqrt(n)))
    return G, QMatrix(D), labels


def _similar(count):
    """T = G D G^-1 with D diagonal on ``count`` spheres, and the projection
    G E G^-1 onto the first sphere, E selecting its rows of D."""
    spheres = _SPHERE_SETS[count]
    G, D, labels = _similar_factors(count)
    G_inv = np.linalg.inv(G)
    T = chi_inv(G @ chi(D) @ G_inv, tol=1e-10)
    E = np.diag(np.tile(labels == 0, 2).astype(float))
    P_ref = chi_inv(G @ E @ G_inv, tol=1e-10)
    spec = spherical_spectrum(T)
    sig = [s for s in spec.spheres if s.distance(Sphere(*spheres[0])) < 1e-8]
    tau = [s for s in spec.spheres if s not in sig]
    assert len(sig) == 1 and len(tau) == count - 1
    return T, P_ref, spec, sig, tau


@pytest.mark.parametrize("count", [3, 8])
def test_node_count_rule_against_similarity_oracle(count):
    """The rho rule's 48 nodes are as accurate as 256."""
    T, P_ref, spec, sig, tau = _similar(count)

    def error(contour):
        P = riesz_projection(T, contour, spec)
        return op_norm(P - P_ref) / op_norm(P_ref)

    default = build_contour(sig, tau)
    assert default.nodes_per_circle == 48
    assert build_contour(sig, tau, nodes=128).nodes_per_circle == 128
    assert error(default) <= 4 * error(build_contour(sig, tau, nodes=256))


def test_riesz_decompose_runs_one_quadrature(monkeypatch):
    """P_sigma is the only integral; P_tau is I - P_sigma exactly."""
    T, _, _, sig, _ = _similar(3)
    calls = []
    quadrature = scalculus._quadrature

    def counted(*args, **kwargs):
        calls.append(args[1])
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(scalculus, "_quadrature", counted)
    pair = riesz_decompose(T, sig)
    assert len(calls) == 1 and calls[0] is T  # the right calculus on T
    assert np.array_equal((QMatrix.eye(T.rows) - pair.P_sigma).entries,
                          pair.P_tau.entries)
    assert set(pair.residuals) == {
        "idempotent_sigma", "self_adjoint_sigma", "commute_sigma",
        "spectrum_sigma_hausdorff", "spectrum_tau_hausdorff"}


@pytest.mark.parametrize("count", [3, 8])
def test_idempotent_residual_tracks_the_quadrature_error(count, monkeypatch):
    """P = f_N(T) for the rule's approximation f_N of the indicator of
    sigma, so ||P^2 - P|| = ||(f_N^2 - f_N)(T)|| measures the rule's error:
    on 24 nodes per circle (error ~5e-9) it is within 4x of the G E G^-1
    error."""
    T, P_ref, _, sig, _ = _similar(count)
    build = scalculus.build_contour
    monkeypatch.setattr(scalculus, "build_contour", lambda s, o: replace(
        build(s, o), nodes_per_circle=24))
    pair = riesz_decompose(T, sig)
    err = op_norm(pair.P_sigma - P_ref) / op_norm(P_ref)
    assert 1e-10 <= err <= 1e-7
    assert err / 4 <= pair.residuals["idempotent_sigma"] <= 4 * err


def test_idempotent_residual_sees_an_aliased_jordan_pole():
    """With the pole-order floor bypassed (multiplicity 1 stated for a pole
    of order 24), 16 nodes on a circle of radius 1.35 about the pole alias
    its (s - 0.5)^-17 term: P - I = N^16 / 1.35^16, and since (N^16)^2 = 0,
    P^2 - P is the same matrix."""
    T = _jordan(24)
    c = Contour(circles=(Circle(0.5, 1.35),))
    P = riesz_projection(T, c, SphericalSpectrum((Sphere(0.5, 0.0),), (1,)))
    err = op_norm(P - QMatrix.eye(24))
    assert err == pytest.approx(1.35 ** -16, rel=1e-9)  # 8.22e-3
    assert op_norm(P @ P - P) == pytest.approx(err, rel=1e-9)


# ---------------------------------------------------------------------------
# the whole spectrum: one enclosing circle when nothing is excluded
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spheres,nodes", [
    (_SPHERE_SETS[3], 64), (_SPHERE_SETS[8], 64),
    (((-2.0, 0.0), (3.0, 0.0)), 64), (((0.5, 0.25),), 32),
], ids=["3", "8", "two-real", "lone-nonreal"])
def test_contour_without_other_is_one_enclosing_circle(spheres, nodes):
    """Center mid-way along the real range, radius twice the farthest trace
    (rho = 2, 64 nodes whatever the number of spheres) but at least 0.9."""
    sigma = [Sphere(*s) for s in spheres]
    c = build_contour(sigma)
    center = 0.5 * (min(s.re for s in sigma) + max(s.re for s in sigma))
    d0 = max(np.hypot(s.re - center, s.rad) for s in sigma)
    assert c.circles == (Circle(center, max(2.0 * d0, 0.9)),)
    assert c.nodes_per_circle == nodes
    for s in sigma:
        assert c.circles[0].contains(s.re, s.rad)
        assert c.circles[0].contains(s.re, -s.rad)


@pytest.mark.parametrize("sigma", [
    [Sphere(0.5, 0.0)], [Sphere(0.5, 0.0), Sphere(0.5 + 1e-9, 1e-9)],
], ids=["exact", "jittered"])
def test_lone_real_sphere_keeps_its_16_node_circle(sigma):
    (circle,) = build_contour(sigma).circles
    assert circle.center == pytest.approx(0.5, abs=1e-9)
    assert (circle.radius, circle.height) == (0.9, 0.0)
    assert build_contour(sigma).nodes_per_circle == 16


@pytest.mark.parametrize("n", [12, 48, 96])
@pytest.mark.parametrize("which", ["normal", "nonnormal"])
def test_func_calc_square_on_the_paper_operators(which, n):
    """Per-sphere circles about the nonnormal example's spheres sit inside
    its pseudospectrum, where the rule's sum is off by a relative 5e26 at
    n = 48 and nothing raises; the one enclosing circle keeps clear of it."""
    T = paper_example(which, n).T
    spec = spherical_spectrum(T)
    F = func_calc(lambda q: q * q, "right", T, build_contour(spec.spheres),
                  spec)
    TT = T @ T
    assert op_norm(F - TT) <= 1e-13 * op_norm(TT)


def _qexp(q):
    """e^q = e^a (cos|v| + v sin|v| / |v|) for q = a + v."""
    r = q.im_norm()
    return np.exp(q.re) * (Quaternion(np.cos(r)) + q.im() * np.sinc(r / np.pi))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("count", [3, 8])
def test_func_calc_exp_against_similarity_oracle(count, side):
    """exp(G D G^-1) = G exp(D) G^-1 on a non-normal T, over one circle."""
    G, D, _ = _similar_factors(count)
    G_inv = np.linalg.inv(G)
    T = chi_inv(G @ chi(D) @ G_inv, tol=1e-10)
    expD = QMatrix.diag([_qexp(Quaternion.from_array(D.entries[r, r]))
                         for r in range(D.rows)])
    ref = chi_inv(G @ chi(expD) @ G_inv, tol=1e-10)
    spec = spherical_spectrum(T)
    F = func_calc(_qexp, side, T, build_contour(spec.spheres), spec)
    assert op_norm(F - ref) <= 1e-13 * op_norm(ref)


def _qlog(q):
    """Principal log: ln|q| + (v/|v|) atan2(|v|, a) for q = a + v, and
    ln|a| + pi i on the negative real axis (its value from the upper half
    of C_i)."""
    r = q.im_norm()
    if r == 0.0:
        return Quaternion(np.log(abs(q.re)), np.pi if q.re < 0.0 else 0.0)
    return Quaternion(np.log(abs(q))) + q.im() * (np.arctan2(r, q.re) / r)


def test_func_calc_falls_back_when_exp_is_unresolved_on_the_circle():
    """On spheres from -20 to 20 the one circle has radius 40, where 64 nodes
    leave e^q's degree-64 term 40^64/64! (relative error ~1e5): f's top
    Fourier coefficients refuse it, and the spheres' own circles of radius
    2.25 give e^T."""
    xs = range(-20, 21, 5)
    T = QMatrix.diag([Quaternion(float(x)) for x in xs])
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres)
    assert c.circles == (Circle(0.0, 40.0),)
    with pytest.raises(scalculus.RegularityError):
        scalculus._quadrature(_qexp, T, c, spec)
    ref = QMatrix.diag([Quaternion(float(np.exp(x))) for x in xs])
    for side in ("left", "right"):
        F = func_calc(_qexp, side, T, c, spec)
        assert op_norm(F - ref) <= 1e-13 * op_norm(ref)


@pytest.mark.parametrize("side", ["left", "right"])
def test_func_calc_falls_back_when_the_disc_crosses_a_branch_cut(side):
    """Spheres at re 2 and 8 put the one circle over [-1.3, 11.3], across
    log's cut at the negative reals; the spheres' own circles keep clear of
    it.  Oracle log(G D G^-1) = G log(D) G^-1."""
    G, D, _ = _similar_factors(2)
    G_inv = np.linalg.inv(G)
    T = chi_inv(G @ chi(D) @ G_inv, tol=1e-10)
    logD = QMatrix.diag([_qlog(Quaternion.from_array(D.entries[r, r]))
                         for r in range(D.rows)])
    ref = chi_inv(G @ chi(logD) @ G_inv, tol=1e-10)
    spec = spherical_spectrum(T)
    c = build_contour(spec.spheres)
    assert c.circles[0].center - c.circles[0].radius < 0.0
    F = func_calc(_qlog, side, T, c, spec)
    assert op_norm(F - ref) <= 1e-13 * op_norm(ref)


def test_func_calc_singular_f_names_its_poles_in_other():
    """q^-1 is singular at 0, inside the one enclosing circle, and 0.14 from
    the circle the sphere at 0.5 gets on its own, where 48 nodes resolve
    q^-1 only to 0.73^48 ~ 2e-7: both are refused.  Naming 0 in ``other``
    shrinks that circle to 0.225 and gives T^-1."""
    T, _, spec, _, _ = _similar(3)
    T_inv = chi_inv(np.linalg.inv(chi(T)), tol=1e-10)

    def inverse(q):
        return q.inverse()

    F = func_calc(inverse, "right", T,
                  build_contour(spec.spheres, [Sphere(0.0, 0.0)]), spec)
    assert op_norm(F - T_inv) <= 1e-13 * op_norm(T_inv)
    with pytest.raises(scalculus.RegularityError):
        func_calc(inverse, "right", T, build_contour(spec.spheres), spec)
    # a split contour has no fallback: its refusal is the caller's
    sig = [s for s in spec.spheres if abs(s.re - 0.5) < 1e-8]
    tau = [s for s in spec.spheres if s not in sig]
    with pytest.raises(scalculus.RegularityError):
        func_calc(inverse, "left", T, build_contour(sig, tau), spec)
