import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quatcalc.quaternion import (
    ImaginaryUnit,
    Quaternion,
    Sphere,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    circularize,
    qconj,
    qmul,
    slice_embed,
    sphere_of,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quat = st.builds(Quaternion, finite, finite, finite, finite)


def test_hamilton_relations():
    i, j, k = (u.to_quaternion() for u in (UNIT_I, UNIT_J, UNIT_K))
    minus_one = Quaternion(-1, 0, 0, 0)
    for got, want in [(i * i, minus_one), (j * j, minus_one),
                      (k * k, minus_one), (i * j * k, minus_one),
                      (i * j, k), (j * i, -k)]:
        assert np.allclose(got.to_array(), want.to_array(), rtol=0,
                           atol=1e-12)


@given(quat, quat)
def test_norm_multiplicative(p, q):
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-12, abs=1e-12)


@given(quat, quat)
def test_conjugate_antihomomorphism(p, q):
    assert np.allclose((p * q).conjugate().to_array(),
                       (q.conjugate() * p.conjugate()).to_array(),
                       rtol=0, atol=1e-9)


@given(quat)
def test_inverse(q):
    if abs(q) < 1e-6:
        return
    one = Quaternion(1, 0, 0, 0)
    assert np.allclose((q * q.inverse()).to_array(), one.to_array(),
                       rtol=0, atol=1e-9)
    assert np.allclose((q.inverse() * q).to_array(), one.to_array(),
                       rtol=0, atol=1e-9)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0, 0, 0, 0).inverse()


@given(quat)
def test_sphere_of_is_similarity_invariant(q):
    # u q u^-1 stays on the same sphere for any unit u
    u = Quaternion(1, 2, -1, 0.5)
    u = u * Quaternion(1.0 / abs(u), 0, 0, 0)
    s1 = sphere_of(q)
    s2 = sphere_of(u * q * u.inverse())
    assert s1.distance(s2) <= 1e-9 * (1.0 + abs(q))


def test_slice_embed_round_trip():
    s = Sphere(1.5, 2.0)
    q = slice_embed(s, UNIT_J)
    assert sphere_of(q).distance(s) <= 1e-12
    assert q.w == pytest.approx(1.5)


def test_circularize_groups_conjugates():
    pts = [complex(1, 2), complex(3, 0), complex(1, -2)]
    spheres, labels = circularize(pts)
    assert spheres == [Sphere(1, 2), Sphere(3, 0)]
    assert labels.tolist() == [0, 1, 0]


def test_circularize_of_no_points():
    spheres, labels = circularize([])
    assert spheres == []
    assert labels.shape == (0,)


def test_circularize_labels_chain_to_nearest_leader():
    # 0.9 joins the sphere at 0; 1.8 is more than tol from that leader and
    # opens its own, although it lies within tol of 0.9
    spheres, labels = circularize([1.8, 0.0, 0.9], tol=1.0)
    assert spheres == [Sphere(0.0, 0.0), Sphere(1.8, 0.0)]
    assert labels[1] == 0 and labels[0] == 1


def _circularize_scan(points, tol):
    """Reference: the leader rule as an O(n^2) pairwise scan."""
    spheres: list[Sphere] = []
    for p in sorted(points, key=lambda c: (c.real, abs(c.imag))):
        cand = Sphere(p.real, abs(p.imag))
        if all(cand.distance(s) > tol for s in spheres):
            spheres.append(cand)
    return spheres


def _nearest(p, spheres):
    """Index of the sphere nearest the point p, the first one on a tie."""
    z = complex(p.real, abs(p.imag))
    d = [abs(z - complex(s.re, s.rad)) for s in spheres]
    return d.index(min(d))


# base points on a coarse grid (so exact ties in re occur), on both sides of
# the real axis, each repeated with offsets of 0 to 2 tol: near-duplicates on
# both sides of the merge radius
_base = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_offset = st.tuples(st.floats(-2, 2), st.floats(-2, 2))


@settings(max_examples=150, deadline=None)
@example(base=[(0, 0), (0, 1), (0, 1)], offsets=[[(0.0, 0.0)], [(0.5, 0.0)], [(1.0, 0.0)]],
         log_tol=-12.0)
@given(base=st.lists(_base, min_size=0, max_size=12),
       offsets=st.lists(st.lists(_offset, max_size=4), min_size=12, max_size=12),
       log_tol=st.floats(-12, -1))
def test_circularize_matches_pairwise_scan(base, offsets, log_tol):
    tol = 10.0 ** log_tol
    pts = []
    for (a, b), offs in zip(base, offsets):
        for d in [(0.0, 0.0)] + offs:
            pts.append(complex(0.5 * a + d[0] * tol, 0.25 * b + d[1] * tol))
    sym = pts + [p.conjugate() for p in pts]
    # without their conjugates the points give the spheres of the
    # symmetrized set
    spheres, labels = circularize(np.array(pts), tol=tol)
    assert spheres == _circularize_scan(sym, tol)
    assert labels.tolist() == [_nearest(p, spheres) for p in pts]
    # z and its conjugate get the same label
    sym_spheres, sym_labels = circularize(sym, tol=tol)
    assert sym_spheres == spheres
    assert sym_labels.tolist() == 2 * labels.tolist()


def _circularize_window_scan(points, tol):
    """Reference: ``circularize`` before it skipped repeated points and
    filtered wide re-windows by rad; every kept sphere in the re-window of a
    point is measured."""
    pts = np.fromiter(points, dtype=complex)
    re, rad = pts.real, np.abs(pts.imag)
    order = np.lexsort((rad, re))
    spheres: list[Sphere] = []
    kept_re = np.empty(pts.size)
    for r, m in zip(re[order].tolist(), rad[order].tolist()):
        cand = Sphere(r, m)
        lo = int(np.searchsorted(kept_re[:len(spheres)], r - 2.0 * tol))
        if all(cand.distance(s) > tol for s in reversed(spheres[lo:])):
            kept_re[len(spheres)] = r
            spheres.append(cand)
    if not spheres:
        return spheres, np.zeros(0, dtype=np.intp)
    centers = np.array([complex(s.re, s.rad) for s in spheres])
    labels = np.abs((re + 1j * rad)[:, None] - centers).argmin(axis=1)
    return spheres, labels


def _many_spheres_at_one_re(n=384):
    """The nonnormal paper example's eigenvalues: x 1[x <= 1/3] + i x/(4n)
    and conjugates, so 2n/3 spheres share re = 0."""
    x = (np.arange(n) + 0.5) / n
    d = np.where(x <= 1.0 / 3.0, x, 0.0) + 1j * x / (4.0 * n)
    return np.concatenate([d, d.conj()])


def _jittered_clusters(rng):
    """A chi spectrum like a riesz split's: 96 points on 3 spheres, 16
    eigenvalues and their 16 conjugates each, jittered by about 1e-15."""
    c = np.repeat([-1 + 0.5j, 0.25 + 2j, 3 + 0j], 16)
    z = np.concatenate([c, c.conj()])
    return z + 1e-15 * (rng.standard_normal(96) + 1j * rng.standard_normal(96))


def _circularize_cases():
    rng = np.random.default_rng(12)
    z = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    grid = (np.round(rng.standard_normal(200), 1)
            + 1j * np.round(rng.standard_normal(200), 1))
    return {
        "random": (z, 1e-9),
        "random, wide tol": (z, 0.3),
        "exact duplicates": (np.repeat(z[:20], 3), 1e-9),
        "conjugate pairs": (np.concatenate([z, z.conj()]), 1e-9),
        "near conjugate pairs": (np.concatenate([z, z.conj() + 1e-12]), 1e-9),
        "grid": (grid, 0.15),
        "many spheres at one re": (_many_spheres_at_one_re(), 1e-9),
        "many spheres at one re, wide tol": (_many_spheres_at_one_re(),
                                             1e-4),
        # every other rung lies 0.7 tol above a kept sphere: merged
        "rad ladder at one re": (0.7e-3j * np.arange(100), 1e-3),
        "many spheres at one re, n = 1024": (_many_spheres_at_one_re(1024),
                                             1e-9),
        # tight clusters, each within 2 tol, among well separated points
        "clusters among isolated points": (np.concatenate(
            [10.0 * z, np.repeat(z[:8], 5) + 1e-9 * (
                rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40))]), 1e-9),
        # rungs exactly tol apart (a power of two: exact), in re and in rad:
        # a pair at exactly tol is merged
        "ladder spaced at exactly tol": (np.concatenate(
            [0.25 * np.arange(12), 5.0 + 0.25j * np.arange(12)]), 0.25),
        "three jittered clusters": (_jittered_clusters(rng), 1e-9),
        # runs of distinct re, 0.75 tol apart, with rad 1 apart: each
        # point opens its own sphere
        "runs within 2 tol, rad far apart": (
            0.75e-9 * np.arange(10) + 1j * np.arange(10), 1e-9),
    }


@pytest.mark.parametrize("case", list(_circularize_cases()))
def test_circularize_matches_the_window_scan(case):
    points, tol = _circularize_cases()[case]
    spheres, labels = circularize(points, tol)
    ref_spheres, ref_labels = _circularize_window_scan(points, tol)
    assert [(s.re, s.rad) for s in spheres] == \
        [(s.re, s.rad) for s in ref_spheres]
    assert labels.tolist() == ref_labels.tolist()


@pytest.mark.parametrize("tol", [-1e-9, float("nan")])
def test_circularize_refuses_a_negative_or_nan_tol(tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        circularize([0.0, 1.0], tol)


@pytest.mark.parametrize("bad", [complex(1, math.nan), complex(math.inf, 0),
                                 complex(0, -math.inf), complex(math.nan, 0)])
def test_circularize_refuses_a_non_finite_point(bad):
    with pytest.raises(ValueError, match="points must be finite"):
        circularize([1.0, bad, 2j], 1e-9)


def test_circularize_measures_no_distance_on_a_separated_spectrum(
        monkeypatch):
    """No two points within tol: every point opens its own sphere, and
    no point is measured against a sphere one by one."""
    def refuse(self, other):
        raise AssertionError("Sphere.distance called")

    monkeypatch.setattr(Sphere, "distance", refuse)
    spheres, labels = circularize(_many_spheres_at_one_re(1024), 1e-9)
    assert len(spheres) == 1024
    assert sorted(set(labels.tolist())) == list(range(1024))


def test_circularize_of_a_separated_spectrum_holds_no_sphere_table(
        traced_peak):
    """A point that opens its sphere takes its label from the sort, so a
    separated spectrum holds only arrays of its 2048 points, where a table
    of points against spheres took 6.3 MiB in 4 MiB blocks."""
    points = _many_spheres_at_one_re(1024)
    assert traced_peak(lambda: circularize(points, 1e-9)) < 1 << 20


def test_imaginary_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(1.0, 1.0, 0.0)
    m = ImaginaryUnit.normalized(1.0, 1.0, 0.0)
    assert math.hypot(m.x, m.y) == pytest.approx(1.0)
    assert np.allclose((m.to_quaternion() * m.to_quaternion()).to_array(),
                       [-1, 0, 0, 0], rtol=0, atol=1e-12)


def test_array_helpers_match_scalar_product():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((7, 4))
    q = rng.standard_normal((7, 4))
    prod = qmul(p, q)
    for r in range(7):
        expected = Quaternion.from_array(p[r]) * Quaternion.from_array(q[r])
        assert np.allclose(prod[r], expected.to_array())
    assert np.allclose(qconj(p)[:, 0], p[:, 0])
    assert np.allclose(qconj(p)[:, 1:], -p[:, 1:])
