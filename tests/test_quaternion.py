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
    assert (i * i).is_close(minus_one)
    assert (j * j).is_close(minus_one)
    assert (k * k).is_close(minus_one)
    assert (i * j * k).is_close(minus_one)
    assert (i * j).is_close(k)
    assert (j * i).is_close(-k)


@given(quat, quat)
def test_norm_multiplicative(p, q):
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-12, abs=1e-12)


@given(quat, quat)
def test_conjugate_antihomomorphism(p, q):
    assert (p * q).conjugate().is_close(q.conjugate() * p.conjugate(),
                                        tol=1e-9)


@given(quat)
def test_inverse(q):
    if abs(q) < 1e-6:
        return
    one = Quaternion(1, 0, 0, 0)
    assert (q * q.inverse()).is_close(one, tol=1e-9)
    assert (q.inverse() * q).is_close(one, tol=1e-9)


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


def test_imaginary_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(1.0, 1.0, 0.0)
    m = ImaginaryUnit.normalized(1.0, 1.0, 0.0)
    assert math.hypot(m.x, m.y) == pytest.approx(1.0)
    assert (m.to_quaternion() * m.to_quaternion()).is_close(
        Quaternion(-1, 0, 0, 0))


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
