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
    pts = [complex(1, 2), complex(1, -2), complex(3, 0)]
    spheres = circularize(pts)
    assert spheres == frozenset({Sphere(1, 2), Sphere(3, 0)})


def test_circularize_rejects_asymmetric_sets():
    with pytest.raises(ValueError):
        circularize([complex(1, 2), complex(3, 0)])


def _circularize_scan(points, tol):
    """Reference: the O(n^2) pairwise scan that circularize replaced."""
    pts = [complex(p) for p in points]
    for p in pts:
        if abs(p.imag) <= tol:
            continue
        if min(abs(p.conjugate() - q) for q in pts) > tol:
            raise ValueError(
                f"set is not conjugation symmetric: missing conjugate of {p}")
    spheres: list[Sphere] = []
    for p in sorted(pts, key=lambda c: (c.real, abs(c.imag))):
        cand = Sphere(p.real, abs(p.imag))
        if all(cand.distance(s) > tol for s in spheres):
            spheres.append(cand)
    return frozenset(spheres)


def _sorted_spheres(spheres):
    return sorted((s.re, s.rad) for s in spheres)


# base points on a coarse grid (so exact ties in re occur), each repeated with
# offsets of 0 to 2 tol: near-duplicates on both sides of the merge radius
_base = st.tuples(st.integers(-3, 3), st.integers(0, 3))
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
            p = complex(0.5 * a + d[0] * tol, 0.25 * b + d[1] * tol)
            pts += [p, p.conjugate()]
    ref = _circularize_scan(pts, tol)
    got = circularize(np.array(pts), tol=tol)
    assert got == ref
    assert _sorted_spheres(got) == _sorted_spheres(ref)
    # one point whose conjugate is missing: both raise with the same message
    lone = complex(9.0, 1.0)
    with pytest.raises(ValueError) as want:
        _circularize_scan(pts + [lone], tol)
    with pytest.raises(ValueError) as err:
        circularize(pts + [lone], tol=tol)
    assert str(err.value) == str(want.value)


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
