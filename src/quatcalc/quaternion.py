"""Quaternion scalars, imaginary units, slices and similarity spheres.

A quaternion q = w + x*i + y*j + z*k is stored as four float64 components.
The similarity class [q] of a quaternion is the 2-sphere of all quaternions
sharing its real part and imaginary modulus; it is stored as a ``Sphere``
with coordinates (re, rad) in the closed upper half plane.

Vectorized helpers operate on numpy arrays whose trailing axis has length 4;
they are the computational workhorse shared with the matrix layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "ImaginaryUnit",
    "Sphere",
    "qmul",
    "qconj",
    "sphere_of",
    "circularize",
    "cluster_spheres",
    "slice_embed",
    "UNIT_I",
    "UNIT_J",
    "UNIT_K",
]


# ---------------------------------------------------------------------------
# array-level quaternion algebra (trailing axis = [w, x, y, z])
# ---------------------------------------------------------------------------

def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=float)
    out[..., 0] = pw * qw - px * qx - py * qy - pz * qz
    out[..., 1] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 2] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 3] = pw * qz + px * qy - py * qx + pz * qw
    return out


def qconj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


# ---------------------------------------------------------------------------
# scalar types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def from_array(a) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @staticmethod
    def from_complex(c: complex) -> "Quaternion":
        """Embed a complex number into the slice C_i."""
        return Quaternion(float(c.real), float(c.imag), 0.0, 0.0)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other) -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __radd__(self, other) -> "Quaternion":
        return _coerce(other) + self

    def __sub__(self, other) -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other) -> "Quaternion":
        return _coerce(other) - self

    def __mul__(self, other) -> "Quaternion":
        other = _coerce(other)
        return Quaternion.from_array(qmul(self.to_array(), other.to_array()))

    def __rmul__(self, other) -> "Quaternion":
        return _coerce(other) * self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("quaternion inverse of zero")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    # -- structure ---------------------------------------------------------

    @property
    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_close(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return abs(self - other) <= tol

    def to_json(self) -> list:
        return [self.w, self.x, self.y, self.z]


def _coerce(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, ImaginaryUnit):
        return v.to_quaternion()
    if isinstance(v, complex):
        return Quaternion.from_complex(v)
    if isinstance(v, (int, float, np.floating, np.integer)):
        return Quaternion(float(v))
    raise TypeError(f"cannot interpret {type(v)!r} as a quaternion")


@dataclass(frozen=True)
class ImaginaryUnit:
    """A point m of the unit 2-sphere of imaginary units, m^2 = -1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"imaginary unit must have unit length, got {n}")

    @staticmethod
    def normalized(x: float, y: float, z: float) -> "ImaginaryUnit":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("zero vector cannot define an imaginary unit")
        return ImaginaryUnit(x / n, y / n, z / n)

    def to_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def to_array(self) -> np.ndarray:
        return np.array([0.0, self.x, self.y, self.z], dtype=float)


UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_J = ImaginaryUnit(0.0, 1.0, 0.0)
UNIT_K = ImaginaryUnit(0.0, 0.0, 1.0)


@dataclass(frozen=True, order=True)
class Sphere:
    """Similarity class [q]: all quaternions with the given (re, rad)."""

    re: float
    rad: float

    def __post_init__(self):
        if self.rad < 0.0:
            raise ValueError("sphere radius must be nonnegative")

    def distance(self, other: "Sphere") -> float:
        """Euclidean distance in the (re, rad) half plane."""
        return math.hypot(self.re - other.re, self.rad - other.rad)

    def to_json(self) -> dict:
        return {"re": self.re, "rad": self.rad}


def sphere_of(q: Quaternion) -> Sphere:
    """The class [q] = (re q, |im q|)."""
    return Sphere(q.re, q.im_norm())


def slice_embed(s: Sphere, m: ImaginaryUnit = UNIT_I, sign: int = 1) -> Quaternion:
    """Representative re + m * (sign * rad) of the sphere in the slice C_m."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r = sign * s.rad
    return Quaternion(s.re, m.x * r, m.y * r, m.z * r)


def cluster_spheres(spheres, tol: float) -> list[list[Sphere]]:
    """Single-linkage grouping of spheres in the (re, rad) half plane.

    Spheres are visited in sorted order, so the grouping is deterministic.
    """
    groups: list[list[Sphere]] = []
    for s in sorted(spheres):
        for g in groups:
            if any(s.distance(t) <= tol for t in g):
                g.append(s)
                break
        else:
            groups.append([s])
    return groups


# complex entries per block of circularize's conjugation-distance table
_CIRCULARIZE_BLOCK = 1 << 18


def circularize(points, tol: float = 1e-9) -> frozenset:
    """Spheres swept by a conjugation-symmetric set of complex points.

    Raises ValueError if the input is not closed under complex conjugation
    within ``tol``.  Points are visited in (re, |im|) order and a point
    opens a new sphere unless it lies within ``tol`` of a kept one.
    """
    pts = np.fromiter(points, dtype=complex)
    # conjugation check, a block of rows of the distance table at a time
    off = np.flatnonzero(np.abs(pts.imag) > tol)
    rows = max(1, _CIRCULARIZE_BLOCK // max(pts.size, 1))
    for lo in range(0, off.size, rows):
        idx = off[lo:lo + rows]
        gap = np.abs(pts[idx, None].conj() - pts[None, :]).min(axis=1)
        bad = np.flatnonzero(gap > tol)
        if bad.size:
            raise ValueError("set is not conjugation symmetric: missing "
                             f"conjugate of {complex(pts[idx[bad[0]]])}")
    re, rad = pts.real, np.abs(pts.imag)
    order = np.lexsort((rad, re))
    spheres: list[Sphere] = []
    kept_re = np.empty(pts.size)  # nondecreasing: points arrive sorted by re
    for r, m in zip(re[order].tolist(), rad[order].tolist()):
        cand = Sphere(r, m)
        # a kept sphere within tol has re >= r - tol; the window is taken at
        # 2 tol so that rounding in r - tol cannot leave such a sphere out
        lo = int(np.searchsorted(kept_re[:len(spheres)], r - 2.0 * tol))
        if all(cand.distance(s) > tol for s in reversed(spheres[lo:])):
            kept_re[len(spheres)] = r
            spheres.append(cand)
    return frozenset(spheres)
