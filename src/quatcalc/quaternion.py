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
        n = math.hypot(x, y, z)  # no underflow of the squares
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


def slice_embed(s: Sphere, m: ImaginaryUnit = UNIT_I) -> Quaternion:
    """Representative re + rad m of the sphere in the slice C_m."""
    return Quaternion(s.re, m.x * s.rad, m.y * s.rad, m.z * s.rad)


def _slice_rotor(m: ImaginaryUnit) -> np.ndarray:
    """Unit quaternion u (as a 4-array) with u i conj(u) = m.

    q -> conj(u) q u turns C_m onto C_i.  u ~ (1 + m_x, i x m) turns i onto
    m along a great circle, but loses all accuracy as m -> -i; for m_x < 0
    take the rotor onto -m and compose it with j, which turns i onto -i.
    """
    if m.x >= 0.0:
        u = np.array([1.0 + m.x, 0.0, -m.z, m.y])
    else:
        u = np.array([-m.z, m.y, 1.0 - m.x, 0.0])
    return u / np.linalg.norm(u)


# complex entries per block of circularize's point-to-sphere distance table
_CIRCULARIZE_BLOCK = 1 << 18


def circularize(points, tol: float = 1e-9) -> tuple[list[Sphere], np.ndarray]:
    """Spheres swept by complex points, and the sphere of each point.

    A point z and its conjugate sweep the same sphere (re z, |im z|).
    Points are visited in (re, |im|) order and a point opens a new sphere
    unless it lies within ``tol`` of a kept one, so the spheres come back
    sorted.  ``labels[k]`` is the index of the sphere nearest point k.
    """
    pts = np.fromiter(points, dtype=complex)
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
    if not spheres:
        return spheres, np.zeros(0, dtype=np.intp)
    centers = np.array([complex(s.re, s.rad) for s in spheres])
    folded = re + 1j * rad
    rows = max(1, _CIRCULARIZE_BLOCK // centers.size)
    labels = np.concatenate([
        np.abs(folded[lo:lo + rows, None] - centers).argmin(axis=1)
        for lo in range(0, pts.size, rows)])
    return spheres, labels
