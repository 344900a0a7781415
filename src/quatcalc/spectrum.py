"""Spherical spectrum and the S-resolvent operators.

Both S-resolvents come from one LU inverse of chi(T') - z (``s_resolvent``),
so they are conditioned as chi(T') - z, not as its square chi(Delta_s).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .quaternion import (UNIT_I, ImaginaryUnit, Quaternion, Sphere,
                         _slice_rotor, circularize, qconj, qmul, slice_embed)
from .qmatrix import (QMatrix, _mirror_defect, _slice_matrix, _unpair, chi,
                      op_norm)

_log = logging.getLogger("quatcalc")

__all__ = [
    "SphericalSpectrum",
    "SResolventSample",
    "SpectrumProximityError",
    "delta",
    "spherical_spectrum",
    "s_resolvent",
    "hausdorff_distance",
]


class SpectrumProximityError(ValueError):
    """Raised when a resolvent is requested too close to the spectrum."""

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


@dataclass(frozen=True)
class SphericalSpectrum:
    """Axially symmetric spectrum: spheres with quaternionic multiplicities."""

    spheres: tuple[Sphere, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.spheres) != len(self.multiplicities):
            raise ValueError("spheres and multiplicities must align")

    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)

    def distance_to(self, s: Sphere) -> float:
        return min(s.distance(sp) for sp in self.spheres)

    def to_json(self) -> list:
        return [{"re": sp.re, "rad": sp.rad, "mult": m}
                for sp, m in zip(self.spheres, self.multiplicities)]


def delta(T: QMatrix, q: Quaternion) -> QMatrix:
    """The class operator T^2 - 2 re(q) T + |q|^2 I."""
    if not T.is_square:
        raise ValueError("delta requires a square matrix")
    return _delta_of_square(T, T @ T, q)


def _delta_of_square(T: QMatrix, T2: QMatrix, q: Quaternion) -> QMatrix:
    """``delta(T, q)`` from T2 = T @ T, bit for bit."""
    return T2 - (2.0 * q.re) * T + QMatrix.real_scalar(T.rows, q.norm_sq())


def _chi_eigenvalues(T: QMatrix) -> np.ndarray:
    """Eigenvalues of chi(T); eig(Z) and their conjugates for slice-valued T.

    An exactly triangular Z (upper or lower; the test has no tolerance)
    has its eigenvalues on its diagonal, exactly, and no eigensolver runs.
    """
    Z = _slice_matrix(T)
    if Z is None:
        return np.linalg.eigvals(chi(T))
    if not (np.triu(Z, 1).any() and np.tril(Z, -1).any()):
        _log.debug("spectrum: eigenvalues of a triangular %d x %d slice "
                   "matrix read off its diagonal", *Z.shape)
        w = np.diagonal(Z)
    else:
        w = np.linalg.eigvals(Z)
    return np.concatenate([w, w.conj()])


def spherical_spectrum(T: QMatrix) -> SphericalSpectrum:
    """Spheres where Delta_q(T) fails to be invertible.

    Computed from the eigenvalues of chi(T), which come in conjugate pairs:
    each pair is one quaternionic eigenvalue.  ``circularize`` groups them
    into spheres at ``1e-9 * ||T||`` (T = 0 has the exact eigenvalue 0: one
    sphere of multiplicity n) and places every chi eigenvalue once, at the
    sphere nearest its (re, |im|); a sphere's quaternionic
    multiplicity is half its count.  A pair that jitter splits between two
    spheres (defective T) leaves both with an odd count; the extra half
    goes to the sphere more of whose eigenvalues lie above the real axis,
    so the multiplicities sum to n, and a sphere left with none is
    dropped.  When every entry of T lies in one slice C_u, the eigenvalues
    of chi(T) are those of the n x n matrix Z = w + i*c_u and their
    conjugates, so only Z is factored, and an exactly triangular Z (the
    "nonnormal" paper example's) is not factored at all: its eigenvalues
    are its diagonal.
    """
    if not T.is_square:
        raise ValueError("spectrum requires a square matrix")
    tol = 1e-9 * op_norm(T)  # a non-finite entry raises ValueError here
    eigs = _chi_eigenvalues(T)
    spheres, home = circularize(eigs, tol)
    count = np.bincount(home, minlength=len(spheres))
    lean = np.bincount(home, weights=np.sign(eigs.imag),
                       minlength=len(spheres))
    odd = np.flatnonzero(count % 2)
    mults = count // 2
    mults[odd[np.argsort(-lean[odd], kind="stable")[:odd.size // 2]]] += 1
    keep = np.flatnonzero(mults)
    return SphericalSpectrum(tuple(spheres[k] for k in keep),
                             tuple(int(mults[k]) for k in keep))


_CERTIFICATE_CUT = 1e-8  # a residual above this times max|C| takes the SVD


def _delta_min_sv(T: QMatrix, spheres) -> list[float]:
    """sigma_min of C = chi(Delta_q(T)), q = slice_embed(sp), per sphere sp,
    from one T @ T and one step of inverse iteration: with s = max|C|, x
    solves (C/s) x = x0 (golden-ratio phases; all-ones can be orthogonal to
    a structured C's small singular vector) and v = s ||(C/s) x|| / ||x||,
    an upper bound to rounding of ||C||.  A singular pivot, non-finite ||x||
    or v > 1e-8 s takes ``svd(C)[-1]``, so a value that is not tiny is the
    SVD's; s = 0 gives 0.0.  An overflowing Delta_q(T) raises OverflowError."""
    out = []
    x0 = np.exp(2j * np.pi * (5 ** 0.5 - 1) / 2 * np.arange(2 * T.rows))
    with np.errstate(over="ignore", invalid="ignore"):
        T2 = T @ T
        for sp in spheres:
            D = _delta_of_square(T, T2, slice_embed(sp))
            if not np.isfinite(D.entries).all():
                raise OverflowError(
                    f"Delta_q(T) = T^2 - 2 re(q) T + |q|^2 I overflows at "
                    f"the sphere (re {sp.re!r}, rad {sp.rad!r})")
            C = chi(D)
            s = float(np.abs(C).max(initial=0.0))
            v = nx = 0.0
            if s:
                A = C / s
                try:
                    x = np.linalg.solve(A, x0)
                    nx = float(np.linalg.norm(x))
                    v = s * (float(np.linalg.norm(A @ x)) / nx)
                except np.linalg.LinAlgError:  # an exactly singular pivot
                    v = np.inf
            out.append(v if nx < np.inf and v <= _CERTIFICATE_CUT * s
                       else float(np.linalg.svd(C, compute_uv=False)[-1]))
    return out


@dataclass(frozen=True)
class SResolventSample:
    """Left and right spherical resolvents at a point s of the resolvent set."""

    s: Quaternion
    left: QMatrix
    right: QMatrix


def _trace_distances(T: QMatrix, spec: SphericalSpectrum,
                     z: np.ndarray) -> np.ndarray:
    """Distances of slice points z = x + iy to the spectrum: the proximity
    guard raises ``SpectrumProximityError`` within 1e-8 ||T|| (at a
    distance 0 when T = 0)."""
    traces = np.array([(sp.re, sp.rad) for sp in spec.spheres]).reshape(-1, 2)
    dist = np.hypot(z.real[:, None] - traces[:, 0], np.abs(z.imag)[:, None]
                    - traces[:, 1]).min(axis=1, initial=np.inf)
    near = np.flatnonzero(dist <= 1e-8 * op_norm(T))
    if near.size:
        d = float(dist[near[0]])
        raise SpectrumProximityError(f"distance {d:.3e} to the spectrum", d)
    return dist


def s_resolvent(T: QMatrix, s: Quaternion,
                spectrum: SphericalSpectrum | None = None) -> SResolventSample:
    """S_L^-1(s,T) = -Delta_s(T)^-1 (T - conj(s) I) and the right variant
    S_R^-1(s,T) = -(T - conj(s) I) Delta_s(T)^-1, from one LU inverse.

    The rotor u of s's slice turns s into z = re s + i |im s| and T into
    T' = conj(u) T u; the resolvents are u X conj(u) for those X of (z, T').
    With M = chi(T'), chi(conj(s) I) = diag(conj z I, z I) and
    chi(Delta_s) = (M - z)(M - conj z), so exactly

        chi(T' - conj s) chi(Delta_s)^-1 = [top n rows of (M - z)^-1;
                                            bottom n rows of (M - conj z)^-1]

    and column blocks likewise for chi(Delta_s)^-1 chi(T' - conj s).  With
    R = (M - z)^-1, S_R^-1 = -(R[:n, :n] + R[:n, n:] j) and
    S_L^-1 = -(R[:n, :n] - conj(R[n:, :n]) j), conditioned as M - z, not as
    its square chi(Delta_s).  The proximity guard ``_trace_distances`` and
    the round-off sentinel ``_mirror_defect`` (1e-6 relative to R) raise.
    """
    if not T.is_square:
        raise ValueError("resolvent requires a square matrix")
    spec = spherical_spectrum(T) if spectrum is None else spectrum
    z = complex(s.re, s.im_norm())
    _trace_distances(T, spec, np.array([z]))
    u = _slice_rotor(ImaginaryUnit.normalized(s.x, s.y, s.z) if z.imag
                     else UNIT_I)
    n, ubar = T.rows, qconj(u)
    M = chi(QMatrix._adopt(qmul(qmul(ubar, T.entries), u)))
    R = np.linalg.inv(M - z * np.eye(2 * n))
    defect = _mirror_defect(M, z, R)
    if defect > 1e-6 * np.abs(R).max(initial=0.0):
        raise ValueError(f"S-resolvent round-off check: defect {defect:.3e}")
    left = _unpair(-R[:n, :n], R[n:, :n].conj())
    right = _unpair(-R[:n, :n], -R[:n, n:])
    return SResolventSample(
        s=s, left=QMatrix._adopt(qmul(qmul(u, left), ubar)),
        right=QMatrix._adopt(qmul(qmul(u, right), ubar)))


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two sphere sets in (re, rad) coordinates."""
    a, b = list(a), list(b)
    if not a and not b:
        return 0.0
    if not a or not b:
        return float("inf")
    d_ab = max(min(s.distance(t) for t in b) for s in a)
    d_ba = max(min(s.distance(t) for t in a) for s in b)
    return max(d_ab, d_ba)
