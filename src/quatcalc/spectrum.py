"""Spherical spectrum, point spectrum and the S-resolvent operators.

Both S-resolvents come from one LU inverse of chi(T') - z (``s_resolvent``),
so they are conditioned as chi(T') - z, not as its square chi(Delta_s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quaternion import (UNIT_I, ImaginaryUnit, Quaternion, Sphere,
                         _slice_rotor, circularize, qconj, qmul, slice_embed)
from .qmatrix import (QMatrix, _mirror_defect, _slice_matrix, _unpair, chi,
                      op_norm)

__all__ = [
    "SphericalSpectrum",
    "SResolventSample",
    "SpectrumProximityError",
    "delta",
    "spherical_spectrum",
    "point_spectrum",
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

    def multiplicity_of(self, s: Sphere, tol: float = 1e-8) -> int:
        for sp, m in zip(self.spheres, self.multiplicities):
            if sp.distance(s) <= tol:
                return m
        return 0

    def distance_to(self, s: Sphere) -> float:
        return min(s.distance(sp) for sp in self.spheres)

    def to_json(self) -> list:
        return [{"re": sp.re, "rad": sp.rad, "mult": m}
                for sp, m in zip(self.spheres, self.multiplicities)]


def delta(T: QMatrix, q: Quaternion) -> QMatrix:
    """The class operator T^2 - 2 re(q) T + |q|^2 I."""
    if not T.is_square:
        raise ValueError("delta requires a square matrix")
    n = T.rows
    return T @ T - (2.0 * q.re) * T + QMatrix.real_scalar(n, q.norm_sq())


def _chi_eigenvalues(T: QMatrix) -> np.ndarray:
    """Eigenvalues of chi(T); eig(Z) and their conjugates for slice-valued T."""
    Z = _slice_matrix(T)
    if Z is None:
        return np.linalg.eigvals(chi(T))
    w = np.linalg.eigvals(Z)
    return np.concatenate([w, w.conj()])


def spherical_spectrum(T: QMatrix, tol: float = 1e-9) -> SphericalSpectrum:
    """Spheres where Delta_q(T) fails to be invertible.

    Computed from the eigenvalues of chi(T), which come in conjugate pairs:
    each pair is one quaternionic eigenvalue.  ``circularize`` groups them
    into spheres at ``tol * max(||T||, 1)`` and places every chi eigenvalue
    once, at the sphere nearest its (re, |im|); a sphere's quaternionic
    multiplicity is half its count.  A pair that jitter splits between two
    spheres (defective T) leaves both with an odd count; the extra half
    goes to the sphere more of whose eigenvalues lie above the real axis,
    so the multiplicities sum to n, and a sphere left with none is
    dropped.  When every entry of T lies in one slice C_u, the eigenvalues
    of chi(T) are those of the n x n matrix Z = w + i*c_u and their
    conjugates, so only Z is factored.
    """
    if not T.is_square:
        raise ValueError("spectrum requires a square matrix")
    scale = max(op_norm(T), 1.0)
    eigs = _chi_eigenvalues(T)
    spheres, home = circularize(eigs, tol * scale)
    count = np.bincount(home, minlength=len(spheres))
    lean = np.bincount(home, weights=np.sign(eigs.imag),
                       minlength=len(spheres))
    odd = np.flatnonzero(count % 2)
    mults = count // 2
    mults[odd[np.argsort(-lean[odd], kind="stable")[:odd.size // 2]]] += 1
    keep = np.flatnonzero(mults)
    return SphericalSpectrum(tuple(spheres[k] for k in keep),
                             tuple(int(mults[k]) for k in keep))


def _delta_singular_values(T: QMatrix, sp: Sphere) -> np.ndarray:
    """Singular values of chi(Delta_q(T)), q = slice_embed(sp), by SVD: a
    Gram matrix would square the conditioning of sigma_min."""
    return np.linalg.svd(chi(delta(T, slice_embed(sp))), compute_uv=False)


def point_spectrum(T: QMatrix, tol: float = 1e-8) -> SphericalSpectrum:
    """Spheres where Delta_q(T) has nontrivial kernel, with dim_H of the kernel."""
    spec = spherical_spectrum(T)
    scale = max(op_norm(T), 1.0)
    spheres, dims = [], []
    for sp in spec.spheres:
        sv = _delta_singular_values(T, sp)
        kdim = int(np.count_nonzero(sv <= tol * scale ** 2)) // 2  # over H
        if kdim > 0:
            spheres.append(sp)
            dims.append(kdim)
    return SphericalSpectrum(tuple(spheres), tuple(dims))


@dataclass(frozen=True)
class SResolventSample:
    """Left and right spherical resolvents at a point s of the resolvent set."""

    s: Quaternion
    left: QMatrix
    right: QMatrix


def _trace_distances(T: QMatrix, spec: SphericalSpectrum,
                     z: np.ndarray) -> np.ndarray:
    """Distances of slice points z = x + iy to the spectrum: the proximity
    guard raises ``SpectrumProximityError`` within 1e-8 max(||T||, 1)."""
    scale = max(op_norm(T), 1.0)
    traces = np.array([(sp.re, sp.rad) for sp in spec.spheres]).reshape(-1, 2)
    dist = np.hypot(z.real[:, None] - traces[:, 0], np.abs(z.imag)[:, None]
                    - traces[:, 1]).min(axis=1, initial=np.inf)
    near = np.flatnonzero(dist < 1e-8 * scale)
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
    M = chi(QMatrix(qmul(qmul(ubar, T.entries), u)))
    R = np.linalg.inv(M - z * np.eye(2 * n))
    defect = _mirror_defect(M, z, R)
    if defect > 1e-6 * np.abs(R).max(initial=0.0):
        raise ValueError(f"S-resolvent round-off check: defect {defect:.3e}")
    left = _unpair(-R[:n, :n], R[n:, :n].conj())
    right = _unpair(-R[:n, :n], -R[:n, n:])
    return SResolventSample(s=s, left=QMatrix(qmul(qmul(u, left), ubar)),
                            right=QMatrix(qmul(qmul(u, right), ubar)))


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
