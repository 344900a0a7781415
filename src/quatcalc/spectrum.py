"""Spherical spectrum, point spectrum and the S-resolvent operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quaternion import Quaternion, Sphere, circularize, slice_embed, sphere_of
from .qmatrix import QMatrix, _slice_matrix, chi, chi_inv, op_norm

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


# complex entries per block of spherical_spectrum's eigenvalue-sphere table
_ASSIGN_BLOCK = 1 << 18


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
    each pair is one quaternionic eigenvalue.  Every chi eigenvalue is
    counted once, at the sphere nearest its (re, |im|), and a sphere's
    quaternionic multiplicity is half its count.  A pair that jitter splits
    between two spheres (defective T) leaves both with an odd count; the
    extra half goes to the sphere more of whose eigenvalues lie above the
    real axis, so the multiplicities sum to n, and a sphere left with none
    is dropped.  When every entry of T lies in one slice C_u, the
    eigenvalues of chi(T) are those of the n x n matrix Z = w + i*c_u and
    their conjugates, so only Z is factored.
    """
    if not T.is_square:
        raise ValueError("spectrum requires a square matrix")
    scale = max(op_norm(T), 1.0)
    eigs = _chi_eigenvalues(T)
    # force exact conjugation symmetry before circularizing
    sym = np.concatenate([eigs, eigs.conj()])
    spheres = sorted(circularize(sym, tol=tol * scale))
    if not spheres:  # 0 x 0 T
        return SphericalSpectrum((), ())
    centers = np.array([complex(sp.re, sp.rad) for sp in spheres])
    pts = eigs.real + 1j * np.abs(eigs.imag)
    rows = max(1, _ASSIGN_BLOCK // centers.size)
    home = np.concatenate([
        np.abs(pts[lo:lo + rows, None] - centers).argmin(axis=1)
        for lo in range(0, pts.size, rows)])
    count = np.bincount(home, minlength=centers.size)
    lean = np.bincount(home, weights=np.sign(eigs.imag),
                       minlength=centers.size)
    odd = np.flatnonzero(count % 2)
    mults = count // 2
    mults[odd[np.argsort(-lean[odd], kind="stable")[:odd.size // 2]]] += 1
    keep = np.flatnonzero(mults)
    return SphericalSpectrum(tuple(spheres[k] for k in keep),
                             tuple(int(mults[k]) for k in keep))


def point_spectrum(T: QMatrix, tol: float = 1e-8) -> SphericalSpectrum:
    """Spheres where Delta_q(T) has nontrivial kernel, with dim_H of the kernel."""
    spec = spherical_spectrum(T)
    scale = max(op_norm(T), 1.0)
    spheres, dims = [], []
    for sp in spec.spheres:
        D = delta(T, slice_embed(sp))
        # sigma_min stays on SVD: a Gram matrix would square its conditioning
        sv = np.linalg.svd(chi(D), compute_uv=False)
        kdim_c = int(np.count_nonzero(sv <= tol * scale ** 2))
        kdim = kdim_c // 2  # quaternionic kernel dimension
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


def _delta_inverse(T: QMatrix, s: Quaternion) -> QMatrix:
    D = delta(T, s)
    return chi_inv(np.linalg.inv(chi(D)), tol=1e-6)


def s_resolvent(T: QMatrix, s: Quaternion,
                spectrum: SphericalSpectrum | None = None,
                guard: float = 1e-8) -> SResolventSample:
    """S_L^-1(s,T) = -Delta_s(T)^-1 (T - conj(s) I)  and the right variant.

    Refuses evaluation when [s] is within ``guard * ||T||`` of the spherical
    spectrum (Delta inversion would be the only failure mode).
    """
    if not T.is_square:
        raise ValueError("resolvent requires a square matrix")
    spec = spherical_spectrum(T) if spectrum is None else spectrum
    scale = max(op_norm(T), 1.0)
    dist = spec.distance_to(sphere_of(s))
    if dist < guard * scale:
        raise SpectrumProximityError(
            f"s is too close to the spherical spectrum "
            f"(distance {dist:.3e} < {guard * scale:.3e})", dist)
    n = T.rows
    Dinv = _delta_inverse(T, s)
    e = T.entries.copy()
    e[range(n), range(n)] -= s.conjugate().to_array()
    shift = QMatrix(e)
    left = -1.0 * (Dinv @ shift)
    right = -1.0 * (shift @ Dinv)
    return SResolventSample(s=s, left=left, right=right)


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
