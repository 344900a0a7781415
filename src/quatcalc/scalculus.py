"""Axially symmetric contours, quadrature functional calculus, Riesz projections.

The integrals of the calculus are taken over the boundary of an axially
symmetric domain intersected with a slice C_m.  Here the boundary is a union
of circles centered on the real axis; the composite trapezoid rule on each
circle is spectrally accurate for the analytic integrands that occur.

With the counterclockwise parametrization s(t) = c + r e^{mt} one has
ds = m r e^{mt} dt and ds_m = -ds*m = r e^{mt} dt, so each quadrature node
contributes the quaternionic weight (r/N) e^{mt_k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    Sphere,
    UNIT_I,
    cluster_spheres,
)
from .qmatrix import QMatrix, chi, chi_inv, gram_schmidt, op_norm
from .spectrum import (
    SphericalSpectrum,
    SpectrumProximityError,
    spherical_spectrum,
    hausdorff_distance,
)

__all__ = [
    "Contour",
    "Circle",
    "RieszPair",
    "SeparationError",
    "PartitionError",
    "build_contour",
    "riesz_projection",
    "func_calc",
    "calc_adjoint_check",
    "riesz_decompose",
    "range_basis",
]


class SeparationError(ValueError):
    """Sphere sets too close (or overlapping) to thread a contour between."""


class PartitionError(ValueError):
    """A requested spectral partition does not match the spectrum."""


@dataclass(frozen=True)
class Circle:
    """Circle in the slice plane centered at (center, height), height >= 0.

    A circle with height > 0 implicitly carries its conjugate twin at
    (center, -height), so every Circle describes a conjugation-symmetric
    piece of the boundary of an axially symmetric domain.
    """

    center: float
    radius: float
    height: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("circle radius must be positive")
        if self.height < 0.0:
            raise ValueError("height must be nonnegative")

    def contains(self, re: float, rad: float) -> bool:
        """Whether the upper half-plane point (re, rad) lies inside (the
        upper member of) this circle pair."""
        return math.hypot(re - self.center, rad - self.height) < self.radius

    def to_json(self) -> dict:
        return {"center": self.center, "radius": self.radius,
                "height": self.height}


@dataclass(frozen=True)
class Contour:
    """Union of counterclockwise circle pairs, conjugation-symmetric in C_m."""

    m: ImaginaryUnit = UNIT_I
    circles: tuple[Circle, ...] = ()
    nodes_per_circle: int = 128

    def __post_init__(self):
        if self.nodes_per_circle < 16:
            raise ValueError("at least 16 nodes per circle are required")
        if not self.circles:
            raise ValueError("contour needs at least one circle")

    def nodes(self):
        """Yield (s, weight) pairs; weight = (r/N) e^{m t} as a quaternion.

        Off-axis circles contribute their conjugate twin as well, keeping
        the whole contour conjugation-symmetric within the slice.
        """
        marr = self.m.to_array()
        N = self.nodes_per_circle
        for circ in self.circles:
            heights = [circ.height] if circ.height == 0.0 \
                else [circ.height, -circ.height]
            for h in heights:
                center = np.array([circ.center, 0, 0, 0.0]) + h * marr
                for k in range(N):
                    t = 2.0 * math.pi * k / N
                    e_mt = np.array([math.cos(t), 0.0, 0.0, 0.0]) \
                        + math.sin(t) * marr
                    s = Quaternion.from_array(center + circ.radius * e_mt)
                    w = Quaternion.from_array((circ.radius / N) * e_mt)
                    yield s, w

    def winding(self, s: Sphere) -> int:
        """Winding number of the contour around the upper trace of s."""
        return sum(1 for c in self.circles if c.contains(s.re, s.rad))

    def encloses(self, s: Sphere) -> bool:
        return self.winding(s) == 1

    def clearance(self, spheres) -> float:
        """Distance from circle boundaries to the slice traces of spheres."""
        best = float("inf")
        for sp in spheres:
            for c in self.circles:
                for sign in (1, -1):
                    d = math.hypot(sp.re - c.center,
                                   sign * sp.rad - c.height)
                    best = min(best, abs(d - c.radius))
        return best

    def to_json(self) -> dict:
        return {
            "m": [self.m.x, self.m.y, self.m.z],
            "circles": [c.to_json() for c in self.circles],
            "nodes": self.nodes_per_circle,
        }


def _pair_distance(a_re, a_h, b_re, b_h) -> float:
    """Distance in the slice plane between the circle pairs (a, conj a) and
    the trace pair (b, conj b): nearest of the two reflections."""
    return min(math.hypot(a_re - b_re, a_h - b_h),
               math.hypot(a_re - b_re, a_h + b_h))


def build_contour(sigma, other=(), m: ImaginaryUnit = UNIT_I,
                  nodes: int = 128) -> Contour:
    """Deterministic circle system enclosing sigma's slice traces only.

    One circle (pair) per sigma sphere, centered at its trace points
    (re, +-rad); the radius is 0.45 times the distance to the nearest other
    trace, so circles are pairwise disjoint and every quadrature node sits
    in an analyticity annulus of ratio >= 1/0.45.  Raises
    ``SeparationError`` when sigma and other cannot be separated.
    """
    sigma = sorted(set(sigma))
    other = sorted(set(other))
    if not sigma:
        raise SeparationError("sigma must be nonempty")
    if other:
        sep = min(s.distance(o) for s in sigma for o in other)
        if sep <= 0.0:
            raise SeparationError("sigma and other overlap")

    # near-duplicate sigma spheres (numerical jitter of a multiple sphere)
    # share one circle; keep them apart from genuinely distinct traces
    extent = max(max(abs(s.re) + s.rad for s in sigma + other), 1.0)
    reps = cluster_spheres(sigma, 1e-7 * extent)

    circles: list[Circle] = []
    for group in reps:
        s = group[0]
        # flatten imaginary jitter: a near-real sphere's conjugate trace is
        # not a separate singularity at working resolution
        if s.rad <= 1e-7 * extent:
            s = Sphere(s.re, 0.0)
        dists = []
        if s.rad > 0.0:
            dists.append(2.0 * s.rad)  # own conjugate trace
        for g in reps:
            if g is not group:
                dists.append(_pair_distance(s.re, s.rad,
                                            g[0].re, g[0].rad))
        for o in other:
            dists.append(_pair_distance(s.re, s.rad, o.re, o.rad))
        d_all = min(dists) if dists else 2.0
        if d_all <= 0.0:
            raise SeparationError(
                f"sphere {s} cannot be separated from the excluded set")
        circles.append(Circle(s.re, 0.45 * d_all, height=s.rad))

    # Trapezoid error on a circle decays like rho^-N with rho set by the
    # nearest spectral trace (inside or outside); raise the node count when
    # the geometry leaves a thin analyticity annulus.
    rho = math.inf
    for c in circles:
        for t in sigma + other:
            for sign in ((1, -1) if t.rad > 0.0 else (1,)):
                d = math.hypot(t.re - c.center, sign * t.rad - c.height)
                if d < 1e-14:
                    continue  # the enclosed trace at the center is harmless
                rho = min(rho,
                          d / c.radius if d > c.radius else c.radius / d)
    if rho <= 1.0 + 1e-9:
        raise SeparationError("a spectral sphere lies on the contour")
    if math.isfinite(rho):
        needed = int(math.ceil(math.log(1e12) / math.log(rho)))
        nodes = max(nodes, min(4096, 16 * int(math.ceil(needed / 16))))

    contour = Contour(m=m, circles=tuple(circles), nodes_per_circle=nodes)
    for s in sigma:
        if contour.winding(s) != 1:
            raise SeparationError(f"contour fails to enclose {s}")
    for o in other:
        if contour.winding(o) != 0:
            raise SeparationError(f"contour fails to exclude {o}")
    return contour


def _q_times(q: Quaternion, M: np.ndarray) -> np.ndarray:
    """chi(q I_n) @ M.  chi(q I_n) = Q (x) I_n with the 2 x 2 Q = chi(q),
    so Q mixes the two block rows of M: O(n^2), no dense product."""
    Q = chi(QMatrix(q.to_array()[None, None, :]))
    n = M.shape[0] // 2
    top, bot = M[:n], M[n:]
    return np.vstack([Q[0, 0] * top + Q[0, 1] * bot,
                      Q[1, 0] * top + Q[1, 1] * bot])


def _times_q(M: np.ndarray, q: Quaternion) -> np.ndarray:
    """M @ chi(q I_n): Q = chi(q) mixes the two block columns of M."""
    Q = chi(QMatrix(q.to_array()[None, None, :]))
    n = M.shape[1] // 2
    lhs, rhs = M[:, :n], M[:, n:]
    return np.hstack([lhs * Q[0, 0] + rhs * Q[1, 0],
                      lhs * Q[0, 1] + rhs * Q[1, 1]])


def _quadrature(f, side: str, T: QMatrix, contour: Contour,
                spectrum: SphericalSpectrum | None) -> QMatrix:
    """The calculus integral of ``func_calc`` by per-node trapezoid sums.

    Each node s contributes -Delta_s^-1 (T - conj(s)) w f(s) (left) or
    -f(s) w (T - conj(s)) Delta_s^-1 (right), in chi coordinates.  The
    scalar factors chi(q I_n) = Q(q) (x) I_n act as 2 x 2 block scalings,
    O(n^2) per node.  A proximity guard refuses nodes near the spectrum.
    """
    spec = spherical_spectrum(T) if spectrum is None else spectrum
    scale = max(op_norm(T), 1.0)
    n = T.rows
    Tc = chi(T)
    Tc2 = Tc @ Tc
    eye = np.eye(2 * n)
    acc = np.zeros((2 * n, 2 * n), dtype=complex)
    for s, w in contour.nodes():
        dist = spec.distance_to(Sphere(s.re, s.im_norm()))
        if dist < 1e-8 * scale:
            raise SpectrumProximityError(
                f"quadrature node at distance {dist:.3e} from the spectrum",
                dist)
        Dinv = np.linalg.solve(Tc2 - 2.0 * s.re * Tc + s.norm_sq() * eye, eye)
        fs = f(s)
        if not isinstance(fs, Quaternion):
            fs = Quaternion.from_complex(complex(fs))
        if side == "left":
            acc -= _times_q(Dinv @ Tc - _times_q(Dinv, s.conjugate()), w * fs)
        else:
            acc -= _q_times(fs * w, Tc @ Dinv - _q_times(s.conjugate(), Dinv))
    return chi_inv(acc, tol=1e-6)


def riesz_projection(T: QMatrix, contour: Contour,
                     spectrum: SphericalSpectrum | None = None) -> QMatrix:
    """P = (1/2pi) Int ds_m S_R^-1(s, T): the right calculus with f = 1."""
    if not T.is_square:
        raise ValueError("projection requires a square matrix")
    return _quadrature(lambda s: 1.0, "right", T, contour, spectrum)


def func_calc(f, side: str, T: QMatrix, contour: Contour,
              spectrum: SphericalSpectrum | None = None) -> QMatrix:
    """Quadrature of the quaternionic functional calculus.

    ``f`` maps Quaternion -> Quaternion (numbers are coerced).  ``side`` is
    "left" for (1/2pi) Int S_L^-1(s,T) ds_m f(s) and "right" for
    (1/2pi) Int f(s) ds_m S_R^-1(s,T).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _quadrature(f, side, T, contour, spectrum)


def calc_adjoint_check(f, T: QMatrix, contour: Contour) -> float:
    """Residual ||f(T)* - fhat(T*)|| with fhat(q) = conj(f(conj(q)))."""
    lhs = func_calc(f, "left", T, contour).adjoint()

    def fhat(q: Quaternion) -> Quaternion:
        v = f(q.conjugate())
        if not isinstance(v, Quaternion):
            v = Quaternion.from_complex(complex(v))
        return v.conjugate()

    rhs = func_calc(fhat, "left", T.adjoint(), contour)
    return op_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# full Riesz decomposition
# ---------------------------------------------------------------------------

def range_basis(P: QMatrix, tol: float = 1e-6) -> QMatrix:
    """Quaternionic orthonormal basis of the range of a projection-like P.

    Columns are extracted from the SVD of chi(P) in deterministic order and
    orthonormalized over the quaternions.
    """
    U, sv, _ = np.linalg.svd(chi(P))
    rank_c = int(np.count_nonzero(sv > 0.5))
    if rank_c % 2:
        raise ValueError("range of a quaternionic operator has even chi rank")
    return gram_schmidt(U[:, :rank_c], rank_c // 2, tol)[1]


@dataclass(frozen=True)
class RieszPair:
    """Result of the Riesz decomposition for a spectral partition (sigma, tau)."""

    P_sigma: QMatrix
    P_tau: QMatrix
    basis_sigma: QMatrix
    basis_tau: QMatrix
    restricted_sigma: QMatrix
    restricted_tau: QMatrix
    spectrum_sigma: SphericalSpectrum
    spectrum_tau: SphericalSpectrum
    residuals: dict = field(default_factory=dict)


def riesz_decompose(T: QMatrix, sigma, tau=None, nodes: int = 128,
                    m: ImaginaryUnit = UNIT_I,
                    match_tol: float = 1e-8) -> RieszPair:
    """Riesz projections for a partition of the spherical spectrum.

    ``sigma`` selects spheres of sigma_S(T) (matched within ``match_tol``);
    ``tau`` defaults to the complement.  Both parts must be nonempty.
    """
    spec = spherical_spectrum(T)
    all_spheres = set(spec.spheres)
    sig = _match_spheres(sigma, all_spheres, match_tol)
    if tau is None:
        ta = all_spheres - sig
    else:
        ta = _match_spheres(tau, all_spheres, match_tol)
        if sig | ta != all_spheres or (sig & ta):
            raise PartitionError("sigma and tau must partition the spectrum")
    if not sig or not ta:
        raise PartitionError("both partition parts must be nonempty")

    c_sigma = build_contour(sig, ta, m=m, nodes=nodes)
    c_tau = build_contour(ta, sig, m=m, nodes=nodes)
    P_sigma = riesz_projection(T, c_sigma, spec)
    P_tau = riesz_projection(T, c_tau, spec)

    B_sigma = range_basis(P_sigma)
    B_tau = range_basis(P_tau)
    T_sigma = B_sigma.adjoint() @ T @ B_sigma
    T_tau = B_tau.adjoint() @ T @ B_tau
    spec_sigma = spherical_spectrum(T_sigma)
    spec_tau = spherical_spectrum(T_tau)

    scale = max(op_norm(T), 1.0)
    eye = QMatrix.eye(T.rows)
    residuals = {
        "idempotent_sigma": op_norm(P_sigma @ P_sigma - P_sigma),
        "idempotent_tau": op_norm(P_tau @ P_tau - P_tau),
        "self_adjoint_sigma": op_norm(P_sigma - P_sigma.adjoint()),
        "self_adjoint_tau": op_norm(P_tau - P_tau.adjoint()),
        "sum_identity": op_norm(P_sigma + P_tau - eye),
        "product_zero": op_norm(P_sigma @ P_tau),
        "commute_sigma": op_norm(T @ P_sigma - P_sigma @ T) / scale,
        "commute_tau": op_norm(T @ P_tau - P_tau @ T) / scale,
        "spectrum_sigma_hausdorff": hausdorff_distance(
            spec_sigma.spheres, sig),
        "spectrum_tau_hausdorff": hausdorff_distance(
            spec_tau.spheres, ta),
    }
    return RieszPair(
        P_sigma=P_sigma, P_tau=P_tau,
        basis_sigma=B_sigma, basis_tau=B_tau,
        restricted_sigma=T_sigma, restricted_tau=T_tau,
        spectrum_sigma=spec_sigma, spectrum_tau=spec_tau,
        residuals=residuals,
    )


def _match_spheres(requested, available, tol: float) -> set:
    matched = set()
    for r in requested:
        hits = [s for s in available if s.distance(r) <= max(tol, 1e-12)]
        if not hits:
            raise PartitionError(f"no spectrum sphere matches {r}")
        matched.add(min(hits, key=lambda s: s.distance(r)))
    return matched
