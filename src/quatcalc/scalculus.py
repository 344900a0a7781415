"""Axially symmetric contours, quadrature functional calculus, Riesz projections.

The integrals of the calculus are taken over the boundary of an axially
symmetric domain intersected with a slice C_m.  Here the boundary is a union
of circles centered on the real axis; the composite trapezoid rule on each
circle is spectrally accurate for the analytic integrands that occur.
Its error has two terms.  The analytic part decays like rho^-N in the N
nodes per circle, where rho > 1 is the ratio of the widest annulus about the
circle free of spectral traces; ``build_contour`` takes
N = ceil(-log(eps)/log rho) for the unit round-off eps.  And about its
center c the rule integrates (s - c)^p exactly only when p + 1 is 0 or not
a multiple of N: an enclosed eigenvalue of quaternionic multiplicity k is a
resolvent pole of order up to k, whose term p = -1 - N aliases when N < k.
So the quadrature raises N to the total multiplicity a circle encloses
when that is larger.

With the counterclockwise parametrization s(t) = c + r e^{mt} one has
ds = m r e^{mt} dt and ds_m = -ds*m = r e^{mt} dt, so each quadrature node
contributes the quaternionic weight (r/N) e^{mt_k}.

The quadrature runs in C_i for every slice, by the rotor and the row-block
identity of ``spectrum.s_resolvent``: node z takes blocks of
R = (chi T' - z)^-1 and of the inverse at conj(z), exactly R's block mirror
(``qmatrix._mirror_defect``).  Nodes come in conjugate pairs (k and N - k on
a circle centered on the real axis; an off-axis circle and its twin), so
each pair costs one LU inverse, and no factorization is shared across
nodes.  A once-per-call Schur or Hessenberg form of chi(T) would be cheaper
per node, but its backward error is amplified by ||(chi T - z)^-1||^2 on
fragile eigenvalues of highly non-normal T (Trefethen-Embree, Spectra and
Pseudospectra).

The lead nodes of the pairs run in a fixed number of chunks on a thread
pool made per call (numpy's LAPACK releases the GIL), summed in chunk order:
the result is bitwise the same for any pool size, and a forked child, which
has none of a module-level pool's threads, still works.  Each call logs its
node counts, pool size and sentinel defect at DEBUG on the "quatcalc" logger.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .quaternion import (UNIT_I, ImaginaryUnit, Quaternion, Sphere,
                         _slice_rotor, circularize, qconj, qmul)
from .qmatrix import (QMatrix, _mirror_defect, _pair, _unpair, chi,
                      gram_schmidt, op_norm)
from .spectrum import (SphericalSpectrum, _trace_distances, hausdorff_distance,
                       spherical_spectrum)

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


_log = logging.getLogger("quatcalc")

# Lead nodes are split into this many contiguous chunks whatever the core
# count, so the summation order, and hence every bit of the result, is fixed.
_CHUNKS = 8

# fewest trapezoid nodes per circle; node counts are multiples of it
_MIN_NODES = 16


def _round_nodes(k: float) -> int:
    """The multiple of _MIN_NODES at or above k."""
    return _MIN_NODES * int(math.ceil(k / _MIN_NODES))


def _worker_count() -> int:
    """CPUs this process may run on: the quadrature pool's size."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _roots_of_unity(N: int) -> np.ndarray:
    """e^{2 pi i k/N}, k < N, with exact conjugates at k and N - k.

    Each angle is reduced to [0, pi/2] before cos/sin, so 1 and -1 come out
    exactly real and mirrored angles give bitwise mirrored values.
    """
    k = np.arange(N)
    j = np.minimum(k, N - k)
    a = np.pi * np.minimum(2 * j, N - 2 * j) / N
    return (np.where(4 * j > N, -np.cos(a), np.cos(a))
            + 1j * np.where(k > N - k, -np.sin(a), np.sin(a)))


@dataclass(frozen=True)
class Contour:
    """Union of counterclockwise circle pairs, conjugation-symmetric in C_m."""

    m: ImaginaryUnit = UNIT_I
    circles: tuple[Circle, ...] = ()
    nodes_per_circle: int = _MIN_NODES

    def __post_init__(self):
        if self.nodes_per_circle < _MIN_NODES:
            raise ValueError(
                f"at least {_MIN_NODES} nodes per circle are required")
        if not self.circles:
            raise ValueError("contour needs at least one circle")

    def slice_nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, weights and conjugate partners, in slice coordinates.

        The node x + y m of C_m is the complex number z = x + iy, and its
        weight (r/N) e^{mt} is w = (r/N) e^{it}.  Off-axis circles
        contribute their conjugate twin as well, keeping the whole contour
        conjugation-symmetric within the slice.  ``partner[k]`` indexes the
        node at conj(z[k]), whose weight is conj(w[k]): index N - k on an
        on-axis circle, and on the twin of an off-axis one.
        """
        N = self.nodes_per_circle
        k = np.arange(N)
        flip = (N - k) % N
        roots = _roots_of_unity(N)
        z, w, partner = [], [], []
        for c in self.circles:
            base = N * len(z)
            w_c = (c.radius / N) * roots
            if c.height == 0.0:
                z.append(c.center + c.radius * roots)
                w.append(w_c)
                partner.append(base + flip)
            else:
                z += [complex(c.center, c.height) + c.radius * roots,
                      complex(c.center, -c.height) + c.radius * roots]
                w += [w_c, w_c]
                partner += [base + N + flip, base + flip]
        return np.concatenate(z), np.concatenate(w), np.concatenate(partner)

    def nodes(self):
        """Yield (s, weight) quaternion pairs; weight = (r/N) e^{m t}."""
        z, w, _ = self.slice_nodes()
        for zk, wk in zip(z, w):
            yield _in_slice(zk, self.m), _in_slice(wk, self.m)

    def winding(self, s: Sphere) -> int:
        """Winding number of the contour around the upper trace of s."""
        return sum(1 for c in self.circles if c.contains(s.re, s.rad))

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
                  nodes: int = _MIN_NODES) -> Contour:
    """Deterministic circle system enclosing sigma's slice traces only.

    One circle (pair) per sigma sphere, centered at its trace points
    (re, +-rad); the radius is 0.45 times the distance to the nearest other
    trace, so circles are pairwise disjoint and every quadrature node sits
    in an analyticity annulus of ratio rho >= 1/0.45.  The trapezoid error
    of the analytic part decays like rho^-N, so the node count per circle
    is N = ceil(-log(eps)/log rho) for the unit round-off eps (48 at
    rho = 1/0.45), rounded up to a multiple of 16 and capped at 4096;
    ``nodes`` is a floor under it.  The aliasing of an enclosed pole of
    order k, exact only for N >= k, depends on T and is handled by the
    quadrature.  Raises ``SeparationError`` when sigma and other cannot be
    separated, and ``ValueError`` for ``nodes`` below 16.
    """
    if nodes < _MIN_NODES:
        raise ValueError(
            f"at least {_MIN_NODES} nodes per circle are required")
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
    reps, _ = circularize([complex(s.re, s.rad) for s in sigma],
                          1e-7 * extent)

    circles: list[Circle] = []
    for rep in reps:
        # flatten imaginary jitter: a near-real sphere's conjugate trace is
        # not a separate singularity at working resolution
        s = rep if rep.rad > 1e-7 * extent else Sphere(rep.re, 0.0)
        dists = []
        if s.rad > 0.0:
            dists.append(2.0 * s.rad)  # own conjugate trace
        for t in reps:
            if t is not rep:
                dists.append(_pair_distance(s.re, s.rad, t.re, t.rad))
        for o in other:
            dists.append(_pair_distance(s.re, s.rad, o.re, o.rad))
        d_all = min(dists) if dists else 2.0
        if d_all <= 0.0:
            raise SeparationError(
                f"sphere {s} cannot be separated from the excluded set")
        circles.append(Circle(s.re, 0.45 * d_all, height=s.rad))

    # Trapezoid error on a circle decays like rho^-N with rho set by the
    # nearest spectral trace (inside or outside); take N for round-off.
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
        needed = -math.log(np.finfo(float).eps) / math.log(rho)
        nodes = max(nodes, min(4096, _round_nodes(needed)))
    _log.debug("contour: %d circles, rho %.4g, %d nodes per circle",
               len(circles), rho, nodes)

    contour = Contour(m=m, circles=tuple(circles), nodes_per_circle=nodes)
    for s in sigma:
        if contour.winding(s) != 1:
            raise SeparationError(f"contour fails to enclose {s}")
    for o in other:
        if contour.winding(o) != 0:
            raise SeparationError(f"contour fails to exclude {o}")
    return contour


def _in_slice(z: complex, m: ImaginaryUnit) -> Quaternion:
    """The quaternion x + y m of C_m whose slice coordinate is z = x + iy."""
    x, y = float(z.real), float(z.imag)
    return Quaternion(x, y * m.x, y * m.y, y * m.z)


def _quadrature(f, side: str, T: QMatrix, contour: Contour,
                spectrum: SphericalSpectrum | None) -> QMatrix:
    """The calculus integral of ``func_calc`` by per-node trapezoid sums.

    Runs in C_i (see the module docstring): T' = conj(u) T u entrywise,
    f'(q) = conj(u) f(u q conj(u)) u, and the result is u X' conj(u).
    By the row-block identity node k's right term is -(chi(q_k) (x) I_n)
    [top rows of R_k; bottom rows of R_partner(k)], R_k = (chi T' - z_k)^-1,
    q = f'(z) w (the left term mirrors it with column blocks, q = w f'(z)).
    The sum lies in the image of chi, so only its top n rows are kept.  Lead
    nodes (k <= partner[k]) take one LU inverse each, in ``_CHUNKS`` chunks
    on a per-call thread pool; their partners' R is its block mirror.  The
    proximity guard is ``_trace_distances``, and the round-off sentinel
    ``_mirror_defect`` runs at the lead node nearest the spectrum.  A circle
    enclosing spheres of total multiplicity k > N takes k nodes, rounded up
    to a multiple of 16, so that no enclosed pole aliases.
    """
    spec = spherical_spectrum(T) if spectrum is None else spectrum
    given = contour.nodes_per_circle
    poles = max(sum(k for sp, k in zip(spec.spheres, spec.multiplicities)
                    if c.contains(sp.re, sp.rad)) for c in contour.circles)
    if poles > given:
        contour = replace(contour, nodes_per_circle=_round_nodes(poles))
    z, w, partner = contour.slice_nodes()
    dist = _trace_distances(T, spec, z)

    u = _slice_rotor(contour.m)
    ubar = qconj(u)
    fs = []
    for zk in z:
        v = f(_in_slice(zk, contour.m))
        if not isinstance(v, Quaternion):
            v = Quaternion.from_complex(complex(v))
        fs.append(v.to_array())
    fa, fb = _pair(qmul(qmul(ubar, np.array(fs)), u))  # f' = fa + fb j
    if side == "left":   # q = w f' = w fa + w fb j
        a, b = w * fa, w * fb
    else:                # q = f' w = fa w + fb conj(w) j
        a, b = fa * w, fb * w.conj()
    n = T.rows
    Tc = chi(QMatrix(qmul(qmul(ubar, T.entries), u)))
    c = b[partner]  # node k adds a_k R_k[:n] + c_k R_k[n:] to the top rows
    if side == "left":
        # columns of R are the rows of inv(chi(T')^T - z) = R^T
        Tc = Tc.T
        c = -c.conj()
    # the partner's term a_p R_p[:n] + c_p R_p[n:] (R_p the mirror of R_k) is
    # conj([W[:, n:], -W[:, :n]]), W = conj(a_p) R_k[n:] - conj(c_p) R_k[:n]
    lead = np.flatnonzero(np.arange(z.size) <= partner)
    twin = partner != np.arange(z.size)
    ma, mc = twin * a[partner].conj(), twin * c[partner].conj()
    eye = np.eye(2 * n)
    sentinel = lead[np.argmin(dist[lead])]

    def chunk_sum(ks):
        top, W = np.zeros((2, n, 2 * n), dtype=complex)
        R_s = None
        for k in ks:
            R = np.linalg.inv(Tc - z[k] * eye)
            top += a[k] * R[:n] + c[k] * R[n:]
            W += ma[k] * R[n:] - mc[k] * R[:n]
            if k == sentinel:
                R_s = R
        return top, W, R_s

    chunks = np.array_split(lead, min(_CHUNKS, lead.size))
    workers = min(_worker_count(), len(chunks))
    top, W = np.zeros((2, n, 2 * n), dtype=complex)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for top_c, W_c, R_c in pool.map(chunk_sum, chunks):
            top += top_c
            W += W_c
            if R_c is not None:
                R_s = R_c
    top = -top - np.hstack([W[:, n:], -W[:, :n]]).conj()
    defect = abs(w[sentinel]) * _mirror_defect(Tc, z[sentinel], R_s)
    _log.debug("quadrature: %d nodes, %d lead nodes, %d workers, "
               "sentinel defect %.3e, %d nodes per circle (%s)", z.size,
               lead.size, workers, defect, contour.nodes_per_circle,
               f"raised from {given}: pole order up to {poles}"
               if poles > given else "as built")
    if defect > 1e-6 * max(np.abs(top).max(), 1.0):
        raise ValueError(f"quadrature round-off check: defect {defect:.3e}")
    A, B = top[:, :n], top[:, n:]
    if side == "left":
        A, B = A.T, -B.conj().T
    return QMatrix(qmul(qmul(u, _unpair(A, B)), ubar))


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
        raise ValueError(f"chi(P) has odd rank {rank_c} at the 0.5 cut; the "
                         f"range of a quaternionic operator has even chi rank")
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


def riesz_decompose(T: QMatrix, sigma, tau=None,
                    nodes: int = _MIN_NODES) -> RieszPair:
    """Riesz projections for a partition of the spherical spectrum.

    ``sigma`` selects spheres of sigma_S(T) (matched within 1e-8);
    ``tau`` defaults to the complement.  Both parts must be nonempty.
    """
    spec = spherical_spectrum(T)
    all_spheres = set(spec.spheres)
    sig = _match_spheres(sigma, all_spheres)
    if tau is None:
        ta = all_spheres - sig
    else:
        ta = _match_spheres(tau, all_spheres)
        if sig | ta != all_spheres or (sig & ta):
            raise PartitionError("sigma and tau must partition the spectrum")
    if not sig or not ta:
        raise PartitionError("both partition parts must be nonempty")

    c_sigma = build_contour(sig, ta, nodes=nodes)
    c_tau = build_contour(ta, sig, nodes=nodes)
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


def _match_spheres(requested, available) -> set:
    matched = set()
    for r in requested:
        hits = [s for s in available if s.distance(r) <= 1e-8]
        if not hits:
            raise PartitionError(f"no spectrum sphere matches {r}")
        matched.add(min(hits, key=lambda s: s.distance(r)))
    return matched
