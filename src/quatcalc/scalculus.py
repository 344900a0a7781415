"""Axially symmetric contours, quadrature functional calculus, Riesz projections.

The integrals of the calculus are taken over the boundary of an axially
symmetric domain intersected with a slice C_m.  Here the boundary is a union
of circles centered on the real axis; the composite trapezoid rule on each
circle is spectrally accurate for the analytic integrands that occur.  With
nothing to exclude, as for ``func_calc`` over all of sigma_S(T), the domain
is one disc about the real axis twice as wide as the spectrum's traces
(rho = 2, 64 nodes); a split of the spectrum takes one circle (pair) per
enclosed sphere.
Its error has three terms.  The analytic part decays like rho^-N in the N
nodes per circle, where rho > 1 is the ratio of the widest annulus about the
circle free of spectral traces; ``build_contour`` takes
N = ceil(-log(eps)/log rho) for the unit round-off eps.  About its center c
the rule integrates (s - c)^p exactly only when p + 1 is 0 or not a
multiple of N: an enclosed eigenvalue of quaternionic multiplicity k is a
resolvent pole of order up to k, whose term p = -1 - N aliases when N < k.
So the quadrature raises N to the total multiplicity a circle encloses
when that is larger.  And f itself must be slice-regular on each circle's
disc, with Taylor coefficients about c that have died out by degree N: a
pole or branch cut of f in the disc, or an entire f that grows too fast
over a wide one (e^q on a radius-40 circle), gives a wrong sum that no
residual of T sees.  The quadrature reads this off the discrete Fourier
coefficients of f's samples and raises ``RegularityError``; ``func_calc``
then replaces a contour around the whole spectrum by the spheres' own
circles.

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
Pseudospectra).  The left calculus is the adjoint of a right one on T*.

The lead nodes of the pairs run in one serial loop, in node order; BLAS
threads (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``) are the only
parallelism.  Each call logs its node counts and sentinel defect at DEBUG on
the "quatcalc" logger.
"""

from __future__ import annotations

import logging
import math
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
    "RegularityError",
    "build_contour",
    "riesz_projection",
    "func_calc",
    "calc_adjoint_check",
    "riesz_decompose",
    "range_basis",
]


_log = logging.getLogger("quatcalc")

# fewest trapezoid nodes per circle; node counts are multiples of it
_MIN_NODES = 16


def _round_nodes(k: float) -> int:
    """The multiple of _MIN_NODES at or above k."""
    return _MIN_NODES * int(math.ceil(k / _MIN_NODES))


class SeparationError(ValueError):
    """Sphere sets too close (or overlapping) to thread a contour between,
    or a quadrature that fails its round-off check there."""


class PartitionError(ValueError):
    """A requested spectral partition does not match the spectrum."""


class RegularityError(ValueError):
    """f is not slice-regular on a contour circle's disc, or varies too fast
    there for the circle's nodes to resolve it."""


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


def _sphere_circles(sigma, other) -> list[Circle]:
    """One circle (pair) per sigma sphere, centered at its trace points,
    of radius 0.45 times the distance to the nearest other trace."""
    # near-duplicate sigma spheres (numerical jitter of a multiple sphere)
    # share one circle; keep them apart from genuinely distinct traces,
    # at a resolution relative to the spheres' extent
    res = 1e-7 * max(abs(s.re) + s.rad for s in sigma + other)
    reps, _ = circularize([complex(s.re, s.rad) for s in sigma], res)

    circles: list[Circle] = []
    for rep in reps:
        # flatten imaginary jitter: a near-real sphere's conjugate trace is
        # not a separate singularity at working resolution
        s = rep if rep.rad > res else Sphere(rep.re, 0.0)
        # nearest trace pair (t, conj t): for heights >= 0, t itself
        dists = [s.distance(t) for t in reps if t is not rep]
        dists += [s.distance(o) for o in other]
        if s.rad > 0.0:
            dists.append(2.0 * s.rad)  # own conjugate trace
        d_all = min(dists) if dists else 2.0
        if d_all <= 0.0:
            raise SeparationError(
                f"sphere {s} cannot be separated from the excluded set")
        circles.append(Circle(s.re, 0.45 * d_all, height=s.rad))
    return circles


def build_contour(sigma, other=(), m: ImaginaryUnit = UNIT_I,
                  nodes: int = _MIN_NODES) -> Contour:
    """Deterministic circle system enclosing sigma's slice traces only.

    With ``other`` empty, one circle on the real axis encloses all of sigma:
    its center c is the midpoint of the spheres' real range and its radius
    is 2 d0, d0 the largest distance from c to a trace, so every trace lies
    within half the radius (rho = 2, 64 nodes, however many spheres).  The
    radius is at least 0.9, the circle a lone real sphere gets below, so a
    lone real sphere keeps its 16 nodes.  The calculus over this contour
    needs f slice-regular on the whole disc; ``func_calc`` checks that and
    falls back to the circles below when it fails.

    With ``other`` nonempty there is one circle (pair) per sigma sphere,
    centered at its trace points (re, +-rad); the radius is 0.45 times the
    distance to the nearest other trace, so circles are pairwise disjoint
    and every quadrature node sits in an analyticity annulus of ratio
    rho >= 1/0.45.

    The trapezoid error of the analytic part decays like rho^-N, so the
    node count per circle is N = ceil(-log(eps)/log rho) for the unit
    round-off eps (48 at rho = 1/0.45, 52 at rho = 2), rounded up to a
    multiple of 16 and capped at 4096; ``nodes`` is a floor under it.  The
    aliasing of an enclosed pole of order k, exact only for N >= k, depends
    on T and is handled by the quadrature.  Raises ``SeparationError`` when
    sigma and other cannot be separated, and ``ValueError`` for ``nodes``
    below 16.
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
        circles = _sphere_circles(sigma, other)
    else:
        center = 0.5 * (min(s.re for s in sigma) + max(s.re for s in sigma))
        d0 = max(math.hypot(s.re - center, s.rad) for s in sigma)
        circles = [Circle(center, max(2.0 * d0, 0.9))]
    return _sized_contour(circles, sigma, other, m, nodes)


def _sized_contour(circles, sigma, other, m: ImaginaryUnit,
                   nodes: int) -> Contour:
    """The contour on ``circles`` with ``build_contour``'s node count,
    checked to wind once around sigma and not around other."""
    # Trapezoid error on a circle decays like rho^-N with rho set by the
    # nearest spectral trace (inside or outside); take N for round-off.
    rho = math.inf
    for c in circles:
        for t in sigma + other:
            for sign in ((1, -1) if t.rad > 0.0 else (1,)):
                d = math.hypot(t.re - c.center, sign * t.rad - c.height)
                if d < 1e-14 * c.radius:
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


def _quadrature(f, T: QMatrix, contour: Contour,
                spectrum: SphericalSpectrum | None) -> QMatrix:
    """The right calculus integral of ``func_calc`` by per-node trapezoid sums.

    Runs in C_i (see the module docstring): T' = conj(u) T u entrywise,
    f'(q) = conj(u) f(u q conj(u)) u, and the result is u X' conj(u).
    By the row-block identity node k's term is -(chi(q_k) (x) I_n)
    [top rows of R_k; bottom rows of R_partner(k)], R_k = (chi T' - z_k)^-1,
    q = f'(z) w.  The sum lies in the image of chi, so only its top n rows
    are kept.  Lead nodes (k <= partner[k]) take one LU inverse each, in
    node order; their partners' R is its block mirror.  The proximity guard
    is ``_trace_distances``; the round-off sentinel ``_mirror_defect`` runs
    at the lead node nearest the spectrum (``SeparationError``).  A circle
    enclosing spheres of total multiplicity k > N takes k nodes, rounded up
    to a multiple of 16, so that no enclosed pole aliases.  Before any
    inverse is taken, f's samples on each circle are checked for regularity
    on its disc (``RegularityError`` above 1e-10 of their largest value).
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
    # On a circle of N nodes the discrete Fourier coefficients of f's C_i
    # part (holomorphic for f slice-regular on either side) hold its Taylor
    # coefficients about the center, degree mod N.  Indices N - 2 and N - 1
    # hold the last degrees the rule resolves, which bound the aliased ones
    # >= N while they decay, and the frequencies -2 and -1 that a pole or
    # branch cut of f inside the disc puts there.  Both must be negligible
    # (index N - p weighs sample k by e^{2 pi i p k/N}).
    N = contour.nodes_per_circle
    g = fa.reshape(-1, N)
    roots = _roots_of_unity(N)
    top_coef = np.abs(g @ np.stack([roots, roots * roots], axis=1)).max(
        axis=1) / N
    if np.any(top_coef > 1e-10 * np.abs(g).max(axis=1)):
        raise RegularityError(
            f"f is not slice-regular, or not resolved by {N} nodes, on the "
            f"disc of a contour circle: top Fourier coefficient "
            f"{top_coef.max():.3e}")
    a, b = fa * w, fb * w.conj()  # q = f' w = fa w + fb conj(w) j
    n = T.rows
    Tc = chi(QMatrix._adopt(qmul(qmul(ubar, T.entries), u)))
    c = b[partner]  # node k adds a_k R_k[:n] + c_k R_k[n:] to the top rows
    # the partner's term a_p R_p[:n] + c_p R_p[n:] (R_p the mirror of R_k) is
    # conj([W[:, n:], -W[:, :n]]), W = conj(a_p) R_k[n:] - conj(c_p) R_k[:n]
    lead = np.flatnonzero(np.arange(z.size) <= partner)
    twin = partner != np.arange(z.size)
    ma, mc = twin * a[partner].conj(), twin * c[partner].conj()
    eye = np.eye(2 * n)
    sentinel = lead[np.argmin(dist[lead])]
    top, W = np.zeros((2, n, 2 * n), dtype=complex)
    for k in lead:
        R = np.linalg.inv(Tc - z[k] * eye)
        top += a[k] * R[:n] + c[k] * R[n:]
        W += ma[k] * R[n:] - mc[k] * R[:n]
        if k == sentinel:
            R_s = R
    top = -top - np.hstack([W[:, n:], -W[:, :n]]).conj()
    defect = abs(w[sentinel]) * _mirror_defect(Tc, z[sentinel], R_s)
    _log.debug("quadrature: %d nodes, %d lead nodes, sentinel defect %.3e, "
               "%d nodes per circle (%s)", z.size, lead.size, defect,
               contour.nodes_per_circle,
               f"raised from {given}: pole order up to {poles}"
               if poles > given else "as built")
    if defect > 1e-6 * max(np.abs(top).max(), 1.0):
        raise SeparationError(
            f"quadrature round-off check: defect {defect:.3e}")
    return QMatrix._adopt(qmul(qmul(u, _unpair(top[:, :n], top[:, n:])),
                               ubar))


def riesz_projection(T: QMatrix, contour: Contour,
                     spectrum: SphericalSpectrum | None = None) -> QMatrix:
    """P = (1/2pi) Int ds_m S_R^-1(s, T): the right calculus with f = 1."""
    if not T.is_square:
        raise ValueError("projection requires a square matrix")
    return _quadrature(lambda s: 1.0, T, contour, spectrum)


def _hat(f):
    """fhat(q) = conj(f(conj(q))), numbers coerced as in the quadrature."""
    def fhat(q: Quaternion) -> Quaternion:
        v = f(q.conjugate())
        if not isinstance(v, Quaternion):
            v = Quaternion.from_complex(complex(v))
        return v.conjugate()
    return fhat


def func_calc(f, side: str, T: QMatrix, contour: Contour,
              spectrum: SphericalSpectrum | None = None) -> QMatrix:
    """Quadrature of the quaternionic functional calculus.

    ``f`` maps Quaternion -> Quaternion (numbers are coerced).  ``side`` is
    "left" for (1/2pi) Int S_L^-1(s,T) ds_m f(s) and "right" for (1/2pi)
    Int f(s) ds_m S_R^-1(s,T).  The left calculus is taken as the adjoint
    of the right one of fhat(q) = conj(f(conj(q))) on T*, exactly for the
    sums too: each node's partner is its exact conjugate with the conjugate
    weight.  On ``build_contour(spheres)`` of the whole spectrum the
    contour is one circle of 64 nodes (more when T's total multiplicity is
    larger, see the quadrature), and f must be slice-regular on its whole
    disc.  When the quadrature's check refuses f on a contour that winds
    once around every sphere of T, the calculus is taken over one circle
    (pair) per sphere instead, as ``build_contour`` draws them for a split;
    when it refuses those too, or a contour that leaves spheres out,
    ``RegularityError`` propagates.  For an f singular near the spectrum,
    build the contour with its singular points in ``other``.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "left":
        return func_calc(_hat(f), "right", T.adjoint(), contour,
                         spectrum).adjoint()
    spec = spherical_spectrum(T) if spectrum is None else spectrum
    try:
        return _quadrature(f, T, contour, spec)
    except RegularityError:
        if any(contour.winding(s) != 1 for s in spec.spheres):
            raise
    spheres = sorted(set(spec.spheres))
    split = _sized_contour(_sphere_circles(spheres, []), spheres, [],
                           contour.m, _MIN_NODES)
    _log.debug("func_calc: f is not regular on the disc of %d circles; "
               "%d circles of the spheres instead", len(contour.circles),
               len(split.circles))
    return _quadrature(f, T, split, spec)


def calc_adjoint_check(f, T: QMatrix, contour: Contour) -> float:
    """Residual ||f(T)* - fhat(T*)|| with fhat(q) = conj(f(conj(q)))."""
    lhs = func_calc(f, "left", T, contour).adjoint()
    rhs = func_calc(_hat(f), "left", T.adjoint(), contour)
    return op_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# full Riesz decomposition
# ---------------------------------------------------------------------------

def _chi_svd(P: QMatrix) -> tuple[np.ndarray, int, np.ndarray]:
    """U, the chi rank at the 0.5 cut and V* of the SVD of chi(P)."""
    U, sv, Vh = np.linalg.svd(chi(P))
    return U, int(np.count_nonzero(sv > 0.5)), Vh


def _span_basis(Z: np.ndarray) -> QMatrix:
    """Quaternionic orthonormal basis of the span of Z's columns, the chi
    image of a range of P.  An odd chi rank (no quaternionic range has
    one) is a ``PartitionError``: P is not the projection of the requested
    split."""
    rank_c = Z.shape[1]
    if rank_c % 2:
        raise PartitionError(
            f"chi(P) has odd rank {rank_c} at the 0.5 cut; the range of a "
            f"quaternionic operator has even chi rank")
    return gram_schmidt(Z, rank_c // 2, 1e-6)[1]


def range_basis(P: QMatrix) -> QMatrix:
    """Quaternionic orthonormal basis of the range of a projection-like P.

    Columns are extracted from the SVD of chi(P) in deterministic order and
    orthonormalized over the quaternions.  An odd chi rank at the 0.5 cut
    (no quaternionic range has one) is a ``PartitionError``: P is not the
    projection of the requested split.
    """
    U, rank_c, _ = _chi_svd(P)
    return _span_basis(U[:, :rank_c])


@dataclass(frozen=True)
class RieszPair:
    """Result of the Riesz decomposition for a spectral partition (sigma, tau).

    ``P_tau`` is I - ``P_sigma`` exactly, so the pair sums to I by
    construction; ``residuals`` gates the quadrature on P_sigma alone.
    """

    P_sigma: QMatrix
    P_tau: QMatrix
    basis_sigma: QMatrix
    basis_tau: QMatrix
    restricted_sigma: QMatrix
    restricted_tau: QMatrix
    spectrum_sigma: SphericalSpectrum
    spectrum_tau: SphericalSpectrum
    residuals: dict = field(default_factory=dict)


def riesz_decompose(T: QMatrix, sigma) -> RieszPair:
    """Riesz projections for a partition of the spherical spectrum.

    ``sigma`` selects spheres of sigma_S(T) (matched within 1e-8 ||T||);
    tau is the complement, and both parts must be nonempty.  One contour
    encloses sigma against tau, one quadrature gives P_sigma, and
    P_tau = I - P_sigma.

    The accuracy gate is ``idempotent_sigma`` = ||P^2 - P||.  The trapezoid
    rule returns P = f_N(T), f_N the rule's rational approximation of the
    indicator of sigma, so P^2 - P = (f_N^2 - f_N)(T): the rule's error at
    the eigenvalues on both sides of the split, the derivative terms of
    Jordan blocks included.  A second quadrature for P_tau would only check
    P_sigma + P_tau = I, which I - P_sigma satisfies by construction.

    Both bases come from one SVD of chi(P_sigma): range P_sigma from the
    left singular vectors above the 0.5 cut (as ``range_basis``), and
    range P_tau = ker P_sigma from the right singular vectors below it.
    """
    spec = spherical_spectrum(T)
    all_spheres = set(spec.spheres)
    sig = _match_spheres(sigma, all_spheres, 1e-8 * op_norm(T))
    ta = all_spheres - sig
    if not sig or not ta:
        raise PartitionError("both partition parts must be nonempty")

    P_sigma = riesz_projection(T, build_contour(sig, ta), spec)
    P_tau = QMatrix.eye(T.rows) - P_sigma

    U, rank_c, Vh = _chi_svd(P_sigma)
    B_sigma = _span_basis(U[:, :rank_c])
    B_tau = _span_basis(Vh[rank_c:].conj().T)
    T_sigma = B_sigma.adjoint() @ T @ B_sigma
    T_tau = B_tau.adjoint() @ T @ B_tau
    spec_sigma = spherical_spectrum(T_sigma)
    spec_tau = spherical_spectrum(T_tau)

    residuals = {
        "idempotent_sigma": op_norm(P_sigma @ P_sigma - P_sigma),
        "self_adjoint_sigma": op_norm(P_sigma - P_sigma.adjoint()),
        "commute_sigma": op_norm(T @ P_sigma - P_sigma @ T) / op_norm(T),
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
        hits = [s for s in available if s.distance(r) <= tol]
        if not hits:
            raise PartitionError(f"no spectrum sphere matches {r}")
        matched.add(min(hits, key=lambda s: s.distance(r)))
    return matched
