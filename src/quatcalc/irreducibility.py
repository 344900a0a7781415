"""Strong irreducibility of quaternionic matrices.

An operator is strongly irreducible when no nontrivial idempotent --
self-adjoint or not -- commutes with it.

In finite dimension the structural criterion is sharp: T is strongly
irreducible iff its spherical spectrum is a single similarity sphere and
the corresponding eigenspace of the complex adjoint matrix is minimal
(one Jordan chain).  The decision below uses that criterion but always
returns a certificate: either the verified rank profile that precludes a
commuting idempotent, or a witness idempotent E that passes one gate,
||E^2 - E|| and ||ET - TE|| / ||T|| at most ``_WITNESS_TOL``.  Every
tolerance scales with ||T||, so T and cT get the same verdict.
The witness routes: "riesz", the Riesz projection that splits the most
isolated sphere off the rest of the spectrum; "eigenvector", E = v v* for
a reducing eigenvector v; and "search", a brute-force idempotent search
over the commutant for a split that is not orthogonal, a private oracle
for n <= 6 (``_ORACLE_MAX_N``): it works in all 4 n^2 real coordinates of
X, so its cost grows as n^6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quaternion import Sphere
from .qmatrix import (QMatrix, _matrix_norm, chi, chi_inv, chi_vec_inv,
                      extend, op_norm)
from .spectrum import spherical_spectrum, SphericalSpectrum
from .scalculus import build_contour, riesz_projection

__all__ = [
    "is_strongly_irreducible",
    "complex_strongly_irreducible",
    "extension_irreducibility_check",
    "StrongIrreducibilityReport",
]

# largest n for the dense commutant oracle: its real system is 4n^2 x 4n^2
_ORACLE_MAX_N = 6
# a witness idempotent is accepted when both of its residuals are below this
_WITNESS_TOL = 1e-6


def _commutant(T: QMatrix) -> list[QMatrix]:
    """Real-orthonormal basis of {X : XT = TX} as quaternionic matrices.

    The commutator X -> XT - TX is real-linear in the 4 n^2 real coordinates
    of X, ordered as the w, x, y and z blocks of the entries.  Column k of
    its matrix is the commutator of the k-th unit quaternion matrix; the
    nullspace is found by SVD.  Raises ``ValueError`` for n > _ORACLE_MAX_N.
    """
    if not T.is_square:
        raise ValueError("commutant requires a square matrix")
    n = T.rows
    if n > _ORACLE_MAX_N:
        raise ValueError(f"the commutant oracle is limited to n <= "
                         f"{_ORACLE_MAX_N}, got n = {n}")
    dim = 4 * n * n
    scale = op_norm(T)
    rows = np.empty((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        X = QMatrix(e.reshape(4, n, n).transpose(1, 2, 0))
        rows[:, k] = (X @ T - T @ X).entries.transpose(2, 0, 1).ravel()
    _, sv, Vt = np.linalg.svd(rows)
    return [QMatrix(v.reshape(4, n, n).transpose(1, 2, 0))
            for v, s in zip(Vt, sv) if s <= 1e-10 * scale]


@dataclass(frozen=True)
class StrongIrreducibilityReport:
    verdict: str                 # "irreducible" | "decomposable" | "indeterminate"
    witness: QMatrix | None      # idempotent commuting with T, if decomposable
    spectrum: SphericalSpectrum
    detail: dict = field(default_factory=dict)

    @property
    def strongly_irreducible(self) -> bool:
        return self.verdict == "irreducible"


def _jitter_resolution(scale: float, n: int) -> float:
    """scale * eps^(1/(n+1)): a size-k Jordan block's computed eigenvalues
    spread by about eps^(1/k), so closer ones are one cluster."""
    return scale * float(np.finfo(float).eps) ** (1.0 / (n + 1))


def _reducing_eigenvector(M: np.ndarray) -> QMatrix:
    """E = v v* for the unit v nearest to ker M and ker M*, M = chi(T) - lam.

    psi is the right singular vector of [M; M*] with the smallest singular
    value and v = chi_vec_inv(psi).  When T v = v lam and T* v = v conj(lam)
    hold, v spans a reducing subspace: ET = v lam v* = TE.
    """
    psi = np.linalg.svd(np.vstack([M, M.conj().T]))[2][-1].conj()
    v = QMatrix._adopt(chi_vec_inv(psi[:, None]))
    return v @ v.adjoint()


def is_strongly_irreducible(T: QMatrix) -> StrongIrreducibilityReport:
    """Decide strong irreducibility and always produce a certificate.

    One witness rule comes first: with two or more spheres, sigma is the
    sphere farthest from its nearest other sphere (ties towards the larger
    re), tau the rest, and E the Riesz projection over build_contour(sigma,
    tau).  E is refused when the quadrature raises ``ValueError``, when its
    chi trace 2 sum_r Re E_rr does not round to 2 mult(sigma) (so E is
    nontrivial), or by the gate; the decision then falls through to the
    rank route: strongly irreducible iff every sphere lies within the cut
    ``_jitter_resolution`` of their weighted mean lam and the chi eigenspace
    at lam is minimal (one Jordan chain: dimension 1 for a nonreal sphere,
    2 for a real one).  ``detail["route"]`` names the route, "rank" with
    ``kernel_dim``, ``minimal_dim`` and the singular values either side of
    the cut; "decomposable" carries ``detail["residuals"]`` (idempotent,
    commutes), and "indeterminate" ``detail["reason"]``.
    """
    if not T.is_square:
        raise ValueError("strong irreducibility requires a square matrix")
    spec = spherical_spectrum(T)
    scale = op_norm(T)

    def report(verdict, detail, E=None):
        return StrongIrreducibilityReport(verdict, E, spec, detail)

    def certified(E: QMatrix, detail: dict) -> StrongIrreducibilityReport:
        # ET - TE is exactly 0 for T = 0, the one T with ||T|| = 0
        res = {"idempotent": op_norm(E @ E - E),
               "commutes": op_norm(E @ T - T @ E) / scale if scale else 0.0}
        if max(res.values()) <= _WITNESS_TOL:
            return report("decomposable", dict(detail, residuals=res), E)
        return report("indeterminate", dict(detail, residuals=res, reason=(
            f"witness residual above {_WITNESS_TOL:g}")))

    spheres, mults = spec.spheres, spec.multiplicities
    if not spheres:
        return report("indeterminate", {
            "reason": "a 0 x 0 matrix has no spectrum to decide on"})
    if len(spheres) >= 2:
        # split off the sphere farthest from its nearest other sphere;
        # chi(E) then has trace 2 mult(sigma), strictly between 0 and 2n
        gap = [min(s.distance(o) for o in spheres if o is not s)
               for s in spheres]
        k = max(range(len(spheres)), key=lambda r: (gap[r], spheres[r].re))
        try:
            E = riesz_projection(T, build_contour(
                [spheres[k]], spheres[:k] + spheres[k + 1:]), spec)
            chi_trace = 2 * np.trace(E.entries[..., 0])
        except ValueError:
            chi_trace = np.nan
        if np.rint(chi_trace) == 2 * mults[k]:
            rep = certified(E, {"route": "riesz"})
            if rep.verdict == "decomposable":
                return rep

    # rank route at the jitter resolution: semisimple directions whose
    # eigenvalue sits anywhere in the cluster are genuine kernel directions
    cut = _jitter_resolution(scale, T.rows)
    sphere = Sphere(
        sum(s.re * m for s, m in zip(spheres, mults)) / sum(mults),
        sum(s.rad * m for s, m in zip(spheres, mults)) / sum(mults))
    M = chi(T) - complex(sphere.re, sphere.rad) * np.eye(2 * T.rows)
    sv = np.linalg.svd(M, compute_uv=False)
    dim = int(np.count_nonzero(sv <= cut))
    kept = float(sv[sv > cut].min()) if dim < sv.size else np.inf
    rejected = float(sv[sv <= cut].max()) if dim else 0.0
    minimal = 2 if sphere.rad <= cut else 1
    rank = {"route": "rank", "kernel_dim": dim, "minimal_dim": minimal,
            "smallest_kept_sv": kept, "largest_rejected_sv": rejected}
    if not (rejected <= 0.1 * cut and kept >= 10 * cut):
        return report("indeterminate", dict(
            rank, reason="a singular value within a factor of 10 of the cut"))
    if dim < minimal or max(s.distance(sphere) for s in spheres) > cut:
        # a cluster wider than the cut, or its mean is not in the spectrum
        return report("indeterminate", dict(
            rank, reason="sphere cluster too wide for a rank decision"))
    if dim == minimal:
        return report("irreducible", rank)

    # single sphere but a split eigenspace: exhibit an idempotent
    split = {"kernel_dim": dim, "minimal_dim": minimal}
    rep = certified(_reducing_eigenvector(M),
                    {"route": "eigenvector", **split})
    if rep.verdict == "decomposable":
        return rep
    if T.rows > _ORACLE_MAX_N:
        return report("indeterminate", dict(rep.detail, reason=(
            f"no reducing eigenvector, and the witness search is limited "
            f"to n <= {_ORACLE_MAX_N}")))
    E = _find_idempotent(T)
    if E is None:
        return report("indeterminate", {
            "route": "search", **split,
            "reason": "rank says decomposable but no witness found"})
    return certified(E, {"route": "search", **split})


def complex_strongly_irreducible(S: np.ndarray) -> bool:
    """Complex-linear strong irreducibility: similar to one Jordan block.

    Equivalent to a single eigenvalue with geometric multiplicity one, both
    judged at ``_jitter_resolution``.  A 0 x 0 matrix has no Jordan block,
    so the answer for it is False.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("square matrix required")
    if n == 0:
        return False
    w = np.linalg.eigvals(S)
    # judge the spread and the rank at the jitter resolution, as
    # is_strongly_irreducible does
    cluster_tol = _jitter_resolution(_matrix_norm(S), n)
    lam = w.mean()
    if np.abs(w - lam).max() > cluster_tol:
        return False
    sv = np.linalg.svd(S - lam * np.eye(n), compute_uv=False)
    gdim = int(np.count_nonzero(sv <= cluster_tol))
    return gdim <= 1


def extension_irreducibility_check(Sp: np.ndarray, J: QMatrix) -> dict:
    """Compare strong irreducibility of a slice operator and its extension.

    ``Sp`` acts complex-linearly on the +1 slice of ``J``; its quaternionic
    extension acts on the whole space.  The two strong-irreducibility
    decisions must agree; the report carries both verdicts plus any
    witnesses, and ``agree`` is False only on a genuine discrepancy
    (an indeterminate quaternionic verdict is reported as such).
    """
    complex_si = complex_strongly_irreducible(Sp)
    Tq = extend(Sp, J)
    report = is_strongly_irreducible(Tq)
    agree = (report.verdict != "indeterminate"
             and complex_si == report.strongly_irreducible)
    return {
        "complex_strongly_irreducible": complex_si,
        "quaternionic_verdict": report.verdict,
        "agree": agree,
        "witness": report.witness,
        "detail": report.detail,
    }


def _find_idempotent(T: QMatrix, seed: int = 0) -> QMatrix | None:
    """Brute-force search for a nontrivial idempotent commuting with T.

    Damped Newton iteration for E^2 = E inside the commutant of T: the
    commutant is closed under multiplication, so the iteration stays in
    its real coordinate space.  Multi-start with a seeded generator makes
    the search deterministic.  Returns None if every start collapses to a
    trivial fixed point (0 or the identity) -- evidence, not proof, of
    strong irreducibility; in finite dimension the structural rank test
    in :func:`is_strongly_irreducible` is the sharp criterion.  64 starts
    of at most 200 Newton steps each; n <= _ORACLE_MAX_N only.
    """
    basis = _commutant(T)
    d = len(basis)
    if d <= 1:
        return None  # commutant is scalars only
    n = T.rows
    chis = np.stack([chi(B) for B in basis])       # (d, 2n, 2n)
    flat = chis.reshape(d, -1)
    gram = (flat.conj() @ flat.T).real
    ginv = np.linalg.inv(gram)

    def to_coords(M: np.ndarray) -> np.ndarray:
        return ginv @ (flat.conj() @ M.ravel()).real

    def to_matrix(x: np.ndarray) -> np.ndarray:
        return np.tensordot(x, chis, axes=(0, 0))

    rng = np.random.default_rng(seed)
    eye = np.eye(2 * n)
    for _ in range(64):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        for _ in range(200):
            E = to_matrix(x)
            F = E @ E - E
            r = np.linalg.norm(F)
            if r < 1e-13:
                break
            # Newton step: solve (E dX + dX E - dX) = -F in coordinates
            J = np.empty((d, d))
            for k in range(d):
                Bk = chis[k]
                J[:, k] = to_coords(E @ Bk + Bk @ E - Bk)
            try:
                dx = np.linalg.solve(J, -to_coords(F))
            except np.linalg.LinAlgError:
                break
            step = 1.0
            base = r
            for _ in range(20):
                En = to_matrix(x + step * dx)
                if np.linalg.norm(En @ En - En) < base:
                    break
                step *= 0.5
            else:
                break
            x = x + step * dx
        E = to_matrix(x)
        if np.linalg.norm(E @ E - E) > 1e-10:
            continue
        if np.linalg.norm(E) < 1e-6 or np.linalg.norm(E - eye) < 1e-6:
            continue
        Q = chi_inv(E, tol=1e-8)
        if op_norm(Q @ T - T @ Q) <= 1e-8 * op_norm(T):
            return Q
    return None
