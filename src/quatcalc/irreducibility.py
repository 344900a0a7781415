"""Strong irreducibility of quaternionic matrices.

An operator is strongly irreducible when no nontrivial idempotent --
self-adjoint or not -- commutes with it.

In finite dimension the structural criterion is sharp: T is strongly
irreducible iff its spherical spectrum is a single similarity sphere and
the corresponding eigenspace of the complex adjoint matrix is minimal
(one Jordan chain).  The decision below uses that criterion but always
returns a certificate: either a witness idempotent, or the verified rank
profile that precludes one.  A brute-force idempotent search over the
commutant is kept as a private oracle for n <= 6 (``_ORACLE_MAX_N``): it
works in all 4 n^2 real coordinates of X, so its cost grows as n^6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quaternion import Quaternion, Sphere, circularize
from .qmatrix import QMatrix, chi, chi_inv, op_norm, normal_eigensystem
from .spectrum import spherical_spectrum, SphericalSpectrum
from .scalculus import riesz_decompose

__all__ = [
    "is_strongly_irreducible",
    "complex_strongly_irreducible",
    "extension_irreducibility_check",
    "StrongIrreducibilityReport",
]

# largest n for the dense commutant oracle: its real system is 4n^2 x 4n^2
_ORACLE_MAX_N = 6


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
    scale = max(op_norm(T), 1.0)
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


def _eigensphere_kernel_dim(T: QMatrix, sphere: Sphere,
                            cut: float) -> tuple[int, float, float]:
    """Kernel dimension of chi(T) - lambda at the upper slice representative.

    ``cut`` is the rank threshold (the eigenvalue-jitter resolution).
    Returns (dim, smallest kept sv, largest rejected sv) so the caller can
    judge how close the rank decision is to the threshold.
    """
    n = T.rows
    lam = complex(sphere.re, sphere.rad)
    M = chi(T) - lam * np.eye(2 * n)
    sv = np.linalg.svd(M, compute_uv=False)
    dim = int(np.count_nonzero(sv <= cut))
    kept = float(sv[sv > cut].min()) if np.any(sv > cut) else np.inf
    rejected = float(sv[sv <= cut].max()) if dim else 0.0
    return dim, kept, rejected


def is_strongly_irreducible(T: QMatrix,
                            tol: float = 1e-8) -> StrongIrreducibilityReport:
    """Decide strong irreducibility and always produce a certificate.

    Structural criterion (finite dimension): strongly irreducible iff the
    spherical spectrum is one sphere and the chi eigenspace at its upper
    representative is minimal (dimension 1 for a nonreal sphere, 2 for a
    real one, i.e. a single Jordan chain).  When a rank decision falls
    within a factor of 10 of the threshold the verdict is "indeterminate".
    """
    if not T.is_square:
        raise ValueError("strong irreducibility requires a square matrix")
    spec = spherical_spectrum(T)
    scale = max(op_norm(T), 1.0)

    # Defective eigenvalues of the underlying complex matrix are perturbed
    # at roughly eps^(1/k) for a size-k Jordan block; group spectrum spheres
    # at that resolution so jitter is not mistaken for distinct spheres.
    cluster_tol = scale * float(np.finfo(float).eps) ** (1.0 / (T.rows + 1))
    groups, labels = circularize(
        [complex(s.re, s.rad) for s in spec.spheres], cluster_tol)

    if not groups:
        return StrongIrreducibilityReport(
            "indeterminate", None, spec,
            {"reason": "a 0 x 0 matrix has no spectrum to decide on"})
    if len(groups) >= 2:
        # witness: Riesz projection of a proper spectral part
        pair = riesz_decompose(
            T, [s for s, g in zip(spec.spheres, labels) if g == 0])
        E = pair.P_sigma
        detail = {"route": "riesz", "residuals": pair.residuals}
        return StrongIrreducibilityReport("decomposable", E, spec, detail)

    mults = spec.multiplicities
    sphere = Sphere(
        sum(s.re * m for s, m in zip(spec.spheres, mults)) / sum(mults),
        sum(s.rad * m for s, m in zip(spec.spheres, mults)) / sum(mults))
    # Rank threshold at the jitter resolution: semisimple directions whose
    # eigenvalue sits anywhere in the cluster are genuine kernel directions.
    cut = max(tol * scale, cluster_tol)
    dim, kept, rejected = _eigensphere_kernel_dim(T, sphere, cut)
    minimal = 2 if sphere.rad <= cluster_tol else 1
    margin_ok = (rejected <= 0.1 * cut) and (kept >= 10 * cut)
    if not margin_ok:
        return StrongIrreducibilityReport(
            "indeterminate", None, spec,
            {"route": "rank", "kernel_dim": dim,
             "smallest_kept_sv": kept, "largest_rejected_sv": rejected})
    if dim < minimal:
        # the cluster representative is not actually in the spectrum: the
        # grouped spheres are too spread out for a sound rank decision
        return StrongIrreducibilityReport(
            "indeterminate", None, spec,
            {"route": "rank", "kernel_dim": dim, "minimal_dim": minimal,
             "note": "sphere cluster too wide for a rank decision"})
    if dim == minimal:
        return StrongIrreducibilityReport(
            "irreducible", None, spec,
            {"route": "rank", "kernel_dim": dim, "minimal_dim": minimal,
             "smallest_kept_sv": kept, "largest_rejected_sv": rejected})

    # single sphere but a split eigenspace: exhibit an idempotent.
    route = "eigenbasis"
    try:
        lam, U = normal_eigensystem(T)
        picks = [Quaternion(1.0, 0, 0, 0)] + \
            [Quaternion(0.0, 0, 0, 0)] * (T.rows - 1)
        E = U @ QMatrix.diag(picks) @ U.adjoint()
    except Exception:
        route = "search"
    detail = {"route": route, "kernel_dim": dim, "minimal_dim": minimal}
    if route == "search":
        if T.rows > _ORACLE_MAX_N:
            return StrongIrreducibilityReport(
                "indeterminate", None, spec,
                dict(detail, note=f"no eigenbasis, and the witness search "
                                  f"is limited to n <= {_ORACLE_MAX_N}"))
        E = _find_idempotent(T)
    if E is not None:
        detail["residuals"] = {
            "idempotent": op_norm(E @ E - E),
            "commutes": op_norm(E @ T - T @ E) / scale,
        }
        if max(detail["residuals"].values()) > 1e-6:
            E = None
    if E is None:
        return StrongIrreducibilityReport(
            "indeterminate", None, spec,
            dict(detail, note="rank says decomposable but no witness found"))
    return StrongIrreducibilityReport("decomposable", E, spec, detail)


def complex_strongly_irreducible(S: np.ndarray, tol: float = 1e-8) -> bool:
    """Complex-linear strong irreducibility: similar to one Jordan block.

    Equivalent to a single eigenvalue with geometric multiplicity one.  A
    0 x 0 matrix has no Jordan block, so the answer for it is False.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("square matrix required")
    if n == 0:
        return False
    w = np.linalg.eigvals(S)
    scale = max(np.linalg.norm(S, 2), 1.0)
    # a size-k Jordan block's computed eigenvalues spread by about
    # eps^(1/k): judge the spread and the rank at that resolution, as
    # is_strongly_irreducible does
    cluster_tol = scale * float(np.finfo(float).eps) ** (1.0 / (n + 1))
    lam = w.mean()
    if np.abs(w - lam).max() > cluster_tol:
        return False
    sv = np.linalg.svd(S - lam * np.eye(n), compute_uv=False)
    gdim = int(np.count_nonzero(sv <= max(tol * scale, cluster_tol)))
    return gdim <= 1


def extension_irreducibility_check(Sp: np.ndarray, J: QMatrix,
                                   tol: float = 1e-8) -> dict:
    """Compare strong irreducibility of a slice operator and its extension.

    ``Sp`` acts complex-linearly on the +1 slice of ``J``; its quaternionic
    extension acts on the whole space.  The two strong-irreducibility
    decisions must agree; the report carries both verdicts plus any
    witnesses, and ``agree`` is False only on a genuine discrepancy
    (an indeterminate quaternionic verdict is reported as such).
    """
    from .qmatrix import extend

    complex_si = complex_strongly_irreducible(Sp, tol=tol)
    Tq = extend(Sp, J)
    report = is_strongly_irreducible(Tq, tol=tol)
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
        if op_norm(Q @ T - T @ Q) <= 1e-8 * max(op_norm(T), 1.0):
            return Q
    return None
