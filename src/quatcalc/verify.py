"""Invariant suites with measured residuals, shared by the CLI and tests.

Every check returns a record ``{"suite", "name", "residual", "tol",
"passed"}``; a residual of the form "observed must exceed tol" is recorded
with ``passed = residual > tol`` and ``direction = ">"``.  All randomness is
drawn from a seeded generator, so a fixed seed gives byte-identical reports.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .quaternion import ImaginaryUnit, Quaternion, Sphere, UNIT_I
from .qmatrix import (
    QMatrix,
    cartesian,
    chi,
    chi_inv,
    extend,
    normal_eigensystem,
    op_norm,
    plus_eigenbasis,
    polar,
    restrict,
)
from .spectrum import spherical_spectrum, s_resolvent
from .scalculus import build_contour, riesz_projection, func_calc, \
    calc_adjoint_check, riesz_decompose
from .irreducibility import (
    extension_irreducibility_check,
    _find_idempotent,
    is_strongly_irreducible,
)
from .discretize import grid_points, kernel_op, paper_example, volterra_norm

__all__ = ["run_all", "SUITES", "default_tolerances"]

_M_TILTED = ImaginaryUnit.normalized(1.0, 1.0, 0.0)

_DEFAULT_TOLS = {
    "resolvent-identity": 1e-12,
    "resolvent-equation": 1e-10,
    "cartesian-recon": 1e-9,
    "cartesian-invariant": 1e-10,
    "polar-residual": 1e-10,
    "riesz-oracle": 1e-8,
    "riesz-step": 1e-10,
    "riesz-restricted": 1e-8,
    "calculus-poly": 1e-10,
    "calculus-adjoint": 1e-8,
    "slice-agreement": 1e-8,
    "extension-norm": 1e-12,
    "extension-roundtrip": 1e-10,
    "volterra-window": 5e-3,
    "rankone-bound": 1.0 / 3.0,
    "factorization": 1e-12,
    "normality-normal": 1e-12,
    "nonnormality-floor": 1e-3,
}


def default_tolerances() -> dict:
    return dict(_DEFAULT_TOLS)


def _check(suite, name, residual, tol, direction="<="):
    passed = residual > tol if direction == ">" else residual <= tol
    return {"suite": suite, "name": name, "residual": float(residual),
            "tol": float(tol), "direction": direction, "passed": bool(passed)}


def _random_qmatrix(rng, n: int) -> QMatrix:
    return QMatrix(rng.standard_normal((n, n, 4)) / math.sqrt(n))


def _random_unitary(rng, n: int) -> QMatrix:
    W, _ = polar(_random_qmatrix(rng, n) + QMatrix.real_scalar(n, 3.0))
    return W


def _random_unit_imaginary(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _random_normal(rng, spheres_mults) -> QMatrix:
    """Random normal matrix with the given [(Sphere, mult)] spectrum."""
    lams = []
    for sp, mult in spheres_mults:
        for _ in range(mult):
            axis = _random_unit_imaginary(rng) * sp.rad
            lams.append(Quaternion(sp.re, *axis))
    n = len(lams)
    U = _random_unitary(rng, n)
    return U @ QMatrix.diag(lams) @ U.adjoint()


def _random_separated_spheres(rng, count: int, min_sep: float = 0.5):
    spheres = []
    while len(spheres) < count:
        re = float(rng.uniform(-1.5, 1.5))
        rad = float(rng.uniform(0.2, 0.6)) if rng.uniform() > 0.3 else 0.0
        cand = Sphere(re, rad)
        if all(cand.distance(s) >= min_sep for s in spheres):
            spheres.append(cand)
    return spheres


def _sample_point_away(rng, spec, scale: float) -> Quaternion:
    """A quaternion at distance >= 0.3 from every spectrum sphere."""
    while True:
        re = float(rng.uniform(-2.5, 2.5)) * scale
        rad = float(rng.uniform(0.0, 2.5)) * scale
        if spec.distance_to(Sphere(re, rad)) >= 0.3 * scale:
            axis = _random_unit_imaginary(rng) * rad
            return Quaternion(re, *axis)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_resolvent(rng, tols) -> list[dict]:
    """Left/right resolvent identities and the two-variable resolvent equation."""
    out = []
    worst_ident = 0.0
    worst_eq = 0.0
    for _ in range(20):
        T = _random_qmatrix(rng, 5)
        spec = spherical_spectrum(T)
        scale = op_norm(T)
        eye = QMatrix.eye(5)
        for _ in range(20):
            s = _sample_point_away(rng, spec, scale)
            res = s_resolvent(T, s, spec)
            denom = op_norm(res.left) * (abs(s) + op_norm(T))
            r1 = op_norm(res.left.scale_right(s) - T @ res.left - eye) / denom
            r2 = op_norm(res.right.scale_left(s) - res.right @ T - eye) / denom
            worst_ident = max(worst_ident, r1, r2)
        # resolvent equation at one (s, p) pair per matrix
        s = _sample_point_away(rng, spec, scale)
        p = _sample_point_away(rng, spec, scale)
        rs = s_resolvent(T, s, spec)
        rp = s_resolvent(T, p, spec)
        diff = rs.right - rp.left
        lhs = rs.right @ rp.left
        poly = p * p - 2.0 * s.re * p + Quaternion(s.norm_sq(), 0, 0, 0)
        rhs = (diff.scale_right(p) - diff.scale_left(s.conjugate())) \
            .scale_right(poly.inverse())
        denom = op_norm(lhs)
        worst_eq = max(worst_eq, op_norm(lhs - rhs) / denom)
    out.append(_check("resolvent", "left/right identities",
                      worst_ident, tols["resolvent-identity"]))
    out.append(_check("resolvent", "two-variable resolvent equation",
                      worst_eq, tols["resolvent-equation"]))
    return out


def suite_cartesian(rng, tols) -> list[dict]:
    """T = A + (1/2) J B with the commutation/unitarity side conditions."""
    worst_recon = 0.0
    worst_inv = 0.0
    for _ in range(20):
        spheres = _random_separated_spheres(rng, int(rng.integers(2, 4)))
        mults = [1] * len(spheres)
        mults[0] += 5 - len(spheres)
        T = _random_normal(rng, list(zip(spheres, mults)))
        scale = op_norm(T)
        parts = cartesian(T)
        recon = op_norm(T - (parts.A + 0.5 * (parts.J @ parts.B))) / scale
        worst_recon = max(worst_recon, recon)
        eye = QMatrix.eye(T.rows)
        invs = [
            op_norm(parts.A - parts.A.adjoint()) / scale,
            op_norm(parts.B - parts.B.adjoint()) / scale,
            op_norm(parts.J + parts.J.adjoint()),
            op_norm(parts.J @ parts.J.adjoint() - eye),
            op_norm(parts.J @ parts.B - parts.B @ parts.J) / scale,
            op_norm(parts.J @ parts.A - parts.A @ parts.J) / scale,
            float(-min(0.0, np.linalg.eigvalsh(chi(parts.B)).min())) / scale,
        ]
        worst_inv = max(worst_inv, max(invs))
    return [
        _check("cartesian", "reconstruction T = A + (1/2)JB",
               worst_recon, tols["cartesian-recon"]),
        _check("cartesian", "J/A/B structural invariants",
               worst_inv, tols["cartesian-invariant"]),
    ]


def suite_polar(rng, tols) -> list[dict]:
    """T = W0 |T| with matching ranks, including rank-deficient inputs."""
    worst = 0.0
    rank_ok = True
    for k in range(20):
        n = 5
        T = _random_qmatrix(rng, n)
        if k % 3 == 0:
            # force rank deficiency via a thin product
            r = int(rng.integers(1, n))
            A = QMatrix(rng.standard_normal((n, r, 4)))
            B = QMatrix(rng.standard_normal((r, n, 4)))
            T = A @ B
        scale = max(op_norm(T), 1e-12)
        W, absT = polar(T)
        worst = max(worst, op_norm(T - W @ absT) / scale)
        sv_t = np.linalg.svd(chi(T), compute_uv=False)
        sv_w = np.linalg.svd(chi(W), compute_uv=False)
        cut = 1e-8 * sv_t[0]
        if np.count_nonzero(sv_t > cut) != np.count_nonzero(sv_w > 0.5):
            rank_ok = False
    out = [_check("polar", "residual T = W0|T|", worst,
                  tols["polar-residual"])]
    out.append(_check("polar", "rank(W0) = rank(T)",
                      0.0 if rank_ok else 1.0, 0.5))
    return out


def _eigenprojection_oracle(T: QMatrix, sigma) -> QMatrix:
    """Spectral projection of a normal matrix from its eigensystem."""
    lam, U = normal_eigensystem(T)
    picks = []
    for lv in lam:
        sp = Sphere(float(lv.real), abs(float(lv.imag)))
        inside = any(sp.distance(s) <= 1e-6 for s in sigma)
        picks.append(Quaternion(1.0 if inside else 0.0, 0, 0, 0))
    return U @ QMatrix.diag(picks) @ U.adjoint()


def suite_riesz(rng, tols) -> list[dict]:
    """Quadrature Riesz projections vs the eigenprojection oracle."""
    worst_oracle = 0.0
    worst_step = 0.0
    worst_restricted = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 4))
        spheres = _random_separated_spheres(rng, k)
        mults = [1] * k
        for _ in range(6 - k):
            mults[int(rng.integers(0, k))] += 1
        T = _random_normal(rng, list(zip(spheres, mults)))
        sigma = [spheres[0]]
        pair = riesz_decompose(T, sigma)
        oracle = _eigenprojection_oracle(T, sigma)
        worst_oracle = max(worst_oracle, op_norm(pair.P_sigma - oracle))
        worst_step = max(worst_step, pair.residuals["idempotent_sigma"],
                         pair.residuals["self_adjoint_sigma"],
                         pair.residuals["commute_sigma"])
        worst_restricted = max(
            worst_restricted,
            pair.residuals["spectrum_sigma_hausdorff"],
            pair.residuals["spectrum_tau_hausdorff"])
    return [
        _check("riesz", "projection vs eigenprojection oracle",
               worst_oracle, tols["riesz-oracle"]),
        _check("riesz", "idempotent/self-adjoint/commute residuals",
               worst_step, tols["riesz-step"]),
        _check("riesz", "restricted spectra match the partition",
               worst_restricted, tols["riesz-restricted"]),
    ]


def suite_calculus(rng, tols) -> list[dict]:
    """Polynomial reproduction, left/right agreement, adjoint rule, slices."""
    worst_poly = 0.0
    worst_adj = 0.0
    worst_slice = 0.0
    for _ in range(5):
        spheres = _random_separated_spheres(rng, 2)
        T = _random_normal(rng, [(spheres[0], 2), (spheres[1], 2)])
        spec = spherical_spectrum(T)
        contour = build_contour(spec.spheres)

        def f(q):
            return q * q + 2.0 * q + Quaternion(1.0, 0, 0, 0)

        direct = T @ T + 2.0 * T + QMatrix.eye(T.rows)
        left = func_calc(f, "left", T, contour, spec)
        right = func_calc(f, "right", T, contour, spec)
        scale = op_norm(direct)
        worst_poly = max(worst_poly,
                         op_norm(left - direct) / scale,
                         op_norm(right - direct) / scale)
        worst_adj = max(worst_adj, calc_adjoint_check(f, T, contour))

        c_i = build_contour([spec.spheres[0]], [spec.spheres[1]],
                            m=UNIT_I, nodes=128)
        c_t = build_contour([spec.spheres[0]], [spec.spheres[1]],
                            m=_M_TILTED, nodes=128)
        P_i = riesz_projection(T, c_i, spec)
        P_t = riesz_projection(T, c_t, spec)
        worst_slice = max(worst_slice, op_norm(P_i - P_t))
    return [
        _check("calculus", "real polynomial matches direct evaluation",
               worst_poly, tols["calculus-poly"]),
        _check("calculus", "adjoint rule f(T)* = fhat(T*)",
               worst_adj, tols["calculus-adjoint"]),
        _check("calculus", "slice independence of projections",
               worst_slice, tols["slice-agreement"]),
    ]


def suite_extension(rng, tols) -> list[dict]:
    """Norm preservation and roundtrip of the slice-extension map."""
    worst_norm = 0.0
    worst_round = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        U = _random_unitary(rng, n)
        i_diag = QMatrix.diag([Quaternion(0, 1, 0, 0)] * n)
        J = U @ i_diag @ U.adjoint()
        basis = plus_eigenbasis(J)
        Sp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Tq = extend(Sp, J, basis=basis)
        norm_S = np.linalg.norm(Sp, 2)
        worst_norm = max(worst_norm, abs(op_norm(Tq) - norm_S) / norm_S)
        back = restrict(Tq, J, basis=basis)
        worst_round = max(worst_round,
                          np.linalg.norm(back - Sp, 2) / norm_S)
        commute = op_norm(J @ Tq - Tq @ J) / op_norm(Tq)
        worst_round = max(worst_round, commute)
    return [
        _check("extension", "norm preservation ||T~|| = ||S||",
               worst_norm, tols["extension-norm"]),
        _check("extension", "restrict(extend(S)) = S and JT~ = T~J",
               worst_round, tols["extension-roundtrip"]),
    ]


def _small_catalog() -> list[QMatrix]:
    """Deterministic n <= 3 suite covering the Jordan-structure cases."""
    one = Quaternion(1, 0, 0, 0)
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    half = Quaternion(0.5, 0, 0, 0)
    three = Quaternion(3, 0, 0, 0)

    def jordan(lams, ones):
        M = QMatrix.diag(lams).entries.copy()
        for r in ones:
            M[r, r + 1] = one.to_array()
        return QMatrix(M)

    cat = [
        QMatrix.diag([i]),
        QMatrix.diag([half]),
        QMatrix.diag([i, i]),
        QMatrix.diag([i, j]),            # same sphere, different axes
        QMatrix.diag([i, three]),
        QMatrix.diag([half, half]),
        jordan([i, i], [0]),
        jordan([half, half], [0]),
        jordan([i, i, i], [0, 1]),
        jordan([i, i, i], [0]),          # two blocks, one sphere
        jordan([half, half, half], [0, 1]),
        jordan([i, i, three], [0]),
        QMatrix.diag([i, j, three]),
        QMatrix.diag([half, three, i]),
    ]
    return cat


def suite_irreducibility(rng, tols) -> list[dict]:
    """Structural decisions vs brute-force search, similarity invariance,
    and agreement with the complex decision under extension."""
    disagreements = 0
    witness_bad = 0.0
    catalog = _small_catalog()
    for T in catalog:
        report = is_strongly_irreducible(T)
        oracle = _find_idempotent(T, seed=7)
        structural_si = report.verdict == "irreducible"
        oracle_si = oracle is None
        if report.verdict == "indeterminate" or structural_si != oracle_si:
            disagreements += 1
        if report.witness is not None:
            E = report.witness
            witness_bad = max(
                witness_bad,
                op_norm(E @ E - E),
                op_norm(E @ T - T @ E) / op_norm(T))

    flips = 0
    bases = [catalog[6], catalog[4]]  # one SI, one not
    for k in range(50):
        T = bases[k % 2]
        verdict0 = is_strongly_irreducible(T).verdict
        while True:
            G = _random_qmatrix(rng, T.rows) + QMatrix.real_scalar(T.rows, 2.0)
            sv = np.linalg.svd(chi(G), compute_uv=False)
            if sv[0] / sv[-1] < 20.0:
                break
        Ginv = np.linalg.inv(chi(G))
        Tsim = chi_inv(chi(G) @ chi(T) @ Ginv, tol=1e-6)
        if is_strongly_irreducible(Tsim).verdict != verdict0:
            flips += 1

    ext_disagree = 0
    n = 3
    U = _random_unitary(rng, n)
    J = U @ QMatrix.diag([Quaternion(0, 1, 0, 0)] * n) @ U.adjoint()
    complex_catalog = [
        np.diag([1j, 1j, 1j]),
        np.diag([1j, -1j, 0.5]),
        np.array([[1j, 1, 0], [0, 1j, 1], [0, 0, 1j]]),
        np.array([[0.5, 1, 0], [0, 0.5, 1], [0, 0, 0.5]]),
        np.array([[1j, 1, 0], [0, 1j, 0], [0, 0, 1j]]),
        np.diag([0.5, 0.5, 3.0]),
    ]
    for Sp in complex_catalog:
        rep = extension_irreducibility_check(Sp, J)
        if not rep["agree"]:
            ext_disagree += 1

    return [
        _check("irreducibility", "structural vs idempotent-search oracle",
               float(disagreements), 0.5),
        _check("irreducibility", "witness idempotents certified",
               witness_bad, 1e-6),
        _check("irreducibility", "similarity invariance (50 similarities)",
               float(flips), 0.5),
        _check("irreducibility", "extension decision agreement",
               float(ext_disagree), 0.5),
    ]


def _normal_example_commutator_norm(n: int) -> float:
    """Closed-form ||[T, T*]|| of the "normal" example on the n-cell grid.

    With u = x, v = x^2, M = M_{x chi} and T = M + (1/2)|u><v|,

        [T, T*] = (1/2)(|Mv><u| + |u><Mv| - |Mu><v| - |v><Mu|)
                  + (1/4)(||v||^2 |u><u| - ||u||^2 |v><v|),

    that is sum_ij C_ij |f_i><f_j| over f = (x, x^2, x^2 chi, x^3 chi).  Its
    nonzero eigenvalues are those of C G, with G the Gram matrix of f in the
    grid inner product h * sum_r f(x_r) g(x_r).
    """
    x = grid_points(n)
    chi = (x <= 1.0 / 3.0).astype(float)
    f = np.stack([x, x ** 2, x ** 2 * chi, x ** 3 * chi])
    G = f @ f.T / n
    C = np.zeros((4, 4))
    C[0, 3] = C[3, 0] = 0.5
    C[1, 2] = C[2, 1] = -0.5
    C[0, 0] = G[1, 1] / 4.0
    C[1, 1] = -G[0, 0] / 4.0
    return float(np.max(np.abs(np.linalg.eigvals(C @ G))))


def suite_discretize(tols) -> list[dict]:
    """Grid-operator norms, convergence, factorizations, normality defects."""
    out = []
    errs = [abs(volterra_norm(n) - 1.0 / math.pi)
            for n in (64, 128, 256, 512, 1024)]
    out.append(_check("discretize", "Volterra norm at n=1024 vs 1/pi",
                      errs[-1], tols["volterra-window"]))
    monotone = all(errs[k + 1] <= errs[k] for k in range(len(errs) - 1))
    decay = all(e <= 2.0 / n for e, n in zip(errs, (64, 128, 256, 512, 1024)))
    out.append(_check("discretize", "Volterra error decay ~C/n (monotone)",
                      0.0 if (monotone and decay) else 1.0, 0.5))

    worst_rankone = 0.0
    bound_ok = True
    for n in (4, 7, 16, 64, 256):
        nk = op_norm(kernel_op(lambda x, y: 0.5 * x * y, n))
        if abs(nk - 1.0 / 6.0) > 2.0 / n:
            worst_rankone = max(worst_rankone, abs(nk - 1.0 / 6.0))
        if nk >= tols["rankone-bound"]:
            bound_ok = False
    out.append(_check("discretize", "rank-one kernel norm near 1/6, below 1/3",
                      worst_rankone if bound_ok else 1.0, 1e-12))

    bundles = {which: paper_example(which, 96)
               for which in ("normal", "nonnormal")}
    for which, b in bundles.items():
        scale = max(b.diagnostics["norm_T"], 1e-12)
        out.append(_check(
            "discretize", f"{which}: factorization residual T = (W+K)S",
            b.diagnostics["factorization_residual"] / scale,
            tols["factorization"]))
        out.append(_check(
            "discretize", f"{which}: ||K|| below 1/2",
            b.diagnostics["norm_K"], 0.5))
    bn, bm = bundles["normal"], bundles["nonnormal"]
    closed = _normal_example_commutator_norm(96)
    out.append(_check(
        "discretize", "normal example: normality defect vs closed form",
        abs(bn.diagnostics["normality_defect"] - closed) / closed,
        tols["normality-normal"]))
    out.append(_check(
        "discretize", "nonnormal example: non-normality certified",
        bm.diagnostics["normality_defect"] / bm.diagnostics["norm_T"] ** 2,
        tols["nonnormality-floor"], direction=">"))
    return out


_SUITES = {
    "resolvent": suite_resolvent,
    "cartesian": suite_cartesian,
    "polar": suite_polar,
    "riesz": suite_riesz,
    "calculus": suite_calculus,
    "extension": suite_extension,
    "irreducibility": suite_irreducibility,
    "discretize": lambda rng, tols: suite_discretize(tols),
}
SUITES = tuple(_SUITES)


def run_all(seed: int = 0, tol_overrides: dict | None = None,
            suites=SUITES) -> dict:
    """Run the selected suites; report is deterministic for a fixed seed."""
    tols = default_tolerances()
    if tol_overrides:
        unknown = set(tol_overrides) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update(tol_overrides)
    checks: list[dict] = []
    for name in suites:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        checks += _SUITES[name](rng, tols)
    return {
        "seed": seed,
        "tolerances": tols,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
