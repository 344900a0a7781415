"""Closed-form oracles for the benchmark, independent of quatcalc.

Quaternion matrices are (rows, cols, 4) float arrays of [w, x, y, z]
entries.  The complex adjoint chi(T) = [[A, B], [-conj(B), conj(A)]] of
T = A + B j is re-implemented here with numpy alone, so no oracle routes
through the library code it checks.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# quaternion matrices through the complex adjoint
# ---------------------------------------------------------------------------


def chi(e: np.ndarray) -> np.ndarray:
    A = e[..., 0] + 1j * e[..., 1]
    B = e[..., 2] + 1j * e[..., 3]
    return np.block([[A, B], [-B.conj(), A.conj()]])


def unchi(M: np.ndarray) -> np.ndarray:
    n, m = M.shape[0] // 2, M.shape[1] // 2
    A = 0.5 * (M[:n, :m] + M[n:, m:].conj())
    B = 0.5 * (M[:n, m:] - M[n:, :m].conj())
    return np.stack([A.real, A.imag, B.real, B.imag], axis=-1)


def qeye(n: int) -> np.ndarray:
    e = np.zeros((n, n, 4))
    e[np.arange(n), np.arange(n), 0] = 1.0
    return e


def qmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return unchi(chi(a) @ chi(b))


def op_norm(e: np.ndarray) -> float:
    """Largest singular value of chi(e): the quaternionic operator norm."""
    return float(np.linalg.norm(chi(e), 2))


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return op_norm(got - ref) / max(op_norm(ref), 1e-300)


# ---------------------------------------------------------------------------
# the paper's discretized operators (midpoint grid, half-diagonal Volterra)
# ---------------------------------------------------------------------------


def grid_points(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def volterra_norm(n: int) -> float:
    """Exact norm of the n-cell Volterra matrix with coefficient 1/2.

    The matrix equals (h/4)(I + N)(I - N)^-1 with N the nilpotent shift, a
    scaled Cayley transform of N, whose norm is cot(pi/4n)/(4n).
    """
    return 1.0 / (4.0 * n * math.tan(math.pi / (4.0 * n)))


def normal_kernel_norm(n: int) -> float:
    """Norm of the rank-one kernel (1/2) x y on the grid: (h/2) sum x_r^2."""
    return 1.0 / 6.0 - 1.0 / (24.0 * n * n)


def _cut_position(n: int) -> np.ndarray:
    """Diagonal of W S: x_r on [0, 1/3], zero beyond."""
    x = grid_points(n)
    return np.where(x <= 1.0 / 3.0, x, 0.0)


def nonnormal_T(n: int) -> np.ndarray:
    """T = W S + (j/2) Int_0^x y g(y) dy on the grid (half-diagonal rule)."""
    x = grid_points(n)
    e = np.zeros((n, n, 4))
    e[np.arange(n), np.arange(n), 0] = _cut_position(n)
    weights = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
    e[..., 2] = 0.5 * weights * x[None, :] / n
    return e


def normal_T(n: int) -> np.ndarray:
    """T = W S + (1/2) Int_0^1 x y^2 g(y) dy on the grid."""
    x = grid_points(n)
    e = np.zeros((n, n, 4))
    e[..., 0] = 0.5 * np.outer(x, x * x) / n
    e[np.arange(n), np.arange(n), 0] += _cut_position(n)
    return e


def nonnormal_spheres(n: int) -> np.ndarray:
    """Spectrum of the lower-triangular nonnormal T as (re, rad) rows.

    The diagonal entries are x_r 1[x_r <= 1/3] + j x_r/(4n), so sphere r is
    (x_r 1[x_r <= 1/3], x_r/(4n)); all n spheres are distinct.
    """
    return np.stack([_cut_position(n), grid_points(n) / (4.0 * n)], axis=1)


def hausdorff(a, b) -> float:
    """Hausdorff distance of two (re, rad) point sets."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# seeded non-normal inputs with a known Riesz projection
# ---------------------------------------------------------------------------


class SimilarInput:
    """T = G D G^-1 with D diagonal on a chosen sphere set.

    Entry r of D is re + rad m_r with a random unit imaginary m_r, so it
    lies on sphere ``labels[r]``.  G = I + 0.3 randn / sqrt(n) keeps
    cond(chi(G)) near 5, so T is non-normal but well conditioned.
    """

    def __init__(self, rng: np.random.Generator, spheres, n: int):
        self.spheres = [(float(re), float(rad)) for re, rad in spheres]
        self.labels = np.arange(n) % len(self.spheres)
        D = np.zeros((n, n, 4))
        for r, k in enumerate(self.labels):
            re, rad = self.spheres[k]
            m = rng.standard_normal(3)
            D[r, r, 0] = re
            D[r, r, 1:] = rad * m / np.linalg.norm(m)
        G = qeye(n) + 0.3 * rng.standard_normal((n, n, 4)) / math.sqrt(n)
        self.Gc = chi(G)
        self.Gc_inv = np.linalg.inv(self.Gc)
        self.T = unchi(self.Gc @ chi(D) @ self.Gc_inv)

    def multiplicity(self, k: int) -> int:
        return int(np.count_nonzero(self.labels == k))

    def riesz_projection(self, k: int) -> np.ndarray:
        """P = chi^-1(chi(G) chi(E) chi(G)^-1), E selecting sphere k of D."""
        sel = np.tile(self.labels == k, 2)
        E = np.diag(sel.astype(float))
        return unchi(self.Gc @ E @ self.Gc_inv)


def idempotent_certificate(E: np.ndarray,
                           T: np.ndarray) -> tuple[float, float]:
    """(||E^2 - E|| / ||E||, ||ET - TE|| / (||E|| ||T||)) for a witness E.

    Both vanish for an idempotent commuting with T.  Nontriviality is
    checked separately: a nonzero idempotent has norm >= 1, and so does
    I - E unless E = I.
    """
    Ec, Tc = chi(E), chi(T)
    nE = max(np.linalg.norm(Ec, 2), 1e-300)
    nT = max(np.linalg.norm(Tc, 2), 1e-300)
    idem = np.linalg.norm(Ec @ Ec - Ec, 2) / nE
    comm = np.linalg.norm(Ec @ Tc - Tc @ Ec, 2) / (nE * nT)
    return float(idem), float(comm)


def is_nontrivial(E: np.ndarray) -> bool:
    n = E.shape[0]
    return op_norm(E) >= 0.5 and op_norm(qeye(n) - E) >= 0.5
