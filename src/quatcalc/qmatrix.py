"""Quaternionic matrices acting on right-module column vectors.

A ``QMatrix`` stores an (n, m, 4) float array of quaternion entries.  All
matrix algebra goes through the complex pair T = A + B*j (A, B complex in
the slice C_i) and its complex adjoint representation

    chi(T) = [[A, B], [-conj(B), conj(A)]],

a real-algebra *-isomorphism onto the 2n x 2m complex matrices satisfying
J0 M = conj(M) J0 with J0 = [[0, I], [-I, 0]].  Products use the pair rule
(A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j,
i.e. four complex GEMMs; eigen/SVD work is a LAPACK call on chi(T), through
numpy only, so one BLAS library serves every hot path (``normal_eigensystem``
imports scipy for its Schur form).
Vectors v = a + b*j embed as psi(v) = [a; -conj(b)], so
chi(T) psi(v) = psi(T v) and psi is isometric.

Slice-valued T, whose entries all lie in one slice C_u (at most one of the
three imaginary components is nonzero anywhere), take a shortcut: chi(T) is
unitarily similar to Z (+) conj(Z), where Z = w + i*c_u is n x m (real when
T is real; Zhang, "Quaternions and matrices of quaternions", LAA 1997).
``op_norm`` (the largest eigenvalue of a Gram matrix) and the spectrum
factor Z, which has a quarter of the entries of chi(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternion import ImaginaryUnit, Quaternion, UNIT_I, qconj, qmul

__all__ = [
    "QMatrix",
    "chi",
    "chi_inv",
    "chi_vec",
    "chi_vec_inv",
    "op_norm",
    "positive_sqrt",
    "modulus",
    "polar",
    "cartesian",
    "slice_split",
    "extend",
    "restrict",
    "plus_eigenbasis",
    "normal_eigensystem",
    "gram_schmidt",
]


class QMatrix:
    """Immutable quaternion matrix; entries array has shape (rows, cols, 4)."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 3 or entries.shape[2] != 4:
            raise ValueError("entries must have shape (rows, cols, 4)")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return QMatrix(np.zeros((rows, cols, 4)))

    @staticmethod
    def eye(n: int) -> "QMatrix":
        e = np.zeros((n, n, 4))
        e[np.arange(n), np.arange(n), 0] = 1.0
        return QMatrix(e)

    @staticmethod
    def diag(values) -> "QMatrix":
        vals = [v if isinstance(v, Quaternion) else _as_quat(v) for v in values]
        n = len(vals)
        e = np.zeros((n, n, 4))
        for r, v in enumerate(vals):
            e[r, r] = v.to_array()
        return QMatrix(e)

    @staticmethod
    def from_complex(M: np.ndarray) -> "QMatrix":
        """Entrywise embedding of a complex matrix into the slice C_i."""
        M = np.asarray(M, dtype=complex)
        e = np.zeros((*M.shape, 4))
        e[..., 0] = M.real
        e[..., 1] = M.imag
        return QMatrix(e)

    @staticmethod
    def real_scalar(n: int, value: float) -> "QMatrix":
        e = np.zeros((n, n, 4))
        e[np.arange(n), np.arange(n), 0] = value
        return QMatrix(e)

    # -- shape / access ------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, rc) -> Quaternion:
        r, c = rc
        return Quaternion.from_array(self.entries[r, c])

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.entries + other.entries)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.entries - other.entries)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.entries)

    def __mul__(self, scalar: float) -> "QMatrix":
        return QMatrix(self.entries * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in quaternion matmul")
        A1, B1 = _pair(self.entries)
        A2, B2 = _pair(other.entries)
        return QMatrix(_unpair(A1 @ A2 - B1 @ B2.conj(),
                               A1 @ B2 + B1 @ A2.conj()))

    def adjoint(self) -> "QMatrix":
        return QMatrix(np.transpose(qconj(self.entries), (1, 0, 2)))

    def scale_left(self, q: Quaternion) -> "QMatrix":
        """q . T  (left module action: entrywise left multiplication by q)."""
        return QMatrix(qmul(q.to_array(), self.entries))

    def scale_right(self, q: Quaternion) -> "QMatrix":
        """T . q  (right module action: entrywise right multiplication by q)."""
        return QMatrix(qmul(self.entries, q.to_array()))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Left action on an (n, 4) quaternionic column vector."""
        return chi_vec_inv(chi(self) @ chi_vec(vec))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": self.entries.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "QMatrix":
        data = np.asarray(obj["data"], dtype=float)
        if data.shape != (obj["rows"], obj["cols"], 4):
            raise ValueError("matrix data does not match declared shape")
        return QMatrix(data)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def _as_quat(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, ImaginaryUnit):
        return v.to_quaternion()
    if isinstance(v, complex):
        return Quaternion.from_complex(v)
    return Quaternion(float(v))


# ---------------------------------------------------------------------------
# complex adjoint representation
# ---------------------------------------------------------------------------

def _pair(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quaternion components (..., 4) -> complex pair (A, B), q = A + B*j."""
    return e[..., 0] + 1j * e[..., 1], e[..., 2] + 1j * e[..., 3]


def _unpair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Inverse of ``_pair``: complex (A, B) -> components (..., 4)."""
    e = np.empty((*A.shape, 4))
    e[..., 0], e[..., 1] = A.real, A.imag
    e[..., 2], e[..., 3] = B.real, B.imag
    return e


def chi(T: QMatrix) -> np.ndarray:
    """Complex 2n x 2m adjoint representation of T."""
    A, B = _pair(T.entries)
    # concatenate, not np.block: np.block's Python overhead dominates the
    # 2 x 2 chi(q) taken twice per quadrature node
    return np.concatenate([np.concatenate([A, B], axis=1),
                           np.concatenate([-B.conj(), A.conj()], axis=1)])


def _chi_defect(M: np.ndarray) -> float:
    n2, m2 = M.shape
    n, m = n2 // 2, m2 // 2
    P, Q = M[:n, :m], M[:n, m:]
    R, S = M[n:, :m], M[n:, m:]
    return max(np.abs(S - P.conj()).max(initial=0.0),
               np.abs(R + Q.conj()).max(initial=0.0))


def chi_inv(M: np.ndarray, tol: float = 1e-12) -> QMatrix:
    """Inverse of ``chi``; validates the symplectic compatibility J0 M = conj(M) J0.

    ``tol`` is relative to the largest entry of M.  Either way the result
    is the projection onto the image of chi (the average of M with its
    J0-conjugate), so ``tol=math.inf`` projects without the check.
    """
    M = np.asarray(M, dtype=complex)
    n2, m2 = M.shape
    if n2 % 2 or m2 % 2:
        raise ValueError("chi image must have even dimensions")
    n, m = n2 // 2, m2 // 2
    scale = max(np.abs(M).max(initial=0.0), 1.0)
    if _chi_defect(M) > tol * scale:
        raise ValueError("matrix is not in the image of chi "
                         f"(defect {_chi_defect(M):.3e}, scale {scale:.3e})")
    A = 0.5 * (M[:n, :m] + M[n:, m:].conj())
    B = 0.5 * (M[:n, m:] - M[n:, :m].conj())
    return QMatrix(_unpair(A, B))


def _mirror_defect(M: np.ndarray, z: complex, R: np.ndarray) -> float:
    """Round-off sentinel of R = (M - z)^-1, M in the image of chi.

    As J0 M J0^-1 = conj(M), the inverse at conj(z) is exactly the block
    mirror [[conj U, -conj S], [-conj Q, conj P]] of R = [[P, Q], [S, U]];
    returns its largest gap to an independent inverse there (R if z is real).
    """
    n = R.shape[0] // 2
    mirror = np.block([[R[n:, n:], -R[n:, :n]], [-R[:n, n:], R[:n, :n]]])
    R_c = np.linalg.inv(M - np.conj(z) * np.eye(2 * n)) if z.imag else R
    return float(np.abs(R_c - mirror.conj()).max(initial=0.0))


def chi_vec(v: np.ndarray) -> np.ndarray:
    """psi: (n, 4) quaternionic vector -> 2n complex vector [a; -conj(b)]."""
    a, b = _pair(np.asarray(v, dtype=float))
    return np.concatenate([a, -b.conj()])


def chi_vec_inv(z: np.ndarray) -> np.ndarray:
    """Inverse of ``chi_vec``; a (2n, k) array maps columnwise to (n, k, 4)."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[0] // 2
    return _unpair(z[:n], -z[n:].conj())


# ---------------------------------------------------------------------------
# norms, square roots, polar decomposition
# ---------------------------------------------------------------------------

def _slice_matrix(T: QMatrix) -> np.ndarray | None:
    """The n x m matrix Z with chi(T) unitarily similar to Z (+) conj(Z), or None.

    Z exists when at most one imaginary component u of the entries is
    nonzero anywhere (an exact test, no tolerance): it is the real part w
    when T is real and w + i*c_u when every entry lies in the slice C_u.
    """
    e = T.entries
    used = [u for u in (1, 2, 3) if e[..., u].any()]
    if len(used) > 1:
        return None
    if not used:
        return e[..., 0]
    return e[..., 0] + 1j * e[..., used[0]]


def op_norm(T: QMatrix) -> float:
    """Operator norm sup{|Tx| : |x| <= 1} = largest singular value of chi(T).

    M is the n x m ``_slice_matrix`` Z for slice-valued T (chi(T) is
    unitarily similar to Z (+) conj(Z)) and chi(T) otherwise.  With
    s = max|M| and X = M / s, ||T|| = s * sqrt(lambda_max(G)) for the
    Hermitian Gram matrix G = X* X (X X* when M has fewer rows than columns),
    found by one ``eigvalsh``.  Scaling to unit entries keeps G clear of
    overflow and underflow (a subnormal s is first raised by 2^600, exactly,
    since a complex M / s would overflow).  By Weyl's inequality the
    computed lambda_max is off by about eps * ||G|| = eps * ||X||^2, so
    sigma_max keeps full relative accuracy.  Callers that need the smallest singular value (point
    spectrum, kernel and range bases) must keep an SVD: the Gram matrix
    squares its condition number.  A non-finite entry raises ``ValueError``.
    """
    if T.rows == 0 or T.cols == 0:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf * 1j; reported below
        M = _slice_matrix(T)
        if M is None:
            M = chi(T)
    s = float(np.abs(M).max())
    if not math.isfinite(s):
        r, c = np.argwhere(~np.isfinite(T.entries))[0][:2]
        raise ValueError(f"operator norm of a matrix with a non-finite entry "
                         f"{T.entries[r, c].tolist()} at ({r}, {c})")
    if s == 0.0:
        return 0.0
    shift = 0
    if s < np.finfo(float).tiny:
        shift = 600
        M = M * 2.0 ** shift
        s = float(np.abs(M).max())
    X = M / s
    del M
    G = X.conj().T @ X if X.shape[0] >= X.shape[1] else X @ X.conj().T
    del X
    return math.ldexp(
        s * math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0)), -shift)


def positive_sqrt(T: QMatrix, tol: float = 1e-10) -> QMatrix:
    """Unique positive square root of a positive operator.

    Eigenvalues of chi(T) may dip slightly negative; they are clipped at
    -1e-12 * ||T|| and anything below that is a domain error.
    """
    if not T.is_square:
        raise ValueError("square root requires a square matrix")
    M = chi(T)
    scale = max(np.abs(M).max(initial=0.0), 1.0)
    if np.abs(M - M.conj().T).max(initial=0.0) > tol * scale:
        raise ValueError("square root requires a self-adjoint operator")
    lam, V = np.linalg.eigh(0.5 * (M + M.conj().T))
    floor = -1e-12 * scale
    if lam.min(initial=0.0) < floor:
        raise ValueError(f"operator is indefinite (min eigenvalue {lam.min():.3e})")
    root = V @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ V.conj().T
    return chi_inv(root, tol=math.inf)


def modulus(T: QMatrix) -> QMatrix:
    """|T| = (T* T)^(1/2)."""
    return positive_sqrt(T.adjoint() @ T)


def polar(T: QMatrix, rank_tol: float = 1e-10) -> tuple[QMatrix, QMatrix]:
    """Polar decomposition T = W0 |T| with N(T) = N(W0).

    W0 is the partial isometry T |T|^+ ; zero singular values map to zero so
    that the null spaces of T and W0 coincide.
    """
    if not T.is_square:
        raise ValueError("polar decomposition requires a square matrix")
    M = chi(T)
    H = M.conj().T @ M
    lam, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    lam = np.clip(lam, 0.0, None)
    sv = np.sqrt(lam)
    cutoff = rank_tol * max(sv.max(initial=0.0), 1e-300)
    inv_sv = np.where(sv > cutoff, 1.0 / np.where(sv > cutoff, sv, 1.0), 0.0)
    absT = V @ np.diag(sv) @ V.conj().T
    W = M @ V @ np.diag(inv_sv) @ V.conj().T
    return chi_inv(W, tol=math.inf), chi_inv(absT, tol=math.inf)


# ---------------------------------------------------------------------------
# normal eigensystem (quaternionic spectral decomposition)
# ---------------------------------------------------------------------------

def _right_j(z: np.ndarray) -> np.ndarray:
    """psi(v) -> psi(v*j), columnwise: [a; -conj(b)] -> [-b; -conj(a)]."""
    n = z.shape[0] // 2
    return np.concatenate([z[n:].conj(), -z[:n].conj()])


def gram_schmidt(Z: np.ndarray, k: int, tol: float) -> tuple[list[int], QMatrix]:
    """Quaternionic Gram-Schmidt over the psi images in the columns of Z.

    Columns are visited in order; each is orthogonalized against the
    quaternionic span of the accepted vectors v (the complex span of psi(v)
    and psi(v*j)) and accepted when its residual norm exceeds ``tol``, until
    k are accepted.  Returns the accepted column indices and the QMatrix
    whose k columns are the orthonormal quaternionic vectors.
    """
    n = Z.shape[0] // 2
    V = np.empty((2 * n, 2 * k), dtype=complex)
    kept: list[int] = []
    for idx in range(Z.shape[1]):
        if len(kept) == k:
            break
        Vk = V[:, :2 * len(kept)]
        u = Z[:, idx]
        for _ in range(2):  # re-orthogonalize once: "twice is enough"
            u = u - Vk @ (Vk.conj().T @ u)
        nu = np.linalg.norm(u)
        if nu > tol:
            u = u / nu
            V[:, 2 * len(kept)] = u
            V[:, 2 * len(kept) + 1] = _right_j(u)
            kept.append(idx)
    if len(kept) < k:
        raise RuntimeError(f"found {len(kept)} of {k} quaternionic "
                           "orthonormal vectors")
    return kept, QMatrix(chi_vec_inv(V[:, 0::2]))


def normal_eigensystem(T: QMatrix, tol: float = 1e-9) -> tuple[np.ndarray, QMatrix]:
    """Spectral decomposition of a normal T: T = U diag(lam) U*.

    Returns ``(lam, U)`` where ``lam`` is a complex array of eigenvalues in
    the closed upper half plane of C_i and the columns of the unitary U are
    quaternionic eigenvectors: T u_l = u_l * lam_l.
    """
    if not T.is_square:
        raise ValueError("eigensystem requires a square matrix")
    n = T.rows
    N = chi(T)
    scale = max(op_norm(T), 1.0)
    defect = np.abs(N @ N.conj().T - N.conj().T @ N).max(initial=0.0)
    if defect > tol * scale ** 2 * 10:
        raise ValueError(f"matrix is not normal (defect {defect:.3e})")
    # numpy has no Schur form; the only scipy.linalg call in the package,
    # imported here so that no hot path loads a second BLAS library
    import scipy.linalg

    Tsch, Q = scipy.linalg.schur(N, output="complex")
    lam = np.diag(Tsch)
    order = np.lexsort((np.abs(lam.imag), lam.real))
    lam, Z = lam[order], Q[:, order]
    # canonicalize to the upper half plane: u*j is an eigenvector for conj(lam)
    low = lam.imag < 0
    Z[:, low] = _right_j(Z[:, low])
    lam[low] = lam[low].conj()
    kept, U = gram_schmidt(Z, n, 0.1)
    return lam[kept], U


# ---------------------------------------------------------------------------
# Cartesian decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartesianParts:
    """T = A + (1/2) J B with A = (T+T*)/2 and B = |T - T*|."""

    A: QMatrix
    B: QMatrix
    J: QMatrix


def cartesian(T: QMatrix, tol: float = 1e-10) -> CartesianParts:
    """Cartesian decomposition of a normal operator.

    J is the phase of T - T* on the complement of its kernel; on the kernel
    it acts as right multiplication by i in the Schur-adapted eigenbasis
    (a deterministic but non-unique completion).
    """
    if not T.is_square:
        raise ValueError("cartesian decomposition requires a square matrix")
    scale = max(op_norm(T), 1e-300)
    defect = op_norm(T.adjoint() @ T - T @ T.adjoint())
    if defect > tol * scale ** 2 * 10:
        raise ValueError(f"cartesian decomposition requires a normal operator "
                         f"(defect {defect:.3e})")
    lam, U = normal_eigensystem(T)
    A = 0.5 * (T + T.adjoint())
    Uc = chi(U)
    d = 2.0 * np.abs(lam.imag)
    B = chi_inv(Uc @ np.diag(np.concatenate([d, d])) @ Uc.conj().T,
                tol=math.inf)
    i_diag = np.diag(np.concatenate([1j * np.ones(T.rows), -1j * np.ones(T.rows)]))
    J = chi_inv(Uc @ i_diag @ Uc.conj().T, tol=math.inf)
    return CartesianParts(A=A, B=B, J=J)


# ---------------------------------------------------------------------------
# slice splitting and the extension map
# ---------------------------------------------------------------------------

def slice_split(x: np.ndarray, J: QMatrix, m: ImaginaryUnit = UNIT_I
                ) -> tuple[np.ndarray, np.ndarray]:
    """Split x = x_+ + x_- with J x_pm = +- x_pm * m; x as (n, 4) array."""
    x = np.asarray(x, dtype=float)
    Jxm = qmul(J.apply(x), m.to_array())
    x_plus = 0.5 * (x - Jxm)
    x_minus = 0.5 * (x + Jxm)
    return x_plus, x_minus


def plus_eigenbasis(J: QMatrix, tol: float = 1e-10) -> QMatrix:
    """Quaternionic-orthonormal basis of H_+^{Ji} = {x : Jx = x*i}.

    Returned as the n x n QMatrix whose columns u_l satisfy J u_l = u_l * i;
    they form a Hilbert basis of the whole space over the quaternions.
    """
    if not J.is_square:
        raise ValueError("J must be square")
    n = J.rows
    M = chi(J)
    scale = max(np.abs(M).max(initial=0.0), 1.0)
    if (np.abs(M + M.conj().T).max(initial=0.0) > tol * scale
            or np.abs(M @ M.conj().T - np.eye(2 * n)).max(initial=0.0) > tol * 10):
        raise ValueError("J must be anti-self-adjoint and unitary")
    H = -1j * M  # Hermitian with eigenvalues +-1
    lam, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    plus = V[:, lam > 0.0]
    if plus.shape[1] != n:
        raise ValueError("+i eigenspace of J has wrong dimension")
    return QMatrix(chi_vec_inv(plus))


def extend(Tp: np.ndarray, J: QMatrix, basis: QMatrix | None = None) -> QMatrix:
    """Quaternionic extension of a C_i-linear operator on H_+^{Ji}.

    ``Tp`` is the complex matrix of the operator in an orthonormal basis of
    the +i eigenspace of J (computed from J when not supplied).  The
    anticommuting unit completing the basis is fixed to j.
    """
    Tp = np.asarray(Tp, dtype=complex)
    n = J.rows
    if Tp.shape != (n, n):
        raise ValueError("operator matrix must be n x n for J on H^n")
    U = plus_eigenbasis(J) if basis is None else basis
    Tq = QMatrix.from_complex(Tp)
    return U @ Tq @ U.adjoint()


def restrict(V: QMatrix, J: QMatrix, tol: float = 1e-10,
             basis: QMatrix | None = None) -> np.ndarray:
    """Complex matrix of a J-commuting operator restricted to H_+^{Ji}."""
    scale = max(op_norm(V), 1.0)
    if op_norm(J @ V - V @ J) > tol * scale * 10:
        raise ValueError("operator does not commute with J; no restriction exists")
    U = plus_eigenbasis(J) if basis is None else basis
    R = U.adjoint() @ V @ U
    e = R.entries
    if np.abs(e[..., 2:]).max(initial=0.0) > tol * scale * 10:
        raise ValueError("restriction is not C_i-valued")
    return e[..., 0] + 1j * e[..., 1]
