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
Z has a quarter of the entries of chi(T).  Two operands in one slice (a
real one lies in every slice) multiply as one complex GEMM of their Z;
``op_norm`` takes the largest eigenvalue of a Gram matrix of Z (of the real
C when Z = iC, by products alone when that table is real and
nonnegative), and the spectrum factors Z.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .quaternion import (ImaginaryUnit, Quaternion, UNIT_I, _coerce, qconj,
                         qmul)

__all__ = [
    "QMatrix",
    "chi",
    "chi_inv",
    "chi_vec",
    "chi_vec_inv",
    "op_norm",
    "norm_scale",
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

_log = logging.getLogger("quatcalc")

# the Perron path of _matrix_norm: the Collatz-Wielandt bracket on
# lambda_max(X^T X) must close to this relative width (so sigma_max is
# certified to 8 eps) within this many products X^T (X v)
_PERRON_TOL = 16 * np.finfo(float).eps
_PERRON_CAP = 64


class QMatrix:
    """Immutable quaternion matrix; entries array has shape (rows, cols, 4).

    ``QMatrix(e)`` copies ``e``, so an array that stays with the caller can
    be changed later without touching the matrix.  Arrays the library has
    just built (the results of the algebra, the builders, ``chi_inv``, the
    grid operators) are adopted by ``QMatrix._adopt`` without a copy.  Either
    way the entries are a read-only, C-contiguous float64 array.  As they
    cannot change, ``op_norm`` keeps its result in the second slot
    ``_norm``, set once, and computes the norm at most once per matrix; a
    new matrix with equal entries computes its own.
    """

    __slots__ = ("entries", "_norm")

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 3 or entries.shape[2] != 4:
            raise ValueError("entries must have shape (rows, cols, 4)")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "QMatrix":
        """Wrap a fresh array that no one else holds, without a copy.

        ``entries`` must be C-contiguous float64 of shape (rows, cols, 4),
        the layout ``QMatrix(e)`` makes; it becomes read-only.
        """
        if not (entries.dtype == np.float64 and entries.ndim == 3
                and entries.shape[2] == 4 and entries.flags.c_contiguous):
            raise ValueError("entries must be a C-contiguous float64 array "
                             "of shape (rows, cols, 4)")
        entries.setflags(write=False)
        T = object.__new__(cls)
        object.__setattr__(T, "entries", entries)
        return T

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return QMatrix._adopt(np.zeros((rows, cols, 4)))

    @staticmethod
    def eye(n: int) -> "QMatrix":
        return QMatrix.real_scalar(n, 1.0)

    @staticmethod
    def diag(values) -> "QMatrix":
        d = np.array([(q.w, q.x, q.y, q.z) for q in map(_coerce, values)])
        n = len(d)
        e = np.zeros((n, n, 4))
        e[np.arange(n), np.arange(n)] = d.reshape(n, 4)
        return QMatrix._adopt(e)

    @staticmethod
    def from_complex(M: np.ndarray) -> "QMatrix":
        """Entrywise embedding of a complex matrix into the slice C_i."""
        M = np.asarray(M, dtype=complex)
        e = np.zeros((*M.shape, 4))
        e[..., 0] = M.real
        e[..., 1] = M.imag
        return QMatrix._adopt(e)

    @staticmethod
    def real_scalar(n: int, value: float | np.ndarray) -> "QMatrix":
        e = np.zeros((n, n, 4))
        e[np.arange(n), np.arange(n), 0] = value
        return QMatrix._adopt(e)

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

    # perfbench's contract tests still call these on the grid builders'
    # results, written for the former wrapper's .matrix field and .norm()
    @property
    def matrix(self) -> "QMatrix":
        return self

    def norm(self) -> float:
        return op_norm(self)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._adopt(self.entries + other.entries)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._adopt(self.entries - other.entries)

    def __neg__(self) -> "QMatrix":
        return QMatrix._adopt(-self.entries)

    def __mul__(self, scalar: float) -> "QMatrix":
        return QMatrix._adopt(self.entries * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in quaternion matmul")
        u = _slice_unit(self.entries)
        v = None if u is None else _slice_unit(other.entries)
        if v is not None and (u == v or not u or not v):
            return _slice_product(self.entries, other.entries, u or v)
        A1, B1 = _pair(self.entries)
        A2, B2 = _pair(other.entries)
        return QMatrix._adopt(_unpair(A1 @ A2 - B1 @ B2.conj(),
                                      A1 @ B2 + B1 @ A2.conj()))

    def adjoint(self) -> "QMatrix":
        return QMatrix._adopt(np.ascontiguousarray(
            np.transpose(qconj(self.entries), (1, 0, 2))))

    def scale_left(self, q: Quaternion) -> "QMatrix":
        """q . T  (left module action: entrywise left multiplication by q)."""
        return QMatrix._adopt(qmul(q.to_array(), self.entries))

    def scale_right(self, q: Quaternion) -> "QMatrix":
        """T . q  (right module action: entrywise right multiplication by q)."""
        return QMatrix._adopt(qmul(self.entries, q.to_array()))

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
        shape = (obj["rows"], obj["cols"], 4)
        data = np.array(obj["data"], dtype=float, order="C")
        if data.size == 0 and 0 in shape:
            data = np.zeros(shape)  # "[]" and "[[], []]" lose the empty axes
        if data.shape != shape:
            raise ValueError("matrix data does not match declared shape")
        return QMatrix._adopt(data)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


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


def _slice_unit(e: np.ndarray) -> int | None:
    """The one imaginary component u in 1..3 used by entries e, 0 if e is
    real, None if two or more are nonzero anywhere (exact, no tolerance).

    Every entry then lies in the slice C_u, a commutative copy of C.
    """
    unit = 0
    for u in (1, 2, 3):
        if e[..., u].any():
            if unit:
                return None
            unit = u
    return unit


def _slice_product(e1: np.ndarray, e2: np.ndarray, u: int) -> QMatrix:
    """The product of two operands whose entries lie in C_u (u = 0: both
    real), as one complex GEMM of their slice matrices w + i*c_u.

    A real operand lies in every slice.  The result's components outside
    0 and u are +0.0.  Real operands go through the complex GEMM too, as
    in the pair rule, whose A is the same array, so no other BLAS kernel
    is loaded; the imaginary part of a real product is exactly zero.
    """
    k = u or 1
    P = (e1[..., 0] + 1j * e1[..., k]) @ (e2[..., 0] + 1j * e2[..., k])
    e = np.zeros((*P.shape, 4))
    e[..., 0] = P.real
    if u:
        e[..., u] = P.imag
    return QMatrix._adopt(e)


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
    return QMatrix._adopt(_unpair(A, B))


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
    nonzero anywhere (``_slice_unit``): it is the real part w when T is
    real and w + i*c_u when every entry lies in the slice C_u.
    """
    e = T.entries
    u = _slice_unit(e)
    if u is None:
        return None
    return e[..., 0] + 1j * e[..., u] if u else e[..., 0]


def _norm_matrix(T: QMatrix) -> np.ndarray:
    """A matrix whose largest singular value is ||T||: the slice matrix Z
    of slice-valued T, its real table C when Z = iC (chi(T) is then
    unitarily similar to iC (+) -iC), and chi(T) otherwise."""
    Z = _slice_matrix(T)
    if Z is None:
        return chi(T)
    if np.iscomplexobj(Z) and not Z.real.any():
        return Z.imag
    return Z


def _perron_lambda(X: np.ndarray) -> tuple[float | None, str]:
    """(lambda_max(X^T X), "") of a real X >= 0, or (None, why not).

    For G = X^T X >= 0 and v > 0 the Collatz-Wielandt bounds give
    min_i (Gv)_i / v_i <= lambda_max <= max_i (Gv)_i / v_i (Horn-Johnson,
    Matrix Analysis, 8.1).  v <- G v runs from v = ones, G never formed,
    until that bracket's relative width is at most ``_PERRON_TOL``; the
    Rayleigh value |Xv|^2 / |v|^2, a v_i^2-weighted mean of the ratios, lies
    inside it.  None on a zero row of G, or when the bracket's mean
    contraction per product says it cannot close within ``_PERRON_CAP``
    products.
    """
    if X.shape[0] < X.shape[1]:
        X = X.T  # the Gram matrix of the smaller side, as in the eigensolve
    v = np.ones(X.shape[1])
    for k in range(1, _PERRON_CAP + 1):
        w = X @ v
        g = X.T @ w
        if not g.min() > 0.0:
            return None, "a zero row of the Gram matrix"
        ratios = g / v
        hi = ratios.max()
        width = float((hi - ratios.min()) / hi)
        if width <= _PERRON_TOL:
            _log.debug("norm: Perron bracket closed after %d products, "
                       "width %.2e", k, width)
            return float(w @ w) / float(v @ v), ""
        if k == 1:
            first = width
        elif not (width * (width / first) ** ((_PERRON_CAP - k) / (k - 1))
                  <= _PERRON_TOL):  # nan (an underflowed v_i) falls back too
            return None, f"bracket width {width:.2e} after {k} products"
        v = g / g.max()
    return None, f"bracket width {width:.2e} after {_PERRON_CAP} products"


def _matrix_norm(M: np.ndarray, hermitian: bool = False) -> float:
    """Largest singular value of a real or complex matrix M.

    With s = max|M| and X = M / s, sigma_max = s * sqrt(lambda_max(G)) for
    the Gram matrix G = X* X (X X* when M has fewer rows than columns).
    Scaling to unit entries keeps G clear of overflow and underflow (a
    subnormal s is first raised by 2^600, exactly, since a complex M / s
    would overflow).  A zero (M empty too) or non-finite s is returned.
    X = M / s is the one scaled copy; when s is exactly 1, M is read in
    place instead (no route writes to X), so M is never changed.

    ``hermitian=True`` (self-adjoint M, lower triangle read) takes the
    spectral radius s * max|lambda(X)| from one ``eigvalsh``, no Gram
    product.  Otherwise a real X >= 0 first tries ``_perron_lambda``
    (products only, sigma_max certified to 8 eps); any other X, or a bracket
    that cannot close within ``_PERRON_CAP`` products, forms G for one
    ``eigvalsh``.  By Weyl's inequality an eigensolve errs by about eps
    times the norm of what it factors: full relative accuracy on every
    route.  The "quatcalc" logger says at DEBUG which route ran and why.
    """
    s = (float(np.abs(M).max(initial=0.0)) if np.iscomplexobj(M) else
         max(float(M.max(initial=0.0)), -float(M.min(initial=0.0))))
    if s == 0.0 or not math.isfinite(s):
        return abs(s)  # +0.0 for an all -0.0 real M
    shift = 0
    if s < np.finfo(float).tiny:
        shift = 600
        M = M * 2.0 ** shift
        s = float(np.abs(M).max())
    X = M / s if s != 1.0 else M  # M / 1.0 == M: read M in place
    del M
    if hermitian:
        _log.debug("norm: %d x %d self-adjoint eigensolve", *X.shape)
        return math.ldexp(s * np.abs(np.linalg.eigvalsh(X)).max(), -shift)
    lam = None
    if np.iscomplexobj(X):
        reason = "complex entries"
    elif X.min() < 0.0:
        reason = "a negative entry"
    else:
        lam, reason = _perron_lambda(X)
    if lam is None:
        _log.debug("norm: %d x %d Gram eigensolve (%s)", *X.shape, reason)
        G = X.conj().T @ X if X.shape[0] >= X.shape[1] else X @ X.conj().T
        del X
        lam = max(float(np.linalg.eigvalsh(G)[-1]), 0.0)
    return math.ldexp(s * math.sqrt(lam), -shift)


def op_norm(T: QMatrix) -> float:
    """Operator norm sup{|Tx| : |x| <= 1} = largest singular value of chi(T).

    M is the n x m ``_slice_matrix`` Z for slice-valued T (chi(T) is
    unitarily similar to Z (+) conj(Z)), the real C when Z = iC, and chi(T)
    otherwise (``_norm_matrix``); the shared core ``_matrix_norm`` takes
    sigma_max(M) from the largest eigenvalue of the Gram matrix of M scaled
    to unit entries, which keeps full relative accuracy: for a real M >= 0
    from a Collatz-Wielandt bracket of relative width 16 eps closed within
    64 matrix-vector products, else (or when that bracket cannot close)
    from one ``eigvalsh`` (the core's self-adjoint route serves
    ``_normality_defect`` only).  Callers that need the smallest singular
    value (Delta_q at a sphere, kernel and range bases) must not form a
    Gram matrix, which squares its condition number: they take an SVD or a
    backward-stable solve (``spectrum._delta_min_sv``).  A non-finite entry
    raises ``ValueError``.
    The norm is computed at most once per matrix and kept on it (the
    entries are read-only, see ``QMatrix``), so the callers that each need
    ||T|| of one T (``norm_scale``, the spectrum, the quadrature's proximity
    guard) share one eigensolve.
    """
    norm = getattr(T, "_norm", None)
    if norm is not None:
        return norm
    with np.errstate(invalid="ignore"):  # inf * 1j; reported below
        # no local keeps M, so _matrix_norm frees it once it has X = M / s
        norm = _matrix_norm(_norm_matrix(T))
    if not math.isfinite(norm) and not np.isfinite(T.entries).all():
        r, c = np.argwhere(~np.isfinite(T.entries))[0][:2]
        raise ValueError(f"operator norm of a matrix with a non-finite entry "
                         f"{T.entries[r, c].tolist()} at ({r}, {c})")
    object.__setattr__(T, "_norm", norm)
    return norm


def norm_scale(T: QMatrix) -> float:
    """max(||T||, 1), equal bit for bit to ``max(op_norm(T), 1.0)``.

    The Schur test bounds ||T|| by sqrt(max row sum * max column sum) of the
    entry moduli |T_rc|, in O(n m).  Rounding moves that bound and
    ``op_norm`` by a relative amount of order (n + m) eps, so when the bound
    is below 1 by more than 1e-12 + 8 (n + m) eps, ``op_norm`` is below 1
    too and the scale is 1.0 without a Gram matrix or an eigensolver.
    Otherwise (and on a non-finite entry, which ``op_norm`` reports with a
    ``ValueError``) the scale is ``max(op_norm(T), 1.0)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: op_norm
        moduli = np.sqrt(np.einsum("rcq,rcq->rc", T.entries, T.entries))
        bound = math.sqrt(moduli.sum(axis=1).max(initial=0.0)
                          * moduli.sum(axis=0).max(initial=0.0))
    slack = 1e-12 + 8 * (T.rows + T.cols) * np.finfo(float).eps
    if bound < 1.0 - slack:
        return 1.0
    return max(op_norm(T), 1.0)


def _defect_matrix(T: QMatrix) -> np.ndarray:
    """Self-adjoint H with ||H|| = ||D||, D = TT* - T*T: ZZ* - Z*Z for
    slice-valued T (chi(D) ~ H (+) conj H; ``_slice_product``'s complex GEMM
    of contiguous Z and Z*), else chi(D), as ``_norm_matrix`` picks M."""
    u = _slice_unit(T.entries)
    if u is None:
        return chi(T @ T.adjoint() - T.adjoint() @ T)
    Z = T.entries[..., 0] + 1j * T.entries[..., u or 1]
    Zs = np.ascontiguousarray(Z.conj().T)
    H = Z @ Zs - Zs @ Z
    return H if H.imag.any() else H.real


def _normality_defect(T: QMatrix) -> float:
    """||TT* - T*T||, the one normality measure of the package, by one
    ``eigvalsh`` of ``_defect_matrix(T)`` (the core's self-adjoint route);
    overflowing products of a finite T raise ``OverflowError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        # no local keeps H, so it is freed once _matrix_norm has X = H / s
        defect = _matrix_norm(_defect_matrix(T), hermitian=True)
    if not math.isfinite(defect):
        op_norm(T)  # raises ValueError on a non-finite entry of T
        raise OverflowError("the normality defect TT* - T*T overflows")
    return defect


def positive_sqrt(T: QMatrix) -> QMatrix:
    """Unique positive square root of a positive operator.

    T must be self-adjoint to 1e-10 max(max|chi(T)|, 1).  Eigenvalues of
    chi(T) may dip slightly negative; they are clipped at -1e-12 * ||T||
    and anything below that is a domain error.
    """
    if not T.is_square:
        raise ValueError("square root requires a square matrix")
    M = chi(T)
    scale = max(np.abs(M).max(initial=0.0), 1.0)
    if np.abs(M - M.conj().T).max(initial=0.0) > 1e-10 * scale:
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


def polar(T: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Polar decomposition T = W0 |T| with N(T) = N(W0).

    W0 is the partial isometry T |T|^+ ; zero singular values (1e-10 of the
    largest) map to zero so that the null spaces of T and W0 coincide.
    """
    if not T.is_square:
        raise ValueError("polar decomposition requires a square matrix")
    M = chi(T)
    H = M.conj().T @ M
    lam, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    lam = np.clip(lam, 0.0, None)
    sv = np.sqrt(lam)
    cutoff = 1e-10 * max(sv.max(initial=0.0), 1e-300)
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
    return kept, QMatrix._adopt(chi_vec_inv(V[:, 0::2]))


def normal_eigensystem(T: QMatrix) -> tuple[np.ndarray, QMatrix]:
    """Spectral decomposition of a normal T: T = U diag(lam) U*.

    Returns ``(lam, U)`` where ``lam`` is a complex array of eigenvalues in
    the closed upper half plane of C_i and the columns of the unitary U are
    quaternionic eigenvectors: T u_l = u_l * lam_l.  T is normal when
    ||TT* - T*T|| <= 1e-9 ||T||^2, a test that scales with T at every size.
    """
    if not T.is_square:
        raise ValueError("eigensystem requires a square matrix")
    n = T.rows
    scale = max(op_norm(T), 1e-300)
    defect = _normality_defect(T)
    if defect / scale > 1e-10 * scale * 10:  # scale ** 2 overflows first
        raise ValueError(f"matrix is not normal (defect {defect:.3e})")
    N = chi(T)
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


def cartesian(T: QMatrix) -> CartesianParts:
    """Cartesian decomposition of a normal operator.

    T must pass the normality test of ``normal_eigensystem``.  J is the
    phase of T - T* on the complement of its kernel; on the kernel it acts
    as right multiplication by i in the Schur-adapted eigenbasis (a
    deterministic but non-unique completion).
    """
    if not T.is_square:
        raise ValueError("cartesian decomposition requires a square matrix")
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


def plus_eigenbasis(J: QMatrix) -> QMatrix:
    """Quaternionic-orthonormal basis of H_+^{Ji} = {x : Jx = x*i}.

    Returned as the n x n QMatrix whose columns u_l satisfy J u_l = u_l * i;
    they form a Hilbert basis of the whole space over the quaternions.  J
    is checked to be anti-self-adjoint and unitary to 1e-10 and 1e-9.
    """
    if not J.is_square:
        raise ValueError("J must be square")
    n = J.rows
    M = chi(J)
    scale = max(np.abs(M).max(initial=0.0), 1.0)
    if (np.abs(M + M.conj().T).max(initial=0.0) > 1e-10 * scale
            or np.abs(M @ M.conj().T - np.eye(2 * n)).max(initial=0.0) > 1e-10 * 10):
        raise ValueError("J must be anti-self-adjoint and unitary")
    H = -1j * M  # Hermitian with eigenvalues +-1
    lam, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    plus = V[:, lam > 0.0]
    if plus.shape[1] != n:
        raise ValueError("+i eigenspace of J has wrong dimension")
    return QMatrix._adopt(chi_vec_inv(plus))


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


def restrict(V: QMatrix, J: QMatrix,
             basis: QMatrix | None = None) -> np.ndarray:
    """Complex matrix of a J-commuting operator restricted to H_+^{Ji};
    JV = VJ and a C_i-valued result hold to 1e-9 max(||V||, 1)."""
    scale = norm_scale(V)
    if op_norm(J @ V - V @ J) > 1e-10 * scale * 10:
        raise ValueError("operator does not commute with J; no restriction exists")
    U = plus_eigenbasis(J) if basis is None else basis
    R = U.adjoint() @ V @ U
    e = R.entries
    if np.abs(e[..., 2:]).max(initial=0.0) > 1e-10 * scale * 10:
        raise ValueError("restriction is not C_i-valued")
    return e[..., 0] + 1j * e[..., 1]
