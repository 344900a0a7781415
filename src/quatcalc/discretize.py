"""Midpoint-collocation discretizations of integral operators on [0, 1].

Functions take quaternion values; operators act by left multiplication of
the kernel.  The grid is uniform with n cells, collocation points
x_r = (r + 1/2) / n, and cell weight h = 1/n, so an integral operator
(Kg)(x) = Int_0^1 k(x, y) g(y) dy becomes the matrix h * k(x_r, y_c).
Every builder returns a plain ``QMatrix``; the vectorized ones go through
one assembler, ``_assemble``, which writes each entry once.

Two worked examples are built in, both factoring exactly as T = (W + K) S
with W = M_chi (indicator of [0, 1/3]), S = M_phi (phi(x) = x):

* ``"normal"``: T g(x) = x g(x) chi(x) + (1/2) Int_0^1 x y^2 g(y) dy,
  i.e. K is the rank-one kernel (1/2) x y with ||K|| = 1/6 <= 1/3.
  ``"normal"`` is only the name of this multiplication-plus-rank-one
  example: the operator is not normal.  With u = x, v = x^2, M = M_{x chi},
  T = M + (1/2)|u><v| and

      [T, T*] = (1/2)(|Mv><u| + |u><Mv| - |Mu><v| - |v><Mu|)
                + (1/4)(||v||^2 |u><u| - ||u||^2 |v><v|),

  an operator of rank <= 4 with ||[T, T*]|| = c_inf = 4.985381282969e-3 on
  L^2[0, 1]; the grid defect approaches c_inf from below at rate O(1/n^2).
  The example therefore shows the shape T = (W + K) S of the factorization,
  not an instance of the theorem's normality hypothesis.
* ``"nonnormal"``: T g(x) = x g(x) chi(x) + (j/2) Int_0^x y g(y) dy,
  i.e. K g(x) = (j/2) Int_0^x g(t) dt, a quaternionic Volterra operator
  with ||K|| = 1/pi in the continuum.

For the Volterra operator the diagonal cell is triangular: only half of
cell r lies below x_r, so the diagonal weight is h/2 (the half-diagonal
convention), which keeps the discrete norm within O(1/n^2) of 1/pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .quaternion import Quaternion, _coerce
from .qmatrix import QMatrix, _matrix_norm, _normality_defect, op_norm

__all__ = [
    "grid_points",
    "mult_op",
    "kernel_op",
    "volterra_op",
    "volterra_norm",
    "paper_example",
    "ExampleBundle",
]


def grid_points(n: int) -> np.ndarray:
    """Midpoints (r + 1/2)/n of the uniform n-cell grid on [0, 1]."""
    if n < 1:
        raise ValueError("need at least one cell")
    return (np.arange(n) + 0.5) / n


def _assemble(values: np.ndarray, coeff: Quaternion | float = 1.0,
              real_diag: np.ndarray | float = 0.0) -> QMatrix:
    """The matrix with entries values[r, c] * coeff for a real square table
    values, plus real_diag on the real parts of its diagonal.

    The (rows, cols, 4) entries are written once, into the array the
    ``QMatrix`` adopts: no temporary of that size is made.
    """
    c = _coerce(coeff).to_array()
    ent = np.multiply(values[:, :, None], c,
                      out=np.empty((*values.shape, 4)))
    if np.signbit(c).any():
        ent += 0.0  # a zero value times a negative part is -0.0; keep +0.0
    ent[..., 0][np.diag_indices(len(values))] += real_diag
    return QMatrix._adopt(ent)


def _volterra_unit(n: int) -> np.ndarray:
    """1 below the diagonal, 1/2 on it (half-diagonal convention), 0 above."""
    if n < 1:
        raise ValueError("need at least one cell")
    unit = np.tri(n, k=-1)
    unit[np.diag_indices(n)] = 0.5
    return unit


def _volterra_weights(n: int) -> np.ndarray:
    """The Volterra cell weights: the unit table times h = 1/n."""
    weights = _volterra_unit(n)
    weights *= 1.0 / n
    return weights


def mult_op(f, n: int) -> QMatrix:
    """Multiplication operator g(x) -> f(x) g(x); f maps float -> scalar."""
    return QMatrix.diag(f(x) for x in grid_points(n).tolist())


def kernel_op(k, n: int) -> QMatrix:
    """Integral operator with kernel k(x, y); k maps floats -> scalar."""
    x = grid_points(n).tolist()
    ent = np.array([[_coerce(k(xr, yc)).to_array() for yc in x] for xr in x])
    ent *= 1.0 / n
    return QMatrix._adopt(ent)


def volterra_op(n: int, coeff: Quaternion | float = 0.5) -> QMatrix:
    """(V g)(x) = coeff * Int_0^x g(y) dy with the half-diagonal convention."""
    return _assemble(_volterra_weights(n), coeff)


def volterra_norm(n: int) -> float:
    """||volterra_op(n)||, equal bit for bit to ``op_norm(volterra_op(n))``.

    The entries of ``volterra_op(n)`` are 0.5 / n times the unit table
    (1 below the diagonal, 1/2 on it), the X the core scales them to, so
    the unit table's norm times 0.5 / n has the same bits.  The core reads
    that table in place (its scale is exactly 1): one real n x n table, no
    quaternion entries.  It is nonnegative, so ``_matrix_norm`` takes its
    Perron path: its Collatz-Wielandt bracket closes to the relative width
    16 eps in 17 matrix-vector products for every n from 64 to 4096, with
    no Gram matrix and no O(n^3) eigensolve.
    """
    return _matrix_norm(_volterra_unit(n)) * (0.5 / n)


@dataclass(frozen=True)
class ExampleBundle:
    """A discretized example T = (W + K) S, W = diag(w) and S = diag(s)."""

    name: str
    n: int
    T: QMatrix
    K: QMatrix
    w: np.ndarray
    s: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    W = property(lambda self: QMatrix.real_scalar(self.n, self.w))
    S = property(lambda self: QMatrix.real_scalar(self.n, self.s))

    def _factor_product(self) -> np.ndarray:
        """(W + K) S's entries: W + K with column c scaled by s_c, bit for bit
        the dense product, since each of its columns has one nonzero term."""
        e = self.K.entries.copy()
        e[..., 0][np.diag_indices(self.n)] += self.w
        e *= self.s[None, :, None]
        return e

    def factorization_residual(self) -> float:
        return op_norm(self.T - QMatrix._adopt(self._factor_product()))

    def normality_defect(self) -> float:
        return _normality_defect(self.T)


def paper_example(which: str, n: int) -> ExampleBundle:
    """Build one of the two worked examples at grid size n.

    ``which`` is "normal" or "nonnormal"; ``n`` must be divisible by 3 so
    the cut point 1/3 falls on a cell edge (keeping W a partial isometry).
    """
    if which not in ("normal", "nonnormal"):
        raise ValueError(f"unknown example {which!r}")
    if n < 3 or n % 3:
        raise ValueError("grid size must be a positive multiple of 3")

    x = grid_points(n)
    w = (x <= 1.0 / 3.0).astype(float)  # W's diagonal; S's diagonal is x

    if which == "normal":
        K = _assemble(0.5 * x[:, None] * x, 1.0 / n)
        T = _assemble(0.5 * x[:, None] * x * x, 1.0 / n, w * x)
        norm_K_expected = 1.0 / 6.0
        norm_K_bound = 1.0 / 3.0
    else:
        half_j = Quaternion(0.0, 0.0, 0.5, 0.0)
        K = volterra_op(n, half_j)
        # (j/2) Int_0^x y g(y) dy with the same half-diagonal convention
        T = _assemble(_volterra_weights(n) * x, half_j, w * x)
        norm_K_expected = 1.0 / math.pi
        norm_K_bound = 0.5

    bundle = ExampleBundle(which, n, T, K, w, x)
    return replace(bundle, diagnostics={
        "norm_T": op_norm(T),
        "norm_K": op_norm(K),
        "norm_K_expected": norm_K_expected,
        "norm_K_bound": norm_K_bound,
        "factorization_residual": bundle.factorization_residual(),
        "normality_defect": bundle.normality_defect(),
        "factor_S_note": (
            "continuum S = M_phi is strongly irreducible (empty point "
            "spectrum); its finite section is diagonal, hence maximally "
            "decomposable -- expected discretization behavior"),
    })
