"""Midpoint-collocation discretizations of integral operators on [0, 1].

Functions take quaternion values; operators act by left multiplication of
the kernel.  The grid is uniform with n cells, collocation points
x_r = (r + 1/2) / n, and cell weight h = 1/n, so an integral operator
(Kg)(x) = Int_0^1 k(x, y) g(y) dy becomes the matrix h * k(x_r, y_c).

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
from dataclasses import dataclass, field

import numpy as np

from .quaternion import Quaternion
from .qmatrix import QMatrix, op_norm

__all__ = [
    "GridOperator",
    "grid_points",
    "mult_op",
    "kernel_op",
    "volterra_op",
    "paper_example",
    "ExampleBundle",
]


def grid_points(n: int) -> np.ndarray:
    """Midpoints (r + 1/2)/n of the uniform n-cell grid on [0, 1]."""
    if n < 1:
        raise ValueError("need at least one cell")
    return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class GridOperator:
    """A quaternionic matrix remembering its grid provenance."""

    n: int
    kind: str
    matrix: QMatrix
    metadata: dict = field(default_factory=dict)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def norm(self) -> float:
        return op_norm(self.matrix)


def mult_op(f, n: int, kind: str = "multiplication") -> GridOperator:
    """Multiplication operator g(x) -> f(x) g(x); f maps float -> scalar."""
    x = grid_points(n)
    vals = []
    for xr in x:
        v = f(float(xr))
        if not isinstance(v, Quaternion):
            v = Quaternion(float(v), 0.0, 0.0, 0.0)
        vals.append(v)
    return GridOperator(n, kind, QMatrix.diag(vals))


def kernel_op(k, n: int, kind: str = "kernel") -> GridOperator:
    """Integral operator with kernel k(x, y); k maps floats -> scalar."""
    x = grid_points(n)
    h = 1.0 / n
    ent = np.zeros((n, n, 4))
    for r, xr in enumerate(x):
        for c, yc in enumerate(x):
            v = k(float(xr), float(yc))
            if not isinstance(v, Quaternion):
                v = Quaternion(float(v), 0.0, 0.0, 0.0)
            ent[r, c] = h * v.to_array()
    return GridOperator(n, kind, QMatrix._adopt(ent))


def _half_xy_kernel(n: int, power: int, kind: str) -> GridOperator:
    """``kernel_op`` of (1/2) x y^power, vectorized with its float-operation order."""
    x = grid_points(n)
    k = 0.5 * x[:, None] * x[None, :]
    for _ in range(power - 1):
        k = k * x[None, :]
    ent = np.zeros((n, n, 4))
    ent[..., 0] = (1.0 / n) * k
    return GridOperator(n, kind, QMatrix._adopt(ent))


def _volterra_weights(n: int) -> np.ndarray:
    """1 below the diagonal, 1/2 on it (the half-diagonal convention), 0 above."""
    weights = np.tri(n, k=-1)
    weights[np.diag_indices(n)] = 0.5
    return weights


def volterra_op(n: int, coeff: Quaternion | float = 0.5,
                kind: str = "volterra") -> GridOperator:
    """(V g)(x) = coeff * Int_0^x g(y) dy with the half-diagonal convention.

    The (n, n, 4) entries h * weight * coeff are written once, into the
    array the ``QMatrix`` adopts: no temporary of that size is made.
    """
    if not isinstance(coeff, Quaternion):
        coeff = Quaternion(float(coeff), 0.0, 0.0, 0.0)
    c = coeff.to_array()
    hw = _volterra_weights(n)
    hw *= 1.0 / n
    ent = np.multiply(hw[:, :, None], c, out=np.empty((n, n, 4)))
    if np.signbit(c).any():
        ent += 0.0  # a zero weight times a negative part is -0.0; keep +0.0
    return GridOperator(
        n, kind, QMatrix._adopt(ent),
        metadata={"diagonal_weight": "h/2 (half cell below midpoint)"})


@dataclass(frozen=True)
class ExampleBundle:
    """A discretized example with its factorization T = (W + K) S."""

    name: str
    n: int
    T: GridOperator
    W: GridOperator
    K: GridOperator
    S: GridOperator
    diagnostics: dict = field(default_factory=dict)

    def factorization_residual(self) -> float:
        WK = self.W.matrix + self.K.matrix
        return op_norm(self.T.matrix - WK @ self.S.matrix)

    def normality_defect(self) -> float:
        T = self.T.matrix
        return op_norm(T @ T.adjoint() - T.adjoint() @ T)


def paper_example(which: str, n: int) -> ExampleBundle:
    """Build one of the two worked examples at grid size n.

    ``which`` is "normal" or "nonnormal"; ``n`` must be divisible by 3 so
    the cut point 1/3 falls on a cell edge (keeping W a partial isometry).
    """
    if which not in ("normal", "nonnormal"):
        raise ValueError(f"unknown example {which!r}")
    if n < 3 or n % 3:
        raise ValueError("grid size must be a positive multiple of 3")

    W = mult_op(lambda t: 1.0 if t <= 1.0 / 3.0 else 0.0, n,
                kind="indicator [0,1/3]")
    S = mult_op(lambda t: t, n, kind="position")

    if which == "normal":
        K = _half_xy_kernel(n, 1, kind="rank-one (1/2)xy")
        K0 = _half_xy_kernel(n, 2, kind="rank-one (1/2)xy^2")
        Tm = W.matrix @ S.matrix + K0.matrix
        norm_K_expected = 1.0 / 6.0
        norm_K_bound = 1.0 / 3.0
        T = GridOperator(n, "normal", Tm)
    else:
        j = Quaternion(0.0, 0.0, 1.0, 0.0)
        K = volterra_op(n, coeff=j * Quaternion(0.5, 0, 0, 0))
        # (j/2) Int_0^x y g(y) dy with the same half-diagonal convention
        x = grid_points(n)
        KY = np.einsum("rc,c,q->rcq", _volterra_weights(n) / n, x,
                       j.to_array())
        KY *= 0.5
        Tm = W.matrix @ S.matrix + QMatrix._adopt(KY)
        norm_K_expected = 1.0 / math.pi
        norm_K_bound = 0.5
        T = GridOperator(n, "nonnormal", Tm, metadata=K.metadata)

    bundle = ExampleBundle(which, n, T, W, K, S)
    diag = {
        "norm_T": op_norm(Tm),
        "norm_K": op_norm(K.matrix),
        "norm_K_expected": norm_K_expected,
        "norm_K_bound": norm_K_bound,
        "factorization_residual": bundle.factorization_residual(),
        "normality_defect": bundle.normality_defect(),
        "factor_S_note": (
            "continuum S = M_phi is strongly irreducible (empty point "
            "spectrum); its finite section is diagonal, hence maximally "
            "decomposable -- expected discretization behavior"),
    }
    return ExampleBundle(which, n, T, W, K, S, diag)
