"""Frame and Bessel analysis of finite vector families.

A family {f_k} in C^d is a frame when alpha ||f||^2 <= sum_k |<f, f_k>|^2
<= beta ||f||^2 holds with alpha > 0; at finite dimension every family is
Bessel (beta finite).  The optimal bounds are the extreme eigenvalues of
the frame operator Theta f = sum_k <f, f_k> f_k, and the canonical dual
{Theta^-1 f_k} realizes the minimal-norm reconstruction coefficients.
:class:`FrameAnalysis` reads both from one eigendecomposition of Theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import Mat, Vec
from .tolerances import DEFAULTS, Tolerances


class NotAFrameError(Exception):
    """Raised when an operation needs a frame but the lower bound is ~0."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        super().__init__(
            f"family is not a frame: lower bound alpha = {alpha:.3e} is "
            "below the frame tolerance"
        )


@dataclass(frozen=True)
class VectorFamily:
    """An ordered family of vectors of equal length.

    Attributes:
        vectors: (count, dim) complex array; row k is the k-th member.
    """

    vectors: Mat

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", linalg.as_matrix(self.vectors))
        if self.vectors.shape[0] < 1:
            raise ValueError("a vector family needs at least one vector")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds (alpha, beta), 0 <= alpha <= beta."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= self.beta:
            raise ValueError(
                f"bounds must satisfy 0 <= alpha <= beta, got ({self.alpha}, {self.beta})"
            )


def frame_operator(F: VectorFamily) -> Mat:
    """The rank-one sum Theta = sum_k f_k f_k* (Hermitian PSD)."""
    V = F.vectors
    # Vectors too large for float arithmetic give a non-finite Theta, which
    # linalg.hermitian_eigs rejects; numpy's warning would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = V.T @ V.conj()
        # Symmetrize away the last-bit asymmetry of the accumulation.
        return (theta + theta.conj().T) / 2.0


class FrameAnalysis:
    """The frame operator of a family, eigendecomposed once.

    One validated decomposition Theta = V diag(lam) V* gives both the
    optimal bounds and the canonical dual, so no caller decomposes the
    same Theta twice.

    Attributes:
        family: the analyzed family F.
        bounds: alpha = smallest eigenvalue of Theta (tiny negative
            values from rounding are clipped to zero), beta = largest.
        is_frame: whether alpha clears ``tol.FRAME_TOL``; :meth:`dual`
            and every frame test read it.
    """

    def __init__(self, F: VectorFamily, *, tol: Tolerances = DEFAULTS):
        self.family = F
        self._tol = tol
        self._theta = frame_operator(F)
        self._lam, self._V = linalg.hermitian_eigs(self._theta, tol=tol)
        self.bounds = FrameBounds(
            alpha=max(float(self._lam[0]), 0.0), beta=max(float(self._lam[-1]), 0.0)
        )
        self.is_frame = self.bounds.alpha > tol.FRAME_TOL

    def dual(self) -> VectorFamily:
        """The canonical dual family {Theta^-1 f_k} = {V diag(1/lam) V* f_k}.

        The dual solves Theta X = [f_k] to ``tol.SOLVE_TOL``, as a linear
        solve would.

        Raises:
            NotAFrameError: when alpha does not clear ``tol.FRAME_TOL``,
                carrying the offending alpha.
            NumericalError: when the solve residual exceeds its bound.
        """
        if not self.is_frame:
            raise NotAFrameError(self.bounds.alpha)
        rhs = self.family.vectors.T
        V = self._V
        X = (V / self._lam) @ (V.conj().T @ rhs)
        linalg.require_solution(self._theta, X, rhs, tol=self._tol)
        return VectorFamily(vectors=X.T)


def analysis(f: Vec, F: VectorFamily) -> np.ndarray:
    """Coefficients c_k = <f, f_k> of f against the family."""
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1 or f.shape[0] != F.dim:
        raise ValueError(
            f"dimension mismatch: vector has shape {f.shape}, family dim {F.dim}"
        )
    return F.vectors.conj() @ f


def synthesis(c, F: VectorFamily) -> Vec:
    """The combination sum_k c_k f_k."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.shape[0] != F.count:
        raise ValueError(
            f"coefficient count mismatch: got {c.shape}, family has {F.count} vectors"
        )
    return F.vectors.T @ c
