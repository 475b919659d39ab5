"""Frame and Bessel analysis of finite vector families.

A family {f_k} in C^d is a frame when alpha ||f||^2 <= sum_k |<f, f_k>|^2
<= beta ||f||^2 holds with alpha > 0; at finite dimension every family is
Bessel (beta finite).  The optimal bounds are the extreme eigenvalues of
the frame operator Theta f = sum_k <f, f_k> f_k, and the canonical dual
{Theta^-1 f_k} realizes the minimal-norm reconstruction coefficients.
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

    def is_frame(self, *, tol: Tolerances = DEFAULTS) -> bool:
        return self.alpha > tol.FRAME_TOL


def frame_operator(F: VectorFamily) -> Mat:
    """The rank-one sum Theta = sum_k f_k f_k* (Hermitian PSD)."""
    V = F.vectors
    theta = V.T @ V.conj()
    # Symmetrize away the last-bit asymmetry of the accumulation.
    return (theta + theta.conj().T) / 2.0


def frame_bounds(F: VectorFamily, *, tol: Tolerances = DEFAULTS) -> FrameBounds:
    """Optimal bounds: extreme eigenvalues of the frame operator.

    Args:
        F: the family to analyze.

    Returns:
        FrameBounds with alpha = smallest and beta = largest eigenvalue
        (tiny negative eigenvalues from rounding are clipped to zero).
        The family is a frame iff alpha clears ``tol.FRAME_TOL``.
    """
    eigs = linalg.hermitian_eigs(frame_operator(F), tol=tol)
    return FrameBounds(alpha=max(float(eigs[0]), 0.0), beta=max(float(eigs[-1]), 0.0))


def canonical_dual(F: VectorFamily, *, tol: Tolerances = DEFAULTS) -> VectorFamily:
    """The canonical dual family {Theta^-1 f_k}, aligned with F.

    Raises:
        NotAFrameError: when alpha does not clear ``tol.FRAME_TOL``,
            carrying the offending alpha.
    """
    bounds = frame_bounds(F, tol=tol)
    if not bounds.is_frame(tol=tol):
        raise NotAFrameError(bounds.alpha)
    theta = frame_operator(F)
    duals = linalg.solve(theta, F.vectors.T, tol=tol).T
    return VectorFamily(vectors=duals)


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
