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
from .lattice import LambdaIndex
from .linalg import Mat, Vec
from .tolerances import DEFAULTS, Tolerances


class NotAFrameError(Exception):
    """Raised when an operation needs a frame but the lower bound is ~0."""

    def __init__(self, alpha: float, message: str | None = None):
        self.alpha = alpha
        super().__init__(
            message
            or f"family is not a frame: lower bound alpha = {alpha:.3e} is "
            "below the frame tolerance"
        )


@dataclass(frozen=True)
class VectorFamily:
    """An ordered family of vectors of equal length, optionally labeled.

    Attributes:
        vectors: (count, dim) complex array; row k is the k-th member.
        labels: optional lattice index per vector (used by sampling
            families whose columns track window positions).
    """

    vectors: Mat
    labels: tuple[LambdaIndex, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", linalg.as_matrix(self.vectors))
        if self.vectors.shape[0] < 1:
            raise ValueError("a vector family needs at least one vector")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.vectors.shape[0]:
                raise ValueError(
                    f"got {len(labels)} labels for {self.vectors.shape[0]} vectors"
                )
            object.__setattr__(self, "labels", labels)

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


def verify_dual_pair(F: VectorFamily, G: VectorFamily) -> float:
    """The exact worst-case residual ||I - sum_k f_k g_k*||_2.

    This is the max of ||f - sum_k <f, g_k> f_k|| over unit vectors f.
    The residual is returned rather than judged so callers can apply
    their own threshold.
    """
    if F.count != G.count or F.dim != G.dim:
        raise ValueError(
            f"families are not aligned: ({F.count}, {F.dim}) vs ({G.count}, {G.dim})"
        )
    defect = np.eye(F.dim, dtype=complex) - F.vectors.T @ G.vectors.conj()
    return float(np.linalg.norm(defect, 2))


def min_norm_gap(f: Vec, F: VectorFamily, c, *, tol: Tolerances = DEFAULTS) -> float:
    """Excess coefficient energy over the canonical representation.

    For any coefficients c with sum_k c_k f_k = f, the quantity

        sum |c_k|^2 - sum |<f, Theta^-1 f_k>|^2

    equals sum |c_k - <f, Theta^-1 f_k>|^2, hence is >= 0 with equality
    exactly for the canonical coefficients.

    Args:
        f: the represented vector.
        F: a frame.
        c: coefficients claiming to represent f.

    Returns:
        The (theoretically nonnegative) energy gap; rounding may take it
        a hair below zero.

    Raises:
        ValueError: when c does not solve the synthesis system
            sum_k c_k f_k = f to ``tol.SOLVE_TOL`` times max(1, ||f||).
        NotAFrameError: when F is not a frame.
    """
    f = np.asarray(f, dtype=complex)
    c = np.asarray(c, dtype=complex)
    mismatch = float(np.linalg.norm(synthesis(c, F) - f))
    if mismatch > tol.SOLVE_TOL * max(1.0, float(np.linalg.norm(f))):
        raise ValueError(
            f"coefficients do not represent f: ||sum c_k f_k - f|| = {mismatch:.3e}"
        )
    dual = canonical_dual(F, tol=tol)
    canon = analysis(f, dual)
    return float(np.sum(np.abs(c) ** 2) - np.sum(np.abs(canon) ** 2))


def subspace_frame_bounds(
    F: VectorFamily, W_basis: Mat, *, tol: Tolerances = DEFAULTS
) -> FrameBounds:
    """Bounds of the projected family {P_W f_k} as a frame for W.

    Works in W-coordinates (the family {B* f_k} with B = W_basis), so
    alpha is the smallest eigenvalue over W rather than over the ambient
    space.
    """
    B = linalg.as_matrix(W_basis)
    if B.shape[0] != F.dim:
        raise ValueError(
            f"basis rows ({B.shape[0]}) must match family dim ({F.dim})"
        )
    linalg.require_orthonormal(B, "W_basis")
    projected = VectorFamily(vectors=F.vectors @ B.conj())
    return frame_bounds(projected, tol=tol)


# --- JSON import/export ----------------------------------------------------

def family_to_json(F: VectorFamily) -> dict:
    """Serialize as {"dim": d, "vectors": [[[re, im], ...], ...]}."""
    return {
        "dim": F.dim,
        "vectors": linalg.matrix_to_pairs(F.vectors),
    }


def family_from_json(doc: dict) -> VectorFamily:
    """Parse the document format produced by :func:`family_to_json`."""
    if not isinstance(doc, dict) or "dim" not in doc or "vectors" not in doc:
        raise ValueError("family document must have 'dim' and 'vectors' keys")
    dim = doc["dim"]
    family = VectorFamily(vectors=linalg.matrix_from_pairs(doc["vectors"]))
    if family.dim != dim:
        raise ValueError(
            f"declared dim {dim} does not match vector length {family.dim}"
        )
    return family
