"""Dense complex linear algebra shared by every other module.

Vectors and matrices are plain numpy arrays of dtype complex; the
constructors here validate shape and finiteness once so downstream code
can assume clean inputs.  Everything is dense — the intended scale is
dimension <= 256.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .tolerances import EIG_TOL, HERM_TOL, PIVOT_TOL, SOLVE_TOL

Vec = np.ndarray
Mat = np.ndarray


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class SingularMatrixError(NumericalError):
    """A solve hit a negligible pivot; carries the offending index."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


def as_vector(entries) -> Vec:
    """Validate and convert to a 1-d complex array (finite entries only)."""
    v = np.asarray(entries, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


def as_matrix(entries) -> Mat:
    """Validate and convert to a 2-d complex array (finite entries only)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def inner(u: Vec, v: Vec) -> complex:
    """Inner product sum(u_k * conj(v_k)); conjugate-linear in v."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"length mismatch in inner product: {u.shape} vs {v.shape}")
    # np.vdot conjugates its first argument.
    return complex(np.vdot(v, u))


def hermitian_eigs(M: Mat, herm_tol: float = HERM_TOL, eig_tol: float = EIG_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, real and ascending.

    Rejects inputs farther than ``herm_tol`` (relative) from their own
    conjugate transpose, and checks that the decomposition reproduces
    the matrix to ``eig_tol`` (relative).
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.linalg.norm(M)))
    asym = float(np.linalg.norm(M - M.conj().T))
    if asym > herm_tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: ||M - M*|| = {asym:.3e} exceeds "
            f"{herm_tol:.1e} * scale"
        )
    vals, vecs = np.linalg.eigh(M)
    resid = float(np.linalg.norm((vecs * vals) @ vecs.conj().T - M))
    if resid > eig_tol * scale:
        raise NumericalError(
            f"eigendecomposition residual {resid:.3e} exceeds {eig_tol:.1e} * scale"
        )
    return vals


def solve(M: Mat, b: Vec, solve_tol: float = SOLVE_TOL, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    """Solve M x = b for square M; b may have multiple columns.

    Raises :class:`SingularMatrixError` naming the offending pivot when
    elimination meets a pivot below ``pivot_tol`` times the matrix
    scale, and :class:`NumericalError` when the residual exceeds
    ``solve_tol * (||M|| ||x|| + ||b||)``.
    """
    M = np.asarray(M, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if b.shape[0] != M.shape[0]:
        raise ValueError(f"shape mismatch: matrix {M.shape} vs rhs {b.shape}")
    with warnings.catch_warnings():
        # singularity is detected below via the pivot check and raised as
        # a typed error; scipy's warning would just duplicate it
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = max(float(np.max(np.abs(M))), np.finfo(float).tiny)
    k = int(np.argmin(pivots))
    if pivots[k] < pivot_tol * scale:
        raise SingularMatrixError(
            f"matrix is singular to working precision: pivot {k} is "
            f"{pivots[k]:.3e} (threshold {pivot_tol:.1e} * {scale:.3e})",
            pivot_index=k,
        )
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    resid = float(np.linalg.norm(M @ x - b))
    bound = solve_tol * (
        float(np.linalg.norm(M)) * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
    )
    if resid > bound:
        raise NumericalError(
            f"solve residual {resid:.3e} exceeds tolerance bound {bound:.3e}"
        )
    return x


def spectral_radius(A: Mat) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        return 0.0
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        # The QR iteration inside LAPACK gave up; it does not expose the
        # iteration count, so report what it says.
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.max(np.abs(vals)))


def orthonormal_basis(columns: Mat, rank_tol: float = 1e-12) -> Mat:
    """Orthonormal basis (as columns) of the column span of the input.

    Rank-deficient inputs are reduced to a basis of the span; an input
    with no numerically nonzero column is rejected.
    """
    B = np.asarray(columns, dtype=complex)
    if B.ndim != 2 or B.shape[1] == 0:
        raise ValueError(f"expected a nonempty matrix of columns, got shape {B.shape}")
    u, s, _ = np.linalg.svd(B, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("cannot orthonormalize: all columns are zero")
    rank = int(np.sum(s > rank_tol * s[0]))
    return u[:, :rank]


# --- JSON codecs -----------------------------------------------------------
# Complex scalars travel as [re, im] pairs in every file format.

def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except (TypeError, OverflowError):
        raise ValueError(f"expected a [re, im] pair of numbers, got {pair!r}") from None


def vector_to_pairs(v: Vec) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def vector_from_pairs(pairs) -> Vec:
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"expected a list of [re, im] pairs, got {pairs!r}")
    return as_vector([pair_to_complex(p) for p in pairs])


def matrix_to_pairs(M: Mat) -> list[list[list[float]]]:
    return [vector_to_pairs(row) for row in np.asarray(M, dtype=complex)]


def matrix_from_pairs(rows) -> Mat:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ValueError(f"expected a nonempty list of rows, got {rows!r}")
    return as_matrix([[pair_to_complex(p) for p in row] for row in rows])
