"""Dense complex linear algebra shared by every other module.

Vectors and matrices are plain numpy arrays of dtype complex; the
constructors here validate shape and finiteness once so downstream code
can assume clean inputs.  Everything is dense — the intended scale is
dimension <= 256.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from itertools import chain

import numpy as np
import scipy.linalg

from .tolerances import DEFAULTS, Tolerances

Vec = np.ndarray
Mat = np.ndarray

# Columns count as orthonormal while ||B*B - I|| stays below this times
# max(1, ||B*B||): a basis read from JSON round-trips to a few ulps.
ORTHONORMAL_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class SingularMatrixError(NumericalError):
    """A solve hit a negligible pivot; carries its index and its modulus."""

    def __init__(self, message: str, pivot_index: int, pivot: float):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.pivot = pivot


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


def hermitian_eigs(M: Mat, *, tol: Tolerances = DEFAULTS) -> tuple[np.ndarray, Mat]:
    """Eigendecomposition M = V diag(vals) V* of a Hermitian matrix.

    Returns (vals, V): the eigenvalues real and ascending, V unitary with
    the matching eigenvectors as columns.  Rejects inputs farther than
    ``tol.HERM_TOL`` (relative) from their own conjugate transpose, and
    checks that the decomposition reproduces the matrix to
    ``tol.EIG_TOL`` (relative).  A matrix with a non-finite entry raises
    :class:`NumericalError` before either check.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericalError(
            "matrix to eigendecompose has non-finite entries: it overflowed or holds NaN"
        )
    scale = max(1.0, float(np.linalg.norm(M)))
    asym = float(np.linalg.norm(M - M.conj().T))
    if not asym <= tol.HERM_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: ||M - M*|| = {asym:.3e} exceeds "
            f"{tol.HERM_TOL:.1e} * scale"
        )
    vals, vecs = np.linalg.eigh(M)
    resid = float(np.linalg.norm((vecs * vals) @ vecs.conj().T - M))
    if not resid <= tol.EIG_TOL * scale:
        raise NumericalError(
            f"eigendecomposition residual {resid:.3e} exceeds {tol.EIG_TOL:.1e} * scale"
        )
    return vals, vecs


def solve(M: Mat, b: Vec, *, tol: Tolerances = DEFAULTS) -> np.ndarray:
    """Solve M x = b for square M; b may have multiple columns.

    Raises :class:`SingularMatrixError` naming the offending pivot when
    elimination meets a pivot below ``tol.PIVOT_TOL`` times the matrix
    scale, and :class:`NumericalError` when the residual exceeds
    ``tol.SOLVE_TOL * (||M|| ||x|| + ||b||)``.
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
    if pivots[k] < tol.PIVOT_TOL * scale:
        raise SingularMatrixError(
            f"matrix is singular to working precision: pivot {k} is "
            f"{pivots[k]:.3e} (threshold {tol.PIVOT_TOL:.1e} * {scale:.3e})",
            pivot_index=k,
            pivot=float(pivots[k]),
        )
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    require_solution(M, x, b, tol=tol)
    return x


def require_solution(M: Mat, x: np.ndarray, b: np.ndarray, *, tol: Tolerances) -> None:
    """Raise :class:`NumericalError` unless x solves M x = b to ``tol.SOLVE_TOL``.

    The bound is ``tol.SOLVE_TOL * (||M|| ||x|| + ||b||)`` on ``||M x - b||``.
    """
    resid = float(np.linalg.norm(M @ x - b))
    bound = tol.SOLVE_TOL * (
        float(np.linalg.norm(M)) * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
    )
    if not resid <= bound:
        raise NumericalError(
            f"solve residual {resid:.3e} exceeds tolerance bound {bound:.3e}"
        )


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


def require_orthonormal(B: Mat, name: str) -> None:
    """Raise ``ValueError`` unless the columns of B are orthonormal."""
    gram = B.conj().T @ B
    defect = float(np.linalg.norm(gram - np.eye(B.shape[1])))
    if defect > ORTHONORMAL_TOL * max(1.0, float(np.linalg.norm(gram))):
        raise ValueError(f"{name} must have orthonormal columns")


# --- JSON codecs -----------------------------------------------------------
# Complex scalars travel as [re, im] pairs in every file format.  A vector,
# or one row of a matrix, converts in a few C-level passes (pair types,
# pair lengths, one np.fromiter over the numbers), so a matrix whose rows
# arrive one at a time never needs them all at once.  The pair-by-pair walk
# runs only when a list is rejected, to raise the error that names the
# offending pair.

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


_SEQUENCE_TYPES = {list, tuple}


def _pairs_array(pairs) -> np.ndarray | None:
    """The pairs as one 1-d complex array, or None if any pair is suspect.

    np.fromiter converts each number as ``float`` does, except that it
    reads ``null`` as NaN; any non-finite result therefore also returns
    None, and the pair walk decides between a null and a NaN.
    """
    if not (set(map(type, pairs)) <= _SEQUENCE_TYPES and set(map(len, pairs)) <= {2}):
        return None
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.float64, count=2 * len(pairs))
    except (TypeError, ValueError, OverflowError):
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(complex)


def _complex_list(pairs) -> list[complex]:
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"expected a list of [re, im] pairs, got {pairs!r}")
    return [pair_to_complex(p) for p in pairs]


def vector_to_pairs(v: Vec) -> list[list[float]]:
    """One [re, im] pair per entry; a matrix gives one list of pairs per row."""
    z = np.ascontiguousarray(v, dtype=complex)
    return z.view(np.float64).reshape(z.shape + (2,)).tolist()


def vector_from_pairs(pairs) -> Vec:
    v = _pairs_array(pairs) if isinstance(pairs, (list, tuple)) else None
    return as_vector(_complex_list(pairs) if v is None else v)


def _rows_array(rows) -> Mat | None:
    """The rows as one 2-d complex array, each converted as it arrives.

    None if there are no rows, or if any row is suspect: not a list, of
    another length than the first, or rejected by :func:`_pairs_array`.
    """
    parts = []
    for row in rows:
        if type(row) not in _SEQUENCE_TYPES:
            return None
        part = _pairs_array(row)
        if part is None or (parts and len(part) != len(parts[0])):
            return None
        parts.append(part)
    if not parts:
        return None
    return np.concatenate(parts).reshape(len(parts), len(parts[0]))


def matrix_from_pairs(rows) -> Mat:
    """A 2-d complex matrix from a list of rows of [re, im] pairs.

    ``rows`` may also be an iterator that yields the rows one at a time,
    as a streaming decoder does; each row is converted when it arrives and
    dropped.  A rejected list is read again pair by pair, so the error
    names the offending pair, or else the first row of another length than
    the first; an iterator's rows are gone by then, so a rejected iterator
    raises a plain ``ValueError``.
    """
    streamed = isinstance(rows, Iterator)
    if not streamed and (not isinstance(rows, (list, tuple)) or not rows):
        raise ValueError(f"expected a nonempty list of rows, got {rows!r}")
    M = _rows_array(rows)
    if M is None:
        if streamed:
            raise ValueError("expected nonempty rows of finite [re, im] pairs, all of one length")
        M = [_complex_list(row) for row in rows]
        for i, row in enumerate(M):
            if len(row) != len(M[0]):
                raise ValueError(f"row {i} has {len(row)} entries, expected {len(M[0])}")
    return as_matrix(M)
