"""Independent oracles the tests check the package against.

Each one recomputes a quantity by a route the package does not take: one
inner product at a time instead of a matrix product, the
exact rational value of a lattice point, states from their closed forms
instead of the recurrence, the recurrence residual of a trajectory, the
canonical dual by an LU solve instead of the eigendecomposition of the
frame operator, the exact dual-pair residual, the min-norm gap of a
coefficient vector,
finite-step recovery through the coupling coefficients instead of
re-analyzing the synthesized state, the subspace family by a solve with
I - A* instead of reading it off the solve with I - A, the text of a
JSON output from the stdlib's own indented encoder, and, at 40 digits with
mpmath, the frame bounds and the spectral radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from nuds import linalg
from nuds.dynamics import LatticeWindow, SystemSpec, _orbit_positions
from nuds.frames import NotAFrameError, VectorFamily, analysis, frame_operator, synthesis
from nuds.lattice import LambdaIndex, SpectralParams, power_of, successor
from nuds.linalg import Mat, NumericalError, Vec
from nuds.tolerances import DEFAULTS, Tolerances


# --- linear algebra -----------------------------------------------------------

def inner(u: Vec, v: Vec) -> complex:
    """Inner product sum(u_k * conj(v_k)); conjugate-linear in v."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"length mismatch in inner product: {u.shape} vs {v.shape}")
    # np.vdot conjugates its first argument.
    return complex(np.vdot(v, u))


# --- lattice ------------------------------------------------------------------

def index_value(idx: LambdaIndex, params: SpectralParams) -> Fraction:
    """Exact rational value 2m + eps * r/N of a lattice point."""
    return Fraction(2 * idx.m) + idx.eps * Fraction(params.r, params.N)


# --- dynamics -----------------------------------------------------------------

def recurrence_residual(traj: LatticeWindow, A: Mat, w: Vec) -> float:
    """Max norm of x_succ - (A x + w) over indices whose successor is present.

    Zero for simulated trajectories; meaningful for externally supplied
    ones, which should stay below 1e-8 times the state scale.
    """
    X = traj.values
    orbits = _orbit_positions(traj.K)
    src = [p for positions in orbits for p in positions[:-1]]
    dst = [p for positions in orbits for p in positions[1:]]
    # One matrix-vector product per row, as in simulate: a batched
    # product rounds differently, and simulated states must give zero.
    predicted = np.array([A @ x for x in X[src]]) + w
    return float(np.linalg.norm(X[dst] - predicted, axis=1).max())


def _matrix_power_and_sum(A: Mat, n: int) -> tuple[Mat, Mat]:
    """Return (A^n, I + A + ... + A^(n-1)); the sum is zero when n = 0."""
    d = A.shape[0]
    power = np.eye(d, dtype=complex)
    geom = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        geom = geom + power
        power = A @ power
    return power, geom


def closed_form_state(spec: SystemSpec, idx: LambdaIndex) -> Vec:
    """State by the explicit formula A^n x_init + (sum_{k<n} A^k) w.

    n is the orbit position of `idx` and x_init is x0 on the
    nonnegative orbit, xm2 on the negative one.  Independent of
    ``simulate`` (used to cross-check it).
    """
    n = power_of(idx)
    x_init = spec.x0 if idx.m >= 0 else spec.xm2
    power, geom = _matrix_power_and_sum(spec.A, n)
    return power @ x_init + geom @ spec.w


def closed_form_resolvent_state(
    spec: SystemSpec, idx: LambdaIndex, *, tol: Tolerances = DEFAULTS
) -> Vec:
    """State by the resolvent formula A^n x_init + (I - A^n)(I - A)^-1 w.

    Requires 1 outside the spectrum of A; agrees with
    :func:`closed_form_state` wherever both are defined.
    """
    n = power_of(idx)
    x_init = spec.x0 if idx.m >= 0 else spec.xm2
    eye = np.eye(spec.dim, dtype=complex)
    try:
        u = linalg.solve(eye - spec.A, spec.w, tol=tol)
    except linalg.SingularMatrixError as exc:
        raise linalg.NumericalError(
            f"resolvent form unavailable: 1 is in the spectrum of A "
            f"(I - A is singular at pivot {exc.pivot_index})"
        ) from exc
    power, _ = _matrix_power_and_sum(spec.A, n)
    return power @ x_init + u - power @ u


# --- frames -------------------------------------------------------------------

def lu_dual(F: VectorFamily, *, tol: Tolerances = DEFAULTS) -> VectorFamily:
    """The canonical dual {Theta^-1 f_k} by one LU solve of Theta X = [f_k].

    The frame test reads alpha from numpy's own eigenvalue routine, not
    from ``nuds.frames.FrameAnalysis``, whose eigenvectors give the
    package's dual.

    Raises:
        NotAFrameError: when alpha does not clear ``tol.FRAME_TOL``.
    """
    theta = frame_operator(F)
    alpha = max(float(np.linalg.eigvalsh(theta)[0]), 0.0)
    if not alpha > tol.FRAME_TOL:
        raise NotAFrameError(alpha)
    return VectorFamily(vectors=linalg.solve(theta, F.vectors.T, tol=tol).T)


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
    dual = lu_dual(F, tol=tol)
    canon = analysis(f, dual)
    return float(np.sum(np.abs(c) ** 2) - np.sum(np.abs(canon) ** 2))


# --- recovery -----------------------------------------------------------------

@dataclass(frozen=True)
class CouplingMatrix:
    """Coefficients c[i][j] = <A* g_j, gt_i> expanding A* over the frame."""

    entries: Mat


def coupling_matrix(
    A: Mat, g: VectorFamily, gdual: VectorFamily, *, tol: Tolerances = DEFAULTS
) -> CouplingMatrix:
    """Expansion coefficients of each A* g_j over the frame {g_i}.

    Validates the dual pair first, then checks the defining identity
    A* g_j = sum_i c[i][j] g_i numerically.  Both are residuals of the
    linear identities a dual solves, so both are held to
    ``tol.SOLVE_TOL``.

    Raises:
        ValueError: when gdual is not a valid dual of g.
        NumericalError: when the expansion identity fails.
    """
    A = linalg.as_matrix(A)
    dual_residual = verify_dual_pair(g, gdual)
    if dual_residual > tol.SOLVE_TOL:
        raise ValueError(
            f"invalid dual family: reconstruction residual {dual_residual:.3e} "
            f"exceeds {tol.SOLVE_TOL:.1e}"
        )
    # Rows of a_star_g are A* g_j.
    a_star_g = g.vectors @ A.conj()
    entries = (a_star_g @ gdual.vectors.conj().T).T
    recon = entries.T @ g.vectors
    for j in range(g.count):
        err = float(np.linalg.norm(a_star_g[j] - recon[j]))
        scale = max(1.0, float(np.linalg.norm(a_star_g[j])))
        if err > tol.SOLVE_TOL * scale:
            raise NumericalError(
                f"coupling expansion failed for vector {j}: residual {err:.3e}"
            )
    return CouplingMatrix(entries=entries)


def reconstruct_finite_coupling(
    D: LatticeWindow,
    at: LambdaIndex,
    A: Mat,
    g: VectorFamily,
    gdual: VectorFamily | None = None,
    coupling: CouplingMatrix | None = None,
    *,
    tol: Tolerances = DEFAULTS,
) -> Vec:
    """Source recovery through the coupling-coefficient expansion.

    Algebraically identical to ``nuds.recovery.reconstruct_finite`` on
    exact data: the propagated term is expanded as
    sum_i conj(c[i][j]) D[at][i] instead of re-analyzing the synthesized
    state.  Kept as an independent route so the two can be cross-checked.
    """
    if gdual is None:
        gdual = lu_dual(g, tol=tol)
    if coupling is None:
        coupling = coupling_matrix(A, g, gdual, tol=tol)
    row_at = D.row(at)
    row_next = D.row(successor(at))
    propagated = row_at @ coupling.entries.conj()
    return synthesis(row_next - propagated, gdual)


def subspace_family_by_adjoint_solve(
    A: Mat, g: VectorFamily, W_basis: Mat, *, tol: Tolerances = DEFAULTS
) -> VectorFamily:
    """{P_W (I - A*)^-1 g_j} in W-coordinates, by a solve with I - A*.

    Columns of Z solve (I - A*) z_j = g_j, and row j of the family is
    z_j^T conj(B) = (B* z_j)^T.  ``nuds.recovery`` reads the same family
    off its solve X = (I - A)^-1 B instead, as S* g_j = X* g_j.
    """
    A = linalg.as_matrix(A)
    B = linalg.as_matrix(W_basis)
    eye = np.eye(A.shape[0], dtype=complex)
    Z = linalg.solve(eye - A.conj().T, g.vectors.T, tol=tol)
    return VectorFamily(vectors=Z.T @ B.conj())


# --- output -------------------------------------------------------------------

def indented_json(doc) -> str:
    """The text every JSON file the CLI writes must hold, less its final newline.

    Documents hold complex arrays as ndarrays; the file holds each as the
    list of [re, im] pairs ``linalg.vector_to_pairs`` gives.
    """
    return json.dumps(doc, indent=2, sort_keys=True, default=linalg.vector_to_pairs)


# --- high precision -------------------------------------------------------------
# References at MP_DPS significant digits, computed from the exact binary
# values of the float inputs, against which a test bounds the package's
# double-precision results.

MP_DPS = 40


def _mp_matrix(M) -> mpmath.matrix:
    M = np.asarray(M, dtype=complex)
    out = mpmath.matrix(*M.shape)
    for (i, j), z in np.ndenumerate(M):
        out[i, j] = mpmath.mpc(z.real, z.imag)
    return out


def mp_frame_bounds(F: VectorFamily) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(alpha, beta): the extreme eigenvalues of Theta = sum_k f_k f_k*, by mpmath's eighe."""
    with mpmath.workdps(MP_DPS):
        V = _mp_matrix(F.vectors)  # row k is f_k
        vals = mpmath.eighe(V.T * V.H.T, eigvals_only=True)
        return min(vals), max(vals)


def mp_spectral_radius(A: Mat) -> mpmath.mpf:
    """rho(A), the largest modulus among A's eigenvalues by mpmath's eig."""
    with mpmath.workdps(MP_DPS):
        return max(abs(v) for v in mpmath.eig(_mp_matrix(A), right=False))
