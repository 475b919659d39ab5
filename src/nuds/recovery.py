"""Reconstruction operators and recoverability conditions.

Two recovery regimes are implemented.

Finite-step recovery uses one lattice point and its successor: with a
frame {g_j} and a dual {gt_j}, synthesize the state u from the row at
lambda, then

    w_hat = sum_j ( D[succ(lambda)][j] - <A u, g_j> ) gt_j,

which returns the exact source for any data matrix in the image of the
data map.  The coupling-coefficient route expands <A u, g_j> through
c[i][j] = <A* g_j, gt_i> instead of re-analyzing A u; both forms are
provided and agree on exact data.

Infinite-step (limit) recovery applies when rows converge: with the
stationary map S of the dynamics, the family {S* g_j} must be a frame
for the source subspace W; its dual in W, lifted back to the ambient
space, synthesizes the source from the limit row.  When {S* g_j} fails
the frame condition the source is not stably recoverable — two sources
can share identical limit data.

The subspace condition on {P_W (I - A*)^-1 g_j} is necessary for
finite-window recovery but not sufficient: the nullifier construction
produces initial states making every windowed measurement vanish for a
nonzero source, even while that condition holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import LatticeWindow, bs_membership
from .frames import (
    DualFamily,
    FrameBounds,
    VectorFamily,
    analysis,
    canonical_dual,
    frame_bounds,
    synthesis,
    verify_dual_pair,
)
from .lattice import LambdaIndex, branch_of, index_map, power_of, successor, window
from .linalg import Mat, NumericalError, SingularMatrixError, Vec
from .tolerances import BS_TOL, FRAME_TOL, RHO_MARGIN


class ConditionFailure(Exception):
    """A recoverability condition does not hold for the given system."""


def case_of(idx: LambdaIndex) -> str:
    """Report tag ('i', 'ii', 'iii') for the branch a recovery point uses."""
    return branch_of(idx).value


@dataclass(frozen=True)
class CouplingMatrix:
    """Coefficients c[i][j] = <A* g_j, gt_i> expanding A* over the frame."""

    entries: Mat


def coupling_matrix(
    A: Mat,
    g: VectorFamily,
    gdual: DualFamily,
    dual_tol: float = 1e-8,
    recon_tol: float = 1e-8,
) -> CouplingMatrix:
    """Expansion coefficients of each A* g_j over the frame {g_i}.

    Validates the dual pair first, then checks the defining identity
    A* g_j = sum_i c[i][j] g_i numerically.

    Raises:
        ValueError: when gdual is not a valid dual of g.
        NumericalError: when the expansion identity fails.
    """
    A = linalg.as_matrix(A)
    dual_residual = verify_dual_pair(g, gdual)
    if dual_residual > dual_tol:
        raise ValueError(
            f"invalid dual family: reconstruction residual {dual_residual:.3e} "
            f"exceeds {dual_tol:.1e}"
        )
    # Rows of a_star_g are A* g_j.
    a_star_g = g.vectors @ A.conj()
    entries = (a_star_g @ gdual.vectors.conj().T).T
    recon = entries.T @ g.vectors
    for j in range(g.count):
        err = float(np.linalg.norm(a_star_g[j] - recon[j]))
        scale = max(1.0, float(np.linalg.norm(a_star_g[j])))
        if err > recon_tol * scale:
            raise NumericalError(
                f"coupling expansion failed for vector {j}: residual {err:.3e}"
            )
    return CouplingMatrix(entries=entries)


def reconstruct_finite(
    D: LatticeWindow,
    at: LambdaIndex,
    A: Mat,
    g: VectorFamily,
    gdual: DualFamily | None = None,
    frame_tol: float = FRAME_TOL,
) -> Vec:
    """Recover the source from the rows at `at` and its successor.

    Synthesizes the state u from the row at `at` with the dual family
    (canonical by default), removes its propagated contribution from the
    successor row, and synthesizes what remains:

        w_hat = sum_j ( D[succ][j] - <A u, g_j> ) gt_j.

    Exact for data matrices in the image of the data map, on every
    branch of the lattice.

    Raises:
        NotAFrameError: when g is not a frame (no dual exists).
        ValueError: when a needed row is missing from D.
    """
    A = linalg.as_matrix(A)
    if gdual is None:
        gdual = canonical_dual(g, frame_tol)
    row_at = D.row(at)
    row_next = D.row(successor(at))
    u = synthesis(row_at, gdual)
    return synthesis(row_next - analysis(A @ u, g), gdual)


def reconstruct_finite_coupling(
    D: LatticeWindow,
    at: LambdaIndex,
    A: Mat,
    g: VectorFamily,
    gdual: DualFamily | None = None,
    coupling: CouplingMatrix | None = None,
    frame_tol: float = FRAME_TOL,
) -> Vec:
    """Source recovery through the coupling-coefficient expansion.

    Algebraically identical to :func:`reconstruct_finite` on exact data:
    the propagated term is expanded as sum_i conj(c[i][j]) D[at][i]
    instead of re-analyzing the synthesized state.  Kept as an
    independent route so the two can be cross-checked.
    """
    if gdual is None:
        gdual = canonical_dual(g, frame_tol)
    if coupling is None:
        coupling = coupling_matrix(A, g, gdual)
    row_at = D.row(at)
    row_next = D.row(successor(at))
    propagated = row_at @ coupling.entries.conj()
    return synthesis(row_next - propagated, gdual)


def recovery_certificate_full(g: VectorFamily) -> FrameBounds:
    """Frame bounds of the sampling family.

    Finite-step recovery of sources anywhere in the ambient space works
    exactly when the family is a frame, i.e. when the returned alpha
    clears the frame tolerance.
    """
    return frame_bounds(g)


def subspace_condition(A: Mat, g: VectorFamily, W_basis: Mat) -> FrameBounds:
    """Bounds of {P_W (I - A*)^-1 g_j} as a frame for W.

    This is a necessary condition for recovering sources in W from
    windowed data; it is NOT sufficient (see
    :func:`counterexample_nullifier`).

    Raises:
        NumericalError: when 1 is in the spectrum of A (resolvent fails).
    """
    A = linalg.as_matrix(A)
    B = linalg.as_matrix(W_basis)
    eye = np.eye(A.shape[0], dtype=complex)
    try:
        # Columns of Z solve (I - A*) z_j = g_j.
        Z = linalg.solve(eye - A.conj().T, g.vectors.T)
    except SingularMatrixError as exc:
        raise NumericalError(
            f"subspace condition unavailable: 1 is in the spectrum of A "
            f"(I - A* is singular at pivot {exc.pivot_index})"
        ) from exc
    in_w_coords = Z.T @ B.conj()
    return frame_bounds(VectorFamily(vectors=in_w_coords))


@dataclass(frozen=True)
class StationaryMap:
    """The map S sending a source in W to its limit state, with adjoint data.

    Attributes:
        apply: (dim x p) matrix taking W-coordinates to the ambient
            space: S(w) = apply @ (W-coordinates of w).
        adjoint_family: the vectors S* g_j expressed in W-coordinates.
        W_basis: orthonormal columns of W (used to lift W-coordinate
            vectors back to the ambient space).
        rho: spectral radius of the evolution operator (diagnostic).
    """

    apply: Mat
    adjoint_family: VectorFamily
    W_basis: Mat
    rho: float

    def stationary_state(self, w: Vec) -> Vec:
        """S(w) for a source given in ambient coordinates (w must lie in W)."""
        w = linalg.as_vector(w)
        return self.apply @ (self.W_basis.conj().T @ w)


def stationary_map_from_A(
    A: Mat, g: VectorFamily, W_basis: Mat, rho_margin: float = RHO_MARGIN
) -> StationaryMap:
    """Stationary map of the linear dynamics when the spectral radius is < 1.

    In that regime both orbits converge to (I - A)^-1 w from any initial
    states, so S = (I - A)^-1 restricted to W and S* = P_W (I - A*)^-1.

    Raises:
        ConditionFailure: when rho(A) >= 1 - rho_margin, naming the radius.
    """
    A = linalg.as_matrix(A)
    B = linalg.as_matrix(W_basis)
    rho = linalg.spectral_radius(A)
    if rho >= 1.0 - rho_margin:
        raise ConditionFailure(
            f"stationary map requires spectral radius below 1: rho(A) = {rho:.6g} "
            f"(margin {rho_margin:.1e})"
        )
    eye = np.eye(A.shape[0], dtype=complex)
    apply = linalg.solve(eye - A, B)
    adjoint = linalg.solve(eye - A.conj().T, g.vectors.T).T @ B.conj()
    return StationaryMap(
        apply=apply,
        adjoint_family=VectorFamily(vectors=adjoint),
        W_basis=B,
        rho=rho,
    )


def limit_operator(
    D: LatticeWindow,
    G: VectorFamily | DualFamily,
    tail: int,
    bs_tol: float = BS_TOL,
) -> Vec:
    """Evaluate lim sum_j D[lambda][j] G_j at the window edges.

    The limit row is taken from the outermost rows (see
    :func:`nuds.dynamics.bs_membership`); the Cauchy tail gap must clear
    the row-convergence tolerance.

    Raises:
        ConditionFailure: when the rows are not convergent at the edges.
    """
    lim = bs_membership(D, tail, bs_tol)
    if not lim.member:
        raise ConditionFailure(
            f"rows are not convergent: tail gap {lim.tail_gap:.3e} exceeds "
            f"{bs_tol:.1e}"
        )
    return synthesis(lim.limit_row, G)


@dataclass
class RecoveryReport:
    """Outcome of a recovery run.

    abs_error is present only when the true source was supplied;
    residual measures data consistency of the recovered source, and
    diagnostics carries {alpha, beta, rho, tail_gap, case}.
    """

    w_hat: Vec
    abs_error: float | None
    residual: float
    diagnostics: dict

    def to_json(self) -> dict:
        diag = dict(self.diagnostics)
        out = {
            "schema": 1,
            "w_hat": linalg.vector_to_pairs(self.w_hat),
            "abs_error": None if self.abs_error is None else float(self.abs_error),
            "residual": float(self.residual),
            "diagnostics": {
                "alpha": float(diag["alpha"]),
                "beta": float(diag["beta"]),
                "rho": float(diag["rho"]),
                "tail_gap": float(diag["tail_gap"]),
                "case": str(diag["case"]),
            },
        }
        return out


def finite_recovery_report(
    D: LatticeWindow,
    at: LambdaIndex,
    A: Mat,
    g: VectorFamily,
    gdual: DualFamily | None = None,
    w_true: Vec | None = None,
    frame_tol: float = FRAME_TOL,
) -> RecoveryReport:
    """Run finite-step recovery and package the full report.

    The residual re-predicts the successor row from the recovered source
    and the synthesized state; it vanishes on exact data.
    """
    A = linalg.as_matrix(A)
    bounds = frame_bounds(g)
    if not bounds.is_frame(frame_tol):
        raise ConditionFailure(
            f"not stably recoverable: sampling family is not a frame "
            f"(alpha = {bounds.alpha:.3e})"
        )
    if gdual is None:
        gdual = canonical_dual(g, frame_tol)
    w_hat = reconstruct_finite(D, at, A, g, gdual, frame_tol)
    u = synthesis(D.row(at), gdual)
    predicted_next = analysis(A @ u + w_hat, g)
    residual = float(np.linalg.norm(predicted_next - D.row(successor(at))))
    abs_error = None
    if w_true is not None:
        abs_error = float(np.linalg.norm(w_hat - linalg.as_vector(w_true)))
    return RecoveryReport(
        w_hat=w_hat,
        abs_error=abs_error,
        residual=residual,
        diagnostics={
            "alpha": bounds.alpha,
            "beta": bounds.beta,
            "rho": linalg.spectral_radius(A),
            "tail_gap": 0.0,
            "case": case_of(at),
        },
    )


def reconstruct_infinite(
    D: LatticeWindow,
    smap: StationaryMap,
    tail: int,
    w_true: Vec | None = None,
    frame_tol: float = FRAME_TOL,
    bs_tol: float = BS_TOL,
) -> RecoveryReport:
    """Recover the source from the limit row of a convergent data matrix.

    Requires {S* g_j} to be a frame for W; its canonical dual in W is
    lifted to the ambient space and synthesized against the limit row.
    The recovery error is controlled by the tail gap: it is bounded by
    sqrt(beta') times the limit-row error, where beta' is the upper
    bound of the dual family in W.

    Raises:
        ConditionFailure: "not stably recoverable" when the adjoint
            family misses the frame condition, or when the rows are not
            convergent at the window edges.
    """
    bounds = frame_bounds(smap.adjoint_family)
    if not bounds.is_frame(frame_tol):
        raise ConditionFailure(
            f"not stably recoverable: the adjoint family is not a frame for W "
            f"(alpha = {bounds.alpha:.3e})"
        )
    dual_in_w = canonical_dual(smap.adjoint_family, frame_tol)
    lifted = DualFamily(vectors=dual_in_w.vectors @ smap.W_basis.T)
    lim = bs_membership(D, tail, bs_tol)
    if not lim.member:
        raise ConditionFailure(
            f"rows are not convergent: tail gap {lim.tail_gap:.3e} exceeds "
            f"{bs_tol:.1e}"
        )
    w_hat = synthesis(lim.limit_row, lifted)
    predicted_limit = analysis(smap.W_basis.conj().T @ w_hat, smap.adjoint_family)
    residual = float(np.linalg.norm(predicted_limit - lim.limit_row))
    abs_error = None
    if w_true is not None:
        abs_error = float(np.linalg.norm(w_hat - linalg.as_vector(w_true)))
    return RecoveryReport(
        w_hat=w_hat,
        abs_error=abs_error,
        residual=residual,
        diagnostics={
            "alpha": bounds.alpha,
            "beta": bounds.beta,
            "rho": smap.rho,
            "tail_gap": lim.tail_gap,
            "case": "limit",
        },
    )


def counterexample_nullifier(
    A: Mat, w: Vec, K: int
) -> tuple[Vec, Vec, np.ndarray]:
    """Initial states that zero out every windowed measurement.

    For a diagonal evolution operator with distinct entries in (0, 1),
    the single sampling vector g = (I - A) w, and the structured source
    w (all coordinates nonzero), this solves two 2K x 2K power-weighted
    systems — one per orbit half — so that x0 (supported on the
    nonnegative half of the window coordinates) and xm2 (negative half)
    make all 4K measurements <x_lambda, g> vanish while the source does
    not.  The systems are nonsingular: each is a Vandermonde matrix on
    distinct nodes with nonzero column scalings.

    Returns:
        (x0, xm2, measurements) with measurements in window order,
        recomputed from the closed-form states for verification.

    Raises:
        ValueError: when A is not diagonal with distinct entries in
            (0, 1) or some coordinate of (I - A) w vanishes.
        NumericalError: when a system solve is singular (carries a
            determinant estimate; cannot occur for valid inputs).
    """
    A = linalg.as_matrix(A)
    w = linalg.as_vector(w)
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    d = 4 * K
    if A.shape != (d, d) or w.shape[0] != d:
        raise ValueError(
            f"expected A of shape ({d}, {d}) and w of length {d} for K={K}, "
            f"got {A.shape} and {w.shape[0]}"
        )
    diag = np.diag(A)
    off = A - np.diag(diag)
    if float(np.linalg.norm(off)) > 1e-12 * max(1.0, float(np.linalg.norm(A))):
        raise ValueError("A must be diagonal")
    if float(np.max(np.abs(diag.imag))) > 1e-12:
        raise ValueError("A must have real diagonal entries")
    lam = diag.real
    if np.any(lam <= 0.0) or np.any(lam >= 1.0):
        raise ValueError("diagonal entries must lie strictly inside (0, 1)")
    if len(set(lam.tolist())) != d:
        raise ValueError("diagonal entries must be pairwise distinct")
    g = (np.eye(d, dtype=complex) - A) @ w
    if float(np.min(np.abs(g))) == 0.0:
        raise ValueError(
            "nullifier construction needs every coordinate of (I - A) w nonzero"
        )

    win = window(K)
    imap = index_map(d)
    # b[n] = <(A^0 + ... + A^(n-1)) w, g> depends only on the step count.
    b = np.zeros(2 * K, dtype=complex)
    geom = np.zeros(d, dtype=complex)
    for n in range(2 * K):
        b[n] = linalg.inner(geom, g)
        geom = A @ geom + w

    def half_solve(positions: list[int]) -> np.ndarray:
        lam_half = lam[positions]
        g_half = g[positions]
        M = np.array(
            [[lam_half[c] ** n * np.conj(g_half[c]) for c in range(2 * K)]
             for n in range(2 * K)],
            dtype=complex,
        )
        try:
            return linalg.solve(M, -b)
        except SingularMatrixError as exc:
            sign, logdet = np.linalg.slogdet(M)
            raise NumericalError(
                f"nullifier system is singular (pivot {exc.pivot_index}, "
                f"slogdet = ({sign:.3g}, {logdet:.3g}))"
            ) from exc

    pos_positions = [imap.index_of(idx) for idx in win if idx.m >= 0]
    neg_positions = [imap.index_of(idx) for idx in win if idx.m < 0]
    x0 = np.zeros(d, dtype=complex)
    xm2 = np.zeros(d, dtype=complex)
    x0[pos_positions] = half_solve(pos_positions)
    xm2[neg_positions] = half_solve(neg_positions)

    # Recompute every measurement from the closed-form states.
    measurements = np.zeros(len(win), dtype=complex)
    for p, idx in enumerate(win):
        n = power_of(idx)
        x_init = x0 if idx.m >= 0 else xm2
        state = (lam.astype(complex) ** n) * x_init
        geom = np.zeros(d, dtype=complex)
        for _ in range(n):
            geom = A @ geom + w
        measurements[p] = linalg.inner(state + geom, g)
    return x0, xm2, measurements
