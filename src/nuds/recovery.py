"""Reconstruction operators and recoverability conditions.

Two recovery regimes are implemented.

Finite-step recovery uses one lattice point and its successor: with a
frame {g_j} and a dual {gt_j}, synthesize the state u from the row at
lambda, then

    w_hat = sum_j ( D[succ(lambda)][j] - <A u, g_j> ) gt_j,

which returns the exact source for any data matrix in the image of the
data map.  An independent coupling-coefficient route, which expands
<A u, g_j> through c[i][j] = <A* g_j, gt_i> instead of re-analyzing A u,
lives with the other test oracles in ``tests/oracles.py``.

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
from .dynamics import LatticeWindow, TailLimit, bs_membership
from .frames import FrameAnalysis, FrameBounds, VectorFamily, analysis, synthesis
from .lattice import LambdaIndex, branch_of, position, power_of, successor, window
from .linalg import Mat, NumericalError, SingularMatrixError, Vec
from .tolerances import DEFAULTS, Tolerances

# The nullifier needs an exactly diagonal, real operator; off-diagonal
# mass or imaginary parts above rounding level (relative) are rejected.
DIAGONAL_TOL = 1e-12


class ConditionFailure(Exception):
    """A recoverability condition does not hold for the given system."""


def reconstruct_finite(
    D: LatticeWindow, at: LambdaIndex, A: Mat, g: VectorFamily, gdual: VectorFamily
) -> Vec:
    """Recover the source from the rows at `at` and its successor.

    Synthesizes the state u from the row at `at` with the dual family
    gdual of g, removes its propagated contribution from the successor
    row, and synthesizes what remains:

        w_hat = sum_j ( D[succ][j] - <A u, g_j> ) gt_j.

    Exact for data matrices in the image of the data map, on every
    branch of the lattice.

    Raises:
        ValueError: when a needed row is missing from D.
    """
    u = synthesis(D.row(at), gdual)
    return synthesis(D.row(successor(at)) - analysis(linalg.as_matrix(A) @ u, g), gdual)


def subspace_condition(
    A: Mat, g: VectorFamily, W_basis: Mat, *, tol: Tolerances = DEFAULTS
) -> FrameBounds:
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
        Z = linalg.solve(eye - A.conj().T, g.vectors.T, tol=tol)
    except SingularMatrixError as exc:
        raise NumericalError(
            f"subspace condition unavailable: 1 is in the spectrum of A "
            f"(I - A* is singular at pivot {exc.pivot_index})"
        ) from exc
    in_w_coords = Z.T @ B.conj()
    return FrameAnalysis(VectorFamily(vectors=in_w_coords), tol=tol).bounds


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
    A: Mat, g: VectorFamily, W_basis: Mat, *, tol: Tolerances = DEFAULTS
) -> StationaryMap:
    """Stationary map of the linear dynamics when the spectral radius is < 1.

    In that regime both orbits converge to (I - A)^-1 w from any initial
    states, so S = (I - A)^-1 restricted to W and S* = P_W (I - A*)^-1.

    Raises:
        ConditionFailure: when rho(A) >= 1 - tol.RHO_MARGIN, naming the radius.
    """
    A = linalg.as_matrix(A)
    B = linalg.as_matrix(W_basis)
    rho = linalg.spectral_radius(A)
    if rho >= 1.0 - tol.RHO_MARGIN:
        raise ConditionFailure(
            f"stationary map requires spectral radius below 1: rho(A) = {rho:.6g} "
            f"(margin {tol.RHO_MARGIN:.1e})"
        )
    eye = np.eye(A.shape[0], dtype=complex)
    apply = linalg.solve(eye - A, B, tol=tol)
    adjoint = linalg.solve(eye - A.conj().T, g.vectors.T, tol=tol).T @ B.conj()
    return StationaryMap(
        apply=apply,
        adjoint_family=VectorFamily(vectors=adjoint),
        W_basis=B,
        rho=rho,
    )


def _convergent_limit(D: LatticeWindow, tol: Tolerances) -> TailLimit:
    """The edge row limit; ConditionFailure unless the gap clears tol.BS_TOL."""
    lim = bs_membership(D, tol=tol)
    if not lim.member:
        raise ConditionFailure(
            f"rows are not convergent: tail gap {lim.tail_gap:.3e} exceeds "
            f"{tol.BS_TOL:.1e}"
        )
    return lim


def limit_operator(D: LatticeWindow, G: VectorFamily, *, tol: Tolerances = DEFAULTS) -> Vec:
    """Evaluate lim sum_j D[lambda][j] G_j at the window edges.

    The limit row is taken from the outermost rows (see
    :func:`nuds.dynamics.bs_membership`); the Cauchy tail gap must clear
    ``tol.BS_TOL``.

    Raises:
        ConditionFailure: when the rows are not convergent at the edges.
    """
    return synthesis(_convergent_limit(D, tol).limit_row, G)


def _require_frame(F: VectorFamily, what: str, tol: Tolerances) -> FrameAnalysis:
    """The analysis of F; unless F is a frame, ConditionFailure saying ``what``."""
    frame = FrameAnalysis(F, tol=tol)
    if not frame.bounds.is_frame(tol=tol):
        raise ConditionFailure(
            f"not stably recoverable: {what} (alpha = {frame.bounds.alpha:.3e})"
        )
    return frame


def _abs_error(w_hat: Vec, w_true: Vec | None) -> float | None:
    return None if w_true is None else float(np.linalg.norm(w_hat - linalg.as_vector(w_true)))


@dataclass
class RecoveryReport:
    """Outcome of a recovery run.

    abs_error is present only when the true source was supplied;
    residual measures data consistency of the recovered source.  bounds
    belong to the family whose dual synthesized the source; case is the
    lattice branch ("i", "ii", "iii") or "limit".
    """

    w_hat: Vec
    abs_error: float | None
    residual: float
    bounds: FrameBounds
    rho: float
    tail_gap: float
    case: str

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "w_hat": linalg.vector_to_pairs(self.w_hat),
            "abs_error": None if self.abs_error is None else float(self.abs_error),
            "residual": float(self.residual),
            "diagnostics": {
                "alpha": float(self.bounds.alpha),
                "beta": float(self.bounds.beta),
                "rho": float(self.rho),
                "tail_gap": float(self.tail_gap),
                "case": str(self.case),
            },
        }


def finite_recovery_report(
    D: LatticeWindow,
    cases: tuple[LambdaIndex, ...],
    A: Mat,
    g: VectorFamily,
    w_true: Vec | None = None,
    *,
    tol: Tolerances = DEFAULTS,
) -> list[RecoveryReport]:
    """Run finite-step recovery from each point of ``cases``; one report each.

    One eigendecomposition of the frame operator of g gives the bounds
    and the canonical dual for all the points, and the spectral radius is
    computed once.  Each residual re-predicts the successor row
    from the recovered source and the synthesized state; it vanishes on
    exact data.
    """
    A = linalg.as_matrix(A)
    frame = _require_frame(g, "sampling family is not a frame", tol)
    gdual = frame.dual()
    rho = linalg.spectral_radius(A)

    def report(at: LambdaIndex) -> RecoveryReport:
        w_hat = reconstruct_finite(D, at, A, g, gdual)
        predicted_next = analysis(A @ synthesis(D.row(at), gdual) + w_hat, g)
        residual = float(np.linalg.norm(predicted_next - D.row(successor(at))))
        return RecoveryReport(
            w_hat=w_hat, abs_error=_abs_error(w_hat, w_true), residual=residual,
            bounds=frame.bounds, rho=rho, tail_gap=0.0, case=branch_of(at).value,
        )

    return [report(at) for at in cases]


def reconstruct_infinite(
    D: LatticeWindow,
    smap: StationaryMap,
    w_true: Vec | None = None,
    *,
    tol: Tolerances = DEFAULTS,
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
    frame = _require_frame(
        smap.adjoint_family, "the adjoint family is not a frame for W", tol
    )
    lifted = VectorFamily(vectors=frame.dual().vectors @ smap.W_basis.T)
    lim = _convergent_limit(D, tol)
    w_hat = synthesis(lim.limit_row, lifted)
    predicted_limit = analysis(smap.W_basis.conj().T @ w_hat, smap.adjoint_family)
    residual = float(np.linalg.norm(predicted_limit - lim.limit_row))
    return RecoveryReport(
        w_hat=w_hat,
        abs_error=_abs_error(w_hat, w_true),
        residual=residual,
        bounds=frame.bounds,
        rho=smap.rho,
        tail_gap=lim.tail_gap,
        case="limit",
    )


def counterexample_nullifier(
    A: Mat, w: Vec, K: int, *, tol: Tolerances = DEFAULTS
) -> tuple[Vec, Vec, np.ndarray]:
    """Initial states that zero out every windowed measurement.

    For a diagonal evolution operator with distinct entries in (0, 1),
    the single sampling vector g = (I - A) w, and the structured source
    w (all coordinates nonzero), this solves two 2K x 2K power-weighted
    systems — one per orbit half — so that x0 (supported on the
    nonnegative half of the window coordinates) and xm2 (negative half)
    make all 4K measurements <x_lambda, g> vanish while the source does
    not.  In exact arithmetic the systems are nonsingular: each is a
    Vandermonde matrix on distinct nodes with nonzero column scalings.
    In floating point their conditioning grows exponentially with K: on
    the thm314 nodes (2K geometric points in [0.1, 0.9]) the solution
    zeroes the measurements to rounding level only up to K = 4, and the
    solve fails from K = 7 on (see ``scenarios.MAX_K``).

    Returns:
        (x0, xm2, measurements) with measurements in window order,
        recomputed from the closed-form states for verification.

    Raises:
        ValueError: when A is not diagonal with distinct entries in
            (0, 1) or some coordinate of (I - A) w vanishes.
        NumericalError: when a system solve is singular to working
            precision (carries a determinant estimate), as it is for
            nodes too ill-conditioned for floating point.
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
    if float(np.linalg.norm(off)) > DIAGONAL_TOL * max(1.0, float(np.linalg.norm(A))):
        raise ValueError("A must be diagonal")
    if float(np.max(np.abs(diag.imag))) > DIAGONAL_TOL:
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
            return linalg.solve(M, -b, tol=tol)
        except SingularMatrixError as exc:
            sign, logdet = np.linalg.slogdet(M)
            raise NumericalError(
                f"nullifier system is singular (pivot {exc.pivot_index}, "
                f"slogdet = ({sign:.3g}, {logdet:.3g}))"
            ) from exc

    pos_positions = [position(idx, K) for idx in win if idx.m >= 0]
    neg_positions = [position(idx, K) for idx in win if idx.m < 0]
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
