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
finite-window recovery but not sufficient: the nullifier, one
least-squares solve, gives an initial state from which every windowed
sample vanishes for a nonzero source, even while that condition holds.
The two conditions judge one family, from one solve: with X = (I - A)^-1 B
for the orthonormal basis B of W, S* g_j = B* (I - A*)^-1 g_j = X* g_j.
The family needs only I - A to be invertible; the map also needs
rho(A) < 1 (:func:`require_radius_below_one`), checked before the solve.

:class:`SystemAnalysis` holds these kernels for one system, each computed
on first read, so each command runs only what it reads, in its order.  It
is a run's only input: the recoveries read its data, edge-row limit and
frame tests, and it owns the stationary map S = X; a resolvent given to it
(thm317's X = -B, with rho(A) = 2) is admitted without the radius check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .dynamics import LatticeWindow, SystemSpec, TailLimit, bs_membership, data_matrix, simulate
from .frames import FrameAnalysis, FrameBounds, VectorFamily, analysis, synthesis
from .lattice import LambdaIndex, branch_of, successor
from .linalg import Mat, Vec
from .tolerances import DEFAULTS, Tolerances


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


def require_radius_below_one(rho: float, *, tol: Tolerances) -> None:
    """Raise ConditionFailure unless rho < 1 - tol.RHO_MARGIN, as the stationary map needs.

    :attr:`SystemAnalysis.stationary_map` checks the radius before its
    solve, so a refused radius is what fails, whatever the solve would do.
    """
    if not rho < 1.0 - tol.RHO_MARGIN:
        raise ConditionFailure(
            f"stationary map requires spectral radius below 1: rho(A) = {rho:.6g} "
            f"(margin {tol.RHO_MARGIN:.1e})"
        )


class SystemAnalysis:
    """The kernels the recoveries and certificates of ``spec`` are judged from.

    Each field is computed on first read and kept; a field whose kernel
    refuses raises on every read.  A given ``rho`` (the config decode
    child's) or ``resolvent`` (a scenario's X) is never recomputed.
    """

    def __init__(
        self, spec: SystemSpec, *, tol: Tolerances = DEFAULTS, rho: float | None = None,
        resolvent: Mat | None = None,
    ):
        self.spec = spec
        self.tol = tol
        if rho is not None:
            self.rho = rho
        if resolvent is not None:  # admitted as the map without the radius check
            self.resolvent = self.stationary_map = resolvent

    @cached_property
    def trajectory(self) -> LatticeWindow:
        return simulate(self.spec)

    @cached_property
    def data(self) -> LatticeWindow:
        return data_matrix(self.trajectory, self.spec.g)

    @cached_property
    def rho(self) -> float:
        return linalg.spectral_radius(self.spec.A)

    @cached_property
    def sampling(self) -> FrameAnalysis:
        return FrameAnalysis(self.spec.g, tol=self.tol)

    @cached_property
    def resolvent(self) -> Mat:
        """X = (I - A)^-1 B, by one LU solve.

        Raises ``SingularMatrixError`` when the solve refuses I - A: 1 is in
        the spectrum of A, or a pivot is below ``tol.PIVOT_TOL``.
        """
        A = self.spec.A
        return linalg.solve(np.eye(A.shape[0], dtype=complex) - A, self.spec.W_basis, tol=self.tol)

    @cached_property
    def subspace(self) -> FrameAnalysis:
        """{P_W (I - A*)^-1 g_j} = {X* g_j} in W-coordinates, analysed as a frame for W.

        It is also the stationary map's adjoint family {S* g_j}.  A
        necessary condition for windowed recovery, NOT a sufficient one
        (see :func:`counterexample_nullifier`); it needs no rho(A) < 1.
        Raises ``NumericalError`` when the family overflows.
        """
        # g and X are finite, so a non-finite product overflowed; numpy's
        # warning would only repeat that.
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = self.spec.g.vectors @ self.resolvent.conj()
        if not np.isfinite(vectors).all():
            raise linalg.NumericalError(
                "the family {X* g_j} = {P_W (I - A*)^-1 g_j} overflowed to non-finite entries"
            )
        return FrameAnalysis(VectorFamily(vectors=vectors), tol=self.tol)

    @cached_property
    def stationary_map(self) -> Mat:
        """S = X, taking W-coordinates to the limit state (I - A)^-1 w of both orbits.

        The radius is checked before the solve; a resolvent given to the
        record is the map as given.

        Raises:
            ConditionFailure: when rho(A) >= 1 - tol.RHO_MARGIN, naming the radius.
        """
        require_radius_below_one(self.rho, tol=self.tol)
        return self.resolvent

    @cached_property
    def stationary_state(self) -> Vec:
        """S(w), the limit state of both orbits, for the system's own source w."""
        return self.stationary_map @ (self.spec.W_basis.conj().T @ self.spec.w)

    @cached_property
    def limit(self) -> TailLimit:
        return bs_membership(self.data, tol=self.tol)


def _require_frame(frame: FrameAnalysis, what: str) -> FrameAnalysis:
    """``frame``; unless its family is a frame, ConditionFailure saying ``what``."""
    if not frame.is_frame:
        raise ConditionFailure(
            f"not stably recoverable: {what} (alpha = {frame.bounds.alpha:.3e})"
        )
    return frame


@dataclass
class RecoveryReport:
    """Outcome of a recovery run.

    abs_error is the distance to the true source; residual measures data
    consistency of the recovered source, and the recovery passes while it
    is at most residual_bound, which is not written to the report.  bounds
    belong to the family whose dual synthesized the source; case is the
    lattice branch ("i", "ii", "iii") or "limit".
    """

    w_hat: Vec
    abs_error: float
    residual: float
    residual_bound: float
    bounds: FrameBounds
    rho: float
    tail_gap: float
    case: str

    def to_json(self) -> dict:
        """The report document; ``w_hat`` is a complex ndarray.

        A report file holds ``json.dumps(doc, indent=2, sort_keys=True,
        default=linalg.vector_to_pairs)``, ``w_hat`` as [re, im] pairs.
        """
        return {
            "schema": 1,
            "w_hat": np.ascontiguousarray(self.w_hat, dtype=complex),
            "abs_error": float(self.abs_error),
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
    cases: tuple[LambdaIndex, ...], system: SystemAnalysis
) -> list[RecoveryReport]:
    """Finite-step recovery on the system's data from each point of ``cases``, one report each.

    The system's ``sampling`` analysis gives the bounds and the canonical
    dual for all the points; its ``rho`` is only reported, and its source
    is the truth each error is measured against.  Each residual
    re-predicts the successor row from the recovered source and the
    synthesized state; it vanishes on exact data.  Its bound scales with
    the two rows read, ``tol.SOLVE_TOL * (1 + the larger row norm)``, so
    far rows that overflow cannot move it.
    """
    D = system.data
    A, w_true, tol, rho = system.spec.A, system.spec.w, system.tol, system.rho
    frame = _require_frame(system.sampling, "sampling family is not a frame")
    g, gdual = frame.family, frame.dual()

    def report(at: LambdaIndex) -> RecoveryReport:
        w_hat = reconstruct_finite(D, at, A, g, gdual)
        predicted_next = analysis(A @ synthesis(D.row(at), gdual) + w_hat, g)
        residual = float(np.linalg.norm(predicted_next - D.row(successor(at))))
        scale = max(float(np.linalg.norm(D.row(p))) for p in (at, successor(at)))
        return RecoveryReport(
            w_hat=w_hat, abs_error=float(np.linalg.norm(w_hat - w_true)), residual=residual,
            residual_bound=tol.SOLVE_TOL * (1.0 + scale), bounds=frame.bounds, rho=rho,
            tail_gap=0.0, case=branch_of(at).value,
        )

    return [report(at) for at in cases]


def reconstruct_infinite(system: SystemAnalysis) -> RecoveryReport:
    """Recover the source from the limit row of the system's convergent data.

    Reads the system's edge-row ``limit`` first, then its stationary map,
    so a refused map fails before any frame analysis.  Requires {S* g_j},
    the ``subspace`` family, to be a frame for W; its canonical dual in W
    is lifted to the ambient space and synthesized against the limit row.  The recovery error is
    controlled by the tail gap: it is bounded by sqrt(beta') times the
    limit-row error, where beta' is the upper bound of the dual family in W.
    The residual re-predicts the limit row; its bound is ``tol.BS_TOL``.

    Raises:
        ConditionFailure: when the radius refuses the map; "not stably
            recoverable" when the adjoint family misses the frame
            condition, or when the rows are not convergent at the window
            edges.
    """
    lim = system.limit
    system.stationary_map  # admits the map before any frame analysis runs
    B, tol = system.spec.W_basis, system.tol
    frame = _require_frame(system.subspace, "the adjoint family is not a frame for W")
    lifted = VectorFamily(vectors=frame.dual().vectors @ B.T)
    if not lim.member:
        raise ConditionFailure(
            f"rows are not convergent: tail gap {lim.tail_gap:.3e} exceeds {tol.BS_TOL:.1e}"
        )
    w_hat = synthesis(lim.limit_row, lifted)
    predicted_limit = analysis(B.conj().T @ w_hat, frame.family)
    residual = float(np.linalg.norm(predicted_limit - lim.limit_row))
    return RecoveryReport(
        w_hat=w_hat,
        abs_error=float(np.linalg.norm(w_hat - system.spec.w)),
        residual=residual,
        residual_bound=tol.BS_TOL,
        bounds=frame.bounds,
        rho=system.rho,
        tail_gap=lim.tail_gap,
        case="limit",
    )


def counterexample_nullifier(A: Mat, g: VectorFamily, w: Vec, K: int) -> Vec:
    """An initial state from which no windowed sample sees the source.

    Both orbits run x -> A x + w for 2K steps, so n steps from the initial
    state x the samples are G* A^n x + G* S_n w, with G* the rows g_j* and
    S_n = A^0 + ... + A^(n-1).  Stacking the rows G* A^n into O and the
    terms G* S_n w into t for n < 2K, the minimum-norm least-squares
    solution x = -O^+ t zeroes every sample of both orbits when they start
    from x, as long as O x = -t is consistent: always when O has full row
    rank, which needs 2K m <= dim for m sampling vectors.  The caller
    judges the outcome on the simulated data.
    """
    A = linalg.as_matrix(A)
    w = linalg.as_vector(w)
    G = g.vectors.conj()
    rows, terms = [], []
    power, partial = G, np.zeros_like(w)  # G* A^n and S_n w
    for _ in range(2 * K):
        rows.append(power)
        terms.append(G @ partial)
        power = power @ A
        partial = A @ partial + w
    O, t = np.concatenate(rows), np.concatenate(terms)
    return -np.linalg.lstsq(O, t, rcond=None)[0]
