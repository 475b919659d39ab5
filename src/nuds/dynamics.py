"""Simulation of the non-uniform discrete dynamical system.

States evolve over the two-coset lattice by the constant-source
recurrence x_next = A x + w, walked along the two forward orbits that
start at the points 0 and -2 (indices (0, 0) and (-1, 0)).  Sampling a
trajectory against a vector family produces the data matrix
D[lambda][j] = <x_lambda, g_j>, the object every recovery operator
consumes.  The diagnostics here measure the data matrix as an operator:
its sup row norm (the l2 -> linf operator norm), its summed block norm
over a finite window, and the Cauchy tail gap that certifies row
convergence at the window edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import frames, linalg
from .frames import VectorFamily, analysis, canonical_dual, synthesis
from .lattice import (
    LambdaIndex,
    SpectralParams,
    index_label,
    power_of,
    window,
)
from .linalg import Mat, Vec
from .tolerances import BS_TOL, FRAME_TOL


@dataclass
class SystemSpec:
    """Everything that defines one finite-dimensional system instance.

    Attributes:
        params: lattice parameters (N, r).
        dim: dimension of the state space.
        A: the evolution operator, dim x dim.
        g: sampling family (may be labeled by lattice indices).
        W_basis: orthonormal columns spanning the source subspace W.
        w: the constant source; must lie in W.
        x0: initial state at lattice point 0.
        xm2: initial state at lattice point -2.
        K: window parameter; simulation covers the 4K-point window.
    """

    params: SpectralParams
    dim: int
    A: Mat
    g: VectorFamily
    W_basis: Mat
    w: Vec
    x0: Vec
    xm2: Vec
    K: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.K, int) or isinstance(self.K, bool) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        self.A = linalg.as_matrix(self.A)
        if self.A.shape != (self.dim, self.dim):
            raise ValueError(
                f"A must be {self.dim}x{self.dim}, got shape {self.A.shape}"
            )
        if not isinstance(self.g, VectorFamily):
            raise ValueError("g must be a VectorFamily")
        if self.g.dim != self.dim:
            raise ValueError(
                f"sampling vectors have dim {self.g.dim}, expected {self.dim}"
            )
        self.W_basis = linalg.as_matrix(self.W_basis)
        if self.W_basis.shape[0] != self.dim or self.W_basis.shape[1] < 1:
            raise ValueError(
                f"W_basis must be dim x p with p >= 1, got shape {self.W_basis.shape}"
            )
        gram = self.W_basis.conj().T @ self.W_basis
        if float(np.linalg.norm(gram - np.eye(self.W_basis.shape[1]))) > 1e-10 * max(
            1.0, float(np.linalg.norm(gram))
        ):
            raise ValueError("W_basis must have orthonormal columns")
        self.w = linalg.as_vector(self.w)
        self.x0 = linalg.as_vector(self.x0)
        self.xm2 = linalg.as_vector(self.xm2)
        for name, v in (("w", self.w), ("x0", self.x0), ("xm2", self.xm2)):
            if v.shape[0] != self.dim:
                raise ValueError(f"{name} has length {v.shape[0]}, expected {self.dim}")
        out_of_W = float(np.linalg.norm(self.w - self.projector_W @ self.w))
        if out_of_W > 1e-10:
            raise ValueError(
                f"source w must lie in W: component outside W has norm {out_of_W:.3e}"
            )
        # Record the Bessel bound of the sampling family (always finite
        # at finite dimension, but callers want it on file).
        self.g_beta = frames.frame_bounds(self.g).beta

    @property
    def projector_W(self) -> Mat:
        B = self.W_basis
        return B @ B.conj().T


@dataclass(frozen=True)
class LatticeWindow:
    """Rows over the 4K-point lattice window, held as one (4K, n) array.

    Row p belongs to the p-th point of ``window(K)``, so the point
    (m, eps) sits at position 2(m + K) + eps.  A simulated trajectory
    holds the states x_lambda as rows (n = dim); a data matrix holds the
    samples D[lambda][j] = <x_lambda, g_j> (n = number of vectors).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2 or values.shape[0] < 4 or values.shape[0] % 4:
            raise ValueError(f"window rows must be a (4K, n) array, got {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def K(self) -> int:
        return self.values.shape[0] // 4

    @property
    def order(self) -> tuple[LambdaIndex, ...]:
        """The window points, one per row."""
        return tuple(window(self.K))

    def row(self, idx: LambdaIndex) -> np.ndarray:
        if not -self.K <= idx.m < self.K:
            raise ValueError(f"window has no row at {idx}")
        return self.values[2 * (idx.m + self.K) + idx.eps]


def _orbit_positions(K: int) -> list[list[int]]:
    """Window positions of the orbits from 0 and from -2, in step order."""
    win = window(K)
    halves = (range(2 * K, 4 * K), range(2 * K))  # m >= 0, m < 0
    return [sorted(half, key=lambda p: power_of(win[p])) for half in halves]


def _walk_orbits(A: Mat, w: Vec, x0: Vec, xm2: Vec, K: int) -> np.ndarray:
    """Iterate the recurrence along both orbits; (4K, dim) states in window order."""
    states = np.empty((4 * K, A.shape[0]), dtype=complex)
    for positions, x in zip(_orbit_positions(K), (x0, xm2)):
        states[positions[0]] = x
        for p in positions[1:]:
            x = A @ x + w
            states[p] = x
    return states


def simulate(spec: SystemSpec) -> LatticeWindow:
    """Run both orbits of the recurrence across the window.

    The returned trajectory holds x0 and xm2 at their indices verbatim
    and satisfies the recurrence exactly by construction.
    """
    return LatticeWindow(_walk_orbits(spec.A, spec.w, spec.x0, spec.xm2, spec.K))


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
    :func:`simulate` (used to cross-check it).
    """
    n = power_of(idx)
    x_init = spec.x0 if idx.m >= 0 else spec.xm2
    power, geom = _matrix_power_and_sum(spec.A, n)
    return power @ x_init + geom @ spec.w


def closed_form_resolvent_state(spec: SystemSpec, idx: LambdaIndex) -> Vec:
    """State by the resolvent formula A^n x_init + (I - A^n)(I - A)^-1 w.

    Requires 1 outside the spectrum of A; agrees with
    :func:`closed_form_state` wherever both are defined.
    """
    n = power_of(idx)
    x_init = spec.x0 if idx.m >= 0 else spec.xm2
    eye = np.eye(spec.dim, dtype=complex)
    try:
        u = linalg.solve(eye - spec.A, spec.w)
    except linalg.SingularMatrixError as exc:
        raise linalg.NumericalError(
            f"resolvent form unavailable: 1 is in the spectrum of A "
            f"(I - A is singular at pivot {exc.pivot_index})"
        ) from exc
    power, _ = _matrix_power_and_sum(spec.A, n)
    return power @ x_init + u - power @ u


def data_matrix(traj: LatticeWindow, g: VectorFamily) -> LatticeWindow:
    """Sample every state against the family: D[lambda][j] = <x_lambda, g_j>."""
    X = traj.values
    if g.dim != X.shape[1]:
        raise ValueError(
            f"sampling vectors have dim {g.dim}, states have dim {X.shape[1]}"
        )
    return LatticeWindow(X @ g.vectors.conj().T)


def sup_row_norm(D: LatticeWindow) -> float:
    """Sup over rows of the row l2 norm: the l2 -> linf operator norm."""
    return float(np.linalg.norm(D.values, axis=1).max())


def finite_block_norm(D: LatticeWindow) -> float:
    """Sum over the window of row l2 norms (the finite-block operator norm)."""
    return float(np.linalg.norm(D.values, axis=1).sum())


@dataclass(frozen=True)
class TailLimit:
    """Row-limit estimate at the window edges.

    limit_row averages the outermost row of each end; tail_gap is the
    max pairwise l2 distance among the `tail` outermost rows of both
    ends (a two-sided Cauchy measure); member says whether the gap
    clears the row-convergence tolerance.
    """

    limit_row: np.ndarray
    tail_gap: float
    member: bool


def bs_membership(D: LatticeWindow, tail: int, bs_tol: float = BS_TOL) -> TailLimit:
    """Estimate the row limit and certify row convergence at the edges.

    Args:
        D: data matrix over a lattice window (rows in window order).
        tail: how many rows at each end enter the Cauchy gap.
        bs_tol: gap threshold for declaring membership.

    Raises:
        ValueError: when the window cannot hold `tail` rows per end.
    """
    X = D.values
    n = X.shape[0]
    if not isinstance(tail, int) or isinstance(tail, bool) or tail < 1:
        raise ValueError(f"tail must be a positive integer, got {tail!r}")
    if 2 * tail > n:
        raise ValueError(
            f"window too small: {n} rows cannot hold tail={tail} at each end"
        )
    edges = np.concatenate([X[:tail], X[n - tail :]])
    gap = max(
        float(np.linalg.norm(edges[i + 1 :] - edges[i], axis=1).max())
        for i in range(len(edges) - 1)
    )
    limit = (X[0] + X[-1]) / 2.0
    return TailLimit(limit_row=limit, tail_gap=gap, member=gap <= bs_tol)


class DataFitResult(NamedTuple):
    x0: Vec
    xm2: Vec
    w: Vec
    residual: float


def data_fit(
    D: LatticeWindow, template: SystemSpec, frame_tol: float = FRAME_TOL
) -> DataFitResult:
    """Fit the generating triple (x0, xm2, w) to a data matrix.

    Uses dual-frame synthesis on the rows at the initial indices and
    derives w from the row at the first step.  The residual is the max
    row l2 mismatch between D and the data matrix regenerated from the
    fitted triple; it stays below 1e-7 for matrices in the image of the
    data map.

    Raises:
        NotAFrameError: when the template's sampling family is not a frame.
    """
    g = template.g
    dual = canonical_dual(g, frame_tol)
    x0_hat = synthesis(D.row(LambdaIndex(0, 0)), dual)
    xm2_hat = synthesis(D.row(LambdaIndex(-1, 0)), dual)
    first_step = D.row(LambdaIndex(0, 1))
    w_hat = synthesis(first_step - analysis(template.A @ x0_hat, g), dual)
    states = _walk_orbits(template.A, w_hat, x0_hat, xm2_hat, D.K)
    regenerated = states @ g.vectors.conj().T
    residual = float(np.linalg.norm(regenerated - D.values, axis=1).max())
    return DataFitResult(x0=x0_hat, xm2=xm2_hat, w=w_hat, residual=residual)


def stationary_deviation(
    traj: LatticeWindow, stationary_state: Vec, tail: int = 1
) -> float:
    """Distance of the window-edge states from a claimed stationary state.

    This is the numeric check of the stationarity contract for supplied
    trajectories: both orbits must approach the same limit, so the
    outermost `tail` states at each end should be close to it.
    """
    X = traj.values
    n = X.shape[0]
    if 2 * tail > n:
        raise ValueError(f"window too small for tail={tail}")
    s = np.asarray(stationary_state, dtype=complex)
    edges = np.concatenate([X[:tail], X[n - tail :]])
    return float(np.linalg.norm(edges - s, axis=1).max())


# --- CSV export -------------------------------------------------------------

def _write_csv(rows: LatticeWindow, params: SpectralParams, path) -> None:
    """Write ``lambda,j,re,im`` lines in window order, one row block at a time.

    Byte for byte what ``csv.writer`` gives for these fields: CRLF line
    ends, no quoting (labels and float reprs hold no comma, quote or
    line break), and shortest round-trip ``repr`` floats.
    """
    columns = [f",{j}," for j in range(rows.values.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write("lambda,j,re,im\r\n")
        for idx, row in zip(rows.order, rows.values):
            label = index_label(idx, params)
            fh.write("".join([
                f"{label}{col}{re!r},{im!r}\r\n"
                for col, re, im in zip(columns, row.real.tolist(), row.imag.tolist())
            ]))


def data_matrix_to_csv(D: LatticeWindow, params: SpectralParams, path) -> None:
    """Write rows as ``lambda,j,re,im`` in window order."""
    _write_csv(D, params, path)


def trajectory_to_csv(traj: LatticeWindow, params: SpectralParams, path) -> None:
    """Write state coordinates as ``lambda,j,re,im`` in window order."""
    _write_csv(traj, params, path)
