"""Simulation of the non-uniform discrete dynamical system.

States evolve over the two-coset lattice by the constant-source
recurrence x_next = A x + w, walked along the two forward orbits that
start at the points 0 and -2 (indices (0, 0) and (-1, 0)).  Sampling a
trajectory against a vector family produces the data matrix
D[lambda][j] = <x_lambda, g_j>, the object every recovery operator
consumes.  The diagnostics here measure the data matrix as an operator:
its sup row norm (the l2 -> linf operator norm) and the Cauchy tail gap
that certifies row convergence at the window edges.

Inputs are finite, so a non-finite state or sample can only come from
overflow along an orbit.  The kernels here let it through silently, as
inf and NaN rows; :func:`first_nonfinite_step` names where it starts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._fork import Child
from .frames import VectorFamily
from .lattice import (
    LambdaIndex,
    SpectralParams,
    index_label,
    position,
    power_of,
    window,
)
from .linalg import Mat, Vec
from .tolerances import DEFAULTS, Tolerances

# Norm the component of w outside W may have, relative to max(1, ||w||):
# the source must lie in W up to the rounding of its projection, which
# grows with ||w||.
IN_W_TOL = 1e-10

# Rows at each end of a window that enter the Cauchy tail gap.  A window
# holds at least 4 rows, so both ends always fit; ``scenarios.min_K``
# derives thm319's smallest window for this value.
TAIL = 2


@dataclass
class SystemSpec:
    """Everything that defines one finite-dimensional system instance.

    The state space is the one ``A`` acts on: ``dim`` is read from ``A``.

    Attributes:
        params: lattice parameters (N, r).
        A: the evolution operator, a nonempty square matrix.
        g: sampling family.
        W_basis: orthonormal columns spanning the source subspace W.
        w: the constant source; must lie in W.
        x0: initial state at lattice point 0.
        xm2: initial state at lattice point -2.
        K: window parameter; simulation covers the 4K-point window.
    """

    params: SpectralParams
    A: Mat
    g: VectorFamily
    W_basis: Mat
    w: Vec
    x0: Vec
    xm2: Vec
    K: int

    @property
    def dim(self) -> int:
        """Dimension of the state space."""
        return self.A.shape[0]

    def __post_init__(self) -> None:
        if not isinstance(self.K, int) or isinstance(self.K, bool) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        self.A = linalg.as_matrix(self.A)
        dim = self.dim
        if self.A.shape != (dim, dim) or dim < 1:
            raise ValueError(f"A must be a nonempty square matrix, got shape {self.A.shape}")
        if not isinstance(self.g, VectorFamily):
            raise ValueError("g must be a VectorFamily")
        if self.g.dim != dim:
            raise ValueError(f"sampling vectors have dim {self.g.dim}, expected {dim}")
        self.W_basis = linalg.as_matrix(self.W_basis)
        if self.W_basis.shape[0] != dim or self.W_basis.shape[1] < 1:
            raise ValueError(
                f"W_basis must be dim x p with p >= 1, got shape {self.W_basis.shape}"
            )
        linalg.require_orthonormal(self.W_basis, "W_basis")
        self.w = linalg.as_vector(self.w)
        self.x0 = linalg.as_vector(self.x0)
        self.xm2 = linalg.as_vector(self.xm2)
        for name, v in (("w", self.w), ("x0", self.x0), ("xm2", self.xm2)):
            if v.shape[0] != dim:
                raise ValueError(f"{name} has length {v.shape[0]}, expected {dim}")
        # Both norms are taken on w scaled by a power of two to real and
        # imaginary parts below 2, so neither overflows; the scaling is exact,
        # so they are w's own norms, scaled.  A w already below is not scaled.
        top = max(np.abs(self.w.real).max(), np.abs(self.w.imag).max())
        shrink = math.ldexp(1.0, -max(math.frexp(top)[1] - 1, 0))
        u = self.w * shrink
        B = self.W_basis
        out_of_W = float(np.linalg.norm(u - B @ (B.conj().T @ u)))
        if out_of_W > IN_W_TOL * max(shrink, float(np.linalg.norm(u))):
            raise ValueError(
                f"source w must lie in W: component outside W has norm {out_of_W / shrink:.3e}"
            )


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
        return self.values[position(idx, self.K)]


def _orbit_positions(K: int) -> list[list[int]]:
    """Window positions of the orbits from 0 and from -2, in step order."""
    win = window(K)
    halves = (range(2 * K, 4 * K), range(2 * K))  # m >= 0, m < 0
    return [sorted(half, key=lambda p: power_of(win[p])) for half in halves]


def _walk_orbits(A: Mat, w: Vec, x0: Vec, xm2: Vec, K: int) -> np.ndarray:
    """Iterate the recurrence along both orbits; (4K, dim) states in window order."""
    states = np.empty((4 * K, A.shape[0]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
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


def data_matrix(traj: LatticeWindow, g: VectorFamily) -> LatticeWindow:
    """Sample every state against the family: D[lambda][j] = <x_lambda, g_j>."""
    X = traj.values
    if g.dim != X.shape[1]:
        raise ValueError(
            f"sampling vectors have dim {g.dim}, states have dim {X.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return LatticeWindow(X @ g.vectors.conj().T)


def first_nonfinite_step(rows: LatticeWindow) -> int | None:
    """The fewest steps after which a row on either orbit is not finite; None if none is."""
    finite = np.isfinite(rows.values).all(axis=1)
    steps = [
        int(np.argmin(finite[positions]))
        for positions in _orbit_positions(rows.K)
        if not finite[positions].all()
    ]
    return min(steps, default=None)


def sup_row_norm(D: LatticeWindow) -> float:
    """Sup over rows of the row l2 norm: the l2 -> linf operator norm."""
    return float(np.linalg.norm(D.values, axis=1).max())


@dataclass(frozen=True)
class TailLimit:
    """Row-limit estimate at the window edges.

    limit_row averages the outermost row of each end; tail_gap is the
    max pairwise l2 distance among the ``TAIL`` outermost rows of both
    ends (a two-sided Cauchy measure); member says whether the gap
    clears the row-convergence tolerance.  A gap that is not finite
    because rows overflowed measures nothing: nonfinite_step is then the
    first step with a non-finite row, and None otherwise.
    """

    limit_row: np.ndarray
    tail_gap: float
    member: bool
    nonfinite_step: int | None


def bs_membership(D: LatticeWindow, *, tol: Tolerances = DEFAULTS) -> TailLimit:
    """Estimate the row limit and certify row convergence at the edges.

    Args:
        D: data matrix over a lattice window (rows in window order).
        tol: ``tol.BS_TOL`` is the gap threshold for membership.
    """
    X = D.values
    edges = np.concatenate([X[:TAIL], X[-TAIL:]])
    with np.errstate(over="ignore", invalid="ignore"):
        gap = max(
            float(np.linalg.norm(edges[i + 1 :] - edges[i], axis=1).max())
            for i in range(len(edges) - 1)
        )
        limit = (X[0] + X[-1]) / 2.0
    step = None if np.isfinite(gap) else first_nonfinite_step(D)
    return TailLimit(limit_row=limit, tail_gap=gap, member=gap <= tol.BS_TOL, nonfinite_step=step)


def stationary_deviation(traj: LatticeWindow, stationary_state: Vec) -> float:
    """Distance of the window-edge states from a claimed stationary state.

    This is the numeric check of the stationarity contract for supplied
    trajectories: both orbits must approach the same limit, so the
    outermost state at each end should be close to it.
    """
    edges = traj.values[[0, -1]]
    s = np.asarray(stationary_state, dtype=complex)
    return float(np.linalg.norm(edges - s, axis=1).max())


# --- CSV export -------------------------------------------------------------

# Smallest window, in entries (rows x columns), whose back half is
# formatted in a forked child.  Forking, piping and reaping a child take
# 3-5 ms at ~200 MB RSS, and formatting takes ~1.2 us per float, two per
# entry; the child saves half of that, ~1.2 us per entry, so a fork
# breaks even near 4k entries.  The floor sits at four times that.
FORK_MIN_ENTRIES = 16384


def _row_blocks(labels: list[str], values: np.ndarray) -> Iterator[bytes]:
    """The ``label,j,re,im`` lines of each row, one bytes block per row.

    Byte for byte what ``csv.writer`` gives for these fields: CRLF line
    ends, no quoting (labels and float reprs hold no comma, quote or
    line break), and shortest round-trip ``repr`` floats.
    """
    columns = [f",{j}," for j in range(values.shape[1])]
    for label, row in zip(labels, values):
        yield "".join([
            f"{label}{col}{re!r},{im!r}\r\n"
            for col, re, im in zip(columns, row.real.tolist(), row.imag.tolist())
        ]).encode()


def window_to_csv(rows: LatticeWindow, params: SpectralParams, path) -> None:
    """Write a trajectory or a data matrix as ``lambda,j,re,im`` lines in window order.

    The rows split into a front and a back half.  Where a child pays (see
    :meth:`nuds._fork.Child.start`; the floor is ``FORK_MIN_ENTRIES``), a
    forked child formats the back half while this process writes the
    header and the front half, and its bytes follow them; otherwise, or
    when the fork or the child fails, this process formats the back half
    itself.  The bytes are the same either way.  The child consumes its
    own copy of the back half's generator; this process's copy stays
    unstarted until it is needed.
    """
    labels = [index_label(idx, params) for idx in rows.order]
    half = len(labels) // 2
    back = _row_blocks(labels[half:], rows.values[half:])
    with open(path, "wb") as fh, Child() as child:
        child.start(lambda: b"".join(back), rows.values.size, FORK_MIN_ENTRIES)
        fh.write(b"lambda,j,re,im\r\n")
        fh.writelines(_row_blocks(labels[:half], rows.values[:half]))
        data = child.collect()
        if data is None:
            fh.writelines(back)
        else:
            fh.write(data)


def data_matrix_to_csv(D: LatticeWindow, params: SpectralParams, path) -> None:
    """Write rows as ``lambda,j,re,im`` in window order."""
    window_to_csv(D, params, path)


def trajectory_to_csv(traj: LatticeWindow, params: SpectralParams, path) -> None:
    """Write state coordinates as ``lambda,j,re,im`` in window order."""
    window_to_csv(traj, params, path)
