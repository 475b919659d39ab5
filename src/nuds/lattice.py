"""Exact arithmetic for the non-uniform index set of the dynamics.

The time axis of the system is the two-coset lattice

    Lambda = {0, r/N} + 2Z,

where N is a positive integer and r is a positive odd integer coprime
with N.  Every point is written as ``2m + eps * r/N`` with an integer m
and a bit eps, and the pair ``(m, eps)`` is the canonical representation
used throughout: values are never stored as floats, so branch dispatch
and equality are exact.

The finite window of size 4K collects the points from -2K up to
2K - 2 + r/N in increasing order, so the point (m, eps) is its row
2(m + K) + eps (:func:`position`).  Index ``(0, 0)`` (the point 0) and
index ``(-1, 0)`` (the point -2) carry the two initial states of the
dynamics; the successor map walks the two forward orbits

    0 -> r/N -> 2 -> 2 + r/N -> 4 -> ...
    -2 -> -2 + r/N -> -4 -> -4 + r/N -> ...

which together cover the lattice exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd


@dataclass(frozen=True)
class SpectralParams:
    """Lattice parameters (N, r).

    Parameters
    ----------
    N : int
        Positive integer denominator of the coset offset r/N.
    r : int
        Positive odd integer, coprime with N, with 1 <= r <= 2N - 1,
        so that 0 < r/N < 2 and the two cosets interleave.
    """

    N: int
    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if self.r % 2 == 0:
            raise ValueError(f"r must be odd, got r={self.r}")
        if gcd(self.r, self.N) != 1:
            raise ValueError(f"r and N must be coprime, got r={self.r}, N={self.N}")
        if self.r > 2 * self.N - 1:
            raise ValueError(
                f"r must satisfy 1 <= r <= 2N - 1, got r={self.r}, N={self.N}"
            )


@dataclass(frozen=True, order=True)
class LambdaIndex:
    """A lattice point 2m + eps * r/N, stored as the exact pair (m, eps).

    Ordering is lexicographic in (m, eps), which coincides with the
    numeric order of the lattice points because 0 < r/N < 2.
    """

    m: int
    eps: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {self.eps!r}")


class Branch(Enum):
    """Which of the three recurrence branches a lattice point falls in.

    EVEN_ANY   : points 2m (eps = 0), stepped forward by +r/N;
    POS_OFFSET : points 2m + r/N with m >= 0, stepped by +2 - r/N;
    NEG_OFFSET : points 2m + r/N with m < 0, stepped by -2 - r/N.
    """

    EVEN_ANY = "i"
    POS_OFFSET = "ii"
    NEG_OFFSET = "iii"


def index_label(idx: LambdaIndex, params: SpectralParams) -> str:
    """Human-readable label, '2m' for even points and '2m+r/N' otherwise.

    Used wherever indices are serialized; the exact (m, eps) pair is
    emitted alongside it in structured output.
    """
    if idx.eps == 0:
        return str(2 * idx.m)
    return f"{2 * idx.m}+{params.r}/{params.N}"


def branch_of(idx: LambdaIndex) -> Branch:
    """Classify a lattice point into its recurrence branch."""
    if idx.eps == 0:
        return Branch.EVEN_ANY
    return Branch.POS_OFFSET if idx.m >= 0 else Branch.NEG_OFFSET


def window(K: int) -> list[LambdaIndex]:
    """The window of the 4K lattice points from -2K to 2K - 2 + r/N.

    Parameters
    ----------
    K : int
        Half the number of even points in the window; K >= 1.

    Returns
    -------
    list of LambdaIndex
        Points in strictly increasing order; length exactly 4K.  The
        listing is asymmetric by construction (the negatives reach -2K
        while the positives stop at 2K - 2 + r/N).
    """
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"window size K must be a positive integer, got {K!r}")
    return [LambdaIndex(m, eps) for m in range(-K, K) for eps in (0, 1)]


def successor(idx: LambdaIndex) -> LambdaIndex:
    """The next point in the dynamics order.

    Even points step onto their coset partner (+r/N); offset points with
    m >= 0 continue rightward (+2 - r/N), those with m < 0 continue
    leftward (-2 - r/N).  The map is injective with the two forward
    orbits starting at 0 and -2 covering the lattice exactly once.
    """
    if idx.eps == 0:
        return LambdaIndex(idx.m, 1)
    if idx.m >= 0:
        return LambdaIndex(idx.m + 1, 0)
    return LambdaIndex(idx.m - 1, 0)


def power_of(idx: LambdaIndex) -> int:
    """Number of dynamics steps from the orbit's initial state.

    Returns the integer n such that

        x_idx = A^n x_init + (A^0 + A^1 + ... + A^(n-1)) w,

    where x_init is the state at (0, 0) for m >= 0 and the state at
    (-1, 0) for m < 0 (n = 0 means the empty sum, i.e. the initial
    state itself).

    Returns
    -------
    int
        (m, 0) -> 2m and (m, 1) -> 2m + 1 for m >= 0;
        (m, 0) -> -2m - 2 and (m, 1) -> -2m - 1 for m < 0.
    """
    if idx.m >= 0:
        return 2 * idx.m + idx.eps
    return -2 * idx.m - 2 + idx.eps


def position(idx: LambdaIndex, K: int) -> int:
    """Row of a lattice point in ``window(K)``: 2(m + K) + eps.

    Raises
    ------
    ValueError
        When the window has no row at `idx`, i.e. m lies outside [-K, K).
    """
    if not -K <= idx.m < K:
        raise ValueError(f"window has no row at {idx}")
    return 2 * (idx.m + K) + idx.eps
