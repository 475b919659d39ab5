"""Numerical tolerances used across the package.

Every threshold lives here so that a single override reaches all call
sites.  Functions take individual tolerances as keyword arguments
defaulting to these constants; the CLI builds a :class:`Tolerances`
instance from ``--tol-override KEY=VAL`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

# Hermitian eigendecomposition: max reconstruction residual (relative).
EIG_TOL = 1e-8
# Linear solves: residual bound ||Mx - b|| <= SOLVE_TOL * (||M||*||x|| + ||b||).
SOLVE_TOL = 1e-8
# How far from Hermitian a matrix may be (relative) before it is rejected.
HERM_TOL = 1e-10
# A family is a frame when its lower bound exceeds this.
FRAME_TOL = 1e-10
# Row-convergence (Cauchy tail gap) threshold for limit evaluation.
BS_TOL = 1e-6
# Safety margin on the spectral-radius-below-one requirement.
RHO_MARGIN = 1e-6
# A pivot below PIVOT_TOL * scale marks a matrix as singular.
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Bundle of all tunable thresholds."""

    EIG_TOL: float = EIG_TOL
    SOLVE_TOL: float = SOLVE_TOL
    HERM_TOL: float = HERM_TOL
    FRAME_TOL: float = FRAME_TOL
    BS_TOL: float = BS_TOL
    RHO_MARGIN: float = RHO_MARGIN
    PIVOT_TOL: float = PIVOT_TOL

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def with_overrides(self, overrides: dict[str, float]) -> "Tolerances":
        """Return a copy with the given thresholds replaced.

        Unknown keys raise ``ValueError`` (they would otherwise be
        silently ignored, which hides typos in CLI flags).
        """
        known = set(self.names())
        bad = sorted(set(overrides) - known)
        if bad:
            raise ValueError(
                f"unknown tolerance name(s) {bad}; valid names: {sorted(known)}"
            )
        merged = {name: getattr(self, name) for name in known}
        for key, val in overrides.items():
            try:
                val = float(val)
            except TypeError:
                raise ValueError(f"tolerance {key} must be a number, got {val!r}") from None
            if not val > 0.0:
                raise ValueError(f"tolerance {key} must be positive, got {val}")
            merged[key] = val
        return Tolerances(**merged)
