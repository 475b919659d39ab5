"""Numerical tolerances used across the package.

The seven fields of :class:`Tolerances` are the only thresholds an
override can move; each default is stated once, on its field.
They reach their call sites by one path: every function that applies one
of them takes a keyword ``tol: Tolerances`` (default :data:`DEFAULTS`), or
reads the analysis record that holds one, and passes that same value on
to every kernel it calls.  The CLI builds one :class:`Tolerances` per
command from the config's ``tolerances`` object and the
``--tol-override KEY=VAL`` flags.

Fixed thresholds that are not a field (orthonormality of a basis, the
scenario oracles, ...) are named constants in the module that applies
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Bundle of all tunable thresholds."""

    # Hermitian eigendecomposition: max reconstruction residual (relative).
    EIG_TOL: float = 1e-8
    # Linear solves and the linear identities they produce (a dual pair, a
    # synthesis): residual bound ||Mx - b|| <= SOLVE_TOL * (||M||*||x|| + ||b||).
    SOLVE_TOL: float = 1e-8
    # How far from Hermitian a matrix may be (relative) before it is rejected.
    HERM_TOL: float = 1e-10
    # A family is a frame when its lower bound exceeds this.
    FRAME_TOL: float = 1e-10
    # Row-convergence (Cauchy tail gap) threshold for limit evaluation.
    BS_TOL: float = 1e-6
    # Safety margin on the spectral-radius-below-one requirement.
    RHO_MARGIN: float = 1e-6
    # A pivot below PIVOT_TOL * scale marks a matrix as singular.
    PIVOT_TOL: float = 1e-12

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def with_overrides(self, overrides: dict[str, float]) -> "Tolerances":
        """Return a copy with the given thresholds replaced.

        Unknown keys raise ``ValueError`` (they would otherwise be
        silently ignored, which hides typos in CLI flags), and so does a
        value that is not a finite positive number: an infinite threshold
        would silently turn off the check it names.
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
                if isinstance(val, bool):  # JSON true would read as 1.0
                    raise TypeError
                val = float(val)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"tolerance {key} must be a number, got {val!r}") from None
            if not val > 0.0:
                raise ValueError(f"tolerance {key} must be positive, got {val}")
            if not math.isfinite(val):
                raise ValueError(f"tolerance {key} must be finite, got {val}")
            merged[key] = val
        return Tolerances(**merged)


# The shared default bundle: the default of every ``tol`` keyword.
DEFAULTS = Tolerances()
