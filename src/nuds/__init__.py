"""Source-term recovery for linear dynamics on a non-uniform lattice.

The package simulates the constant-source recurrence x_next = A x + w
over the two-coset index set {0, r/N} + 2Z, samples trajectories
against frame/Bessel families into data matrices, and implements the
recovery operators together with the conditions under which they
succeed (and the constructions showing when they cannot).

The top level re-exports what a first script needs; everything else is
imported from its module (``nuds.frames``, ``nuds.recovery``, ...).
"""

from .dynamics import SystemSpec, data_matrix, simulate
from .frames import VectorFamily
from .lattice import SpectralParams
from .recovery import reconstruct_finite
from .tolerances import Tolerances

__version__ = "0.1.0"

__all__ = [
    "SpectralParams",
    "SystemSpec",
    "Tolerances",
    "VectorFamily",
    "data_matrix",
    "reconstruct_finite",
    "simulate",
]
