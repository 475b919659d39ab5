"""Frame bounds and spectral radii against 40-digit references.

The references (``oracles.mp_frame_bounds``, ``oracles.mp_spectral_radius``)
start from the exact binary values of the float inputs, so each
double-precision result must lie within an a-priori rounding bound of
them, with u the unit roundoff:

- frame bounds: the float Theta differs from the exact one by at most
  gamma_(m+3) ||V||_F^2 in the 2-norm (m complex products summed per entry,
  then the symmetrization), and a backward-stable Hermitian eigensolver
  adds at most p(d) u ||Theta||_2; by Weyl's inequality each eigenvalue
  moves by no more than the sum;
- the spectral radius of a normal A: the eigensolver's backward error is
  at most p(d) u ||A||_2, and the eigenvalues of a normal matrix move by
  no more than the perturbation's 2-norm (Bauer-Fike with a unitary
  eigenvector matrix).

p(d) = 4 d^2 stands for the n^2 growth of the backward error of the
Householder reductions inside both eigensolvers (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 19), with the constant 4; on these
draws the observed errors stay below a quarter of the bounds.
"""

import numpy as np
import pytest
from scipy.linalg import circulant

from nuds.frames import FrameAnalysis, VectorFamily
from nuds.linalg import spectral_radius

from oracles import mp_frame_bounds, mp_spectral_radius

U = np.finfo(float).eps / 2
SEEDS = range(15001, 15011)


def _draw(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return rng, d, cplx


def _gamma(n: int) -> float:
    return n * U / (1 - n * U)


def _p(d: int) -> int:
    return 4 * d * d


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_bounds_lie_within_the_rounding_bound_of_40_digits(seed):
    rng, d, cplx = _draw(seed)
    m = int(rng.integers(d, 2 * d + 3))
    # Scaled rows give a spread of alpha/beta, from well to poorly conditioned.
    F = VectorFamily(vectors=cplx(m, d) * np.logspace(0, -rng.uniform(0, 4), d))
    analysis = FrameAnalysis(F)
    alpha, beta = mp_frame_bounds(F)
    assert alpha > 0  # m >= d random vectors: a frame
    norm_f2 = float(np.linalg.norm(F.vectors)) ** 2
    bound = (_gamma(m + 3) + _p(d) * U) * norm_f2
    assert abs(analysis.bounds.alpha - float(alpha)) <= bound
    assert abs(analysis.bounds.beta - float(beta)) <= bound


@pytest.mark.parametrize("seed", SEEDS)
def test_spectral_radius_of_a_normal_A_lies_within_the_rounding_bound(seed):
    rng, d, cplx = _draw(seed)
    # Both are normal exactly as stored: a circulant, and (M + M*)/2, whose
    # (i, j) and (j, i) entries round to exact conjugates.
    M = cplx(d, d)
    A = circulant(M[0]) if seed % 2 else (M + M.conj().T) / 2
    rho = mp_spectral_radius(A)
    bound = _p(d) * U * float(np.linalg.norm(A, 2))
    assert abs(spectral_radius(A) - float(rho)) <= bound
