import numpy as np
import pytest

from nuds.dynamics import SystemSpec
from nuds.frames import (
    FrameAnalysis,
    FrameBounds,
    NotAFrameError,
    VectorFamily,
    analysis,
    frame_operator,
    synthesis,
)
from nuds.lattice import SpectralParams
from nuds.linalg import NumericalError
from nuds.recovery import SystemAnalysis
from nuds.tolerances import Tolerances

from oracles import inner, lu_dual, min_norm_gap, verify_dual_pair


def _random_family(rng, count, dim):
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return VectorFamily(vectors=v)


def _family_with_spectrum(rng, lam, count):
    """`count` vectors whose frame operator is U diag(lam) U* for a random unitary U.

    With Q (count x d) having orthonormal columns, the rows of
    conj(Q) diag(sqrt lam) U^T give Theta = U diag(lam) U*.
    """
    d = len(lam)
    U = np.linalg.qr(_random_family(rng, d, d).vectors)[0]
    Q = np.linalg.qr(_random_family(rng, count, d).vectors)[0]
    return VectorFamily(vectors=Q.conj() @ (np.sqrt(lam)[:, None] * U.T))


def _dual_oracle_cases():
    rng = np.random.default_rng(64)
    d = 64
    return {
        "redundant": _random_family(rng, 2 * d, d),
        "orthonormal": VectorFamily(vectors=np.linalg.qr(_random_family(rng, d, d).vectors)[0]),
        "near-singular": _family_with_spectrum(rng, np.geomspace(1e-6, 1.0, d), 2 * d),
    }


@pytest.mark.parametrize("case", ["redundant", "orthonormal", "near-singular"])
def test_eigen_dual_matches_the_lu_oracle(case):
    # Both routes solve Theta X = [f_k] backward stably, so they agree, and
    # each dual pair reproduces the identity, to d * eps * (beta / alpha).
    F = _dual_oracle_cases()[case]
    frame = FrameAnalysis(F)
    if case == "near-singular":
        assert frame.bounds.alpha == pytest.approx(1e-6, rel=1e-6)
    bound = F.dim * np.finfo(float).eps * frame.bounds.beta / frame.bounds.alpha
    dual = frame.dual()
    oracle = lu_dual(F)
    gap = np.linalg.norm(dual.vectors - oracle.vectors) / np.linalg.norm(oracle.vectors)
    assert gap <= bound
    assert verify_dual_pair(F, dual) <= bound
    assert verify_dual_pair(F, oracle) <= bound
    if case == "orthonormal":
        np.testing.assert_allclose(dual.vectors, F.vectors, atol=bound)


def test_dual_checks_its_solve_residual():
    # No float solve of Theta X = [f_k] meets a residual bound of 1e-300
    # relative, so the check must fire; the bounds need no solve.
    F = _dual_oracle_cases()["redundant"]
    frame = FrameAnalysis(F, tol=Tolerances(SOLVE_TOL=1e-300))
    assert frame.bounds == FrameAnalysis(F).bounds
    with pytest.raises(NumericalError, match="solve residual"):
        frame.dual()


def test_dual_refuses_a_family_just_below_frame_tol():
    # alpha = 1e-11 against FRAME_TOL = 1e-10: both routes refuse it.
    F = _family_with_spectrum(np.random.default_rng(11), np.geomspace(1e-11, 1.0, 8), 16)
    frame = FrameAnalysis(F)
    assert frame.bounds.alpha == pytest.approx(1e-11, rel=1e-3)
    for dual in (frame.dual, lambda: lu_dual(F)):
        with pytest.raises(NotAFrameError) as exc:
            dual()
        assert exc.value.alpha == pytest.approx(frame.bounds.alpha, rel=1e-3)


def test_family_validation():
    with pytest.raises(ValueError):
        VectorFamily(vectors=np.zeros((0, 3)))
    fam = VectorFamily(vectors=np.eye(2))
    assert fam.count == 2 and fam.dim == 2


def test_frame_operator_hand_checked():
    # {e1, e1, e2} in C^2: Theta = diag(2, 1)
    F = VectorFamily(vectors=np.array([[1, 0], [1, 0], [0, 1]], dtype=float))
    np.testing.assert_allclose(frame_operator(F), np.diag([2.0, 1.0]), atol=1e-15)
    frame = FrameAnalysis(F)
    b = frame.bounds
    assert (b.alpha, b.beta) == pytest.approx((1.0, 2.0))
    assert frame.is_frame


def test_canonical_dual_hand_checked():
    # Dual of {e1, e1, e2} is {e1/2, e1/2, e2}
    F = VectorFamily(vectors=np.array([[1, 0], [1, 0], [0, 1]], dtype=float))
    dual = FrameAnalysis(F).dual()
    np.testing.assert_allclose(
        dual.vectors, [[0.5, 0], [0.5, 0], [0, 1]], atol=1e-12
    )


def test_min_norm_gap_hand_checked():
    # f = e1 represented by c = (1, 0, 0); canonical is (1/2, 1/2, 0), so the
    # energy gap is 1 - 1/2 = 1/2.
    F = VectorFamily(vectors=np.array([[1, 0], [1, 0], [0, 1]], dtype=float))
    gap = min_norm_gap(np.array([1.0, 0.0]), F, [1.0, 0.0, 0.0])
    assert gap == pytest.approx(0.5, abs=1e-12)
    assert min_norm_gap(np.array([1.0, 0.0]), F, [0.5, 0.5, 0.0]) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError, match="do not represent"):
        min_norm_gap(np.array([1.0, 0.0]), F, [0.0, 0.0, 1.0])


def test_bounds_bracket_analysis_energy():
    rng = np.random.default_rng(21)
    F = _random_family(rng, 9, 4)
    b = FrameAnalysis(F).bounds
    for _ in range(50):
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        energy = float(np.sum(np.abs(analysis(f, F)) ** 2))
        norm2 = float(np.linalg.norm(f) ** 2)
        assert b.alpha * norm2 - 1e-9 <= energy <= b.beta * norm2 + 1e-9


def test_bounds_are_tight():
    # The extreme eigenvalues are attained by eigenvectors, so no wider
    # bracket can be replaced by a narrower one.
    rng = np.random.default_rng(33)
    F = _random_family(rng, 7, 5)
    theta = frame_operator(F)
    b = FrameAnalysis(F).bounds
    vals, vecs = np.linalg.eigh(theta)
    lo, hi = vecs[:, 0], vecs[:, -1]
    assert float(np.sum(np.abs(analysis(lo, F)) ** 2)) == pytest.approx(
        b.alpha, rel=1e-10
    )
    assert float(np.sum(np.abs(analysis(hi, F)) ** 2)) == pytest.approx(
        b.beta, rel=1e-10
    )


def test_frame_bounds_validation():
    with pytest.raises(ValueError):
        FrameBounds(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        FrameBounds(alpha=-0.1, beta=1.0)


def test_canonical_dual_reconstructs_both_ways():
    rng = np.random.default_rng(4)
    F = _random_family(rng, 10, 6)
    dual = FrameAnalysis(F).dual()
    assert verify_dual_pair(F, dual) < 1e-10
    assert verify_dual_pair(dual, F) < 1e-10
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(synthesis(analysis(f, dual), F), f, atol=1e-10)
    np.testing.assert_allclose(synthesis(analysis(f, F), dual), f, atol=1e-10)


def test_canonical_dual_requires_frame():
    cases = [
        # two vectors cannot span C^3
        ([[1.0, 0, 0], [0, 1.0, 0]], Tolerances(), 0.0),
        # {e1, e1, e2} is a frame with alpha = 1 (test_frame_operator_hand_checked)
        # until FRAME_TOL reaches 1: the frame test and the dual flip together.
        ([[1.0, 0], [1.0, 0], [0, 1.0]], Tolerances(FRAME_TOL=1.0), 1.0),
    ]
    for vectors, tol, alpha in cases:
        F = VectorFamily(vectors=np.array(vectors))
        assert not FrameAnalysis(F, tol=tol).is_frame
        with pytest.raises(NotAFrameError) as exc:
            FrameAnalysis(F, tol=tol).dual()
        assert exc.value.alpha == pytest.approx(alpha, abs=1e-12)


def test_parseval_family_is_self_dual():
    # Orthonormal rows give alpha = beta = 1 and dual == family.
    F = VectorFamily(vectors=np.eye(4))
    b = FrameAnalysis(F).bounds
    assert (b.alpha, b.beta) == pytest.approx((1.0, 1.0))
    np.testing.assert_allclose(FrameAnalysis(F).dual().vectors, np.eye(4), atol=1e-12)


def test_analysis_synthesis_adjoint_identity():
    # <analysis(f), c> in C^J equals <f, synthesis(c)> in C^d.
    rng = np.random.default_rng(17)
    F = _random_family(rng, 8, 5)
    for _ in range(20):
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert inner(analysis(f, F), c) == pytest.approx(
            inner(f, synthesis(c, F)), abs=1e-10
        )


def test_analysis_synthesis_shape_checks():
    F = VectorFamily(vectors=np.eye(3))
    with pytest.raises(ValueError):
        analysis(np.ones(2), F)
    with pytest.raises(ValueError):
        synthesis(np.ones(2), F)


def test_verify_dual_pair_detects_mismatch():
    F = VectorFamily(vectors=np.eye(3))
    G = VectorFamily(vectors=2.0 * np.eye(3))
    assert verify_dual_pair(F, G) > 0.5
    with pytest.raises(ValueError):
        verify_dual_pair(F, VectorFamily(vectors=np.eye(4)))


def test_verify_dual_pair_is_exact_on_rank_one_defect():
    # G = I - s * conj(u u*) makes I - F^T conj(G) = s u u* with F = I, so
    # the worst unit vector (u itself) has residual s.  A random unit
    # vector in C^64 sees only |<u, f>| ~ 1/8 of it.
    d, s = 64, 0.75
    rng = np.random.default_rng(32)
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u /= np.linalg.norm(u)
    F = VectorFamily(vectors=np.eye(d))
    G = VectorFamily(vectors=np.eye(d) - s * np.outer(u, u.conj()).conj())
    assert abs(verify_dual_pair(F, G) - s) <= 1e-12


def test_min_norm_gap_random_perturbations():
    # Perturbing canonical coefficients inside the synthesis kernel keeps the
    # representation valid and the gap equals the perturbation energy.
    rng = np.random.default_rng(92)
    F = _random_family(rng, 9, 4)
    dual = FrameAnalysis(F).dual()
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    canon = analysis(f, dual)
    # kernel of synthesis = null space of V.T
    kernel = np.linalg.svd(F.vectors.T)[2].conj().T[:, 4:]
    for _ in range(10):
        z = kernel @ (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        gap = min_norm_gap(f, F, canon + z)
        assert gap == pytest.approx(float(np.linalg.norm(z) ** 2), abs=1e-8)


def test_subspace_bounds_hand_checked():
    # {e1, e2} in C^3 is not a frame for C^3 but restricts to a Parseval
    # frame of W = span{e1, e2}.  With A = 0 the subspace condition takes
    # the bounds of exactly this projected family.
    F = VectorFamily(vectors=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    assert FrameAnalysis(F).bounds.alpha == pytest.approx(0.0, abs=1e-12)
    B = np.array([[1.0, 0], [0, 1.0], [0, 0]])
    zero = np.zeros(3)
    spec = SystemSpec(
        params=SpectralParams(N=2, r=1), A=np.zeros((3, 3)), g=F, W_basis=B,
        w=zero, x0=zero, xm2=zero, K=1,
    )
    b = SystemAnalysis(spec).subspace.bounds
    assert (b.alpha, b.beta) == pytest.approx((1.0, 1.0))
