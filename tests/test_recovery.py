import dataclasses

import numpy as np
import pytest

from nuds.dynamics import LatticeWindow, SystemSpec, bs_membership, data_matrix, simulate
from nuds.frames import FrameAnalysis, VectorFamily, synthesis
from nuds.lattice import LambdaIndex, SpectralParams, branch_of, position, successor, window
from nuds.linalg import SingularMatrixError, spectral_radius
from nuds.recovery import (
    ConditionFailure,
    SystemAnalysis,
    counterexample_nullifier,
    finite_recovery_report,
    reconstruct_finite,
    reconstruct_infinite,
)
from nuds.scenarios import FINITE_CASES
from nuds.tolerances import DEFAULTS

from oracles import (
    coupling_matrix,
    reconstruct_finite_coupling,
    subspace_family_by_adjoint_solve,
)

PARAMS = SpectralParams(N=2, r=1)


def _system(A, g, B) -> SystemAnalysis:
    """The analysis of x -> A x + w sampled by g, W = range B, w = 0."""
    dim = A.shape[0]
    zero = np.zeros(dim)
    spec = SystemSpec(
        params=PARAMS, A=A, g=g, W_basis=B, w=zero, x0=zero, xm2=zero, K=1
    )
    return SystemAnalysis(spec)


def _random_system(rng, dim, K, spectral_scale=0.8, g_count=None):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A *= spectral_scale / max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
    count = g_count or 2 * dim
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return SystemSpec(
        params=PARAMS, A=A,
        g=VectorFamily(vectors=g), W_basis=np.eye(dim),
        w=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        x0=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        xm2=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        K=K,
    )


def test_case_tags():
    assert branch_of(LambdaIndex(3, 0)).value == "i"
    assert branch_of(LambdaIndex(-3, 0)).value == "i"
    assert branch_of(LambdaIndex(2, 1)).value == "ii"
    assert branch_of(LambdaIndex(-2, 1)).value == "iii"


def test_coupling_matrix_onb_is_a_star():
    # Against an orthonormal basis the coefficients are just the matrix
    # entries of A*: c[i][j] = <A* e_j, e_i> = conj(A[j, i]).
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = VectorFamily(vectors=np.eye(3))
    c = coupling_matrix(A, g, VectorFamily(vectors=np.eye(3)))
    np.testing.assert_allclose(c.entries, A.conj().T, atol=1e-12)


def test_coupling_matrix_rejects_bad_dual():
    g = VectorFamily(vectors=np.eye(2))
    with pytest.raises(ValueError, match="dual"):
        coupling_matrix(np.eye(2), g, VectorFamily(vectors=3.0 * np.eye(2)))


@pytest.mark.parametrize("at", [LambdaIndex(0, 0), LambdaIndex(0, 1), LambdaIndex(-1, 1)])
def test_reconstruct_finite_exact_on_each_branch(at):
    rng = np.random.default_rng(10)
    spec = _random_system(rng, dim=4, K=2)
    D = data_matrix(simulate(spec), spec.g)
    w_hat = reconstruct_finite(D, at, spec.A, spec.g, FrameAnalysis(spec.g).dual())
    np.testing.assert_allclose(w_hat, spec.w, atol=1e-9)


def test_coupling_route_agrees_with_operator_route():
    rng = np.random.default_rng(77)
    spec = _random_system(rng, dim=6, K=3)
    D = data_matrix(simulate(spec), spec.g)
    dual = FrameAnalysis(spec.g).dual()
    coup = coupling_matrix(spec.A, spec.g, dual)
    for at in window(spec.K - 1):
        direct = reconstruct_finite(D, at, spec.A, spec.g, dual)
        via_coupling = reconstruct_finite_coupling(
            D, at, spec.A, spec.g, dual, coup
        )
        np.testing.assert_allclose(via_coupling, direct, atol=1e-9)
        np.testing.assert_allclose(direct, spec.w, atol=1e-8)


def test_reconstruct_finite_needs_successor_row():
    rng = np.random.default_rng(3)
    spec = _random_system(rng, dim=4, K=1)
    D = data_matrix(simulate(spec), spec.g)
    # successor of (0, 1) is (1, 0), outside the K=1 window
    with pytest.raises(ValueError):
        reconstruct_finite(D, LambdaIndex(0, 1), spec.A, spec.g, FrameAnalysis(spec.g).dual())


def test_certificate_full_is_frame_bounds():
    fam = VectorFamily(vectors=np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
    b = FrameAnalysis(fam).bounds
    assert (b.alpha, b.beta) == pytest.approx((1.0, 2.0))


def test_subspace_condition_identity_dynamics():
    # A = 0 makes the resolvent trivial, so this reduces to bounds of
    # {P_W g_j}: a Parseval frame of W here.
    g = VectorFamily(vectors=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    B = np.array([[1.0, 0], [0, 1.0], [0, 0]])
    b = _system(np.zeros((3, 3)), g, B).subspace.bounds
    assert (b.alpha, b.beta) == pytest.approx((1.0, 1.0))


def test_subspace_condition_scaled_identity():
    # (I - A*)^-1 = 2I for A = I/2, scaling the bounds by 4.
    g = VectorFamily(vectors=np.eye(2))
    b = _system(0.5 * np.eye(2), g, np.eye(2)).subspace.bounds
    assert (b.alpha, b.beta) == pytest.approx((4.0, 4.0))


def test_subspace_condition_unit_eigenvalue():
    g = VectorFamily(vectors=np.eye(2))
    with pytest.raises(SingularMatrixError, match="singular"):
        _system(np.eye(2), g, np.eye(2)).subspace


def test_stationary_map_fixed_point():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4))
    A *= 0.7 / np.abs(np.linalg.eigvals(A)).max()
    g = VectorFamily(vectors=np.eye(4))
    w = rng.standard_normal(4)
    system = SystemAnalysis(dataclasses.replace(_system(A, g, np.eye(4)).spec, w=w))
    s = system.stationary_state
    np.testing.assert_allclose(A @ s + w, s, atol=1e-10)
    assert system.rho == pytest.approx(0.7)


def test_stationary_map_scaled_identity_adjoint():
    # A = I/2 on C^2 with W = C^2: S = 2I and S* g_j = 2 g_j.
    rng = np.random.default_rng(15)
    g = VectorFamily(vectors=rng.standard_normal((3, 2)))
    system = _system(0.5 * np.eye(2), g, np.eye(2))
    np.testing.assert_allclose(system.stationary_map, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(system.subspace.family.vectors, 2.0 * g.vectors, atol=1e-12)


def test_stationary_map_requires_contraction():
    g = VectorFamily(vectors=np.eye(2))
    with pytest.raises(ConditionFailure, match=r"rho\(A\) = 1"):
        _system(np.eye(2), g, np.eye(2)).stationary_map
    with pytest.raises(ConditionFailure):
        _system(1.5 * np.eye(2), g, np.eye(2)).stationary_map


# Each solve is backward stable, so the two routes to the subspace family
# may differ by a few ulps times cond_2(I - A), relative to the family.
# Against this bound, fixed first, the cases below measured at most 0.56
# for the family's difference over eps * cond_2(I - A) * ||F||_2, and at
# most 1.9 for the bounds' difference over eps * cond_2(I - A) * beta.
IDENTITY_ULPS = 450


@pytest.mark.parametrize("rho", [0.5, 1.5])
@pytest.mark.parametrize("count", ["half", "double"])
@pytest.mark.parametrize("dim", [8, 64])
def test_adjoint_family_matches_the_adjoint_solve(dim, count, rho):
    # S* g_j = B* (I - A*)^-1 g_j = X* g_j with X = (I - A)^-1 B: the
    # package's one solve against the oracle's solve with I - A*.
    rng = np.random.default_rng([dim, len(count), int(10 * rho)])
    A = _complex(rng, dim, dim) + np.triu(_complex(rng, dim, dim), 1)  # non-normal
    A *= rho / spectral_radius(A)
    m = dim // 2 if count == "half" else 2 * dim
    g = VectorFamily(vectors=_complex(rng, m, dim))
    B, _ = np.linalg.qr(_complex(rng, dim, dim - 3))
    ref = subspace_family_by_adjoint_solve(A, g, B)
    ref_bounds = FrameAnalysis(ref).bounds
    scale = float(np.linalg.norm(ref.vectors, 2))
    delta = IDENTITY_ULPS * np.finfo(float).eps * np.linalg.cond(np.eye(dim) - A)
    system = _system(A, g, B)
    if rho < 1:
        system.stationary_map  # the radius admits the map
        family = system.subspace.family
        diff = float(np.linalg.norm(family.vectors - ref.vectors, 2))
        assert diff <= delta * scale
    else:
        with pytest.raises(ConditionFailure):
            system.stationary_map
    # Squared singular values of F move by at most (2 ||F|| + err) err.
    bounds = system.subspace.bounds
    slack = 3 * delta * ref_bounds.beta
    assert abs(bounds.alpha - ref_bounds.alpha) <= slack
    assert abs(bounds.beta - ref_bounds.beta) <= slack


def test_limit_operator_constant_rows():
    order = tuple(window(2))
    row = np.array([2.0, -1.0])
    D = LatticeWindow(np.tile(row, (len(order), 1)))
    G = VectorFamily(vectors=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    np.testing.assert_allclose(
        synthesis(bs_membership(D).limit_row, G), synthesis(row, G), atol=1e-12
    )


def test_limit_operator_rejects_divergent_rows():
    # The limit operator is defined on convergent rows only; limit recovery
    # refuses the others (test_reconstruct_infinite_requires_convergent_rows).
    order = tuple(window(2))
    rows = [[float(i)] for i in range(len(order))]
    lim = bs_membership(LatticeWindow(np.array(rows)))
    assert not lim.member and lim.tail_gap > DEFAULTS.BS_TOL


def test_finite_recovery_report_contents():
    rng = np.random.default_rng(30)
    spec = _random_system(rng, dim=4, K=2)
    system = SystemAnalysis(spec)
    cases = (LambdaIndex(-1, 1), LambdaIndex(0, 0))
    reports = finite_recovery_report(cases, system)
    assert [report.case for report in reports] == ["iii", "i"]
    report = reports[0]
    assert report.abs_error == pytest.approx(0.0, abs=1e-8)
    assert report.residual == pytest.approx(0.0, abs=1e-8)
    assert report.bounds == FrameAnalysis(spec.g).bounds
    assert report.bounds.alpha > 0
    assert report.rho == pytest.approx(np.abs(np.linalg.eigvals(spec.A)).max())
    assert report.tail_gap == 0.0
    # One analysis of the family serves every point.
    assert reports[1].bounds is report.bounds
    assert reports[1].abs_error == pytest.approx(0.0, abs=1e-8)

    doc = report.to_json()
    assert doc["schema"] == 1
    assert doc["abs_error"] == report.abs_error
    assert len(doc["w_hat"]) == spec.dim
    assert doc["diagnostics"] == {
        "alpha": report.bounds.alpha,
        "beta": report.bounds.beta,
        "rho": report.rho,
        "tail_gap": 0.0,
        "case": "iii",
    }


def test_residual_bound_is_each_recoverys_gate():
    tol = DEFAULTS.with_overrides({"SOLVE_TOL": 3e-9, "BS_TOL": 2e-7})
    rng = np.random.default_rng(32)
    system = SystemAnalysis(_random_system(rng, dim=4, K=2), tol=tol)
    D = system.data
    cases = (LambdaIndex(0, 0), LambdaIndex(0, 1), LambdaIndex(-1, 1))
    reports = finite_recovery_report(cases, system)
    assert [report.case for report in reports] == ["i", "ii", "iii"]
    for at, report in zip(cases, reports):
        # The finite gate scales with the two rows that recovery read.
        scale = max(np.linalg.norm(D.row(at)), np.linalg.norm(D.row(successor(at))))
        assert report.residual_bound == pytest.approx(3e-9 * (1.0 + scale), rel=1e-15)
        assert report.residual <= report.residual_bound
    # The bound gates the run and is not written to the report.
    assert set(reports[0].to_json()) == {"schema", "w_hat", "abs_error", "residual", "diagnostics"}
    stationary = SystemAnalysis(_stationary_system(rng), tol=tol)
    limit = reconstruct_infinite(stationary)
    assert limit.residual_bound == 2e-7
    assert limit.residual <= limit.residual_bound


def test_finite_recovery_report_requires_frame():
    rng = np.random.default_rng(31)
    spec = _random_system(rng, dim=3, K=1, g_count=6)
    deficient = VectorFamily(vectors=spec.g.vectors.copy())
    deficient.vectors[:, 0] = 0.0  # kill one direction
    system = SystemAnalysis(dataclasses.replace(spec, g=deficient))
    with pytest.raises(ConditionFailure, match="not stably recoverable"):
        finite_recovery_report((LambdaIndex(0, 0),), system)


def test_finite_recovery_on_inexact_data_obeys_its_proved_bounds():
    """Two-row recovery from rows perturbed by delta stays within its proved bounds.

    Exact arithmetic.  With a frame g (bounds alpha, beta) and its
    canonical dual, synthesis from a row has norm alpha^-1/2 and analysis
    norm beta^1/2.  Recovery is affine in the two rows and exact on exact
    data, so ``w_hat - w = S^-1 G (delta_next - G* A S^-1 G delta_at)`` and

        ||w_hat - w|| <= alpha^-1/2 (||delta_next|| + ||A|| sqrt(beta/alpha) ||delta_at||).

    The prediction ``G*(A u + w_hat)`` equals the successor row plus
    ``P delta_next``, with P the orthogonal projection onto range(G*), so
    the reported residual is ``||(I - P) delta_next|| <= ||delta_next||``.

    Rounding.  Forming the frame operator and its eigendecomposition is
    backward stable, so the computed dual is the exact dual of a frame
    operator off by at most a small multiple of n eps beta (n = max(m, d)
    terms per product), and so off by a relative n eps beta/alpha.  That
    acts as a further perturbation of each row read of at most
    ``gamma = 8 n eps beta/alpha`` times its norm: the error bound is
    charged ``gamma ||D_row||`` on each row, and the residual, which
    reaches the rows through G*, that charge times beta^1/2.  On these
    draws with exact data, the error and the residual reach at most 2 %
    and 1 % of their charges.
    """
    eps = np.finfo(float).eps
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 17))
        m, p = int(rng.integers(d, 2 * d + 1)), int(rng.integers(1, d + 1))
        A = _complex(rng, d, d)
        A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
        B = np.linalg.qr(_complex(rng, d, p))[0]
        spec = SystemSpec(
            params=PARAMS, A=A, g=VectorFamily(vectors=_complex(rng, m, d)), W_basis=B,
            w=B @ _complex(rng, p), x0=_complex(rng, d), xm2=_complex(rng, d), K=3,
        )
        exact = SystemAnalysis(spec)
        alpha, beta = exact.sampling.bounds.alpha, exact.sampling.bounds.beta
        gain = np.linalg.norm(A, 2) * np.sqrt(beta / alpha)
        gamma = 8 * max(m, d) * eps * beta / alpha
        for at in FINITE_CASES:
            rows = (position(at, spec.K), position(successor(at), spec.K))
            for size in (1e-9, 1e-6, 1e-3, 1e-1):
                values = exact.data.values.copy()
                for row in rows:
                    delta = _complex(rng, m)
                    values[row] += size / np.linalg.norm(delta) * delta
                noisy = SystemAnalysis(spec)
                noisy.data = LatticeWindow(values)
                (report,) = finite_recovery_report((at,), noisy)
                at_norm, next_norm = (np.linalg.norm(values[row]) for row in rows)
                bound = (size + gain * size) / np.sqrt(alpha)
                charge = gamma * (next_norm + gain * at_norm) / np.sqrt(alpha)
                assert report.abs_error <= bound + charge, (seed, at, size)
                assert report.residual <= size + np.sqrt(beta) * charge, (seed, at, size)


def test_limit_recovery_on_inexact_data_obeys_its_proved_bounds():
    """Limit recovery from edge rows all moved by delta stays within its proved bounds.

    Exact arithmetic.  One delta added to the four edge rows leaves their
    pairwise differences, so the tail gap and the verdict, unchanged, and
    moves the limit row L, the mean of the outermost rows, by exactly
    delta.  The recovered source is ``B F~ L``: the canonical dual F~ of
    the subspace family {X* g_j} (bounds alpha, beta), synthesized against
    L and lifted by the isometry B.  Synthesis with the dual has norm
    alpha^-1/2, so

        ||w_hat' - w_hat|| <= alpha^-1/2 ||delta||.

    The prediction of L is ``P L``, with P the orthogonal projection onto
    the range of the family's analysis map, so the residual is the
    distance ``||(I - P) L||`` of L from that range, and moves by at most
    ``||delta||``.

    Rounding.  Both runs use the same computed family and dual, so they
    differ only by how the rows are rounded on the way.  As in the finite
    test, the computed dual is the exact dual of a frame operator off by a
    relative n eps beta/alpha (n = max(m, d)), and that, with the rounding
    of forming L (a few eps ||L||), acts as a further perturbation of each
    limit row read of at most ``gamma = 8 n eps beta/alpha`` times its norm.
    The error is charged ``gamma alpha^-1/2`` times the two rows' norms,
    and the residual, which reaches the rows through analysis, that charge
    times beta^1/2.
    """
    eps = np.finfo(float).eps
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 17))
        m, p = int(rng.integers(d, 2 * d + 1)), int(rng.integers(1, d + 1))
        A = _complex(rng, d, d)
        A *= 0.5 / np.abs(np.linalg.eigvals(A)).max()
        B = np.linalg.qr(_complex(rng, d, p))[0]
        spec = SystemSpec(
            params=PARAMS, A=A, g=VectorFamily(vectors=_complex(rng, m, d)), W_basis=B,
            w=B @ _complex(rng, p), x0=_complex(rng, d), xm2=_complex(rng, d), K=20,
        )
        exact = SystemAnalysis(spec)
        clean = reconstruct_infinite(exact)
        alpha, beta = clean.bounds.alpha, clean.bounds.beta
        gamma = 8 * max(m, d) * eps * beta / alpha
        for size in (1e-9, 1e-6, 1e-3, 1e-1):
            delta = _complex(rng, m)
            values = exact.data.values.copy()
            values[[0, 1, -2, -1]] += size / np.linalg.norm(delta) * delta
            noisy = SystemAnalysis(spec)
            noisy.data = LatticeWindow(values)
            report = reconstruct_infinite(noisy)
            assert noisy.limit.member, (seed, size)
            rows = np.linalg.norm(exact.limit.limit_row) + np.linalg.norm(noisy.limit.limit_row)
            charge = gamma * rows / np.sqrt(alpha)
            moved = np.linalg.norm(report.w_hat - clean.w_hat)
            assert moved <= size / np.sqrt(alpha) + charge, (seed, size)
            assert abs(report.residual - clean.residual) <= size + np.sqrt(beta) * charge, (
                seed, size
            )


def _stationary_system(rng, dim=2, K=6, rho=0.5, g_count=4):
    A = rho * np.eye(dim)
    g = rng.standard_normal((g_count, dim)) + 1j * rng.standard_normal((g_count, dim))
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    s = np.linalg.solve(np.eye(dim) - A, w)
    return SystemSpec(
        params=PARAMS, A=A, g=VectorFamily(vectors=g),
        W_basis=np.eye(dim), w=w, x0=s, xm2=s, K=K,
    )


def test_reconstruct_infinite_recovers_source():
    rng = np.random.default_rng(55)
    spec = _stationary_system(rng)
    system = SystemAnalysis(spec)
    report = reconstruct_infinite(system)
    assert report.abs_error < 1e-10
    assert report.residual < 1e-10
    assert report.case == "limit"
    assert report.tail_gap < 1e-12
    assert report.rho == pytest.approx(0.5)
    assert report.bounds == FrameAnalysis(system.subspace.family).bounds


def test_reconstruct_infinite_requires_adjoint_frame():
    # All sampling vectors proportional to e1 cannot see the e2 part of W.
    rng = np.random.default_rng(56)
    spec = _stationary_system(rng)
    ones_dir = VectorFamily(vectors=np.array([[1.0, 0.0], [2.0, 0.0]]))
    system = SystemAnalysis(dataclasses.replace(spec, g=ones_dir))
    with pytest.raises(ConditionFailure, match="not stably recoverable"):
        reconstruct_infinite(system)


def test_reconstruct_infinite_requires_convergent_rows():
    rng = np.random.default_rng(57)
    spec = _stationary_system(rng, K=3)
    spec.x0 = spec.x0 + 50.0  # far from stationary; K=3 tails don't settle
    with pytest.raises(ConditionFailure, match="not convergent"):
        reconstruct_infinite(SystemAnalysis(spec))


# --- nullifier construction --------------------------------------------------

def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_nullifier_k1_against_cramer():
    # At K = 1 each orbit takes two samples, <x, g> and <A x + w, g>, so the
    # witness is x = -O*(OO*)^-1 t with O = [g*; g* A] and t = [0, <w, g>];
    # the 2 x 2 inverse comes from Cramer's rule.
    rng = np.random.default_rng(0)
    A, g, w = _complex(rng, 4, 4), _complex(rng, 4), _complex(rng, 4)
    x = counterexample_nullifier(A, VectorFamily(vectors=g[None, :]), w, 1)

    O = np.array([g.conj(), g.conj() @ A])
    t = np.array([0.0, np.vdot(g, w)])
    (a, b), (c, e) = O @ O.conj().T
    gram_inv = np.array([[e, -b], [-c, a]]) / (a * e - b * c)
    np.testing.assert_allclose(x, -O.conj().T @ gram_inv @ t, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_nullifier_zeroes_all_window_measurements(K):
    # A non-diagonal complex operator, two sampling vectors and d = 4K + 2,
    # so the 2K * 2 equations in d unknowns have full row rank.
    rng = np.random.default_rng(K)
    d = 4 * K + 2
    A = _complex(rng, d, d)
    A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
    g = VectorFamily(vectors=_complex(rng, 2, d))
    w = _complex(rng, d)
    x = counterexample_nullifier(A, g, w, K)

    # The equations, stacked independently: n steps from x, the samples
    # are G* A^n x + G* (A^0 + ... + A^(n-1)) w.
    G = g.vectors.conj()
    powers = [np.linalg.matrix_power(A, n) for n in range(2 * K)]
    O = np.concatenate([G @ P for P in powers])
    t = np.concatenate([G @ sum(powers[:n], np.zeros((d, d))) @ w for n in range(2 * K)])
    scale = np.linalg.norm(O, 2) * np.linalg.norm(x) + np.linalg.norm(t)

    spec = SystemSpec(
        params=PARAMS, A=A, g=g, W_basis=np.eye(d),
        w=w, x0=x, xm2=x.copy(), K=K,
    )
    D = data_matrix(simulate(spec), g)
    assert D.values.shape == (4 * K, 2)
    assert float(np.abs(D.values).max()) <= 1e-13 * scale
    assert float(np.linalg.norm(w)) > 1.0
    # The sampling family of two vectors is no frame for C^d, so no
    # recovery can see the source that the data misses.
    assert not FrameAnalysis(g).is_frame
