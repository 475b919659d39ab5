import numpy as np
import pytest

from nuds.dynamics import LatticeWindow, SystemSpec, data_matrix, simulate
from nuds.frames import DualFamily, NotAFrameError, VectorFamily, canonical_dual, synthesis
from nuds.lattice import LambdaIndex, SpectralParams, index_map, window
from nuds.linalg import NumericalError
from nuds.recovery import (
    ConditionFailure,
    RecoveryReport,
    case_of,
    coupling_matrix,
    counterexample_nullifier,
    finite_recovery_report,
    limit_operator,
    reconstruct_finite,
    reconstruct_finite_coupling,
    recovery_certificate_full,
    reconstruct_infinite,
    stationary_map_from_A,
    subspace_condition,
)

PARAMS = SpectralParams(N=2, r=1)


def _random_system(rng, dim, K, spectral_scale=0.8, g_count=None):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A *= spectral_scale / max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
    count = g_count or 2 * dim
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return SystemSpec(
        params=PARAMS, dim=dim, A=A,
        g=VectorFamily(vectors=g), W_basis=np.eye(dim),
        w=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        x0=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        xm2=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        K=K,
    )


def test_case_tags():
    assert case_of(LambdaIndex(3, 0)) == "i"
    assert case_of(LambdaIndex(-3, 0)) == "i"
    assert case_of(LambdaIndex(2, 1)) == "ii"
    assert case_of(LambdaIndex(-2, 1)) == "iii"


def test_coupling_matrix_onb_is_a_star():
    # Against an orthonormal basis the coefficients are just the matrix
    # entries of A*: c[i][j] = <A* e_j, e_i> = conj(A[j, i]).
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = VectorFamily(vectors=np.eye(3))
    c = coupling_matrix(A, g, DualFamily(vectors=np.eye(3)))
    np.testing.assert_allclose(c.entries, A.conj().T, atol=1e-12)


def test_coupling_matrix_rejects_bad_dual():
    g = VectorFamily(vectors=np.eye(2))
    with pytest.raises(ValueError, match="dual"):
        coupling_matrix(np.eye(2), g, DualFamily(vectors=3.0 * np.eye(2)))


@pytest.mark.parametrize("at", [LambdaIndex(0, 0), LambdaIndex(0, 1), LambdaIndex(-1, 1)])
def test_reconstruct_finite_exact_on_each_branch(at):
    rng = np.random.default_rng(10)
    spec = _random_system(rng, dim=4, K=2)
    D = data_matrix(simulate(spec), spec.g)
    w_hat = reconstruct_finite(D, at, spec.A, spec.g)
    np.testing.assert_allclose(w_hat, spec.w, atol=1e-9)


def test_coupling_route_agrees_with_operator_route():
    rng = np.random.default_rng(77)
    spec = _random_system(rng, dim=6, K=3)
    D = data_matrix(simulate(spec), spec.g)
    dual = canonical_dual(spec.g)
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
        reconstruct_finite(D, LambdaIndex(0, 1), spec.A, spec.g)


def test_certificate_full_is_frame_bounds():
    fam = VectorFamily(vectors=np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
    b = recovery_certificate_full(fam)
    assert (b.alpha, b.beta) == pytest.approx((1.0, 2.0))


def test_subspace_condition_identity_dynamics():
    # A = 0 makes the resolvent trivial, so this reduces to bounds of
    # {P_W g_j}: a Parseval frame of W here.
    g = VectorFamily(vectors=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    B = np.array([[1.0, 0], [0, 1.0], [0, 0]])
    b = subspace_condition(np.zeros((3, 3)), g, B)
    assert (b.alpha, b.beta) == pytest.approx((1.0, 1.0))


def test_subspace_condition_scaled_identity():
    # (I - A*)^-1 = 2I for A = I/2, scaling the bounds by 4.
    g = VectorFamily(vectors=np.eye(2))
    b = subspace_condition(0.5 * np.eye(2), g, np.eye(2))
    assert (b.alpha, b.beta) == pytest.approx((4.0, 4.0))


def test_subspace_condition_unit_eigenvalue():
    g = VectorFamily(vectors=np.eye(2))
    with pytest.raises(NumericalError, match="spectrum"):
        subspace_condition(np.eye(2), g, np.eye(2))


def test_stationary_map_fixed_point():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4))
    A *= 0.7 / np.abs(np.linalg.eigvals(A)).max()
    g = VectorFamily(vectors=np.eye(4))
    smap = stationary_map_from_A(A, g, np.eye(4))
    w = rng.standard_normal(4)
    s = smap.stationary_state(w)
    np.testing.assert_allclose(A @ s + w, s, atol=1e-10)
    assert smap.rho == pytest.approx(0.7)


def test_stationary_map_scaled_identity_adjoint():
    # A = I/2 on C^2 with W = C^2: S = 2I and S* g_j = 2 g_j.
    rng = np.random.default_rng(15)
    g = VectorFamily(vectors=rng.standard_normal((3, 2)))
    smap = stationary_map_from_A(0.5 * np.eye(2), g, np.eye(2))
    np.testing.assert_allclose(smap.apply, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(smap.adjoint_family.vectors, 2.0 * g.vectors, atol=1e-12)


def test_stationary_map_requires_contraction():
    g = VectorFamily(vectors=np.eye(2))
    with pytest.raises(ConditionFailure, match=r"rho\(A\) = 1"):
        stationary_map_from_A(np.eye(2), g, np.eye(2))
    with pytest.raises(ConditionFailure):
        stationary_map_from_A(1.5 * np.eye(2), g, np.eye(2))


def test_limit_operator_constant_rows():
    order = tuple(window(2))
    row = np.array([2.0, -1.0])
    D = LatticeWindow(np.tile(row, (len(order), 1)))
    G = VectorFamily(vectors=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    np.testing.assert_allclose(
        limit_operator(D, G, tail=2), synthesis(row, G), atol=1e-12
    )


def test_limit_operator_rejects_divergent_rows():
    order = tuple(window(2))
    rows = [[float(i)] for i in range(len(order))]
    D = LatticeWindow(np.array(rows))
    G = VectorFamily(vectors=np.array([[1.0]]))
    with pytest.raises(ConditionFailure, match="not convergent"):
        limit_operator(D, G, tail=2)


def test_finite_recovery_report_contents():
    rng = np.random.default_rng(30)
    spec = _random_system(rng, dim=4, K=2)
    D = data_matrix(simulate(spec), spec.g)
    report = finite_recovery_report(
        D, LambdaIndex(-1, 1), spec.A, spec.g, w_true=spec.w
    )
    assert report.abs_error == pytest.approx(0.0, abs=1e-8)
    assert report.residual == pytest.approx(0.0, abs=1e-8)
    assert report.diagnostics["case"] == "iii"
    assert report.diagnostics["alpha"] > 0
    assert report.diagnostics["tail_gap"] == 0.0

    doc = report.to_json()
    assert doc["schema"] == 1
    assert doc["abs_error"] == report.abs_error
    assert len(doc["w_hat"]) == spec.dim
    assert set(doc["diagnostics"]) == {"alpha", "beta", "rho", "tail_gap", "case"}


def test_finite_recovery_report_requires_frame():
    rng = np.random.default_rng(31)
    spec = _random_system(rng, dim=3, K=1, g_count=6)
    deficient = VectorFamily(vectors=spec.g.vectors.copy())
    deficient.vectors[:, 0] = 0.0  # kill one direction
    D = data_matrix(simulate(spec), deficient)
    with pytest.raises(ConditionFailure, match="not stably recoverable"):
        finite_recovery_report(D, LambdaIndex(0, 0), spec.A, deficient)


def _stationary_system(rng, dim=2, K=6, rho=0.5, g_count=4):
    A = rho * np.eye(dim)
    g = rng.standard_normal((g_count, dim)) + 1j * rng.standard_normal((g_count, dim))
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    s = np.linalg.solve(np.eye(dim) - A, w)
    return SystemSpec(
        params=PARAMS, dim=dim, A=A, g=VectorFamily(vectors=g),
        W_basis=np.eye(dim), w=w, x0=s, xm2=s, K=K,
    )


def test_reconstruct_infinite_recovers_source():
    rng = np.random.default_rng(55)
    spec = _stationary_system(rng)
    D = data_matrix(simulate(spec), spec.g)
    smap = stationary_map_from_A(spec.A, spec.g, spec.W_basis)
    report = reconstruct_infinite(D, smap, tail=2, w_true=spec.w)
    assert report.abs_error < 1e-10
    assert report.residual < 1e-10
    assert report.diagnostics["case"] == "limit"
    assert report.diagnostics["tail_gap"] < 1e-12
    assert report.diagnostics["rho"] == pytest.approx(0.5)


def test_reconstruct_infinite_requires_adjoint_frame():
    # All sampling vectors proportional to e1 cannot see the e2 part of W.
    rng = np.random.default_rng(56)
    spec = _stationary_system(rng)
    ones_dir = VectorFamily(vectors=np.array([[1.0, 0.0], [2.0, 0.0]]))
    D = data_matrix(simulate(spec), ones_dir)
    smap = stationary_map_from_A(spec.A, ones_dir, spec.W_basis)
    with pytest.raises(ConditionFailure, match="not stably recoverable"):
        reconstruct_infinite(D, smap, tail=2)


def test_reconstruct_infinite_requires_convergent_rows():
    rng = np.random.default_rng(57)
    spec = _stationary_system(rng, K=3)
    spec.x0 = spec.x0 + 50.0  # far from stationary; K=3 tails don't settle
    D = data_matrix(simulate(spec), spec.g)
    smap = stationary_map_from_A(spec.A, spec.g, spec.W_basis)
    with pytest.raises(ConditionFailure, match="not convergent"):
        reconstruct_infinite(D, smap, tail=2)


def test_recovery_report_json_none_error():
    report = RecoveryReport(
        w_hat=np.array([1.0 + 0j]),
        abs_error=None,
        residual=0.0,
        diagnostics={"alpha": 1, "beta": 1, "rho": 0, "tail_gap": 0, "case": "i"},
    )
    assert report.to_json()["abs_error"] is None


# --- nullifier construction --------------------------------------------------

def _nullifier_inputs(K, seed=0):
    d = 4 * K
    rng = np.random.default_rng(seed)
    lam = np.linspace(0.1, 0.9, d)
    A = np.diag(lam)
    w = rng.uniform(0.5, 1.5, size=d) + 0j
    return A, w


def test_nullifier_k1_against_cramer():
    # K=1 reduces each half to a 2x2 system solvable by Cramer's rule.
    A, w = _nullifier_inputs(1)
    lam = np.diag(A).real
    g = (np.eye(4) - A) @ w
    x0, xm2, meas = counterexample_nullifier(A, w, 1)

    imap = index_map(4)
    b1 = np.vdot(g, w)  # <w, g> after one step from zero
    for positions, x in ((
        [imap.index_of(LambdaIndex(0, 0)), imap.index_of(LambdaIndex(0, 1))], x0,
    ), (
        [imap.index_of(LambdaIndex(-1, 0)), imap.index_of(LambdaIndex(-1, 1))], xm2,
    )):
        c0, c1 = positions
        gs = np.conj(g)
        det = gs[c0] * gs[c1] * (lam[c1] - lam[c0])
        # rows: [gs[c0], gs[c1]] . x = 0 and [lam[c0] gs[c0], lam[c1] gs[c1]] . x = -b1
        expected0 = gs[c1] * b1 / det
        expected1 = -gs[c0] * b1 / det
        assert x[c0] == pytest.approx(expected0, abs=1e-10)
        assert x[c1] == pytest.approx(expected1, abs=1e-10)
    np.testing.assert_allclose(meas, 0, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_nullifier_zeroes_all_window_measurements(K):
    A, w = _nullifier_inputs(K, seed=K)
    x0, xm2, meas = counterexample_nullifier(A, w, K)
    assert meas.shape == (4 * K,)
    np.testing.assert_allclose(meas, 0, atol=1e-9)
    assert float(np.linalg.norm(w)) > 1.0

    # supports sit on opposite halves of the coordinate window
    imap = index_map(4 * K)
    for p in range(4 * K):
        if imap.lambda_of(p).m >= 0:
            assert xm2[p] == 0
        else:
            assert x0[p] == 0

    # end-to-end: a simulated system with these states yields a zero data
    # matrix though the source is far from zero.
    g = VectorFamily(vectors=((np.eye(4 * K) - A) @ w)[None, :])
    spec = SystemSpec(
        params=PARAMS, dim=4 * K, A=A, g=g, W_basis=np.eye(4 * K),
        w=w, x0=x0, xm2=xm2, K=K,
    )
    D = data_matrix(simulate(spec), g)
    assert float(np.abs(D.values).max()) < 1e-9

    # The necessary subspace condition holds over W = span{w}: for real
    # diagonal A, (I - A*)^-1 g = w, so both bounds equal ||w||^2 ...
    norm_w = float(np.linalg.norm(w))
    cond = subspace_condition(A, g, (w / norm_w)[:, None])
    assert cond.alpha == pytest.approx(norm_w**2, rel=1e-10)
    assert cond.alpha > 0
    # ... while the certificate that would make recovery possible fails
    assert not recovery_certificate_full(g).is_frame()


def test_nullifier_input_validation():
    A, w = _nullifier_inputs(1)
    with pytest.raises(ValueError, match="diagonal"):
        counterexample_nullifier(np.full((4, 4), 0.2), w, 1)
    with pytest.raises(ValueError, match="inside"):
        counterexample_nullifier(np.diag([0.1, 0.4, 0.7, 1.0]), w, 1)
    with pytest.raises(ValueError, match="distinct"):
        counterexample_nullifier(np.diag([0.2, 0.2, 0.5, 0.7]), w, 1)
    with pytest.raises(ValueError, match="nonzero"):
        w0 = w.copy()
        w0[2] = 0.0
        counterexample_nullifier(A, w0, 1)
    with pytest.raises(ValueError, match="shape"):
        counterexample_nullifier(A, w, 2)
