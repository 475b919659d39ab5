"""End-to-end acceptance checks.

One test per contract item, each runnable on its own.  These intentionally
re-derive expected values from scratch (hand formulas, independent
constructions) rather than trusting library internals.
"""

import json
import time

import numpy as np
import pytest

from nuds import cli
from nuds.cli import main, parse_config
from nuds.dynamics import (
    LatticeWindow,
    SystemSpec,
    bs_membership,
    data_matrix,
    simulate,
    sup_row_norm,
)
from nuds.frames import (
    FrameAnalysis,
    VectorFamily,
    analysis,
    frame_operator,
    synthesis,
)
from nuds.lattice import (
    LambdaIndex,
    SpectralParams,
    branch_of,
    position,
    power_of,
    window,
)
from nuds.recovery import (
    ConditionFailure,
    SystemAnalysis,
    counterexample_nullifier,
    finite_recovery_report,
    reconstruct_finite,
    reconstruct_infinite,
)
from nuds.scenarios import SCENARIOS, build, counterexample_source

from oracles import (
    closed_form_resolvent_state,
    closed_form_state,
    min_norm_gap,
    verify_dual_pair,
)

PARAMS = SpectralParams(N=2, r=1)


def _operator_with_norm(rng, d, norm):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return A * (norm / np.linalg.norm(A, 2))


def _frame_with_alpha(rng, count, d, alpha_min=0.1):
    for _ in range(20):
        g = VectorFamily(
            vectors=rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        )
        if FrameAnalysis(g).bounds.alpha >= alpha_min:
            return g
    raise AssertionError(f"could not draw a frame with alpha >= {alpha_min}")


def _random_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def test_finite_recovery_round_trip_on_random_frames():
    # 100 random systems across three dimensions, operator norm up to 2,
    # sampling frames with lower bound >= 0.1; the source must come back
    # at every interior window point with relative error <= 1e-8, and the
    # recoveries must exercise all three successor branches.  Budget: 10 s.
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    branches_seen = set()
    worst = 0.0
    for trial in range(100):
        d = int(rng.choice([8, 16, 32]))
        K = d // 4
        A = _operator_with_norm(rng, d, norm=rng.uniform(0.5, 2.0))
        g = _frame_with_alpha(rng, 2 * d, d)
        spec = SystemSpec(
            params=PARAMS, A=A, g=g, W_basis=np.eye(d),
            w=_random_vec(rng, d), x0=_random_vec(rng, d), xm2=_random_vec(rng, d),
            K=K,
        )
        D = data_matrix(simulate(spec), spec.g)
        dual = FrameAnalysis(g).dual()
        w_norm = float(np.linalg.norm(spec.w))
        for at in window(K - 1):
            w_hat = reconstruct_finite(D, at, spec.A, spec.g, dual)
            rel = float(np.linalg.norm(w_hat - spec.w)) / w_norm
            worst = max(worst, rel)
            branches_seen.add(branch_of(at).value)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst relative recovery error {worst:.3e}"
    assert branches_seen == {"i", "ii", "iii"}
    assert elapsed < 10.0, f"round trip took {elapsed:.1f}s"


def test_diagonal_onb_example_recovers_exactly_on_all_branches():
    # The worked diagonal example at r=1, N=2, K=4: orthonormal sampling,
    # x0 the offset-point basis vector, xm2 the basis vector at -2;
    # recovery is exact to 1e-10 in each branch case.
    system = build("thm312_diagonal", PARAMS, 4).system
    spec = system.spec
    e_offset = np.zeros(spec.dim)
    e_offset[position(LambdaIndex(0, 1), spec.K)] = 1.0
    e_minus2 = np.zeros(spec.dim)
    e_minus2[position(LambdaIndex(-1, 0), spec.K)] = 1.0
    np.testing.assert_array_equal(spec.x0, e_offset)
    np.testing.assert_array_equal(spec.xm2, e_minus2)

    points = (LambdaIndex(0, 0), LambdaIndex(0, 1), LambdaIndex(-1, 1))
    reports = finite_recovery_report(points, system)
    cases = {report.case: report.abs_error for report in reports}
    assert set(cases) == {"i", "ii", "iii"}
    assert all(err <= 1e-10 for err in cases.values()), cases


def test_constant_row_limit_norm_matches_sqrt_upper_bound():
    # Constant-row data built from the frame operator's top eigenvector:
    # the limit evaluation has norm beta while the rows have norm
    # sqrt(beta), so the ratio is sqrt(beta).  20 random Bessel families
    # (some with fewer vectors than dimensions — no lower bound needed).
    rng = np.random.default_rng(38)
    order = tuple(window(2))
    for trial in range(20):
        d = int(rng.integers(4, 9))
        count = int(rng.integers(3, 13))
        F = VectorFamily(
            vectors=rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        )
        vals, vecs = np.linalg.eigh(frame_operator(F))
        top = vecs[:, -1]
        row = analysis(top, F)
        D = LatticeWindow(np.tile(row, (len(order), 1)))
        ratio = float(np.linalg.norm(synthesis(bs_membership(D).limit_row, F))) / sup_row_norm(D)
        assert ratio == pytest.approx(float(np.sqrt(vals[-1])), abs=1e-6)

    # orthonormal special case: the ratio is exactly one
    onb = VectorFamily(vectors=np.eye(4))
    row = analysis(np.eye(4)[0], onb)
    D = LatticeWindow(np.tile(row, (len(order), 1)))
    ratio = float(np.linalg.norm(synthesis(bs_membership(D).limit_row, onb))) / sup_row_norm(D)
    assert ratio == 1.0


def test_nullifier_defeats_recovery_while_necessary_condition_holds():
    # Diagonal operator with distinct log-spaced entries in (0.1, 0.9) and
    # the structured source, for K = 1, ..., 8: both orbits started from
    # the least-squares witness give simulated data below 1e-8 although
    # the source has norm >= 1, and the (necessary-only) subspace
    # condition still reports alpha > 0.
    for K in range(1, 9):
        d = 4 * K
        A = np.diag(np.geomspace(0.1, 0.9, d))
        w = counterexample_source(K)
        assert float(np.linalg.norm(w)) >= 1.0

        g = VectorFamily(vectors=((np.eye(d) - A) @ w)[None, :])
        W_basis = (w / np.linalg.norm(w))[:, None]
        x = counterexample_nullifier(A, g, w, K)
        spec = SystemSpec(
            params=PARAMS, A=A, g=g, W_basis=W_basis,
            w=w, x0=x, xm2=x.copy(), K=K,
        )
        assert SystemAnalysis(spec).subspace.bounds.alpha > 0
        D = data_matrix(simulate(spec), g)
        assert float(np.abs(D.values).max()) <= 1e-8, K


def test_quarter_contraction_converges_geometrically_and_recovers():
    # A = I/4 with a two-dimensional source subspace over an 80-state
    # window: every state obeys ||x - s|| <= (1/4)^n ||x0 - s|| up to
    # 1e-12, where s = (4/3) w, and limit recovery returns w to 1e-6.
    system = build("thm319_quarter", PARAMS, 20).system
    spec = system.spec
    s = system.stationary_state
    np.testing.assert_allclose(s, (4.0 / 3.0) * spec.w, atol=1e-12)

    traj = simulate(spec)
    base = float(np.linalg.norm(spec.x0 - s))
    for idx in traj.order:
        n = power_of(idx)
        dist = float(np.linalg.norm(traj.row(idx) - s))
        assert dist <= (0.25**n) * base + 1e-12, (idx, n, dist)

    report = reconstruct_infinite(system)
    assert report.abs_error <= 1e-6


def test_degenerate_adjoint_family_admits_indistinguishable_sources():
    # When every sampling vector is blind to one direction of W, the
    # adjoint family has lower bound zero and two unit-separated sources
    # produce identical data: stable recovery is impossible, and the
    # limit-recovery entry point refuses to run.
    d, K = 8, 2
    p0 = position(LambdaIndex(0, 0), K)
    p1 = position(LambdaIndex(0, 1), K)
    B = np.zeros((d, 2))
    B[p0, 0] = 1.0
    B[p1, 1] = 1.0
    A = 0.5 * np.eye(d)
    rng = np.random.default_rng(317)
    g_vec = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
    g_vec[:, p1] = 0.0  # blind direction
    g = VectorFamily(vectors=g_vec)

    w1 = np.zeros(d, dtype=complex)
    w1[p0] = 1.0
    w2 = w1.copy()
    w2[p1] = 1.0  # differs by the blind direction
    assert float(np.linalg.norm(w1 - w2)) == pytest.approx(1.0)

    systems = []
    for w in (w1, w2):
        stationary = np.linalg.solve(np.eye(d) - A, w)
        spec = SystemSpec(
            params=PARAMS, A=A, g=g, W_basis=B,
            w=w, x0=stationary, xm2=stationary, K=K,
        )
        systems.append(SystemAnalysis(spec))
    system = systems[0]  # w1's own record
    system.stationary_map  # the radius admits the map; its adjoint family is blind
    assert system.subspace.bounds.alpha <= 1e-12
    limit1, limit2 = (s.limit.limit_row for s in systems)
    assert float(np.linalg.norm(limit1 - limit2)) <= 1e-10
    # ... in fact the whole data matrices coincide
    assert float(np.abs(systems[0].data.values - systems[1].data.values).max()) <= 1e-10

    with pytest.raises(ConditionFailure, match="not stably recoverable"):
        reconstruct_infinite(system)


def test_state_formulas_agree_across_random_systems():
    # simulate vs power-sum closed form vs resolvent closed form, 50
    # random contractive-to-unit-norm systems with windows up to K = 25;
    # all three agree to 1e-9 at every window point.
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 6))
        K = int(rng.integers(1, 26))
        A = _operator_with_norm(rng, d, norm=rng.uniform(0.2, 0.98))
        spec = SystemSpec(
            params=PARAMS, A=A,
            g=VectorFamily(vectors=np.eye(d)), W_basis=np.eye(d),
            w=_random_vec(rng, d), x0=_random_vec(rng, d), xm2=_random_vec(rng, d),
            K=K,
        )
        traj = simulate(spec)
        for idx in traj.order:
            x_sim = traj.row(idx)
            x_pow = closed_form_state(spec, idx)
            x_res = closed_form_resolvent_state(spec, idx)
            worst = max(
                worst,
                float(np.linalg.norm(x_sim - x_pow)),
                float(np.linalg.norm(x_sim - x_res)),
                float(np.linalg.norm(x_pow - x_res)),
            )
    assert worst <= 1e-9, f"worst disagreement {worst:.3e}"


def test_frame_toolkit_randomized_properties():
    # 200 trials each: the sampling-energy bracket, the dual-pair
    # reconstruction identity, nonnegativity of the min-norm gap with
    # equality only at canonical coefficients, and self-duality of
    # Parseval families obtained by whitening.
    rng = np.random.default_rng(21)

    def draw(count, d):
        return VectorFamily(
            vectors=rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        )

    for _ in range(200):  # frame-bound bracket
        F = draw(9, 5)
        b = FrameAnalysis(F).bounds
        f = _random_vec(rng, 5)
        energy = float(np.sum(np.abs(analysis(f, F)) ** 2))
        n2 = float(np.linalg.norm(f) ** 2)
        assert b.alpha * n2 - 1e-8 <= energy <= b.beta * n2 + 1e-8

    for _ in range(200):  # dual-pair identity
        F = draw(8, 4)
        dual = FrameAnalysis(F).dual()
        f = _random_vec(rng, 4)
        resid = float(np.linalg.norm(synthesis(analysis(f, dual), F) - f))
        assert resid <= 1e-8

    for _ in range(200):  # min-norm gap: >= -1e-10, equality only at canonical
        F = draw(7, 4)
        f = _random_vec(rng, 4)
        canon = analysis(f, FrameAnalysis(F).dual())
        assert abs(min_norm_gap(f, F, canon)) <= 1e-10
        kernel = np.linalg.svd(F.vectors.T)[2].conj().T[:, 4:]
        z = kernel @ _random_vec(rng, kernel.shape[1])
        z *= 0.5 / np.linalg.norm(z)
        gap = min_norm_gap(f, F, canon + z)
        assert gap >= -1e-10
        assert gap == pytest.approx(0.25, abs=1e-8)  # = ||z||^2, strictly off zero

    for _ in range(200):  # Parseval self-duality
        F = draw(8, 4)
        vals, vecs = np.linalg.eigh(frame_operator(F))
        whitener = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
        P = VectorFamily(vectors=F.vectors @ whitener.T)
        b = FrameAnalysis(P).bounds
        assert (b.alpha, b.beta) == pytest.approx((1.0, 1.0), abs=1e-10)
        np.testing.assert_allclose(FrameAnalysis(P).dual().vectors, P.vectors, atol=1e-8)
        assert verify_dual_pair(P, P) <= 1e-8


def test_data_matrix_norm_domination_and_tail_decay_rate():
    # sup_row_norm is the l2 -> linf operator norm, so it dominates
    # ||D c||_inf for every unit c (1000 draws, slack 1e-10); and for
    # contracting dynamics the edge tail gap decays geometrically in K at
    # a rate whose log-fit recovers the spectral radius within 10%.
    rng = np.random.default_rng(3406)
    spec = SystemSpec(
        params=PARAMS,
        A=_operator_with_norm(rng, 8, 0.9),
        g=VectorFamily(
            vectors=rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        ),
        W_basis=np.eye(8),
        w=_random_vec(rng, 8), x0=_random_vec(rng, 8), xm2=_random_vec(rng, 8),
        K=4,
    )
    D = data_matrix(simulate(spec), spec.g)
    stacked = D.values
    bound = sup_row_norm(D)
    for _ in range(1000):
        c = _random_vec(rng, 16)
        c /= np.linalg.norm(c)
        assert float(np.abs(stacked @ c).max()) <= bound + 1e-10

    # geometric tail decay: rho * unitary keeps every mode at modulus rho
    rho = 0.6
    d = 6
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    A = rho * q
    g = VectorFamily(vectors=rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d)))
    w = _random_vec(rng, d)
    x0 = _random_vec(rng, d)
    xm2 = _random_vec(rng, d)
    gaps = []
    Ks = range(3, 11)
    for K in Ks:
        spec = SystemSpec(
            params=PARAMS, A=A, g=g, W_basis=np.eye(d),
            w=w, x0=x0, xm2=xm2, K=K,
        )
        D = data_matrix(simulate(spec), g)
        gaps.append(bs_membership(D).tail_gap)
    slope = np.polyfit(list(Ks), np.log(gaps), 1)[0]
    fitted_rho = float(np.exp(slope / 2.0))  # window edges advance 2 powers per K
    assert abs(fitted_rho - rho) <= 0.1 * rho, (fitted_rho, rho)


def test_cli_demo_round_trip_and_exit_codes(tmp_path, monkeypatch, capsys):
    # every packaged scenario demo succeeds; an emitted config drives the
    # other subcommands unchanged; and the exit codes keep their contract
    # (0 ok, 2 config, 3 condition, 4 expectation mismatch).
    for scenario_id in SCENARIOS:
        out = tmp_path / scenario_id
        assert main(["demo", scenario_id, "-o", str(out)]) == 0, scenario_id
        doc = json.loads((out / f"{scenario_id}_report.json").read_text())
        assert doc["expectations_met"] is True

    out = tmp_path / "roundtrip"
    assert main(["demo", "thm38_onb", "-o", str(out), "--emit-config"]) == 0
    cfg_path = out / "thm38_onb_config.json"
    spec, _ = parse_config(json.loads(cfg_path.read_text()))
    assert spec.dim == 4 * spec.K
    assert main(["simulate", str(cfg_path), "-o", str(out / "sim")]) == 0
    assert main(["recover", str(cfg_path), "-o", str(out / "fin")]) == 0
    assert main(["recover", str(cfg_path), "-o", str(out / "inf"), "--mode", "infinite"]) == 0
    assert main(["check", str(cfg_path)]) == 0
    report = json.loads((out / "inf" / "report.json").read_text())
    assert report["schema"] == 1 and report["abs_error"] <= 1e-8

    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    assert main(["demo", "thm999_unknown", "-o", str(tmp_path)]) == 2
    assert main([
        "recover", str(cfg_path), "-o", str(out / "bad"),
        "--tol-override", "FRAME_TOL=2.0",
    ]) == 3

    monkeypatch.setattr(
        cli, "run_scenario", lambda bundle: ({"schema": 1}, ["forced"])
    )
    assert main(["demo", "thm38_onb", "-o", str(tmp_path / "forced")]) == 4
    capsys.readouterr()  # swallow accumulated CLI chatter
