import dataclasses
import json

import numpy as np
import pytest

from nuds.cli import main
from nuds.dynamics import SystemSpec
from nuds.frames import VectorFamily
from nuds.lattice import LambdaIndex, SpectralParams, position
from nuds.linalg import require_solution, spectral_radius, vector_to_pairs
from nuds.recovery import ConditionFailure, SystemAnalysis
from nuds.scenarios import (
    SCENARIOS,
    Built,
    Scenario,
    ScenarioExpectations,
    build,
    counterexample_source,
    min_K,
    run_scenario,
)
from nuds.tolerances import DEFAULTS

PARAMS = SpectralParams(N=2, r=1)


def test_scenario_ids_and_defaults_align():
    for scenario_id, scenario in SCENARIOS.items():
        assert 1 <= scenario.floor_K <= min_K(scenario_id) <= scenario.default_K
        assert scenario.max_K is None or scenario.default_K <= scenario.max_K


def test_build_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown scenario id"):
        build("thm000_nope", PARAMS, 2)
    with pytest.raises(ValueError):
        build("thm312_diagonal", PARAMS, 0)


def test_min_K_and_build_refuse_an_unknown_id_alike():
    known = ", ".join(SCENARIOS)
    message = f"unknown scenario id 'nope'; known ids: {known}"
    for call in (lambda: min_K("nope"), lambda: build("nope", PARAMS, None)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_build_is_deterministic(scenario_id):
    K = max(3, min_K(scenario_id))
    a = build(scenario_id, PARAMS, K)
    b = build(scenario_id, PARAMS, K)
    np.testing.assert_array_equal(a.spec.A, b.spec.A)
    np.testing.assert_array_equal(a.spec.w, b.spec.w)
    np.testing.assert_array_equal(a.spec.x0, b.spec.x0)
    np.testing.assert_array_equal(a.spec.xm2, b.spec.xm2)
    np.testing.assert_array_equal(a.spec.g.vectors, b.spec.g.vectors)
    # a different K gives a different system (not just a resized one)
    c = build(scenario_id, PARAMS, K + 1)
    assert c.spec.dim == 4 * (K + 1)


def test_counterexample_maximum_K_is_where_float_nullifier_holds():
    limits = {sid: s.max_K for sid, s in SCENARIOS.items() if s.max_K is not None}
    assert limits == {"thm314_counterexample": 8}
    report, failures = run_scenario(build("thm314_counterexample", PARAMS, 8))
    assert failures == []
    for K in (9, 12):
        with pytest.raises(ValueError, match=f"needs K <= 8, got K = {K}"):
            build("thm314_counterexample", PARAMS, K)


@pytest.mark.parametrize(
    "scenario_id, K, message",
    [
        (
            "thm38_onb",
            1,
            "thm38_onb needs K >= 2, got K = 1: finite recovery at r/N reads the row at 2",
        ),
        (
            "thm319_quarter",
            6,
            "thm319_quarter needs K >= 7, got K = 6: its edge rows clear BS_TOL = 1.0e-06 "
            "and its limit recovery clears LIMIT_ORACLE_TOL = 1e-06 only from there",
        ),
        (
            "thm314_counterexample",
            9,
            "thm314_counterexample needs K <= 8, got K = 9: beyond it the nullifier's "
            "least-squares witness is too ill-conditioned for float arithmetic to zero "
            "the simulated samples to 1e-08",
        ),
    ],
)
def test_a_K_out_of_range_names_its_reason(scenario_id, K, message):
    with pytest.raises(ValueError) as err:
        build(scenario_id, PARAMS, K)
    assert str(err.value) == message


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_scenarios_meet_their_expectations(scenario_id):
    bundle = build(scenario_id, PARAMS, None)
    report, failures = run_scenario(bundle)
    assert failures == []
    assert report["scenario"] == scenario_id
    assert report["schema"] == 1
    # the whole report must be JSON-serializable, complex arrays as pairs
    json.dumps(report, default=vector_to_pairs)


def test_diagonal_scenario_details():
    bundle = build("thm312_diagonal", PARAMS, 4)
    diag = np.diag(bundle.spec.A).real
    assert diag[position(LambdaIndex(0, 0), 4)] == 1.0
    assert diag[position(LambdaIndex(2, 0), 4)] == 0.25
    assert diag[position(LambdaIndex(-2, 0), 4)] == 0.25
    assert diag[position(LambdaIndex(1, 1), 4)] == 0.0
    assert spectral_radius(bundle.spec.A) == pytest.approx(1.0)

    report, failures = run_scenario(bundle)
    assert failures == []
    assert set(report["finite_cases"]) == {"i", "ii", "iii"}
    assert all(err <= 1e-8 for err in report["finite_cases"].values())


def test_onb_scenario_norm_ratio():
    bundle = build("thm38_onb", PARAMS, None)
    report, failures = run_scenario(bundle)
    assert failures == []
    assert report["limit_norm_ratio"] == pytest.approx(1.0, abs=1e-10)


def test_counterexample_source_pattern():
    w = counterexample_source(2)
    expect = {
        LambdaIndex(0, 0): 1.0,
        LambdaIndex(1, 0): 0.5,
        LambdaIndex(-1, 0): -0.5,
        LambdaIndex(-2, 0): -0.25,
        LambdaIndex(0, 1): 1.0 / 3.0,
        LambdaIndex(1, 1): 1.0 / 9.0,
        LambdaIndex(-1, 1): -1.0 / 3.0,
        LambdaIndex(-2, 1): -1.0 / 9.0,
    }
    for idx, val in expect.items():
        assert w[position(idx, 2)] == pytest.approx(val)
    assert np.all(np.abs(w) > 0)


def test_counterexample_scenario_report():
    bundle = build("thm314_counterexample", PARAMS, 3)
    report, failures = run_scenario(bundle)
    assert failures == []
    assert report["necessary_condition_only"] is True
    meas = report["measurements"]
    assert len(meas) == 12
    labels = {m["lambda"]["label"] for m in meas}
    assert "0" in labels and "0+1/2" in labels and "-2+1/2" in labels
    assert all(abs(complex(*m["value"])) <= 1e-8 for m in meas)
    # the recovered source is (near) zero although the true one is unit-plus
    assert report["recovery"]["abs_error"] >= 1.0
    assert float(np.linalg.norm(report["recovery"]["w_hat"])) <= 1e-6


def test_generalized_scenario_expanding_operator():
    bundle = build("thm317_generalized", PARAMS, None)
    assert "paper-typo-corrected" in bundle.expectations.notes
    assert spectral_radius(bundle.spec.A) == pytest.approx(2.0)
    report, failures = run_scenario(bundle)
    assert failures == []
    # limit recovery succeeds even though the radius is above one
    assert report["recovery"]["abs_error"] <= 1e-8
    assert report["recovery"]["diagnostics"]["case"] == "limit"
    assert report["stationary_deviation"] <= 1e-10


@pytest.mark.parametrize("r, N", [(1, 2), (3, 2), (1, 1)])
def test_generalized_resolvent_solves_the_singular_system(r, N):
    # I - A is singular (A = 1 at 0 and -2, off W), yet the given X = -B
    # solves (I - A) X = B at every K.
    for K in range(min_K("thm317_generalized"), 13):
        bundle = build("thm317_generalized", SpectralParams(N=N, r=r), K)
        A, B = bundle.spec.A, bundle.spec.W_basis
        np.testing.assert_array_equal(bundle.resolvent, -B)
        require_solution(np.eye(bundle.spec.dim) - A, bundle.resolvent, B, tol=DEFAULTS)


def test_a_given_resolvent_admits_the_map_past_the_radius():
    bundle = build("thm317_generalized", PARAMS, None)
    given = SystemAnalysis(bundle.spec, resolvent=bundle.resolvent)
    assert given.rho == pytest.approx(2.0)
    assert given.stationary_map is bundle.resolvent
    np.testing.assert_array_equal(given.stationary_state(bundle.spec.w), -bundle.spec.w)
    # The record's adjoint family is the one built from X by hand, bit for bit.
    family = given.subspace.family.vectors
    np.testing.assert_array_equal(family, bundle.spec.g.vectors @ (-bundle.spec.W_basis).conj())
    with pytest.raises(ConditionFailure, match=r"rho\(A\) = 2 "):
        SystemAnalysis(bundle.spec).stationary_map


def test_quarter_scenario_geometric_convergence():
    bundle = build("thm319_quarter", PARAMS, None)
    report, failures = run_scenario(bundle)
    assert failures == []
    assert report["convergence_excess"] <= 1e-12
    assert report["measured"]["bounds"][0] == pytest.approx(16.0 / 9.0)
    assert report["measured"]["bounds"][1] == pytest.approx(16.0 / 9.0)
    assert report["recovery"]["diagnostics"]["rho"] == pytest.approx(0.25)


def test_run_scenario_reports_expectation_mismatch():
    bundle = build("thm38_onb", PARAMS, 2)
    bundle.expectations = dataclasses.replace(bundle.expectations, expected_rho=0.5)
    _, failures = run_scenario(bundle)
    assert any("spectral radius" in f for f in failures)

    bundle = build("thm38_onb", PARAMS, 2)
    bundle.expectations = dataclasses.replace(
        bundle.expectations, expected_bounds=(2.0, 2.0)
    )
    _, failures = run_scenario(bundle)
    assert any("bounds" in f for f in failures)

    # thm314 is judged on the data it simulates: a nudged initial state
    # leaves samples of 2.9e-7.
    bundle = build("thm314_counterexample", PARAMS, 3)
    bundle.spec = dataclasses.replace(bundle.spec, x0=bundle.spec.x0 + 1e-6)
    _, failures = run_scenario(bundle)
    assert failures == ["nullified sample of size 2.894e-07 exceeds 1e-8"]


def test_scenarios_work_for_other_lattice_parameters():
    params = SpectralParams(N=4, r=3)
    for scenario_id in SCENARIOS:
        bundle = build(scenario_id, params, None)
        report, failures = run_scenario(bundle)
        assert failures == [], f"{scenario_id} under N=4, r=3: {failures}"
        assert report["params"] == {"N": 4, "r": 3}


# The exact report keys of each scenario at its default K.
SHARED_KEYS = {"schema", "scenario", "params", "K", "expectations", "measured", "recovery"}
REPORT_KEYS = {
    "thm312_diagonal": SHARED_KEYS | {"finite_cases"},
    "thm38_onb": SHARED_KEYS | {"finite_cases", "limit_norm_ratio", "stationary_deviation"},
    "thm314_counterexample": SHARED_KEYS | {"measurements", "necessary_condition_only"},
    "thm317_generalized": SHARED_KEYS | {"finite_cases", "stationary_deviation"},
    "thm319_quarter": SHARED_KEYS
    | {"finite_cases", "stationary_deviation", "convergence_excess"},
}


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_report_keys_at_the_default_K(scenario_id):
    report, _ = run_scenario(build(scenario_id, PARAMS, None))
    assert set(report) == REPORT_KEYS[scenario_id]


def _doubled_map(bundle):
    """The scenario's resolvent X scaled by 2, so S doubles: limit recovery halves w."""
    X = bundle.resolvent
    return 2 * (SystemAnalysis(bundle.spec).resolvent if X is None else X)


def test_counterexample_fails_on_data_that_is_not_nullified():
    # From x0 = 0 the samples are the source's own; a loose BS_TOL lets the
    # limit route run on them.  Its failures follow the shared ones.
    bundle = build("thm314_counterexample", PARAMS, 3)
    bundle.expectations = dataclasses.replace(bundle.expectations, expected_rho=0.5)
    bundle.spec = dataclasses.replace(bundle.spec, x0=np.zeros(bundle.spec.dim, dtype=complex))
    _, failures = run_scenario(bundle, tol=DEFAULTS.with_overrides({"BS_TOL": 10.0}))
    assert failures == [
        "spectral radius 0.9 != expected 0.5",
        "nullified sample of size 1.862e+00 exceeds 1e-8",
        "limit recovery saw a nonzero source in nullified data",
    ]


def test_onb_norm_ratio_failure_precedes_the_limit_miss():
    # x0 = 2w doubles the first rows, so the limit has half the sup row norm.
    bundle = build("thm38_onb", PARAMS, None)
    bundle.spec = dataclasses.replace(bundle.spec, x0=2 * bundle.spec.w)
    _, failures = run_scenario(bundle)
    assert failures == ["limit operator norm ratio 0.5 != 1"]
    bundle.resolvent = _doubled_map(bundle)
    _, failures = run_scenario(bundle)
    assert failures == [
        "limit operator norm ratio 0.5 != 1",
        "limit recovery missed: abs_error = 0.5 > 1e-08",
    ]


def test_quarter_geometric_failure_follows_the_limit_miss():
    # The bound is 4^-n ||x0 - S(w)|| with x0 = 0; a second orbit started
    # 10 away from the ray through S(w) breaks it on its first rows.
    bundle = build("thm319_quarter", PARAMS, None)
    off_ray = np.zeros(bundle.spec.dim, dtype=complex)
    off_ray[position(LambdaIndex(1, 0), bundle.spec.K)] = 10.0
    bundle.spec = dataclasses.replace(bundle.spec, xm2=off_ray)
    report, failures = run_scenario(bundle)
    assert failures == ["state convergence violated the geometric bound by 8.620e+00"]
    assert report["convergence_excess"] > 8.6

    bundle = build("thm319_quarter", PARAMS, None)
    bundle.resolvent = _doubled_map(bundle)
    _, failures = run_scenario(bundle)
    assert failures == [
        "adjoint bounds (7.1111111, 7.1111111) != expected "
        "(1.7777777777777777, 1.7777777777777777)",
        "limit recovery missed: abs_error = 0.5590169943749475 > 1e-06",
        "state convergence violated the geometric bound by 1.491e+00",
    ]


def _build_toy_half(params, K):
    """A = I/2 from its stationary state 2w: every row of both orbits is 2w."""
    dim = 4 * K
    w = np.zeros(dim, dtype=complex)
    w[position(LambdaIndex(0, 1), K)] = 1.0
    eye = np.eye(dim, dtype=complex)
    spec = SystemSpec(
        params=params, dim=dim, A=eye / 2, g=VectorFamily(vectors=eye), W_basis=eye,
        w=w, x0=2 * w, xm2=2 * w, K=K,
    )
    return Built(spec)


def _stays_at_2w(system, limit):
    drift = float(np.max(np.abs(system.trajectory.values - 2 * system.spec.w)))
    return {"toy_drift": drift}, [f"toy drift {drift}"] if drift else []


TOY = Scenario(
    _build_toy_half,
    ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=True,
        expected_bounds=(4.0, 4.0),
        bounds_of="adjoint",
        expected_rho=0.5,
        notes=("toy",),
    ),
    default_K=3,
    limit_checks=(_stays_at_2w,),
)


def test_a_new_record_runs_with_no_code_edit(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(SCENARIOS, "toy_half", TOY)
    assert min_K("toy_half") == 2
    with pytest.raises(ValueError, match="toy_half needs K >= 2, got K = 1: finite recovery"):
        build("toy_half", PARAMS, 1)
    bundle = build("toy_half", PARAMS, None)
    assert bundle.spec.K == 3
    report, failures = run_scenario(bundle)
    assert failures == []
    assert set(report) == SHARED_KEYS | {"finite_cases", "stationary_deviation", "toy_drift"}
    assert report["expectations"]["notes"] == ("toy",)
    assert report["toy_drift"] == 0.0
    # the record's own check judges the run: a nudged x0 leaves 2w
    nudged = bundle.spec.x0.copy()
    nudged[position(LambdaIndex(0, 0), 3)] = 1e-12
    bundle.spec = dataclasses.replace(bundle.spec, x0=nudged)
    _, failures = run_scenario(bundle)
    assert failures == ["toy drift 1e-12"]
    # and the CLI runs it as it runs a packaged one
    assert main(["demo", "toy_half", "-o", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("scenario toy_half (K=3): all expectations met\n")
    doc = json.loads((tmp_path / "toy_half_report.json").read_text())
    assert doc["expectations_met"] is True and doc["toy_drift"] == 0.0
