import dataclasses
import json

import numpy as np
import pytest

from nuds.lattice import LambdaIndex, SpectralParams, position
from nuds.linalg import spectral_radius, vector_to_pairs
from nuds.scenarios import (
    SCENARIOS,
    build,
    counterexample_source,
    min_K,
    run_scenario,
)

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
