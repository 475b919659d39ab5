"""How many LAPACK factorizations each command makes.

The counts are those of ``nuds.linalg``'s calls to ``eigh``, ``eigvals``
and ``lu_factor`` (see the ``lapack_calls`` fixture).  Every command reads
its kernels from one ``nuds.recovery.SystemAnalysis`` record, which
computes each on first read and keeps it.  Each frame operator is
eigendecomposed once, and that one decomposition gives both its bounds
and its canonical dual.  ``demo`` runs each recovery once and reads every
measured number from the recovery that computed it.  The record's
resolvent makes one LU factorization, of I - A, or none where a scenario
gives it (thm317's X = -B): X = (I - A)^-1 B is the stationary map, and
its adjoint family S* g_j = X* g_j is also the subspace family, so
neither ``demo`` nor ``check`` factors I - A*.  ``check`` reads the spectral radius once
and the subspace family's analysis once, whether or not the radius admits
a stationary map; from ``nuds.cli.FORK_MIN_RADIUS_DIM`` on, the radius is
computed in the child that decodes A, outside the counts.  The record's
edge-row limit is counted beside them: each command that reads it, the
limit recovery included, makes one ``bs_membership`` call.
"""

import pytest

from nuds import cli, recovery, scenarios
from nuds.cli import main
from nuds.scenarios import SCENARIOS

# (eigh, eigvals, lu_factor) per demo at the default K, build included.
DEMO_CALLS = {
    "thm312_diagonal": (1, 1, 0),
    "thm38_onb": (2, 1, 1),
    "thm314_counterexample": (2, 1, 1),
    "thm317_generalized": (2, 1, 0),
    "thm319_quarter": (2, 1, 1),
}

# recover: one analysis of the recovering family (the sampling family, or
# the adjoint family in infinite mode) and one spectral radius; the
# stationary map adds one LU solve in infinite mode.
RECOVER_CALLS = {"finite": (1, 1, 0), "infinite": (1, 1, 1)}


def _triple(counts):
    return counts["eigh"], counts["eigvals"], counts["lu_factor"]


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_demo_factorizes_each_quantity_once(tmp_path, lapack_calls, scenario_id):
    assert main(["demo", scenario_id, "-o", str(tmp_path)]) == 0
    assert _triple(lapack_calls) == DEMO_CALLS[scenario_id]


def test_counterexample_demo_solves_the_nullifier_once(tmp_path, monkeypatch):
    calls = []
    nullifier = scenarios.counterexample_nullifier

    def counted(*args, **kwargs):
        calls.append(args)
        return nullifier(*args, **kwargs)

    monkeypatch.setattr(scenarios, "counterexample_nullifier", counted)
    assert main(["demo", "thm314_counterexample", "-o", str(tmp_path)]) == 0
    assert len(calls) == 1


# recovery.bs_membership calls per demo at the default K: the limit
# recovery and thm38's norm ratio read the record's one edge-row limit.
LIMIT_CALLS = {
    "thm312_diagonal": 0,
    "thm38_onb": 1,
    "thm314_counterexample": 1,
    "thm317_generalized": 1,
    "thm319_quarter": 1,
}


@pytest.fixture
def limit_calls(monkeypatch):
    calls = []
    membership = recovery.bs_membership

    def counted(*args, **kwargs):
        calls.append(args)
        return membership(*args, **kwargs)

    monkeypatch.setattr(recovery, "bs_membership", counted)
    return calls


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_demo_computes_the_edge_row_limit_at_most_once(tmp_path, limit_calls, scenario_id):
    assert main(["demo", scenario_id, "-o", str(tmp_path)]) == 0
    assert len(limit_calls) == LIMIT_CALLS[scenario_id]


def _quarter_config(tmp_path):
    argv = ["demo", "thm319_quarter", "-K", "7", "-o", str(tmp_path), "--emit-config"]
    assert main(argv) == 0
    return str(tmp_path / "thm319_quarter_config.json")


@pytest.mark.parametrize("mode", sorted(RECOVER_CALLS))
def test_recover_factorizations_match_the_benchmark_pin(tmp_path, lapack_calls, mode):
    config = _quarter_config(tmp_path)
    lapack_calls.clear()
    assert main(["recover", config, "--mode", mode, "-o", str(tmp_path)]) == 0
    assert _triple(lapack_calls) == RECOVER_CALLS[mode]


@pytest.mark.parametrize("argv", [["recover", "--mode", "infinite", "-o", "."], ["check"]])
def test_limit_readers_compute_the_edge_row_limit_once(tmp_path, monkeypatch, limit_calls, argv):
    config = _quarter_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    limit_calls.clear()
    assert main([*argv, config]) == 0
    assert len(limit_calls) == 1


def test_check_builds_the_subspace_family_once(tmp_path, lapack_calls):
    # The sampling and subspace families are analysed once each, beside
    # one spectral radius and one LU solve.
    config = _quarter_config(tmp_path)
    lapack_calls.clear()
    assert main(["check", config]) == 0
    assert _triple(lapack_calls) == (2, 1, 1)


def test_forked_check_leaves_the_radius_to_the_decode_child(
    tmp_path, monkeypatch, lapack_calls, forks
):
    # From FORK_MIN_RADIUS_DIM on, the child that decodes A computes the
    # spectral radius, so this process makes no eigvals.
    config = _quarter_config(tmp_path)
    monkeypatch.setattr(cli, "FORK_MIN_RADIUS_DIM", 1)
    lapack_calls.clear()
    assert main(["check", config]) == 0
    assert [code for _, code in forks] == [0]
    assert _triple(lapack_calls) == (2, 0, 1)


def test_check_on_a_refused_map_computes_the_radius_once(tmp_path, lapack_calls):
    # thm317's radius 2 refuses the map; its I - A is singular, so the
    # subspace family is never analysed: the sampling family's eigh, one
    # eigvals and the refused LU.
    argv = ["demo", "thm317_generalized", "-o", str(tmp_path), "--emit-config"]
    assert main(argv) == 0
    lapack_calls.clear()
    assert main(["check", str(tmp_path / "thm317_generalized_config.json")]) == 0
    assert _triple(lapack_calls) == (1, 1, 1)


def test_simulate_factorizes_nothing(tmp_path, lapack_calls):
    # Reading a config builds a SystemSpec, which computes no frame bound.
    config = _quarter_config(tmp_path)
    lapack_calls.clear()
    assert main(["simulate", config, "-o", str(tmp_path)]) == 0
    assert _triple(lapack_calls) == (0, 0, 0)
