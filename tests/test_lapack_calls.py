"""How many LAPACK factorizations each command makes.

The counts are those of ``nuds.linalg``'s calls to ``eigh``, ``eigvals``
and ``lu_factor`` (see the ``lapack_calls`` fixture).  ``demo`` runs each
recovery once and reads every measured number from the recovery that
computed it.  ``recover`` makes exactly the calls that the benchmark's
self-check (``bench/selfcheck.py``) pins, so a change to them shows here
first.
"""

import pytest

from nuds import scenarios
from nuds.cli import main
from nuds.scenarios import SCENARIO_IDS

# (eigh, eigvals, lu_factor) per demo at the default K, build included.
DEMO_CALLS = {
    "thm312_diagonal": (3, 2, 1),
    "thm38_onb": (5, 3, 4),
    "thm314_counterexample": (5, 2, 6),
    "thm317_generalized": (5, 2, 2),
    "thm319_quarter": (5, 3, 4),
}

# recover: the eager frame bounds of the config's family, the recovery's
# own bounds and the dual's; one spectral radius; one LU for the dual, and
# two more for the stationary map in infinite mode.
RECOVER_CALLS = {"finite": (3, 1, 1), "infinite": (3, 1, 3)}


def _triple(counts):
    return counts["eigh"], counts["eigvals"], counts["lu_factor"]


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
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


@pytest.mark.parametrize("mode", sorted(RECOVER_CALLS))
def test_recover_factorizations_match_the_benchmark_pin(tmp_path, lapack_calls, mode):
    argv = ["demo", "thm319_quarter", "-K", "7", "-o", str(tmp_path), "--emit-config"]
    assert main(argv) == 0
    lapack_calls.clear()
    config = tmp_path / "thm319_quarter_config.json"
    assert main(["recover", str(config), "--mode", mode, "-o", str(tmp_path)]) == 0
    assert _triple(lapack_calls) == RECOVER_CALLS[mode]
