import csv
import json

import numpy as np
import pytest

from nuds import cli
from nuds.cli import config_to_json, main, parse_config
from nuds.linalg import NumericalError, vector_to_pairs
from nuds.scenarios import SCENARIO_IDS, build
from nuds.lattice import SpectralParams


def _config_doc(dim=8, K=2, scale=0.5):
    # contracting scaled identity started at its stationary state, so both
    # finite and limit recovery succeed
    w = np.zeros(dim, dtype=complex)
    w[0] = 1.0
    w[1] = -0.5 + 0.25j
    stationary = w if scale == 1.0 else w / (1.0 - scale)
    return {
        "schema": 1,
        "params": {"N": 2, "r": 1},
        "dim": dim,
        "K": K,
        "A": {"generator": "scaled_identity", "scale": [scale, 0.0]},
        "g": "onb",
        "W": "full",
        "w": vector_to_pairs(w),
        "x0": vector_to_pairs(stationary),
        "xm2": vector_to_pairs(stationary),
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc()))
    return path


def test_simulate_writes_csv_outputs(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(config_path), "-o", str(out)]) == 0
    assert "window rows" in capsys.readouterr().out
    for name in ("trajectory.csv", "data_matrix.csv"):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "j", "re", "im"]
        assert len(rows) == 1 + 8 * 8  # 4K lattice points x dim entries


def test_simulate_accepts_config_flag(tmp_path, config_path):
    assert main(["simulate", "--config", str(config_path), "-o", str(tmp_path / "o")]) == 0


def test_recover_finite_report(tmp_path, config_path, capsys):
    out = tmp_path / "rec"
    assert main(["recover", str(config_path), "-o", str(out)]) == 0
    assert "abs_error" in capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema"] == 1
    assert doc["abs_error"] <= 1e-10
    assert doc["residual"] <= 1e-10
    assert doc["diagnostics"]["case"] == "i"


def test_recover_infinite_report(tmp_path, config_path):
    out = tmp_path / "rec"
    assert main(["recover", str(config_path), "-o", str(out), "--mode", "infinite"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["diagnostics"]["case"] == "limit"
    assert doc["diagnostics"]["tail_gap"] == 0.0
    assert doc["abs_error"] <= 1e-10


def test_recover_condition_failure_exits_3(tmp_path, config_path, capsys):
    # an impossible frame tolerance turns the ONB into a non-frame
    code = main([
        "recover", str(config_path), "-o", str(tmp_path / "rec"),
        "--tol-override", "FRAME_TOL=2.0",
    ])
    assert code == 3
    assert "not stably recoverable" in capsys.readouterr().err


def test_check_prints_condition_table(config_path, capsys):
    assert main(["check", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "sampling family bounds" in out
    assert "frame=yes" in out
    assert "subspace condition bounds (necessary only)" in out
    assert "spectral radius" in out and "0.5" in out
    assert "adjoint family bounds on W" in out
    assert "row-convergence tail gap" in out
    assert "convergent" in out


def test_check_marks_unavailable_conditions(tmp_path, capsys):
    # radius exactly 1: no resolvent, no stationary map — but check still runs
    doc = _config_doc(scale=1.0)
    doc["x0"] = doc["w"]
    doc["xm2"] = doc["w"]
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    subspace = next(l for l in lines if l.startswith("subspace condition"))
    adjoint = next(l for l in lines if l.startswith("adjoint family"))
    tailgap = next(l for l in lines if l.startswith("row-convergence"))
    assert "unavailable" in subspace
    assert "unavailable" in adjoint
    assert "not convergent" in tailgap


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_demo_scenarios_meet_expectations(tmp_path, scenario_id):
    out = tmp_path / scenario_id
    assert main(["demo", scenario_id, "-o", str(out)]) == 0
    doc = json.loads((out / f"{scenario_id}_report.json").read_text())
    assert doc["expectations_met"] is True
    assert doc["failures"] == []
    assert doc["scenario"] == scenario_id


def test_demo_emitted_config_round_trips(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "thm38_onb", "-K", "2", "-o", str(out), "--emit-config"]) == 0
    cfg_path = out / "thm38_onb_config.json"
    doc = json.loads(cfg_path.read_text())
    cfg = parse_config(doc)
    bundle = build("thm38_onb", SpectralParams(N=2, r=1), 2)
    np.testing.assert_array_equal(cfg.A, bundle.spec.A)
    np.testing.assert_array_equal(cfg.w, bundle.spec.w)
    np.testing.assert_array_equal(cfg.g.vectors, bundle.spec.g.vectors)

    # the emitted config must drive every other subcommand unchanged
    assert main(["simulate", str(cfg_path), "-o", str(out / "sim")]) == 0
    assert main(["recover", str(cfg_path), "-o", str(out / "rec"), "--mode", "infinite"]) == 0
    assert main(["check", str(cfg_path)]) == 0


def test_demo_nondefault_lattice_parameters(tmp_path):
    assert main([
        "demo", "thm312_diagonal", "-K", "2", "--r", "3", "--N", "4",
        "-o", str(tmp_path),
    ]) == 0
    doc = json.loads((tmp_path / "thm312_diagonal_report.json").read_text())
    assert doc["params"] == {"N": 4, "r": 3}


def test_demo_expectation_mismatch_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_scenario", lambda bundle, tail: ({"schema": 1}, ["forced mismatch"])
    )
    code = main(["demo", "thm38_onb", "-o", str(tmp_path)])
    assert code == 4
    assert "forced mismatch" in capsys.readouterr().err
    doc = json.loads((tmp_path / "thm38_onb_report.json").read_text())
    assert doc["expectations_met"] is False
    assert doc["failures"] == ["forced mismatch"]


def test_demo_unknown_scenario_exits_2(tmp_path, capsys):
    assert main(["demo", "thm999_missing", "-o", str(tmp_path)]) == 2
    assert "unknown scenario id" in capsys.readouterr().err


def test_demo_invalid_lattice_parameters_exit_2(tmp_path):
    assert main(["demo", "thm38_onb", "--r", "2", "-o", str(tmp_path)]) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2


def test_wrong_schema_exits_2(tmp_path):
    doc = _config_doc()
    doc["schema"] = 2
    path = tmp_path / "schema2.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2


def test_unknown_tolerance_override_exits_2(config_path):
    assert main(["check", str(config_path), "--tol-override", "NOPE=1.0"]) == 2
    assert main(["check", str(config_path), "--tol-override", "FRAME_TOL"]) == 2
    assert main(["check", str(config_path), "--tol-override", "FRAME_TOL=beta"]) == 2


def test_numerical_failures_map_to_exit_1(monkeypatch, config_path, capsys):
    def boom(args):
        raise NumericalError("synthetic failure")

    # _build_parser looks cmd_check up in module globals when main() runs,
    # so patching the module attribute reroutes the subcommand
    monkeypatch.setattr(cli, "cmd_check", boom)
    assert main(["check", str(config_path)]) == 1
    assert "numerical failure" in capsys.readouterr().err


def test_config_parsing_generators_and_errors():
    doc = _config_doc()
    cfg = parse_config(doc)
    np.testing.assert_array_equal(cfg.A, 0.5 * np.eye(8))
    assert cfg.g.count == 8 and cfg.g.labels is not None

    diag_doc = _config_doc()
    diag_doc["A"] = {"generator": "diag", "entries": [[0.1 * (i + 1), 0.0] for i in range(8)]}
    cfg = parse_config(diag_doc)
    np.testing.assert_allclose(np.diag(cfg.A).real, 0.1 * np.arange(1, 9))

    bad = _config_doc()
    bad["A"] = {"generator": "toeplitz"}
    with pytest.raises(ValueError, match="generator"):
        parse_config(bad)

    missing = _config_doc()
    del missing["w"]
    with pytest.raises(ValueError, match="missing required key"):
        parse_config(missing)

    bad_g = _config_doc()
    bad_g["g"] = "orthonormal"
    with pytest.raises(ValueError, match="'onb' or a list"):
        parse_config(bad_g)


@pytest.mark.parametrize(
    "keys, value",
    [
        (("w", 0), [None, 0.0]),  # null inside a [re, im] pair
        (("dim",), None),
        (("K",), [1]),
        (("params",), 5),
        (("x0", 0), [[0, 0], 0]),  # a pair where a number belongs
        (("dim",), 8.5),
        (("K",), 2.5),
        (("params", "N"), 2.5),
        (("params", "r"), 1.5),
        (("dim",), float("inf")),
        (("tolerances",), {"FRAME_TOL": None}),
        (("tolerances",), 5),
    ],
    ids=[
        "null-in-pair", "dim-null", "K-list", "params-number", "number-for-pair",
        "dim-fraction", "K-fraction", "N-fraction", "r-fraction", "dim-infinity",
        "tolerance-null", "tolerances-number",
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, keys, value):
    doc = _config_doc()
    *outer, last = keys
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["recover", str(path), "-o", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_canonical_round_trip():
    bundle = build("thm319_quarter", SpectralParams(N=2, r=1), 3)
    doc = config_to_json(bundle.spec)
    assert doc["schema"] == 1
    assert set(doc["tolerances"]) == {
        "EIG_TOL", "SOLVE_TOL", "HERM_TOL", "FRAME_TOL",
        "BS_TOL", "RHO_MARGIN", "PIVOT_TOL",
    }
    cfg = parse_config(doc)
    np.testing.assert_array_equal(cfg.A, bundle.spec.A)
    np.testing.assert_array_equal(cfg.W_basis, bundle.spec.W_basis)
    np.testing.assert_array_equal(cfg.xm2, bundle.spec.xm2)
    spec = cfg.to_system_spec()
    assert spec.K == bundle.spec.K
