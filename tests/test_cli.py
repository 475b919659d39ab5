import csv
import dataclasses
import gc
import json

import numpy as np
import pytest

from nuds import cli, linalg, scenarios
from nuds.cli import config_to_json, main, parse_config
from nuds.dynamics import SystemSpec
from nuds.frames import VectorFamily
from nuds.linalg import NumericalError, complex_to_pair, pair_to_complex, vector_to_pairs
from nuds.scenarios import SCENARIOS, build, min_K
from nuds.lattice import LambdaIndex, SpectralParams
from nuds.recovery import finite_recovery_report
from nuds.tolerances import Tolerances


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


def _random_config_path(tmp_path, dim=16):
    # A random non-diagonal system with rho(A) = 0.5: its eigensolver and
    # solve residuals are nonzero, its LU pivots are spread, and its
    # K = 4 window is too short for the rows to converge.
    rng = np.random.default_rng(16)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = cplx(dim, dim)
    A *= 0.5 / np.abs(np.linalg.eigvals(A)).max()
    spec = SystemSpec(
        params=SpectralParams(N=2, r=1), K=dim // 4, A=A,
        g=VectorFamily(vectors=cplx(2 * dim, dim)), W_basis=np.eye(dim),
        w=cplx(dim), x0=cplx(dim), xm2=cplx(dim),
    )
    path = tmp_path / "random.json"
    path.write_text(json.dumps(config_to_json(spec), default=vector_to_pairs))
    return path


def _quarter_config_path(tmp_path):
    # thm319_quarter at K = 7, the smallest window whose edge rows clear
    # the default BS_TOL (tail gap 6.7e-8).
    bundle = build("thm319_quarter", SpectralParams(N=2, r=1), 7)
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(config_to_json(bundle.system.spec), default=vector_to_pairs))
    return path


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
    # Every frame test reads that tolerance: FRAME_TOL = 2 sits between the
    # ONB's alpha = 1 and the adjoint family's alpha = 4, so check's sampling
    # row refuses its frame while the adjoint row and limit recovery keep theirs.
    override = ["--tol-override", "FRAME_TOL=2.0"]
    assert main(["check", str(config_path), *override]) == 0
    rows = dict(line.split("  ", 1) for line in capsys.readouterr().out.splitlines())
    assert rows["sampling family bounds"].strip() == "alpha=1 beta=1 frame=no"
    assert rows["adjoint family bounds on W"].strip() == "alpha=4 beta=4 frame=yes"
    out = str(tmp_path / "inf")
    assert main(["recover", str(config_path), "--mode", "infinite", "-o", out, *override]) == 0


def test_recover_exits_3_when_the_limit_residual_is_above_tolerance(tmp_path, capsys):
    # A = diag(0, 0.999, 0, ...) from x0 = xm2 = e1: at K = 3500 the tail
    # gap clears BS_TOL, but the limit row is still ~1e-3 from stationary.
    e = np.eye(8, dtype=complex)
    doc = _config_doc(K=3500)
    doc["A"] = {"generator": "diag", "entries": vector_to_pairs(0.999 * e[1])}
    doc["W"] = vector_to_pairs(e[:1])
    doc["w"] = vector_to_pairs(e[0])
    doc["x0"] = doc["xm2"] = vector_to_pairs(e[1])
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rec"
    assert main(["recover", str(path), "--mode", "infinite", "-o", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == f"wrote {out / 'report.json'}: residual 9.101e-04, abs_error 0.000e+00\n"
    assert err == "recovery residual above tolerance\n"


@pytest.mark.parametrize(
    "mode, family",
    [("finite", "sampling family is not a frame"),
     ("infinite", "the adjoint family is not a frame for W")],
)
def test_recover_names_the_family_that_is_not_a_frame(tmp_path, capsys, mode, family):
    # e1 twice and no e8: the frame operator diag(2, 1, ..., 1, 0) has an
    # exact zero eigenvalue, and so does the adjoint family's.
    doc = _config_doc()
    doc["g"] = vector_to_pairs(np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 6, 0]])
    path = tmp_path / "not_a_frame.json"
    path.write_text(json.dumps(doc))
    assert main(["recover", str(path), "--mode", mode, "-o", str(tmp_path)]) == 3
    expected = f"condition failure: not stably recoverable: {family} (alpha = 0.000e+00)\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "report.json").exists()


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


_REFUSED_MAP = (
    "subspace condition bounds (necessary only)  unavailable: 1 is in the spectrum "
    "of A (I - A is singular at pivot 8)\n"
    "spectral radius                             {rho}\n"
    "adjoint family bounds on W                  unavailable: stationary map requires "
    "spectral radius below 1: rho(A) = {rho} (margin 1.0e-06)\n"
)
_ONB_ROW = "sampling family bounds                      alpha=1 beta=1 frame=yes\n"

# check's whole output on each emitted default-K config at (r, N) = (1, 2).
CHECK_STDOUT = {
    "thm312_diagonal": _ONB_ROW + _REFUSED_MAP.format(rho=1)
    + "row-convergence tail gap                    4.819e-01 (not convergent)\n",
    "thm38_onb": _ONB_ROW
    + "subspace condition bounds (necessary only)  alpha=1 beta=1\n"
    "spectral radius                             0\n"
    "adjoint family bounds on W                  alpha=1 beta=1 frame=yes\n"
    "row-convergence tail gap                    0.000e+00 (convergent)\n",
    "thm314_counterexample": (
        "sampling family bounds                      alpha=0 beta=0.833836 frame=no\n"
        "subspace condition bounds (necessary only)  alpha=1.8902821 beta=1.8902821\n"
        "spectral radius                             0.9\n"
        "adjoint family bounds on W                  alpha=1.8902821 beta=1.8902821 "
        "frame=yes\n"
        "row-convergence tail gap                    2.220e-16 (convergent)\n"
    ),
    "thm317_generalized": _ONB_ROW + _REFUSED_MAP.format(rho=2)
    + "row-convergence tail gap                    0.000e+00 (convergent)\n",
    "thm319_quarter": _ONB_ROW
    + "subspace condition bounds (necessary only)  alpha=1.7777778 beta=1.7777778\n"
    "spectral radius                             0.25\n"
    "adjoint family bounds on W                  alpha=1.7777778 beta=1.7777778 frame=yes\n"
    "row-convergence tail gap                    0.000e+00 (convergent)\n",
}


@pytest.mark.parametrize("scenario_id", sorted(CHECK_STDOUT))
def test_check_prints_the_same_table_on_each_emitted_config(tmp_path, capsys, scenario_id):
    assert main(["demo", scenario_id, "-o", str(tmp_path), "--emit-config"]) == 0
    capsys.readouterr()
    assert main(["check", str(tmp_path / f"{scenario_id}_config.json")]) == 0
    assert capsys.readouterr().out == CHECK_STDOUT[scenario_id]


def test_check_marks_both_rows_unavailable_when_the_lu_refuses_i_minus_a(tmp_path, capsys):
    # rho(A) = 0.95 clears RHO_MARGIN, but the smallest pivot of
    # I - A = diag(1 - 0.95 i/7) is 0.05 < PIVOT_TOL = 0.1: the map is
    # refused like the subspace family, not a numerical failure, and the
    # row names the refused pivot rather than the spectrum.
    doc = _config_doc()
    doc["A"] = {"generator": "diag", "entries": [[0.95 * i / 7, 0.0] for i in range(8)]}
    path = tmp_path / "pivot.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--tol-override", "PIVOT_TOL=0.1"]) == 0
    out, err = capsys.readouterr()
    unavailable = "unavailable: the LU of I - A fell below PIVOT_TOL = 1.0e-01 at pivot 7"
    rows = dict(line.split("  ", 1) for line in out.splitlines())
    assert rows["subspace condition bounds (necessary only)"].strip() == unavailable
    assert rows["adjoint family bounds on W"].strip() == unavailable
    assert rows["spectral radius"].strip() == "0.95"
    assert err == ""


@pytest.mark.parametrize("case", ["thm319_quarter", "thm317_generalized", "refused-lu"])
def test_forked_check_prints_the_serial_table(tmp_path, capsys, monkeypatch, forks, case):
    # With the floor lowered to 1, the decode child computes rho(A); the
    # refused-LU config above is written with a dense A, so it forks too.
    flags = []
    if case == "refused-lu":
        doc = _config_doc()
        doc["A"] = vector_to_pairs(np.diag([0.95 * i / 7 for i in range(8)]).astype(complex))
        path = tmp_path / "pivot.json"
        path.write_text(json.dumps(doc))
        flags = ["--tol-override", "PIVOT_TOL=0.1"]
    else:
        K = ["-K", "7"] if case == "thm319_quarter" else []
        assert main(["demo", case, *K, "-o", str(tmp_path), "--emit-config"]) == 0
        capsys.readouterr()
        path = tmp_path / f"{case}_config.json"
    serial = main(["check", str(path), *flags]), capsys.readouterr()
    assert forks == []
    monkeypatch.setattr(cli, "FORK_MIN_RADIUS_DIM", 1)
    forked = main(["check", str(path), *flags]), capsys.readouterr()
    assert [code for _, code in forks] == [0]
    assert forked == serial and serial[0] == 0
    if case == "refused-lu":
        assert "unavailable: the LU of I - A fell below PIVOT_TOL" in serial[1].out


@pytest.mark.parametrize("scale", [0.5, 1.0])
def test_check_exits_1_on_an_accuracy_failure_the_radius_admits(
    tmp_path, capsys, monkeypatch, scale
):
    # Only a refused pivot reads as unavailable while rho(A) < 1; with the
    # map refused by its radius, any failure of the family's solve does.
    def missed(*args, **kwargs):
        raise NumericalError("solve residual 1e-3 exceeds its bound")

    monkeypatch.setattr(linalg, "solve", missed)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc(scale=scale)))
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    if scale < 1.0:
        assert (code, out) == (1, "")
        assert err == "numerical failure: solve residual 1e-3 exceeds its bound\n"
    else:
        assert code == 0 and err == ""
        rows = dict(line.split("  ", 1) for line in out.splitlines())
        assert rows["subspace condition bounds (necessary only)"].strip() == (
            "unavailable: solve residual 1e-3 exceeds its bound"
        )
        assert rows["adjoint family bounds on W"].strip().startswith(
            "unavailable: stationary map requires spectral radius below 1"
        )


def _overflow_config_path(tmp_path):
    # A = 10 I over K = 200 from zero states: the rows overflow to inf and
    # NaN from step 310 on, while the rows at 0 and its successor, the only
    # ones finite recovery reads, are exact.
    doc = _config_doc(K=200)
    doc["A"] = {"generator": "scaled_identity", "scale": [10, 0]}
    doc["x0"] = doc["xm2"] = vector_to_pairs(np.zeros(8, dtype=complex))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


def test_recover_gates_an_exact_recovery_on_the_rows_it_reads(tmp_path, capsys):
    # The overflow is silent: no numpy RuntimeWarning (an error under this
    # suite's warning filter) and nothing on stderr.
    code = main(["recover", str(_overflow_config_path(tmp_path)), "-o", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.endswith("residual 0.000e+00, abs_error 0.000e+00\n")


def test_check_names_the_first_non_finite_step_for_an_undetermined_tail_gap(tmp_path, capsys):
    # The tail gap of overflowed rows is NaN, which measures nothing.
    assert main(["check", str(_overflow_config_path(tmp_path))]) == 0
    out, err = capsys.readouterr()
    rows = dict(line.split("  ", 1) for line in out.splitlines())
    assert rows["row-convergence tail gap"].strip() == (
        "undetermined: the samples are first non-finite at step 310"
    )
    assert err == ""


@pytest.mark.parametrize("scenario_id", SCENARIOS)
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
    spec, _ = parse_config(doc)
    bundle = build("thm38_onb", SpectralParams(N=2, r=1), 2)
    np.testing.assert_array_equal(spec.A, bundle.system.spec.A)
    np.testing.assert_array_equal(spec.w, bundle.system.spec.w)
    np.testing.assert_array_equal(spec.g.vectors, bundle.system.spec.g.vectors)

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
        cli, "run_scenario",
        lambda bundle: ({"schema": 1}, ["forced mismatch"]),
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


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    # json.load gives up on a w nested 200000 lists deep with RecursionError.
    doc = _config_doc()
    doc["w"] = "nested"
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"nested"', "[" * 200000 + "]" * 200000))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {path} is not valid JSON: ")
    assert "recursion" in err and err.count("\n") == 1


@pytest.fixture
def capped_address_space():
    """Cap this process's address space at 1 TiB for the test.

    numpy's refusal of a multi-TiB array must not depend on how the
    system overcommits memory: with the cap, the allocation fails at
    once instead of reserving memory that a later write could touch.
    """
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 40 if hard == resource.RLIM_INFINITY else min(hard, 1 << 40)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "argv, shape",
    [
        (["check", "{config}"], "(4000000000000, 8)"),  # the (4K, d) window
        (["demo", "thm312_diagonal", "-K", "1000000000000", "-o", "{out}"], "(4000000000000,)"),
    ],
    ids=["check-K-1e12", "demo-K-1e12"],
)
def test_refused_allocation_is_a_one_line_config_error(
    tmp_path, capsys, capped_address_space, argv, shape
):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(_config_doc(), K=10**12)))
    argv = [arg.format(config=path, out=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert shape in captured.err


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
    spec, _ = parse_config(doc)
    np.testing.assert_array_equal(spec.A, 0.5 * np.eye(8))
    np.testing.assert_array_equal(spec.g.vectors, np.eye(8))

    diag_doc = _config_doc()
    diag_doc["A"] = {"generator": "diag", "entries": [[0.1 * (i + 1), 0.0] for i in range(8)]}
    spec, _ = parse_config(diag_doc)
    np.testing.assert_allclose(np.diag(spec.A).real, 0.1 * np.arange(1, 9))

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


@pytest.mark.parametrize(
    "dim, message",
    [
        (10**6, "w has length 8, expected 1000000"),
        (-3, "dim must be a positive integer, got -3"),
        (0, "dim must be a positive integer, got 0"),
    ],
    ids=["million", "negative", "zero"],
)
def test_dim_is_checked_before_the_shorthands_expand(tmp_path, capsys, dim, message):
    # A scaled_identity A, "onb" g and "full" W would each be a dim x dim
    # array: 14.6 TiB at dim = 10**6, which numpy refuses at once.
    doc = _config_doc()
    doc["dim"] = dim
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["recover", str(path), "-o", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def _short(rows):
    return [row[:-1] for row in rows]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: dict(doc, A=5), "A: expected a dense matrix or a generator object"),
        (lambda doc: dict(doc, A=_short(doc["A"])), "A: matrix has shape (8, 7), expected (8, 8)"),
        (lambda doc: dict(doc, A=doc["A"][:-1]), "A: matrix has shape (7, 8), expected (8, 8)"),
        (lambda doc: dict(doc, W="x"), "W: expected 'full' or a list of basis columns"),
        (lambda doc: [doc], "config must be a JSON object"),
        (None, "no config given; pass a path or --config"),
        (lambda doc: dict(doc, g=_short(doc["g"])), "sampling vectors have dim 7, expected 8"),
        (
            lambda doc: dict(doc, W=_short(doc["W"])),
            "W_basis must be dim x p with p >= 1, got shape (7, 8)",
        ),
        (lambda doc: dict(doc, x0=doc["x0"][:-1]), "x0 has length 7, expected 8"),
    ],
    ids=[
        "A-number", "A-short-rows", "A-missing-row", "W-string", "top-level-array",
        "no-config", "g-short-rows", "W-short-rows", "x0-short",
    ],
)
def test_config_errors_name_their_field(tmp_path, capsys, edit, message):
    argv = ["recover", "-o", str(tmp_path / "out")]
    if edit is not None:
        doc = _dense_config_doc()
        doc["W"] = [vector_to_pairs(col) for col in np.eye(8)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(edit(doc)))
        argv.append(str(path))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "recover", "check"])
def test_a_config_path_and_config_flag_together_are_refused(
    tmp_path, config_path, capsys, command
):
    # Neither path wins silently, not even when the positional one is missing.
    missing = tmp_path / "missing.json"
    assert main([command, str(missing), "--config", str(config_path)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: pass one of {missing} and --config {config_path}, not both\n"
    )


@pytest.mark.parametrize("value", ["abc", 10**400], ids=["string", "beyond-float"])
def test_non_numeric_config_tolerance_names_its_key(tmp_path, capsys, value):
    doc = _config_doc()
    doc["tolerances"] = {"BS_TOL": value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    expected = f"config error: tolerance BS_TOL must be a number, got {value!r}\n"
    assert capsys.readouterr().err == expected


def test_infinite_tolerance_is_a_config_error(tmp_path, capsys):
    # An infinite threshold would turn off the check it names.
    doc = _config_doc()
    doc["tolerances"] = {"BS_TOL": "INF"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"INF"', "1e999"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "config error: tolerance BS_TOL must be finite, got inf\n"
    argv = ["demo", "thm312_diagonal", "-o", str(tmp_path), "--tol-override", "EIG_TOL=inf"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: tolerance EIG_TOL must be finite, got inf\n"
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize(
    "argv",
    [["recover"], ["recover", "--mode", "infinite"], ["check"]],
    ids=["finite", "infinite", "check"],
)
def test_overflowing_frame_operator_is_a_numerical_failure(tmp_path, capsys, argv):
    # g = 1e200 I is finite JSON, but its frame operator overflows to inf.
    doc = _config_doc()
    doc["g"] = [vector_to_pairs(1e200 * row) for row in np.eye(8)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    flags = ["-o", str(tmp_path)] if argv[0] == "recover" else []
    assert main([argv[0], str(path), *argv[1:], *flags]) == 1
    assert capsys.readouterr().err == (
        "numerical failure: matrix to eigendecompose has non-finite entries: "
        "it overflowed or holds NaN\n"
    )


FRAME_OVERFLOW = "matrix to eigendecompose has non-finite entries: it overflowed or holds NaN"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recover"], FRAME_OVERFLOW),
        (
            ["recover", "--mode", "infinite"],
            "the family {X* g_j} = {P_W (I - A*)^-1 g_j} overflowed to non-finite entries",
        ),
        (["check"], FRAME_OVERFLOW),
    ],
    ids=["finite", "infinite", "check"],
)
def test_overflowing_adjoint_family_is_a_numerical_failure(tmp_path, capsys, argv, message):
    # g = 1e308 I is finite JSON, but X* g_j = 2e308 e_j overflows for
    # A = I / 2 and W = C^8, and so does g's own frame operator.
    doc = _config_doc(K=40)
    doc["g"] = [vector_to_pairs(1e308 * row) for row in np.eye(8)]
    doc["x0"] = doc["xm2"] = vector_to_pairs(np.zeros(8, dtype=complex))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    flags = ["-o", str(tmp_path)] if argv[0] == "recover" else []
    assert main([argv[0], str(path), *argv[1:], *flags]) == 1
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("schema", True, "config schema version must be 1, got True"),
        ("tolerances", {"FRAME_TOL": True}, "tolerance FRAME_TOL must be a number, got True"),
    ],
    ids=["schema", "tolerance"],
)
def test_json_true_is_not_a_number(tmp_path, capsys, key, value, message):
    doc = _config_doc()
    doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_canonical_round_trip():
    bundle = build("thm319_quarter", SpectralParams(N=2, r=1), 7)
    doc = json.loads(json.dumps(config_to_json(bundle.system.spec), default=vector_to_pairs))
    assert doc["schema"] == 1
    assert set(doc["tolerances"]) == {
        "EIG_TOL", "SOLVE_TOL", "HERM_TOL", "FRAME_TOL",
        "BS_TOL", "RHO_MARGIN", "PIVOT_TOL",
    }
    spec, _ = parse_config(doc)
    np.testing.assert_array_equal(spec.A, bundle.system.spec.A)
    np.testing.assert_array_equal(spec.W_basis, bundle.system.spec.W_basis)
    np.testing.assert_array_equal(spec.xm2, bundle.system.spec.xm2)
    assert spec.K == bundle.system.spec.K


@pytest.mark.parametrize(
    "argv, override, default_code, code, message",
    [
        (["recover", "CONFIG"], "EIG_TOL=1e-300", 0, 1, "eigendecomposition residual"),
        (["recover", "CONFIG", "--mode", "infinite"], "PIVOT_TOL=0.999", 3, 1, "singular"),
        (
            ["recover", "CONFIG", "--mode", "infinite"],
            "SOLVE_TOL=1e-300", 3, 1, "solve residual",
        ),
        (["demo", "thm38_onb"], "FRAME_TOL=2.0", 0, 3, "not stably recoverable"),
        (["recover", "QUARTER", "--mode", "infinite"], "BS_TOL=1e-8", 0, 3, "not convergent"),
        (["demo", "thm319_quarter"], "RHO_MARGIN=0.8", 0, 3, "spectral radius below 1"),
    ],
    ids=["EIG_TOL", "PIVOT_TOL", "SOLVE_TOL", "FRAME_TOL", "BS_TOL", "RHO_MARGIN"],
)
def test_tolerance_override_changes_outcome(
    tmp_path, capsys, argv, override, default_code, code, message
):
    # Each override reaches the call site that applies it and turns the
    # outcome (HERM_TOL is checked at hermitian_eigs in test_linalg).
    configs = {"CONFIG": _random_config_path, "QUARTER": _quarter_config_path}
    argv = [str(configs[a](tmp_path)) if a in configs else a for a in argv]
    argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == default_code
    capsys.readouterr()
    assert main(argv + ["--tol-override", override]) == code
    assert message in capsys.readouterr().err


def test_demo_rejects_unknown_tolerance_override(tmp_path, capsys):
    argv = ["demo", "thm312_diagonal", "-o", str(tmp_path), "--tol-override", "NOPE=1"]
    assert main(argv) == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_demo_emits_the_tolerances_in_effect(tmp_path):
    argv = ["demo", "thm38_onb", "-o", str(tmp_path), "--emit-config"]
    assert main(argv + ["--tol-override", "BS_TOL=1e-5"]) == 0
    doc = json.loads((tmp_path / "thm38_onb_config.json").read_text())
    assert Tolerances(**doc["tolerances"]) == Tolerances(BS_TOL=1e-5)


def test_check_passes_tolerances_to_subspace_condition(tmp_path, capsys):
    # I - A = diag(-0.5, ..., -7.5): its smallest pivot is 1/15 of the
    # largest, so PIVOT_TOL = 0.1 makes the resolvent singular.
    doc = _config_doc()
    doc["A"] = {"generator": "diag", "entries": [[1.5 + i, 0.0] for i in range(8)]}
    path = tmp_path / "expanding.json"
    path.write_text(json.dumps(doc))

    def subspace_row(*flags):
        assert main(["check", str(path), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        return next(l for l in lines if l.startswith("subspace condition"))

    assert "alpha=" in subspace_row()
    assert "unavailable" in subspace_row("--tol-override", "PIVOT_TOL=0.1")


def test_check_names_pivot_tol_when_it_refuses_an_lu_the_radius_refused_too(tmp_path, capsys):
    # rho(A) = 8.5 refuses the map, but A = diag(1.5, ..., 8.5) has no
    # eigenvalue 1: the smallest pivot of I - A is |1 - 1.5| = 0.5, under
    # PIVOT_TOL * 7.5 = 0.75, so the row names PIVOT_TOL, not the spectrum.
    doc = _config_doc()
    doc["A"] = {"generator": "diag", "entries": [[1.5 + i, 0.0] for i in range(8)]}
    path = tmp_path / "expanding.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--tol-override", "PIVOT_TOL=0.1"]) == 0
    rows = dict(line.split("  ", 1) for line in capsys.readouterr().out.splitlines())
    assert rows["subspace condition bounds (necessary only)"].strip() == (
        "unavailable: the LU of I - A fell below PIVOT_TOL = 1.0e-01 at pivot 0"
    )
    assert rows["adjoint family bounds on W"].strip().startswith(
        "unavailable: stationary map requires spectral radius below 1: rho(A) = 8.5"
    )


# Malformed or unusual [re, im] pairs, as in test_linalg: (pair, error
# message or the value it is read as).
BIG = 10**400  # written by json.dumps as a 401-digit integer
PAIR_CASES = {
    "null": ([None, 0.0], "expected a [re, im] pair of numbers, got [None, 0.0]"),
    "true": ([True, 0.0], 1.0),
    "numeric-string": (["1.5", 0.0], 1.5),
    "nested-list": ([[0, 0], 0.0], "expected a [re, im] pair of numbers, got [[0, 0], 0.0]"),
    "object": ([{}, 0.0], "expected a [re, im] pair of numbers, got [{}, 0.0]"),
    "1e400-integer": ([BIG, 0.0], f"expected a [re, im] pair of numbers, got [{BIG}, 0.0]"),
    "string-for-pair": ("12", "expected a [re, im] pair, got '12'"),
    "1-element": ([1.0], "expected a [re, im] pair, got [1.0]"),
    "3-element": ([1.0, 2.0, 3.0], "expected a [re, im] pair, got [1.0, 2.0, 3.0]"),
    "NaN": ([float("nan"), 0.0], "{kind} entries must be finite (no NaN/Inf)"),
    "Infinity": ([0.0, float("inf")], "{kind} entries must be finite (no NaN/Inf)"),
}


def _dense_config_doc(dim=8):
    # _config_doc with A and g written out entry by entry
    doc = _config_doc(dim=dim)
    eye = [vector_to_pairs(row) for row in np.eye(dim)]
    doc["A"] = [vector_to_pairs(0.5 * row) for row in np.eye(dim)]
    doc["g"] = eye
    return doc


def _recover(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["recover", str(path), "-o", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("field", ["A", "g", "w"])
@pytest.mark.parametrize("case", PAIR_CASES)
def test_recover_reads_malformed_pairs_like_the_pair_walk(tmp_path, capsys, field, case):
    pair, expected = PAIR_CASES[case]
    doc = _dense_config_doc()
    if field == "w":
        doc[field][2] = pair
    else:
        doc[field][1][2] = pair
    code, err = _recover(tmp_path, capsys, doc)
    if isinstance(expected, str):
        kind = "vector" if field == "w" else "matrix"
        assert (code, err) == (2, f"config error: {field}: {expected.replace('{kind}', kind)}\n")
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("field", ["A", "g", "W"])
def test_recover_rejects_ragged_and_non_list_rows(tmp_path, capsys, field):
    doc = _dense_config_doc()
    doc["W"] = [vector_to_pairs(col) for col in np.eye(8)]
    doc[field][1] = doc[field][1][:-1]
    assert _recover(tmp_path, capsys, doc) == (
        2, f"config error: {field}: row 1 has 7 entries, expected 8\n"
    )
    doc[field][1] = "abc"
    assert _recover(tmp_path, capsys, doc) == (
        2, f"config error: {field}: expected a list of [re, im] pairs, got 'abc'\n"
    )


def test_parse_config_is_bit_identical_to_the_pair_walk(tmp_path):
    # A random d = 64 config with signed zeros and integers in every
    # field, against one pair_to_complex call per entry.
    d = 64
    rng = np.random.default_rng(64)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # block-diagonal unitary W: half its entries are exact zeros, written -0.0
    Q = np.zeros((d, d), dtype=complex)
    for block in (slice(0, d // 2), slice(d // 2, d)):
        Q[block, block] = np.linalg.qr(cplx(d // 2, d // 2))[0]
    spec = SystemSpec(
        params=SpectralParams(N=2, r=1), K=d // 4,
        A=0.1 * cplx(d, d), g=VectorFamily(vectors=cplx(2 * d, d)), W_basis=Q,
        w=Q @ cplx(d), x0=cplx(d), xm2=cplx(d),
    )
    doc = json.loads(json.dumps(config_to_json(spec), default=vector_to_pairs))
    doc["W"] = [[[x if x != 0.0 else -0.0 for x in p] for p in col] for col in doc["W"]]
    for key in ("A", "g"):
        doc[key][3][5] = [-0.0, 0]
        doc[key][4][6] = [3, -0.0]
    for key in ("x0", "xm2"):
        doc[key][1] = [-0.0, -0.0]
        doc[key][2] = [-2, 0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    parsed = cli._load_config(str(path), {}).spec

    def walk(rows):
        return np.array([[pair_to_complex(p) for p in row] for row in rows])

    def bits(a):
        return np.ascontiguousarray(a).view(np.int64).tobytes()

    assert bits(parsed.A) == bits(walk(doc["A"]))
    assert bits(parsed.g.vectors) == bits(walk(doc["g"]))
    assert bits(parsed.W_basis) == bits(walk(doc["W"]).T)
    for key in ("w", "x0", "xm2"):
        assert bits(getattr(parsed, key)) == bits(walk([doc[key]])[0]), key


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("content", ["good", "invalid-json", "bad-value"])
def test_load_config_restores_the_collector_state(tmp_path, enabled, content):
    # Loading leaves the collector as it found it, whether it succeeds or fails.
    doc = _config_doc()
    if content == "bad-value":
        doc["w"][0] = [None, 0.0]
    path = tmp_path / "config.json"
    path.write_text("{not json" if content == "invalid-json" else json.dumps(doc))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if content == "good":
            cli._load_config(str(path), {})
        else:
            with pytest.raises(ValueError):
                cli._load_config(str(path), {})
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_emitted_config_matches_the_per_entry_encoding(tmp_path, scenario_id):
    assert main(["demo", scenario_id, "-o", str(tmp_path), "--emit-config"]) == 0
    spec = build(scenario_id, SpectralParams(N=2, r=1), None).system.spec

    def pairs(v):
        return [complex_to_pair(z) for z in v]

    ref = {
        "schema": 1,
        "params": {"N": 2, "r": 1},
        "dim": spec.dim,
        "K": spec.K,
        "A": [pairs(row) for row in spec.A],
        "g": [pairs(v) for v in spec.g.vectors],
        "W": [pairs(c) for c in spec.W_basis.T],
        "w": pairs(spec.w),
        "x0": pairs(spec.x0),
        "xm2": pairs(spec.xm2),
        "tolerances": dataclasses.asdict(Tolerances()),
    }
    text = (tmp_path / f"{scenario_id}_config.json").read_text()
    assert text == json.dumps(ref, indent=2, sort_keys=True) + "\n"
    if scenario_id == "thm317_generalized":  # x0 = -w
        assert "-0.0" in text


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_demo_runs_from_the_minimum_K_and_rejects_below_it(tmp_path, capsys, scenario_id):
    k_min = min_K(scenario_id)
    assert main(["demo", scenario_id, "-K", str(k_min), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["demo", scenario_id, "-K", str(k_min - 1), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    if k_min == 1:
        assert "K must be a positive integer, got 0" in err
    else:
        assert f"{scenario_id} needs K >= {k_min}, got K = {k_min - 1}" in err


@pytest.mark.parametrize(
    "override, k_min",
    [
        (None, 7),
        ("BS_TOL=1e-5", 6),
        ("BS_TOL=1e-8", 8),
        ("BS_TOL=1e-4", 6),
        ("BS_TOL=1", 6),
    ],
    ids=["default", "looser", "tighter", "loose", "loosest"],
)
def test_quarter_minimum_K_follows_bs_tol(tmp_path, capsys, override, k_min):
    # The rate-1/4 tail gap is 6.7e-8 at K = 7, 1.1e-6 at K = 6 and 1.7e-5
    # at K = 5; build names the smallest K whose bound clears BS_TOL.  The
    # limit recovery misses w by 6.7e-7 at K = 6 and 1.1e-5 at K = 5, so
    # however loose BS_TOL is, the fixed 1e-6 limit oracle keeps K >= 6.
    flags = ["--tol-override", override] if override else []
    argv = ["demo", "thm319_quarter", "-o", str(tmp_path), *flags, "-K"]
    assert main(argv + [str(k_min - 1)]) == 2
    assert f"thm319_quarter needs K >= {k_min}, got K = {k_min - 1}" in capsys.readouterr().err
    assert main(argv + [str(k_min)]) == 0


@pytest.mark.parametrize("bs_tol, k_min", [("1e-320", 267), ("5e-324", 270)])
def test_quarter_subnormal_bs_tol_names_its_minimum_K(tmp_path, capsys, bs_tol, k_min):
    # distance / BS_TOL overflows to inf for a subnormal BS_TOL, so min_K
    # counts the steps in log space; the request is an ordinary exit 2.
    argv = ["demo", "thm319_quarter", "-o", str(tmp_path), "--tol-override", f"BS_TOL={bs_tol}"]
    assert main(argv) == 2
    assert f"thm319_quarter needs K >= {k_min}, got K = 20" in capsys.readouterr().err


@pytest.mark.parametrize("r, N", [(1, 1), (1, 2), (3, 2), (3, 4), (5, 16), (31, 16), (7, 9)])
def test_counterexample_runs_up_to_its_maximum_K(tmp_path, r, N):
    argv = ["demo", "thm314_counterexample", "--r", str(r), "--N", str(N), "-o", str(tmp_path)]
    for K in range(1, SCENARIOS["thm314_counterexample"].max_K + 1):
        assert main(argv + ["-K", str(K)]) == 0, K


@pytest.mark.parametrize("K", range(1, SCENARIOS["thm314_counterexample"].max_K + 1))
def test_counterexample_config_simulates_to_zero_data(tmp_path, K):
    # The emitted config, run through simulate, samples nothing: every
    # entry of its data matrix stays within the 1e-8 oracle.
    argv = ["demo", "thm314_counterexample", "-K", str(K), "-o", str(tmp_path), "--emit-config"]
    assert main(argv) == 0
    config = str(tmp_path / "thm314_counterexample_config.json")
    assert main(["simulate", config, "-o", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "sim" / "data_matrix.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * K
    assert max(abs(complex(float(r["re"]), float(r["im"]))) for r in rows) <= 1e-8


@pytest.mark.parametrize("K", [9, 12])
def test_counterexample_rejects_K_beyond_float_range(tmp_path, capsys, K):
    # K = 9 leaves a simulated sample of 3.0e-7 > 1e-8.
    argv = ["demo", "thm314_counterexample", "-K", str(K), "-o", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"thm314_counterexample needs K <= 8, got K = {K}" in err
    assert "least-squares witness" in err


def test_demo_at_an_unallocatable_K_exits_2_without_walking_the_window(
    tmp_path, capsys, monkeypatch, capped_address_space
):
    # A builder that walked the 4K window points in Python, one object each,
    # would take seconds here and tens of GB at K = 10**8.
    real_window = scenarios.window

    def bounded_window(K):
        if 4 * K > 10**5:
            raise AssertionError(f"window({K}) walked")
        return real_window(K)

    monkeypatch.setattr(scenarios, "window", bounded_window)
    for scenario_id in scenarios.SCENARIOS:
        argv = ["demo", scenario_id, "-K", "1000000", "-o", str(tmp_path)]
        assert main(argv) == 2, scenario_id
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        if scenario_id == "thm314_counterexample":
            assert "needs K <= 8" in err
        else:
            assert err.startswith("config error: Unable to allocate"), err


def test_finite_rows_whose_plain_norm_overflows_keep_finite_norms(tmp_path, capsys):
    # thm319 at K = 7 with w scaled by 1e300: w stays in W and every row is
    # finite, with norms up to ~1.5e300, but their sums of squares overflow.
    assert main(["demo", "thm319_quarter", "-K", "7", "--emit-config", "-o", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "thm319_quarter_config.json").read_text())
    doc["w"] = [[re * 1e300, im * 1e300] for re, im in doc["w"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()

    system = cli._load_config(str(path), {})
    (report,) = finite_recovery_report((LambdaIndex(0, 0),), system)
    assert np.isfinite(report.residual_bound) and report.residual <= report.residual_bound
    assert main(["recover", "--mode", "finite", str(path), "-o", str(tmp_path / "f")]) == 0
    assert capsys.readouterr().err == ""

    # The tail gap, against the same differences scaled down by an exact 2^-1000.
    D = system.data.values
    edges = D[[0, 1, -2, -1]] * 2.0**-1000
    want = max(np.linalg.norm(edges[i + 1 :] - edges[i], axis=1).max() for i in range(3))
    gap = system.limit.tail_gap
    assert np.isfinite(gap) and gap == pytest.approx(want * 2.0**1000, rel=1e-14)
    assert main(["recover", "--mode", "infinite", str(path), "-o", str(tmp_path / "i")]) == 3
    assert capsys.readouterr().err == (
        f"condition failure: rows are not convergent: tail gap {gap:.3e} exceeds 1.0e-06\n"
    )
    assert main(["check", str(path)]) == 0
    assert f"row-convergence tail gap                    {gap:.3e} (not convergent)\n" in (
        capsys.readouterr().out
    )
