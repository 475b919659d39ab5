"""`recover` reads rho(A) from its config decode child, with the serial result.

From ``nuds.cli.FORK_MIN_RADIUS_DIM`` on, the child that decodes the
config parses A alone and computes rho(A) while the command decodes the
rest (see ``nuds.cli._decode_split``); the recovery then runs once, in
the serial order.  The configs here are small, so each case runs once
below the floor and once with the floor lowered to 1, and the two runs
must give the same exit code, stdout, stderr and report.json.  Each run
also records warnings in-process: a forked run must warn exactly where
the serial run warns, which here is nowhere.
"""

import json
import os
import warnings

import numpy as np
import pytest

from nuds import cli, linalg
from nuds.cli import main, parse_config
from nuds.linalg import spectral_radius, vector_to_pairs

DIM = 8
EDGE_ERR = (
    "condition failure: stationary map requires spectral radius below 1: "
    "rho(A) = 1 (margin 1.0e-06)\n"
)
RHO_2_ERR = (
    "condition failure: stationary map requires spectral radius below 1: "
    "rho(A) = 2 (margin 1.0e-06)\n"
)
NOT_A_FRAME_ERR = (
    "condition failure: not stably recoverable: sampling family is not a frame "
    "(alpha = 0.000e+00)\n"
)


def _doc(A, g=None, stationary=None):
    """A DIM-dimensional config with source e1, started at ``stationary`` (default 0)."""
    w = np.zeros(DIM, dtype=complex)
    w[0] = 1.0
    x0 = np.zeros(DIM, dtype=complex) if stationary is None else stationary
    return {
        "schema": 1,
        "params": {"N": 2, "r": 1},
        "dim": DIM,
        "K": 2,
        "A": vector_to_pairs(A),
        "g": "onb" if g is None else vector_to_pairs(g),
        "W": "full",
        "w": vector_to_pairs(w),
        "x0": vector_to_pairs(x0),
        "xm2": vector_to_pairs(x0),
    }


def _edge_doc():
    # rho(A) = 1 - 1e-16 rounds to the 1 that the map refuses; the two 1e130
    # entries leave it unchanged, but the solve of I - A, which
    # PIVOT_TOL = 1e-300 lets through, overflows in its residual check.
    A = np.diag(np.full(DIM, 1 - 1e-16)).astype(complex)
    A[0, 1] = A[0, 2] = 1e130
    doc = _doc(A)
    doc["tolerances"] = {"PIVOT_TOL": 1e-300}
    return doc


def _not_a_frame_doc():
    # e1 twice and no e8: the frame operator has an exact zero eigenvalue.
    return _doc(0.5 * np.eye(DIM), g=np.eye(DIM, dtype=complex)[[0, 1, 2, 3, 4, 5, 6, 0]])


def _radius_2_doc():
    # A = 2I started at its fixed point -w: every row is the same, so the
    # whole recovery succeeds before the radius refuses the map.
    w = np.zeros(DIM, dtype=complex)
    w[0] = 1.0
    return _doc(2.0 * np.eye(DIM), stationary=-w)


def _emitted(tmp_path, capsys, scenario_id, *flags):
    argv = ["demo", scenario_id, *flags, "-o", str(tmp_path), "--emit-config"]
    assert main(argv) == 0
    capsys.readouterr()
    return tmp_path / f"{scenario_id}_config.json"


def _written(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _radius_in_report(got) -> float:
    return json.loads(got["report"])["diagnostics"]["rho"]


def _radius_of(config) -> float:
    spec, _ = parse_config(json.loads(config.read_text()))
    return spectral_radius(spec.A)


def _recover(config, mode, out, capsys):
    """Exit code, stdout, stderr, report.json and recorded warnings of one recover."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["recover", str(config), "--mode", mode, "-o", str(out)])
    captured = capsys.readouterr()
    report = out / "report.json"
    return {
        "code": code,
        "out": captured.out.replace(str(out), "OUT"),
        "err": captured.err,
        "report": report.read_text() if report.exists() else None,
        "warnings": [str(w.message) for w in caught],
    }


def _forced_and_serial(tmp_path, capsys, monkeypatch, forks, config, mode):
    """The outcome below the floor, and that with a forced fork and its child's exit code."""
    serial = _recover(config, mode, tmp_path / "serial", capsys)
    assert forks == []
    monkeypatch.setattr(cli, "FORK_MIN_RADIUS_DIM", 1)
    forked = _recover(config, mode, tmp_path / "forked", capsys)
    assert len(forks) == 1
    return serial, forked, forks[0][1]


@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_forked_radius_gives_the_serial_bytes(tmp_path, capsys, monkeypatch, forks, mode):
    config = _emitted(tmp_path, capsys, "thm319_quarter", "-K", "7")
    serial, forked, child_code = _forced_and_serial(
        tmp_path, capsys, monkeypatch, forks, config, mode
    )
    assert child_code == 0
    assert serial["code"] == 0 and serial["report"] is not None
    assert serial["warnings"] == []
    assert forked == serial
    assert _radius_in_report(forked) == _radius_of(config)


def _count_loads(monkeypatch):
    """The list that each serial ``json.load`` of a config appends to."""
    real_load, loads = json.load, []

    def counted_load(fh, *args, **kwargs):
        loads.append(fh)
        return real_load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counted_load)
    return loads


@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_failing_child_leaves_the_radius_to_this_process(
    tmp_path, capsys, monkeypatch, forks, mode
):
    # Only the radius fails in the child: its share is still used, and
    # this process computes rho(A) where the serial order needs it.
    config = _emitted(tmp_path, capsys, "thm319_quarter", "-K", "7")
    parent, real_radius, radii = os.getpid(), linalg.spectral_radius, []

    def fail_in_the_child(A):
        if os.getpid() != parent:
            raise RuntimeError("the radius failed in the child")
        radii.append(A.shape)
        return real_radius(A)

    monkeypatch.setattr(linalg, "spectral_radius", fail_in_the_child)
    loads = _count_loads(monkeypatch)
    serial, forked, child_code = _forced_and_serial(
        tmp_path, capsys, monkeypatch, forks, config, mode
    )
    assert child_code == 0
    assert loads == []  # a valid config: each run parses its arrays without json.load
    assert len(radii) == 2  # one in this process in each run
    assert serial["code"] == 0
    assert forked == serial
    assert _radius_in_report(forked) == _radius_of(config)


@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_failing_child_job_gives_the_serial_decode(
    tmp_path, capsys, monkeypatch, forks, child_cannot_pickle, mode
):
    config = _emitted(tmp_path, capsys, "thm319_quarter", "-K", "7")
    loads = _count_loads(monkeypatch)
    serial, forked, child_code = _forced_and_serial(
        tmp_path, capsys, monkeypatch, forks, config, mode
    )
    assert child_code == 1
    assert loads == []  # this process ran the failed child's job itself
    assert serial["code"] == 0
    assert forked == serial


def test_bad_parent_share_gives_the_serial_error(tmp_path, capsys, monkeypatch, forks):
    # The child takes A alone, so this process parses g, and fails on its
    # null while the child computes the radius.  The child is ended and
    # reaped (see the autouse fixture); the text is decoded serially.
    doc = _doc(0.5 * np.eye(DIM), g=np.eye(DIM, dtype=complex))
    doc["g"][3][5] = [None, 0.0]
    config = _written(tmp_path, doc)
    loads = _count_loads(monkeypatch)
    serial, forked, _ = _forced_and_serial(
        tmp_path, capsys, monkeypatch, forks, config, "infinite"
    )
    assert serial["code"] == 2 and serial["err"].startswith("config error: g: ")
    assert forked == serial
    assert len(loads) == 2


# case: (mode, stderr).  Every case exits 3 with one line and no report.
ERROR_CASES = {
    # The solve would overflow with a warning; the gate refuses first.
    "edge": ("infinite", EDGE_ERR),
    # rho(A) = 2 and I - A is singular: the refusal names the radius.
    "thm317": ("infinite", RHO_2_ERR),
    "not-a-frame": ("finite", NOT_A_FRAME_ERR),
    # The recovery succeeds before the radius is known; the gate still refuses.
    "radius-2": ("infinite", RHO_2_ERR),
}


@pytest.mark.parametrize("forced", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_come_in_the_serial_order(tmp_path, capsys, monkeypatch, forks, case, forced):
    mode, err = ERROR_CASES[case]
    if case == "thm317":
        config = _emitted(tmp_path, capsys, "thm317_generalized")
    else:
        docs = {"edge": _edge_doc, "not-a-frame": _not_a_frame_doc, "radius-2": _radius_2_doc}
        config = _written(tmp_path, docs[case]())
    if forced:
        monkeypatch.setattr(cli, "FORK_MIN_RADIUS_DIM", 1)
    got = _recover(config, mode, tmp_path / "out", capsys)
    assert got == {"code": 3, "out": "", "err": err, "report": None, "warnings": []}
    assert [code for _, code in forks] == ([0] if forced else [])
