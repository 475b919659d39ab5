"""Output checks: a request counts as failed unless its outputs are right.

The checks recompute what they need with the benchmark's own numpy code
(the window layout, the two-orbit recurrence and the data matrix), so
they do not trust the package to check itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import Request, System

# The repository's threshold for exact-data recovery.
RECOVERY_TOL = 1e-8
# Relative agreement of a sampled CSV entry with the recomputed value.
ENTRY_TOL = 1e-9
SAMPLES_PER_CSV = 32
CSV_HEADER = "lambda,j,re,im"
CHECK_STREAM = 2


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    readings: dict = field(default_factory=dict)


def window(K: int) -> list[tuple[int, int]]:
    """Window points (m, eps) in increasing order of 2m + eps r/N."""
    return [(m, eps) for m in range(-K, K) for eps in (0, 1)]


def label(m: int, eps: int, r: int, N: int) -> str:
    return str(2 * m) if eps == 0 else f"{2 * m}+{r}/{N}"


def states(s: System) -> np.ndarray:
    """(4K, d) states in window order, walking both orbits of x -> A x + w.

    The orbit from 0 visits (m, eps) with m >= 0 after 2m + eps steps;
    the orbit from -2 visits (m, eps) with m < 0 after -2m - 2 + eps.
    """
    steps = 2 * s.K
    orbits = []
    for x in (s.x0, s.xm2):
        orbit = [x]
        for _ in range(steps - 1):
            orbit.append(s.A @ orbit[-1] + s.w)
        orbits.append(orbit)
    rows = []
    for m, eps in window(s.K):
        if m >= 0:
            rows.append(orbits[0][2 * m + eps])
        else:
            rows.append(orbits[1][-2 * m - 2 + eps])
    return np.array(rows)


def _check_csv(path: Path, expected: np.ndarray, s: System, rng) -> str:
    """Empty string when row count, header and sampled entries all match."""
    lines = path.read_text().splitlines()
    rows, cols = expected.shape
    if len(lines) != rows * cols + 1:
        return f"{path.name}: {len(lines) - 1} rows, expected {rows * cols}"
    if lines[0] != CSV_HEADER:
        return f"{path.name}: header {lines[0]!r}"
    scale = max(1.0, float(np.max(np.abs(expected))))
    points = window(s.K)
    for flat in rng.choice(rows * cols, size=min(SAMPLES_PER_CSV, rows * cols), replace=False):
        p, j = divmod(int(flat), cols)
        lam, jj, re, im = lines[1 + int(flat)].split(",")
        want = expected[p, j]
        if lam != label(*points[p], s.r, s.N) or int(jj) != j:
            return f"{path.name}: row {flat} is ({lam}, {jj}), expected ({label(*points[p], s.r, s.N)}, {j})"
        if abs(complex(float(re), float(im)) - want) > ENTRY_TOL * scale:
            return f"{path.name}: entry ({lam}, {j}) is {re}+{im}j, expected {want}"
    return ""


def check_simulate(req: Request, out: Path, key: tuple) -> Outcome:
    s = req.system
    X = states(s)
    D = X @ s.g.conj().T  # D[lambda, j] = <x_lambda, g_j>
    rng = np.random.default_rng([*key, CHECK_STREAM])
    for name, expected in (("trajectory.csv", X), ("data_matrix.csv", D)):
        path = out / name
        if not path.is_file():
            return Outcome(False, f"{name} missing")
        problem = _check_csv(path, expected, s, rng)
        if problem:
            return Outcome(False, problem)
    return Outcome(True)


def check_recover(req: Request, out: Path) -> Outcome:
    report = json.loads((out / "report.json").read_text())
    w_hat = np.array([complex(re, im) for re, im in report["w_hat"]])
    if w_hat.shape != req.system.w.shape:
        return Outcome(False, f"w_hat has shape {w_hat.shape}")
    error = float(np.linalg.norm(w_hat - req.system.w))
    readings = {"abs_error": error, "residual": float(report["residual"])}
    if not error <= RECOVERY_TOL:
        return Outcome(False, f"|w_hat - w| = {error:.3e} > {RECOVERY_TOL}", readings)
    return Outcome(True, readings=readings)


def check_demo(req: Request, out: Path) -> Outcome:
    report = json.loads((out / f"{req.scenario}_report.json").read_text())
    if report.get("scenario") != req.scenario:
        return Outcome(False, f"report is for {report.get('scenario')!r}")
    if report.get("expectations_met") is not True:
        return Outcome(False, f"expectations not met: {report.get('failures')}")
    config = json.loads((out / f"{req.scenario}_config.json").read_text())
    if config.get("dim") != 4 * report.get("K", -1):
        return Outcome(False, "emitted config does not match the report's K")
    return Outcome(True)


def check(req: Request, rc: int | None, out: Path, key: tuple) -> Outcome:
    """Judge one request from its exit code and the files it wrote.

    `key` is the request's (seed, stream, index); it seeds the choice of
    sampled CSV entries.
    """
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        if req.kind == "recover":
            return check_recover(req, out)
        if req.kind == "simulate":
            return check_simulate(req, out, key)
        if req.kind == "demo":
            return check_demo(req, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
    raise ValueError(f"no check for request kind {req.kind!r}")
