"""Reproducible builders for the worked examples and the counterexample.

Each scenario id maps to a deterministic system: given the same
(id, r, N, K) the builder returns bit-identical data (any randomness is
seeded from those values).  ``run_scenario`` executes the recovery that
the scenario is about and compares the outcome against the expectations
record; the CLI ``demo`` command is a thin wrapper around it.

Scenario ids:
    thm312_diagonal       finite-step recovery with a diagonal operator
                          and orthonormal sampling; works on all three
                          branches.
    thm38_onb             constant-row data; the limit operator attains
                          norm ratio exactly 1 on an orthonormal family.
    thm314_counterexample a nonzero source whose windowed measurements
                          all vanish, even though the subspace
                          (necessary) condition holds.
    thm317_generalized    an expanding operator (radius 2) whose
                          stationary map still admits stable limit
                          recovery; uses the corrected operator, tagged
                          "paper-typo-corrected".
    thm319_quarter        contracting dynamics (radius 1/4); geometric
                          convergence to the stationary state and stable
                          limit recovery.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import (
    SystemSpec,
    data_matrix,
    simulate,
    stationary_deviation,
    sup_row_norm,
)
from .frames import VectorFamily, frame_bounds
from .lattice import (
    LambdaIndex,
    SpectralParams,
    index_label,
    index_map,
    power_of,
    window,
)
from .linalg import Vec
from .recovery import (
    StationaryMap,
    counterexample_nullifier,
    finite_recovery_report,
    limit_operator,
    reconstruct_infinite,
    recovery_certificate_full,
    stationary_map_from_A,
    subspace_condition,
)
from .tolerances import FRAME_TOL

SCENARIO_IDS = (
    "thm312_diagonal",
    "thm38_onb",
    "thm314_counterexample",
    "thm317_generalized",
    "thm319_quarter",
)

DEFAULT_K = {
    "thm312_diagonal": 4,
    "thm38_onb": 3,
    "thm314_counterexample": 3,
    "thm317_generalized": 5,
    "thm319_quarter": 20,
}


@dataclass(frozen=True)
class ScenarioExpectations:
    """What the scenario's recovery run must exhibit."""

    should_recover_finite: bool
    should_recover_infinite: bool
    expected_bounds: tuple[float, float]
    bounds_of: str  # which family the bounds describe: sampling|adjoint|subspace
    expected_rho: float
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "should_recover_finite": self.should_recover_finite,
            "should_recover_infinite": self.should_recover_infinite,
            "expected_bounds": [self.expected_bounds[0], self.expected_bounds[1]],
            "bounds_of": self.bounds_of,
            "expected_rho": self.expected_rho,
            "notes": list(self.notes),
        }


@dataclass
class ScenarioBundle:
    id: str
    spec: SystemSpec
    expectations: ScenarioExpectations
    smap: StationaryMap | None


def _scenario_rng(scenario_id: str, params: SpectralParams, K: int) -> np.random.Generator:
    seed = np.random.SeedSequence(
        [0x6E75, zlib.crc32(scenario_id.encode()), params.r, params.N, K]
    )
    return np.random.default_rng(seed)


def _onb(dim: int, win: list[LambdaIndex]) -> VectorFamily:
    return VectorFamily(vectors=np.eye(dim, dtype=complex), labels=tuple(win))


def _basis_columns(dim: int, positions: list[int]) -> np.ndarray:
    B = np.zeros((dim, len(positions)), dtype=complex)
    for col, pos in enumerate(positions):
        B[pos, col] = 1.0
    return B


def counterexample_source(K: int) -> Vec:
    """The structured source with alternating sign and 1/2-, 1/3-power decay.

    Coordinates over the window layout: at even points 2m the value is 1
    at m = 0, 1/2^m for m > 0 and -1/2^|m| for m < 0; at offset points
    2m + r/N it is 1/3^(m+1) for m >= 0 and -1/3^|m| for m < 0.  All
    coordinates are nonzero, which the nullifier construction requires.
    The pattern beyond the innermost coordinates extends the printed
    ones by the evident power law.
    """
    win = window(K)
    imap = index_map(4 * K)
    w = np.zeros(4 * K, dtype=complex)
    for idx in win:
        pos = imap.index_of(idx)
        if idx.eps == 0:
            val = 0.5 ** idx.m if idx.m >= 0 else -(0.5 ** (-idx.m))
        else:
            val = (1.0 / 3.0) ** (idx.m + 1) if idx.m >= 0 else -((1.0 / 3.0) ** (-idx.m))
        w[pos] = val
    return w


def _build_thm312_diagonal(params: SpectralParams, K: int) -> ScenarioBundle:
    dim = 4 * K
    win = window(K)
    imap = index_map(dim)
    diag = np.zeros(dim)
    for idx in win:
        if idx.eps == 0:
            diag[imap.index_of(idx)] = 2.0 ** (-idx.m) if idx.m >= 0 else 2.0 ** idx.m
    A = np.diag(diag).astype(complex)
    g = _onb(dim, win)
    rng = _scenario_rng("thm312_diagonal", params, K)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    x0 = np.zeros(dim, dtype=complex)
    x0[imap.index_of(LambdaIndex(0, 1))] = 1.0
    xm2 = np.zeros(dim, dtype=complex)
    xm2[imap.index_of(LambdaIndex(-1, 0))] = 1.0
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=A,
        g=g,
        W_basis=np.eye(dim, dtype=complex),
        w=w,
        x0=x0,
        xm2=xm2,
        K=K,
    )
    expectations = ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=False,
        expected_bounds=(1.0, 1.0),
        bounds_of="sampling",
        expected_rho=1.0,
        notes=("diagonal restricted to the finite window",),
    )
    return ScenarioBundle("thm312_diagonal", spec, expectations, smap=None)


def _build_thm38_onb(params: SpectralParams, K: int) -> ScenarioBundle:
    dim = 4 * K
    win = window(K)
    imap = index_map(dim)
    w = np.zeros(dim, dtype=complex)
    w[imap.index_of(LambdaIndex(0, 0))] = 1.0
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=np.zeros((dim, dim), dtype=complex),
        g=_onb(dim, win),
        W_basis=np.eye(dim, dtype=complex),
        w=w,
        x0=w.copy(),
        xm2=w.copy(),
        K=K,
    )
    smap = stationary_map_from_A(spec.A, spec.g, spec.W_basis)
    expectations = ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=True,
        expected_bounds=(1.0, 1.0),
        bounds_of="sampling",
        expected_rho=0.0,
    )
    return ScenarioBundle("thm38_onb", spec, expectations, smap=smap)


def _build_thm314_counterexample(params: SpectralParams, K: int) -> ScenarioBundle:
    dim = 4 * K
    lam = np.geomspace(0.1, 0.9, dim)
    A = np.diag(lam).astype(complex)
    w = counterexample_source(K)
    g_vec = (np.eye(dim, dtype=complex) - A) @ w
    g = VectorFamily(vectors=g_vec[np.newaxis, :])
    W_basis = (w / np.linalg.norm(w))[:, np.newaxis]
    x0, xm2, _ = counterexample_nullifier(A, w, K)
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=A,
        g=g,
        W_basis=W_basis,
        w=w,
        x0=x0,
        xm2=xm2,
        K=K,
    )
    smap = stationary_map_from_A(A, g, W_basis)
    norm_w_sq = float(np.linalg.norm(w)) ** 2
    expectations = ScenarioExpectations(
        should_recover_finite=False,
        should_recover_infinite=False,
        expected_bounds=(norm_w_sq, norm_w_sq),
        bounds_of="subspace",
        expected_rho=0.9,
        notes=(
            "the subspace condition is necessary only: it holds here while "
            "every windowed measurement vanishes",
            "source pattern extended beyond the innermost coordinates by its "
            "evident power law",
        ),
    )
    return ScenarioBundle("thm314_counterexample", spec, expectations, smap=smap)


def _build_thm317_generalized(params: SpectralParams, K: int) -> ScenarioBundle:
    dim = 4 * K
    win = window(K)
    imap = index_map(dim)
    p0 = imap.index_of(LambdaIndex(0, 0))
    pm2 = imap.index_of(LambdaIndex(-1, 0))
    diag = np.full(dim, 2.0)
    diag[[p0, pm2]] = 1.0
    A = np.diag(diag).astype(complex)
    w_positions = [p for p in range(dim) if p not in (p0, pm2)]
    B = _basis_columns(dim, w_positions)
    rng = _scenario_rng("thm317_generalized", params, K)
    y = rng.standard_normal(len(w_positions)) + 1j * rng.standard_normal(len(w_positions))
    y /= np.linalg.norm(y)
    w = B @ y
    g = _onb(dim, win)
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=A,
        g=g,
        W_basis=B,
        w=w,
        x0=-w,
        xm2=-w,
        K=K,
    )
    # The stationary map fixes S(w) = -w on W; its adjoint sends each
    # orthonormal sampling vector to minus its W-component.
    smap = StationaryMap(
        apply=-B,
        adjoint_family=VectorFamily(vectors=-(g.vectors @ B.conj())),
        W_basis=B,
        rho=2.0,
    )
    expectations = ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=True,
        expected_bounds=(1.0, 1.0),
        bounds_of="adjoint",
        expected_rho=2.0,
        notes=("paper-typo-corrected",),
    )
    return ScenarioBundle("thm317_generalized", spec, expectations, smap=smap)


def _build_thm319_quarter(params: SpectralParams, K: int) -> ScenarioBundle:
    dim = 4 * K
    win = window(K)
    imap = index_map(dim)
    p0 = imap.index_of(LambdaIndex(0, 0))
    p1 = imap.index_of(LambdaIndex(0, 1))
    B = _basis_columns(dim, [p0, p1])
    w = np.zeros(dim, dtype=complex)
    w[p0] = 1.0
    w[p1] = 0.5
    A = 0.25 * np.eye(dim, dtype=complex)
    g = _onb(dim, win)
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=A,
        g=g,
        W_basis=B,
        w=w,
        x0=np.zeros(dim, dtype=complex),
        xm2=np.zeros(dim, dtype=complex),
        K=K,
    )
    smap = stationary_map_from_A(A, g, B)
    expectations = ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=True,
        expected_bounds=(16.0 / 9.0, 16.0 / 9.0),
        bounds_of="adjoint",
        expected_rho=0.25,
    )
    return ScenarioBundle("thm319_quarter", spec, expectations, smap=smap)


_BUILDERS = {
    "thm312_diagonal": _build_thm312_diagonal,
    "thm38_onb": _build_thm38_onb,
    "thm314_counterexample": _build_thm314_counterexample,
    "thm317_generalized": _build_thm317_generalized,
    "thm319_quarter": _build_thm319_quarter,
}


def build(scenario_id: str, params: SpectralParams, K: int) -> ScenarioBundle:
    """Build a scenario system deterministically from (id, r, N, K)."""
    try:
        builder = _BUILDERS[scenario_id]
    except KeyError:
        raise ValueError(
            f"unknown scenario id {scenario_id!r}; known ids: {', '.join(SCENARIO_IDS)}"
        ) from None
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    return builder(params, K)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _measured_bounds(bundle: ScenarioBundle):
    kind = bundle.expectations.bounds_of
    if kind == "sampling":
        return frame_bounds(bundle.spec.g)
    if kind == "adjoint":
        if bundle.smap is None:
            raise ValueError("scenario has no stationary map to take bounds of")
        return frame_bounds(bundle.smap.adjoint_family)
    if kind == "subspace":
        return subspace_condition(bundle.spec.A, bundle.spec.g, bundle.spec.W_basis)
    raise ValueError(f"unknown bounds_of kind {kind!r}")


def run_scenario(bundle: ScenarioBundle, tail: int = 2) -> tuple[dict, list[str]]:
    """Execute the scenario's recovery and check its expectations.

    Returns (report document, failures); an empty failure list means
    every expectation held.
    """
    spec = bundle.spec
    exp = bundle.expectations
    failures: list[str] = []
    traj = simulate(spec)
    D = data_matrix(traj, spec.g)

    rho = linalg.spectral_radius(spec.A)
    if not _close(rho, exp.expected_rho, 1e-6):
        failures.append(f"spectral radius {rho:.8g} != expected {exp.expected_rho:.8g}")
    bounds = _measured_bounds(bundle)
    if not (
        _close(bounds.alpha, exp.expected_bounds[0], 1e-8)
        and _close(bounds.beta, exp.expected_bounds[1], 1e-8)
    ):
        failures.append(
            f"{exp.bounds_of} bounds ({bounds.alpha:.8g}, {bounds.beta:.8g}) != "
            f"expected {exp.expected_bounds}"
        )

    report: dict = {
        "schema": 1,
        "scenario": bundle.id,
        "params": {"N": spec.params.N, "r": spec.params.r},
        "K": spec.K,
        "expectations": exp.to_json(),
        "measured": {
            "rho": rho,
            "bounds": [bounds.alpha, bounds.beta],
        },
    }

    if bundle.id == "thm314_counterexample":
        x0, xm2, measurements = counterexample_nullifier(spec.A, spec.w, spec.K)
        worst = float(np.max(np.abs(measurements)))
        if worst > 1e-8:
            failures.append(f"nullifier measurement of size {worst:.3e} exceeds 1e-8")
        if float(np.linalg.norm(spec.w)) < 1.0:
            failures.append("source norm fell below 1")
        cert = recovery_certificate_full(spec.g)
        if cert.is_frame():
            failures.append(
                "sampling family unexpectedly a frame for the ambient space"
            )
        if bounds.alpha <= FRAME_TOL:
            failures.append("subspace condition unexpectedly failed")
        # The windowed data is identically zero, so the limit route
        # returns (approximately) nothing while the true source is unit-plus.
        rep = reconstruct_infinite(D, bundle.smap, tail, w_true=spec.w)
        if float(np.linalg.norm(rep.w_hat)) > 1e-6:
            failures.append("limit recovery saw a nonzero source in nullified data")
        report["measurements"] = [
            {
                "lambda": {
                    "m": idx.m,
                    "eps": idx.eps,
                    "label": index_label(idx, spec.params),
                },
                "value": linalg.complex_to_pair(measurements[p]),
            }
            for p, idx in enumerate(window(spec.K))
        ]
        report["recovery"] = rep.to_json()
        report["necessary_condition_only"] = True
        return report, failures

    if exp.should_recover_finite:
        cases = [LambdaIndex(0, 0), LambdaIndex(0, 1), LambdaIndex(-1, 1)]
        finite_reports = [
            finite_recovery_report(D, at, spec.A, spec.g, w_true=spec.w)
            for at in cases
        ]
        for at, rep in zip(cases, finite_reports):
            if rep.abs_error is None or rep.abs_error > 1e-8:
                failures.append(
                    f"finite recovery at {index_label(at, spec.params)} missed: "
                    f"abs_error = {rep.abs_error}"
                )
        report["recovery"] = finite_reports[0].to_json()
        report["finite_cases"] = {
            rep.diagnostics["case"]: rep.abs_error for rep in finite_reports
        }

    if bundle.id == "thm38_onb":
        limit_vec = limit_operator(D, spec.g, tail)
        ratio = float(np.linalg.norm(limit_vec)) / sup_row_norm(D)
        report["limit_norm_ratio"] = ratio
        if abs(ratio - 1.0) > 1e-8:
            failures.append(f"limit operator norm ratio {ratio!r} != 1")

    if exp.should_recover_infinite:
        rep = reconstruct_infinite(D, bundle.smap, tail, w_true=spec.w)
        threshold = 1e-6 if bundle.id == "thm319_quarter" else 1e-8
        if rep.abs_error is None or rep.abs_error > threshold:
            failures.append(
                f"limit recovery missed: abs_error = {rep.abs_error} > {threshold}"
            )
        report["recovery"] = rep.to_json()
        s_w = bundle.smap.stationary_state(spec.w)
        report["stationary_deviation"] = stationary_deviation(traj, s_w)

    if bundle.id == "thm319_quarter":
        # Geometric convergence of every state toward the stationary one.
        s_w = bundle.smap.stationary_state(spec.w)
        base = float(np.linalg.norm(spec.x0 - s_w))
        steps = np.array([power_of(idx) for idx in traj.order])
        dist = np.linalg.norm(traj.values - s_w, axis=1)
        worst_excess = max(0.0, float(np.max(dist - (0.25**steps) * base)))
        report["convergence_excess"] = worst_excess
        if worst_excess > 1e-12:
            failures.append(
                f"state convergence violated the geometric bound by {worst_excess:.3e}"
            )

    return report, failures
