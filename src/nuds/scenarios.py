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

import math
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .dynamics import SystemSpec, stationary_deviation, sup_row_norm
from .frames import FrameAnalysis, VectorFamily
from .lattice import (
    LambdaIndex,
    SpectralParams,
    index_label,
    position,
    power_of,
    window,
)
from .linalg import Vec
from .recovery import (
    StationaryMap,
    SystemAnalysis,
    counterexample_nullifier,
    finite_recovery_report,
    limit_operator,
    reconstruct_infinite,
)
from .tolerances import DEFAULTS, Tolerances

# The points finite recovery starts from, one on each branch of the lattice.
FINITE_CASES = (LambdaIndex(0, 0), LambdaIndex(0, 1), LambdaIndex(-1, 1))

# The thm319 source w = 1 at the point 0 and 1/2 at r/N.
QUARTER_SOURCE = (1.0, 0.5)

# Expectation oracles.  They judge the outcome and so stay fixed under
# tolerance overrides: an override must not be able to pass a scenario.
# Bounds, finite and exact-data limit errors, the limit norm ratio and
# the nullified samples: exact data, so rounding level.
ORACLE_TOL = 1e-8
# Spectral radius, from a nonsymmetric eigensolver.
RHO_ORACLE_TOL = 1e-6
# Limit recovery from a window edge rather than the true limit (thm319),
# and the limit source seen in nullified data (thm314).
LIMIT_ORACLE_TOL = 1e-6
# Slack on the geometric convergence bound ||x_n - S(w)|| <= 4^-n ||x0 - S(w)||.
GEOMETRIC_SLACK = 1e-12


@dataclass(frozen=True)
class ScenarioExpectations:
    """What the scenario's recovery run must exhibit."""

    should_recover_finite: bool
    should_recover_infinite: bool
    expected_bounds: tuple[float, float]
    bounds_of: str  # which family the bounds describe: sampling|adjoint|subspace
    expected_rho: float
    notes: tuple[str, ...] = ()

@dataclass
class ScenarioBundle:
    """A built scenario; ``smap`` is a map built by hand (thm317: I - A is singular)."""

    id: str
    spec: SystemSpec
    expectations: ScenarioExpectations
    smap: StationaryMap | None = None


def _scenario_rng(scenario_id: str, params: SpectralParams, K: int) -> np.random.Generator:
    seed = np.random.SeedSequence(
        [0x6E75, zlib.crc32(scenario_id.encode()), params.r, params.N, K]
    )
    return np.random.default_rng(seed)


def _onb(dim: int) -> VectorFamily:
    return VectorFamily(vectors=np.eye(dim, dtype=complex))


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
    coordinates are nonzero.  The pattern beyond the innermost
    coordinates extends the printed ones by the evident power law.
    """
    w = np.zeros(4 * K, dtype=complex)
    for idx in window(K):
        if idx.eps == 0:
            val = 0.5 ** idx.m if idx.m >= 0 else -(0.5 ** (-idx.m))
        else:
            val = (1.0 / 3.0) ** (idx.m + 1) if idx.m >= 0 else -((1.0 / 3.0) ** (-idx.m))
        w[position(idx, K)] = val
    return w


def _build_thm312_diagonal(
    params: SpectralParams, K: int, tol: Tolerances
) -> ScenarioBundle:
    dim = 4 * K
    diag = np.zeros(dim)
    for idx in window(K):
        if idx.eps == 0:
            diag[position(idx, K)] = 2.0 ** (-idx.m) if idx.m >= 0 else 2.0 ** idx.m
    A = np.diag(diag).astype(complex)
    g = _onb(dim)
    rng = _scenario_rng("thm312_diagonal", params, K)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    x0 = np.zeros(dim, dtype=complex)
    x0[position(LambdaIndex(0, 1), K)] = 1.0
    xm2 = np.zeros(dim, dtype=complex)
    xm2[position(LambdaIndex(-1, 0), K)] = 1.0
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
    return ScenarioBundle("thm312_diagonal", spec, expectations)


def _build_thm38_onb(
    params: SpectralParams, K: int, tol: Tolerances
) -> ScenarioBundle:
    dim = 4 * K
    w = np.zeros(dim, dtype=complex)
    w[position(LambdaIndex(0, 0), K)] = 1.0
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=np.zeros((dim, dim), dtype=complex),
        g=_onb(dim),
        W_basis=np.eye(dim, dtype=complex),
        w=w,
        x0=w.copy(),
        xm2=w.copy(),
        K=K,
    )
    expectations = ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=True,
        expected_bounds=(1.0, 1.0),
        bounds_of="sampling",
        expected_rho=0.0,
    )
    return ScenarioBundle("thm38_onb", spec, expectations)


def _build_thm314_counterexample(
    params: SpectralParams, K: int, tol: Tolerances
) -> ScenarioBundle:
    dim = 4 * K
    lam = np.geomspace(0.1, 0.9, dim)
    A = np.diag(lam).astype(complex)
    w = counterexample_source(K)
    g_vec = (np.eye(dim, dtype=complex) - A) @ w
    g = VectorFamily(vectors=g_vec[np.newaxis, :])
    W_basis = (w / np.linalg.norm(w))[:, np.newaxis]
    x0 = counterexample_nullifier(A, g, w, K)
    spec = SystemSpec(
        params=params,
        dim=dim,
        A=A,
        g=g,
        W_basis=W_basis,
        w=w,
        x0=x0,
        xm2=x0.copy(),
        K=K,
    )
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
    return ScenarioBundle("thm314_counterexample", spec, expectations)


def _build_thm317_generalized(
    params: SpectralParams, K: int, tol: Tolerances
) -> ScenarioBundle:
    dim = 4 * K
    p0 = position(LambdaIndex(0, 0), K)
    pm2 = position(LambdaIndex(-1, 0), K)
    diag = np.full(dim, 2.0)
    diag[[p0, pm2]] = 1.0
    A = np.diag(diag).astype(complex)
    w_positions = [p for p in range(dim) if p not in (p0, pm2)]
    B = _basis_columns(dim, w_positions)
    rng = _scenario_rng("thm317_generalized", params, K)
    y = rng.standard_normal(len(w_positions)) + 1j * rng.standard_normal(len(w_positions))
    y /= np.linalg.norm(y)
    w = B @ y
    g = _onb(dim)
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
    # The stationary map fixes S(w) = -w on W; its adjoint family
    # S* g_j = apply* g_j is built as stationary_map_from_A builds it.
    apply = -B
    smap = StationaryMap(
        apply=apply,
        adjoint=FrameAnalysis(VectorFamily(vectors=g.vectors @ apply.conj()), tol=tol),
        W_basis=B,
        rho=linalg.spectral_radius(A),
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


def _build_thm319_quarter(
    params: SpectralParams, K: int, tol: Tolerances
) -> ScenarioBundle:
    dim = 4 * K
    p0 = position(LambdaIndex(0, 0), K)
    p1 = position(LambdaIndex(0, 1), K)
    B = _basis_columns(dim, [p0, p1])
    w = np.zeros(dim, dtype=complex)
    w[[p0, p1]] = QUARTER_SOURCE
    A = 0.25 * np.eye(dim, dtype=complex)
    g = _onb(dim)
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
    expectations = ScenarioExpectations(
        should_recover_finite=True,
        should_recover_infinite=True,
        expected_bounds=(16.0 / 9.0, 16.0 / 9.0),
        bounds_of="adjoint",
        expected_rho=0.25,
    )
    return ScenarioBundle("thm319_quarter", spec, expectations)


@dataclass(frozen=True)
class Scenario:
    """A packaged scenario: its builder, its default and largest K, and a floor."""

    build: Callable[[SpectralParams, int, Tolerances], ScenarioBundle]
    default_K: int
    floor_K: int  # the smallest K is min_K(), which may raise thm319's
    max_K: int | None  # None: no largest K


# Scenario(build, default_K, floor_K, max_K).  The finite cases at 0 and r/N
# read the row at 2, which the window holds from K = 2 on; thm314 runs no
# finite recovery.  Only thm314 has a largest K: its nullifier is a
# least-squares witness whose rows g* A^n decay like 0.1^n to 0.9^n over
# n < 2K, so its conditioning grows exponentially in K: its largest
# simulated sample is 1e-15 at K = 2, 9.3e-10 at K = 8 and 3.0e-7, above
# ORACLE_TOL, at K = 9.
SCENARIOS = {
    "thm312_diagonal": Scenario(_build_thm312_diagonal, 4, 2, None),
    "thm38_onb": Scenario(_build_thm38_onb, 3, 2, None),
    "thm314_counterexample": Scenario(_build_thm314_counterexample, 3, 1, 8),
    "thm317_generalized": Scenario(_build_thm317_generalized, 5, 2, None),
    "thm319_quarter": Scenario(_build_thm319_quarter, 20, 2, None),
}


def min_K(scenario_id: str, *, tol: Tolerances = DEFAULTS) -> int:
    """Smallest K on which the scenario's recovery can run at ``tol``.

    In thm319 both orbits start at x0 = 0 and contract toward S(w) = 4w/3
    along one ray, x_n - S(w) = 4^-n (x0 - S(w)).  The edge rows that
    enter the tail gap (``dynamics.TAIL`` = 2 per end) sit at steps 2K - 2
    and 2K - 1, so two conditions set the minimum:

    - their gap, below 4^-(2K-2) ||x0 - S(w)||, must clear ``tol.BS_TOL``;
    - the limit row, their mean, misses S(w) by 5/8 4^-(2K-2) ||x0 - S(w)||
      along the ray, and the recovered source misses w by 3/4 of that
      (S^-1 = 3/4 on W), which must clear the fixed LIMIT_ORACLE_TOL.
    """
    smallest = SCENARIOS[scenario_id].floor_K
    if scenario_id != "thm319_quarter":
        return smallest
    distance = 4.0 / 3.0 * math.hypot(*QUARTER_SOURCE)
    # In log space: distance / BS_TOL overflows for a subnormal BS_TOL.
    steps = max(
        math.log(distance, 4) - math.log(tol.BS_TOL, 4),
        math.log(15.0 / 32.0 * distance / LIMIT_ORACLE_TOL, 4),
        0.0,
    )
    return max(smallest, math.ceil(steps / 2) + 1)


def build(
    scenario_id: str, params: SpectralParams, K: int | None, *, tol: Tolerances = DEFAULTS
) -> ScenarioBundle:
    """Build a scenario system deterministically from (id, r, N, K).

    A K of None is the scenario's ``default_K``.  Raises ``ValueError``
    for an unknown id, or for a K below :func:`min_K` or above the
    scenario's ``max_K``, naming that limit.
    """
    try:
        scenario = SCENARIOS[scenario_id]
    except KeyError:
        raise ValueError(
            f"unknown scenario id {scenario_id!r}; known ids: {', '.join(SCENARIOS)}"
        ) from None
    if K is None:
        K = scenario.default_K
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    smallest = min_K(scenario_id, tol=tol)
    if K < smallest:
        why = (
            f"its edge rows clear BS_TOL = {tol.BS_TOL:.1e} and its limit "
            f"recovery clears LIMIT_ORACLE_TOL = {LIMIT_ORACLE_TOL:.0e} only from there"
            if scenario_id == "thm319_quarter"
            else "finite recovery at r/N reads the row at 2"
        )
        raise ValueError(f"{scenario_id} needs K >= {smallest}, got K = {K}: {why}")
    if scenario.max_K is not None and K > scenario.max_K:
        raise ValueError(
            f"{scenario_id} needs K <= {scenario.max_K}, got K = {K}: beyond it the "
            f"nullifier's least-squares witness is too ill-conditioned for "
            f"float arithmetic to zero the simulated samples "
            f"to {ORACLE_TOL:.0e}"
        )
    return scenario.build(params, K, tol)


def _close(a: float, b: float, bound: float) -> bool:
    return abs(a - b) <= bound


def run_scenario(
    bundle: ScenarioBundle, *, tol: Tolerances = DEFAULTS
) -> tuple[dict, list[str]]:
    """Execute the scenario's recovery and check its expectations.

    Each recovery runs once, from one :class:`SystemAnalysis`, and the
    measured bounds are read from the recovery that computed them.  The
    stationary map, where there is one, is read first, so a refused map
    ends the run before any recovery.  thm314 is judged on the simulated data.

    Returns (report document, failures); an empty failure list means
    every expectation held.
    """
    spec = bundle.spec
    exp = bundle.expectations
    failures: list[str] = []
    smap = bundle.smap
    system = SystemAnalysis(spec, tol=tol, rho=None if smap is None else smap.rho)
    if smap is None and (exp.should_recover_infinite or bundle.id == "thm314_counterexample"):
        smap = system.stationary_map
    traj, D, rho = system.trajectory, system.data, system.rho
    finite_reports = []
    if exp.should_recover_finite:
        finite_reports = finite_recovery_report(
            D, FINITE_CASES, spec.A, system.sampling, spec.w, rho=rho, tol=tol
        )
    limit = None if smap is None else reconstruct_infinite(D, smap, spec.w, tol=tol)

    if not _close(rho, exp.expected_rho, RHO_ORACLE_TOL):
        failures.append(f"spectral radius {rho:.8g} != expected {exp.expected_rho:.8g}")
    # thm314's map is the system's own, whose adjoint family is the
    # subspace family {P_W (I - A*)^-1 g_j}: the limit recovery holds its
    # bounds.
    bounds = finite_reports[0].bounds if exp.bounds_of == "sampling" else limit.bounds
    if not (
        _close(bounds.alpha, exp.expected_bounds[0], ORACLE_TOL)
        and _close(bounds.beta, exp.expected_bounds[1], ORACLE_TOL)
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
        "expectations": asdict(exp),
        "measured": {
            "rho": rho,
            "bounds": [bounds.alpha, bounds.beta],
        },
    }

    if bundle.id == "thm314_counterexample":
        samples = D.values[:, 0]
        worst = float(np.max(np.abs(samples)))
        if worst > ORACLE_TOL:
            failures.append(f"nullified sample of size {worst:.3e} exceeds 1e-8")
        if float(np.linalg.norm(spec.w)) < 1.0:
            failures.append("source norm fell below 1")
        if system.sampling.bounds.is_frame(tol=tol):
            failures.append(
                "sampling family unexpectedly a frame for the ambient space"
            )
        if not bounds.is_frame(tol=tol):
            failures.append("subspace condition unexpectedly failed")
        # The windowed data is identically zero, so the limit route
        # returns (approximately) nothing while the true source is unit-plus.
        if float(np.linalg.norm(limit.w_hat)) > LIMIT_ORACLE_TOL:
            failures.append("limit recovery saw a nonzero source in nullified data")
        report["measurements"] = [
            {
                "lambda": {
                    "m": idx.m,
                    "eps": idx.eps,
                    "label": index_label(idx, spec.params),
                },
                "value": linalg.complex_to_pair(value),
            }
            for idx, value in zip(D.order, samples)
        ]
        report["recovery"] = limit.to_json()
        report["necessary_condition_only"] = True
        return report, failures

    if exp.should_recover_finite:
        for at, rep in zip(FINITE_CASES, finite_reports):
            if rep.abs_error > ORACLE_TOL:
                failures.append(
                    f"finite recovery at {index_label(at, spec.params)} missed: "
                    f"abs_error = {rep.abs_error}"
                )
        report["recovery"] = finite_reports[0].to_json()
        report["finite_cases"] = {rep.case: rep.abs_error for rep in finite_reports}

    if bundle.id == "thm38_onb":
        limit_vec = limit_operator(D, spec.g, tol=tol)
        ratio = float(np.linalg.norm(limit_vec)) / sup_row_norm(D)
        report["limit_norm_ratio"] = ratio
        if abs(ratio - 1.0) > ORACLE_TOL:
            failures.append(f"limit operator norm ratio {ratio!r} != 1")

    if exp.should_recover_infinite:
        threshold = LIMIT_ORACLE_TOL if bundle.id == "thm319_quarter" else ORACLE_TOL
        if limit.abs_error > threshold:
            failures.append(
                f"limit recovery missed: abs_error = {limit.abs_error} > {threshold}"
            )
        report["recovery"] = limit.to_json()
        s_w = smap.stationary_state(spec.w)
        report["stationary_deviation"] = stationary_deviation(traj, s_w)
        if bundle.id == "thm319_quarter":
            # Geometric convergence of every state toward the stationary one.
            base = float(np.linalg.norm(spec.x0 - s_w))
            steps = np.array([power_of(idx) for idx in traj.order])
            dist = np.linalg.norm(traj.values - s_w, axis=1)
            worst_excess = max(0.0, float(np.max(dist - (0.25**steps) * base)))
            report["convergence_excess"] = worst_excess
            if worst_excess > GEOMETRIC_SLACK:
                failures.append(
                    f"state convergence violated the geometric bound by {worst_excess:.3e}"
                )

    return report, failures
