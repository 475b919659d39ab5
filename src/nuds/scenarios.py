"""Reproducible builders for the worked examples and the counterexample.

Each scenario id maps to one :class:`Scenario` record: a deterministic
builder (the same (id, r, N, K) gives bit-identical data), the
expectations of its run, its range of K and its own checks.
``run_scenario`` judges a run by its record alone; the CLI ``demo``
command is a thin wrapper around it.

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
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import linalg
from .dynamics import SystemSpec, stationary_deviation, sup_row_norm
from .frames import VectorFamily, synthesis
from .lattice import (
    LambdaIndex,
    SpectralParams,
    index_label,
    position,
    power_of,
    window,
)
from .linalg import Mat, Vec
from .recovery import (
    RecoveryReport,
    SystemAnalysis,
    counterexample_nullifier,
    finite_recovery_report,
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
    expected_bounds: tuple[float, float] | None  # None in a record: its builder's
    bounds_of: str  # which family the bounds describe: sampling|adjoint|subspace
    expected_rho: float
    notes: tuple[str, ...] = ()


class Built(NamedTuple):
    """A builder's system, with what only K decides beside it."""

    spec: SystemSpec
    resolvent: Mat | None = None  # a given X = (I - A)^-1 B (thm317: I - A is singular)
    expected_bounds: tuple[float, float] | None = None  # in place of the record's


@dataclass(frozen=True)
class Scenario:
    """A packaged scenario: its builder, expectations, range of K and own checks.

    The smallest K is ``floor_K``, raised to ``raise_floor(tol)`` where the
    tolerances need more; ``floor_why`` (formatted with ``tol``) and
    ``max_why`` say why a K out of range is refused.  ``limit_oracle``
    judges the limit recovery's error.  A check reads the run's
    ``(SystemAnalysis, limit recovery)``, the limit report None where there
    is none, and gives the report keys it adds and its failures: ``checks``
    after the finite recovery's, ``limit_checks`` after the limit
    recovery's.  A builder's ``Built.resolvent`` seeds the record's, which
    then admits the stationary map without the radius check.
    """

    build: Callable[[SpectralParams, int], Built]
    expectations: ScenarioExpectations
    default_K: int
    floor_K: int = 2
    floor_why: str = "finite recovery at r/N reads the row at 2"
    raise_floor: Callable[[Tolerances], int] | None = None
    max_K: int | None = None  # None: no largest K
    max_why: str = ""
    limit_oracle: float = ORACLE_TOL
    checks: tuple[Callable[..., tuple[dict, list[str]]], ...] = ()
    limit_checks: tuple[Callable[..., tuple[dict, list[str]]], ...] = ()


@dataclass
class ScenarioBundle:
    """A built scenario: its record, expectations and system.

    ``system`` is the built spec's analysis at the build's tolerances and given resolvent.
    """

    id: str
    scenario: Scenario
    system: SystemAnalysis
    expectations: ScenarioExpectations


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


def _build_thm312_diagonal(params: SpectralParams, K: int) -> Built:
    dim = 4 * K
    diag = np.zeros(dim)
    for idx in window(K):
        if idx.eps == 0:
            diag[position(idx, K)] = 2.0 ** (-idx.m) if idx.m >= 0 else 2.0 ** idx.m
    A = np.diag(diag).astype(complex)
    rng = _scenario_rng("thm312_diagonal", params, K)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    x0 = np.zeros(dim, dtype=complex)
    x0[position(LambdaIndex(0, 1), K)] = 1.0
    xm2 = np.zeros(dim, dtype=complex)
    xm2[position(LambdaIndex(-1, 0), K)] = 1.0
    W, g = np.eye(dim, dtype=complex), _onb(dim)
    return Built(SystemSpec(params=params, A=A, g=g, W_basis=W, w=w, x0=x0, xm2=xm2, K=K))


def _build_thm38_onb(params: SpectralParams, K: int) -> Built:
    dim = 4 * K
    w = np.zeros(dim, dtype=complex)
    w[position(LambdaIndex(0, 0), K)] = 1.0
    A, W, g = np.zeros((dim, dim), dtype=complex), np.eye(dim, dtype=complex), _onb(dim)
    x0, xm2 = w.copy(), w.copy()
    return Built(SystemSpec(params=params, A=A, g=g, W_basis=W, w=w, x0=x0, xm2=xm2, K=K))


def _build_thm314_counterexample(params: SpectralParams, K: int) -> Built:
    dim = 4 * K
    lam = np.geomspace(0.1, 0.9, dim)
    A = np.diag(lam).astype(complex)
    w = counterexample_source(K)
    g_vec = (np.eye(dim, dtype=complex) - A) @ w
    g = VectorFamily(vectors=g_vec[np.newaxis, :])
    W = (w / np.linalg.norm(w))[:, np.newaxis]
    x0 = counterexample_nullifier(A, g, w, K)
    spec = SystemSpec(params=params, A=A, g=g, W_basis=W, w=w, x0=x0, xm2=x0.copy(), K=K)
    norm_w_sq = float(np.linalg.norm(w)) ** 2
    return Built(spec, expected_bounds=(norm_w_sq, norm_w_sq))


def _build_thm317_generalized(params: SpectralParams, K: int) -> Built:
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
    spec = SystemSpec(params=params, A=A, g=g, W_basis=B, w=w, x0=-w, xm2=-w, K=K)
    # I - A is singular, yet X = -B solves (I - A) X = B: A is 1 only off W.
    # The stationary map fixes S(w) = -w on W.
    return Built(spec, resolvent=-B)


def _build_thm319_quarter(params: SpectralParams, K: int) -> Built:
    dim = 4 * K
    p0 = position(LambdaIndex(0, 0), K)
    p1 = position(LambdaIndex(0, 1), K)
    B = _basis_columns(dim, [p0, p1])
    w = np.zeros(dim, dtype=complex)
    w[[p0, p1]] = QUARTER_SOURCE
    A, g = 0.25 * np.eye(dim, dtype=complex), _onb(dim)
    x0, xm2 = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
    return Built(SystemSpec(params=params, A=A, g=g, W_basis=B, w=w, x0=x0, xm2=xm2, K=K))


def _nullified_data(system: SystemAnalysis, limit: RecoveryReport) -> tuple[dict, list[str]]:
    """thm314, judged on its simulated data: every sample vanishes, w is unit-plus.

    The sampling family must be no frame, and the limit must see no source.
    That the subspace family is a frame needs no check here: it is the
    map's adjoint family ``X* g_j = P_W (I - A*)^-1 g_j``, which the limit
    recovery has already refused unless it is a frame.
    """
    spec, D = system.spec, system.data
    samples = D.values[:, 0]
    failures = []
    worst = float(np.max(np.abs(samples)))
    if worst > ORACLE_TOL:
        failures.append(f"nullified sample of size {worst:.3e} exceeds 1e-8")
    if float(np.linalg.norm(spec.w)) < 1.0:
        failures.append("source norm fell below 1")
    if system.sampling.is_frame:
        failures.append("sampling family unexpectedly a frame for the ambient space")
    if float(np.linalg.norm(limit.w_hat)) > LIMIT_ORACLE_TOL:
        failures.append("limit recovery saw a nonzero source in nullified data")
    measurements = [
        {
            "lambda": {"m": idx.m, "eps": idx.eps, "label": index_label(idx, spec.params)},
            "value": linalg.complex_to_pair(value),
        }
        for idx, value in zip(D.order, samples)
    ]
    return {"measurements": measurements, "necessary_condition_only": True}, failures


def _limit_norm_ratio(system: SystemAnalysis, limit: RecoveryReport) -> tuple[dict, list[str]]:
    """thm38: the limit operator's norm over the sup row norm is exactly 1.

    The limit recovery has already required the rows to converge.
    """
    limit_vec = synthesis(system.limit.limit_row, system.spec.g)
    ratio = float(np.linalg.norm(limit_vec)) / sup_row_norm(system.data)
    failure = f"limit operator norm ratio {ratio!r} != 1"
    return {"limit_norm_ratio": ratio}, [failure] if abs(ratio - 1.0) > ORACLE_TOL else []


def _geometric_convergence(
    system: SystemAnalysis, limit: RecoveryReport
) -> tuple[dict, list[str]]:
    """thm319: every state x_n is within 4^-n ||x0 - S(w)|| of S(w)."""
    spec, traj, s_w = system.spec, system.trajectory, system.stationary_state
    base = float(np.linalg.norm(spec.x0 - s_w))
    steps = np.array([power_of(idx) for idx in traj.order])
    dist = np.linalg.norm(traj.values - s_w, axis=1)
    excess = max(0.0, float(np.max(dist - (0.25**steps) * base)))
    failure = f"state convergence violated the geometric bound by {excess:.3e}"
    return {"convergence_excess": excess}, [failure] if excess > GEOMETRIC_SLACK else []


def _quarter_min_K(tol: Tolerances) -> int:
    """The smallest K on which thm319's edge rows and limit recovery clear.

    Both orbits start at x0 = 0 and contract toward S(w) = 4w/3 along one
    ray, x_n - S(w) = 4^-n (x0 - S(w)).  The edge rows that enter the tail
    gap (``dynamics.TAIL`` = 2 per end) sit at steps 2K - 2 and 2K - 1, so
    two conditions set the minimum:

    - their gap, below 4^-(2K-2) ||x0 - S(w)||, must clear ``tol.BS_TOL``;
    - the limit row, their mean, misses S(w) by 5/8 4^-(2K-2) ||x0 - S(w)||
      along the ray, and the recovered source misses w by 3/4 of that
      (S^-1 = 3/4 on W), which must clear the fixed LIMIT_ORACLE_TOL.
    """
    distance = 4.0 / 3.0 * math.hypot(*QUARTER_SOURCE)
    # In log space: distance / BS_TOL overflows for a subnormal BS_TOL.
    steps = max(
        math.log(distance, 4) - math.log(tol.BS_TOL, 4),
        math.log(15.0 / 32.0 * distance / LIMIT_ORACLE_TOL, 4),
        0.0,
    )
    return math.ceil(steps / 2) + 1


# The finite cases at 0 and r/N read the row at 2, which the window holds
# from K = 2 on; thm314 runs no finite recovery.  Only thm314 has a largest
# K: its nullifier is a least-squares witness whose rows g* A^n decay like
# 0.1^n to 0.9^n over n < 2K, so its conditioning grows exponentially in K.
# Its largest simulated sample is rounding noise that depends on the solver,
# so K = 8 is kept by its margin: 9.3e-10 with numpy's lstsq, 3.5e-10 with
# LAPACK's gelss and 8.7e-10 with gelsy, each at least 10x below ORACLE_TOL;
# at K = 9 it is 3.0e-7, above it.
SCENARIOS = {
    "thm312_diagonal": Scenario(
        _build_thm312_diagonal,
        ScenarioExpectations(
            should_recover_finite=True, should_recover_infinite=False,
            expected_bounds=(1.0, 1.0), bounds_of="sampling", expected_rho=1.0,
            notes=("diagonal restricted to the finite window",),
        ),
        default_K=4,
    ),
    "thm38_onb": Scenario(
        _build_thm38_onb,
        ScenarioExpectations(
            should_recover_finite=True, should_recover_infinite=True,
            expected_bounds=(1.0, 1.0), bounds_of="sampling", expected_rho=0.0,
        ),
        default_K=3,
        checks=(_limit_norm_ratio,),
    ),
    "thm314_counterexample": Scenario(
        _build_thm314_counterexample,
        ScenarioExpectations(
            should_recover_finite=False, should_recover_infinite=False,
            expected_bounds=None, bounds_of="subspace", expected_rho=0.9,
            notes=(
                "the subspace condition is necessary only: it holds here while "
                "every windowed measurement vanishes",
                "source pattern extended beyond the innermost coordinates by its "
                "evident power law",
            ),
        ),
        default_K=3,
        floor_K=1,
        max_K=8,
        max_why=(
            "beyond it the nullifier's least-squares witness is too ill-conditioned "
            f"for float arithmetic to zero the simulated samples to {ORACLE_TOL:.0e}"
        ),
        checks=(_nullified_data,),
    ),
    "thm317_generalized": Scenario(
        _build_thm317_generalized,
        ScenarioExpectations(
            should_recover_finite=True, should_recover_infinite=True,
            expected_bounds=(1.0, 1.0), bounds_of="adjoint", expected_rho=2.0,
            notes=("paper-typo-corrected",),
        ),
        default_K=5,
    ),
    "thm319_quarter": Scenario(
        _build_thm319_quarter,
        ScenarioExpectations(
            should_recover_finite=True, should_recover_infinite=True,
            expected_bounds=(16.0 / 9.0, 16.0 / 9.0), bounds_of="adjoint", expected_rho=0.25,
        ),
        default_K=20,
        floor_why=(
            "its edge rows clear BS_TOL = {tol.BS_TOL:.1e} and its limit recovery "
            f"clears LIMIT_ORACLE_TOL = {LIMIT_ORACLE_TOL:.0e} only from there"
        ),
        raise_floor=_quarter_min_K,
        limit_oracle=LIMIT_ORACLE_TOL,
        limit_checks=(_geometric_convergence,),
    ),
}


def _scenario(scenario_id: str) -> Scenario:
    """The record of ``scenario_id``; ``ValueError`` naming the known ids if none."""
    if scenario_id not in SCENARIOS:
        known = ", ".join(SCENARIOS)
        raise ValueError(f"unknown scenario id {scenario_id!r}; known ids: {known}")
    return SCENARIOS[scenario_id]


def min_K(scenario_id: str, *, tol: Tolerances = DEFAULTS) -> int:
    """Smallest K on which the scenario's recovery can run at ``tol``.

    That is the record's ``floor_K``, raised to ``raise_floor(tol)`` where
    the record has one.  Raises ``ValueError`` for an unknown id.
    """
    scenario = _scenario(scenario_id)
    raised = 0 if scenario.raise_floor is None else scenario.raise_floor(tol)
    return max(scenario.floor_K, raised)


def build(
    scenario_id: str, params: SpectralParams, K: int | None, *, tol: Tolerances = DEFAULTS
) -> ScenarioBundle:
    """Build a scenario system deterministically from (id, r, N, K), analysed at ``tol``.

    A K of None is the scenario's ``default_K``.  Raises ``ValueError``
    for an unknown id, or for a K below :func:`min_K` or above the
    scenario's ``max_K``, naming that limit.
    """
    scenario = _scenario(scenario_id)
    if K is None:
        K = scenario.default_K
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    smallest = min_K(scenario_id, tol=tol)
    if K < smallest:
        why = scenario.floor_why.format(tol=tol)
        raise ValueError(f"{scenario_id} needs K >= {smallest}, got K = {K}: {why}")
    if scenario.max_K is not None and K > scenario.max_K:
        why = scenario.max_why
        raise ValueError(f"{scenario_id} needs K <= {scenario.max_K}, got K = {K}: {why}")
    spec, resolvent, bounds = scenario.build(params, K)
    exp = scenario.expectations if bounds is None else replace(
        scenario.expectations, expected_bounds=bounds
    )
    system = SystemAnalysis(spec, tol=tol, resolvent=resolvent)
    return ScenarioBundle(scenario_id, scenario, system, exp)


def _close(a: float, b: float, bound: float) -> bool:
    return abs(a - b) <= bound


def run_scenario(bundle: ScenarioBundle) -> tuple[dict, list[str]]:
    """Execute the scenario's recoveries and check its expectations.

    The bundle's :class:`SystemAnalysis`, at its own tolerances, is all
    the run reads of the system.  Each recovery runs once, and the
    measured bounds are read from the recovery that computed them
    (``bounds_of``).  The limit recovery runs where the expectations ask
    for it or read its bounds; the record's stationary map, from the
    builder's resolvent where there is one, is read first, so a refused
    map ends the run before any recovery.  ``recovery`` holds the limit
    report where there is one.  The record's own checks then add their
    report keys and failures.

    Returns (report document, failures); an empty failure list means
    every expectation held.
    """
    system, exp, scenario = bundle.system, bundle.expectations, bundle.scenario
    spec = system.spec
    failures: list[str] = []
    run_limit = exp.should_recover_infinite or exp.bounds_of != "sampling"
    if run_limit:
        system.stationary_map  # a refused map ends the run here
    traj, rho = system.trajectory, system.rho
    finite_reports = []
    if exp.should_recover_finite:
        finite_reports = finite_recovery_report(FINITE_CASES, system)
    limit = reconstruct_infinite(system) if run_limit else None

    if not _close(rho, exp.expected_rho, RHO_ORACLE_TOL):
        failures.append(f"spectral radius {rho:.8g} != expected {exp.expected_rho:.8g}")
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
        "measured": {"rho": rho, "bounds": [bounds.alpha, bounds.beta]},
        "recovery": (finite_reports[0] if limit is None else limit).to_json(),
    }

    def run_own(checks) -> None:
        for check in checks:
            keys, found = check(system, limit)
            report.update(keys)
            failures.extend(found)

    if exp.should_recover_finite:
        for at, rep in zip(FINITE_CASES, finite_reports):
            if rep.abs_error > ORACLE_TOL:
                failures.append(
                    f"finite recovery at {index_label(at, spec.params)} missed: "
                    f"abs_error = {rep.abs_error}"
                )
        report["finite_cases"] = {rep.case: rep.abs_error for rep in finite_reports}
    run_own(scenario.checks)

    if exp.should_recover_infinite:
        if limit.abs_error > scenario.limit_oracle:
            failures.append(
                f"limit recovery missed: abs_error = {limit.abs_error} > {scenario.limit_oracle}"
            )
        report["stationary_deviation"] = stationary_deviation(traj, system.stationary_state)
    run_own(scenario.limit_checks)

    return report, failures
