"""Command-line front end: simulate, recover, check, demo.

Configs and reports are JSON (complex scalars as [re, im] pairs,
top-level "schema": 1); bulk numeric dumps are CSV.  Exit codes are a
stable contract: 0 success, 1 numerical failure, 2 config problem,
3 recoverability-condition failure, 4 demo expectation mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .dynamics import (
    SystemSpec,
    bs_membership,
    data_matrix,
    data_matrix_to_csv,
    simulate,
    sup_row_norm,
    trajectory_to_csv,
)
from .frames import NotAFrameError, VectorFamily
from .lattice import LambdaIndex, SpectralParams, window
from .linalg import NumericalError
from .recovery import (
    ConditionFailure,
    finite_recovery_report,
    reconstruct_infinite,
    recovery_certificate_full,
    stationary_map_from_A,
    subspace_condition,
)
from .scenarios import DEFAULT_K, build, run_scenario
from .tolerances import Tolerances

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_CONDITION = 3
EXIT_EXPECTATION = 4

DEFAULT_TAIL = 2


@dataclass
class Config:
    """Parsed and validated CLI configuration."""

    params: SpectralParams
    dim: int
    K: int
    A: np.ndarray
    g: VectorFamily
    W_basis: np.ndarray
    w: np.ndarray
    x0: np.ndarray
    xm2: np.ndarray
    tolerances: Tolerances

    def to_system_spec(self) -> SystemSpec:
        return SystemSpec(
            params=self.params,
            dim=self.dim,
            A=self.A,
            g=self.g,
            W_basis=self.W_basis,
            w=self.w,
            x0=self.x0,
            xm2=self.xm2,
            K=self.K,
        )


def _require(doc: dict, key: str, where: str = "config"):
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{where} is missing required key {key!r}") from None
    except TypeError:
        raise ValueError(f"{where} must be a JSON object, got {doc!r}") from None


def _integer(doc: dict, key: str, where: str = "config") -> int:
    """An integral number: 4 and 4.0 are accepted; 4.7, "4", null and true are not."""
    raw = _require(doc, key, where)
    try:
        integral = not isinstance(raw, bool) and int(raw) == raw
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{key} must be an integer, got {raw!r}")
    return int(raw)


def _field(doc: dict, key: str, parse, *args):
    """Parse the required value doc[key], naming the key in any error."""
    raw = _require(doc, key)
    try:
        return parse(raw, *args)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _parse_operator(raw, dim: int) -> np.ndarray:
    if isinstance(raw, list):
        A = linalg.matrix_from_pairs(raw)
    elif isinstance(raw, dict) and "generator" in raw:
        name = raw["generator"]
        if name == "diag":
            entries = linalg.vector_from_pairs(_require(raw, "entries", "generator"))
            A = np.diag(entries)
        elif name == "scaled_identity":
            scale = linalg.pair_to_complex(_require(raw, "scale", "generator"))
            A = scale * np.eye(dim, dtype=complex)
        else:
            raise ValueError(
                f"unknown operator generator {name!r} (expected 'diag' or "
                "'scaled_identity')"
            )
    else:
        raise ValueError("expected a dense matrix or a generator object")
    if A.shape != (dim, dim):
        raise ValueError(f"matrix has shape {A.shape}, expected ({dim}, {dim})")
    return A


def _parse_family(raw, dim: int, K: int) -> VectorFamily:
    if raw == "onb":
        labels = tuple(window(K)) if dim == 4 * K else None
        return VectorFamily(vectors=np.eye(dim, dtype=complex), labels=labels)
    if isinstance(raw, list):
        rows = [linalg.vector_from_pairs(v) for v in raw]
        return VectorFamily(vectors=np.array(rows, dtype=complex))
    raise ValueError("expected 'onb' or a list of vectors")


def _parse_subspace(raw, dim: int) -> np.ndarray:
    if raw == "full":
        return np.eye(dim, dtype=complex)
    if isinstance(raw, list):
        cols = [linalg.vector_from_pairs(c) for c in raw]
        return np.array(cols, dtype=complex).T
    raise ValueError("expected 'full' or a list of basis columns")


def parse_config(doc: dict, tol_overrides: dict | None = None) -> Config:
    """Validate a config document and build the typed configuration."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    schema = doc.get("schema", 1)
    if schema != 1:
        raise ValueError(f"config schema version must be 1, got {schema!r}")
    params_doc = _require(doc, "params")
    params = SpectralParams(
        N=_integer(params_doc, "N", "params"), r=_integer(params_doc, "r", "params")
    )
    dim = _integer(doc, "dim")
    K = _integer(doc, "K")
    A = _field(doc, "A", _parse_operator, dim)
    g = _field(doc, "g", _parse_family, dim, K)
    W_basis = _field(doc, "W", _parse_subspace, dim)
    w = _field(doc, "w", linalg.vector_from_pairs)
    x0 = _field(doc, "x0", linalg.vector_from_pairs)
    xm2 = _field(doc, "xm2", linalg.vector_from_pairs)
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise ValueError(f"tolerances must be a JSON object, got {tol_doc!r}")
    tolerances = Tolerances().with_overrides(tol_doc)
    if tol_overrides:
        tolerances = tolerances.with_overrides(tol_overrides)
    return Config(
        params=params,
        dim=dim,
        K=K,
        A=A,
        g=g,
        W_basis=W_basis,
        w=w,
        x0=x0,
        xm2=xm2,
        tolerances=tolerances,
    )


def config_to_json(spec: SystemSpec, tolerances: Tolerances | None = None) -> dict:
    """Serialize a system to the canonical (fully explicit) config form."""
    tol = tolerances or Tolerances()
    return {
        "schema": 1,
        "params": {"N": spec.params.N, "r": spec.params.r},
        "dim": spec.dim,
        "K": spec.K,
        "A": linalg.matrix_to_pairs(spec.A),
        "g": [linalg.vector_to_pairs(v) for v in spec.g.vectors],
        "W": [linalg.vector_to_pairs(c) for c in spec.W_basis.T],
        "w": linalg.vector_to_pairs(spec.w),
        "x0": linalg.vector_to_pairs(spec.x0),
        "xm2": linalg.vector_to_pairs(spec.xm2),
        "tolerances": {name: getattr(tol, name) for name in Tolerances.names()},
    }


def _load_config(path: str, tol_overrides: dict | None) -> Config:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, tol_overrides)


def _parse_tol_flags(pairs: list[str]) -> dict:
    overrides = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--tol-override expects KEY=VAL, got {item!r}")
        key, _, val = item.partition("=")
        try:
            overrides[key.strip()] = float(val)
        except ValueError:
            raise ValueError(f"--tol-override value for {key!r} is not a number") from None
    return overrides


def _config_path(args) -> str:
    path = args.config or getattr(args, "config_pos", None)
    if not path:
        raise ValueError("no config given; pass a path or --config")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    cfg = _load_config(_config_path(args), _parse_tol_flags(args.tol_override))
    spec = cfg.to_system_spec()
    traj = simulate(spec)
    D = data_matrix(traj, spec.g)
    out = _out_dir(args)
    traj_path = out / "trajectory.csv"
    dm_path = out / "data_matrix.csv"
    trajectory_to_csv(traj, spec.params, traj_path)
    data_matrix_to_csv(D, spec.params, dm_path)
    print(f"wrote {traj_path} and {dm_path} ({traj.values.shape[0]} window rows)")
    return EXIT_OK


def cmd_recover(args) -> int:
    cfg = _load_config(_config_path(args), _parse_tol_flags(args.tol_override))
    tol = cfg.tolerances
    spec = cfg.to_system_spec()
    traj = simulate(spec)
    D = data_matrix(traj, spec.g)
    if args.mode == "finite":
        report = finite_recovery_report(
            D,
            LambdaIndex(0, 0),
            spec.A,
            spec.g,
            w_true=spec.w,
            frame_tol=tol.FRAME_TOL,
        )
        ok = report.residual <= tol.SOLVE_TOL * (1.0 + sup_row_norm(D))
    else:
        smap = stationary_map_from_A(
            spec.A, spec.g, spec.W_basis, rho_margin=tol.RHO_MARGIN
        )
        report = reconstruct_infinite(
            D,
            smap,
            DEFAULT_TAIL,
            w_true=spec.w,
            frame_tol=tol.FRAME_TOL,
            bs_tol=tol.BS_TOL,
        )
        ok = report.residual <= tol.BS_TOL
    out = _out_dir(args)
    report_path = out / "report.json"
    _write_json(report_path, report.to_json())
    print(
        f"wrote {report_path}: residual {report.residual:.3e}, "
        f"abs_error {report.abs_error:.3e}"
    )
    if not ok:
        print("recovery residual above tolerance", file=sys.stderr)
        return EXIT_CONDITION
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _load_config(_config_path(args), _parse_tol_flags(args.tol_override))
    tol = cfg.tolerances
    spec = cfg.to_system_spec()
    rows: list[tuple[str, str]] = []
    cert = recovery_certificate_full(spec.g)
    rows.append(
        (
            "sampling family bounds",
            f"alpha={cert.alpha:.8g} beta={cert.beta:.8g} "
            f"frame={'yes' if cert.is_frame(tol.FRAME_TOL) else 'no'}",
        )
    )
    try:
        sub = subspace_condition(spec.A, spec.g, spec.W_basis)
        rows.append(
            (
                "subspace condition bounds (necessary only)",
                f"alpha={sub.alpha:.8g} beta={sub.beta:.8g}",
            )
        )
    except NumericalError as exc:
        rows.append(("subspace condition bounds (necessary only)", f"unavailable: {exc}"))
    rho = linalg.spectral_radius(spec.A)
    rows.append(("spectral radius", f"{rho:.8g}"))
    try:
        smap = stationary_map_from_A(
            spec.A, spec.g, spec.W_basis, rho_margin=tol.RHO_MARGIN
        )
        adj = recovery_certificate_full(smap.adjoint_family)
        rows.append(
            (
                "adjoint family bounds on W",
                f"alpha={adj.alpha:.8g} beta={adj.beta:.8g} "
                f"frame={'yes' if adj.is_frame(tol.FRAME_TOL) else 'no'}",
            )
        )
    except ConditionFailure as exc:
        rows.append(("adjoint family bounds on W", f"unavailable: {exc}"))
    traj = simulate(spec)
    D = data_matrix(traj, spec.g)
    lim = bs_membership(D, min(DEFAULT_TAIL, 2 * spec.K), tol.BS_TOL)
    rows.append(
        (
            "row-convergence tail gap",
            f"{lim.tail_gap:.3e} ({'convergent' if lim.member else 'not convergent'})",
        )
    )
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


def cmd_demo(args) -> int:
    scenario_id = args.scenario
    K = args.K if args.K is not None else DEFAULT_K.get(scenario_id, 3)
    params = SpectralParams(N=args.N, r=args.r)
    bundle = build(scenario_id, params, K)
    report, failures = run_scenario(bundle, tail=DEFAULT_TAIL)
    out = _out_dir(args)
    report_path = out / f"{scenario_id}_report.json"
    report["expectations_met"] = not failures
    report["failures"] = failures
    _write_json(report_path, report)
    print(f"wrote {report_path}")
    if args.emit_config:
        config_path = out / f"{scenario_id}_config.json"
        _write_json(config_path, config_to_json(bundle.spec))
        print(f"wrote {config_path}")
    if failures:
        for line in failures:
            print(f"expectation failed: {line}", file=sys.stderr)
        return EXIT_EXPECTATION
    print(f"scenario {scenario_id} (K={K}): all expectations met")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuds",
        description=(
            "Simulate non-uniform lattice dynamics, audit recoverability "
            "conditions, and run source recovery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_config=True):
        if with_config:
            p.add_argument(
                "config_pos", nargs="?", metavar="CONFIG", help="config JSON path"
            )
            p.add_argument("--config", help="config JSON path (alternative to positional)")
        p.add_argument(
            "--tol-override",
            action="append",
            default=[],
            metavar="KEY=VAL",
            help="override a named tolerance (repeatable)",
        )

    p_sim = sub.add_parser("simulate", help="simulate and dump trajectory + data matrix")
    add_common(p_sim)
    p_sim.add_argument("--out", "-o", help="output directory (default: cwd)")
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recover", help="run source recovery and write a report")
    add_common(p_rec)
    p_rec.add_argument(
        "--mode", choices=("finite", "infinite"), default="finite",
        help="finite-step or limit recovery",
    )
    p_rec.add_argument("--out", "-o", help="output directory (default: cwd)")
    p_rec.set_defaults(func=cmd_recover)

    p_chk = sub.add_parser("check", help="audit recoverability conditions")
    add_common(p_chk)
    p_chk.set_defaults(func=cmd_check)

    p_demo = sub.add_parser("demo", help="build a named scenario and verify it")
    p_demo.add_argument("scenario", help="scenario id")
    p_demo.add_argument("-K", type=int, default=None, help="window parameter")
    p_demo.add_argument("--r", type=int, default=1, help="lattice parameter r")
    p_demo.add_argument("--N", type=int, default=2, help="lattice parameter N")
    p_demo.add_argument("--out", "-o", help="output directory (default: cwd)")
    p_demo.add_argument(
        "--emit-config",
        action="store_true",
        help="also write the scenario as a canonical config JSON",
    )
    p_demo.add_argument(
        "--tol-override", action="append", default=[], metavar="KEY=VAL",
        help="override a named tolerance (repeatable)",
    )
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotAFrameError, ConditionFailure) as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
