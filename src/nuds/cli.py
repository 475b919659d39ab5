"""Command-line front end: simulate, recover, check, demo.

Configs and reports are JSON (complex scalars as [re, im] pairs,
top-level "schema": 1); bulk numeric dumps are CSV.  Exit codes are a
stable contract: 0 success, 1 numerical failure, 2 config problem,
3 recoverability-condition failure, 4 demo expectation mismatch.
"""

from __future__ import annotations

import argparse
import io
import json
import pickle
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from ._fork import Child
from .dynamics import SystemSpec, data_matrix_to_csv, trajectory_to_csv
from .frames import NotAFrameError, VectorFamily
from .lattice import LambdaIndex, SpectralParams
from .linalg import NumericalError, SingularMatrixError
from .recovery import (
    ConditionFailure,
    SystemAnalysis,
    finite_recovery_report,
    reconstruct_infinite,
    require_radius_below_one,
)
from .scenarios import build, run_scenario
from .tolerances import DEFAULTS, Tolerances

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_CONDITION = 3
EXIT_EXPECTATION = 4


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


class _Converted:
    """A field value parsed while the config was decoded; ``_field`` keeps it."""

    def __init__(self, value) -> None:
        self.value = value


def _field(doc: dict, key: str, dim: int):
    """The required array field doc[key], parsed by ``_CONVERTERS``; errors name the key."""
    raw = _require(doc, key)
    if isinstance(raw, _Converted):
        return raw.value
    parse = _CONVERTERS[key]
    try:
        return parse(raw, dim) if key in _MATRICES else parse(raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


# A dense matrix arrives as a list of rows, or from the config decoder as
# an iterator that decodes each row when it is reached.
_ROWS = (list, Iterator)


def _parse_operator(raw, dim: int) -> np.ndarray:
    if isinstance(raw, _ROWS):
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


def _parse_family(raw, dim: int) -> VectorFamily:
    if raw == "onb":
        return VectorFamily(vectors=np.eye(dim, dtype=complex))
    if isinstance(raw, _ROWS):
        return VectorFamily(vectors=linalg.matrix_from_pairs(raw))
    raise ValueError("expected 'onb' or a list of vectors")


def _parse_subspace(raw, dim: int) -> np.ndarray:
    if raw == "full":
        return np.eye(dim, dtype=complex)
    if isinstance(raw, _ROWS):
        return linalg.matrix_from_pairs(raw).T
    raise ValueError("expected 'full' or a list of basis columns")


def parse_config(
    doc: dict, tol_overrides: dict | None = None
) -> tuple[SystemSpec, Tolerances]:
    """Validate a config document; return its system and its tolerances.

    The tolerances are the defaults, replaced by the document's
    ``tolerances`` object and then by ``tol_overrides``.
    """
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    schema = doc.get("schema", 1)
    if schema != 1 or isinstance(schema, bool):
        raise ValueError(f"config schema version must be 1, got {schema!r}")
    params_doc = _require(doc, "params")
    params = SpectralParams(
        N=_integer(params_doc, "N", "params"), r=_integer(params_doc, "r", "params")
    )
    dim = _integer(doc, "dim")
    K = _integer(doc, "K")
    # dim sizes every shorthand below: check it against the explicit w
    # first, so a wrong dim cannot ask for a dim x dim array.
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    w = _field(doc, "w", dim)
    if w.shape[0] != dim:
        raise ValueError(f"w has length {w.shape[0]}, expected {dim}")
    A, g, W_basis, x0, xm2 = (_field(doc, key, dim) for key in ("A", "g", "W", "x0", "xm2"))
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise ValueError(f"tolerances must be a JSON object, got {tol_doc!r}")
    tol = DEFAULTS.with_overrides(tol_doc).with_overrides(tol_overrides or {})
    spec = SystemSpec(params=params, A=A, g=g, W_basis=W_basis, w=w, x0=x0, xm2=xm2, K=K)
    return spec, tol


def config_to_json(spec: SystemSpec, tol: Tolerances = DEFAULTS) -> dict:
    """A system and the tolerances in effect in the canonical config form.

    The complex arrays are complex ndarrays.  An emitted config holds
    ``json.dumps(doc, indent=2, sort_keys=True, default=linalg.vector_to_pairs)``:
    each array as a list of [re, im] pairs, a matrix as one list per row.
    """
    return {
        "schema": 1,
        "params": {"N": spec.params.N, "r": spec.params.r},
        "dim": spec.dim,
        "K": spec.K,
        "A": np.ascontiguousarray(spec.A, dtype=complex),
        "g": np.ascontiguousarray(spec.g.vectors, dtype=complex),
        "W": np.ascontiguousarray(spec.W_basis.T, dtype=complex),
        "w": np.ascontiguousarray(spec.w, dtype=complex),
        "x0": np.ascontiguousarray(spec.x0, dtype=complex),
        "xm2": np.ascontiguousarray(spec.xm2, dtype=complex),
        "tolerances": {name: getattr(tol, name) for name in Tolerances.names()},
    }


# --- config ingestion --------------------------------------------------------
# A walk over the top-level object decodes the small members and only
# marks where each array member must end.  Each dense matrix (A, g, W) is
# then decoded one row at a time and each row converted when it arrives,
# so no matrix's whole tree of [re, im] lists is ever built.  A large
# config is decoded in two processes: a forked child decodes and parses
# every array field but the largest, while this process decodes the
# largest array and any unknown key.  For recover and check at a large
# dim, the child takes A alone and also computes rho(A), one eigvals, the
# largest kernel of such a request.  Without a child, or when the child
# fails, this process parses every array member itself.  Only text that
# the walk or a share rejects, or that repeats a key, goes through
# ``json.load`` and parse_config, so the result and every error message
# are the serial ones.

# Smallest share of a config, in characters of JSON text, that a child
# takes over.  Decoding and converting take ~30 ns per character, and
# forking, piping and reaping a child 3-5 ms at ~200 MB RSS, so a share
# pays for its fork near 130k characters.  The floor sits at four times
# that: a d = 128 config (2.5M characters, a 1.1M share) clears it, a
# d = 64 config (0.6M characters, a 0.3M share) does not.
FORK_MIN_CONFIG_CHARS = 1 << 19

# Smallest dim at which a child that also computes rho(A) starts, whatever
# the size of A's text.  On a 2-CPU x86_64 VM with one BLAS thread, one
# eigvals takes ~85 ms at d = 256 and ~22 ms at d = 128, and forking,
# collecting and reaping a child 5-7 ms at 95-145 MB RSS.  Every demo
# scenario at its default K (d <= 80) stays below the floor.
FORK_MIN_RADIUS_DIM = 128

_scan = json.JSONDecoder().scan_once
_skip_ws = json.decoder.WHITESPACE.match


# The array fields of a config and their parsers, for parse_config and
# for either share; the dense matrices (_MATRICES) also take the dim.
_CONVERTERS = {
    "w": linalg.vector_from_pairs,
    "A": _parse_operator,
    "g": _parse_family,
    "W": _parse_subspace,
    "x0": linalg.vector_from_pairs,
    "xm2": linalg.vector_from_pairs,
}

# The dense matrix fields, decoded one row at a time.
_MATRICES = {"A", "g", "W"}


@dataclass
class _Member:
    """A member of the top-level object; its value spans text[start:end]."""

    key: str
    start: int
    end: int
    value: object = None
    is_array: bool = False  # an array's value is decoded after the walk

    @property
    def size(self) -> int:
        return self.end - self.start


def _rstrip(text: str, end: int) -> int:
    """``end`` moved back over any JSON whitespace before it."""
    while end and text[end - 1] in " \t\n\r":
        end -= 1
    return end


def _array_end(text: str, start: int) -> int | None:
    """Where the array member at ``start`` ends, if it holds no string.

    The next quote then opens the next key, so the array ends before the
    comma in front of that key; with no quote left, before the brace that
    closes the object.  Whoever decodes the array checks this guess.
    """
    stop = text.find('"', start)
    sep = "," if stop >= 0 else "}"
    end = _rstrip(text, stop if stop >= 0 else len(text))
    if end <= start + 1 or text[end - 1] != sep:
        return None
    return _rstrip(text, end - 1)


def _walk(text: str) -> list[_Member] | None:
    """The members of the top-level object, arrays left undecoded.

    An array ends where :func:`_array_end` expects; every other value is
    decoded here.  None when the text is not one JSON object that this
    walk can follow, or when a key repeats: ``json.load`` keeps its last
    value.
    """
    i = _skip_ws(text, 0).end()
    if text[i : i + 1] != "{":
        return None
    members = []
    while True:
        i = _skip_ws(text, i + 1).end()
        if text[i : i + 1] != '"':
            return None
        key, i = _scan(text, i)
        i = _skip_ws(text, i).end()
        if text[i : i + 1] != ":":
            return None
        start = _skip_ws(text, i + 1).end()
        if text[start : start + 1] == "[":
            end = _array_end(text, start)
            if end is None:
                return None
            members.append(_Member(key, start, end, is_array=True))
        else:
            value, end = _scan(text, start)
            members.append(_Member(key, start, end, value))
        i = _skip_ws(text, end).end()
        if text[i : i + 1] != ",":
            break
    if text[i : i + 1] != "}" or _skip_ws(text, i + 1).end() != len(text):
        return None
    return members if len({m.key for m in members}) == len(members) else None


def _rows(text: str, m: _Member) -> Iterator:
    """The elements of the array member ``m``, each decoded when it is reached.

    Raises ``ValueError`` where the text is not a JSON array that ends
    where the walk expects.
    """
    i = _skip_ws(text, m.start + 1).end()
    if text[i : i + 1] != "]":
        while True:
            try:
                row, i = _scan(text, i)
            except (StopIteration, RecursionError):  # StopIteration: a bad token
                raise ValueError(f"{m.key} is not a JSON array this walk can decode") from None
            yield row
            i = _skip_ws(text, i).end()
            if text[i : i + 1] != ",":
                break
            i = _skip_ws(text, i + 1).end()
    if text[i : i + 1] != "]" or i + 1 != m.end:
        raise ValueError(f"{m.key} does not end where the walk expects")


def _parse_share(text: str, share: list[_Member], dim: int) -> list:
    """The values of ``share``'s array members, in order.

    Every array is decoded one element at a time and must end where the
    walk expects.  A dense matrix (``_MATRICES``) goes to its parser as
    the iterator of its rows, so each row is converted when it arrives
    and one row's tree of [re, im] lists is alive at a time; any other
    array is collected into a list first.  A key of ``_CONVERTERS`` is
    parsed by :func:`_field`, as parse_config parses it, and marked
    ``_Converted``; any other key keeps the decoded list.  Raises
    ``ValueError`` on any failure: for text that the walk follows, the
    row walk and the row conversion reject only what parse_config
    rejects too.
    """
    values = []
    for m in share:
        rows = _rows(text, m) if m.key in _MATRICES else list(_rows(text, m))
        known = m.key in _CONVERTERS
        values.append(_Converted(_field({m.key: rows}, m.key, dim)) if known else rows)
        del rows  # so this tree is freed before the next one is decoded
    return values


def _split(members: list[_Member], radius: bool) -> tuple[list[_Member], list[_Member]]:
    """The array members as (the child's share, this process's share).

    With ``radius``, the child computes rho(A) and takes ``A`` alone, if
    that is an array.  Otherwise this process keeps the largest array and
    any unknown key, and the child takes every other ``_CONVERTERS``
    field: the child also pickles its results, so it gets the share
    without the largest array.
    """
    arrays = [m for m in members if m.is_array]
    A = next((m for m in arrays if m.key == "A"), None)
    if radius and A is not None:
        return [A], [m for m in arrays if m is not A]
    largest = max(arrays, key=lambda m: m.size, default=None)
    theirs = [m for m in arrays if m is not largest and m.key in _CONVERTERS]
    return theirs, [m for m in arrays if m is largest or m.key not in _CONVERTERS]


def _radius(A: np.ndarray) -> float | None:
    """rho(A); None where it raises or warns, so the caller meets that serially."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return linalg.spectral_radius(A)
    except Exception:
        return None


def _decode_split(text: str, radius: bool) -> tuple[dict, float | None] | None:
    """The config document and rho(A) for :func:`_load_config`; None for ``json.load``.

    The array members split between a child and this process (see
    :func:`_split`).  With ``radius``, from ``FORK_MIN_RADIUS_DIM`` on,
    the child parses an array ``A`` alone and computes rho(A); else rho is
    None.  Where no child starts (see :meth:`nuds._fork.Child.start`) or
    the child fails, this process parses the child's share too, and rho is
    None.  None unless the walk follows the whole object, ``dim`` is a
    positive integer, and every array member parses (see :func:`_parse_share`).
    """
    try:
        members = _walk(text)
        if members is None:
            return None
        dim = _integer({m.key: m.value for m in members}, "dim")
    except (StopIteration, ValueError, RecursionError):
        return None
    if dim < 1:
        return None
    radius = radius and dim >= FORK_MIN_RADIUS_DIM
    theirs, mine = _split(members, radius)
    radius = radius and [m.key for m in theirs] == ["A"]  # False for a generator A
    if radius:
        size, floor = dim, FORK_MIN_RADIUS_DIM
    else:
        size, floor = sum(m.size for m in theirs), FORK_MIN_CONFIG_CHARS

    def job() -> bytes:
        values = _parse_share(text, theirs, dim)
        rho = _radius(values[0].value) if radius else None
        return pickle.dumps((values, rho), protocol=pickle.HIGHEST_PROTOCOL)

    try:
        with Child() as child:
            child.start(job, size, floor)
            values = _parse_share(text, mine, dim)
            data = child.collect()
        if data is None:
            collected, rho = _parse_share(text, theirs, dim), None
        else:
            collected, rho = pickle.loads(data)
    except ValueError:
        return None
    for member, value in zip(theirs + mine, collected + values):
        member.value = value
    return {m.key: m.value for m in members}, rho


def _load_config(path: str, tol_overrides: dict, *, radius: bool = False) -> SystemAnalysis:
    """The config's analysis record, seeded with the decode child's rho(A) where there is one.

    The document is decoded by :func:`_decode_split`, or by ``json.load``
    where that declines, and validated by :func:`parse_config`.
    """
    with open(path) as fh:
        text = fh.read()
    decoded = _decode_split(text, radius)
    if decoded is None:
        try:
            decoded = json.load(io.StringIO(text)), None
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    doc, rho = decoded
    spec, tol = parse_config(doc, tol_overrides)
    return SystemAnalysis(spec, tol=tol, rho=rho)


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
    if args.config_pos and args.config:
        raise ValueError(f"pass one of {args.config_pos} and --config {args.config}, not both")
    path = args.config_pos or args.config
    if not path:
        raise ValueError("no config given; pass a path or --config")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- JSON output ---------------------------------------------------------------
# Reports and emitted configs hold exactly the text of
# ``json.dumps(doc, indent=2, sort_keys=True, default=linalg.vector_to_pairs)
# + "\n"``: documents hold complex arrays as ndarrays, written as lists of
# [re, im] pairs.  The stdlib lays out every dict, list and leaf; before
# Python 3.13 it encodes with an indent in pure Python, ~0.1 us per
# character, so each finite nonempty ndarray reaches it as a mark string
# instead, and the mark is then replaced by the array's text, formatted in
# one pass over its floats and joined with the separators that its shape
# and indent fix.  Each distinct bit pattern in the array is spelled once:
# a demo config's I/4, g = I and W hold tens of thousands of floats but a
# handful of distinct values.

_MARK = "\x00nuds.cli ndarray\x00"
_QUOTED_MARK = json.dumps(_MARK)


def _pairs_text(z: np.ndarray, indent: str) -> str:
    """The indented text of ``linalg.vector_to_pairs(z)``; z finite, nonempty.

    ``indent`` is the newline and indentation of the array's own line.
    Each float is spelled as the C encoder spells a finite float, once
    per distinct int64 bit pattern (so -0.0 and 0.0 keep their own
    spellings), and every slot of that pattern takes the same str.  The
    separator after a float closes the lists that end there and opens
    the ones that start next: after the last entry of a level-j list it
    is the level-j separator, built once and repeated by list repetition.
    """
    dims = z.shape + (2,)
    depth = len(dims)
    lines = [indent + "  " * i for i in range(depth + 1)]
    seps = [None]
    for j in range(depth - 1, -1, -1):
        closes = "".join(lines[i] + "]" for i in range(depth - 1, j, -1))
        opens = "".join(lines[i] + "[" for i in range(j + 1, depth))
        seps[-1] = closes + "," + opens + lines[depth]
        seps *= dims[j]
    seps[-1] = "".join(lines[i] + "]" for i in range(depth - 1, -1, -1))
    bits, inverse = np.unique(z.view(np.int64).ravel(), return_inverse=True)
    spelled = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    text = [None] * (2 * len(seps))
    text[0::2] = spelled[inverse].tolist()
    text[1::2] = seps
    head = "[" + "".join(lines[i] + "[" for i in range(1, depth)) + lines[depth]
    return head + "".join(text)


def _indented_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, default=linalg.vector_to_pairs)``.

    Complex arrays in ``doc`` are ndarrays; each is written as the list
    of [re, im] pairs ``linalg.vector_to_pairs`` gives.  The stdlib
    encodes the document with each finite nonempty ndarray as a mark
    string, which :func:`_pairs_text` then replaces, indented as the
    mark's line.  Where a string of ``doc`` equals the mark, the marks
    found do not match the arrays, and the stdlib encodes the arrays too.
    Raises the stdlib's errors: ``TypeError`` for a leaf that is not JSON
    or keys that do not sort, ``ValueError`` for a cycle or an int too
    long to print.
    """
    arrays = []

    def mark(value):
        if not isinstance(value, np.ndarray):
            return json.JSONEncoder().default(value)  # raises the stdlib's TypeError
        z = np.ascontiguousarray(value, dtype=complex)
        if not (z.size and np.isfinite(z).all()):
            return linalg.vector_to_pairs(z)
        arrays.append(z)
        return _MARK

    pieces = json.dumps(doc, indent=2, sort_keys=True, default=mark).split(_QUOTED_MARK)
    if len(pieces) != len(arrays) + 1:
        return json.dumps(doc, indent=2, sort_keys=True, default=linalg.vector_to_pairs)
    out = [pieces[0]]
    for z, before, after in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        out += [_pairs_text(z, "\n" + " " * (len(line) - len(line.lstrip(" ")))), after]
    return "".join(out)


def _write_json(path: Path, doc: dict) -> None:
    """Write :func:`_indented_json` of ``doc`` and a newline to ``path``.

    That is ``json.dumps(doc, indent=2, sort_keys=True,
    default=linalg.vector_to_pairs)``: complex arrays are ndarrays in
    ``doc`` and lists of [re, im] pairs in the file.

    A document the stdlib refuses raises its error, and no file is
    written.
    """
    path.write_text(_indented_json(doc) + "\n")


def cmd_simulate(args) -> int:
    system = _load_config(_config_path(args), _parse_tol_flags(args.tol_override))
    traj, D = system.trajectory, system.data
    params = system.spec.params
    out = _out_dir(args)
    traj_path = out / "trajectory.csv"
    dm_path = out / "data_matrix.csv"
    trajectory_to_csv(traj, params, traj_path)
    data_matrix_to_csv(D, params, dm_path)
    print(f"wrote {traj_path} and {dm_path} ({traj.values.shape[0]} window rows)")
    return EXIT_OK


# --- recover -----------------------------------------------------------------


def cmd_recover(args) -> int:
    """Recover the source and write report.json; exit 3 above the residual bound.

    The ``--mode`` recovery reads everything from one :class:`SystemAnalysis`,
    in the serial order: data matrix, radius, then the analysis of g or the
    stationary map.  Its report carries its own ``residual_bound``.  From
    ``FORK_MIN_RADIUS_DIM`` on, where a child starts (see
    :meth:`nuds._fork.Child.start`), the child that decodes A also computes
    rho(A), which :func:`_load_config` seeds into the record, so output
    and errors are those of the serial order either way.
    """
    system = _load_config(_config_path(args), _parse_tol_flags(args.tol_override), radius=True)
    if args.mode == "finite":
        (report,) = finite_recovery_report((LambdaIndex(0, 0),), system)
    else:
        report = reconstruct_infinite(system)
    out = _out_dir(args)
    report_path = out / "report.json"
    _write_json(report_path, report.to_json())
    print(
        f"wrote {report_path}: residual {report.residual:.3e}, "
        f"abs_error {report.abs_error:.3e}"
    )
    if not report.residual <= report.residual_bound:  # a NaN residual fails too
        print("recovery residual above tolerance", file=sys.stderr)
        return EXIT_CONDITION
    return EXIT_OK


def cmd_check(args) -> int:
    system = _load_config(_config_path(args), _parse_tol_flags(args.tol_override), radius=True)
    cert = system.sampling
    refusal = None
    try:
        require_radius_below_one(system.rho, tol=system.tol)
    except ConditionFailure as exc:
        refusal = f"unavailable: {exc}"
    # The subspace family {P_W (I - A*)^-1 g_j} is the stationary map's
    # adjoint family, so one analysis gives both rows; the adjoint row
    # also needs the map's radius.
    try:
        sub = system.subspace
    except SingularMatrixError as exc:
        # Only an exactly zero pivot, with the map refused by its radius,
        # puts 1 in the spectrum; any other pivot was refused by PIVOT_TOL.
        subspace_row = adjoint_row = (
            f"unavailable: 1 is in the spectrum of A "
            f"(I - A is singular at pivot {exc.pivot_index})"
            if refusal and exc.pivot == 0.0
            else f"unavailable: the LU of I - A fell below PIVOT_TOL = "
            f"{system.tol.PIVOT_TOL:.1e} at pivot {exc.pivot_index}"
        )
    except NumericalError as exc:
        if refusal is None:  # a map the radius admits must meet the accuracy contract
            raise
        subspace_row = f"unavailable: {exc}"
    else:
        subspace_row = f"alpha={sub.bounds.alpha:.8g} beta={sub.bounds.beta:.8g}"
        adjoint_row = f"{subspace_row} frame={'yes' if sub.is_frame else 'no'}"
    if refusal is not None:
        adjoint_row = refusal
    lim = system.limit
    if lim.nonfinite_step is None:
        tail_row = f"{lim.tail_gap:.3e} ({'convergent' if lim.member else 'not convergent'})"
    else:
        tail_row = f"undetermined: the samples are first non-finite at step {lim.nonfinite_step}"
    rows = [
        (
            "sampling family bounds",
            f"alpha={cert.bounds.alpha:.8g} beta={cert.bounds.beta:.8g} "
            f"frame={'yes' if cert.is_frame else 'no'}",
        ),
        ("subspace condition bounds (necessary only)", subspace_row),
        ("spectral radius", f"{system.rho:.8g}"),
        ("adjoint family bounds on W", adjoint_row),
        ("row-convergence tail gap", tail_row),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


def cmd_demo(args) -> int:
    scenario_id = args.scenario
    params = SpectralParams(N=args.N, r=args.r)
    tol = DEFAULTS.with_overrides(_parse_tol_flags(args.tol_override))
    bundle = build(scenario_id, params, args.K, tol=tol)
    report, failures = run_scenario(bundle)
    out = _out_dir(args)
    report_path = out / f"{scenario_id}_report.json"
    report["expectations_met"] = not failures
    report["failures"] = failures
    _write_json(report_path, report)
    print(f"wrote {report_path}")
    if args.emit_config:
        config_path = out / f"{scenario_id}_config.json"
        _write_json(config_path, config_to_json(bundle.system.spec, tol))
        print(f"wrote {config_path}")
    if failures:
        for line in failures:
            print(f"expectation failed: {line}", file=sys.stderr)
        return EXIT_EXPECTATION
    print(f"scenario {scenario_id} (K={bundle.system.spec.K}): all expectations met")
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
    add_common(p_demo, with_config=False)
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy names the refused allocation: its size, shape and dtype.
        print(f"config error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
