"""The behaviour corpus: every output of a fixed set of CLI runs, against a golden file.

Each run goes through ``nuds.cli.main`` in this process; its exit code,
stdout, stderr and every file it writes are compared with
``tests/golden/corpus.json``.  The runs, in groups:

- ``demo <id> --emit-config`` for the five scenarios, five (r, N) pairs and
  K in {default, 8}, then ``recover --mode finite``, ``recover --mode
  infinite`` and ``check`` on each emitted config (200 runs);
- seven hand-made configs (radius 2, a ``g`` that is not a frame, A = I, an
  expanding diagonal, thm319's system at K = 2, a random d = 16 system and
  a random d = 130 system, whose decode forks), each through ``recover
  --mode finite``, ``recover --mode infinite`` and ``check``, all but the
  d = 130 one through ``check --tol-override FRAME_TOL=2.0``, and the
  thm319 one through ``simulate``;
- the residual-gate config (d = 8, A = diag(0, 0.999, 0, ...), K = 3500),
  on which ``check`` calls the rows convergent and ``recover --mode
  infinite`` exits 3.

Configs are rebuilt at test time, never stored: an emitted config is
stored as a sparse digest (shape and nonzero entries of each array).
Texts are compared after their numbers are tokenized: the text between
numbers must match exactly, and two numbers match when they differ by at
most ``REL`` of the larger or both lie below ``FLOOR``, so a last-bit
difference of another BLAS passes while a changed message, exit code,
key or significant digit fails.

Regenerate the golden file (and list the runs that changed in CHANGES.md):

    PYTHONPATH=src python tests/test_corpus.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from nuds.cli import main
from nuds.linalg import vector_to_pairs

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"
REGENERATE = "PYTHONPATH=src python tests/test_corpus.py --regenerate"

REL = 1e-9
# Below this, a number is rounding noise: a residual of 4.9e-32, the
# 5.7e-14 error of an exact recovery at d = 130.
FLOOR = 1e-12
# thm314's report holds its nullified samples, exactly 0 in exact
# arithmetic and rounding amplified by the nullifier's conditioning in
# floats (9.3e-10 at K = 8, 3.5e-10 with the gelss least-squares routine):
# they are compared only as below the 1e-8 oracle they must meet.
FILE_FLOORS = {"thm314_counterexample_report.json": 1e-8}

SCENARIO_IDS = (
    "thm312_diagonal",
    "thm38_onb",
    "thm314_counterexample",
    "thm317_generalized",
    "thm319_quarter",
)
LATTICE_PAIRS = ((1, 2), (3, 2), (1, 1), (5, 3), (7, 8))
WINDOWS = (None, 8)  # None: the scenario's default K

_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z_])[-+]?(?:inf|nan)(?![A-Za-z_])"
)


# --- configs -----------------------------------------------------------------


def _pairs(z) -> list:
    return vector_to_pairs(np.asarray(z, dtype=complex))


def _doc(d, K, A, *, g="onb", W="full", w=None, x0=None, xm2=None) -> dict:
    zero = np.zeros(d, dtype=complex)
    w = zero if w is None else w
    x0 = zero if x0 is None else x0
    return {
        "schema": 1,
        "params": {"N": 2, "r": 1},
        "dim": d,
        "K": K,
        "A": A,
        "g": g,
        "W": W,
        "w": _pairs(w),
        "x0": _pairs(x0),
        "xm2": _pairs(x0 if xm2 is None else xm2),
    }


def _unit(d, k) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[k] = 1.0
    return e


def _source(d) -> np.ndarray:
    return _unit(d, 0) + (-0.5 + 0.25j) * _unit(d, 1)


def _scaled_identity(scale) -> dict:
    return {"generator": "scaled_identity", "scale": [scale, 0.0]}


def _random_doc(d, seed) -> dict:
    """A random dense system; A is scaled by 1/sqrt(2d), so rho(A) is near 1/2."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = cplx(d, d) * (0.5 / math.sqrt(2 * d))
    g = "onb" if d > 64 else _pairs(cplx(2 * d, d))
    return _doc(d, d // 4, _pairs(A), g=g, w=cplx(d), x0=cplx(d), xm2=cplx(d))


def _quarter_K2_doc() -> dict:
    # thm319's system at K = 2: A = I/4, w = (1, 1/2) at the points 0 and r/N.
    d = 8
    w = _unit(d, 4) + 0.5 * _unit(d, 5)
    return _doc(d, 2, _scaled_identity(0.25), W=[_pairs(_unit(d, 4)), _pairs(_unit(d, 5))], w=w)


def _gate_doc() -> dict:
    d = 8
    return _doc(
        d, 3500, {"generator": "diag", "entries": _pairs(0.999 * _unit(d, 1))},
        W=[_pairs(_unit(d, 0))], w=_unit(d, 0), x0=_unit(d, 1),
    )


HAND_MADE = {
    "radius-2": lambda: _doc(8, 2, _scaled_identity(2.0), w=_source(8)),
    "g-not-a-frame": lambda: _doc(
        8, 2, _scaled_identity(0.5), g=[_pairs(_unit(8, k)) for k in range(4)], w=_source(8)
    ),
    "A-identity": lambda: _doc(8, 2, _scaled_identity(1.0), w=_source(8)),
    "expanding-diagonal": lambda: _doc(
        8, 2, {"generator": "diag", "entries": _pairs(np.arange(1.5, 9.5))}, w=_source(8)
    ),
    "thm319-K2": _quarter_K2_doc,
    "random-d16": lambda: _random_doc(16, 16),
    "random-d130": lambda: _random_doc(130, 130),
}


# --- runs --------------------------------------------------------------------


def _run(argv: list[str], root: Path, out: Path | None) -> dict:
    """One in-process CLI run; what it printed and wrote, with ``root`` as <tmp>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + (["-o", str(out)] if out else []))
    files = {}
    if out is not None and out.exists():
        for path in sorted(out.iterdir()):
            text = path.read_text()
            files[path.name] = _digest(text) if path.name.endswith("_config.json") else text
    tmp = str(root)
    return {
        "argv": [a.replace(tmp, "<tmp>") for a in argv],
        "exit": code,
        "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
        "stderr": stderr.getvalue().replace(tmp, "<tmp>"),
        "files": files,
    }


def _digest(text: str) -> str:
    """An emitted config with each array as its shape and nonzero [index, re, im] entries."""
    doc = json.loads(text)
    for key, value in doc.items():
        if isinstance(value, list):
            matrix = bool(value) and isinstance(value[0][0], list)
            pairs = itertools.chain.from_iterable(value) if matrix else value
            doc[key] = {
                "shape": [len(value), len(value[0])] if matrix else [len(value)],
                "nonzero": [[k, x, y] for k, (x, y) in enumerate(pairs) if x or y],
            }
    return json.dumps(doc, sort_keys=True)


def _config_runs(config: Path, root: Path, extra: tuple[tuple[str, ...], ...] = ()) -> list:
    runs = []
    for i, argv in enumerate(
        (("recover", "--mode", "finite"), ("recover", "--mode", "infinite"), ("check",)) + extra
    ):
        out = root / f"run{i}" if argv[0] != "check" else None
        runs.append(_run([*argv, str(config)], root, out))
    return runs


def _scenario_group(scenario_id: str, r: int, N: int, K: int | None, root: Path) -> list:
    argv = ["demo", scenario_id, "--r", str(r), "--N", str(N), "--emit-config"]
    demo = _run(argv + ([] if K is None else ["-K", str(K)]), root, root / "demo")
    config = root / "demo" / f"{scenario_id}_config.json"
    return [demo] + (_config_runs(config, root) if config.exists() else [])


def _hand_made_group(name: str, root: Path) -> list:
    config = root / f"{name}.json"
    config.write_text(json.dumps(HAND_MADE[name]()))
    extra = () if name == "random-d130" else (("check", "--tol-override", "FRAME_TOL=2.0"),)
    if name == "thm319-K2":
        extra += (("simulate",),)
    return _config_runs(config, root, extra)


def _gate_group(root: Path) -> list:
    config = root / "residual-gate.json"
    config.write_text(json.dumps(_gate_doc()))
    return _config_runs(config, root)


def _groups() -> dict:
    groups = {}
    for scenario_id in SCENARIO_IDS:
        for r, N in LATTICE_PAIRS:
            for K in WINDOWS:
                name = f"{scenario_id}-r{r}-N{N}-K{'default' if K is None else K}"
                groups[name] = lambda root, a=(scenario_id, r, N, K): _scenario_group(*a, root)
    for name in HAND_MADE:
        groups[name] = lambda root, n=name: _hand_made_group(n, root)
    groups["residual-gate"] = _gate_group
    return groups


GROUPS = _groups()


# --- comparison ----------------------------------------------------------------


def _same_number(a: str, b: str, floor: float) -> bool:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return True
    big = max(abs(x), abs(y))
    return big <= floor or abs(x - y) <= REL * big + floor


def mismatch(expected: str, actual: str, floor: float = FLOOR) -> str | None:
    """Where ``actual`` first departs from ``expected``, numbers tokenized; None if nowhere."""
    if expected == actual:
        return None
    e_text, a_text = _NUMBER.split(expected), _NUMBER.split(actual)
    e_nums, a_nums = _NUMBER.findall(expected), _NUMBER.findall(actual)
    for i, (e, a) in enumerate(zip(e_text, a_text)):
        if e != a:
            return f"text {e[:200]!r} became {a[:200]!r}"
        if i < min(len(e_nums), len(a_nums)) and not _same_number(e_nums[i], a_nums[i], floor):
            return f"number {e_nums[i]} became {a_nums[i]} after {e[-80:]!r}"
    if len(e_nums) != len(a_nums):
        return f"{len(e_nums)} numbers became {len(a_nums)}"
    return None


def _mismatches(expected: list, actual: list) -> list[str]:
    if len(expected) != len(actual):
        return [f"{len(expected)} runs became {len(actual)}"]
    found = []
    for want, got in zip(expected, actual):
        where = " ".join(want["argv"])
        if got["argv"] != want["argv"]:
            found.append(f"{where}: the run became {' '.join(got['argv'])}")
            continue
        if got["exit"] != want["exit"]:
            found.append(f"{where}: exit {want['exit']} became {got['exit']}")
        if sorted(got["files"]) != sorted(want["files"]):
            found.append(f"{where}: files {sorted(want['files'])} became {sorted(got['files'])}")
        for part, e, a in [
            ("stdout", want["stdout"], got["stdout"]),
            ("stderr", want["stderr"], got["stderr"]),
            *((name, text, got["files"].get(name, "")) for name, text in want["files"].items()),
        ]:
            diff = mismatch(e, a, FILE_FLOORS.get(part, FLOOR))
            if diff is not None:
                found.append(f"{where}: {part}: {diff}")
    return found


# --- tests ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["groups"]


def test_the_golden_file_holds_every_group(golden):
    assert list(golden) == list(GROUPS)


@pytest.mark.parametrize("name", GROUPS)
def test_runs_match_the_golden_file(name, golden, tmp_path):
    found = _mismatches(golden[name], GROUPS[name](tmp_path))
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "expected, actual, floor, same",
    [
        ("residual 4.930e-32, abs_error 1.375", "residual 3.1e-31, abs_error 1.375", FLOOR, True),
        ("abs_error 1.375e+00", "abs_error 1.376e+00", FLOOR, False),
        ("abs_error 1.0000000001", "abs_error 1.0", FLOOR, True),
        ("tail gap 3.9e-09", "tail gap 4.0e-09", FLOOR, False),
        ("PIVOT_TOL: 1e-12", "PIVOT_TOL: 1e-11", FLOOR, False),
        ("sample 9.3e-10", "sample -3.5e-10", 1e-8, True),
        ("sample 9.3e-10", "sample 2e-08", 1e-8, False),
        ("exit 3", "exit 4", FLOOR, False),
        ("not convergent", "convergent", FLOOR, False),
        ("[1.0, 2.0]", "[1.0, 2.0, 3.0]", FLOOR, False),
        ("thm319_quarter (K=20)", "thm319_quarter (K=20)", FLOOR, True),
        ("rho(A) = inf", "rho(A) = nan", FLOOR, False),
    ],
)
def test_texts_compare_after_their_numbers_are_tokenized(expected, actual, floor, same):
    assert (mismatch(expected, actual, floor) is None) == same


def regenerate() -> None:
    groups = {}
    for name, group in GROUPS.items():
        with tempfile.TemporaryDirectory() as root:
            groups[name] = group(Path(root))
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {"regenerate": REGENERATE, "groups": groups}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    regenerate()
