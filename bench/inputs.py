"""Seeded request generator for the benchmark workloads.

Configs are written by this module's own JSON writer from the schema in
the repository README (complex scalars as ``[re, im]`` pairs), never by
the package's serializer, so a change to the package cannot change the
benchmark's inputs.  Request ``i`` of a run depends only on
``(seed, stream, i)``, not on how many requests ran before it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

# The five packaged scenario ids, as documented for `nuds demo`.
SCENARIOS = (
    "thm312_diagonal",
    "thm38_onb",
    "thm314_counterexample",
    "thm317_generalized",
    "thm319_quarter",
)

# Every valid lattice pair (r odd, coprime to N, r <= 2N - 1) with N <= 16.
LATTICE_PAIRS = tuple(
    (r, N) for N in range(1, 17) for r in range(1, 2 * N, 2) if gcd(r, N) == 1
)

# Entries of A and g are complex normal with E|a|^2 = 2 * SIGMA2 / d; by
# the circular law the spectrum of A then fills the disk of radius ~0.5,
# and the window edges converge like 0.5**(2K - 1), so limit recovery is
# valid at K = 64.
SIGMA2 = 0.125
# A and g take their entries from a pool of normal floats whose JSON text
# is formatted once per run: formatting a float costs ~1 us here, and a
# d = 256 config holds ~400k of them.
POOL_SIZE = 1 << 18

# Random streams: request i of stream s is drawn from (seed, s, i).
MEASURED, WARMUP, POOL = 0, 1, 3


@dataclass(frozen=True)
class Workload:
    kind: str  # the CLI subcommand
    dim: int | None  # None: demo runs at each scenario's default K
    cycle: int  # requests in one full rotation of the workload's mix


WORKLOADS = {
    "recover-d256": Workload("recover", 256, 2),  # finite, infinite
    "simulate-d256": Workload("simulate", 256, 1),
    "demo-default": Workload("demo", None, 5),  # the five scenarios in turn
}


@dataclass
class System:
    """The ground truth behind one generated config."""

    r: int
    N: int
    K: int
    A: np.ndarray
    g: np.ndarray
    W: np.ndarray
    w: np.ndarray
    x0: np.ndarray
    xm2: np.ndarray

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass
class Request:
    """One CLI invocation and what its checker needs to know."""

    kind: str
    label: str
    argv: list[str]
    system: System | None = None
    config: Path | None = None
    scenario: str | None = None


def request_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def _cplx(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _nest(items: list[str], shape: tuple[int, ...]) -> str:
    """JSON text of row-major `items` nested as an array of `shape`."""
    for n in reversed(shape[1:]):
        items = ["[" + ",".join(items[k : k + n]) + "]" for k in range(0, len(items), n)]
    return "[" + ",".join(items) + "]"


def json_pairs(a) -> str:
    """JSON text of a complex array as nested lists of [re, im] pairs."""
    a = np.ascontiguousarray(a, dtype=complex)
    # repr of a Python float is the shortest text that round-trips exactly.
    nums = list(map(repr, a.view(np.float64).ravel().tolist()))
    return _nest([f"[{re},{im}]" for re, im in zip(nums[0::2], nums[1::2])], a.shape)


class NumberPool:
    """Normal floats of variance SIGMA2 / dim, with their JSON text."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.values = rng.standard_normal(POOL_SIZE) * np.sqrt(SIGMA2 / dim)
        self.text = list(map(repr, self.values.tolist()))

    def matrix(self, rng: np.random.Generator, rows: int, cols: int) -> tuple[np.ndarray, str]:
        """A random complex matrix drawn from the pool, and its JSON text."""
        re, im = rng.integers(POOL_SIZE, size=(2, rows * cols))
        M = (self.values[re] + 1j * self.values[im]).reshape(rows, cols)
        t = self.text
        pairs = [f"[{t[a]},{t[b]}]" for a, b in zip(re.tolist(), im.tolist())]
        return M, _nest(pairs, (rows, cols))


def random_config(rng: np.random.Generator, dim: int, pool: NumberPool) -> tuple[System, str]:
    """A d-dim system (2d-vector frame, d/2-dim W) and its explicit schema-1 config."""
    if dim % 4 or dim < 8:
        raise ValueError(f"dim must be a multiple of 4 and at least 8, got {dim}")
    r, N = LATTICE_PAIRS[rng.integers(len(LATTICE_PAIRS))]
    A, A_text = pool.matrix(rng, dim, dim)
    g, g_text = pool.matrix(rng, 2 * dim, dim)
    W, _ = np.linalg.qr(_cplx(rng, dim, dim // 2))
    s = System(r, N, dim // 4, A, g, W, W @ _cplx(rng, dim // 2), _cplx(rng, dim), _cplx(rng, dim))
    text = (
        f'{{"schema": 1, "params": {{"N": {s.N}, "r": {s.r}}}, '
        f'"dim": {s.dim}, "K": {s.K}, "A": {A_text}, "g": {g_text}, '
        f'"W": {json_pairs(s.W.T)}, "w": {json_pairs(s.w)}, '
        f'"x0": {json_pairs(s.x0)}, "xm2": {json_pairs(s.xm2)}}}'
    )
    return s, text


class Generator:
    """Makes the requests of one workload and checksums every input it makes."""

    def __init__(self, workload: Workload, seed: int, dim: int | None, work: Path, out: Path):
        self.kind = workload.kind
        self.seed = seed
        self.dim = dim
        self.work = work
        self.out = out
        self.sha = hashlib.sha256()
        self.made = 0
        self.pool = NumberPool(request_rng(seed, POOL, 0), dim) if dim else None

    def _config(self, rng, tag: str) -> tuple[System, Path]:
        system, text = random_config(rng, self.dim, self.pool)
        data = text.encode()
        self.sha.update(data)
        path = self.work / f"cfg-{tag}.json"
        path.write_bytes(data)
        return system, path

    def make(self, stream: int, i: int) -> Request:
        rng = request_rng(self.seed, stream, i)
        tag = f"{stream}-{i}"
        self.made += 1
        out = str(self.out)
        if self.kind == "recover":
            system, path = self._config(rng, tag)
            mode = ("finite", "infinite")[i % 2]
            argv = ["recover", str(path), "--mode", mode, "-o", out]
            return Request("recover", f"recover {mode}", argv, system, path)
        if self.kind == "simulate":
            system, path = self._config(rng, tag)
            return Request("simulate", "simulate", ["simulate", str(path), "-o", out], system, path)
        if self.kind == "demo":
            scenario = SCENARIOS[i % len(SCENARIOS)]
            r, N = LATTICE_PAIRS[rng.integers(len(LATTICE_PAIRS))]
            argv = ["demo", scenario, "--r", str(r), "--N", str(N), "--emit-config", "-o", out]
            self.sha.update(" ".join(argv[:6]).encode())
            return Request("demo", f"demo {scenario}", argv, scenario=scenario)
        raise ValueError(f"unknown request kind {self.kind!r}")

    def checksum(self) -> str:
        return self.sha.hexdigest()
