"""Span tracer that times the package's layers from outside.

Installing the tracer replaces each public function of the package's
modules at every binding site (the module attribute, each ``from ...
import`` alias in the other modules, and the package re-exports) with a
wrapper that records a span ``[request, name, parent, start, end]``.
Per-element helpers are only counted, because timing ~200k calls per
request would distort the times around them.  ``json.load`` is wrapped
as seen from ``nuds.cli`` and the LAPACK entry points as seen from
``nuds.linalg`` only, so numpy calls made by the benchmark itself are
never counted.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter

import numpy as np

MODULES = ("lattice", "linalg", "frames", "dynamics", "recovery", "scenarios", "cli")

# Called once per matrix element: counted, never timed.
COUNT_ONLY = {"linalg.pair_to_complex", "linalg.complex_to_pair"}

# Wrapped although private: the layer boundary they mark has no public name.
PRIVATE = {"cli._write_json": "cli.write_json"}

LAPACK = {
    "numpy.linalg": ("eigh", "eigvals", "svd"),
    "scipy.linalg": ("lu_factor", "lu_solve"),
}


def _cx(a) -> int:
    """Real flops per complex multiply-add, against one for real data."""
    return 4 if np.iscomplexobj(a) else 1


def _svd_flops(B, *_, **__) -> float:
    m, n = max(B.shape), min(B.shape)
    return _cx(B) * (14 * m * n**2 + 8 * n**3)


def _lu_solve_flops(lu_piv, b, *_, **__) -> float:
    n = lu_piv[0].shape[0]
    return _cx(lu_piv[0]) * 2 * n**2 * (b.shape[1] if np.ndim(b) == 2 else 1)


# Textbook operation counts from the argument shapes (Golub & Van Loan,
# Matrix Computations): computed, not measured.
FLOPS = {
    "eigh": lambda M, *_, **__: _cx(M) * 9 * M.shape[0] ** 3,
    "eigvals": lambda A, *_, **__: _cx(A) * 10 * A.shape[0] ** 3,
    "svd": _svd_flops,
    "lu_factor": lambda M, *_, **__: _cx(M) * 2 * M.shape[0] ** 3 / 3,
    "lu_solve": _lu_solve_flops,
}


class _Proxy(types.SimpleNamespace):
    """Stands in for a module: wrapped attributes set on it, the rest forwarded."""

    def __init__(self, target, **wrapped):
        super().__init__(**wrapped)
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_target"), name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, flops=None):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flops is not None:
                counts["lapack.flop_est"] += flops(*args, **kwargs)
            span = [self.request, name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        mods = [getattr(package, name) for name in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_"):
                    if name not in PRIVATE:
                        continue
                    name = PRIVATE[name]
                wrap = self.counted if name in COUNT_ONLY else self.timed
                wrappers[fn] = wrap(name, fn)
        for mod in mods + [package]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

        spec = package.dynamics.SystemSpec
        self._set(spec, "__post_init__", self.timed("dynamics.system_spec", spec.__post_init__))

        cli = package.cli
        self._set(cli, "json", _Proxy(cli.json, load=self.timed("cli.json_decode", cli.json.load)))

        linalg = package.linalg
        np_linalg = linalg.np.linalg
        sp_linalg = linalg.scipy.linalg
        lapack_np = {f: self._lapack(np_linalg, f) for f in LAPACK["numpy.linalg"]}
        lapack_sp = {f: self._lapack(sp_linalg, f) for f in LAPACK["scipy.linalg"]}
        self._set(linalg, "np", _Proxy(linalg.np, linalg=_Proxy(np_linalg, **lapack_np)))
        self._set(linalg, "scipy", _Proxy(linalg.scipy, linalg=_Proxy(sp_linalg, **lapack_sp)))

    def _lapack(self, module, fn: str):
        return self.timed(f"lapack.{fn}", getattr(module, fn), FLOPS[fn])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# --- per-layer metrics --------------------------------------------------------

# Layer -> span names; each layer reports inclusive time (spans nested in
# another span of the same layer count once) and self time beside it.
LAYERS = {
    "cli.main": {"cli.main"},
    "cli.json_decode": {"cli.json_decode"},
    "cli.parse_config": {"cli.parse_config"},
    "linalg.pairs": {"linalg.vector_from_pairs", "linalg.matrix_from_pairs"},
    "cli.write_report": {"cli.write_json", "cli.config_to_json"},
    "dynamics.system_spec": {"dynamics.system_spec"},
    "dynamics.simulate": {"dynamics.simulate"},
    "dynamics.data_matrix": {"dynamics.data_matrix"},
    "dynamics.csv": {"dynamics.data_matrix_to_csv", "dynamics.trajectory_to_csv"},
    "dynamics.bs_membership": {"dynamics.bs_membership"},
    "frames.frame_bounds": {"frames.frame_bounds"},
    "frames.canonical_dual": {"frames.canonical_dual"},
    "linalg.hermitian_eigs": {"linalg.hermitian_eigs"},
    "linalg.solve": {"linalg.solve"},
    "linalg.spectral_radius": {"linalg.spectral_radius"},
    "recovery.finite_report": {"recovery.finite_recovery_report"},
    "recovery.reconstruct_finite": {"recovery.reconstruct_finite"},
    "recovery.stationary_map": {"recovery.stationary_map_from_A"},
    "recovery.reconstruct_infinite": {"recovery.reconstruct_infinite"},
    "recovery.subspace_condition": {"recovery.subspace_condition"},
    "recovery.nullifier": {"recovery.counterexample_nullifier"},
    "scenarios.build": {"scenarios.build"},
    "scenarios.run": {"scenarios.run_scenario"},
    "lattice": "lattice.",
    "lapack": "lapack.",
}

# The validated wrappers; their self time excludes the LAPACK calls inside.
VALIDATORS = {
    "linalg.hermitian_eigs",
    "linalg.solve",
    "linalg.spectral_radius",
    "linalg.orthonormal_basis",
    "linalg.as_vector",
    "linalg.as_matrix",
}

CALLS = {
    "frames.analysis.calls": {"frames.analysis"},
    "frames.frame_bounds.calls": {"frames.frame_bounds"},
    "frames.canonical_dual.calls": {"frames.canonical_dual"},
    "frames.frame_operator.calls": {"frames.frame_operator"},
    "linalg.hermitian_eigs.calls": {"linalg.hermitian_eigs"},
    "linalg.solve.calls": {"linalg.solve"},
    "linalg.spectral_radius.calls": {"linalg.spectral_radius"},
    "lapack.eigh.calls": {"lapack.eigh"},
    "lapack.eigvals.calls": {"lapack.eigvals"},
    "lapack.lu.calls": {"lapack.lu_factor"},
    "lattice.calls": "lattice.",
}


def _members(spec, names) -> set:
    """The span names in `names` that a layer spec (a set, or a prefix) covers."""
    if isinstance(spec, str):
        return {n for n in names if n.startswith(spec)}
    return spec & names


def per_layer(spans: list, counts: Counter, requests: int) -> dict[str, float]:
    """Per-request layer metrics from the spans of `requests` requests."""
    names = {span[1] for span in spans}
    layers = {layer: _members(spec, names) for layer, spec in LAYERS.items()}
    own: dict[str, list[tuple[str, int]]] = {name: [] for name in names}
    for k, (layer, members) in enumerate(layers.items()):
        for name in members:
            own[name].append((layer, 1 << k))

    n = len(spans)
    dur = [0.0] * n
    child = [0.0] * n
    under = [0] * n  # layers open at or above each span
    incl = Counter()
    self_time = Counter()
    calls = Counter()
    for sid, (_, name, parent, start, end) in enumerate(spans):
        d = end - start
        dur[sid] = d
        calls[name] += 1
        above = under[parent] if parent >= 0 else 0
        under[sid] = above
        for layer, b in own[name]:
            under[sid] |= b
            if not above & b:
                incl[layer] += d
        if parent >= 0:
            child[parent] += d
    for sid, span in enumerate(spans):
        self_time[span[1]] += dur[sid] - child[sid]

    per = 1.0 / max(requests, 1)
    out = {}
    for layer, members in layers.items():
        out[f"{layer}.ms"] = 1e3 * incl[layer] * per
        out[f"{layer}.self_ms"] = 1e3 * sum(self_time[m] for m in members) * per
    out["linalg.validate.ms"] = 1e3 * sum(self_time[m] for m in VALIDATORS) * per
    for metric, spec in CALLS.items():
        out[metric] = sum(calls[m] for m in _members(spec, names)) * per
    out["linalg.pair_to_complex.calls"] = counts["linalg.pair_to_complex"] * per
    out["lapack.flop_est"] = counts["lapack.flop_est"] * per
    return out


def span_calls(spans: list, requests: set) -> Counter:
    """Calls per span name over the given request ids."""
    return Counter(span[1] for span in spans if span[0] in requests)


def write_spans(spans: list, path) -> None:
    """One CSV row per span; times in microseconds from the first span."""
    t0 = spans[0][3] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("request,id,parent,name,start_us,end_us\n")
        for sid, (req, name, parent, start, end) in enumerate(spans):
            fh.write(f"{req},{sid},{parent},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
