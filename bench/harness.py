"""The closed-loop client, set-up timing and metric assembly behind run.py."""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from checks import Outcome, check
from inputs import MEASURED, WARMUP, WORKLOADS, Generator
import speed

RUN_PY = Path(__file__).resolve().parent / "run.py"
ROOT = RUN_PY.parent.parent
WORK = ROOT / ".bench_work"

# Set-up is timed this many times in child processes, plus once in this
# process; setup_s is the median.
SETUP_PROBES = 2
# The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# No run outlasts this many seconds, whatever --seconds says.
HARD_CAP_S = 150.0


def call(main, argv: list[str]) -> tuple[int | None, float, str]:
    """Run one CLI request; return (exit code, seconds, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            print(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - t0
    return rc, elapsed, sink.getvalue()[-500:]


def setup_probe(nuds, import_s: float, argv_json: str) -> None:
    """In a child process: one warm-up request after the timed imports."""
    rc, request_s, _ = call(nuds.cli.main, json.loads(argv_json))
    print(json.dumps({"rc": rc, "setup_s": import_s + request_s}))


def machine_facts(numpy, scipy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_seen": _openblas_threads(numpy, scipy),
    }


def _openblas_threads(numpy, scipy) -> dict:
    """Thread count that each bundled OpenBLAS reports, where it exports the query."""
    seen = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for so in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(so))
            except OSError:
                continue
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    seen[pkg.__name__] = fn()
                    break
    return seen


class Runner:
    """Generates, runs and checks the requests of one workload."""

    def __init__(self, args, nuds, run_dir: Path):
        self.args = args
        self.nuds = nuds
        self.cli = nuds.cli
        self.workload = WORKLOADS[args.workload]
        self.out = run_dir / "out"
        (run_dir / "in").mkdir(parents=True)
        self.out.mkdir()
        dim = args.dim or self.workload.dim
        self.gen = Generator(self.workload, args.seed, dim, run_dir / "in", self.out)
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.speed = speed.SpeedProbe(run_dir)

    def _clear_out(self) -> None:
        for f in self.out.iterdir():
            f.unlink()

    def one(self, stream: int, i: int, tracer=None) -> dict:
        self._clear_out()
        req = self.gen.make(stream, i)
        if tracer is None:
            rc, seconds, text = call(self.cli.main, req.argv)
        else:
            tracer.request = i
            tracer.install(self.nuds)
            try:
                # Looked up after install, so the tracer sees cli.main too.
                rc, seconds, text = call(self.cli.main, req.argv)
            finally:
                tracer.uninstall()
        outcome = check(req, rc, self.out, (self.args.seed, stream, i))
        written = {".json": 0, ".csv": 0}
        for f in self.out.iterdir():
            written[f.suffix] = written.get(f.suffix, 0) + f.stat().st_size
        record = {
            "i": i,
            "label": req.label,
            "seconds": seconds,
            "ok": outcome.ok,
            "config_bytes": req.config.stat().st_size if req.config else 0,
            "report_bytes": written[".json"],
            "csv_bytes": written[".csv"],
            **outcome.readings,
        }
        if req.config:
            req.config.unlink()
        if not outcome.ok:
            self.failures.append(f"{req.label} #{i}: {outcome.reason} {text.strip()[-300:]}")
        return record

    def run_phase(self, budget_s: float, deadline: float, tracer=None) -> None:
        """Closed loop until the summed request time reaches budget_s.

        With a tracer, whole request cycles alternate between untraced and
        traced, so that both halves run under the same machine conditions.
        """
        cycle = self.workload.cycle
        block = 2 * cycle if tracer else cycle
        exact = self.args.requests
        min_requests = TAIL_BEYOND + 1 if tracer is None and exact is None else block
        busy = 0.0
        n = 0
        unscaled: list[dict] = []
        while True:
            if exact is not None:
                if n >= exact:
                    break
            elif n and time.perf_counter() > deadline:
                break
            elif n % block == 0 and n >= min_requests and busy >= budget_s:
                break
            traced = tracer is not None and (n // cycle) % 2 == 1
            rec = self.one(MEASURED, n, tracer if traced else None)
            rec["traced"] = traced
            self.records.append(rec)
            busy += rec["seconds"]
            n += 1
            if tracer is None:
                unscaled.append(rec)
                if self.speed.due(rec["seconds"]):
                    self._scale(unscaled)
        if unscaled:
            self._scale(unscaled)

    def _scale(self, records: list[dict]) -> None:
        """Scale the requests since the last slice by the speed around them."""
        factor = self.speed.slice()
        for r in records:
            r["scaled"] = factor * r["seconds"]
        records.clear()

    def warm_up(self, import_s: float, probes: int) -> tuple[list[dict], list[Outcome]]:
        """Time set-up, then finish lazy set-up before anything else is timed.

        Set-up is the package import plus the first warm-up request, timed
        in this process and in `probes` child processes, each also scaled
        by the speed around it.  The rest of one workload cycle then runs
        here untimed, so that every request kind has run once before the
        measured requests start.
        """
        times, outcomes = [], []
        cycle = self.workload.cycle
        self.speed.slice()
        for i in range(cycle + probes):
            self._clear_out()
            req = self.gen.make(WARMUP, i)
            if i < cycle:
                rc, seconds, _ = call(self.cli.main, req.argv)
                if i == 0:
                    times.append({"seconds": import_s + seconds})
            else:
                proc = subprocess.run(
                    [sys.executable, str(RUN_PY), "--setup-probe", json.dumps(req.argv)],
                    cwd=ROOT, capture_output=True, text=True, timeout=120,
                )
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
                probe = json.loads(proc.stdout.strip().splitlines()[-1])
                rc = probe["rc"]
                times.append({"seconds": probe["setup_s"]})
            outcomes.append(check(req, rc, self.out, (self.args.seed, WARMUP, i)))
            if req.config:
                req.config.unlink()
            factor = self.speed.slice()
            if i == 0 or i >= cycle:
                times[-1]["scaled"] = factor * times[-1]["seconds"]
        return times, outcomes


def latency_metrics(records: list[dict], key: str = "seconds") -> tuple[dict, dict]:
    """Rate, median and tail of the request times in `key`."""
    lat = sorted(r[key] for r in records)
    n = len(lat)
    # The highest percentile with TAIL_BEYOND samples beyond it; the
    # maximum when a run is too short to have one.
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        "req_per_s": n / sum(lat),
        "req_ms_p50": 1e3 * statistics.median(lat),
        "req_ms_tail": 1e3 * lat[k],
    }
    return metrics, {"percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": n - k - 1}


def traced_metrics(runner: Runner, tracer) -> tuple[dict, dict]:
    plain = [r for r in runner.records if not r["traced"]]
    traced = [r for r in runner.records if r["traced"]]
    metrics = tracing.per_layer(tracer.spans, tracer.counts, len(traced))
    for metric in ("cli.config_bytes", "cli.report_bytes", "dynamics.csv_bytes"):
        key = metric.split(".")[1]
        metrics[metric] = sum(r[key] for r in traced) / len(traced)
    for key in ("abs_error", "residual"):
        metrics[f"recovery.{key}_max"] = max((r.get(key, 0.0) for r in runner.records), default=0.0)
    rate_plain = latency_metrics(plain)[0]["req_per_s"]
    rate_traced = latency_metrics(traced)[0]["req_per_s"]
    metrics["trace.req_per_s_untraced"] = rate_plain
    metrics["trace.req_per_s_traced"] = rate_traced
    metrics["trace.rate_ratio"] = rate_traced / rate_plain

    by_label: dict[str, set] = {}
    for r in traced:
        by_label.setdefault(r["label"], set()).add(r["i"])
    spans_path = WORK / f"spans-{runner.args.workload}.csv"
    tracing.write_spans(tracer.spans, spans_path)
    info = {
        "lapack_calls_per_request": {
            label: {
                name: n / len(ids)
                for name, n in sorted(tracing.span_calls(tracer.spans, ids).items())
                if name.startswith("lapack.")
            }
            for label, ids in sorted(by_label.items())
        },
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args, modules, import_s: float, started: float) -> None:
    """Run one workload and print the info line and the result line."""
    numpy, scipy, nuds = modules
    units = load_units()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = started + HARD_CAP_S
    try:
        runner = Runner(args, nuds, run_dir)
        setups, warm = runner.warm_up(import_s, 0 if args.trace else SETUP_PROBES)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "dim": runner.gen.dim,
            "client": "closed loop, 1 client, in-process nuds.cli.main",
            "setup_samples_s": [t["seconds"] for t in setups],
            "machine": machine_facts(numpy, scipy),
        }
        if args.trace == 0:
            runner.run_phase(args.seconds, deadline)
            metrics, info["tail"] = latency_metrics(runner.records, "scaled")
            metrics["setup_s"] = statistics.median(t["scaled"] for t in setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            info["speed"] = runner.speed.info()
            info["unscaled"] = {
                **latency_metrics(runner.records)[0],
                "setup_s": statistics.median(t["seconds"] for t in setups),
            }
        else:
            tracer = tracing.Tracer()
            runner.run_phase(args.seconds, deadline, tracer)
            metrics, trace_info = traced_metrics(runner, tracer)
            info.update(trace_info)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = runner.records
    failed = sum(not r["ok"] for r in records)
    warm_failed = [o.reason for o in warm if not o.ok]
    info.update(
        attempted=len(records),
        failed=failed,
        fail_frac=failed / len(records),
        warmup_failures=warm_failed,
        failures=runner.failures[:5],
        inputs_made=runner.gen.made,
        inputs_sha256=runner.gen.checksum(),
        wall_s=time.perf_counter() - started,
    )
    result = {
        "correct": failed == 0 and not warm_failed,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "?")} for name, v in metrics.items()},
    }
    print("# info " + json.dumps(info))
    print(json.dumps(result))
