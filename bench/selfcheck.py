#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size.

    python3 bench/selfcheck.py

For every workload it runs a fixed number of requests (d = 96 for the
d256 workloads) untraced once and traced twice with the same seed, and
fails unless:

- every end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is printed, with its unit, and no other;
- no request fails, so fail_frac is 0;
- every ``.calls`` and ``_bytes`` count repeats exactly across the two
  traced runs;
- a traced recover makes 3 eigh, 1 eigvals and 1 (finite) or 3
  (infinite) LU factorizations, all of them from nuds.

Last, it runs the benchmark in a directory holding only BENCHMARK.json
and the benchmark's own files, where it must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {"recover-d256": 4, "simulate-d256": 2, "demo-default": 10}
RECOVER_LAPACK = {
    "recover finite": {"lapack.eigh": 3, "lapack.eigvals": 1, "lapack.lu_factor": 1},
    "recover infinite": {"lapack.eigh": 3, "lapack.eigvals": 1, "lapack.lu_factor": 3},
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
        "--dim", "96", "--requests", str(SMOKE[workload]),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("# info "))
    return info, json.loads(lines[-1])


def check_result(workload: str, trace: int, info: dict, res: dict) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, info["failures"] + info["warmup_failures"]
    assert res["attempted"] >= 1 and res["failed"] == 0, res
    assert info["fail_frac"] == 0.0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == wanted, set(printed) ^ set(wanted)
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    print(f"ok   {workload} trace={trace}: {len(printed)} metrics, {res['attempted']} requests")


def counts(res: dict) -> dict:
    return {
        name: m["value"]
        for name, m in res["metrics"].items()
        if name.endswith(".calls") or name.endswith("_bytes")
    }


def check_stripped_checkout() -> None:
    """Without the package source the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("demo-default", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout[-300:]
        assert '"metrics"' not in proc.stdout, proc.stdout[-300:]
        print(f"ok   stripped checkout exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in SMOKE:
        check_result(workload, 0, *result(bench(workload, 0)))
        first_info, first = result(bench(workload, 1))
        second_info, second = result(bench(workload, 1))
        check_result(workload, 1, first_info, first)
        check_result(workload, 1, second_info, second)
        assert counts(first) == counts(second), {
            k: (v, counts(second)[k]) for k, v in counts(first).items() if counts(second)[k] != v
        }
        print(f"ok   {workload}: {len(counts(first))} counts repeat exactly")
        if workload == "recover-d256":
            for mode, want in RECOVER_LAPACK.items():
                got = first_info["lapack_calls_per_request"][mode]
                assert all(got.get(k) == v for k, v in want.items()), (mode, got)
            print("ok   recover: 3 eigh, 1 eigvals, 1|3 LU per request (finite|infinite)")
    check_stripped_checkout()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
