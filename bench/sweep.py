#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize run-to-run spread.

    python3 bench/sweep.py --seeds 1-10                     # every workload, untraced
    python3 bench/sweep.py --workloads demo-default --seeds 1-5
    python3 bench/sweep.py --seeds 1-10 --traced-seed 1 --out bench/baseline.json

For each end-to-end metric it prints the median of the runs and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, against the metric's bound in
BENCHMARK.json; a spread above a third of its bound is marked.  Beside
each timing it prints the same for the timing before speed scaling
(see speed.py).  With
``--traced-seed`` it also makes one traced run per workload and keeps
its per-layer metrics.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, dict]:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("# info ")), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0, args.seconds) for seed in args.seeds]
        summary["machine"] = runs[0][0]["machine"]
        entry: dict = {
            "attempted": sum(res["attempted"] for _, res in runs),
            "failed": sum(res["failed"] for _, res in runs),
            "correct": all(res["correct"] for _, res in runs),
            "tail": [info["tail"] for info, _ in runs],
            "wall_s": [round(info["wall_s"], 1) for info, _ in runs],
            "end_to_end": {},
            "unscaled": {},
        }
        print(f"{workload}: {entry['attempted']} requests, {entry['failed']} failed, "
              f"wall {min(entry['wall_s'])}-{max(entry['wall_s'])} s per run")
        for name, bound in bounds.items():
            stats = spread([res["metrics"][name]["value"] for _, res in runs])
            stats["unit"] = runs[0][1]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            gated = name != "setup_s"
            mark = "" if stats["spread"] <= bound / 3 or not gated else "  <-- above bound/3"
            steady &= bool(not mark)
            raw = ""
            if name in runs[0][0]["unscaled"]:
                raw_stats = spread([info["unscaled"][name] for info, _ in runs])
                entry["unscaled"][name] = raw_stats
                raw = f"  unscaled median {raw_stats['median']:.4f} spread {raw_stats['spread']:.4f}"
            print(f"  {name:12s} median {stats['median']:12.4f} {stats['unit']:4s} "
                  f"spread {stats['spread']:.4f} (bound {bound}){mark}{raw}")
        if args.traced_seed is not None:
            info, res = run_once(workload, args.traced_seed, 1, args.seconds)
            entry["traced"] = {
                "seed": args.traced_seed,
                "lapack_calls_per_request": info["lapack_calls_per_request"],
                "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
            }
            print(f"  traced: rate ratio {res['metrics']['trace.rate_ratio']['value']:.3f}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
