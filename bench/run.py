#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `nuds` CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload recover-d256 --seed 1 --seconds 20 --trace 0

One closed-loop client drives ``nuds.cli.main(argv)`` in this process, one
request at a time, with BLAS pinned to one thread.  Each request's
inputs are generated from ``--seed`` before it starts, outside the timed
interval, and its outputs are checked after it ends; a wrong output
counts as a failed request.  Requests run until their summed time
reaches ``--seconds`` and the workload's request mix is complete.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
whole request cycles between untraced and traced (layer tracer installed)
and prints the per-layer metrics per traced request, including the
tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``# info``, holds the seed, an input checksum and the machine facts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# Pinned before numpy is first imported.  On a 2-CPU machine one thread
# was both faster and steadier than two for every kernel at d = 256.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("recover-d256", "simulate-d256", "demo-default")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dim", type=int, help="d of the d256 workloads (small for smoke runs)")
    p.add_argument("--requests", type=int, help="run exactly this many requests per phase")
    p.add_argument("--setup-probe", metavar="ARGV_JSON", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    return args


def import_package():
    """Import numpy, scipy and this checkout's `nuds`; return (modules, seconds)."""
    if not (SRC / "nuds" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'nuds'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy
    import scipy.linalg

    import nuds
    import nuds.cli

    elapsed = time.perf_counter() - t0
    if Path(nuds.__file__).resolve().parent != SRC / "nuds":
        sys.exit(f"bench: imported nuds from {nuds.__file__}, not from {SRC}")
    return (numpy, scipy, nuds), elapsed


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    modules, import_s = import_package()
    # Imported only now: the harness imports numpy, whose import is part
    # of the set-up time measured above.
    import harness

    if args.setup_probe is not None:
        harness.setup_probe(modules[2], import_s, args.setup_probe)
    else:
        harness.run(args, modules, import_s, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
