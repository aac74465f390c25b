"""Run one workload in this fresh process and print one JSON line.

Started by ``perfbench/run.py``; not meant to be run by hand::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts from process start:
interpreter start, imports, machine/placement/``Job`` construction and
input generation, or, for ``campaign-serve``, the daemon's start, pool
fork and first healthy ``/health``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, bool(args.trace))
    try:
        workload.setup()
        if args.setup_only:
            # the daemon's set-up is its own process's, timed by the client
            setup_s = getattr(workload, "setup_s", None)
            if setup_s is None:
                setup_s = time.monotonic() - args.spawned_at
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        outcome = workload.run(args.seconds)
    finally:
        workload.close()
    peak = workload.peak_rss_mb()
    outcome.layers.pop("_modules", None)  # for the self-tests only
    print(json.dumps({
        "peak_rss_mb": peak,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "metrics": outcome.metrics,
        "report": outcome.report,
        "layers": outcome.layers,
        "loop": workload.loop,
        "clients": workload.clients,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
