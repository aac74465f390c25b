"""Write ``perfbench/reference.json``: the modeled quantities every
skeleton job of the benchmark must reproduce bit for bit.

    python3 perfbench/reference.py

Only a change that is meant to move modeled quantities regenerates it.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import workloads  # noqa: E402


def main() -> int:
    from repro.obs.symbolic import run_skeleton_job

    reference = {}
    for name in ("ime-skeleton", "scalapack-skeleton"):
        wl = workloads.make(name, seed=0)
        result = run_skeleton_job(wl.algorithm, wl.n, wl.ranks, nb=wl.nb)
        reference[name] = {"algorithm": wl.algorithm, "n": wl.n,
                           "ranks": wl.ranks, "nb": wl.nb,
                           **workloads.modeled_fingerprint(result)}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
