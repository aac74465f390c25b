"""The repository's benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ime-skeleton --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads: ``ime-skeleton``, ``scalapack-skeleton``, ``monitored-solve``,
``campaign-serve`` (see ``perfbench/NOTES.md``).  Every operation is
checked; the workload's named metrics go to standard error with their
units and sample counts, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  ``all`` runs every workload in
turn and prefixes each metric with its workload's name.

Each workload runs in fresh processes: the set-up time is the median of
several process starts, the measured run is one more.  The program
under test is ``src/repro`` of the checkout; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
# Single-threaded BLAS, here and in every workload process: each then
# runs on one CPU at a time, the CPU its calibration measures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from perfbench import calibration  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: set-up-only process starts per run, each between two calibrations
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 30.0
#: a whole run must end within this many seconds
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool, timeout: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--spawned-at", repr(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{workload}: worker exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: worker exited with "
                             f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 limit_s: float = RUN_LIMIT_S) -> dict:
    """Set-up samples plus one measured run, in fresh processes."""
    start = time.monotonic()
    setups, factors = [], []
    if not trace:
        # Set-up mixes imports (bytecode, shared libraries) with object
        # construction.  One calibration beside a 0.5 s sample read
        # noisier than the sample itself, so the median sample is
        # divided by the median of all the run's calibrations.  They run
        # unpinned: the scheduler puts them, like the single set-up
        # process, on the CPU that is free.
        factors.append(calibration.calibrate())
        for _ in range(SETUP_SAMPLES):
            setups.append(_spawn(workload, seed, seconds, 0, True,
                                 SETUP_TIMEOUT_S)["setup_s"])
            factors.append(calibration.calibrate())
    remaining = limit_s - (time.monotonic() - start)
    result = _spawn(workload, seed, seconds, trace, False, remaining)
    result["setup_samples"] = setups
    if setups:
        result["ref_setup_s"] = (statistics.median(setups)
                                 / statistics.median(factors))
    return result


def _load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def gated_metrics(result: dict, contract: dict, trace: int) -> dict:
    """The contract's metrics of one run, by name, with units."""
    if trace:
        values = dict(result["layers"])
    else:
        values = dict(result["metrics"])
        values["setup_s"] = result["ref_setup_s"]
        values["peak_rss_mb"] = result["peak_rss_mb"]
    wanted = contract["per_layer" if trace else "end_to_end"]
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name not in values:
            raise BenchmarkError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": spec["unit"]}
    return out


def describe(workload: str, result: dict, trace: int) -> str:
    """Human-readable lines: named metrics with unit and sample count."""
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"{workload}: {result['loop']} loop, {result['clients']} "
             f"client connection(s), {attempted} operations, "
             f"{failed} failed"]
    rows = [("error_rate", failed / max(1, attempted), "ratio", attempted)]
    if not trace:
        setups = result["setup_samples"]
        rows.append(("setup_s", result["ref_setup_s"], "ref s", len(setups)))
        rows.append(("setup_host_s", statistics.median(setups), "s",
                     len(setups)))
        rows.append(("peak_rss_mb", result["peak_rss_mb"], "MB", 1))
    rows += [(name, value, unit, count)
             for name, (value, unit, count) in result["report"].items()]
    if trace:
        rows += [(name, value, "", 1)
                 for name, value in sorted(result["layers"].items())]
    for name, value, unit, count in rows:
        lines.append(f"  {name:<40} {value:>14.6g} {unit:<12} n={count}")
    for error in result["errors"]:
        lines.append(f"  FAILED: {error}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        contract = _load_contract()
        seconds = args.seconds if args.seconds is not None \
            else contract["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        total = {"correct": True, "attempted": 0, "failed": 0,
                 "metrics": {}}
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace)
            print(describe(name, result, args.trace), file=sys.stderr)
            metrics = gated_metrics(result, contract, args.trace)
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            total["metrics"].update({prefix + key: value
                                     for key, value in metrics.items()})
        total["correct"] = total["failed"] == 0 and total["attempted"] > 0
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
