"""Start the campaign daemon for the ``campaign-serve`` workload.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 perfbench/daemon.py --cache-dir DIR [--trace-dir DIR]

Builds the daemon with ``repro.serve.app.create_server`` on an ephemeral
port with :data:`JOBS` pool workers, prints ``port <n> <import seconds>
<build seconds>`` and serves until its standard input closes.  It then
shuts down (pool included) and prints one JSON line with its peak
resident memory.  With ``--trace-dir`` it installs the serve-layer
probes before the pool forks, profiles every thread and every pool
task, and writes ``daemon-stats.json`` and a Chrome trace into that
directory on exit.
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import json
import marshal
import os
import resource
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import layers  # noqa: E402

#: pool workers: one per core of the 2-core host the benchmark was
#: defined on
JOBS = 2


class _Tracing:
    """Per-thread and per-pool-task profiles plus probe counters."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.probes = layers.Probes()
        self.spans = layers.HostSpans(pid=1)
        self.profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        from repro.serve import scheduler

        layers.install_serve_probes(self.probes)
        tracing = self
        original_run = threading.Thread.run

        def run(thread):
            profile = cProfile.Profile(time.thread_time)
            with tracing._lock:
                tracing.profiles.append(profile)
            profile.enable()
            try:
                original_run(thread)
            finally:
                profile.disable()

        threading.Thread.run = run

        original_wait = scheduler.Flight.wait

        def wait(flight, timeout=None):
            t0 = time.perf_counter()
            try:
                return original_wait(flight, timeout)
            finally:
                tracing.spans.add("flight", "flight", t0,
                                  time.perf_counter(),
                                  address=flight.address[:12])

        scheduler.Flight.wait = wait
        self._wrap_pool_tasks(scheduler)

    def _wrap_pool_tasks(self, scheduler) -> None:
        """Profile each pool task in the worker and dump the worker's
        cumulative profile and probe counts after every task (workers
        are terminated, not joined, so nothing runs at their exit)."""
        original = scheduler._worker_run
        tracing = self
        state: dict = {}

        def _worker_run(task):
            profile = state.get("profile")
            if profile is None:
                # a pool worker runs one task at a time on one thread
                profile = state["profile"] = cProfile.Profile()
                tracing.probes.calls.clear()
                tracing.probes.busy_s.clear()
            profile.enable()
            try:
                return original(task)
            finally:
                profile.disable()
                profile.create_stats()
                base = os.path.join(tracing.trace_dir,
                                    f"worker-{os.getpid()}")
                with open(base + ".prof.tmp", "wb") as fh:
                    marshal.dump(profile.stats, fh)
                os.replace(base + ".prof.tmp", base + ".prof")
                with open(base + ".json.tmp", "w") as fh:
                    json.dump({"calls": tracing.probes.calls,
                               "busy_s": tracing.probes.busy_s}, fh)
                os.replace(base + ".json.tmp", base + ".json")

        _worker_run.__module__ = original.__module__
        _worker_run.__qualname__ = original.__qualname__
        scheduler._worker_run = _worker_run

    def write(self, server) -> None:
        stats: dict = {}
        for profile in self.profiles:
            profile.create_stats()
            layers.merge_stats(stats, profile.stats)
        calls = dict(self.probes.calls)
        busy = dict(self.probes.busy_s)
        for path in glob.glob(os.path.join(self.trace_dir, "worker-*.prof")):
            with open(path, "rb") as fh:
                layers.merge_stats(stats, marshal.load(fh))
            with open(path[:-5] + ".json") as fh:
                worker = json.load(fh)
            for key, value in worker["calls"].items():
                calls[key] = calls.get(key, 0) + value
            for key, value in worker["busy_s"].items():
                busy[key] = busy.get(key, 0.0) + value
        self_s, layer_calls, modules = layers.rollup(stats)
        out = {
            "self_s": self_s,
            "calls": layer_calls,
            "modules": sorted(modules),
            "probe_calls": calls,
            "probe_busy_s": busy,
            "server_stats": server.stats(),
        }
        with open(os.path.join(self.trace_dir, "daemon-stats.json"),
                  "w") as fh:
            json.dump(out, fh)
        self.spans.write(os.path.join(self.trace_dir, "daemon-trace.json"),
                         process="daemon")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from repro.serve.app import create_server
    t1 = time.perf_counter()

    tracing = None
    if args.trace_dir is not None:
        tracing = _Tracing(args.trace_dir)
        tracing.install()
    server = create_server(port=0, jobs=JOBS, cache_dir=args.cache_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    t2 = time.perf_counter()
    print(f"port {server.server_address[1]} {t1 - t0!r} {t2 - t1!r}",
          flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown_all()
        thread.join(timeout=10.0)
    if tracing is not None:
        tracing.write(server)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"peak_rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
