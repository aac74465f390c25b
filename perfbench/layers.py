"""Per-layer attribution from outside the program.

Three instruments, all installed from this directory and none inside
``src/``:

* :data:`LAYER_MODULES` — the one fixed module -> layer table.  A
  deterministic profile (``cProfile``) is rolled up through it by
  :func:`rollup`; time spent outside ``repro`` (numpy, BLAS, builtins,
  the standard library) is charged to the ``repro`` layer that called it.
* :class:`Probes` — thin wrappers around public entry points, patched at
  every import site, counting calls and timing the outermost call.
* host-clock spans written as a Chrome trace through ``repro.obs.export``
  (:class:`HostSpans`).

``repro.simmpi.shard`` and ``repro.lint`` are deliberately absent from
the table: no workload runs them, and the self-tests assert that.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types

#: layer -> the ``repro`` modules whose self time it owns
LAYER_MODULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("simmpi.engine", ("repro.simmpi.engine", "repro.simmpi.errors",
                       "repro.memo")),
    ("simmpi.fastp2p", ("repro.simmpi.fastp2p",)),
    ("simmpi.fastcoll", ("repro.simmpi.fastcoll",)),
    ("simmpi.aggregate", ("repro.simmpi.aggregate",)),
    ("simmpi.comm", ("repro.simmpi", "repro.simmpi.comm", "repro.simmpi.cart",
                     "repro.simmpi.fabric", "repro.simmpi.sanitizer")),
    ("simmpi.datatypes", ("repro.simmpi.datatypes",)),
    ("cluster.network", ("repro.cluster.network", "repro.cluster.topology")),
    ("runtime.context", ("repro.runtime.context",)),
    ("energy.rapl", ("repro.energy.rapl", "repro.energy.power_model")),
    ("energy.accounting", ("repro.energy.accounting",)),
    ("obs.symbolic", ("repro.obs.symbolic", "repro.obs", "repro.obs.tracer",
                      "repro.obs.metrics", "repro.obs.export")),
    # the rank programs with their numerics and kernels
    ("solvers", ("repro.solvers", "repro.solvers.dense",
                 "repro.solvers.kernels", "repro.solvers.ime",
                 "repro.solvers.ime.fault", "repro.solvers.ime.ft_parallel",
                 "repro.solvers.ime.parallel", "repro.solvers.ime.schemes",
                 "repro.solvers.ime.sequential", "repro.solvers.scalapack",
                 "repro.solvers.scalapack.pdgesv")),
    # cost models and data distribution, shared by the rank programs,
    # the skeletons and the analytic model
    ("solvers.model", ("repro.solvers.ime.costmodel",
                       "repro.solvers.scalapack.costmodel",
                       "repro.solvers.scalapack.blockcyclic",
                       "repro.solvers.scalapack.grid")),
    ("core.monitoring", ("repro.core", "repro.core.monitoring",
                         "repro.core.framework", "repro.core.records",
                         "repro.core.events", "repro.core.phases")),
    ("energy.papi", ("repro.energy", "repro.energy.papi")),
    ("energy.msr", ("repro.energy.msr",)),
    ("workloads.generator", ("repro.workloads", "repro.workloads.generator")),
    ("runtime.job", ("repro", "repro.runtime", "repro.runtime.job")),
    ("cluster.placement", ("repro.cluster", "repro.cluster.machine",
                           "repro.cluster.placement", "repro.cluster.slurm")),
    ("perfmodel.analytic", ("repro.perfmodel", "repro.perfmodel.analytic",
                            "repro.perfmodel.calibration",
                            "repro.perfmodel.timeline",
                            "repro.experiments.runner")),
    ("experiments.cache_tiers", ("repro.experiments.cache_tiers",
                                 "repro.experiments.cache")),
    ("serve.scheduler", ("repro.serve.scheduler",)),
    ("serve.app", ("repro.serve", "repro.serve.app", "repro.serve.daemon")),
    ("experiments.spec", ("repro.experiments", "repro.experiments.spec",
                          "repro.experiments.spec.loader",
                          "repro.experiments.spec.schema",
                          "repro.experiments.spec.yamlread",
                          "repro.experiments.sweep")),
)

#: standard-library code that owns its time when no ``repro`` function
#: called it: the daemon's HTTP stack and its pool machinery run at the
#: root of their threads
STDLIB_LAYERS: tuple[tuple[str, str], ...] = (
    ("/http/server.py", "serve.app"),
    ("/socketserver.py", "serve.app"),
    ("/multiprocessing/", "serve.scheduler"),
)
#: self time of this directory's own code (wrappers, clients, harness)
HARNESS = "harness"
#: time no table entry claims
OTHER = "other"

_HERE = os.path.dirname(os.path.abspath(__file__))


def module_to_layer() -> dict[str, str]:
    """The table inverted; raises if a module is listed twice."""
    table: dict[str, str] = {}
    for layer, modules in LAYER_MODULES:
        for module in modules:
            if module in table:
                raise ValueError(f"{module} maps to {table[module]} and "
                                 f"{layer}")
            table[module] = layer
    return table


def layers() -> list[str]:
    return [layer for layer, _ in LAYER_MODULES]


def module_of(filename: str) -> str | None:
    """``.../src/repro/simmpi/comm.py`` -> ``repro.simmpi.comm``."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    if index == 0 or parts[index - 1] != "src":
        return None
    names = parts[index:]
    names[-1] = names[-1][:-3]
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def _direct_owner(func, table) -> str | None:
    filename = func[0]
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return HARNESS
    module = module_of(filename)
    if module is not None:
        return table.get(module, OTHER)
    for fragment, layer in STDLIB_LAYERS:
        if fragment in filename.replace("\\", "/"):
            return layer
    return None


def rollup(stats: dict) -> tuple[dict[str, float], dict[str, int],
                                 set[str]]:
    """Self seconds and calls per layer from a ``pstats``-style dict.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    where ``callers`` maps a calling function to its ``(cc, nc, tt, ct)``
    share.  Functions outside ``repro``, this directory and
    :data:`STDLIB_LAYERS` hand their self time to their callers in
    proportion to the self time each caller's calls spent there,
    transitively, until a layer owns it; a chain with no owning caller
    ends in ``other``.  Calls are counted
    only for ``repro`` functions (cProfile counts a generator resumption
    as a call).  Also returns the set of ``repro`` modules seen.
    """
    table = module_to_layer()
    shares: dict = {}

    def owner_shares(func, stack: frozenset) -> dict[str, float]:
        if func in shares:
            return shares[func]
        direct = _direct_owner(func, table)
        if direct is not None:
            result = {direct: 1.0}
        elif func in stack or func not in stats:
            result = {OTHER: 1.0}
        else:
            callers = stats[func][4]
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
                total = sum(weights.values())
            result = {}
            if total <= 0:
                result = {OTHER: 1.0}
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                for layer, frac in owner_shares(caller,
                                                stack | {func}).items():
                    result[layer] = result.get(layer, 0.0) + \
                        frac * weight / total
        shares[func] = result
        return result

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    seen: set[str] = set()
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        module = module_of(func[0])
        if module is not None:
            seen.add(module)
            layer = table.get(module, OTHER)
            calls[layer] = calls.get(layer, 0) + nc
        for layer, frac in owner_shares(func, frozenset()).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * frac
    return self_s, calls, seen


def merge_stats(into: dict, stats: dict) -> None:
    """Add one ``pstats``-style dict into another (pstats.Stats.add)."""
    import pstats

    for func, (cc, nc, tt, ct, callers) in stats.items():
        if func in into:
            old = into[func]
            into[func] = (old[0] + cc, old[1] + nc, old[2] + tt,
                          old[3] + ct, pstats.add_callers(old[4], callers))
        else:
            into[func] = (cc, nc, tt, ct, dict(callers))


class Probes:
    """Call counts and outermost busy time of wrapped entry points.

    ``install`` replaces an attribute of a module or class with a
    wrapper and, for module attributes, rebinds every module that
    imported the same object by name, so ``from x import f`` callers are
    seen too.  ``restore`` puts every original back.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy_s: dict[str, float] = {}
        self._lock = threading.Lock()
        self._depth = threading.local()
        self._undo: list = []

    def record(self, key: str, busy: float = 0.0) -> None:
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.busy_s[key] = self.busy_s.get(key, 0.0) + busy

    def install(self, owner, attr: str, key: str,
                timed: bool = True) -> None:
        """Wrap ``owner.attr``; calls nested inside another call with
        the same ``key`` count but do not add busy time twice."""
        original = getattr(owner, attr)
        probes = self

        def wrapper(*args, **kwargs):
            if not timed:
                probes.record(key)
                return original(*args, **kwargs)
            depth = getattr(probes._depth, key, 0)
            setattr(probes._depth, key, depth + 1)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                setattr(probes._depth, key, depth)
                busy = time.perf_counter() - t0 if depth == 0 else 0.0
                probes.record(key, busy=busy)

        functools.update_wrapper(wrapper, original)
        sites = [owner]
        if isinstance(owner, types.ModuleType):
            sites += [module for module in list(sys.modules.values())
                      if module is not None and module is not owner
                      and getattr(module, attr, None) is original]
        for site in sites:
            setattr(site, attr, wrapper)
            self._undo.append((site, attr, original))

    def restore(self) -> None:
        for site, attr, original in reversed(self._undo):
            setattr(site, attr, original)
        self._undo.clear()

    def count(self, key: str) -> int:
        return self.calls.get(key, 0)

    def busy(self, key: str) -> float:
        return self.busy_s.get(key, 0.0)


def install_des_probes(probes: Probes) -> None:
    """Wrappers for the DES workloads' public entry points."""
    from repro.energy.papi import PapiLibrary
    from repro.energy.rapl import RaplPackage
    from repro.runtime.context import RankContext
    from repro.simmpi import aggregate
    from repro.solvers.kernels import PanelAccumulator

    for name in ("bcast_times", "gather_times", "gather_sizes"):
        probes.install(aggregate, name, "simmpi.aggregate")
    # hot paths: counted only, so the wrappers stay cheap; RankContext
    # .compute is a generator function, whose call only creates it
    probes.install(RaplPackage, "begin_core_activity", "energy.activity",
                   timed=False)
    probes.install(RankContext, "compute", "runtime.context.compute",
                   timed=False)
    for name in ("start", "read", "stop"):
        probes.install(PapiLibrary, name, "energy.papi.reads")
    probes.install(PanelAccumulator, "flush", "solvers.kernels.flush")


def install_serve_probes(probes: Probes) -> None:
    """Wrappers for the campaign daemon's public entry points (call in
    the daemon process before the scheduler forks its pool)."""
    from repro.experiments import runner
    from repro.experiments import spec as spec_pkg
    from repro.experiments.cache_tiers import TieredResultCache
    from repro.perfmodel import analytic
    from repro.serve import app
    from repro.serve.scheduler import Flight

    probes.install(TieredResultCache, "get", "cache_tiers.get")
    probes.install(TieredResultCache, "put", "cache_tiers.put")
    probes.install(runner, "run_analytic_batch", "perfmodel.analytic")
    probes.install(runner, "run_analytic", "perfmodel.analytic")
    probes.install(analytic, "analytic_repetitions", "perfmodel.evals")
    probes.install(runner, "run_analytic", "perfmodel.evals")
    probes.install(Flight, "wait", "scheduler.flight_wait")
    probes.install(app._Handler, "do_POST", "app.do_POST")
    for name in ("load_text", "compile_tasks"):
        probes.install(spec_pkg, name, "spec.parse")


class HostSpans:
    """Coarse host-clock spans exported through ``repro.obs.export``."""

    def __init__(self, pid: int):
        from repro.obs.tracer import SpanTracer

        self.pid = pid
        self.tracer = SpanTracer(clock=time.perf_counter)
        self._lock = threading.Lock()

    def add(self, name: str, cat: str, t0: float, t1: float,
            **args) -> None:
        with self._lock:
            span = self.tracer.begin_span(name, cat=cat, pid=self.pid,
                                          tid=threading.get_ident() % 100000,
                                          t=t0, args=args or None)
            self.tracer.end_span(span, t=t1)

    def write(self, path: str, **metadata) -> None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self.tracer, path,
                           metadata={"clock": "host-perf_counter-s*1e6",
                                     "generator": "perfbench", **metadata})
