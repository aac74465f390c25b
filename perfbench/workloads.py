"""The four benchmark workloads.

Each workload is one closed-loop client.  ``setup()`` does everything a
user pays before the first operation; ``run(seconds)`` repeats the
workload's operation until the measuring time is spent, checking every
result, and returns a :class:`Outcome`.  With ``trace=True`` the run first
measures a few untraced operations, then installs the probes and the
profiler of :mod:`perfbench.layers` and measures traced ones, so the
per-layer numbers come with their tracing overhead.

Modeled (simulated-time) quantities are correctness checks here, never
performance metrics: every performance number is host time.
"""

from __future__ import annotations

import cProfile
import contextlib
import http.client
import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from perfbench import calibration, layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: scratch space inside the checkout (listed in .gitignore)
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: one simulated job or one monitored experiment may take this long
#: before it counts as failed
JOB_TIMEOUT_S = 60.0
#: one HTTP request may take this long before it counts as failed
REQUEST_TIMEOUT_S = 30.0
#: relative residual a monitored solve must reach
RESIDUAL_TOL = 1e-10
#: |measured - oracle| / oracle energy a monitored repetition may show
MEASUREMENT_ERROR_BOUND = 0.1


class OperationTimeout(Exception):
    """An operation ran past its timeout."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`OperationTimeout` in the main thread after
    ``seconds`` of wall time (a hung job becomes a failed operation)."""
    def expire(_signum, _frame):
        raise OperationTimeout(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the p99 of 1100 samples has 11 above it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: the gated end-to-end metrics (name -> value)
    metrics: dict[str, float] = field(default_factory=dict)
    #: the workload's own named metrics: name -> (value, unit, samples)
    report: dict[str, tuple] = field(default_factory=dict)
    #: per-layer metrics (trace runs only)
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _energy_key(node: int, domain: str) -> str:
    return f"{node}/{domain}"


def modeled_fingerprint(result) -> dict:
    """The modeled quantities of one ``JobResult`` the gate compares."""
    return {
        "duration": result.duration,
        "messages": result.traffic["messages"],
        "bytes": result.traffic["bytes"],
        "energy_j": {_energy_key(node, domain): joules
                     for (node, domain), joules
                     in sorted(result.node_energy_j.items())},
    }


def _layer_metrics(self_s: dict, calls: dict, probes: layers.Probes,
                   ops: int) -> dict[str, float]:
    """Per-operation layer numbers from a profile roll-up and probes."""
    ops = max(1, ops)
    out: dict[str, float] = {}
    for layer in ("simmpi.engine", "simmpi.fastp2p", "simmpi.fastcoll",
                  "simmpi.comm", "simmpi.datatypes", "cluster.network"):
        out[f"{layer}.calls"] = calls.get(layer, 0) / ops
    for layer in layers.layers() + [layers.OTHER, layers.HARNESS]:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / ops
    out["simmpi.aggregate.calls"] = probes.count("simmpi.aggregate") / ops
    out["simmpi.aggregate.busy_s"] = probes.busy("simmpi.aggregate") / ops
    out["runtime.context.compute_calls"] = \
        probes.count("runtime.context.compute") / ops
    out["energy.activity_calls"] = probes.count("energy.activity") / ops
    out["solvers.kernels.flushes"] = \
        probes.count("solvers.kernels.flush") / ops
    out["core.monitoring.papi_reads"] = \
        probes.count("energy.papi.reads") / ops
    return out


#: per-layer metrics a workload without a daemon reports as zero
SERVE_LAYER_METRICS = (
    "perfmodel.analytic.evals", "perfmodel.analytic.busy_s",
    "experiments.cache_tiers.l1_hit_ratio",
    "experiments.cache_tiers.l2_hit_ratio", "experiments.cache_tiers.puts",
    "experiments.cache_tiers.put_bytes", "experiments.cache_tiers.evictions",
    "experiments.cache_tiers.get_s", "experiments.cache_tiers.put_s",
    "serve.scheduler.launched", "serve.scheduler.coalesced",
    "serve.scheduler.failed", "serve.scheduler.coalesce_ratio",
    "serve.scheduler.flight_wait_s", "serve.app.requests",
    "serve.app.handler_busy_s", "serve.app.queue_s",
    "experiments.spec.parse_s",
)
DES_LAYER_METRICS = (
    "simmpi.aggregate.calls", "simmpi.aggregate.busy_s",
    "runtime.context.compute_calls", "energy.activity_calls",
    "solvers.kernels.flushes", "core.monitoring.papi_reads",
)


class _DesWorkload:
    """Shared loop of the three workloads that run simulated jobs."""

    loop = "closed"
    clients = 1
    #: operations measured untraced before tracing starts (trace runs)
    untraced_ops = 2
    min_ops = 3
    #: operations of distinct kinds, run in turn (traced runs take whole
    #: cycles so every kind is in the per-operation numbers)
    cycle = 1
    job_unit = "s per job"

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        self.setup_breakdown: dict[str, float] = {}
        self.bracket = calibration.Bracket()

    # subclasses: setup(), and operation() -> (sample, problems, wall)
    # where sample is (kind, jobs, messages per job), problems the failed
    # checks and wall the host seconds of the program call alone

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _one(self, outcome: Outcome, calibrated: bool = True):
        """Run and check one operation; returns ``(sample, wall,
        reference-speed wall)`` or None when it failed."""
        before = self.bracket.before() if calibrated else None
        outcome.attempted += 1
        try:
            with time_limit(JOB_TIMEOUT_S):
                sample, problems, wall = self.operation()
        except Exception as exc:  # a failed job is a measured outcome
            outcome.fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            after = self.bracket.after() if calibrated else None
        if problems:
            outcome.fail("; ".join(problems[:3]))
            return None
        ref = calibration.reference_seconds(wall, before, after) \
            if calibrated else None
        return sample, wall, ref

    def run(self, seconds: float) -> Outcome:
        outcome = Outcome()
        start = time.perf_counter()
        untraced_until = start + (seconds * 0.3 if self.trace else seconds)
        # Unrecorded warm-up: lazily filled memo tables and first-touch
        # allocations belong to no measured job.  It is still checked.
        self._one(outcome)
        samples = []
        while True:
            got = self._one(outcome)
            if got is not None:
                samples.append(got)
            enough = self.untraced_ops if self.trace else self.min_ops
            if (time.perf_counter() >= untraced_until
                    and len(samples) >= enough) or outcome.attempted > 1000:
                break
        self._summarize(samples, outcome)
        if self.trace:
            self._traced(outcome, start + seconds, samples)
        return outcome

    @staticmethod
    def job_wall(samples, column: int = 1) -> tuple[float, int]:
        """(seconds, modeled messages) of one job of each kind: the sum
        over kinds of the median per-job time in ``column`` (1: host
        seconds, 2: reference-speed seconds)."""
        by_kind: dict[str, list[tuple[float, int]]] = {}
        for sample in samples:
            kind, jobs, messages = sample[0]
            by_kind.setdefault(kind, []).append((sample[column] / jobs,
                                                 messages))
        wall = sum(statistics.median(w for w, _ in per_job)
                   for per_job in by_kind.values())
        messages = sum(per_job[0][1] for per_job in by_kind.values())
        return wall, messages

    def _summarize(self, samples, outcome: Outcome) -> None:
        if not samples:
            return
        count = len(samples)
        wall, messages = self.job_wall(samples)
        ref, _ = self.job_wall(samples, column=2)
        outcome.metrics["op_p50_ref_ms"] = ref * 1e3
        outcome.metrics["work_per_ref_s"] = messages / ref
        outcome.report["job_wall_s"] = (wall, self.job_unit, count)
        outcome.report["modeled_msgs_per_s"] = (messages / wall, "1/s",
                                                count)
        outcome.report["job_wall_ref_s"] = (ref, self.job_unit, count)

    def _traced(self, outcome: Outcome, deadline: float,
                untraced: list) -> None:
        probes = layers.Probes()
        layers.install_des_probes(probes)
        spans = layers.HostSpans(pid=0)
        spans.add("setup", "setup", *self.setup_span)
        profile = cProfile.Profile()
        traced = []
        ops = 0
        try:
            while True:
                t0 = time.perf_counter()
                profile.enable()
                try:
                    got = self._one(outcome, calibrated=False)
                finally:
                    profile.disable()
                ops += 1
                spans.add("job", "operation", t0, time.perf_counter())
                if got is not None:
                    traced.append(got)
                over_time = time.perf_counter() >= deadline
                if (over_time and ops % self.cycle == 0) or ops >= 50:
                    break
        finally:
            probes.restore()
        profile.create_stats()
        self_s, calls, modules = layers.rollup(profile.stats)
        outcome.layers.update(_layer_metrics(self_s, calls, probes, ops))
        for name in SERVE_LAYER_METRICS:
            outcome.layers[name] = 0.0
        outcome.layers.update(self.setup_breakdown)
        if traced and untraced:
            base = self.job_wall(untraced)[0]
            over = self.job_wall(traced)[0] - base
            outcome.layers["tracing.overhead_s"] = over
            outcome.layers["tracing.overhead_frac"] = over / base
        outcome.layers["_modules"] = sorted(modules)
        os.makedirs(WORK_DIR, exist_ok=True)
        spans.write(os.path.join(WORK_DIR,
                                 f"trace-{self.name}-seed{self.seed}.json"),
                    workload=self.name)


class SkeletonWorkload(_DesWorkload):
    """An exact skeleton on Marconi A3 at full load (a Table-1 config).

    The skeletons are data-independent: the seed changes no input, and
    every job must reproduce the stored reference bit for bit.
    """

    def __init__(self, name: str, algorithm: str, n: int, ranks: int,
                 nb: int, seed: int, trace: bool = False,
                 reference: dict | None = None):
        super().__init__(seed, trace)
        self.name = name
        self.algorithm = algorithm
        self.n = n
        self.ranks = ranks
        self.nb = nb
        self.reference = reference

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.cluster.machine import marconi_a3
        from repro.cluster.placement import LoadShape, Placement, layout_for
        from repro.obs.symbolic import run_skeleton_job
        from repro.runtime.job import Job
        t1 = time.perf_counter()
        machine = marconi_a3()
        Job(machine, Placement(layout_for(self.ranks, LoadShape.FULL,
                                          machine, allow_tail=True),
                               machine))
        t2 = time.perf_counter()
        if self.reference is None:
            self.reference = load_reference()[self.name]
        self._run = run_skeleton_job
        self.setup_span = (t0, time.perf_counter())
        self.setup_breakdown = {"setup.import_s": t1 - t0,
                                "setup.generate_s": 0.0,
                                "setup.job_build_s": t2 - t1}

    def operation(self):
        t0 = time.perf_counter()
        result = self._run(self.algorithm, self.n, self.ranks, nb=self.nb)
        wall = time.perf_counter() - t0
        got = modeled_fingerprint(result)
        ref = self.reference
        problems = [f"{key}: {got[key]!r} != reference {ref[key]!r}"
                    for key in ("duration", "messages", "bytes")
                    if got[key] != ref[key]]
        if got["energy_j"] != ref["energy_j"]:
            problems.append("per-(node, domain) energy differs from the "
                            "reference")
        return (self.algorithm, 1, got["messages"]), problems, wall


class MonitoredSolveWorkload(_DesWorkload):
    """The paper's monitored pipeline with real numerics on the small
    test machine: one operation is one ``run_experiment`` (3 repetitions)
    of one solver, alternating IMe and ScaLAPACK."""

    name = "monitored-solve"
    experiments = (("ime", 1080), ("scalapack", 1080))
    ranks = 8
    repetitions = 3
    #: compute profile override (None: each algorithm's calibrated one)
    profile = None
    min_ops = 4
    cycle = 2
    job_unit = "s per ime+scalapack job pair"

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.cluster.machine import small_test_machine
        from repro.cluster.placement import LoadShape, Placement, layout_for
        from repro.core.framework import ExperimentSpec, MonitoringFramework
        from repro.runtime.job import Job
        from repro.workloads.generator import generate_system
        t1 = time.perf_counter()
        systems = {n: generate_system(n, seed=self.seed)
                   for _alg, n in self.experiments}
        t2 = time.perf_counter()
        machine = small_test_machine()
        Job(machine, Placement(layout_for(self.ranks, LoadShape.FULL,
                                          machine), machine))
        t3 = time.perf_counter()
        self.specs = [
            ExperimentSpec(algorithm=alg, system=systems[n], ranks=self.ranks,
                           repetitions=self.repetitions, machine=machine,
                           base_seed=self.seed, profile=self.profile)
            for alg, n in self.experiments
        ]
        self.framework = MonitoringFramework()
        self.first: dict[str, list] = {}
        self._next = 0
        self.setup_span = (t0, time.perf_counter())
        self.setup_breakdown = {"setup.import_s": t1 - t0,
                                "setup.generate_s": t2 - t1,
                                "setup.job_build_s": t3 - t2}

    def operation(self):
        import numpy as np

        spec = self.specs[self._next % len(self.specs)]
        self._next += 1
        t0 = time.perf_counter()
        result = self.framework.run_experiment(spec)
        wall = time.perf_counter() - t0
        problems = []
        system = spec.system
        norm_b = float(np.linalg.norm(system.b))
        modeled = []
        for run in result.runs:
            x = np.asarray(run.solution)
            residual = float(np.linalg.norm(system.a @ x - system.b)) / norm_b
            if not residual <= RESIDUAL_TOL:
                problems.append(f"{spec.algorithm} rep {run.repetition}: "
                                f"residual {residual:.3g} > {RESIDUAL_TOL}")
            error = run.measurement_error_frac
            if not 0.0 <= error <= MEASUREMENT_ERROR_BOUND:
                problems.append(f"{spec.algorithm} rep {run.repetition}: "
                                f"measurement error {error:.3g}")
            modeled.append((modeled_fingerprint(run.oracle),
                            [(m.node_id, m.t_start, m.t_stop,
                              sorted(m.values_uj.items()))
                             for m in run.measured.nodes]))
        first = self.first.setdefault(spec.algorithm, modeled)
        if modeled != first:
            problems.append(f"{spec.algorithm}: modeled quantities differ "
                            f"from this run's first experiment")
        messages = result.runs[0].oracle.traffic["messages"]
        return (spec.algorithm, len(result.runs), messages), problems, wall


# ----------------------------------------------------------- campaign-serve
def paper_spec(seed: int) -> str:
    """The §5.1 analytic grid (72 configurations) as a ``/run`` body."""
    return ("schema: 1\n"
            "experiment:\n"
            "  mode: analytic\n"
            "  algorithms: [ime, scalapack]\n"
            "  matrix_sizes: [8640, 17280, 25920, 34560]\n"
            "  ranks: [144, 576, 1296]\n"
            "  shapes: [full, half-1socket, half-2sockets]\n"
            "  repetitions: 10\n"
            f"  seed: {seed}\n")


def single_spec(config: dict) -> str:
    return ("schema: 1\n"
            "experiment:\n"
            "  mode: analytic\n"
            f"  algorithms: [{config['algorithm']}]\n"
            f"  matrix_sizes: [{config['n']}]\n"
            f"  ranks: [{config['ranks']}]\n"
            f"  shapes: [{config['shape']}]\n"
            f"  repetitions: {config['repetitions']}\n"
            f"  seed: {config['seed']}\n")


class Connection:
    """One persistent client connection; every request has a timeout."""

    def __init__(self, port: int):
        self.port = port
        self._conn = None

    def request(self, method: str, path: str, body: str | None = None):
        """-> (status, parsed body or NDJSON lines, wall seconds);
        status 0 means the request failed without a response."""
        t0 = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            self._conn.request(method, path,
                               body=body.encode() if body else None)
            response = self._conn.getresponse()
            raw = response.read()
            if response.will_close:
                self.close()
            text = raw.decode()
            if response.headers.get_content_type() == "application/x-ndjson":
                payload = [json.loads(line) for line in text.splitlines()]
            else:
                payload = json.loads(text) if text else None
            return response.status, payload, time.perf_counter() - t0
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return 0, repr(exc), time.perf_counter() - t0

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _ready_line(proc: subprocess.Popen) -> str:
    """The first line a helper process prints, or "" if it printed none
    within the request timeout."""
    ready, _, _ = select.select([proc.stdout], [], [], REQUEST_TIMEOUT_S)
    return proc.stdout.readline() if ready else ""


class EchoServer:
    """``perfbench/echo.py`` in its own process: the null request that
    warm reads are calibrated against."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "echo.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        try:
            line = _ready_line(self.proc)
            if not line.startswith("port "):
                raise RuntimeError(f"echo server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                # closing its standard input tells the server to stop
                self.proc.communicate(timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Daemon:
    """``perfbench/daemon.py`` in its own process, on a fresh cache root."""

    def __init__(self, trace_dir: str | None = None):
        os.makedirs(WORK_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR)
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--cache-dir", os.path.join(self.root, "cache")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
            if p)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env,
                                     text=True, cwd=ROOT)
        self.peak_rss_mb = None
        try:
            line = _ready_line(self.proc)
            if not line.startswith("port "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            _, port, self.import_s, self.build_s = line.split()
            self.port = int(port)
            health = Connection(self.port)
            while True:
                status, payload, _ = health.request("GET", "/health")
                if status == 200 and payload.get("ok"):
                    break
                if time.perf_counter() - t0 > REQUEST_TIMEOUT_S:
                    raise RuntimeError("daemon never became healthy")
                time.sleep(0.01)
            health.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def stats(self) -> dict:
        conn = Connection(self.port)
        status, payload, _ = conn.request("GET", "/stats")
        conn.close()
        if status != 200:
            raise RuntimeError(f"/stats failed: {status} {payload}")
        return payload

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                # closing its standard input tells the daemon to stop
                out, _ = self.proc.communicate(timeout=REQUEST_TIMEOUT_S)
                lines = out.strip().splitlines()
                if lines:
                    self.peak_rss_mb = json.loads(lines[-1])["peak_rss_mb"]
            except (subprocess.TimeoutExpired, ValueError, KeyError):
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.root, ignore_errors=True)


class CampaignServeWorkload:
    """The campaign daemon under four phases of closed-loop traffic.

    cold: ``POST /run`` of the §5 grid at fresh seeds (writes);
    warm: single-config ``POST /batch`` reads over the grid on one
    connection (L1 hits); mixed: warm reads on connection A while
    connection B streams cold 8-config ``/batch`` requests (writes
    beside reads); dedup: 2 identical cold ``/run`` requests at once,
    which must launch exactly one computation.
    """

    name = "campaign-serve"
    loop = "closed"
    clients = 2
    #: share of the measuring time per phase (dedup takes the rest)
    budget = {"cold": 0.5, "warm": 0.15, "mixed": 0.2}
    #: warm/mixed reads needed so >= 10 samples lie beyond p99
    min_reads = 1100
    batch_size = 8
    #: served rows checked per path (cold /run, cold /batch)
    rows_checked = 4
    #: warm reads between two calibrations
    segment_s = 0.25

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        # the mixed phase's writer thread and the dedup phase draw here
        self.rng = random.Random(seed + 1)
        self._seed_counter = 0
        self.daemon: Daemon | None = None
        self.traced_pass = False
        self.daemon_peak_rss_mb: float | None = None
        self.setup_breakdown: dict[str, float] = {}

    def _fresh_seed(self) -> int:
        self._seed_counter += 1
        return 1_000_000 + (self.seed % 100_000) * 1000 + self._seed_counter

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.daemon = Daemon()
        self.setup_s = self.daemon.setup_s
        self.setup_span = (t0, time.perf_counter())
        # the daemon's imports, and its tiers, scheduler and pool fork
        self.setup_breakdown = {
            "setup.import_s": float(self.daemon.import_s),
            "setup.generate_s": 0.0,
            "setup.job_build_s": float(self.daemon.build_s),
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon_peak_rss_mb = self.daemon.peak_rss_mb
            self.daemon = None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the (last) daemon process."""
        if self.daemon_peak_rss_mb is None:
            raise RuntimeError("the daemon did not report its peak RSS")
        return self.daemon_peak_rss_mb

    # ------------------------------------------------------------- phases
    def _cold(self, port, until, outcome, log) -> list[dict]:
        rates, ref_rates, configs = [], [], []
        # the request keeps both pool workers busy
        bracket = calibration.Bracket(every_cpu=True)
        while True:
            before = bracket.before()
            conn = Connection(port)
            status, lines, wall = conn.request(
                "POST", "/run", paper_spec(self._fresh_seed()))
            conn.close()
            after = bracket.after()
            outcome.attempted += 1
            log.append(("run", time.perf_counter() - wall, wall))
            points = [line for line in lines if line.get("type") == "point"] \
                if status == 200 else []
            bad = status != 200 or len(points) != 72 or any(
                line.get("type") == "error" or line.get("cached")
                for line in lines)
            if bad:
                outcome.fail(f"cold /run: HTTP {status} "
                             f"{str(lines)[:200]}")
            else:
                rates.append(len(points) / wall)
                ref_rates.append(len(points) / calibration.reference_seconds(
                    wall, before, after))
                configs = [p["config"] for p in points]
                self.run_rows.extend((p["config"], p["result"])
                                     for p in points[:2])
            if time.perf_counter() >= until and (rates or outcome.failed):
                break
        if rates:
            outcome.metrics["work_per_ref_s"] = statistics.median(ref_rates)
            outcome.report["cold_configs_per_s"] = (
                statistics.median(rates), "1/s", len(rates))
            outcome.report["cold_configs_per_ref_s"] = (
                statistics.median(ref_rates), "1/s", len(rates))
        return configs

    def _reads(self, conn, configs, until, outcome,
               echo: Connection | None = None) -> tuple[list, list]:
        """Single-config ``/batch`` reads in this workload's seeded
        order.  Returns host latencies and, with an ``echo`` connection,
        the same latencies at reference speed: each read is followed by
        a null request, and every ``segment_s`` the reads are scaled by
        the median null-request latency of their segment."""
        order = list(range(len(configs)))
        random.Random(self.seed).shuffle(order)
        latencies, ref_latencies, segment, nulls = [], [], [], []
        segment_end = time.perf_counter() + self.segment_s
        self.read_log = []
        index = 0
        while True:
            config = configs[order[index % len(order)]]
            body = json.dumps({"configs": [config]})
            index += 1
            status, payload, wall = conn.request("POST", "/batch", body)
            outcome.attempted += 1
            if status != 200 or payload.get("from_cache") != 1:
                outcome.fail(f"warm /batch: HTTP {status} "
                             f"{str(payload)[:200]}")
            else:
                latencies.append(wall)
                segment.append(wall)
                self.read_log.append(("batch", time.perf_counter() - wall,
                                      wall))
            if echo is not None:
                status, _, null = echo.request("POST", "/echo", body)
                if status == 200:
                    nulls.append(null)
            now = time.perf_counter()
            done = now >= until and (len(latencies) >= self.min_reads
                                     or outcome.failed)
            if echo is not None and nulls and (done or now >= segment_end):
                scale = calibration.ECHO_REFERENCE_S / statistics.median(nulls)
                ref_latencies.extend(w * scale for w in segment)
                segment, nulls = [], []
                segment_end = now + self.segment_s
            if done:
                break
        return latencies, ref_latencies

    def _warm(self, port, configs, until, outcome, log) -> None:
        conn = Connection(port)
        # the traced pass reports no reference-speed latencies
        server = None if self.traced_pass else EchoServer()
        echo = None if server is None else Connection(server.port)
        try:
            latencies, ref_latencies = self._reads(conn, configs, until,
                                                   outcome, echo=echo)
        finally:
            conn.close()
            if server is not None:
                echo.close()
                server.stop()
        log.extend(self.read_log)
        if not latencies:
            return
        n = len(latencies)
        outcome.report["warm_p50_ms"] = (quantile(latencies, 0.5) * 1e3,
                                         "ms", n)
        outcome.report["warm_p99_ms"] = (quantile(latencies, 0.99) * 1e3,
                                         "ms", n)
        # one connection, closed loop: the null requests are not counted
        outcome.report["warm_rps"] = (n / sum(latencies), "1/s", n)
        if ref_latencies:
            p50 = quantile(ref_latencies, 0.5) * 1e3
            outcome.metrics["op_p50_ref_ms"] = p50
            outcome.report["warm_p50_ref_ms"] = (p50, "ms", n)
            outcome.report["warm_p99_ref_ms"] = (
                quantile(ref_latencies, 0.99) * 1e3, "ms", n)

    def _mixed(self, port, configs, until, outcome, log) -> None:
        stop = threading.Event()
        writes: list[tuple[int, float]] = []
        write_errors: list[str] = []
        write_log: list = []

        def writer():
            conn = Connection(port)
            while not stop.is_set():
                batch = [dict(configs[self.rng.randrange(len(configs))],
                              seed=self._fresh_seed())
                         for _ in range(self.batch_size)]
                status, payload, wall = conn.request(
                    "POST", "/batch", json.dumps({"configs": batch}))
                if status != 200 or payload.get("from_cache") != 0 or \
                        payload.get("count") != len(batch):
                    write_errors.append(f"mixed /batch: HTTP {status} "
                                        f"{str(payload)[:200]}")
                else:
                    writes.append((len(batch), wall))
                    write_log.append(("batch", time.perf_counter() - wall,
                                      wall))
                    first = payload["results"][0]
                    self.batch_rows.append((first["config"],
                                            first["result"]))
                if time.perf_counter() >= until:
                    break
            conn.close()

        thread = threading.Thread(target=writer, daemon=True)
        reader = Connection(port)
        thread.start()
        latencies, _ = self._reads(reader, configs, until, outcome)
        stop.set()
        thread.join(timeout=REQUEST_TIMEOUT_S * 2)
        reader.close()
        outcome.attempted += len(writes) + len(write_errors)
        for message in write_errors:
            outcome.fail(message)
        if thread.is_alive():
            outcome.fail("mixed writer did not finish")
        log.extend(self.read_log)
        log.extend(write_log)
        if latencies:
            p99 = quantile(latencies, 0.99) * 1e3
            outcome.report["mixed_p99_ms"] = (p99, "ms", len(latencies))
        if writes:
            rate = sum(n for n, _ in writes) / sum(w for _, w in writes)
            outcome.report["batch_configs_per_s"] = (rate, "1/s",
                                                     len(writes))

    def _dedup(self, port, configs, until, outcome, log) -> None:
        rounds = 0
        while True:
            config = dict(configs[self.rng.randrange(len(configs))],
                          seed=self._fresh_seed())
            before = self.daemon.stats()["scheduler"]["launched"]
            body = single_spec(config)
            results: list = [None, None]
            barrier = threading.Barrier(2)

            def client(slot):
                conn = Connection(port)
                barrier.wait(timeout=REQUEST_TIMEOUT_S)
                results[slot] = conn.request("POST", "/run", body)
                conn.close()

            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=REQUEST_TIMEOUT_S * 2)
            after = self.daemon.stats()["scheduler"]["launched"]
            outcome.attempted += 2
            for result in results:
                if result is None:
                    outcome.fail("dedup request hung")
                    continue
                status, lines, wall = result
                log.append(("dedup", time.perf_counter() - wall, wall))
                if status != 200 or not any(
                        line.get("type") == "point" for line in lines):
                    outcome.fail(f"dedup /run: HTTP {status}")
            outcome.attempted += 1
            if after - before != 1:
                outcome.fail(f"dedup launched {after - before} "
                             f"computations, expected 1")
            rounds += 1
            if rounds >= 3 and time.perf_counter() >= until:
                break

    def _check_rows(self, outcome) -> None:
        """Served rows must be byte-equal to in-process ``run_analytic``."""
        # the reference evaluation must neither read nor fill a disk cache
        os.environ["REPRO_CACHE_DIR"] = "off"
        from repro.cluster.placement import LoadShape
        from repro.experiments.cache import result_to_dict
        from repro.experiments.runner import run_analytic

        for config, row in (self.run_rows[:self.rows_checked]
                            + self.batch_rows[:self.rows_checked]):
            outcome.attempted += 1
            local = result_to_dict(run_analytic(
                config["algorithm"], config["n"], config["ranks"],
                LoadShape(config["shape"]),
                repetitions=config["repetitions"],
                base_seed=config["seed"]))
            if json.dumps(local, sort_keys=True) != \
                    json.dumps(row, sort_keys=True):
                outcome.fail(f"served row for {config} differs from "
                             f"run_analytic")

    def _phases(self, seconds: float, outcome: Outcome, log: list) -> None:
        port = self.daemon.port
        # served rows sampled for the byte-equality check: cold /run
        # (pool workers) and cold /batch (batched engine in the daemon)
        self.run_rows, self.batch_rows = [], []
        start = time.perf_counter()
        marks, acc = {}, 0.0
        for phase in ("cold", "warm", "mixed"):
            acc += self.budget[phase]
            marks[phase] = start + acc * seconds
        configs = self._cold(port, marks["cold"], outcome, log)
        if not configs:
            return
        self._warm(port, configs, marks["warm"], outcome, log)
        self._mixed(port, configs, marks["mixed"], outcome, log)
        self._dedup(port, configs, start + seconds, outcome, log)

    def run(self, seconds: float) -> Outcome:
        outcome = Outcome()
        log: list = []
        if not self.trace:
            self._phases(seconds, outcome, log)
            self._check_rows(outcome)
            return outcome
        # Untraced pass on this daemon, then a traced pass on a fresh one.
        self._phases(seconds * 0.4, outcome, log)
        base_cold = [w for kind, _t0, w in log if kind == "run"]
        self.close()
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=WORK_DIR)
        self.daemon = Daemon(trace_dir=trace_dir)
        self.traced_pass = True
        traced = Outcome()
        traced_log: list = []
        self._phases(seconds * 0.6, traced, traced_log)
        stats = self.daemon.stats()
        self.close()
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        outcome.errors += traced.errors
        self._check_rows(outcome)
        with open(os.path.join(trace_dir, "daemon-stats.json")) as fh:
            daemon = json.load(fh)
        outcome.layers.update(self._layer_metrics(daemon, stats, traced_log))
        cold = [w for kind, _t0, w in traced_log if kind == "run"]
        if cold and base_cold:
            over = statistics.median(cold) - statistics.median(base_cold)
            outcome.layers["tracing.overhead_s"] = over
            outcome.layers["tracing.overhead_frac"] = \
                over / statistics.median(base_cold)
        spans = layers.HostSpans(pid=0)
        spans.add("setup", "setup", *self.setup_span)
        for kind, t0, wall in traced_log:
            spans.add(kind, "request", t0, t0 + wall)
        base = os.path.join(WORK_DIR, f"trace-{self.name}-seed{self.seed}")
        spans.write(base + ".json", workload=self.name)
        shutil.copyfile(os.path.join(trace_dir, "daemon-trace.json"),
                        base + "-daemon.json")
        outcome.layers.update(self.setup_breakdown)
        outcome.layers["_modules"] = daemon["modules"]
        shutil.rmtree(trace_dir, ignore_errors=True)
        return outcome

    def _layer_metrics(self, daemon: dict, stats: dict, log: list) -> dict:
        calls = daemon["probe_calls"]
        busy = daemon["probe_busy_s"]
        cache = stats["cache"]
        sched = stats["scheduler"]
        out = {f"{layer}.self_s": daemon["self_s"].get(layer, 0.0)
               for layer in layers.layers() + [layers.OTHER, layers.HARNESS]}
        for layer in ("simmpi.engine", "simmpi.fastp2p", "simmpi.fastcoll",
                      "simmpi.comm", "simmpi.datatypes", "cluster.network"):
            out[f"{layer}.calls"] = daemon["calls"].get(layer, 0)
        for name in DES_LAYER_METRICS:
            out[name] = 0.0
        l1, l2 = cache["l1"], cache["l2"]
        out.update({
            "perfmodel.analytic.evals": calls.get("perfmodel.evals", 0),
            "perfmodel.analytic.busy_s": busy.get("perfmodel.analytic", 0.0),
            "experiments.cache_tiers.l1_hit_ratio":
                l1["hits"] / max(1, l1["hits"] + l1["misses"]),
            "experiments.cache_tiers.l2_hit_ratio":
                l2["hits"] / max(1, l2["hits"] + l2["misses"]),
            "experiments.cache_tiers.puts": cache["puts"],
            "experiments.cache_tiers.put_bytes":
                l2["bytes"] + l2["evicted_bytes"],
            "experiments.cache_tiers.evictions": l2["evictions"],
            "experiments.cache_tiers.get_s": busy.get("cache_tiers.get", 0.0),
            "experiments.cache_tiers.put_s": busy.get("cache_tiers.put", 0.0),
            "serve.scheduler.launched": sched["launched"],
            "serve.scheduler.coalesced": sched["coalesced"],
            "serve.scheduler.failed": sched["failed"],
            "serve.scheduler.coalesce_ratio":
                sched["coalesced"] / max(1, sched["launched"]
                                         + sched["coalesced"]),
            "serve.scheduler.flight_wait_s":
                busy.get("scheduler.flight_wait", 0.0),
            "serve.app.requests": calls.get("app.do_POST", 0),
            "serve.app.handler_busy_s": busy.get("app.do_POST", 0.0),
            "serve.app.queue_s": sum(w for _k, _t0, w in log)
                - busy.get("app.do_POST", 0.0),
            "experiments.spec.parse_s": busy.get("spec.parse", 0.0),
        })
        return out


def make(name: str, seed: int, trace: bool = False):
    """The workload called ``name``."""
    if name == "ime-skeleton":
        return SkeletonWorkload(name, "ime", 360, 144, 8, seed, trace)
    if name == "scalapack-skeleton":
        return SkeletonWorkload(name, "scalapack", 1080, 144, 64, seed,
                                trace)
    if name == "monitored-solve":
        return MonitoredSolveWorkload(seed, trace)
    if name == "campaign-serve":
        return CampaignServeWorkload(seed, trace)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ime-skeleton", "scalapack-skeleton", "monitored-solve",
             "campaign-serve")
