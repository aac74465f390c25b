"""Per-rank execution context.

The context is how solver code interacts with the simulated hardware:

* ``yield from ctx.compute(flops, dram_bytes)`` charges virtual time and
  energy for a compute segment on the rank's bound core.  The duration
  follows the rank's :class:`ComputeProfile` (effective flop rate); the
  package accountant integrates the core's power over the segment and the
  DRAM accountant is charged for the traffic.  Power caps stretch the
  segment via the DVFS ratio returned by the RAPL package.
* ``ctx.papi()`` returns the node-local PAPI library instance (monitoring
  ranks use it; §4's design has exactly one PAPI user per node).
* :class:`LevelCharge` charges one level's compute segments for many
  contexts at once — the batch form of ``compute`` that fused level
  loops (:func:`repro.simmpi.fastp2p.fast_level_loop`) call.

Compute profiles are per-solver calibration: ScaLAPACK's blocked BLAS-3
kernels sustain a higher effective flop rate and touch DRAM less per flop
than IMe's rank-1-update sweeps — the root of the power gap the paper
measures (§5.4).
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import Core
from repro.energy.papi import PapiLibrary
from repro.energy.rapl import RaplNode
from repro.simmpi.engine import NOW, acquire_delay
from repro.simmpi.errors import SimMPIError


@dataclass(frozen=True)
class ComputeProfile:
    """How a rank's computation maps onto time, power, and DRAM traffic."""

    #: sustained useful flop/s of one core running this code
    eff_flops_per_core: float = 12.0e9
    #: DRAM bytes moved per useful flop (cache-miss traffic, not loads)
    dram_bytes_per_flop: float = 0.10
    #: core floating-point utilization while computing (power model input)
    flop_util: float = 0.65
    #: core memory-subsystem utilization while computing
    mem_util: float = 0.30

    def duration(self, flops: float, freq_ratio: float = 1.0) -> float:
        if flops < 0:
            raise ValueError(f"negative flops: {flops}")
        return flops / (self.eff_flops_per_core * freq_ratio)


class RankContext:
    """One rank's view of the machine (core binding, energy, PAPI)."""

    def __init__(
        self,
        rank: int,
        core: Core,
        rapl_node: RaplNode,
        papi: PapiLibrary,
        profile: ComputeProfile,
        node_efficiency: float = 1.0,
        sim=None,
        packages: tuple = (),
    ):
        if node_efficiency <= 0:
            raise ValueError(f"node_efficiency must be positive: {node_efficiency}")
        self.rank = rank
        self.core = core
        self.rapl_node = rapl_node
        #: simulator handle; lets charging read the clock directly instead
        #: of a ``yield NOW`` round trip per timestamp (same value — the
        #: engine's clock is exact at every resume point)
        self._sim = sim
        self._papi = papi
        #: the bound core's RAPL package (fixed for the context's lifetime)
        self._pkg = rapl_node.package(core.socket_id)
        #: every RAPL package of the job (empty for a context built
        #: outside :meth:`Job.make_contexts`)
        self.packages = packages
        self.profile = profile
        #: per-repetition node speed factor (the paper's runs landed on
        #: different node sets each time; this models that variance)
        self.node_efficiency = node_efficiency
        self.flops_charged = 0.0
        self.dram_bytes_charged = 0.0
        self.compute_seconds = 0.0
        #: observability hook (set by ``Job.attach_tracer``); ``None`` keeps
        #: compute charging and :meth:`span` free of tracing overhead
        self.tracer = None

    @property
    def node_id(self) -> int:
        return self.core.node_id

    @property
    def socket_id(self) -> int:
        return self.core.socket_id

    def papi(self) -> PapiLibrary:
        return self._papi

    def fixed_operating_point(self) -> bool:
        """True when every RAPL package of the job runs this context's
        profile at one :func:`fixed_point` whatever the number of active
        cores (no binding power cap); False when the packages are not
        known."""
        return bool(self.packages) and all(
            fixed_point(pkg, self.profile, range(1, pkg.n_cores + 1))
            is not None for pkg in self.packages)

    # -------------------------------------------------------------- tracing
    def span(self, name: str, cat: str = "phase", **args):
        """Scoped observability span on this rank's track.

        Usable around ``yield from`` blocks inside rank programs::

            with ctx.span("ime:reduce"):
                yield from ...

        A no-op context manager when no tracer is attached.
        """
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, cat=cat, pid=self.node_id,
                                tid=self.rank, args=args or None)

    # ------------------------------------------------------------- charging
    def compute(self, flops: float, dram_bytes: float | None = None,
                profile: ComputeProfile | None = None):
        """Charge a compute segment (generator; drive with ``yield from``)."""
        prof = profile if profile is not None else self.profile
        if dram_bytes is None:
            dram_bytes = flops * prof.dram_bytes_per_flop
        if dram_bytes < 0:
            raise ValueError(f"negative dram_bytes: {dram_bytes}")
        pkg = self._pkg
        sim = self._sim
        t0 = sim.now if sim is not None else (yield NOW)
        # The job keeps a spin interval open on every allocated core, so a
        # compute segment charges only the increment above busy-waiting.
        handle, freq_ratio = pkg.begin_core_activity(
            prof.flop_util, prof.mem_util, t0, incremental_over_spin=True
        )
        dt = prof.duration(flops, freq_ratio) / self.node_efficiency
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin_span(
                "compute", cat="compute", pid=self.node_id, tid=self.rank,
                t=t0, args={"flops": float(flops),
                            "dram_bytes": float(dram_bytes)},
            )
        yield acquire_delay(dt)
        t1 = sim.now if sim is not None else (yield NOW)
        pkg.end_core_activity(handle, t1)
        pkg.charge_dram_traffic(dram_bytes, t0, t1)
        if tracer is not None:
            tracer.end_span(span, t=t1)
            tracer.metrics.inc("compute.flops", float(flops),
                               rank=self.rank, node=self.node_id)
            tracer.metrics.inc("compute.seconds", dt,
                               rank=self.rank, node=self.node_id)
        self.flops_charged += flops
        self.dram_bytes_charged += dram_bytes
        self.compute_seconds += dt

    def elapse(self, seconds: float, active: bool = True,
               profile: ComputeProfile | None = None):
        """Charge a fixed-duration segment (busy-wait or fixed-cost phase)."""
        if seconds < 0:
            raise ValueError(f"negative duration: {seconds}")
        if not active:
            yield acquire_delay(seconds)
            return
        prof = profile if profile is not None else self.profile
        pkg = self._pkg
        sim = self._sim
        t0 = sim.now if sim is not None else (yield NOW)
        handle, _ = pkg.begin_core_activity(
            prof.flop_util, prof.mem_util, t0, incremental_over_spin=True
        )
        yield acquire_delay(seconds)
        t1 = sim.now if sim is not None else (yield NOW)
        pkg.end_core_activity(handle, t1)
        self.compute_seconds += seconds


#: segments one :class:`LevelCharge` fold buffer holds (per row) before it
#: is folded
FOLD_BUFFER_FLOATS = 1 << 20


def fixed_point(pkg, prof: ComputeProfile, cores):
    """``pkg``'s one ``(watts, freq_ratio)`` point for a ``prof`` segment
    beginning at every active-core count in ``cores``, or ``None`` when
    the point depends on the count (a binding power cap)."""
    points = {pkg.activity_point(prof.flop_util, prof.mem_util, k, True)
              for k in cores}
    return points.pop() if len(points) == 1 else None


class LevelCharge:
    """A level's compute segments for every rank context, in one step.

    ``level(level, t0, pos)`` charges ``level_flops[level]`` (one value
    for every rank, or one per rank) to each context from its start time
    ``t0`` and returns the end times; ``pos`` is each rank's position in
    the engine's begin order.  Per rank the arithmetic is
    :meth:`RankContext.compute`'s, elementwise: ``dt = flops /
    (eff_flops * ratio) / node_efficiency``, ``t1 = t0 + dt``, and the
    three accumulators fold level by level; :meth:`close` writes them
    back to the contexts.  A zero charge is bitwise no segment at all:
    it adds ``+0.0`` everywhere and ends where it begins.

    Energy depends on event order twice: a socket's accountants sum
    increments in end order, and the operating point may depend on how
    many cores are active when a segment begins.  When every socket's
    ``(watts, freq_ratio)`` point is the same for every active-core
    count its ranks can reach (always, uncapped), increments are
    elementwise and each socket's are folded by
    :meth:`~repro.energy.accounting.ActivityAccountant.add_in_order` in
    (end time, start time, level, begin position) order — the engine's
    end order (ends at one time run in the order their segments began),
    across levels, since one rank's next level may begin and end before
    another's current one.  Increments are buffered per socket in
    level-major order and folded once a buffer is full, up to the
    *frontier*: the earliest time any rank has reached, before which no
    later level can end.  Otherwise (a binding power cap) every level is
    replayed one begin or end at a time through the RAPL package, in the
    same order: begins by position, each end before any later begin and
    after every begin at its own time.

    ``ordered=False`` says ``pos`` is the engine's begin order only
    between distinct start times (equal ones are in rank order, and
    levels are not ordered by the engine's wakes): the fold then checks
    that segments on a socket with equal start and end times carry
    equal increments, so that their order changes no bit, and raises
    :class:`~repro.simmpi.errors.SimMPIError` otherwise.
    """

    def __init__(self, contexts, level_flops, ordered: bool = True):
        self._contexts = list(contexts)
        self._ordered = ordered
        self._level_flops = np.asarray(level_flops, dtype=float)
        n = len(self._contexts)
        pkgs: list = []
        index: dict[int, int] = {}
        sock = np.empty(n, dtype=np.intp)
        for r, ctx in enumerate(self._contexts):
            s = index.get(id(ctx._pkg))
            if s is None:
                s = index[id(ctx._pkg)] = len(pkgs)
                pkgs.append(ctx._pkg)
            sock[r] = s
        self._pkgs = pkgs
        self._sock = sock
        profs = [ctx.profile for ctx in self._contexts]
        self._dbpf = np.array([p.dram_bytes_per_flop for p in profs])
        self._neff = np.array([ctx.node_efficiency for ctx in self._contexts])
        self._epb = np.array([pkgs[s].dram_power.params.dram_energy_per_byte
                              for s in sock.tolist()])
        self._flops = np.array([c.flops_charged for c in self._contexts])
        self._dram = np.array([c.dram_bytes_charged for c in self._contexts])
        self._secs = np.array([c.compute_seconds for c in self._contexts])
        counts = np.bincount(sock, minlength=len(pkgs))
        points = self._level_points(profs, counts)
        self._watts = None
        if points is not None:
            watts, ratio = points
            self._watts = watts
            eff = np.array([p.eff_flops_per_core for p in profs])
            self._denom = eff * ratio
            # Fold buffers: socket-major, one row of `width` per level.
            order = np.argsort(sock, kind="stable")
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            width = int(counts.max())
            chunk = max(1, min(len(self._level_flops),
                               FOLD_BUFFER_FLOATS // (len(pkgs) * width)))
            sorted_sock = sock[order]
            self._dest = (sorted_sock * (chunk * width)
                          + np.arange(n) - starts[sorted_sock])
            self._counts = counts.tolist()
            self._width = width
            self._chunk = chunk
            self._slot = 0
            #: rows: end times, start times, package and DRAM increments
            self._buf = np.zeros((4, len(pkgs), chunk, width))
            #: per socket, the buffer rows past the last fold's frontier,
            #: already in fold order
            self._carry: list = [None] * len(pkgs)

    @property
    def replays_events(self) -> bool:
        """True when levels are charged one begin or end at a time (the
        order-dependent, capped path)."""
        return self._watts is None

    def _level_points(self, profs, counts):
        """Per-rank ``(watts, ratio)`` arrays when each rank's operating
        point is the same at every active-core count its socket can
        reach during a level, else ``None``."""
        n = len(profs)
        watts = np.empty(n)
        ratio = np.empty(n)
        memo: dict = {}
        for r, prof in enumerate(profs):
            s = int(self._sock[r])
            key = (s, prof.flop_util, prof.mem_util)
            if key not in memo:
                base = self._pkgs[s].active_cores
                memo[key] = fixed_point(self._pkgs[s], prof,
                                        range(base + 1,
                                              base + int(counts[s]) + 1))
            point = memo[key]
            if point is None:
                return None
            watts[r], ratio[r] = point
        return watts, ratio

    def level(self, level: int, t0, pos):
        """Charge level ``level`` from start times ``t0``; returns the
        per-rank end times."""
        flops = self._level_flops[level]
        if np.any(flops < 0):
            raise ValueError(f"negative flops: {flops}")
        dram = flops * self._dbpf
        if self._watts is None:
            dt, t1 = self._replay_events(flops, dram, t0, pos)
        else:
            dt = flops / self._denom / self._neff
            t1 = t0 + dt
            order = np.lexsort((pos, t1, self._sock))
            dest = self._dest + self._slot * self._width
            buf = self._buf.reshape(4, -1)
            buf[0, dest] = t1[order]
            buf[1, dest] = t0[order]
            buf[2, dest] = (self._watts * (t1 - t0))[order]
            buf[3, dest] = (self._epb * dram)[order]
            self._slot += 1
            if self._slot == self._chunk:
                self._fold(t1.min())
        self._flops += flops
        self._dram += dram
        self._secs += dt
        return t1

    def _replay_events(self, flops, dram, t0, pos):
        """One begin or end at a time through the RAPL packages, in the
        engine's order (the capped path, and the vector form's oracle)."""
        contexts = self._contexts
        flops = np.broadcast_to(flops, t0.shape)
        dt = np.empty(len(contexts))
        t1 = np.empty(len(contexts))
        pending: list = []

        def end(item):
            stop, _pos, r, handle = item
            pkg = contexts[r]._pkg
            pkg.end_core_activity(handle, stop)
            pkg.charge_dram_traffic(float(dram[r]), float(t0[r]), stop)

        for r in np.argsort(pos).tolist():
            start = float(t0[r])
            while pending and pending[0][0] < start:
                end(heapq.heappop(pending))
            ctx = contexts[r]
            prof = ctx.profile
            handle, ratio = ctx._pkg.begin_core_activity(
                prof.flop_util, prof.mem_util, start,
                incremental_over_spin=True,
            )
            d = prof.duration(float(flops[r]), ratio) / ctx.node_efficiency
            dt[r] = d
            t1[r] = start + d
            heapq.heappush(pending, (start + d, int(pos[r]), r, handle))
        while pending:
            end(heapq.heappop(pending))
        return dt, t1

    def _fold(self, frontier: float) -> None:
        """Fold every buffered increment that ends before ``frontier``,
        per socket in (end time, start time, level, begin position)
        order, and carry the rest into the next fold."""
        slot = self._slot
        for s, pkg in enumerate(self._pkgs):
            rows = self._buf[:, s, :slot, :self._counts[s]].reshape(4, -1)
            if self._carry[s] is not None:
                rows = np.concatenate((self._carry[s], rows), axis=1)
            ends, starts = rows[0], rows[1]
            if np.any((ends[1:] < ends[:-1])
                      | ((ends[1:] == ends[:-1])
                         & (starts[1:] < starts[:-1]))):
                # Levels overlap: a stable sort keeps (level, position)
                # order among equal (end, start) times (carried levels
                # come first).
                rows = rows[:, np.lexsort((starts, ends))]
                ends, starts = rows[0], rows[1]
            if not self._ordered:
                _check_ties(rows)
            cut = int(np.searchsorted(ends, frontier, side="left"))
            pkg.pkg_accountant.add_in_order(rows[2, :cut])
            pkg.dram_accountant.add_in_order(rows[3, :cut])
            # A copy: the buffer is reused for the next levels.
            self._carry[s] = (rows[:, cut:].copy() if cut < ends.size
                              else None)
        self._slot = 0

    def close(self) -> None:
        """Fold what is buffered and write the accumulators back."""
        if self._watts is not None:
            self._fold(np.inf)
        for ctx, f, d, s in zip(self._contexts, self._flops.tolist(),
                                self._dram.tolist(), self._secs.tolist()):
            ctx.flops_charged = f
            ctx.dram_bytes_charged = d
            ctx.compute_seconds = s


def _check_ties(rows) -> None:
    """Raise unless the nonzero increments of segments with equal (end,
    start) times — adjacent in ``rows``, :meth:`LevelCharge._fold`'s
    sorted buffer rows — are equal: no order among them then changes a
    bit of the fold (a zero increment adds nothing anywhere)."""
    ends, starts = rows[0], rows[1]
    tied = (ends[1:] == ends[:-1]) & (starts[1:] == starts[:-1])
    if not tied.any():
        return
    for inc in rows[2:]:
        keep = inc != 0
        e, b, v = ends[keep], starts[keep], inc[keep]
        if np.any((e[1:] == e[:-1]) & (b[1:] == b[:-1]) & (v[1:] != v[:-1])):
            raise SimMPIError(
                "compute segments on one socket start and end at the same "
                "times with different energy increments; the fused replay "
                "does not know the engine's order among them")
