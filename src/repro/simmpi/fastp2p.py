"""Closed-form ("fast-path") point-to-point engine: flow fusion.

The message-level point-to-point path in :mod:`repro.simmpi.comm` spawns a
delivery event, a completion event, and mailbox bookkeeping per message —
the dominant wall-clock term of p2p-heavy solvers (IMe's column-wise
scheme).  This module completes deterministic p2p traffic through
per-``(cid, src, dst, tag)`` *flow records* instead: a blocking ``send``
computes its completion in closed form and queues the message on the flow;
an exact-match blocking ``recv`` pops the earliest-arriving queued message
(or parks — :class:`~repro.simmpi.engine.Park` — until a sender wakes it),
reproducing the mailbox's arrival-order matching without any event
objects.  It is enabled by ``Simulator(fast_p2p=True)``; the message-level
path is the default and stays the bit-identical reference.

On top of the flow records, :func:`fast_pipeline` executes a
``Communicator.pipeline`` composition — a gather→bcast chain such as IMe's
per-level exchange — as one fused rendezvous: every rank parks exactly
once and the last entrant replays all stages with the exact
:mod:`repro.simmpi.fastcoll` recurrences (same fold order, same float
round trips), so virtual times, traffic counters, and solver values are
bit-identical to driving the stages one collective at a time.

:func:`fast_level_loop` fuses one step further: a whole level loop of
such pipelines, each followed by a compute charge, runs as *one*
rendezvous whose last entrant replays every level for every rank (see
its docstring for the gate and the event-order contract).

Scope and degradation
---------------------
Flows carry only traffic the closed form can match deterministically:
blocking/non-blocking sends and blocking receives with an exact source
and a non-negative tag, on untraced, unsanitized worlds.  The wildcard
operations (``ANY_SOURCE``/``ANY_TAG`` receives, ``irecv``, ``probe``,
``iprobe``) *degrade* the receiving rank's mailbox: pending flow messages
are flushed into the mailbox in ``(arrival, seq)`` order (the exact
message-level delivery order) and the ``(cid, rank)`` pair is marked so
every later operation takes the message-level path.  Degradation is
sticky and per destination — deterministic flows elsewhere keep the fast
path.  With a tracer or sanitizer attached the dispatchers in
:mod:`repro.simmpi.comm` never route through flows at all, so span
nesting and protocol checks are unchanged; attach observers before the
run starts, not mid-flight.

Equivalence contract
--------------------
Identical to :mod:`repro.simmpi.fastcoll`'s (see its module docstring):
for any stateless fabric the flow path is bit-identical to the
message-level path in virtual time, energy, message/byte counters, and
payload values.  ``_msg_seq`` is consumed exactly as the message path
would (one per send, one per posted receive), so flushed flows interleave
with mailbox arbitration exactly as an all-message run.
``tests/test_fast_p2p.py`` asserts the contract end to end on IMe and
fault-tolerant IMe.
"""

from __future__ import annotations

from bisect import insort
from typing import Any

from repro.simmpi.datatypes import (
    DEFAULT_OBJECT_BYTES,
    copy_payload,
    payload_nbytes,
)
from repro.simmpi.engine import Park, Process, SleepUntil
from repro.simmpi.errors import CommMismatchError, SimMPIError
from functools import lru_cache

import numpy as np

from repro.memo import register_cache
from repro.simmpi import aggregate
from repro.simmpi.fastcoll import (
    _children_desc_table,
    _children_table,
    _COLL_TAG_BASE,
    _tree,
)


@register_cache
@lru_cache(maxsize=None)
def _parents_table(size: int) -> tuple[int, ...]:
    """vrank -> parent vrank in the binomial tree (vrank 0 maps to 0)."""
    return tuple(_tree(v, size)[0] if v else 0 for v in range(size))


class _Flow:
    """Messages in flight (and at most one parked receiver) for one
    ``(cid, src, dst, tag)`` key.

    ``msgs`` holds ``(arrival, seq, payload, nbytes)`` tuples sorted by
    ``(arrival, seq)`` — the mailbox's deterministic matching order.  A
    receiver that cannot complete synchronously parks in ``slot[0]``;
    arrival callbacks (one per in-flight message while a receiver waits)
    deliver the queue head the moment virtual time reaches it, so a
    smaller message sent later still overtakes a larger one sent earlier,
    exactly as mailbox delivery would.
    """

    __slots__ = ("world", "src", "dst", "tag", "msgs", "slot", "with_status",
                 "park_t")

    def __init__(self, world, src: int, dst: int, tag: int):
        self.world = world
        self.src = src
        self.dst = dst
        self.tag = tag
        self.msgs: list[tuple[float, int, Any, int]] = []
        self.slot: list = [None]
        self.with_status = False
        #: virtual time the current receiver parked at; cross-shard
        #: message injection (:mod:`repro.simmpi.shard`) schedules the
        #: arrival callback at ``max(arrival, park_t)`` so a message
        #: resolved at a window barrier completes exactly when the
        #: reference would have completed it
        self.park_t = 0.0

    def _on_arrival(self, _arg) -> None:
        """Complete the parked receiver with the queue head, if its time
        has come (stale callbacks — head already delivered, or receiver
        already satisfied — are no-ops)."""
        proc = self.slot[0]
        if proc is None or not self.msgs:
            return
        sim = self.world.sim
        arrival, _seq, payload, nbytes = self.msgs[0]
        if arrival > sim.now:
            return
        self.msgs.pop(0)
        self.slot[0] = None
        overhead = self.world.fabric.cpu_overhead(nbytes)
        if self.with_status:
            value = (payload, {"source": self.src, "tag": self.tag,
                               "nbytes": nbytes})
        else:
            value = payload
        sim.schedule_at(sim.now + overhead, proc._step, value)


def _flow_of(world, cid: int, src: int, dst: int, tag: int) -> _Flow:
    flows = world._flows.get((cid, dst))
    if flows is None:
        flows = world._flows[(cid, dst)] = {}
    flow = flows.get((src, tag))
    if flow is None:
        flow = flows[(src, tag)] = _Flow(world, src, dst, tag)
    return flow


def _push(comm, payload: Any, dest: int, tag: int,
          nbytes: int | None) -> tuple[float, float]:
    """Queue one message on its flow; returns ``(now, send_completion)``.

    Mirrors ``Communicator.isend`` exactly: same fabric queries, same
    ``call_at`` float round trips, same traffic accounting, same
    ``_msg_seq`` consumption, same copy-on-send.
    """
    world = comm.world
    sim = world.sim
    fabric = world.fabric
    size = payload_nbytes(payload) if nbytes is None else int(nbytes)
    src_node = comm._nodes[comm.rank]
    dst_node = comm._nodes[dest]
    now = sim.now
    schedule = getattr(fabric, "transfer_schedule", None)
    if schedule is not None:
        raw = schedule(size, src_node, dst_node, now)
    else:
        raw = now + fabric.transfer_time(size, src_node, dst_node)
    arrival = now + (raw - now)
    if world.track_traffic:
        world.stats.record(size, src_node != dst_node)
    flow = _flow_of(world, comm.cid, comm.rank, dest, tag)
    insort(flow.msgs, (arrival, next(world._msg_seq),
                       copy_payload(payload), size))
    if flow.slot[0] is not None:
        # A receiver is parked: race this arrival against the queue.
        sim.schedule_at(arrival, flow._on_arrival, None)
    overhead = fabric.cpu_overhead(size)
    return now, now + ((now + overhead) - now)


def fast_send(comm, payload: Any, dest: int, tag: int, nbytes: int | None):
    """Blocking eager send through the flow — no events, no Request."""
    now, done = _push(comm, payload, dest, tag, nbytes)
    if done > now:
        yield SleepUntil(done)
    return None


def fast_isend(comm, payload: Any, dest: int, tag: int, nbytes: int | None):
    """Non-blocking send: the message rides the flow, the completion is a
    regular :class:`~repro.simmpi.comm.Request` (same event timing as the
    message-level eager protocol)."""
    from repro.simmpi.comm import Request

    now, done_t = _push(comm, payload, dest, tag, nbytes)
    sim = comm.world.sim
    done = sim.event(name="isend")
    sim.schedule_at(done_t, done.set, None)
    return Request(done)


def fast_recv(comm, source: int, tag: int, with_status: bool):
    """Blocking exact-match receive through the flow.

    Completes synchronously when the earliest queued message has already
    arrived (future sends cannot overtake it: their arrival is bounded
    below by the current time); otherwise parks until an arrival callback
    delivers the queue head.
    """
    world = comm.world
    sim = world.sim
    # Keep the arbitration counter lockstep with a message-level run.
    next(world._msg_seq)
    flow = _flow_of(world, comm.cid, source, comm.rank, tag)
    now = sim.now
    if flow.msgs and flow.msgs[0][0] <= now:
        _arr, _seq, payload, nbytes = flow.msgs.pop(0)
        overhead = world.fabric.cpu_overhead(nbytes)
        done = now + overhead
        if done > now:
            yield SleepUntil(done)
        if with_status:
            return payload, {"source": source, "tag": tag, "nbytes": nbytes}
        return payload
    if flow.slot[0] is not None:
        raise SimMPIError(
            f"two concurrent receives on flow (cid={comm.cid}, "
            f"src={source}, dst={comm.rank}, tag={tag})"
        )
    flow.with_status = with_status
    flow.park_t = now
    if flow.msgs:
        sim.schedule_at(flow.msgs[0][0], flow._on_arrival, None)
    value = yield Park(flow.slot, 0)
    return value


def degrade(comm) -> None:
    """Flush this rank's flows into its mailbox and mark it degraded.

    Called by the wildcard-capable operations (``recv`` with
    ``ANY_SOURCE``/``ANY_TAG``, ``irecv``, ``probe``, ``iprobe``): queued
    flow messages become ordinary mailbox deliveries — already-arrived
    ones immediately, in ``(arrival, seq)`` order; future ones at their
    arrival times — and every later operation on ``(cid, rank)`` takes
    the message-level path.  Idempotent.
    """
    world = comm.world
    key = (comm.cid, comm.rank)
    if key in world._p2p_degraded:
        return
    world._p2p_degraded.add(key)
    flows = world._flows.pop(key, None)
    if not flows:
        return
    from repro.simmpi.comm import _Message

    pending = []
    for (src, tag), flow in flows.items():
        if flow.slot[0] is not None:
            raise SimMPIError(
                f"cannot degrade (cid={comm.cid}, rank={comm.rank}): a "
                f"receive is parked on flow (src={src}, tag={tag})"
            )
        for arrival, seq, payload, nbytes in flow.msgs:
            pending.append((arrival, seq, src, tag, payload, nbytes))
    pending.sort()
    sim = world.sim
    now = sim.now
    box = world._mailbox(comm.cid, comm.rank)
    for arrival, seq, src, tag, payload, nbytes in pending:
        msg = _Message(src=src, tag=tag, payload=payload, nbytes=nbytes,
                       arrival=arrival, seq=seq)
        if arrival <= now:
            box.deliver(msg)
        else:
            sim.schedule_at(arrival, box.deliver, msg)


# ------------------------------------------------- fused pipelines (untraced)

class _PipeRec:
    """Rendezvous record for a fused pipeline composition.

    Every member's completion depends on upstream stage roots, whose
    data-ready times depend on every member's entry — so, as with
    :class:`~repro.simmpi.fastcoll._FusedRec`, the whole chain is
    computed by whichever rank enters last, and every other rank parks
    exactly once.
    """

    __slots__ = ("entry", "procs", "steps", "remaining")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.steps: list = [None] * size
        self.remaining = size


def _stage_env(comm):
    """Per-pipeline binding of the fabric/accounting callables the stage
    replays share (one attribute-lookup pass instead of one per stage)."""
    world = comm.world
    fabric = world.fabric
    return (
        fabric.cpu_overhead,
        getattr(fabric, "transfer_schedule", None),
        fabric.transfer_time,
        world.track_traffic,
        world.stats.record,
        comm._nodes,
    )


def _gather_stage(comm, env, entry: list, payloads: list, root: int):
    """Closed-form binomial gather with per-rank entry times ``entry``.

    Exact replay of :func:`repro.simmpi.fastcoll._up_cascade`: same
    deepest-first child fold, same ``max(entry, arrival) + cpu_overhead``
    recurrence, same per-hop accounting.  Returns per-rank completion
    times and results (rank-ordered list on the root, ``None``
    elsewhere).

    Two value-preserving shortcuts over the cascade's rank→payload dict
    merges: each subtree's membership is static, so every payload is
    copied once straight into the final rank-ordered list, and the
    accumulator's wire size is tracked incrementally (``payload_nbytes``
    of the dict is a plain sum over members, so the fold adds the
    child's already-known size) — same values, same isolation from
    sender buffers, same per-hop message/byte counts.
    """
    size = comm.size
    cpu_overhead, schedule, transfer_time, track, stats_record, nodes = env
    children_desc = _children_desc_table(size)
    parents = _parents_table(size)
    arrival = [0.0] * size
    nbytes_in = [0] * size
    compl = [0.0] * size
    out: list = [None] * size
    results: list = [None] * size
    # Virtual ranks descending: every child (vrank > parent) folds first.
    # repro: allow[PERF002] -- retained scalar reference path (stateful fabrics)
    for v in range(size - 1, -1, -1):
        r = (v + root) % size
        t = entry[r]
        out[r] = copy_payload(payloads[r])
        abytes = DEFAULT_OBJECT_BYTES + payload_nbytes(payloads[r])
        for c in children_desc[v]:
            t = max(t, arrival[c]) + cpu_overhead(nbytes_in[c])
            abytes += nbytes_in[c]
        if v == 0:
            compl[r] = t
            results[r] = out
            continue
        pr = (parents[v] + root) % size
        src_node = nodes[r]
        dst_node = nodes[pr]
        if schedule is not None:
            raw = schedule(abytes, src_node, dst_node, t)
        else:
            raw = t + transfer_time(abytes, src_node, dst_node)
        arrival[v] = t + (raw - t)
        if track:
            stats_record(abytes, src_node != dst_node)
        nbytes_in[v] = abytes
        ovh = cpu_overhead(abytes)
        compl[r] = t + ((t + ovh) - t)
    return compl, results


def _bcast_stage(comm, env, entry: list, payload: Any, root: int,
                 nbytes: int | None = None):
    """Closed-form binomial broadcast with per-rank entry times ``entry``.

    Exact replay of :func:`repro.simmpi.fastcoll._bcast_cascade`: the
    root sends eagerly down the tree, a non-root forwards at
    ``max(entry, arrival) + cpu_overhead``.  The root's result is the
    payload object itself (no copy), every other rank's a per-hop copy —
    the message-level ownership semantics.  ``nbytes`` overrides the
    modeled wire size (skeleton programs send placeholder payloads).
    """
    size = comm.size
    cpu_overhead, schedule, transfer_time, track, stats_record, nodes = env
    nb = payload_nbytes(payload) if nbytes is None else nbytes
    overhead = cpu_overhead(nb)
    children_tbl = _children_table(size)
    barr = [0.0] * size
    vval: list = [None] * size
    vval[0] = payload
    compl = [0.0] * size
    results: list = [None] * size
    # Virtual ranks ascending: every parent (vrank < child) sends first.
    # repro: allow[PERF002] -- retained scalar reference path (stateful fabrics)
    for v in range(size):
        r = (v + root) % size
        if v == 0:
            t = entry[r]
        else:
            t = max(entry[r], barr[v]) + overhead
        data = vval[v]
        children = children_tbl[v]
        if children:
            src_node = nodes[r]
            for c in children:
                dst_node = nodes[(c + root) % size]
                if schedule is not None:
                    raw = schedule(nb, src_node, dst_node, t)
                else:
                    raw = t + transfer_time(nb, src_node, dst_node)
                barr[c] = t + (raw - t)
                if track:
                    stats_record(nb, src_node != dst_node)
                vval[c] = copy_payload(data)
                t = t + ((t + overhead) - t)
        compl[r] = t
        results[r] = data
    return compl, results


def _vrank_view(comm, entry: list, root: int):
    """Entry times and node ids reindexed by virtual rank (root = 0)."""
    size = comm.size
    ranks = (np.arange(size) + root) % size
    entry_v = np.asarray(entry, dtype=float)[ranks]
    nodes_v = np.asarray(comm._nodes, dtype=np.intp)[ranks]
    return ranks, entry_v, nodes_v


def _gather_stage_vec(comm, venv, entry: list, payloads: list, root: int):
    """Aggregate form of :func:`_gather_stage`: whole-level completion
    times in O(log^2 size) numpy calls (see :mod:`repro.simmpi.aggregate`).

    Bit-identical to the scalar walk: same per-value float expressions
    evaluated wave-by-wave, order-free integer traffic sums aggregated.
    """
    size = comm.size
    ranks, entry_v, nodes_v = _vrank_view(comm, entry, root)
    pbytes = np.fromiter(
        (payload_nbytes(payloads[r]) for r in ranks),
        dtype=np.int64, count=size,
    )
    wire = aggregate.gather_sizes(size, pbytes, DEFAULT_OBJECT_BYTES)
    compl_v, _arrival, inter_msgs, inter_bytes = aggregate.gather_times(
        venv, size, entry_v, wire, nodes_v)
    world = comm.world
    if world.track_traffic:
        world.stats.record_bulk(size - 1, int(wire[1:].sum()),
                                inter_msgs, inter_bytes)
    out = [copy_payload(p) for p in payloads]
    results: list = [None] * size
    results[root] = out
    compl = np.empty(size)
    compl[ranks] = compl_v
    return compl.tolist(), results


def _bcast_stage_vec(comm, venv, entry: list, payload: Any, root: int,
                     nb: int):
    """Aggregate form of :func:`_bcast_stage` (same contract as
    :func:`_gather_stage_vec`)."""
    size = comm.size
    ranks, entry_v, nodes_v = _vrank_view(comm, entry, root)
    compl_v, inter = aggregate.bcast_times(venv, size, entry_v, nb, nodes_v)
    world = comm.world
    if world.track_traffic:
        world.stats.record_bulk(size - 1, nb * (size - 1), inter, nb * inter)
    compl = np.empty(size)
    compl[ranks] = compl_v
    results = [payload if r == root else copy_payload(payload)
               for r in range(size)]
    return compl.tolist(), results


def _pipe_times(comm, rec: _PipeRec, size: int):
    """Replay every stage of a fused pipeline; returns per-rank
    completion times and per-rank stage-result lists.

    With a stateless fabric and ``size >= aggregate.AGGREGATE_MIN_SIZE``
    each stage is one vectorized per-level evaluation; otherwise the
    scalar per-edge replay runs (bit-identical either way).
    """
    steps0 = rec.steps[0]
    nsteps = len(steps0)
    # repro: allow[PERF002] -- O(ranks) shape validation, no numeric work
    for r in range(1, size):
        stepsr = rec.steps[r]
        if len(stepsr) != nsteps or any(
            stepsr[i][0] != steps0[i][0] or stepsr[i][1] != steps0[i][1]
            for i in range(nsteps)
        ):
            raise CommMismatchError(
                f"pipeline stage shapes differ between ranks 0 and {r}: "
                f"{[(st[0], st[1]) for st in steps0]} vs "
                f"{[(st[0], st[1]) for st in stepsr]}"
            )
    env = _stage_env(comm)
    venv = (aggregate.vector_env(comm.world)
            if size >= aggregate.AGGREGATE_MIN_SIZE else None)
    t = list(rec.entry)
    results: list[list] = [[] for _ in range(size)]
    for si in range(nsteps):
        step0 = steps0[si]
        kind = step0[0]
        root = step0[1]
        if kind == "gather":
            payloads = [rec.steps[r][si][2] for r in range(size)]
            if venv is not None:
                t, res = _gather_stage_vec(comm, venv, t, payloads, root)
            else:
                t, res = _gather_stage(comm, env, t, payloads, root)
        elif kind == "bcast":
            producer = rec.steps[root][si][2]
            prev = results[root][si - 1] if si else None
            payload = producer(prev) if producer is not None else None
            nbytes = step0[3] if len(step0) > 3 else None
            if venv is not None:
                nb = payload_nbytes(payload) if nbytes is None else nbytes
                t, res = _bcast_stage_vec(comm, venv, t, payload, root, nb)
            else:
                t, res = _bcast_stage(comm, env, t, payload, root,
                                      nbytes=nbytes)
        else:
            raise SimMPIError(f"unknown pipeline stage kind {kind!r}")
        # repro: allow[PERF002] -- O(ranks) result fan-out, no numeric work
        for r in range(size):
            results[r].append(res[r])
    return t, results


def fast_pipeline(comm, steps):
    """Fused execution of a ``Communicator.pipeline`` composition.

    One park/wake per rank for the whole chain; bit-identical virtual
    times, traffic counters, and values to the stage-by-stage reference.
    Stage producers run inside the last entrant's cascade — their side
    effects land before any rank resumes, and an exception they raise
    surfaces on the last-entering rank's process rather than the stage
    root's (values and times are unaffected; use the reference path when
    debugging producer failures).
    """
    world = comm.world
    sim = world.sim
    size = comm.size
    if size == 1:
        # Degenerate chain: the compose path is already all-local (and
        # consumes the stage tags itself).
        return (yield from comm._pipeline_compose(steps))
    nsteps = len(steps)
    seq = comm._coll_seq + 1
    comm._coll_seq += nsteps
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _PipeRec(size)
    now = sim.now
    rank = comm.rank
    rec.entry[rank] = now
    rec.steps[rank] = steps
    rec.remaining -= 1
    if rec.remaining:
        return (yield Park(rec.procs, rank))
    del colls[key]
    compl, results = _pipe_times(comm, rec, size)
    # repro: allow[PERF002] -- per-rank wake fan-out, one schedule per proc
    for u in range(size):
        p = rec.procs[u]
        if p is not None:
            sim.schedule_at(compl[u], p._step, results[u])
    t = compl[rank]
    if t > now:
        yield SleepUntil(t)
    return results[rank]


# ------------------------------------------------ fused level loops (untraced)

class _LevelRec:
    """Rendezvous record of a fused level loop (see :func:`fast_level_loop`).

    Created by the first entrant, which also takes the loop's one
    dynamic gate decision (``fused``) for every rank.
    """

    __slots__ = ("fused", "entry", "procs", "payloads", "tokens", "comms",
                 "subcomms", "shapes", "remaining")

    def __init__(self, size: int, fused: bool):
        self.fused = fused
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.payloads: list = [None] * size
        self.tokens: list = [None] * size
        self.comms: list = [None] * size
        self.subcomms: list = [None] * size
        self.shapes: list = [None] * size
        self.remaining = size


def _quiet_world(sim, size: int) -> bool:
    """True when the communicator's ranks are every live process and
    nothing but process resumptions is pending: no observer (a
    ``PowerTracer`` or ``ExternalMeter`` tick, a mailbox delivery) can
    read the clock or a RAPL counter while the loop is replayed."""
    if len(sim._live_processes) != size:
        return False
    step = Process._step
    return all(getattr(fn, "__func__", None) is step
               for _t, _s, fn, _a in sim._heap)


def _wake_parked(slot) -> None:
    """Resume whichever process parked in ``slots[index]`` — lets the
    last entrant schedule its own wake at its place in the wake order."""
    slots, index = slot
    slots[index]._step(None)


def fast_level_loop(comm, levels: int, stages, payload: Any, token: Any,
                    charge, subcomms: tuple = ()):
    """Fused execution of ``levels`` levels of collectives, each followed
    by a compute charge: one park and one wake per rank for the whole
    loop.

    Bit-identical (virtual times, traffic, energy, collective tags) to
    every rank running::

        for level in range(levels):
            for stage in stages(level):
                yield from <the stage's collective>   # results unused
            yield from ctx.compute(...)   # the level's compute segment

    ``stages(level)`` returns the level's stage tuples; their number may
    vary from level to level, and every rank passes equal ``levels``,
    ``stages`` and number of ``subcomms``.  A stage runs on ``comm``
    itself — ``("gather", root)`` or ``("bcast", root, nbytes)``, the
    stages of one ``comm.pipeline`` — or on a *partition* of it into
    sub-communicators: ``subcomms`` is this rank's tuple of handles, one
    per partition (say its process-row and process-column
    communicators), and a stage names partition ``part`` (an index into
    that tuple) and ``sel``, one sub-communicator of it or ``None`` for
    all of them, numbered by their lowest rank in ``comm``:

    * ``("bcast", root, nbytes, part, sel)`` — a broadcast from
      sub-communicator rank ``root`` of ``nbytes`` (with ``sel=None``,
      one int for all or a sequence with one per sub-communicator);
    * ``("allreduce", nbytes, part, sel)`` — the fused reduce+bcast of a
      value whose wire size is ``nbytes`` at every hop.

    Every rank of a selected sub-communicator takes part in the stage;
    the others skip it.  ``payload`` is this rank's gather contribution,
    the same at every level, so the gather wire sizes are computed once.
    ``charge`` is the caller's per-level compute hook (``None`` for a
    loop without compute): the last entrant calls ``charge(tokens,
    ordered=...)`` with every rank's ``token`` in rank order (``ordered``
    is False when ``pos`` breaks equal start times by rank, not by the
    engine's order, see :class:`repro.runtime.context.LevelCharge`),
    charges level ``level`` through the returned object's ``level(level,
    t0, pos)`` — ``t0`` the per-rank start times, ``pos`` each rank's
    position in the begin order — which returns the per-rank end times,
    and calls its ``close()`` after the last level.

    Returns ``False``, without yielding, when the loop cannot fuse; the
    caller then runs its reference loop.  The gate has no knob: the
    fused pipeline's conditions (:attr:`Simulator.fast_p2p`, no tracer,
    no sanitizer, no shard runtime); a communicator spanning the whole
    world with ``size > 1``; and — decided once, by the first entrant,
    for every rank — the ranks being every live process with nothing
    but their resumptions pending, so nothing reads the clock or a RAPL
    counter mid-loop.  A loop with sub-communicators also needs
    :attr:`Simulator.fast_collectives` (the path it replaces), a
    stateless fabric (a jittered or NIC-serialized one draws per-hop
    state in the reference's interleaving of sub-communicator cascades)
    and ``token.fixed_operating_point()`` (the engine's begin order at
    equal completion times is not replayed, so no operating point may
    depend on it).

    Event order, which keeps the energy sums bitwise: a level's last
    entrant wakes after every other rank, unless its completion equals
    its entry time (it then does not yield and begins first).  Compute
    segments begin in (completion, wake order) — (completion, rank)
    after sub-communicator stages; each end is scheduled when its segment
    begins, so ends run in (end time, begin order); at equal times every
    begin of a level precedes every end of it; the last end is the next
    level's last entrant.  Ranks finally wake at their last end times in
    end order.
    """
    world = comm.world
    sim = world.sim
    size = comm.size
    if (levels < 1 or not sim.fast_p2p or world.tracer is not None
            or sim.tracer is not None or world.sanitizer is not None
            or world.shard is not None or not 1 < size == world.size):
        return False
    key = (comm.cid, _COLL_TAG_BASE - comm._coll_seq - 1, "levels")
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        fused = _quiet_world(sim, size)
        if fused and subcomms:
            fused = (sim.fast_collectives
                     and aggregate.vector_env(world) is not None
                     and (charge is None or token.fixed_operating_point()))
        rec = colls[key] = _LevelRec(size, fused)
    rec.remaining -= 1
    if not rec.fused:
        if not rec.remaining:
            del colls[key]
        return False
    rank = comm.rank
    rec.entry[rank] = sim.now
    rec.payloads[rank] = payload
    rec.tokens[rank] = token
    rec.comms[rank] = comm
    rec.subcomms[rank] = subcomms
    rec.shapes[rank] = (levels, stages, len(subcomms))
    if rec.remaining:
        yield Park(rec.procs, rank)
        return True
    del colls[key]
    if len(sim._live_processes) != size:
        raise SimMPIError(
            "a process was spawned while a fused level loop gathered its "
            "ranks; spawn observers before the run starts"
        )
    final, order = _replay_levels(comm, rec, rank, charge)
    procs = rec.procs
    for u in order.tolist():
        p = procs[u]
        if p is None:
            sim.schedule_at(final[u], _wake_parked, (procs, u))
        else:
            sim.schedule_at(final[u], p._step, None)
    yield Park(procs, rank)
    return True


class _Partition:
    """The sub-communicators one handle per rank belongs to.

    ``members[b]`` lists sub-communicator ``b``'s ranks in the level
    loop's communicator, in sub-communicator rank order; sub-communicators
    are numbered by their lowest such rank.  ``sub[r]`` is rank ``r``'s
    sub-communicator.  Scalar walk programs and flat vector indices are
    built per broadcast root on first use.
    """

    def __init__(self, comm, handles):
        index = {g: r for r, g in enumerate(comm._group)}
        groups: dict = {}
        for r, h in enumerate(handles):
            if h is None or h.world is not comm.world \
                    or h._group[h.rank] != comm._group[r]:
                raise CommMismatchError(
                    f"rank {r}'s sub-communicator handle does not hold it")
            if h.cid not in groups:
                groups[h.cid] = [index[g] for g in h._group]
        cids = sorted(groups, key=lambda cid: min(groups[cid]))
        sizes = {len(m) for m in groups.values()}
        if len(sizes) != 1:
            raise CommMismatchError(
                f"a partition's sub-communicators differ in size: {sizes}")
        self.members = np.array([groups[cid] for cid in cids],
                                dtype=np.intp)
        self.size = self.members.shape[1]
        number = {cid: b for b, cid in enumerate(cids)}
        self.sub = [number[h.cid] for h in handles]
        self._nodes = comm._nodes
        self._walks: dict = {}
        self._flat: dict = {}

    def walks(self, root: int):
        """Per sub-communicator ``(ranks, sends, up, inter)``: its ranks
        by virtual rank (``root`` first), each virtual rank's ``(child,
        same node)`` send list in cascade order, each virtual rank's
        same-node flag towards its parent, and its inter-node hop
        count."""
        progs = self._walks.get(root)
        if progs is None:
            size = self.size
            kids = _children_table(size)
            progs = []
            for row in self.members.tolist():
                rv = row[root:] + row[:root]
                nv = [self._nodes[r] for r in rv]
                sends = tuple(tuple((c, nv[v] == nv[c]) for c in kids[v])
                              for v in range(size))
                up = [True] * size
                for edges in sends:
                    for c, same in edges:
                        up[c] = same
                progs.append((rv, sends, up, up.count(False)))
            progs = self._walks[root] = progs
        return progs

    def flat(self, root: int):
        """Every sub-communicator's ranks by virtual rank, concatenated
        (the flat layout of :func:`aggregate.bcast_times` batches)."""
        mv = self._flat.get(root)
        if mv is None:
            size = self.size
            mv = self._flat[root] = self.members[
                :, (np.arange(size) + root) % size].ravel()
        return mv


def _walk_bcast(t: list, progs, ovh: float, ti: float, te: float) -> None:
    """Scalar broadcast cascades on a stateless fabric, in place on the
    per-rank times ``t`` — :func:`repro.simmpi.fastcoll._bcast_cascade`'s
    recurrences with the fabric's closed form inlined."""
    for rv, sends, _up, _inter in progs:
        arr = [0.0] * len(rv)
        x = t[rv[0]]
        for v, r in enumerate(rv):
            if v:
                x = max(t[r], arr[v]) + ovh
            for c, same in sends[v]:
                arr[c] = x + ((x + (ti if same else te)) - x)
                x = x + ((x + ovh) - x)
            t[r] = x


def _walk_allreduce(t: list, progs, ovh: float, ti: float,
                    te: float) -> None:
    """Scalar fused reduce+bcast (rooted at sub-communicator rank 0) of a
    fixed-size value, in place — :func:`repro.simmpi.fastcoll.
    _fused_times`'s recurrences with the fabric's closed form inlined:
    the reduce leaves each rank's completion in ``t``, where the
    broadcast (``progs`` rooted at 0) takes it as the entry time."""
    for rv, sends, up, _inter in progs:
        arr = [0.0] * len(rv)
        # repro: allow[PERF002] -- scalar walk below AGGREGATE_MIN_SIZE
        for v in range(len(rv) - 1, -1, -1):
            x = t[rv[v]]
            for c, _same in sends[v]:  # deepest subtree first
                x = max(x, arr[c]) + ovh
            if v:
                arr[v] = x + ((x + (ti if up[v] else te)) - x)
                x = x + ((x + ovh) - x)
            t[rv[v]] = x
    _walk_bcast(t, progs, ovh, ti, te)


def _sub_stage(t, part: _Partition, kind: str, root: int, nb: int,
               subs, venv, nodes):
    """One broadcast or fused allreduce on sub-communicators ``subs`` of
    ``part`` (stateless fabric ``venv``); returns the per-rank times —
    a list after scalar walks, an array after the batched aggregate
    forms — and the stage's ``(messages, bytes, inter-node messages,
    inter-node bytes)``."""
    size = part.size
    phases = 2 if kind == "allreduce" else 1
    ovh = venv.ovh + venv.ovh_pb * nb
    if size < aggregate.AGGREGATE_MIN_SIZE:
        if type(t) is not list:
            t = t.tolist()
        progs = part.walks(root)
        progs = [progs[b] for b in subs]
        ti = venv.intra_lat + nb / venv.intra_bw
        te = venv.inter_lat + nb / venv.inter_bw
        if kind == "allreduce":
            _walk_allreduce(t, progs, ovh, ti, te)
        else:
            _walk_bcast(t, progs, ovh, ti, te)
        inter = phases * sum(prog[3] for prog in progs)
    else:
        if type(t) is list:
            t = np.array(t)
        mv = part.flat(root)
        if len(subs) < len(part.members):
            mv = np.concatenate([mv[b * size:(b + 1) * size] for b in subs])
        nodes_v = nodes[mv]
        tv = t[mv]
        inter = 0
        if kind == "allreduce":
            tv, _arr, inter, _ib = aggregate.gather_times(
                venv, size, tv, np.full(len(mv), nb), nodes_v,
                batch=len(subs))
        tv, bi = aggregate.bcast_times(venv, size, tv, nb, nodes_v,
                                       batch=len(subs))
        inter += bi
        t[mv] = tv
    hops = phases * len(subs) * (size - 1)
    return t, (hops, hops * nb, inter, inter * nb)


def _replay_levels(comm, rec: _LevelRec, last: int, charge):
    """Replay every level of a fused level loop; returns the per-rank
    final times and the order the ranks wake in.

    Stages on ``comm`` take their times from the aggregate forms when
    the fabric is stateless and ``size >= aggregate.AGGREGATE_MIN_SIZE``,
    else from the scalar per-edge replays — the same choice, and the
    same fabric call order, as :func:`_pipe_times`.  Sub-communicator
    stages (stateless fabrics only) take one batched aggregate
    evaluation per stage when the sub-communicators have at least
    ``AGGREGATE_MIN_SIZE`` ranks, else scalar walks.  Stage results are
    discarded, so no payload is copied and no result fanned out.
    """
    size = comm.size
    shape = rec.shapes[last]
    for r, other in enumerate(rec.shapes):
        if other != shape:
            raise CommMismatchError(
                f"fused level loops differ between ranks {last} and {r}: "
                f"{shape} vs {other}"
            )
    levels, stages, _nparts = shape
    world = comm.world
    svenv = aggregate.vector_env(world)
    venv = svenv if size >= aggregate.AGGREGATE_MIN_SIZE else None
    env = _stage_env(comm)
    nodes = np.asarray(comm._nodes, dtype=np.intp)
    parts = [_Partition(comm, [sc[k] for sc in rec.subcomms])
             for k in range(len(rec.subcomms[last]))]
    #: tags consumed on ``comm``; per partition, by every sub-communicator
    #: and per sub-communicator
    tags = 0
    tags_all = [0] * len(parts)
    tags_one = [[0] * len(part.members) for part in parts]
    pbytes = None
    #: gather root -> (per-vrank wire sizes, their total over non-roots)
    wires: dict = {}
    messages = nbytes = inter_msgs = inter_bytes = 0
    charger = (charge(rec.tokens, ordered=not parts)
               if charge is not None else None)
    if parts and charger is not None and charger.replays_events:
        raise SimMPIError(
            "a power cap changed while a fused level loop gathered its "
            "ranks; set caps before the run starts")
    arange = np.arange(size)
    entry = np.asarray(rec.entry, dtype=float)
    for level in range(levels):
        t = entry
        for st in stages(level):
            kind = st[0]
            if kind == "allreduce" or len(st) == 5:
                if kind == "allreduce":
                    nb, k, sel = st[1], st[2], st[3]
                    root, ntags = 0, 2
                else:
                    root, nb, k, sel = st[1], st[2], st[3], st[4]
                    ntags = 1
                part = parts[k]
                if sel is None:
                    tags_all[k] += ntags
                    subs = range(len(part.members))
                else:
                    tags_one[k][sel] += ntags
                    subs = (sel,)
                if part.size == 1:
                    continue
                if isinstance(nb, (int, np.integer)):
                    groups = ((int(nb), subs),)
                else:  # one wire size per sub-communicator
                    by: dict = {}
                    for b in subs:
                        by.setdefault(int(nb[b]), []).append(b)
                    groups = by.items()
                for nb, subs in groups:
                    t, (m, b, im, ib) = _sub_stage(
                        t, part, kind, root, nb, subs, svenv, nodes)
                    messages += m
                    nbytes += b
                    inter_msgs += im
                    inter_bytes += ib
                continue
            tags += 1
            if venv is None:
                if type(t) is not list:
                    t = t.tolist()
                if kind == "gather":
                    t, _res = _gather_stage(comm, env, t, rec.payloads, st[1])
                elif kind == "bcast":
                    t, _res = _bcast_stage(comm, env, t, None, st[1],
                                           nbytes=st[2])
                else:
                    raise SimMPIError(f"unknown pipeline stage kind {kind!r}")
                continue
            if type(t) is list:
                t = np.array(t)
            root = st[1]
            ranks = (arange + root) % size
            nodes_v = nodes[ranks]
            if kind == "gather":
                if root not in wires:
                    if pbytes is None:
                        pbytes = np.fromiter(
                            (payload_nbytes(p) for p in rec.payloads),
                            dtype=np.int64, count=size)
                    wire = aggregate.gather_sizes(
                        size, pbytes[ranks], DEFAULT_OBJECT_BYTES)
                    wires[root] = (wire, int(wire[1:].sum()))
                wire, wire_bytes = wires[root]
                compl_v, _arr, inter, ib = aggregate.gather_times(
                    venv, size, t[ranks], wire, nodes_v)
                nbytes += wire_bytes
                inter_bytes += ib
            elif kind == "bcast":
                nb = st[2]
                compl_v, inter = aggregate.bcast_times(
                    venv, size, t[ranks], nb, nodes_v)
                nbytes += nb * (size - 1)
                inter_bytes += nb * inter
            else:
                raise SimMPIError(f"unknown pipeline stage kind {kind!r}")
            messages += size - 1
            inter_msgs += inter
            t = np.empty(size)
            t[ranks] = compl_v
        t = np.asarray(t, dtype=float)
        pos = np.empty(size, dtype=np.intp)
        if parts:
            # Sub-communicator cascades interleave: begins take completion
            # order, equal completions rank order (the charge checks that
            # no energy bit depends on the latter).
            pos[np.lexsort((arange, t))] = arange
        else:
            # Begin order: ranks wake in rank order and the last entrant
            # after them all, or first when its completion is its entry
            # time.
            wake = arange.copy()
            wake[last] = size if t[last] > entry[last] else -1
            pos[np.lexsort((wake, t))] = arange
        entry = charger.level(level, t, pos) if charger is not None else t
        # The last end (latest time, then latest begin) enters next.
        tied = np.flatnonzero(entry == entry.max())
        last = int(tied[np.argmax(pos[tied])])
    if charger is not None:
        charger.close()
    if messages and world.track_traffic:
        world.stats.record_bulk(messages, nbytes, inter_msgs, inter_bytes)
    for r, (handle, subs) in enumerate(zip(rec.comms, rec.subcomms)):
        handle._coll_seq += tags
        for k, part in enumerate(parts):
            subs[k]._coll_seq += tags_all[k] + tags_one[k][part.sub[r]]
    return entry.tolist(), np.lexsort((pos, entry))
