"""Closed-form ("fast-path") collective engine.

The message-level collectives in :mod:`repro.simmpi.comm` spawn one
simulated message per binomial-tree hop, which costs mailbox bookkeeping,
event-heap traffic, and Python-generator overhead per hop — the dominant
wall-clock term in paper-scale sweeps.  This module computes every rank's
completion time *in closed form* from the same latency/bandwidth cost
model and suspends each rank exactly once, on a single wake event
scheduled at its completion time.  Byte/hop/inter-node counters are
recorded identically per modeled hop, so energy accounting,
``PowerTracer`` lanes, and Chrome-trace collective spans are unchanged.
It is enabled by ``Simulator(fast_collectives=True)`` — the default; the
message-level path is kept as the validation reference
(``fast_collectives=False``).

How a collective executes
-------------------------
All ranks of a collective meet at a per-``(cid, tag)`` rendezvous record
on the :class:`~repro.simmpi.comm.World`.  A rank whose causal inputs are
not yet known parks (:class:`~repro.simmpi.engine.Park` — no event object
at all).  The moment a rank's inputs become complete, a *cascade* computes
its data-ready time, models its sends (arrival times, payload copies,
traffic accounting), determines its completion time, and resumes any
parked dependents directly with ``Simulator.schedule_at``:

* **bcast/scatter** cascade *down* the tree: a rank's completion depends
  only on the entry times along its ancestor path (senders transmit
  eagerly, never waiting on receivers);
* **reduce/gather** cascade *up*: a rank folds its children — deepest
  subtree first, the message-level receive order, so floating-point
  reductions associate identically — once every child has contributed.

Causality holds without any time-travel: a cascade triggered at virtual
time *t* only ever computes completion times ``>= t``, because the chain
of ``max(entry, arrival) + cpu_overhead`` recurrences passes through the
arrival from the rank whose entry (at time *t*) completed the inputs.

The compositions (``allreduce``, ``allgather``, ``barrier``, ``scan``,
``reduce_scatter``, ``split``) are built on these primitives and need no
fast path of their own; ``alltoall`` intentionally stays message-level.

Equivalence contract
--------------------
For any fabric whose per-message cost is a pure function of ``(nbytes,
src_node, dst_node)`` — :class:`~repro.simmpi.fabric.UniformFabric`, or
:class:`~repro.cluster.network.ClusterFabric` without jitter or NIC
injection serialization — a fast-path run is *exactly* equivalent to a
message-level run: identical solver results (same reduction-tree
associativity, same copy-on-send semantics), bit-identical virtual times,
and therefore identical energy totals, plus identical
:meth:`~repro.simmpi.comm.TrafficStats.record` counters.
``tests/test_fast_collectives.py`` asserts this across all collectives and
communicator splits; ``docs/performance.md`` documents it.

Two details make the virtual times bit-identical rather than merely
approximately equal: :func:`_after_send` / :func:`_arrival` mirror the
float round trip of ``Simulator.call_at`` (``now + ((t - now))``) that the
message-level path incurs when scheduling deliveries and send
completions, and every wake uses ``Simulator.schedule_at`` (exact
absolute timestamps, never a relative delay).

With a *stateful* fabric (seeded jitter, ``serialize_injection``) the fast
path still charges the same cost model per modeled hop, but hops may
query the fabric in a different order than the message-level
interleaving, so runs remain deterministic per seed yet are not
guaranteed bit-identical between the two paths.

The fast path assumes the standard SPMD collective discipline the
message-level path already requires for tag matching: every member of a
communicator reaches each collective call site, and no member's *entry*
depends on another member's *completion* of that same collective.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

import numpy as np

from repro.memo import register_cache
from repro.simmpi import aggregate
from repro.simmpi.datatypes import (
    copy_payload,
    payload_copier,
    payload_nbytes,
)
from repro.simmpi.engine import Park, SleepUntil
from repro.simmpi.errors import CommMismatchError

#: Collective tags live below the valid point-to-point range so they can
#: never collide with user tags.  Defined here (and re-exported by
#: :mod:`repro.simmpi.comm`) so the fast paths can allocate tags with
#: plain arithmetic on ``comm._coll_seq`` instead of a method call.
_COLL_TAG_BASE = -1000


def _arrival(world, nbytes: int, src_node: int, dst_node: int,
             start: float) -> float:
    """Mailbox arrival time of a hop whose send starts at ``start``.

    Mirrors ``Communicator.isend`` (including the ``call_at`` relative
    round trip) so the returned float is bit-identical to the heap
    timestamp the message-level path would produce.
    """
    schedule = getattr(world.fabric, "transfer_schedule", None)
    if schedule is not None:
        raw = schedule(nbytes, src_node, dst_node, start)
    else:
        raw = start + world.fabric.transfer_time(nbytes, src_node, dst_node)
    return start + (raw - start)


def _after_send(t: float, overhead: float) -> float:
    """Sender-side completion of a blocking send starting at ``t``.

    Mirrors the eager protocol's ``call_at(now + cpu_overhead)`` float
    round trip.
    """
    return t + ((t + overhead) - t)


def _account_trace(tracer, nbytes: int, src_node: int, dst_node: int,
                   wrank: int) -> None:
    """Tracer metric lanes for one modeled hop (identical to ``isend``'s)."""
    metrics = tracer.metrics
    metrics.inc("comm.messages", 1, rank=wrank, node=src_node)
    metrics.inc("comm.bytes", nbytes, rank=wrank, node=src_node)
    if src_node != dst_node:
        metrics.inc("comm.inter_node_bytes", nbytes,
                    rank=wrank, node=src_node)


def _account(world, nbytes: int, src_node: int, dst_node: int,
             wrank: int) -> None:
    """Byte/hop/inter-node accounting, identical to ``isend``'s."""
    if world.track_traffic:
        world.stats.record(nbytes, src_node != dst_node)
    tracer = world.tracer
    if tracer is not None:
        _account_trace(tracer, nbytes, src_node, dst_node, wrank)


@register_cache
@functools.lru_cache(maxsize=None)
def _children_desc(vrank: int, size: int) -> tuple[int, ...]:
    """Binomial children sorted deepest-subtree-first (reduce fold order)."""
    from repro.simmpi.comm import _binomial_tree
    return tuple(sorted(_binomial_tree(vrank, size)[1], reverse=True))


@register_cache
@functools.lru_cache(maxsize=None)
def _tree(vrank: int, size: int):
    from repro.simmpi.comm import _binomial_tree
    return _binomial_tree(vrank, size)


@register_cache
@functools.lru_cache(maxsize=None)
def _child_counts(size: int) -> tuple[int, ...]:
    return tuple(len(_tree(v, size)[1]) for v in range(size))


@register_cache
@functools.lru_cache(maxsize=None)
def _children_table(size: int) -> tuple[tuple[int, ...], ...]:
    """Children of every virtual rank, indexed by vrank (hot-loop form)."""
    return tuple(_tree(v, size)[1] for v in range(size))


@register_cache
@functools.lru_cache(maxsize=None)
def _children_desc_table(size: int) -> tuple[tuple[int, ...], ...]:
    """Deepest-first children of every virtual rank, indexed by vrank."""
    return tuple(_children_desc(v, size) for v in range(size))


class _DownRec:
    """Rendezvous record for root-to-leaves collectives (bcast, scatter).

    All lists are indexed by virtual rank (bcast) or comm rank (scatter).
    ``arrival[v]``/``value[v]`` are filled by the parent's cascade; a rank
    arriving before them parks in ``procs[v]``.
    """

    __slots__ = ("entry", "procs", "arrival", "value", "compl", "nbytes",
                 "served")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.arrival: list = [None] * size
        self.value: list = [None] * size
        self.compl: list = [0.0] * size
        self.nbytes = 0
        self.served = 0


class _UpRec:
    """Rendezvous record for leaves-to-root collectives (reduce, gather).

    ``arrival[v]``/``value[v]``/``nbytes_in[v]`` describe the message
    virtual rank ``v`` sent to its parent; ``pending[v]`` counts children
    that have not contributed yet.
    """

    __slots__ = ("entry", "procs", "arrival", "value", "nbytes_in", "acc",
                 "pending", "compl", "served")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.arrival: list = [None] * size
        self.value: list = [None] * size
        self.nbytes_in: list = [0] * size
        self.acc: list = [None] * size
        self.pending: list = list(_child_counts(size))
        self.compl: list = [0.0] * size
        self.served = 0


# ---------------------------------------------------------------- bcast

def _bcast_cascade(comm, rec: _DownRec, key, root: int, size: int,
                   v: int, data, t_ready: float) -> None:
    """Model ``v``'s sends and completion; recurse into arrived children.

    The hot loop inlines :func:`_arrival` / :func:`_account` with every
    attribute lookup hoisted — this is the innermost loop of a fast-path
    run (one iteration per modeled hop).
    """
    world = comm.world
    sim = world.sim
    fabric = world.fabric
    nbytes = rec.nbytes
    overhead = fabric.cpu_overhead(nbytes)
    schedule = getattr(fabric, "transfer_schedule", None)
    transfer_time = fabric.transfer_time
    track = world.track_traffic
    stats_record = world.stats.record
    tracer = world.tracer
    nodes = comm._nodes
    group = comm._group
    arrival, value, entry, procs = rec.arrival, rec.value, rec.entry, rec.procs
    compl = rec.compl
    children_tbl = _children_table(size)
    stack = [(v, data, t_ready)]
    while stack:
        u, data, t = stack.pop()
        children = children_tbl[u]
        if children:
            ur = (u + root) % size
            src_node = nodes[ur]
            wrank = group[ur]
            for c in children:
                dst_node = nodes[(c + root) % size]
                if schedule is not None:
                    raw = schedule(nbytes, src_node, dst_node, t)
                else:
                    raw = t + transfer_time(nbytes, src_node, dst_node)
                arr = t + (raw - t)
                if track:
                    stats_record(nbytes, src_node != dst_node)
                if tracer is not None:
                    _account_trace(tracer, nbytes, src_node, dst_node, wrank)
                data_c = value[c] = copy_payload(data)
                t = t + ((t + overhead) - t)
                e = entry[c]
                if e is None:
                    arrival[c] = arr
                elif children_tbl[c]:
                    stack.append((c, data_c, max(e, arr) + overhead))
                else:
                    # Leaf child already waiting: complete it inline.
                    tc = max(e, arr) + overhead
                    compl[c] = tc
                    rec.served += 1
                    p = procs[c]
                    if p is not None:
                        sim.schedule_at(tc, p._step, data_c)
        compl[u] = t
        rec.served += 1
        p = procs[u]
        if p is not None:
            sim.schedule_at(t, p._step, value[u])
    if rec.served == size:
        del world._fast_colls[key]


def fast_bcast(comm, payload: Any, root: int, nbytes: int | None):
    """Closed-form binomial-tree broadcast (see module docstring)."""
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    size = comm.size
    if size == 1:
        return copy_payload(payload)
    v = (comm.rank - root) % size
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _DownRec(size)
    now = sim.now
    rec.entry[v] = now
    if v == 0:
        rec.nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)
        _bcast_cascade(comm, rec, key, root, size, 0, payload, now)
        t = rec.compl[0]
        if t > now:
            yield SleepUntil(t)
        return payload
    arr = rec.arrival[v]
    if arr is None:
        return (yield Park(rec.procs, v))
    overhead = world.fabric.cpu_overhead(rec.nbytes)
    data = rec.value[v]
    if not _children_table(size)[v]:
        # Leaf with its message already delivered: no cascade needed.
        t = max(now, arr) + overhead
        rec.served += 1
        if rec.served == size:
            del colls[key]
        if t > now:
            yield SleepUntil(t)
        return data
    _bcast_cascade(comm, rec, key, root, size, v, data, max(now, arr) + overhead)
    t = rec.compl[v]
    if t > now:
        yield SleepUntil(t)
    return data


# ------------------------------------------------------- reduce / gather

def _up_cascade(comm, rec: _UpRec, key, root: int, size: int, v: int,
                fold: Callable, finalize: Callable | None = None) -> None:
    """Fold ``v``'s subtree, model its send upward, cascade to ancestors.

    ``fold(acc, item)`` combines one child contribution (``op`` for
    reduce, dict-merge for gather); called in deepest-first child order —
    the message-level receive order.  ``finalize(acc)`` post-processes the
    root's folded value before it is handed to a parked root process
    (gather's rank-ordered list).
    """
    world = comm.world
    sim = world.sim
    fabric = world.fabric
    children_desc = _children_desc_table(size)
    while True:
        t = rec.entry[v]
        acc = rec.acc[v]
        for c in children_desc[v]:
            t = max(t, rec.arrival[c]) + fabric.cpu_overhead(rec.nbytes_in[c])
            acc = fold(acc, rec.value[c])
        rec.acc[v] = acc
        if v == 0:
            compl = t
            result = acc if finalize is None else finalize(acc)
        else:
            parent = _tree(v, size)[0]
            vr = (v + root) % size
            pr = (parent + root) % size
            src_node = comm.node_of(vr)
            dst_node = comm.node_of(pr)
            abytes = payload_nbytes(acc)
            arr = _arrival(world, abytes, src_node, dst_node, t)
            _account(world, abytes, src_node, dst_node, comm.world_rank(vr))
            rec.arrival[v] = arr
            rec.value[v] = copy_payload(acc)
            rec.nbytes_in[v] = abytes
            compl, result = _after_send(t, fabric.cpu_overhead(abytes)), None
        rec.compl[v] = compl
        rec.served += 1
        p = rec.procs[v]
        if p is not None:
            sim.schedule_at(compl, p._step, result)
        if rec.served == size:
            del world._fast_colls[key]
            return
        if v == 0:
            return
        rec.pending[parent] -= 1
        if rec.pending[parent] or rec.entry[parent] is None:
            return
        v = parent


def fast_reduce(comm, payload: Any, op: Callable, root: int):
    """Closed-form binomial-tree reduction (message-level associativity)."""
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    size = comm.size
    if size == 1:
        return copy_payload(payload)
    v = (comm.rank - root) % size
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _UpRec(size)
    now = sim.now
    rec.entry[v] = now
    rec.acc[v] = copy_payload(payload)
    if rec.pending[v]:
        return (yield Park(rec.procs, v))
    _up_cascade(comm, rec, key, root, size, v, op)
    t = rec.compl[v]
    result = rec.acc[v] if v == 0 else None
    if t > now:
        yield SleepUntil(t)
    return result


def _merge(acc: dict, part: dict) -> dict:
    acc.update(part)
    return acc


def fast_gather(comm, payload: Any, root: int):
    """Closed-form binomial-tree gather (subtree dicts, like message-level)."""
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    size = comm.size
    if size == 1:
        return [copy_payload(payload)]
    v = (comm.rank - root) % size
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _UpRec(size)
    now = sim.now
    rec.entry[v] = now
    rec.acc[v] = {comm.rank: copy_payload(payload)}
    # pending == 0 means every child already contributed — true for leaves
    # at entry, and for inner ranks (even the root) arriving last.
    if rec.pending[v]:
        # Resumed with the finalized rank-ordered list if we are the root.
        return (yield Park(rec.procs, v))
    _up_cascade(comm, rec, key, root, size, v, _merge, _ordered_list)
    t = rec.compl[v]
    result = _ordered_list(rec.acc[0]) if v == 0 else None
    if t > now:
        yield SleepUntil(t)
    return result


# --------------------------------------------------------------- scatter

class _ScatterRec:
    """Rendezvous record for the flat scatter (indexed by comm rank)."""

    __slots__ = ("entry", "procs", "arrival", "value", "nbytes", "served")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.arrival: list = [None] * size
        self.value: list = [None] * size
        self.nbytes: list = [0] * size
        self.served = 0


def fast_scatter(comm, payloads: list | None, root: int,
                 nbytes: list | None = None):
    """Closed-form flat scatter (root sends in destination-rank order).

    ``nbytes`` optionally overrides the modeled wire size per
    destination rank (skeleton programs send placeholder payloads).
    """
    world = comm.world
    sim = world.sim
    fabric = world.fabric
    comm._coll_seq = seq = comm._coll_seq + 1
    key = (comm.cid, _COLL_TAG_BASE - seq)
    size = comm.size
    rank = comm.rank
    if rank != root:
        colls = world._fast_colls
        rec = colls.get(key)
        if rec is None:
            rec = colls[key] = _ScatterRec(size)
        now = sim.now
        arr = rec.arrival[rank]
        if arr is None:
            rec.entry[rank] = now
            return (yield Park(rec.procs, rank))
        value = rec.value[rank]
        t = max(now, arr) + fabric.cpu_overhead(rec.nbytes[rank])
        rec.served += 1
        if rec.served == size:
            del world._fast_colls[key]
        if t > now:
            yield SleepUntil(t)
        return value
    if payloads is None or len(payloads) != size:
        raise CommMismatchError(
            f"scatter root needs {size} payloads, got "
            f"{None if payloads is None else len(payloads)}"
        )
    mine = copy_payload(payloads[root])
    if size == 1:
        return mine
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _ScatterRec(size)
    now = sim.now
    t = now
    src_node = comm.node_of(rank)
    wrank = comm.world_rank()
    # repro: allow[PERF002] -- flat sequential send chain, inherently O(ranks)
    for dst in range(size):
        if dst == root:
            continue
        pbytes = (payload_nbytes(payloads[dst]) if nbytes is None
                  else nbytes[dst])
        dst_node = comm.node_of(dst)
        arr = _arrival(world, pbytes, src_node, dst_node, t)
        _account(world, pbytes, src_node, dst_node, wrank)
        t = _after_send(t, fabric.cpu_overhead(pbytes))
        value = copy_payload(payloads[dst])
        p = rec.procs[dst]
        if p is not None:
            # Receiver already parked: its completion is computable now.
            compl = max(rec.entry[dst], arr) + fabric.cpu_overhead(pbytes)
            rec.served += 1
            sim.schedule_at(compl, p._step, value)
        else:
            rec.arrival[dst] = arr
            rec.value[dst] = value
            rec.nbytes[dst] = pbytes
    rec.served += 1
    if rec.served == size:
        del world._fast_colls[key]
    if t > now:
        yield SleepUntil(t)
    return mine


# ------------------------------------------- fused compositions (untraced)

class _FusedRec:
    """Rendezvous record for fused reduce+bcast compositions.

    Every member's completion depends on the root's folded value, which
    depends on every member's entry — so the whole collective is computed
    by whichever rank enters last, and every other rank parks exactly
    once.  Used only when no tracer is attached (the traced path keeps
    the reduce→bcast composition so nested spans match the message path).
    """

    __slots__ = ("entry", "procs", "acc", "remaining")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.acc: list = [None] * size
        self.remaining = size


def _fused_times(comm, rec: _FusedRec, size: int, fold: Callable,
                 finalize: Callable | None):
    """Closed-form completion times/values of reduce(root 0) + bcast(root 0).

    Replays both phases with the exact recurrences of :class:`_UpRec` /
    :class:`_DownRec` (same fold order, same float round trips), evaluated
    in one topological pass per phase.  Returns ``(compl, values)`` lists
    indexed by rank.
    """
    world = comm.world
    fabric = world.fabric
    tracer = world.tracer
    if tracer is None and size >= aggregate.AGGREGATE_MIN_SIZE:
        venv = aggregate.vector_env(world)
        if venv is not None:
            return _fused_times_vec(comm, rec, size, fold, finalize, venv)
    cpu_overhead = fabric.cpu_overhead
    schedule = getattr(fabric, "transfer_schedule", None)
    transfer_time = fabric.transfer_time
    track = world.track_traffic
    stats_record = world.stats.record
    nodes = comm._nodes
    group = comm._group
    entry, acc = rec.entry, rec.acc
    children_desc = _children_desc_table(size)
    children_tbl = _children_table(size)
    # ---- reduce phase: children (always > parent) fold deepest-first
    arrival = [0.0] * size
    nbytes_in = [0] * size
    red_val: list = [None] * size
    red_compl = [0.0] * size
    # repro: allow[PERF002] -- retained scalar reference path (stateful fabrics)
    for v in range(size - 1, -1, -1):
        t = entry[v]
        a = acc[v]
        for c in children_desc[v]:
            t = max(t, arrival[c]) + cpu_overhead(nbytes_in[c])
            a = fold(a, red_val[c])
        acc[v] = a
        if v == 0:
            red_compl[0] = t
        else:
            parent = _tree(v, size)[0]
            abytes = payload_nbytes(a)
            src_node = nodes[v]
            dst_node = nodes[parent]
            if schedule is not None:
                raw = schedule(abytes, src_node, dst_node, t)
            else:
                raw = t + transfer_time(abytes, src_node, dst_node)
            arrival[v] = t + (raw - t)
            if track:
                stats_record(abytes, src_node != dst_node)
            if tracer is not None:
                _account_trace(tracer, abytes, src_node, dst_node, group[v])
            red_val[v] = copy_payload(a)
            nbytes_in[v] = abytes
            ovh = cpu_overhead(abytes)
            red_compl[v] = t + ((t + ovh) - t)
    # ---- bcast phase: entries are the reduce completions
    root_payload = acc[0] if finalize is None else finalize(acc[0])
    nb = payload_nbytes(root_payload)
    overhead = cpu_overhead(nb)
    compl = [0.0] * size
    values: list = [None] * size
    values[0] = root_payload
    barr = [0.0] * size
    # repro: allow[PERF002] -- retained scalar reference path (stateful fabrics)
    for v in range(size):
        if v == 0:
            t = red_compl[0]
        else:
            t = max(red_compl[v], barr[v]) + overhead
        data = values[v]
        children = children_tbl[v]
        if children:
            src_node = nodes[v]
            wr = group[v]
            for c in children:
                dst_node = nodes[c]
                if schedule is not None:
                    raw = schedule(nb, src_node, dst_node, t)
                else:
                    raw = t + transfer_time(nb, src_node, dst_node)
                barr[c] = t + (raw - t)
                if track:
                    stats_record(nb, src_node != dst_node)
                if tracer is not None:
                    _account_trace(tracer, nb, src_node, dst_node, wr)
                values[c] = copy_payload(data)
                t = t + ((t + overhead) - t)
        compl[v] = t
    return compl, values


def _fused_times_vec(comm, rec: _FusedRec, size: int, fold: Callable,
                     finalize: Callable | None, venv):
    """Aggregate form of :func:`_fused_times` (stateless fabrics only).

    The value fold is inherently sequential per parent (``fold`` is an
    arbitrary reduction), so it runs as one O(ranks) Python pass in the
    exact deepest-subtree-first order of the scalar walk; both phases'
    completion *times* are then one vectorized per-wave evaluation each
    (see :mod:`repro.simmpi.aggregate`).  Bit-identical values, times,
    and traffic totals.
    """
    world = comm.world
    entry, acc = rec.entry, rec.acc
    children_desc = _children_desc_table(size)
    red_val: list = [None] * size
    nbytes_in = np.zeros(size, dtype=np.int64)
    # repro: allow[PERF002] -- O(ranks) value fold; times are vectorized below
    for v in range(size - 1, -1, -1):
        a = acc[v]
        for c in children_desc[v]:
            a = fold(a, red_val[c])
        acc[v] = a
        if v:
            red_val[v] = copy_payload(a)
            nbytes_in[v] = payload_nbytes(a)
    nodes_v = np.asarray(comm._nodes, dtype=np.intp)
    entry_v = np.asarray(entry, dtype=float)
    red_compl, _arrival, inter_msgs, inter_bytes = aggregate.gather_times(
        venv, size, entry_v, nbytes_in, nodes_v)
    track = world.track_traffic
    if track:
        world.stats.record_bulk(size - 1, int(nbytes_in[1:].sum()),
                                inter_msgs, inter_bytes)
    # ---- bcast phase: entries are the reduce completions
    root_payload = acc[0] if finalize is None else finalize(acc[0])
    nb = payload_nbytes(root_payload)
    compl, inter = aggregate.bcast_times(venv, size, red_compl, nb, nodes_v)
    if track:
        world.stats.record_bulk(size - 1, nb * (size - 1), inter, nb * inter)
    copy = payload_copier(root_payload)
    values = [root_payload if v == 0 else copy(root_payload)
              for v in range(size)]
    return compl.tolist(), values


def _fast_fused(comm, payload, fold: Callable, finalize: Callable | None):
    """Shared driver for the fused all-to-all-rooted compositions."""
    world = comm.world
    sim = world.sim
    # Two tags — the composed reduce's and bcast's — keep tags lockstep.
    seq = comm._coll_seq + 1
    comm._coll_seq = seq + 1
    size = comm.size
    if size == 1:
        mine = copy_payload(payload) if fold is not _merge \
            else {comm.rank: copy_payload(payload)}
        return copy_payload(mine if finalize is None else finalize(mine))
    v = comm.rank  # both composed phases are rooted at rank 0
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _FusedRec(size)
    now = sim.now
    rec.entry[v] = now
    rec.acc[v] = copy_payload(payload) if fold is not _merge \
        else {comm.rank: copy_payload(payload)}
    rec.remaining -= 1
    if rec.remaining:
        return (yield Park(rec.procs, v))
    del world._fast_colls[key]
    compl, values = _fused_times(comm, rec, size, fold, finalize)
    # repro: allow[PERF002] -- per-rank wake fan-out, one schedule per proc
    for u in range(size):
        p = rec.procs[u]
        if p is not None:
            sim.schedule_at(compl[u], p._step, values[u])
    t = compl[v]
    if t > now:
        yield SleepUntil(t)
    return values[v]


def _add(a, b):
    return a + b


def _ordered_list(acc: dict):
    return [acc[r] for r in range(len(acc))]


def fast_allreduce(comm, payload: Any, op: Callable):
    """Fused reduce+bcast: one park/wake per rank, identical virtual times."""
    return _fast_fused(comm, payload, op, None)


def fast_allgather(comm, payload: Any):
    """Fused gather+bcast of the rank-ordered list."""
    return _fast_fused(comm, payload, _merge, _ordered_list)


def fast_barrier(comm):
    """Fused barrier (reduce+bcast of an empty token, result discarded)."""
    yield from _fast_fused(comm, 0, _add, None)
    return None
