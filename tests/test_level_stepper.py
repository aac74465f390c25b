"""Fused level loops ≡ the per-rank generator loops, bit for bit.

``ime_exact_skeleton_program`` advances all n levels for all ranks, and
``scalapack_exact_skeleton_program`` every panel's pivot chain and panel
broadcasts on the process-row/column communicators, in one rendezvous
(:func:`repro.simmpi.fastp2p.fast_level_loop`, charging each level
through :class:`repro.runtime.context.LevelCharge`) whenever the gate
holds, and keep their per-rank generator loops as the reference
otherwise.  These tests force the reference by standing in a gate that
always declines, and compare every modeled quantity: duration, per-(node,
domain) energy, traffic, each context's three accumulators and each
communicator's collective counter.
"""

import numpy as np
import pytest

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape, Placement, layout_for
from repro.energy.accounting import ActivityAccountant
from repro.energy.tracing import PowerTracer
from repro.obs import symbolic
from repro.obs.symbolic import (
    SymbolicOptions,
    ime_exact_skeleton_program,
    run_skeleton_job,
    scalapack_exact_skeleton_program,
)
from repro.obs.tracer import SpanTracer
from repro.runtime.context import LevelCharge
from repro.runtime.job import Job
from repro.simmpi import aggregate, fastp2p
from repro.simmpi.engine import Delay
from repro.simmpi.errors import CommMismatchError
from repro.solvers.ime.parallel import ime_parallel_program
from repro.solvers.scalapack.pdgesv import ScalapackOptions, pdgesv_program
from repro.workloads.generator import LinearSystem, generate_system


def _declining_gate(*_args, **_kwargs):
    """A ``fast_level_loop`` that never fuses: the reference loop runs."""
    return False
    yield  # pragma: no cover - makes this a generator, like the real one


@pytest.fixture
def fused_calls(monkeypatch):
    """Count the fused replays (one per job that took the fused path)."""
    calls = []
    real = fastp2p._replay_levels

    def spy(comm, rec, last, charge):
        calls.append(comm.size)
        return real(comm, rec, last, charge)

    monkeypatch.setattr(fastp2p, "_replay_levels", spy)
    return calls


def make_job(ranks, shape=LoadShape.FULL, machine=None, cap=None,
             jitter=0.0, seed=0):
    """A Job built the way :func:`run_skeleton_job` builds it."""
    machine = machine if machine is not None else marconi_a3()
    placement = Placement(
        layout_for(ranks, shape, machine, allow_tail=True), machine)
    job = Job(machine, placement, seed=seed, fabric_jitter=jitter)
    job.sim.fast_collectives = True
    job.sim.fast_p2p = True
    if cap is not None:
        job.set_power_cap(cap)
    return job


def skeleton(n, after=None, state=None):
    """The exact IMe skeleton, optionally followed by ``after(ctx, comm)``;
    ``state`` collects each rank's accumulators and collective counter."""

    def program(ctx, comm):
        yield from ime_exact_skeleton_program(ctx, comm, n=n,
                                              options=SymbolicOptions())
        if state is not None:
            state[comm.rank] = (ctx.flops_charged, ctx.dram_bytes_charged,
                                ctx.compute_seconds, comm._coll_seq)
        if after is not None:
            return (yield from after(ctx, comm))
        return None

    return program


def run(n, ranks, monkeypatch, reference=False, after=None, **job_kwargs):
    """Run the skeleton; returns (JobResult, per-rank state)."""
    state = {}
    with monkeypatch.context() as m:
        if reference:
            m.setattr(symbolic, "fast_level_loop", _declining_gate)
        result = make_job(ranks, **job_kwargs).run(
            skeleton(n, after=after, state=state))
    return result, state


def assert_same(a, b):
    (ra, sa), (rb, sb) = a, b
    assert ra.duration == rb.duration
    assert ra.node_energy_j == rb.node_energy_j
    assert ra.traffic == rb.traffic
    assert ra.rank_results == rb.rank_results
    assert sa == sb


def _sizes(ranks):
    """n = 1, n < p, and n > p where the reference loop stays quick."""
    sizes = {1, min(ranks - 1, 36 if ranks <= 144 else 8)}
    if ranks <= 33:
        sizes.add(ranks + 3)
    return sorted(sizes)


CASES = [(n, p) for p in (2, 4, 6, 31, 32, 33, 144, 1296, 3188)
         for n in _sizes(p)]


# ------------------------------------------------------- the energy fold
def test_add_in_order_is_the_sequential_fold():
    """Zero-padded, wide-ranged increments fold to the bits of one
    ``add_energy`` per increment (a pairwise sum would not)."""
    rng = np.random.default_rng(3)
    inc = rng.random(4096) * 10.0 ** rng.integers(-9, 3, 4096)
    inc[::5] = 0.0
    one, batch = ActivityAccountant(0.5), ActivityAccountant(0.5)
    one.add_energy(1.0)
    batch.add_energy(1.0)
    for x in inc.tolist():
        one.add_energy(x)
    batch.add_in_order(inc[:1000])
    batch.add_in_order(inc[1000:])
    assert batch.energy_at(2.0) == one.energy_at(2.0)
    with pytest.raises(ValueError):
        batch.add_in_order([1.0, -1.0])


def test_activity_point_is_what_begin_charges():
    pkg = make_job(48, cap=_binding_cap()).rapl_nodes[0].package(0)
    for cores in (1, 2, 7):
        pkg.active_cores = cores - 1
        handle, ratio = pkg.begin_core_activity(0.65, 0.3, 0.0,
                                                incremental_over_spin=True)
        watts = pkg.pkg_accountant._ongoing[handle][1]
        assert pkg.activity_point(0.65, 0.3, cores, True) == (watts, ratio)
    assert pkg.activity_point(0.65, 0.3, 1, True) \
        != pkg.activity_point(0.65, 0.3, 7, True)


# ------------------------------------------------ (a) fused ≡ reference
@pytest.mark.parametrize("shape", list(LoadShape), ids=lambda s: s.value)
@pytest.mark.parametrize("n,ranks", CASES,
                         ids=[f"n{n}-p{p}" for n, p in CASES])
def test_fused_matches_reference_loop(n, ranks, shape, monkeypatch,
                                      fused_calls):
    fused = run(n, ranks, monkeypatch, shape=shape)
    assert fused_calls == [ranks]
    ref = run(n, ranks, monkeypatch, reference=True, shape=shape)
    assert fused_calls == [ranks]
    assert_same(fused, ref)


def test_small_machine_points(monkeypatch, fused_calls):
    """Ranks spread over nodes of the two-core test machine (both
    fabric tiers, several sockets per level)."""
    for ranks, n in ((4, 9), (6, 13), (6, 4)):
        machine = small_test_machine()
        fused = run(n, ranks, monkeypatch, machine=machine)
        ref = run(n, ranks, monkeypatch, reference=True, machine=machine)
        assert_same(fused, ref)
    assert len(fused_calls) == 3


# --------------------------------------- (b) full solver ≡ fused skeleton
def test_full_solver_matches_fused_skeleton_above_size_gate(fused_calls):
    ranks, n = 36, 70
    machine = small_test_machine(cores_per_socket=ranks // 2)
    system = generate_system(n, seed=3)
    job = make_job(ranks, machine=machine)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from ime_parallel_program(ctx, comm, system=sys_arg))

    full = job.run(program)
    assert fused_calls == []
    skel = run_skeleton_job("ime", n, ranks, machine=machine)
    assert fused_calls == [ranks]
    assert full.duration == skel.duration
    assert full.node_energy_j == skel.node_energy_j
    assert full.traffic == skel.traffic


# ------------------------------- (c) binding power cap, stateful fabric
def _binding_cap():
    """A package cap below what even one active core draws at full
    frequency, so the DVFS ratio depends on the active-core count."""
    params = marconi_a3().power
    return params.pkg_idle_w + 0.5 * params.core_base_w


def test_binding_power_cap_replays_events(monkeypatch, fused_calls):
    replays = []
    real = LevelCharge._replay_events

    def spy(self, *args):
        replays.append(1)
        return real(self, *args)

    monkeypatch.setattr(LevelCharge, "_replay_events", spy)
    fused = run(40, 48, monkeypatch, cap=_binding_cap())
    assert fused_calls == [48] and replays
    ref = run(40, 48, monkeypatch, reference=True, cap=_binding_cap())
    assert_same(fused, ref)
    uncapped = run(40, 48, monkeypatch)
    assert uncapped[0].duration < fused[0].duration


def test_fabric_jitter_takes_scalar_stages(monkeypatch, fused_calls):
    fused = run(50, 48, monkeypatch, jitter=0.02, seed=7)
    assert fused_calls == [48]
    ref = run(50, 48, monkeypatch, reference=True, jitter=0.02, seed=7)
    assert_same(fused, ref)


def test_event_replay_is_the_vector_oracle(monkeypatch, fused_calls):
    """With the vector form disabled, every level replays one begin/end at
    a time through the RAPL packages — and lands on the same bits."""
    vector = run(60, 144, monkeypatch)
    monkeypatch.setattr(LevelCharge, "_level_points",
                        lambda self, profs, counts: None)
    events = run(60, 144, monkeypatch)
    assert fused_calls == [144, 144]
    assert_same(vector, events)


# -------------------------------------------------- (d) the gate itself
def test_benchmark_point_takes_fused_path(fused_calls):
    run_skeleton_job("ime", 360, 144)
    assert fused_calls == [144]


def _fused_run(n=30, ranks=36):
    """The fused run the reference-loop cases must equal."""
    return run_skeleton_job("ime", n, ranks)


def test_tracer_keeps_reference_loop(fused_calls):
    job = make_job(36)
    job.attach_tracer(SpanTracer())
    traced = job.run(skeleton(30))
    assert fused_calls == []
    fused = _fused_run()
    assert fused_calls == [36]
    assert traced.duration == fused.duration
    assert traced.node_energy_j == fused.node_energy_j


def test_sanitizer_keeps_reference_loop(monkeypatch, fused_calls):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_skeleton_job("ime", 30, 36)
    monkeypatch.delenv("REPRO_SANITIZE")
    assert fused_calls == []
    assert sanitized.node_energy_j == _fused_run().node_energy_j


def test_message_mode_keeps_reference_loop(fused_calls):
    message = run_skeleton_job("ime", 30, 36, fast=False)
    assert fused_calls == []
    assert message.node_energy_j == _fused_run().node_energy_j


def test_extra_live_process_keeps_reference_loop(fused_calls):
    job = make_job(36)

    def bystander():  # outlives the ranks' arrival at the level loop
        yield Delay(1.0)

    job.sim.spawn(bystander(), name="bystander")
    result = job.run(skeleton(30))
    assert fused_calls == []
    fused = _fused_run()
    assert result.duration == fused.duration
    assert result.node_energy_j == fused.node_energy_j


def test_power_sampler_keeps_reference_loop(fused_calls):
    """A sampler reads RAPL counters from a callback mid-run: the fused
    loop would hide the per-level energy it samples."""
    job = make_job(36)
    result, trace = PowerTracer(job, period=2.0e-5).run(skeleton(30))
    assert fused_calls == []
    assert len(trace.times) > 2
    assert result.node_energy_j == _fused_run().node_energy_j


def test_mismatched_level_loops_fail_loudly():
    def program(ctx, comm):
        levels = 4 if comm.rank == 2 else 3
        return (yield from fastp2p.fast_level_loop(
            comm, levels, symbolic._ImeLevelStages(5, comm.size),
            np.zeros(1), ctx, None))

    with pytest.raises(CommMismatchError, match="ranks"):
        make_job(4).run(program)


# ---------------------------------------- (e) collectives after the loop
@pytest.mark.parametrize("ranks", [6, 144])
def test_collective_after_loop(ranks, monkeypatch, fused_calls):
    def after(ctx, comm):
        total = yield from comm.allreduce(float(comm.rank))
        yield from ctx.compute(flops=1.0e5)
        root = yield from comm.bcast(comm._coll_seq if comm.rank == 0
                                     else None, root=0)
        return total, root

    n = 25
    fused = run(n, ranks, monkeypatch, after=after)
    ref = run(n, ranks, monkeypatch, reference=True, after=after)
    assert fused_calls == [ranks]
    assert_same(fused, ref)
    # scatter + 3 stages per level, then allreduce and bcast
    assert fused[0].rank_results[0][1] == 1 + 3 * n + 2


# ================================================== ScaLAPACK panel loop
def run_scalapack(n, ranks, monkeypatch, nb=8, reference=False,
                  after=None, job=None, **job_kwargs):
    """Run the exact ScaLAPACK skeleton; returns (JobResult, per-rank
    state): the three accumulators and the world, process-row and
    process-column collective counters, read after the skeleton."""
    state = {}
    handles = {}
    real = symbolic.fast_level_loop

    def loop(comm, *args, subcomms=(), **kwargs):
        handles[comm.rank] = subcomms
        gate = _declining_gate if reference else real
        return (yield from gate(comm, *args, subcomms=subcomms, **kwargs))

    def program(ctx, comm):
        yield from scalapack_exact_skeleton_program(
            ctx, comm, n=n, options=SymbolicOptions(nb=nb))
        row, col = handles[comm.rank]
        state[comm.rank] = (ctx.flops_charged, ctx.dram_bytes_charged,
                            ctx.compute_seconds, comm._coll_seq,
                            row._coll_seq, col._coll_seq)
        if after is not None:
            return (yield from after(ctx, comm, row, col))
        return None

    with monkeypatch.context() as m:
        m.setattr(symbolic, "fast_level_loop", loop)
        if job is None:
            job = make_job(ranks, **job_kwargs)
        result = job.run(program)
    return result, state


def _scalapack_sizes(ranks):
    """(n, nb): n < nb, n % nb != 0 with ranks that own no panel rows or
    columns (zero-flop panels), and a multi-panel n where every rank
    computes when the grid is small."""
    sizes = [(5, 8), (27, 8)]
    if ranks <= 32:
        sizes.append((70, 8))
    return sizes


SCALAPACK_CASES = [(n, nb, p) for p in (2, 4, 6, 31, 32, 144, 3188)
                   for n, nb in _scalapack_sizes(p)]


@pytest.mark.parametrize("shape", list(LoadShape), ids=lambda s: s.value)
@pytest.mark.parametrize("n,nb,ranks", SCALAPACK_CASES,
                         ids=[f"n{n}-nb{nb}-p{p}"
                              for n, nb, p in SCALAPACK_CASES])
def test_scalapack_fused_matches_reference_loop(n, nb, ranks, shape,
                                                monkeypatch, fused_calls):
    fused = run_scalapack(n, ranks, monkeypatch, nb=nb, shape=shape)
    assert fused_calls == [ranks]
    ref = run_scalapack(n, ranks, monkeypatch, nb=nb, reference=True,
                        shape=shape)
    assert fused_calls == [ranks]
    assert_same(fused, ref)


@pytest.mark.parametrize("ranks,n", [(32, 70), (144, 40)])
def test_scalapack_vector_stages_match_reference(ranks, n, monkeypatch,
                                                  fused_calls):
    """Sub-communicators at or above ``AGGREGATE_MIN_SIZE`` take batched
    aggregate evaluations (every row's broadcast in one call)."""
    batches = []
    real = aggregate.bcast_times

    def spy(venv, size, entry_v, nb, nodes_v, batch=1):
        batches.append(batch)
        return real(venv, size, entry_v, nb, nodes_v, batch=batch)

    ref = run_scalapack(n, ranks, monkeypatch, reference=True)
    monkeypatch.setattr(aggregate, "AGGREGATE_MIN_SIZE", 2)
    monkeypatch.setattr(aggregate, "bcast_times", spy)
    fused = run_scalapack(n, ranks, monkeypatch)
    assert fused_calls == [ranks]
    assert max(batches) > 1
    assert_same(fused, ref)


def test_scalapack_small_machine_points(monkeypatch, fused_calls):
    """Both fabric tiers inside one process row or column."""
    for ranks, n in ((4, 19), (6, 33), (8, 41)):
        machine = small_test_machine()
        fused = run_scalapack(n, ranks, monkeypatch, machine=machine)
        ref = run_scalapack(n, ranks, monkeypatch, reference=True,
                            machine=machine)
        assert_same(fused, ref)
    assert fused_calls == [4, 6, 8]


def test_scalapack_collectives_after_loop(monkeypatch, fused_calls):
    def after(ctx, comm, row, col):
        total = yield from row.allreduce(float(comm.rank))
        yield from ctx.compute(flops=1.0e5)
        seq = yield from col.bcast(col._coll_seq if col.rank == 0 else None,
                                   root=0)
        return total, seq

    fused = run_scalapack(45, 24, monkeypatch, after=after)
    ref = run_scalapack(45, 24, monkeypatch, reference=True, after=after)
    assert fused_calls == [24]
    assert_same(fused, ref)


def _diag_dominant_system(n, seed):
    """A system whose pdgesv pivot trajectory is swap-free (piv == j)."""
    rng = np.random.default_rng(seed)
    return LinearSystem(a=rng.random((n, n)) + n * np.eye(n),
                        b=rng.random(n), seed=seed)


def test_full_pdgesv_matches_fused_skeleton(fused_calls):
    ranks, n, nb = 36, 75, 8
    machine = small_test_machine(cores_per_socket=ranks // 2)
    system = _diag_dominant_system(n, seed=5)
    job = make_job(ranks, machine=machine)
    options = ScalapackOptions(nb=nb)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from pdgesv_program(ctx, comm, system=sys_arg,
                                          options=options))

    full = job.run(program)
    assert fused_calls == []
    skel = run_skeleton_job("scalapack", n, ranks, machine=machine, nb=nb)
    assert fused_calls == [ranks]
    assert full.duration == skel.duration
    assert full.node_energy_j == skel.node_energy_j
    assert full.traffic == skel.traffic


def test_scalapack_benchmark_point_takes_fused_path(fused_calls):
    run_skeleton_job("scalapack", 1080, 144, nb=64)
    assert fused_calls == [144]


def _scalapack_fused(n=30, ranks=36, **kwargs):
    """The fused run the reference-loop cases must equal."""
    return run_skeleton_job("scalapack", n, ranks, **kwargs)


def _same_model(a, b):
    assert a.duration == b.duration
    assert a.node_energy_j == b.node_energy_j
    assert a.traffic == b.traffic


def test_scalapack_tracer_keeps_reference_loop(monkeypatch, fused_calls):
    job = make_job(36)
    job.attach_tracer(SpanTracer())
    traced = run_scalapack(30, 36, monkeypatch, job=job)[0]
    assert fused_calls == []
    fused = _scalapack_fused()
    assert fused_calls == [36]
    _same_model(traced, fused)


def test_scalapack_sanitizer_keeps_reference_loop(monkeypatch, fused_calls):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = _scalapack_fused()
    monkeypatch.delenv("REPRO_SANITIZE")
    assert fused_calls == []
    _same_model(sanitized, _scalapack_fused())


def test_scalapack_message_mode_keeps_reference_loop(fused_calls):
    message = _scalapack_fused(fast=False)
    assert fused_calls == []
    _same_model(message, _scalapack_fused())


def test_scalapack_fast_collectives_off_keeps_reference_loop(monkeypatch,
                                                             fused_calls):
    job = make_job(36)
    job.sim.fast_collectives = False
    slow = run_scalapack(30, 36, monkeypatch, job=job)[0]
    assert fused_calls == []
    _same_model(slow, _scalapack_fused())


def test_scalapack_extra_process_keeps_reference_loop(monkeypatch,
                                                      fused_calls):
    job = make_job(36)

    def bystander():  # outlives the ranks' arrival at the panel loop
        yield Delay(1.0)

    job.sim.spawn(bystander(), name="bystander")
    result = run_scalapack(30, 36, monkeypatch, job=job)[0]
    assert fused_calls == []
    _same_model(result, _scalapack_fused())


def test_scalapack_power_sampler_keeps_reference_loop(fused_calls):
    job = make_job(36)
    opts = SymbolicOptions(nb=8)

    def program(ctx, comm):
        return (yield from scalapack_exact_skeleton_program(
            ctx, comm, n=30, options=opts))

    result, trace = PowerTracer(job, period=2.0e-5).run(program)
    assert fused_calls == []
    assert len(trace.times) > 2
    assert result.node_energy_j == _scalapack_fused().node_energy_j


def test_scalapack_jittered_fabric_keeps_reference_loop(monkeypatch,
                                                        fused_calls):
    """A jittered fabric draws per-hop state in the reference's
    interleaving of row and column cascades: no fused replay."""
    a = run_scalapack(30, 36, monkeypatch, jitter=0.02, seed=7)
    assert fused_calls == []
    b = run_scalapack(30, 36, monkeypatch, reference=True, jitter=0.02,
                      seed=7)
    assert_same(a, b)


def test_scalapack_binding_cap_keeps_reference_loop(monkeypatch,
                                                    fused_calls):
    capped = run_scalapack(40, 48, monkeypatch, cap=_binding_cap())
    assert fused_calls == []
    ref = run_scalapack(40, 48, monkeypatch, reference=True,
                        cap=_binding_cap())
    assert_same(capped, ref)
    uncapped = run_scalapack(40, 48, monkeypatch)
    assert fused_calls == [48]
    assert uncapped[0].duration < capped[0].duration


def test_overlapping_levels_fold_in_end_order():
    """Later levels' segments may end before earlier ones on one socket:
    the fold follows (end time, level, position), not level order."""
    rng = np.random.default_rng(11)
    ranks, levels = 24, 3
    flops = rng.random((levels, ranks)) * 10.0 ** rng.integers(
        5, 10, (levels, ranks))
    contexts = make_job(ranks).make_contexts()
    charge = LevelCharge(contexts, flops)
    t = np.zeros(ranks)
    for level in range(levels):
        t = charge.level(level, t, np.arange(ranks))
    charge.close()
    # Reference: one begin/end per segment, ends in (end, level, rank)
    # order, through the RAPL package of a fresh job.
    ref = make_job(ranks).make_contexts()
    segments = []
    for r, ctx in enumerate(ref):
        t0 = 0.0
        for level in range(levels):
            dt = ctx.profile.duration(flops[level, r]) / ctx.node_efficiency
            segments.append((t0 + dt, level, r, t0))
            t0 = t0 + dt
    pkg = ref[0]._pkg
    incs = []
    for stop, level, r, start in sorted(segments):
        prof = ref[r].profile
        handle, _ = pkg.begin_core_activity(prof.flop_util, prof.mem_util,
                                            start, incremental_over_spin=True)
        incs.append(pkg.pkg_accountant._ongoing[handle][1] * (stop - start))
        pkg.end_core_activity(handle, stop)
        pkg.charge_dram_traffic(flops[level, r] * prof.dram_bytes_per_flop,
                                start, stop)
    # The case is sensitive: level order would fold to other bits.
    ends = sorted(segments)
    by_level = [incs[i] for i in sorted(
        range(len(incs)), key=lambda i: (ends[i][1], ends[i][0]))]
    assert sum(by_level) != sum(incs)
    ours = contexts[0]._pkg
    assert ours.pkg_accountant._completed_j == pkg.pkg_accountant._completed_j
    assert ours.dram_accountant._completed_j \
        == pkg.dram_accountant._completed_j


def test_equal_end_times_fold_in_start_order():
    """Two segments ending together on one socket fold in the order they
    began — here a later level's segment first — as the engine runs
    their ends."""
    contexts = make_job(2).make_contexts()
    rate = contexts[0].profile.eff_flops_per_core
    # rank 0: [0, 0.25] then [0.25, 6]; rank 1: [2.5, 6], then nothing
    durations = np.array([[0.25, 3.5], [5.75, 0.0]])
    charge = LevelCharge(contexts, durations * rate, ordered=False)
    t = charge.level(0, np.array([0.0, 2.5]), np.arange(2))
    t = charge.level(1, t, np.arange(2))
    assert t.tolist() == [6.0, 6.0]
    charge.close()
    ref = make_job(2).make_contexts()
    pkg = ref[0]._pkg
    prof = ref[0].profile
    incs = []
    for start, stop in ((0.0, 0.25), (0.25, 6.0), (2.5, 6.0)):
        handle, _ = pkg.begin_core_activity(prof.flop_util, prof.mem_util,
                                            start, incremental_over_spin=True)
        incs.append(pkg.pkg_accountant._ongoing[handle][1] * (stop - start))
        pkg.end_core_activity(handle, stop)
        pkg.charge_dram_traffic((stop - start) * rate
                                * prof.dram_bytes_per_flop, start, stop)
    # The case is sensitive: level order would fold to other bits.
    assert (incs[0] + incs[2]) + incs[1] != (incs[0] + incs[1]) + incs[2]
    ours = contexts[0]._pkg
    assert ours.pkg_accountant._completed_j == pkg.pkg_accountant._completed_j
    assert ours.dram_accountant._completed_j \
        == pkg.dram_accountant._completed_j


def test_unordered_ties_with_unequal_increments_fail_loudly():
    """When equal start times are ordered by rank rather than by the
    engine, segments that start and end together on one socket must
    carry equal increments: otherwise the fold raises instead of
    guessing an order."""
    from dataclasses import replace

    from repro.simmpi.errors import SimMPIError

    def charge(ordered):
        contexts = make_job(2).make_contexts()
        contexts[1].profile = replace(contexts[1].profile,
                                      dram_bytes_per_flop=0.2)
        charge = LevelCharge(contexts, np.full((1, 2), 1e9),
                             ordered=ordered)
        charge.level(0, np.zeros(2), np.arange(2))
        charge.close()

    charge(ordered=True)
    with pytest.raises(SimMPIError, match="same times"):
        charge(ordered=False)


@pytest.mark.parametrize("solver", ["ime", "scalapack"])
def test_folds_mid_loop_carry_past_the_frontier(solver, monkeypatch,
                                                fused_calls):
    """With one level per fold buffer, every fold stops at the frontier
    and carries the rest — the same bits as one fold at the end."""
    from repro.runtime import context

    if solver == "ime":
        ref = run(40, 48, monkeypatch, reference=True)
        monkeypatch.setattr(context, "FOLD_BUFFER_FLOATS", 1)
        fused = run(40, 48, monkeypatch)
    else:
        ref = run_scalapack(45, 24, monkeypatch, reference=True)
        monkeypatch.setattr(context, "FOLD_BUFFER_FLOATS", 1)
        fused = run_scalapack(45, 24, monkeypatch)
    assert len(fused_calls) == 1
    assert_same(fused, ref)


def _one_sub_bcast(level):
    return (("bcast", 0, 8, 0, None),)


def test_mismatched_partitions_fail_loudly():
    def program(ctx, comm):
        sub = yield from comm.split(color=0 if comm.rank < 3 else 1)
        return (yield from fastp2p.fast_level_loop(
            comm, 1, _one_sub_bcast, None, ctx, None, subcomms=(sub,)))

    with pytest.raises(CommMismatchError, match="differ in size"):
        make_job(4).run(program)

