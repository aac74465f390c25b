"""Fused IMe level loop ≡ the per-rank generator loop, bit for bit.

``ime_exact_skeleton_program`` advances all n levels for all ranks in
one rendezvous (:func:`repro.simmpi.fastp2p.fast_level_loop`, charging
each level through :class:`repro.runtime.context.LevelCharge`) whenever
the gate holds, and keeps its per-rank generator loop as the reference
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
)
from repro.obs.tracer import SpanTracer
from repro.runtime.context import LevelCharge
from repro.runtime.job import Job
from repro.simmpi import fastp2p
from repro.simmpi.engine import Delay
from repro.simmpi.errors import CommMismatchError
from repro.solvers.ime.parallel import ime_parallel_program
from repro.workloads.generator import generate_system


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
