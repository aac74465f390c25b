"""Tests for the analytic performance model: timelines, evaluator, calibration."""

import math

import numpy as np
import pytest

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape, Placement, layout_for
from repro.energy.power_model import PackagePower
from repro.perfmodel.analytic import (
    _hier_hops,
    analytic_run,
    ime_analytic,
    ime_analytic_times,
    scalapack_analytic,
    scalapack_analytic_times,
)
from repro.perfmodel.calibration import (
    DEFAULT_CALIBRATION,
    IME_PROFILE,
    SCALAPACK_PROFILE,
    profile_for,
)
from repro.perfmodel.timeline import (
    NodeTimeline,
    Segment,
    layout_occupancies,
    socket_occupancies,
    uniform_run_timelines,
)
from repro.solvers.ime.costmodel import ImeCostModel

MACHINE = marconi_a3()


# ---------------------------------------------------------------- calibration
def test_profile_for_known_algorithms():
    assert profile_for("ime") is IME_PROFILE
    assert profile_for("ScaLAPACK") is SCALAPACK_PROFILE
    with pytest.raises(ValueError, match="unknown algorithm"):
        profile_for("lu")


def test_calibrated_profiles_encode_the_papers_contrast():
    # IMe: more DRAM traffic per flop (unblocked sweeps), ScaLAPACK: BLAS-3.
    assert IME_PROFILE.dram_bytes_per_flop > 2 * SCALAPACK_PROFILE.dram_bytes_per_flop
    # Both within an order of magnitude on the effective core rate.
    ratio = IME_PROFILE.eff_flops_per_core / SCALAPACK_PROFILE.eff_flops_per_core
    assert 0.5 < ratio < 2.0


# ------------------------------------------------------------------ timelines
def test_segment_validation():
    with pytest.raises(ValueError, match="negative"):
        Segment(duration=-1.0, active_cores=(1, 0), dram_rate=(0.0, 0.0))
    with pytest.raises(ValueError, match="align"):
        Segment(duration=1.0, active_cores=(1, 0), dram_rate=(0.0,))


def test_timeline_energy_matches_hand_integral():
    machine = MACHINE
    params = machine.power
    tl = NodeTimeline(node_id=0)
    tl.add(Segment(duration=2.0, active_cores=(24, 0), flop_util=0.5,
                   mem_util=0.5, dram_rate=(1e9, 0.0)))
    energy = tl.energy_j(machine)
    pkg_model = PackagePower(params)
    occ = 23 / 23  # full socket
    core_w = pkg_model.core_active_power(0.5, 0.5, occupancy_frac=occ)
    assert energy["package-0"] == pytest.approx(
        (params.pkg_idle_w + 24 * core_w) * 2.0
    )
    assert energy["package-1"] == pytest.approx(params.pkg_idle_w * 2.0)
    assert energy["dram-0"] == pytest.approx(
        (params.dram_idle_w + params.dram_energy_per_byte * 1e9) * 2.0
    )
    assert energy["dram-1"] == pytest.approx(params.dram_idle_w * 2.0)


def test_uniform_run_timelines_split_by_socket_occupancy():
    placement = Placement(layout_for(48, LoadShape.HALF_TWO_SOCKETS, MACHINE),
                          MACHINE)
    timelines = uniform_run_timelines(
        placement, compute_seconds=1.0, comm_seconds=0.5,
        profile=IME_PROFILE, dram_bytes_per_node=1e9,
    )
    assert len(timelines) == 2  # 48 ranks at 24/node
    seg = timelines[0].segments[0]
    assert seg.active_cores == (12, 12)
    assert seg.dram_rate[0] == pytest.approx(seg.dram_rate[1])
    assert timelines[0].duration == pytest.approx(1.5)


# ------------------------------------------- closed-form socket occupancy
def _assert_occupancy_matches_placement(ranks_list, machine):
    for shape in LoadShape:
        per_node = sum(shape.ranks_per_socket(machine.cores_per_socket))
        for ranks in ranks_list:
            layouts = [layout_for(ranks, shape, machine, allow_tail=True)]
            if ranks % per_node == 0:
                layouts.append(layout_for(ranks, shape, machine))
            for layout in layouts:
                assert layout_occupancies(layout, machine) == \
                    socket_occupancies(Placement(layout, machine)), layout


def test_layout_occupancies_match_placement_scan():
    """Every rank count below 600 (each tail size of every shape, up to
    24 nodes) plus the grid's large counts, with and without a tail.
    The Placement scan is O(nodes x sockets x ranks) per layout, so a
    sweep of every count up to 3300 would cost minutes."""
    ranks_list = [*range(1, 600), 1296, 3188, 3299]
    _assert_occupancy_matches_placement(ranks_list, MACHINE)


def test_layout_occupancies_pad_idle_sockets():
    machine = small_test_machine(sockets_per_node=3, cores_per_socket=4)
    _assert_occupancy_matches_placement(range(1, 200), machine)
    layout = layout_for(10, LoadShape.FULL, machine, allow_tail=True)
    assert layout_occupancies(layout, machine) == [(4, 4, 0), (2, 0, 0)]


@pytest.mark.parametrize("layout_machine,machine,message", [
    (MACHINE, small_test_machine(cores_per_socket=2), "exceeds"),
    (small_test_machine(sockets_per_node=1, cores_per_socket=24),
     small_test_machine(sockets_per_node=1, cores_per_socket=24),
     "more sockets"),
])
def test_layout_occupancies_raise_like_placement(layout_machine, machine,
                                                 message):
    layout = layout_for(48, LoadShape.FULL, layout_machine)
    with pytest.raises(ValueError, match=message) as expected:
        Placement(layout, machine)
    with pytest.raises(ValueError) as closed_form:
        layout_occupancies(layout, machine)
    assert str(closed_form.value) == str(expected.value)


# ------------------------------------------------------------ tree geometry
@pytest.mark.parametrize("members,nodes,expected", [
    (1, 1, (0, 0)),
    (2, 1, (0, 1)),
    (48, 1, (0, 6)),
    (96, 2, (1, 6)),
    (1296, 27, (5, 6)),
    (4, 8, (2, 0)),     # more nodes than tree depth: all hops inter
])
def test_hier_hops(members, nodes, expected):
    assert _hier_hops(members, nodes) == expected


# ------------------------------------------------------------ analytic model
def test_analytic_times_positive_and_split():
    layout = layout_for(144, LoadShape.FULL, MACHINE)
    for fn in (ime_analytic_times, scalapack_analytic_times):
        compute, comm = fn(8640, layout, MACHINE, DEFAULT_CALIBRATION)
        assert compute > 0 and comm > 0


def test_ime_analytic_compute_matches_published_flops():
    layout = layout_for(144, LoadShape.FULL, MACHINE)
    compute, _ = ime_analytic_times(17280, layout, MACHINE, DEFAULT_CALIBRATION)
    expected = ImeCostModel.level_flops_per_rank(17280, 144).sum() \
        / IME_PROFILE.eff_flops_per_core
    assert compute == pytest.approx(expected)


def test_analytic_run_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        analytic_run("qr", 8640, 144, LoadShape.FULL, MACHINE)


def test_analytic_result_accounting_consistency():
    r = ime_analytic(8640, 144, LoadShape.FULL, MACHINE)
    assert r.duration == pytest.approx(r.compute_seconds + r.comm_seconds)
    assert r.total_energy_j == pytest.approx(
        r.package_energy_j + r.dram_energy_j
    )
    assert r.mean_power_w == pytest.approx(r.total_energy_j / r.duration)
    nodes = {n for (n, _d) in r.node_energy_j}
    assert nodes == set(range(r.layout.nodes))
    assert r.messages > 0 and r.volume_bytes > 0


def test_analytic_noise_is_seeded_and_bounded():
    kwargs = dict(node_efficiency_spread=0.05, fabric_jitter=0.05)
    base = ime_analytic(8640, 144, LoadShape.FULL, MACHINE)
    a = ime_analytic(8640, 144, LoadShape.FULL, MACHINE, seed=1, **kwargs)
    b = ime_analytic(8640, 144, LoadShape.FULL, MACHINE, seed=1, **kwargs)
    c = ime_analytic(8640, 144, LoadShape.FULL, MACHINE, seed=2, **kwargs)
    assert a.duration == b.duration
    assert a.duration != c.duration
    # Noise perturbs but does not distort: within ~12 % of the clean run.
    assert a.duration == pytest.approx(base.duration, rel=0.12)


def test_powercap_stretches_time_reduces_power():
    clean = scalapack_analytic(17280, 144, LoadShape.FULL, MACHINE)
    capped = scalapack_analytic(17280, 144, LoadShape.FULL, MACHINE,
                                power_cap_w=80.0)
    assert capped.freq_ratio < 1.0
    assert capped.duration > clean.duration
    assert capped.mean_power_w < clean.mean_power_w


def test_powercap_above_full_power_is_noop():
    clean = ime_analytic(8640, 144, LoadShape.FULL, MACHINE)
    capped = ime_analytic(8640, 144, LoadShape.FULL, MACHINE,
                          power_cap_w=1000.0)
    assert capped.freq_ratio == 1.0
    assert capped.duration == pytest.approx(clean.duration)


def test_half_load_runs_use_more_nodes_and_energy():
    full = ime_analytic(17280, 144, LoadShape.FULL, MACHINE)
    half = ime_analytic(17280, 144, LoadShape.HALF_ONE_SOCKET, MACHINE)
    assert half.layout.nodes == 2 * full.layout.nodes
    assert half.total_energy_j > full.total_energy_j


def test_one_socket_half_load_slightly_above_two_socket():
    """The occupancy power slope separates the two half-load shapes in the
    direction the paper observed (socket 0 working harder)."""
    one = ime_analytic(17280, 144, LoadShape.HALF_ONE_SOCKET, MACHINE)
    two = ime_analytic(17280, 144, LoadShape.HALF_TWO_SOCKETS, MACHINE)
    assert one.total_energy_j > two.total_energy_j
    assert one.total_energy_j == pytest.approx(two.total_energy_j, rel=0.05)


def test_scalapack_latency_bound_at_high_ranks_small_matrix():
    """The pivot chain dominates ScaLAPACK in the most distributed
    deployments — the structural reason IMe overtakes it."""
    r = scalapack_analytic(8640, 1296, LoadShape.FULL, MACHINE)
    assert r.comm_seconds > r.compute_seconds
    dense = scalapack_analytic(34560, 144, LoadShape.FULL, MACHINE)
    assert dense.compute_seconds > dense.comm_seconds
