"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They run small versions of the workloads (a few seconds each) and check
the benchmark's own machinery: the module -> layer table, the per-layer
metrics of a traced run, and the correctness gate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layers, workloads  # noqa: E402

CONTRACT = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
PER_LAYER = {spec["name"] for spec in CONTRACT["per_layer"]}
UNMEASURED = ("repro.simmpi.shard", "repro.lint")


def small_skeleton(name="ime-skeleton", algorithm="ime", trace=True,
                   reference=None):
    from repro.obs.symbolic import run_skeleton_job

    n, ranks, nb = 96, 16, 8
    if reference is None:
        reference = workloads.modeled_fingerprint(
            run_skeleton_job(algorithm, n, ranks, nb=nb))
    return workloads.SkeletonWorkload(name, algorithm, n, ranks, nb, seed=1,
                                      trace=trace, reference=reference)


class SmallMonitoredSolve(workloads.MonitoredSolveWorkload):
    experiments = (("ime", 96), ("scalapack", 64))
    ranks = 4
    repetitions = 2

    def setup(self):
        # a slow clock, so the tiny solves span many counter updates
        from dataclasses import replace

        from repro.perfmodel.calibration import profile_for

        self.profile = replace(profile_for("ime"), eff_flops_per_core=2.0e6)
        super().setup()


def _traced(workload, seconds=0.5):
    workload.setup()
    try:
        return workload.run(seconds)
    finally:
        workload.close()


@pytest.fixture(scope="module")
def traced_runs():
    return {
        "ime-skeleton": _traced(small_skeleton()),
        "scalapack-skeleton": _traced(small_skeleton(
            "scalapack-skeleton", "scalapack")),
        "monitored-solve": _traced(SmallMonitoredSolve(seed=3, trace=True)),
        "campaign-serve": _traced(
            workloads.CampaignServeWorkload(seed=3, trace=True), seconds=3.0),
    }


def test_layer_table_names_real_modules_once():
    table = layers.module_to_layer()  # raises on a module listed twice
    for module in table:
        path = os.path.join(ROOT, "src", *module.split("."))
        assert os.path.isfile(path + ".py") or \
            os.path.isfile(os.path.join(path, "__init__.py")), module
    assert not [m for m in table if m.startswith(UNMEASURED)]


def test_every_executed_module_maps_to_exactly_one_layer(traced_runs):
    table = layers.module_to_layer()
    for name, outcome in traced_runs.items():
        executed = outcome.layers["_modules"]
        assert executed, name
        unmapped = [m for m in executed if m not in table]
        assert not unmapped, (name, unmapped)
        assert not [m for m in executed if m.startswith(UNMEASURED)]


def test_traced_run_emits_every_per_layer_metric(traced_runs):
    for name, outcome in traced_runs.items():
        assert outcome.failed == 0, (name, outcome.errors)
        emitted = set(outcome.layers) - {"_modules"}
        assert emitted == PER_LAYER, (name, emitted ^ PER_LAYER)


def test_traced_runs_show_the_workload_split(traced_runs):
    ime = traced_runs["ime-skeleton"].layers
    scalapack = traced_runs["scalapack-skeleton"].layers
    solve = traced_runs["monitored-solve"].layers
    serve = traced_runs["campaign-serve"].layers
    assert ime["simmpi.fastp2p.calls"] > 0
    assert scalapack["simmpi.fastp2p.calls"] == 0
    assert solve["core.monitoring.papi_reads"] > 0
    assert ime["core.monitoring.papi_reads"] == 0
    assert serve["perfmodel.analytic.evals"] > 0
    for des in (ime, scalapack, solve):
        assert des["perfmodel.analytic.evals"] == 0
    assert serve["simmpi.engine.self_s"] < serve["perfmodel.analytic.self_s"]


def test_tampered_reference_fails_every_job():
    good = small_skeleton(trace=False)
    reference = dict(good.reference, duration=good.reference["duration"]
                     * (1 + 1e-15) + 1e-18)
    bad = small_skeleton(trace=False, reference=reference)
    outcome = _traced(bad, seconds=0.1)
    assert outcome.attempted >= 2
    assert outcome.failed == outcome.attempted
    assert "duration" in outcome.errors[0]


def test_hung_job_counts_as_failed(monkeypatch):
    class Hung(workloads.SkeletonWorkload):
        def operation(self):
            time.sleep(5)

    monkeypatch.setattr(workloads, "JOB_TIMEOUT_S", 0.2)
    workload = Hung("ime-skeleton", "ime", 96, 16, 8, seed=1,
                    reference={})
    outcome = workloads.Outcome()
    assert workload._one(outcome) is None
    assert outcome.failed == 1 and "OperationTimeout" in outcome.errors[0]


def test_refused_requests_are_failures():
    workload = workloads.CampaignServeWorkload(seed=1)
    workload.setup()
    workload.daemon.proc.kill()
    workload.daemon.proc.wait()
    try:
        outcome = workload.run(0.5)
    finally:
        workload.close()
    assert outcome.attempted >= 1
    assert outcome.failed >= 1
    # the gated peak RSS is the daemon's: a dead daemon has none to give
    with pytest.raises(RuntimeError):
        workload.peak_rss_mb()


def test_served_rows_match_in_process_evaluation():
    workload = workloads.CampaignServeWorkload(seed=2)
    workload.setup()
    try:
        outcome = workload.run(3.0)
    finally:
        workload.close()
    assert outcome.failed == 0, outcome.errors
    assert workload.peak_rss_mb() > 0
    assert workload.run_rows and workload.batch_rows
    for rows in (workload.run_rows, workload.batch_rows):
        rows[0][1]["mean_duration"] += 1.0
    tampered = workloads.Outcome()
    workload._check_rows(tampered)
    assert tampered.failed == 2


def test_without_the_program_the_benchmark_refuses(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ime-skeleton",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == \
        list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["perfbench"]
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in CONTRACT["end_to_end"])
