"""Campaign daemon tests: endpoints, bit-identity, dedup, eviction.

The daemon's core contract: a served result is *the same cache entry*
``repro run`` / ``repro sweep`` would produce — same sweep-level config
key, same model fingerprint, same address, same bytes on disk.  These
tests run the server in-process on an ephemeral port and check that
contract from both sides, plus the serving-layer behaviors (NDJSON
streaming, single-flight dedup, model pinning, bounded eviction).
"""

import functools
import http.client
import json
import os
import threading
import time

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache, model_fingerprint
from repro.experiments.runner import _run_analytic_cached
from repro.experiments.sweep import (
    _task_config,
    _task_machine,
    run_task,
    task_from_config,
)
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.serve import scheduler as scheduler_mod
from repro.serve.app import create_server

_real_worker_run = scheduler_mod._worker_run


def _gated_worker_run(gate: str, task) -> dict:
    """A pool task that holds its flight open until ``gate`` exists."""
    deadline = time.monotonic() + 60.0
    while not os.path.exists(gate) and time.monotonic() < deadline:
        time.sleep(0.005)
    return _real_worker_run(task)

SPEC = """\
schema: 1
experiment:
  mode: analytic
  algorithms: [ime]
  matrix_sizes: [8640]
  ranks: [144]
  shapes: [full]
  repetitions: 2
  seed: 0
"""

TWO_SPEC = """\
schema: 1
experiment:
  mode: analytic
  algorithms: [ime, scalapack]
  matrix_sizes: [8640]
  ranks: [144]
  shapes: [full]
  repetitions: 2
  seed: 0
"""


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
    try:
        conn.request(method, path, body=body.encode() if body else None)
        response = conn.getresponse()
        text = response.read().decode()
    finally:
        conn.close()
    if response.headers.get_content_type() == "application/x-ndjson":
        return response.status, [json.loads(line)
                                 for line in text.splitlines()]
    return response.status, json.loads(text) if text else None


@pytest.fixture()
def server(tmp_path, monkeypatch):
    # The daemon owns its root; keep the ambient env out of the picture.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ambient"))
    cache_mod._DEFAULT_CACHES.clear()
    _run_analytic_cached.cache_clear()
    srv = create_server(port=0, jobs=2, cache_dir=str(tmp_path / "daemon"))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown_all()
    thread.join(timeout=10)
    cache_mod._DEFAULT_CACHES.clear()


def port_of(srv):
    return srv.server_address[1]


# -------------------------------------------------------------- endpoints
class TestEndpoints:
    def test_health(self, server):
        status, body = request(port_of(server), "GET", "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["schema"] == 1
        assert body["model"] == server.model
        assert body["calibration"] == server.calibration

    def test_stats_shape(self, server):
        status, body = request(port_of(server), "GET", "/stats")
        assert status == 200
        assert {"cache", "scheduler", "requests"} <= set(body)
        assert {"l1", "l2", "puts"} <= set(body["cache"])
        assert {"launched", "coalesced", "failed", "inflight"} \
            <= set(body["scheduler"])

    def test_unknown_path_404(self, server):
        status, _ = request(port_of(server), "GET", "/nope")
        assert status == 404

    def test_run_rejects_bad_spec_with_issues(self, server):
        status, body = request(port_of(server), "POST", "/run",
                               "schema: 1\nexperiment:\n  mode: warp\n")
        assert status == 400
        assert body["error"] == "spec"
        assert body["issues"]

    def test_run_rejects_unknown_grid(self, server):
        status, body = request(port_of(server), "POST",
                               "/run?grid=bogus", SPEC)
        assert status == 400

    def test_batch_rejects_non_analytic_config(self, server):
        config = {"mode": "monitored", "algorithm": "ime", "n": 64,
                  "ranks": 4, "shape": "full", "repetitions": 1, "seed": 0}
        status, body = request(port_of(server), "POST", "/batch",
                               json.dumps({"configs": [config]}))
        assert status == 400

    def test_model_pin_mismatch_is_409(self, server):
        status, body = request(port_of(server), "POST",
                               "/run?model=deadbeef", SPEC)
        assert status == 409
        assert body["error"] == "model-mismatch"
        assert body["served"] == [server.model]
        config = {"mode": "analytic", "algorithm": "ime", "n": 8640,
                  "ranks": 144, "shape": "full", "repetitions": 2,
                  "seed": 0}
        status, body = request(
            port_of(server), "POST", "/batch",
            json.dumps({"configs": [config], "model": "deadbeef"}))
        assert status == 409
        assert body["served"] == [server.model]

    def test_model_pin_match_is_accepted(self, server):
        status, lines = request(port_of(server), "POST",
                                f"/run?model={server.model}", SPEC)
        assert status == 200
        assert lines[-1]["type"] == "done"


# ------------------------------------------------------------ bit-identity
class TestRunContract:
    def test_run_streams_and_caches(self, server):
        port = port_of(server)
        status, cold = request(port, "POST", "/run", TWO_SPEC)
        assert status == 200
        assert cold[0]["type"] == "header"
        points = [line for line in cold if line["type"] == "point"]
        assert len(points) == 2
        assert all(p["cached"] is False for p in points)
        assert cold[-1]["type"] == "done"
        status, warm = request(port, "POST", "/run", TWO_SPEC)
        warm_points = [line for line in warm if line["type"] == "point"]
        assert all(p["cached"] is True for p in warm_points)
        assert [p["result"] for p in warm_points] == \
            [p["result"] for p in points]

    def test_served_entry_is_the_sweep_cache_entry(self, server,
                                                   monkeypatch):
        """The bytes the daemon wrote are the bytes `repro run`/`repro
        sweep` address: run_task pointed at the daemon's root hits."""
        port = port_of(server)
        _, lines = request(port, "POST", "/run", SPEC)
        point = next(line for line in lines if line["type"] == "point")

        task = task_from_config(point["config"])
        config = _task_config(task)
        assert config == point["config"]
        fp = model_fingerprint(DEFAULT_CALIBRATION, _task_machine(task))
        assert fp == server.model

        disk = ResultCache(server.tiers.disk.root)
        address = disk.address(config, fp)
        assert address == point["address"]
        on_disk = disk.path_for(address).read_text()
        assert on_disk == disk.entry_text(address, config, fp,
                                          point["result"])

        # The sweep runner, pointed at the same root, answers from it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(server.tiers.disk.root))
        cache_mod._DEFAULT_CACHES.clear()
        _run_analytic_cached.cache_clear()
        row = run_task(task)
        assert row["cached"] is True
        for key, value in point["result"].items():
            assert row[key] == value

    def test_batch_equals_run(self, server):
        port = port_of(server)
        _, lines = request(port, "POST", "/run", TWO_SPEC)
        points = [line for line in lines if line["type"] == "point"]
        status, batch = request(
            port, "POST", "/batch",
            json.dumps({"configs": [p["config"] for p in points]}))
        assert status == 200
        assert batch["count"] == 2
        assert batch["from_cache"] == 2
        assert [r["result"] for r in batch["results"]] == \
            [p["result"] for p in points]
        assert [r["address"] for r in batch["results"]] == \
            [p["address"] for p in points]

    def test_cold_batch_equals_cold_run(self, tmp_path, monkeypatch):
        """Two fresh daemons, one asked via /run and one via /batch,
        produce identical results and addresses for the same configs."""
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        cache_mod._DEFAULT_CACHES.clear()
        servers, threads = [], []
        for name in ("a", "b"):
            srv = create_server(port=0, jobs=2,
                                cache_dir=str(tmp_path / name))
            thread = threading.Thread(target=srv.serve_forever,
                                      daemon=True)
            thread.start()
            servers.append(srv)
            threads.append(thread)
        try:
            _, lines = request(port_of(servers[0]), "POST", "/run", SPEC)
            point = next(l for l in lines if l["type"] == "point")
            status, batch = request(
                port_of(servers[1]), "POST", "/batch",
                json.dumps({"configs": [point["config"]]}))
            assert status == 200
            assert batch["from_cache"] == 0
            assert batch["results"][0]["result"] == point["result"]
            assert batch["results"][0]["address"] == point["address"]
        finally:
            for srv, thread in zip(servers, threads):
                srv.shutdown_all()
                thread.join(timeout=10)


# ------------------------------------------------------------------ dedup
@pytest.fixture()
def gate(tmp_path, monkeypatch):
    """Hold every pool task until the returned path exists.  The pool
    pickles the patched task by import path, which forked workers
    resolve in this already-imported module."""
    path = tmp_path / "release"
    monkeypatch.setattr(scheduler_mod, "_worker_run",
                        functools.partial(_gated_worker_run, str(path)))
    return path


class TestSingleFlight:
    CLIENTS = 6

    def test_identical_cold_requests_cost_one_computation(self, gate,
                                                          server):
        port = port_of(server)
        before = server.scheduler.stats()
        barrier = threading.Barrier(self.CLIENTS)
        results, errors = [], []

        def worker():
            try:
                barrier.wait()
                status, lines = request(port, "POST", "/run", SPEC)
                assert status == 200
                point = next(l for l in lines if l["type"] == "point")
                results.append(point)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker)
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        # The one flight stays open until every client has joined it.
        deadline = time.monotonic() + 60.0
        while (server.scheduler.stats()["coalesced"] - before["coalesced"]
               < self.CLIENTS - 1 and time.monotonic() < deadline):
            time.sleep(0.005)
        gate.touch()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()

        assert errors == []
        assert len(results) == self.CLIENTS
        after = server.scheduler.stats()
        assert after["launched"] - before["launched"] == 1
        assert after["coalesced"] - before["coalesced"] == self.CLIENTS - 1
        first = results[0]["result"]
        assert all(p["result"] == first for p in results)

    def test_miss_stored_before_submit_launches_nothing(self, server,
                                                        monkeypatch):
        """A handler whose own lookup missed, and which reaches
        ``submit`` only after an identical flight has stored its row and
        retired, is answered from the cache by the re-check in
        ``submit``."""
        port = port_of(server)
        before = server.scheduler.stats()
        real_get = server.tiers.get
        lock = threading.Lock()
        calls = []
        stalled, release = threading.Event(), threading.Event()

        def get(config, fingerprint):
            row = real_get(config, fingerprint)
            with lock:
                calls.append(row)
                first = len(calls) == 1
            if first:  # the late handler: miss, then stall before submit
                stalled.set()
                release.wait(60.0)
            return row

        monkeypatch.setattr(server.tiers, "get", get)
        late = {}
        thread = threading.Thread(
            target=lambda: late.update(
                response=request(port, "POST", "/run", SPEC)))
        thread.start()
        assert stalled.wait(60.0)
        # Meanwhile an identical request computes, stores and retires.
        status, lines = request(port, "POST", "/run", SPEC)
        assert status == 200
        early = next(l for l in lines if l["type"] == "point")
        assert early["cached"] is False
        assert server.scheduler.stats()["inflight"] == 0
        release.set()
        thread.join(timeout=120)
        assert not thread.is_alive()

        status, lines = late["response"]
        assert status == 200
        point = next(l for l in lines if l["type"] == "point")
        assert calls[0] is None  # its own lookup really missed
        assert point["cached"] is True
        assert point["result"] == early["result"]
        after = server.scheduler.stats()
        assert after["launched"] - before["launched"] == 1
        assert after["coalesced"] == before["coalesced"]


# --------------------------------------------------------------- eviction
class TestBoundedDaemon:
    def test_eviction_bounds_hold_and_recompute_is_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        cache_mod._DEFAULT_CACHES.clear()
        # ~820 B per entry: a 1 KiB budget holds exactly one of the two.
        srv = create_server(port=0, jobs=2,
                            cache_dir=str(tmp_path / "small"),
                            max_bytes=1024, l1_entries=1)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            port = port_of(srv)
            _, first = request(port, "POST", "/run", TWO_SPEC)
            points = [l for l in first if l["type"] == "point"]
            stats = srv.tiers.stats()
            assert stats["l2"]["bytes"] <= 1024
            assert stats["l2"]["evictions"] > 0
            # The evicted config recomputes to the identical result at
            # the identical address.
            _, again = request(port, "POST", "/run", TWO_SPEC)
            again_points = [l for l in again if l["type"] == "point"]
            assert [p["result"] for p in again_points] == \
                [p["result"] for p in points]
            assert [p["address"] for p in again_points] == \
                [p["address"] for p in points]
            assert srv.tiers.stats()["l2"]["bytes"] <= 1024
        finally:
            srv.shutdown_all()
            thread.join(timeout=10)


# ------------------------------------------------------- loadtest --check
class TestLoadtestCheck:
    @staticmethod
    def section(cold_wall_s):
        return {
            "cold": {"tasks": 72, "from_cache": 0, "wall_s": cold_wall_s},
            "warm": {"hit_fraction": 1.0, "p99_s": 0.001,
                     "throughput_rps": 2000.0},
            "dedup": {"clients": 8, "launched": 1},
        }

    def test_cold_throughput_guard(self):
        from repro.serve.loadtest import check_regression
        baseline = self.section(0.25)  # 288 configs/s
        # Host noise within 2x passes ...
        assert check_regression(self.section(0.45), baseline) == []
        # ... a per-repetition-loop engine (~30 configs/s) does not.
        failures = check_regression(self.section(2.4), baseline)
        assert len(failures) == 1
        assert failures[0].startswith("cold configs_per_s")
