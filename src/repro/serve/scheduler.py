"""Single-flight compute scheduler over a persistent fork pool.

Every cold request the daemon serves funnels through here, and this
module is the **only** place serve-layer code is allowed to touch the
compute path (SRV001 enforces that): handlers hold a
:class:`Flight` and wait; the scheduler owns the worker pool, the
in-flight table, and the write-back into the cache tiers.

Single-flight dedup: flights are keyed by cache address.  When N
identical cold requests arrive concurrently, the first creates the
flight and launches one pool task; the other N-1 join the same flight
(``coalesced`` counts them) and every waiter is released by the same
completion.  The cache write-back happens *before* the flight retires,
so a released waiter re-reading the tiers always hits — and a request
whose own cache lookup missed just before that write-back finds the row
when ``submit`` re-checks the cache under the lock, instead of launching
a second computation.

Workers run with the disk cache disabled (``REPRO_CACHE_DIR=off`` set in
the pool initializer): the daemon is the sole writer of its cache root,
which keeps the journal-tracked eviction accounting (and the ``--cache-size``
bound) single-process and exact.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading


def _worker_init() -> None:
    # Workers compute from scratch and return plain dicts; the daemon
    # process is the one writer of the (bounded, journal-tracked) root.
    os.environ["REPRO_CACHE_DIR"] = "off"
    # A terminal Ctrl-C reaches the whole process group; shutdown is the
    # daemon's job (close() terminates the pool), not each worker's.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_run(task) -> dict:
    from repro.experiments.cache import result_to_dict
    from repro.experiments.sweep import _compute_task
    from repro.memo import reset_hot_caches

    result = _compute_task(task)  # repro: allow[SRV001] -- the scheduler IS the canonical compute path
    row = result_to_dict(result)
    # Long-lived pool workers walk many (n, ranks) shapes; drop the
    # module-level memo tables between tasks (the sweep-worker idiom).
    reset_hot_caches()
    return row


class Flight:
    """One in-flight computation; N waiters share it."""

    __slots__ = ("address", "meta", "done", "row", "error", "waiters",
                 "cached")

    def __init__(self, address: str, meta=None):
        self.address = address
        self.meta = meta
        self.done = threading.Event()
        self.row: dict | None = None
        self.error: BaseException | None = None
        self.waiters = 1
        #: True when ``submit`` answered from the cache (nothing launched)
        self.cached = False

    def wait(self, timeout: float | None = None) -> dict:
        if not self.done.wait(timeout):
            raise TimeoutError(f"flight {self.address[:12]} timed out")
        if self.error is not None:
            raise self.error
        return self.row


class SingleFlightScheduler:
    """Address-keyed single-flight dispatch onto a fork process pool."""

    def __init__(self, jobs: int = 2, store=None, lookup=None):
        """``store(flight, row)`` is called exactly once per completed
        flight, before any waiter is released — the daemon passes the
        cache-tier write-back here (``flight.meta`` carries whatever
        context ``submit`` was given, e.g. the (config, fingerprint)
        pair the tiers key by).  ``lookup(meta)`` returns the stored
        row or ``None``; ``submit`` calls it under the lock before
        creating a flight, which closes the window between a caller's
        own cache miss and its ``submit``."""
        self._store = store
        self._lookup = lookup
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}
        self.launched = 0
        self.coalesced = 0
        self.failed = 0
        ctx = multiprocessing.get_context("fork")
        self._pool = ctx.Pool(processes=max(1, jobs),
                              initializer=_worker_init)

    def submit(self, address: str, task, meta=None) -> Flight:
        """Launch (or join) the flight computing ``task``.

        If the row was stored since the caller's cache miss, the
        returned flight is already done with ``cached`` set and nothing
        is launched."""
        with self._lock:
            flight = self._flights.get(address)
            if flight is not None:
                flight.waiters += 1
                self.coalesced += 1
                return flight
            flight = Flight(address, meta)
            # Exact: a flight stores its row before it retires under
            # this lock, so with no flight in the table any earlier
            # one's row is already cached (unless evicted since, which
            # warrants a recompute).
            row = self._lookup(meta) if self._lookup is not None else None
            if row is not None:
                flight.row, flight.cached = row, True
                flight.done.set()
                return flight
            self._flights[address] = flight
            self.launched += 1
        self._pool.apply_async(
            _worker_run, (task,),
            callback=lambda row, f=flight: self._finish(f, row, None),
            error_callback=lambda exc, f=flight: self._finish(f, None, exc),
        )
        return flight

    def _finish(self, flight: Flight, row: dict | None,
                error: BaseException | None) -> None:
        # Runs on the pool's result-handler thread.  Order matters:
        # write-back, then retire the flight, then release the waiters —
        # a waiter that re-reads the cache after wait() must hit.
        if error is None and self._store is not None:
            try:
                self._store(flight, row)
            except BaseException as exc:  # surface store failures to waiters
                error = exc
        flight.row, flight.error = row, error
        if error is not None:
            with self._lock:
                self.failed += 1
        with self._lock:
            self._flights.pop(flight.address, None)
        flight.done.set()

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._flights)

    def stats(self) -> dict:
        with self._lock:
            return {
                "launched": self.launched,
                "coalesced": self.coalesced,
                "failed": self.failed,
                "inflight": len(self._flights),
            }

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()
