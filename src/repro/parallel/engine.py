"""In-process evaluation helpers: model builds and the background hand-off.

:func:`build_inum_models` obtains one INUM model per workload query,
serially, on the calling thread, in workload order. Every build is a
pure function of (catalog, query, config) and a built model's
observable state never changes, so a warm
:class:`~repro.parallel.caches.CostCache` hands back the model it
already holds instead of building another. There is no pool: the build
is pure Python under the GIL, so threads never overlapped it, and a
process pool cost 60-180 ms of start-up and transport per batch against
~3 ms of work per template (DESIGN.md, "Performance architecture").

:class:`BackgroundWorker` is not a pool either: it takes work *off* the
caller's latency path (one daemon thread, bounded FIFO) rather than
making it faster.

Failure isolation: a query whose model build fails — a real
:class:`~repro.errors.ReproError` or an injected ``inum.build`` fault —
is quarantined, never fatal to the batch.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from repro.catalog.catalog import Catalog
from repro.errors import FaultInjected, ReproError, WorkerCrashError
from repro.inum.model import MAX_COMBINATIONS, InumModel
from repro.optimizer.config import PlannerConfig
from repro.parallel.caches import CostCache
from repro.resilience import faults
from repro.resilience.degrade import DegradedResult
from repro.resilience.faults import FaultInjector
from repro.sql.binder import BoundQuery
from repro.workloads.workload import Workload


# ----------------------------------------------------------------------
# Background hand-off


class BackgroundWorker:
    """One daemon thread draining a bounded FIFO of hand-off items.

    For work that must happen *off* the caller's latency path rather
    than *faster*: the caller submits an item and keeps going; the
    worker invokes ``handler(item)`` for each item strictly in
    submission order (single thread, so handler state needs no
    internal ordering logic).

    Overflow policy — ``submit`` **never blocks**. When the queue is
    full the *oldest pending* item is evicted to make room and
    ``submit`` returns ``False``; a pending item is by construction
    staler than the one replacing it, so this is a coalesce, not a
    loss of the latest state. The item currently being handled is
    never evicted.

    Handler exceptions are captured (first one wins) and re-raised on
    the caller's thread from the next :meth:`submit`, :meth:`drain`,
    or :meth:`close` call, mirroring where a synchronous caller would
    have seen them. With an ``on_crash`` callback the worker is
    *supervised* instead: handler failures increment :attr:`crashes`
    and are reported to the callback while the worker keeps draining,
    and a dead decision thread is restarted by a watchdog on the next
    caller interaction (so :meth:`drain` can never deadlock on a
    corpse).
    """

    def __init__(
        self,
        handler: Callable[[Any], None],
        *,
        max_pending: int = 32,
        name: str = "repro-background-worker",
        on_crash: Callable[[BaseException], None] | None = None,
    ) -> None:
        if max_pending <= 0:
            raise ReproError("max_pending must be positive")
        self._handler = handler
        self.max_pending = max_pending
        self._name = name
        self._on_crash = on_crash
        self._pending: deque[Any] = deque()
        self._cv = threading.Condition()
        self._busy = False
        self._closed = False
        self._error: BaseException | None = None
        self.evicted = 0
        self.crashes = 0
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    # -- worker side ---------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._closed:
                    self._cv.wait()
                if not self._pending and self._closed:
                    return
                item = self._pending.popleft()
                self._busy = True
            try:
                self._handler(item)
            except BaseException as exc:  # surfaced on the caller's thread
                self._record_crash(exc)
            finally:
                with self._cv:
                    self._busy = False
                    self._cv.notify_all()

    def _record_crash(self, exc: BaseException) -> None:
        with self._cv:
            self.crashes += 1
        if self._on_crash is None:
            with self._cv:
                if self._error is None:
                    self._error = exc
            return
        try:
            self._on_crash(exc)
        except BaseException as callback_exc:
            with self._cv:
                if self._error is None:
                    self._error = callback_exc

    # -- caller side ---------------------------------------------------

    def _reraise(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error

    def _ensure_alive(self) -> None:
        """Watchdog: restart the decision thread if it died unexpectedly.

        ``_loop`` only returns on close, so a dead thread here means it
        was killed from outside (interpreter teardown races, a test
        harness, an injected crash). Restarting keeps pending items
        flowing and keeps :meth:`drain` from waiting on a corpse.
        """
        if self._thread.is_alive() or self._closed:
            return
        self._record_crash(
            WorkerCrashError("background worker thread died; restarting")
        )
        self._thread = threading.Thread(
            target=self._loop, name=self._name, daemon=True
        )
        self._thread.start()

    def submit(self, item: Any) -> bool:
        """Enqueue ``item``; returns False when an older item was evicted."""
        self._ensure_alive()
        with self._cv:
            if self._closed:
                raise ReproError("cannot submit to a closed BackgroundWorker")
            self._reraise()
            coalesced = len(self._pending) >= self.max_pending
            if coalesced:
                self._pending.popleft()
                self.evicted += 1
            self._pending.append(item)
            self._cv.notify_all()
            return not coalesced

    def drain(self) -> None:
        """Block until the queue is empty and the handler is idle."""
        self._ensure_alive()
        with self._cv:
            self._cv.wait_for(lambda: not self._pending and not self._busy)
            self._reraise()

    def close(self) -> None:
        """Drain remaining items, stop the thread, re-raise any error.

        Idempotent; after closing, :meth:`submit` raises.
        """
        with self._cv:
            already = self._closed
            self._closed = True
            self._cv.notify_all()
        if not already:
            self._thread.join()
        with self._cv:
            self._reraise()

    @property
    def pending(self) -> int:
        with self._cv:
            return len(self._pending) + (1 if self._busy else 0)


# ----------------------------------------------------------------------
# INUM model builds


def build_inum_models(
    catalog: Catalog,
    workload: Workload,
    config: PlannerConfig | None = None,
    *,
    cost_cache: CostCache | None = None,
    bound: dict[str, BoundQuery] | None = None,
    fault_injector: FaultInjector | None = None,
    degraded: list[DegradedResult] | None = None,
) -> dict[str, InumModel]:
    """One INUM model per workload query, in workload order.

    Queries are bound up front (through the shared ``cost_cache`` when
    given) and models are returned keyed by query name, in workload
    order. With a ``cost_cache`` every model comes out of its ``inum``
    section: a query modelled before on this catalog version and config
    returns the *same object* (no optimizer call, access memo already
    warm), anything else is built once and kept there.

    Per-query failure isolation: a query whose model build raises a
    :class:`~repro.errors.ReproError` (including an injected
    ``inum.build`` fault) is quarantined — omitted from the returned
    dict, with a ``quarantined`` record appended to ``degraded`` —
    instead of aborting the whole batch. Callers that need every query
    must check for missing keys.
    """
    config = config or PlannerConfig()
    sink = degraded if degraded is not None else []
    if bound is None:
        bound = bind_workload(catalog, workload, cost_cache)
    config_fp = cost_cache.fingerprint(config) if cost_cache is not None else None

    # Injected inum.build faults are checked up front, in workload
    # order, so their records precede those of builds that really fail.
    quarantined: set[str] = set()
    for name in (query.name for query in workload):
        try:
            faults.check("inum.build", name, fault_injector)
        except FaultInjected as exc:
            sink.append(
                DegradedResult("inum.build", name, "quarantined", str(exc))
            )
            quarantined.add(name)

    models: dict[str, InumModel] = {}
    for query in workload:
        name = query.name
        if name in quarantined:
            continue

        def build() -> InumModel:  # called before the next iteration
            return InumModel(catalog, bound[name], config, cost_cache=cost_cache)

        try:
            if cost_cache is None:
                models[name] = build()
            else:
                models[name] = cost_cache.inum_model(
                    catalog, config_fp, query.sql, MAX_COMBINATIONS, build
                )
        except ReproError as exc:
            sink.append(
                DegradedResult("inum.build", name, "quarantined", str(exc))
            )
    return models


def bind_workload(
    catalog: Catalog,
    workload: Workload,
    cost_cache: CostCache | None = None,
) -> dict[str, BoundQuery]:
    """Bind every workload query once, via the shared cache when given."""
    out: dict[str, BoundQuery] = {}
    for query in workload:
        if cost_cache is not None:
            out[query.name] = cost_cache.bound_query(catalog, query.sql)
        else:
            out[query.name] = query.bind(catalog)
    return out
