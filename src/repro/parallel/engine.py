"""The parallel workload-evaluation engine.

Per-query INUM cache construction is embarrassingly parallel: each
model issues its own optimizer calls against a read-only catalog. The
engine fans those builds out over a thread pool (cheap, shares the
:class:`~repro.parallel.caches.CostCache`) or a process pool (true
parallelism on multi-core machines; models come back as picklable
snapshots and are rehydrated in the parent).

Determinism guarantee: ``workers=1`` (the default) runs strictly
serially. ``workers=N`` must — and does — produce bit-identical
results: every model build is a pure function of (catalog, query,
config), results are collected in workload order, and shared-cache
values are pure functions of their keys. The only observable
differences are timing and cache hit/miss counters.

Failure isolation: with a :class:`~repro.resilience.FaultInjector`
attached (explicitly or via ``REPRO_FAULTS``), the ``worker.task``
fault point fires at *dispatch time on the caller's thread*, in input
order — never inside a pooled function — so which task "crashes" is a
pure function of the schedule, not of thread timing. A crashed task is
retried once; a second consecutive crash abandons the pool and the
remaining tasks run serially (recorded on :attr:`EvaluationEngine.
degraded`). Because every task is a pure function, both ladders keep
results bit-identical to the fault-free run. A genuinely broken
process pool degrades the same way: the batch is re-run on threads and
the crash is recorded.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.catalog.catalog import Catalog
from repro.errors import FaultInjected, ReproError, WorkerCrashError
from repro.inum.model import InumModel, InumSnapshot
from repro.optimizer.config import PlannerConfig
from repro.parallel import shm
from repro.parallel.caches import CostCache
from repro.resilience import faults
from repro.resilience.degrade import DegradedResult
from repro.resilience.faults import FaultInjector
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_select
from repro.workloads.workload import Workload

T = TypeVar("T")
R = TypeVar("R")

# Below this many tasks a pool's startup cost outweighs any overlap.
_MIN_TASKS_FOR_POOL = 2


class EvaluationEngine:
    """Deterministic fan-out of independent evaluation tasks.

    Args:
        workers: Pool width. ``1`` (default) means strictly serial
            execution on the calling thread.
        mode: ``"thread"``, ``"process"``, or ``"auto"``. Auto picks
            processes only when the machine has enough cores for them
            to pay off (>2), threads on a dual-core machine, and plain
            serial execution on a single core — where any pool is pure
            overhead and results are identical by construction. Process
            mode requires picklable payloads and falls back to threads
            when pickling fails. The ``REPRO_PARALLEL_MODE`` environment
            variable (``serial``/``thread``/``process``) overrides the
            auto heuristic — CI uses it to force the process-pool
            snapshot transport path on any machine; an explicit ``mode``
            argument still wins over the environment.
    """

    def __init__(
        self,
        workers: int = 1,
        mode: str = "auto",
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if mode not in ("auto", "thread", "process"):
            raise ReproError(f"unknown parallel mode {mode!r}")
        self.workers = max(1, int(workers))
        self.mode = mode
        self._faults = fault_injector
        #: DegradedResult records from fault-tolerant map() calls.
        self.degraded: list[DegradedResult] = []

    def resolve_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        forced = os.environ.get("REPRO_PARALLEL_MODE", "").strip().lower()
        if forced in ("serial", "thread", "process"):
            return forced
        cores = os.cpu_count() or 1
        if cores > 2:
            return "process"
        return "thread" if cores == 2 else "serial"

    def close(self) -> None:
        """Release transport resources (shared-memory segments).

        The process-pool build path normally unlinks its segments as it
        decodes them; close() sweeps anything that survived an abnormal
        path (a worker that died mid-handoff, an exception between
        encode and decode). Idempotent, and safe to call on engines
        that never touched shared memory.
        """
        shm.release_all()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def drain_degraded(self) -> list[DegradedResult]:
        """Return and clear the accumulated degradation records.

        ``degraded`` accumulates across :meth:`map` calls, which is
        right for one-shot advisors but double-counts for round-based
        callers (the fleet tuner reuses one engine across tuning
        rounds). Draining hands each record to exactly one consumer.
        """
        records = self.degraded
        self.degraded = []
        return records

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        labels: Sequence[str] | None = None,
    ) -> list[R]:
        """``[fn(x) for x in items]`` with optional thread fan-out.

        Results are returned in input order regardless of completion
        order. Closures are allowed (this path never pickles), so this
        is the workhorse for in-process parallelism; use
        :func:`build_inum_models` for the process-pool path.

        When a fault injector is in effect the ``worker.task`` point is
        checked once per item, at dispatch time in input order;
        ``labels`` names the items in degradation records. With no
        injector this is byte-for-byte the plain map.
        """
        items = list(items)
        serial = (
            self.workers == 1
            or len(items) < _MIN_TASKS_FOR_POOL
            or self.resolve_mode() == "serial"
        )
        injector = faults.resolve(self._faults)
        if injector is not None:
            return self._map_with_faults(fn, items, labels, injector, serial)
        if serial:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(self.workers, len(items))) as pool:
            return list(pool.map(fn, items))

    def _map_with_faults(
        self,
        fn: Callable[[T], R],
        items: list[T],
        labels: Sequence[str] | None,
        injector: FaultInjector,
        serial: bool,
    ) -> list[R]:
        """Dispatch with per-task crash simulation and recovery.

        One fired ``worker.task`` check means the pooled task crashed:
        it is retried (one more check). A second consecutive crash on
        the same task abandons the pool — the remaining tasks run
        serially with no further checks, like an engine that has lost
        its executor. All of this happens on the caller's thread before
        any task runs, so fault placement is schedule-deterministic.
        """
        names = (
            [str(label) for label in labels]
            if labels is not None
            else [f"task {i}" for i in range(len(items))]
        )
        dispatched: list[int] = []
        leftover: list[int] = []
        pool_alive = True
        for idx in range(len(items)):
            if not pool_alive:
                leftover.append(idx)
                continue
            try:
                injector.check("worker.task", names[idx])
            except FaultInjected as exc:
                self.degraded.append(
                    DegradedResult("worker.task", names[idx], "retried", str(exc))
                )
                try:
                    injector.check("worker.task", names[idx])
                except FaultInjected:
                    crash = WorkerCrashError(
                        f"worker task {names[idx]!r} crashed twice; "
                        "running remaining tasks serially"
                    )
                    self.degraded.append(
                        DegradedResult(
                            "worker.task", names[idx], "serialized", str(crash)
                        )
                    )
                    pool_alive = False
                    leftover.append(idx)
                    continue
            dispatched.append(idx)

        results: list[R] = [None] * len(items)  # type: ignore[list-item]
        if serial or len(dispatched) < _MIN_TASKS_FOR_POOL:
            for idx in dispatched:
                results[idx] = fn(items[idx])
        else:
            with ThreadPoolExecutor(
                max_workers=min(self.workers, len(dispatched))
            ) as pool:
                mapped = pool.map(fn, (items[idx] for idx in dispatched))
                for idx, value in zip(dispatched, mapped):
                    results[idx] = value
        for idx in leftover:
            results[idx] = fn(items[idx])
        return results


# ----------------------------------------------------------------------
# Background hand-off


class BackgroundWorker:
    """One daemon thread draining a bounded FIFO of hand-off items.

    The counterpart to the pools above for work that must happen *off*
    the caller's latency path rather than *faster*: the caller submits
    an item and keeps going; the worker invokes ``handler(item)`` for
    each item strictly in submission order (single thread, so handler
    state needs no internal ordering logic).

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
# INUM model fan-out


def build_inum_models(
    catalog: Catalog,
    workload: Workload,
    config: PlannerConfig | None = None,
    *,
    workers: int = 1,
    mode: str = "auto",
    max_combinations: int = 32,
    cost_cache: CostCache | None = None,
    bound: dict[str, BoundQuery] | None = None,
    fault_injector: FaultInjector | None = None,
    degraded: list[DegradedResult] | None = None,
) -> dict[str, InumModel]:
    """One INUM model per workload query, built serially or in parallel.

    Queries are bound up front (through the shared ``cost_cache`` when
    given) and models are returned keyed by query name, in workload
    order. ``workers=1`` is the serial reference path; any ``workers``
    value yields bit-identical models.

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
    sql_of = {query.name: query.sql for query in workload}
    config_fp = cost_cache.fingerprint(config) if cost_cache is not None else None

    def build(name: str) -> InumModel:
        if cost_cache is None:
            return InumModel(
                catalog,
                bound[name],
                config,
                max_combinations=max_combinations,
                cost_cache=cost_cache,
            )
        # Serve the whole plan cache from the shared cache when this
        # (catalog version, config, SQL) was modeled before: rehydration
        # estimates bit-identically and costs zero optimizer calls.
        built: list[InumModel] = []

        def compute() -> InumSnapshot:
            model = InumModel(
                catalog,
                bound[name],
                config,
                max_combinations=max_combinations,
                cost_cache=cost_cache,
            )
            built.append(model)
            return model.snapshot()

        snapshot = cost_cache.inum_snapshot(
            catalog, config_fp, sql_of[name], max_combinations, compute
        )
        if built:
            return built[0]
        return InumModel.from_snapshot(
            catalog,
            bound[name],
            config,
            snapshot=snapshot,
            max_combinations=max_combinations,
            cost_cache=cost_cache,
        )

    names = [query.name for query in workload]

    # Injected inum.build faults are checked up front, in workload
    # order on the calling thread, so the quarantined query is a pure
    # function of the schedule even when builds run pooled.
    quarantined: set[str] = set()
    for name in names:
        try:
            faults.check("inum.build", name, fault_injector)
        except FaultInjected as exc:
            sink.append(
                DegradedResult("inum.build", name, "quarantined", str(exc))
            )
            quarantined.add(name)

    def build_guarded(name: str) -> InumModel | None:
        if name in quarantined:
            return None
        try:
            return build(name)
        except ReproError as exc:
            sink.append(
                DegradedResult("inum.build", name, "quarantined", str(exc))
            )
            return None
    engine = EvaluationEngine(
        workers=workers, mode=mode, fault_injector=fault_injector
    )
    resolved = engine.resolve_mode()
    faulted = faults.resolve(fault_injector) is not None
    all_snapshots_cached = cost_cache is not None and all(
        cost_cache.contains(
            "inum",
            (catalog.cache_key, config_fp, sql_of[name], max_combinations),
        )
        for name in names
    )
    if (
        engine.workers == 1
        or len(names) < _MIN_TASKS_FOR_POOL
        or resolved == "serial"
        or all_snapshots_cached  # rehydration only: pools are overhead
    ):
        serial_engine = EvaluationEngine(
            workers=1, fault_injector=fault_injector
        )
        built = serial_engine.map(build_guarded, names, labels=names)
        sink.extend(serial_engine.degraded)
        return {
            name: model for name, model in zip(names, built) if model is not None
        }

    if resolved == "process" and not faulted:
        # Injected faults fire parent-side at dispatch; with a harness
        # attached the in-process paths below carry the same batch so
        # fault placement stays schedule-deterministic.
        models = _build_in_processes(
            catalog, workload, config, engine.workers, max_combinations,
            bound, cost_cache, sink,
        )
        if models is not None:
            return models
        # Unpicklable payload or broken pool: threads still work.

    built = engine.map(build_guarded, names, labels=names)
    sink.extend(engine.degraded)
    return {name: model for name, model in zip(names, built) if model is not None}


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


def _build_in_processes(
    catalog: Catalog,
    workload: Workload,
    config: PlannerConfig,
    workers: int,
    max_combinations: int,
    bound: dict[str, BoundQuery],
    cost_cache: CostCache | None,
    degraded: list[DegradedResult] | None = None,
) -> dict[str, InumModel] | None:
    """Build snapshots in worker processes; None when not picklable.

    Workers rebuild the full model and ship back only the plan-cache
    snapshot; the parent rehydrates an estimation-ready model around
    its own bound query. Worker-side cache counters are not propagated.
    A broken pool (a worker process died) also returns None — the
    caller re-runs the whole batch on threads, which is the coarse
    process-level version of the retry-then-serialize ladder — after
    recording a ``serialized`` degradation.

    Transport: the (catalog, config) pair is pickled ONCE into a
    shared-memory broadcast segment instead of once per task, and
    workers return snapshots as shared-memory segments (numpy float
    buffers plus a small pickled header) rather than pickling them
    back through the result pipe. Either side of that transport can decline — broadcast
    unpicklable, segment allocation failing, a worker returning the
    plain-pickle tag — and the affected payload silently rides the
    original pickle path; recommendations are bit-identical either way.
    """
    names = [query.name for query in workload]
    handle = shm.broadcast((catalog, config))
    if handle is not None:
        worker_fn = _shm_snapshot_worker
        payloads: list[tuple] = [
            (handle, query.sql, max_combinations) for query in workload
        ]
    else:
        worker_fn = _snapshot_worker
        payloads = [
            (catalog, query.sql, config, max_combinations) for query in workload
        ]
        try:
            pickle.dumps(payloads[0])
        except Exception:
            return None
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(names))) as pool:
            results = list(pool.map(worker_fn, payloads))
    except BrokenProcessPool as exc:
        if degraded is not None:
            degraded.append(
                DegradedResult(
                    "worker.task",
                    "process-pool",
                    "serialized",
                    f"process pool broke ({exc}); rebuilding batch in-process",
                )
            )
        return None
    except (OSError, pickle.PicklingError):
        return None
    finally:
        if handle is not None:
            shm.release(handle.segment)
    snapshots = [
        shm.decode_snapshot(payload) if tag == "shm" else payload
        for tag, payload in results
    ]
    if cost_cache is not None:
        # Future builds against this catalog version rehydrate for free.
        config_fp = cost_cache.fingerprint(config)
        for query, snapshot in zip(workload, snapshots):
            cost_cache.inum_snapshot(
                catalog, config_fp, query.sql, max_combinations,
                lambda snap=snapshot: snap,
            )
    models: dict[str, InumModel] = {}
    for name, snapshot in zip(names, snapshots):
        models[name] = InumModel.from_snapshot(
            catalog,
            bound[name],
            config,
            snapshot=snapshot,
            max_combinations=max_combinations,
            cost_cache=cost_cache,
        )
    return models


def _snapshot_worker(
    payload: tuple[Catalog, str, PlannerConfig, int]
) -> tuple[str, InumSnapshot]:
    """Process-pool entry point: build one model, return its snapshot."""
    catalog, sql, config, max_combinations = payload
    query = bind(catalog, parse_select(sql))
    model = InumModel(catalog, query, config, max_combinations=max_combinations)
    return ("pickle", model.snapshot())


def _shm_snapshot_worker(
    payload: tuple["shm.BroadcastHandle", str, int]
) -> tuple[str, object]:
    """Shared-memory process-pool entry point.

    Reads (catalog, config) from the broadcast segment (attached and
    unpickled once per worker process), builds the model, and hands the
    snapshot back as a segment when the codec accepts it — otherwise
    tags it for the plain pickle path.
    """
    handle, sql, max_combinations = payload
    catalog, config = shm.read_broadcast(handle)
    query = bind(catalog, parse_select(sql))
    model = InumModel(catalog, query, config, max_combinations=max_combinations)
    snapshot = model.snapshot()
    encoded = shm.encode_snapshot(snapshot)
    if encoded is not None:
        return ("shm", encoded)
    return ("pickle", snapshot)
