"""Shared-memory transport for process-pool payloads.

The process-pool build path used to pickle the full catalog into every
task and pull every :class:`~repro.inum.model.InumSnapshot` back
through the executor's result pipe. Both copies are pure overhead on a
single machine: the catalog is identical across tasks, and a
snapshot's bulk is numeric plan data that can live in a
``multiprocessing.shared_memory`` segment the parent maps directly.

Two transports live here:

``broadcast`` / ``read_broadcast``
    The parent pickles shared immutable state — (catalog, planner
    config) — into ONE segment; workers attach and unpickle once per
    process (cached), so per-task payloads shrink to (handle, sql,
    max_combinations).

``encode_snapshot`` / ``decode_snapshot``
    A worker writes a snapshot's float payload (per-entry internal
    costs, loop counts) as raw ``float64``/``int64`` numpy buffers plus
    a pickled skeleton (order vectors, aliases, plans) into a segment,
    and returns only a small picklable :class:`ShmSnapshotHandle`
    through the pool. The parent reconstructs the snapshot — float64
    buffers round-trip bit-exactly, so rehydrated models estimate
    bit-identically — and unlinks the segment immediately.

Fallback ladder: every entry point returns ``None`` instead of raising
when the transport cannot be used (unpicklable payload, shared memory
unavailable, malformed segment), and callers fall back to the plain
pickle path. Correctness never depends
on shared memory; only copy count does.

Lifecycle: segments owned by this process are tracked in a registry so
:meth:`~repro.parallel.engine.EvaluationEngine.close` (and tests) can
assert nothing leaks — see :func:`active_segment_count` /
:func:`release_all`. Every create/attach immediately unregisters the
segment from ``multiprocessing.resource_tracker``: with pool workers
attaching segments they did not create, the tracker would otherwise
double-book names and destroy segments still in use (or warn at exit);
ownership here is explicit — the parent unlinks, always.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.inum.model import CacheEntry, InumSnapshot

# Segments this process is responsible for unlinking, by name.
_ACTIVE: dict[str, shared_memory.SharedMemory] = {}
# Worker-side cache: broadcast segment name → decoded object. One
# attach+unpickle per worker process, not per task.
_BROADCAST_CACHE: dict[str, Any] = {}


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Drop ``segment`` from the resource tracker's books.

    Called only on the side that will NOT unlink the segment (workers
    creating result segments, workers attaching broadcasts): attach and
    create both register with the tracker, and a registration with no
    matching ``unlink()`` makes the tracker destroy — or complain
    about — segments another process still owns. The owning side never
    untracks; its ``unlink()`` balances its own registration.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def active_segment_count() -> int:
    """Segments this process currently owns (the leak-check probe)."""
    return len(_ACTIVE)


def release(name: str) -> None:
    """Close and unlink one owned segment; idempotent."""
    segment = _ACTIVE.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        # Already gone; balance the registration unlink() never reached.
        _untrack(segment)
    except Exception:
        pass


def release_all() -> None:
    """Unlink every segment owned by this process."""
    for name in list(_ACTIVE):
        release(name)


# ----------------------------------------------------------------------
# Broadcast: shared immutable state, pickled once


@dataclass(frozen=True)
class BroadcastHandle:
    """Picklable pointer to a broadcast segment."""

    segment: str
    size: int


def broadcast(obj: Any) -> BroadcastHandle | None:
    """Publish ``obj`` in one shared segment (parent side).

    The segment stays owned by this process until :func:`release` /
    :func:`release_all`. Returns ``None`` when ``obj`` cannot be
    pickled/placed — callers then ship ``obj`` the ordinary way.
    """
    try:
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        segment = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
    except Exception:
        return None
    # This process owns the segment: its eventual unlink() balances the
    # registration, so no untracking here.
    _ACTIVE[segment.name] = segment
    segment.buf[: len(blob)] = blob
    return BroadcastHandle(segment=segment.name, size=len(blob))


def read_broadcast(handle: BroadcastHandle) -> Any:
    """Attach, unpickle, and per-process-cache a broadcast (worker side)."""
    cached = _BROADCAST_CACHE.get(handle.segment)
    if cached is not None:
        return cached
    segment = shared_memory.SharedMemory(name=handle.segment)
    # Tracker bookkeeping is start-method-dependent: forked workers
    # share the parent's tracker, where the cache is a *set* — the
    # attach re-added the same name the parent registered at create, so
    # untracking here would cancel the parent's registration and its
    # unlink would misfire. Spawned workers run their own tracker and
    # must untrack, or that tracker unlinks the parent's segment on
    # worker exit.
    import multiprocessing

    if multiprocessing.get_start_method(allow_none=True) != "fork":
        _untrack(segment)
    try:
        obj = pickle.loads(bytes(segment.buf[: handle.size]))
    finally:
        segment.close()
    _BROADCAST_CACHE[handle.segment] = obj
    return obj


# ----------------------------------------------------------------------
# Snapshot transport: numpy buffers + pickled skeleton


@dataclass(frozen=True)
class ShmSnapshotHandle:
    """Small picklable header for one snapshot segment.

    The segment layout is ``internal float64[n_entries] · loop counts
    int64[n_entries] · loop values float64[n_loops] · pickled skeleton
    bytes[blob_size]``, in that order, unpadded (every region before
    the blob is 8-byte-sized).
    """

    segment: str
    n_entries: int
    n_loops: int
    blob_size: int
    optimizer_calls: int
    combinations_truncated: int


def encode_snapshot(snapshot: InumSnapshot) -> ShmSnapshotHandle | None:
    """Write ``snapshot`` into a fresh segment (worker side).

    Returns ``None`` — fall back to pickling the snapshot itself —
    when the skeleton does not pickle or shared memory cannot be
    allocated.
    """
    try:
        entries = snapshot.entries
        skeleton = [
            (
                entry.order_vector,
                entry.nestloop_enabled,
                tuple(alias for alias, _value in entry.loops),
                entry.plan,
            )
            for entry in entries
        ]
        blob = pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL)
        internal = np.array(
            [entry.internal_cost for entry in entries], dtype=np.float64
        )
        counts = np.array([len(entry.loops) for entry in entries], dtype=np.int64)
        values = np.array(
            [value for entry in entries for _alias, value in entry.loops],
            dtype=np.float64,
        )
        size = internal.nbytes + counts.nbytes + values.nbytes + len(blob)
        segment = shared_memory.SharedMemory(create=True, size=max(1, size))
    except Exception:
        return None
    _untrack(segment)
    try:
        offset = 0
        for array in (internal, counts, values):
            segment.buf[offset : offset + array.nbytes] = array.tobytes()
            offset += array.nbytes
        segment.buf[offset : offset + len(blob)] = blob
        handle = ShmSnapshotHandle(
            segment=segment.name,
            n_entries=len(entries),
            n_loops=int(values.shape[0]),
            blob_size=len(blob),
            optimizer_calls=snapshot.optimizer_calls,
            combinations_truncated=snapshot.combinations_truncated,
        )
    except Exception:
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass
        return None
    # The worker drops its mapping; the segment survives for the
    # parent, which decodes and unlinks it.
    segment.close()
    return handle


def decode_snapshot(handle: ShmSnapshotHandle) -> InumSnapshot:
    """Rebuild a snapshot from its segment and unlink it (parent side).

    Float payloads come back through ``float64`` buffers, so every
    ``internal_cost`` and loop count is bit-identical to what the
    worker computed.
    """
    segment = shared_memory.SharedMemory(name=handle.segment)
    # Attaching registered the name; the release() below unlinks and
    # thereby unregisters, so the books stay balanced without untracking.
    _ACTIVE[segment.name] = segment
    try:
        n, l = handle.n_entries, handle.n_loops
        offset = 0
        internal = np.frombuffer(
            bytes(segment.buf[offset : offset + 8 * n]), dtype=np.float64
        )
        offset += 8 * n
        counts = np.frombuffer(
            bytes(segment.buf[offset : offset + 8 * n]), dtype=np.int64
        )
        offset += 8 * n
        values = np.frombuffer(
            bytes(segment.buf[offset : offset + 8 * l]), dtype=np.float64
        )
        offset += 8 * l
        skeleton = pickle.loads(
            bytes(segment.buf[offset : offset + handle.blob_size])
        )
    finally:
        release(segment.name)

    entries = []
    cursor = 0
    value_list = values.tolist()
    internal_list = internal.tolist()
    for i, (order_vector, nestloop, aliases, plan) in enumerate(skeleton):
        width = int(counts[i])
        loop_values = value_list[cursor : cursor + width]
        cursor += width
        entries.append(
            CacheEntry(
                order_vector=order_vector,
                nestloop_enabled=nestloop,
                internal_cost=internal_list[i],
                loops=tuple(zip(aliases, loop_values)),
                plan=plan,
            )
        )
    return InumSnapshot(
        entries=tuple(entries),
        optimizer_calls=handle.optimizer_calls,
        combinations_truncated=handle.combinations_truncated,
    )
