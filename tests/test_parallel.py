"""The parallel evaluation engine: determinism, caches, invalidation.

The contract under test: ``workers=N`` produces bit-identical results
to the serial ``workers=1`` path — same index sets, same costs, same
per-query benefits — and the shared caches / incremental invalidation
only change timings and counters, never outcomes.
"""

from __future__ import annotations

import pytest

from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.baselines.greedy import GreedyIndexAdvisor
from repro.catalog.schema import Index
from repro.core.parinda import Parinda
from repro.errors import ReproError
from repro.inum.model import InumModel
from repro.parallel import (
    BackgroundWorker,
    CostCache,
    EvaluationEngine,
    build_inum_models,
)
from repro.whatif.session import WhatIfSession
from repro.workloads.sdss import build_sdss_database, sdss_workload


@pytest.fixture(scope="module")
def sdss_db():
    return build_sdss_database(photo_rows=3000, seed=11)


@pytest.fixture(scope="module")
def sdss_wl():
    return sdss_workload()


def _result_signature(result):
    return (
        [(ix.table_name, ix.columns) for ix in result.indexes],
        result.cost_before,
        result.cost_after,
        [(q.name, q.cost_before, q.cost_after, q.indexes_used)
         for q in result.per_query],
    )


# ----------------------------------------------------------------------
# Determinism: workers=N is bit-identical to workers=1


def test_ilp_advisor_parallel_identical_sdss(sdss_db, sdss_wl):
    workload = sdss_wl.subset(8)
    serial = IlpIndexAdvisor(sdss_db.catalog, workers=1).recommend(
        workload, budget_pages=500
    )
    parallel = IlpIndexAdvisor(sdss_db.catalog, workers=4).recommend(
        workload, budget_pages=500
    )
    assert _result_signature(serial) == _result_signature(parallel)


def test_ilp_advisor_parallel_identical_star(star_db, star_wl):
    serial = IlpIndexAdvisor(star_db.catalog, workers=1).recommend(
        star_wl, budget_pages=400
    )
    parallel = IlpIndexAdvisor(star_db.catalog, workers=4).recommend(
        star_wl, budget_pages=400
    )
    assert _result_signature(serial) == _result_signature(parallel)


def test_greedy_advisor_parallel_identical(star_db, star_wl):
    serial = GreedyIndexAdvisor(star_db.catalog, workers=1).recommend(
        star_wl, budget_pages=400
    )
    parallel = GreedyIndexAdvisor(star_db.catalog, workers=4).recommend(
        star_wl, budget_pages=400
    )
    assert _result_signature(serial) == _result_signature(parallel)


def test_parinda_suggest_indexes_workers(sdss_db, sdss_wl):
    workload = sdss_wl.subset(6)
    serial = Parinda(sdss_db).suggest_indexes(
        workload, budget_pages=400, workers=1
    )
    parallel = Parinda(sdss_db).suggest_indexes(
        workload, budget_pages=400, workers=4
    )
    assert _result_signature(serial) == _result_signature(parallel)


def test_build_inum_models_parallel_identical(sdss_db, sdss_wl):
    workload = sdss_wl.subset(10)
    catalog = sdss_db.catalog
    serial = build_inum_models(catalog, workload, workers=1)
    parallel = build_inum_models(
        catalog, workload, workers=4, cost_cache=CostCache()
    )
    probe = Index(
        name="probe", table_name="photoobj", columns=("ra", "dec"),
        hypothetical=True,
    )
    assert list(serial) == list(parallel)  # same queries, same order
    for name in serial:
        assert serial[name].base_cost == parallel[name].base_cost
        assert serial[name].estimate([probe]) == parallel[name].estimate([probe])
        assert len(serial[name].entries) == len(parallel[name].entries)


def test_snapshot_roundtrip(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    query = sdss_wl.query("q01_box_search").bind(catalog)
    model = InumModel(catalog, query)
    clone = InumModel.from_snapshot(catalog, query, snapshot=model.snapshot())
    probe = Index(
        name="probe", table_name="photoobj", columns=("ra",), hypothetical=True
    )
    assert clone.base_cost == model.base_cost
    assert clone.estimate([probe]) == model.estimate([probe])
    assert clone.stats.optimizer_calls == model.stats.optimizer_calls


def test_engine_rejects_unknown_mode():
    with pytest.raises(ReproError):
        EvaluationEngine(workers=2, mode="fibers")


def test_engine_map_preserves_order():
    engine = EvaluationEngine(workers=4, mode="thread")
    assert engine.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]


# ----------------------------------------------------------------------
# Cache counters


def test_estimate_memo_hits_increase(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    query = sdss_wl.query("q01_box_search").bind(catalog)
    model = InumModel(catalog, query)
    probe = Index(
        name="probe", table_name="photoobj", columns=("ra",), hypothetical=True
    )
    first = model.estimate([probe])
    hits_before = model.stats.estimate_cache_hits
    second = model.estimate([probe])
    third = model.estimate([probe])
    assert first == second == third
    assert model.stats.estimate_cache_hits >= hits_before + 2
    assert model.stats.estimates_served >= 3


def test_cost_cache_hits_across_models(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    cache = CostCache()
    build_inum_models(catalog, sdss_wl.subset(8), cost_cache=cache)
    assert cache.hits > 0
    counters = cache.counters
    assert counters["index_pages"].hits > 0
    # Repeating the same build is almost all hits.
    misses_before = cache.misses
    build_inum_models(catalog, sdss_wl.subset(8), cost_cache=cache)
    assert cache.misses == misses_before  # every key already present
    assert cache.stats()["index_pages"]["hit_rate"] >= 0.5
    # The rebuild was served wholesale from the snapshot section.
    assert cache.counters["inum"].hits > 0


def test_inum_snapshot_cache_rehydrates(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    cache = CostCache()
    probe = Index(
        name="probe", table_name="photoobj", columns=("ra", "dec"),
        hypothetical=True,
    )
    first = build_inum_models(catalog, sdss_wl.subset(8), cost_cache=cache)
    calls_before = sum(m.stats.optimizer_calls for m in first.values())
    assert calls_before > 0
    second = build_inum_models(catalog, sdss_wl.subset(8), cost_cache=cache)
    # Rehydrated from the shared snapshot section: the plan caches were
    # not rebuilt, yet estimates are bit-identical.
    assert cache.counters["inum"].hits == len(second)
    for name, model in second.items():
        assert model.estimate() == first[name].estimate()
        assert model.estimate([probe]) == first[name].estimate([probe])


def test_advisor_result_surfaces_counters(sdss_db, sdss_wl):
    result = IlpIndexAdvisor(sdss_db.catalog, workers=2).recommend(
        sdss_wl.subset(6), budget_pages=400
    )
    assert result.cache_hits > 0
    assert result.cache_misses > 0
    assert set(result.cache_stats) == {
        "index_pages", "seq_cost", "access", "bind", "inum"
    }
    assert result.combinations_truncated == 0


def test_combinations_truncated_surfaced(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    # A join query's order-combination product exceeds a cap of 2.
    query = sdss_wl.query("q15_spec_redshift_join")
    model = InumModel(catalog, query.bind(catalog), max_combinations=2)
    assert model.stats.combinations_truncated > 0
    assert len(model.entries) <= 4


def test_catalog_version_invalidates_cache(sdss_db):
    catalog = sdss_db.catalog
    key_before = catalog.cache_key
    index = Index(
        name="tmp_ver", table_name="specobj", columns=("z",), hypothetical=False
    )
    catalog.add_index(index)
    try:
        assert catalog.cache_key != key_before
    finally:
        catalog.drop_index("tmp_ver")
    assert catalog.cache_key != key_before  # drops bump too


# ----------------------------------------------------------------------
# Incremental what-if invalidation


def test_whatif_plan_cache_targeted_invalidation(sdss_db, sdss_wl):
    session = WhatIfSession(sdss_db.catalog)
    for query in sdss_wl:
        session.cost(query.sql)
    first_misses = session.plan_cache_misses
    # Second pass: all hits.
    for query in sdss_wl:
        session.cost(query.sql)
    assert session.plan_cache_misses == first_misses

    session.add_index("specobj", ("z",))
    for query in sdss_wl:
        session.cost(query.sql)
    replans = session.plan_cache_misses - first_misses
    affected = sum(1 for q in sdss_wl if "specobj" in q.sql)
    assert 0 < affected < len(list(sdss_wl))
    assert replans == affected


def test_whatif_drop_and_flags_invalidate(sdss_db, sdss_wl):
    session = WhatIfSession(sdss_db.catalog)
    sql = sdss_wl.query("q15_spec_redshift_join").sql
    base = session.cost(sql)
    index = session.add_index("specobj", ("z",))
    with_index = session.cost(sql)
    session.drop_index(index.name)
    assert session.cost(sql) == base  # replanned, back to baseline
    session.add_index("specobj", ("z",))
    assert session.cost(sql) == with_index
    misses = session.plan_cache_misses
    session.set_join_flags(enable_nestloop=False)
    session.cost(sql)
    assert session.plan_cache_misses == misses + 1  # flags epoch bump


def test_parinda_workload_cost_cached(sdss_db, sdss_wl):
    parinda = Parinda(sdss_db)
    workload = sdss_wl.subset(6)
    first = parinda.workload_cost(workload)
    assert parinda.workload_cost(workload) == first
    # A real catalog change invalidates exactly via the version key.
    sdss_db.create_index(
        Index(name="tmp_wc", table_name="specobj", columns=("z",))
    )
    try:
        changed = parinda.workload_cost(workload)
        assert changed <= first  # an extra index never hurts plan cost
    finally:
        sdss_db.drop_index("tmp_wc")
    assert parinda.workload_cost(workload) == first


# ----------------------------------------------------------------------
# Forced parallel mode (CI knob) and bounded-cache behavior


def test_env_var_overrides_auto_mode(monkeypatch):
    engine = EvaluationEngine(workers=4, mode="auto")
    for forced in ("serial", "thread", "process"):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", forced)
        assert engine.resolve_mode() == forced
    monkeypatch.setenv("REPRO_PARALLEL_MODE", "bogus")
    assert engine.resolve_mode() in ("serial", "thread", "process")
    # An explicit mode always wins over the environment.
    monkeypatch.setenv("REPRO_PARALLEL_MODE", "serial")
    assert EvaluationEngine(workers=4, mode="thread").resolve_mode() == "thread"


def test_forced_mode_keeps_recommendations_identical(
    monkeypatch, sdss_db, sdss_wl
):
    workload = sdss_wl.subset(4)
    baseline = IlpIndexAdvisor(sdss_db.catalog, workers=1).recommend(
        workload, budget_pages=300
    )
    for forced in ("serial", "thread", "process"):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", forced)
        result = IlpIndexAdvisor(
            sdss_db.catalog, workers=2, parallel_mode="auto"
        ).recommend(workload, budget_pages=300)
        assert _result_signature(result) == _result_signature(baseline)


def test_cost_cache_bound_lru_eviction():
    cache = CostCache(max_entries=3)
    for i in range(5):
        cache.lookup("access", i, lambda i=i: i * 10)
    stats = cache.stats()["access"]
    assert stats["size"] == 3
    assert stats["peak_size"] == 3
    assert stats["evictions"] == 2
    # Oldest entries were evicted; recent ones survive.
    assert cache.lookup("access", 4, lambda: -1) == 40
    assert cache.lookup("access", 0, lambda: -1) == -1  # recomputed


def test_cost_cache_lru_refresh_on_hit():
    cache = CostCache(max_entries=2)
    cache.lookup("access", "a", lambda: 1)
    cache.lookup("access", "b", lambda: 2)
    cache.lookup("access", "a", lambda: -1)  # refresh "a"
    cache.lookup("access", "c", lambda: 3)  # evicts "b", not "a"
    assert cache.lookup("access", "a", lambda: -1) == 1
    assert cache.lookup("access", "b", lambda: -2) == -2


def test_cost_cache_evicts_stale_catalog_first():
    cache = CostCache(max_entries={"access": 3})
    cache.lookup("access", "old1", lambda: 1, catalog_key="v1")
    cache.lookup("access", "new1", lambda: 2, catalog_key="v2")
    cache.lookup("access", "new2", lambda: 3, catalog_key="v2")
    # "new1" is the LRU head, but "old1" belongs to a stale catalog
    # version: it must be the victim.
    cache.lookup("access", "new3", lambda: 4, catalog_key="v2")
    assert cache.lookup("access", "new1", lambda: -1, catalog_key="v2") == 2
    assert cache.lookup("access", "old1", lambda: -1, catalog_key="v2") == -1


def test_cost_cache_per_section_bounds():
    cache = CostCache(max_entries={"access": 2})
    for i in range(6):
        cache.lookup("access", i, lambda i=i: i)
        cache.lookup("seq_cost", i, lambda i=i: i)  # unbounded section
    assert cache.section_size("access") == 2
    assert cache.section_size("seq_cost") == 6
    assert cache.evictions == 4


def test_cost_cache_rejects_bad_bounds():
    with pytest.raises(ReproError):
        CostCache(max_entries=0)
    with pytest.raises(ReproError):
        CostCache(max_entries={"no_such_section": 5})


def test_bounded_cache_advisor_identical(sdss_db, sdss_wl):
    workload = sdss_wl.subset(4)
    unbounded = IlpIndexAdvisor(
        sdss_db.catalog, cost_cache=CostCache()
    ).recommend(workload, budget_pages=300)
    tight = CostCache(max_entries=8)
    bounded = IlpIndexAdvisor(sdss_db.catalog, cost_cache=tight).recommend(
        workload, budget_pages=300
    )
    assert _result_signature(bounded) == _result_signature(unbounded)
    stats = tight.stats()
    assert all(entry["peak_size"] <= 8 for entry in stats.values())
    assert sum(entry["evictions"] for entry in stats.values()) > 0


# ----------------------------------------------------------------------
# BackgroundWorker: the online tuner's non-blocking hand-off


class TestBackgroundWorker:
    def test_processes_in_submission_order(self):
        seen = []
        worker = BackgroundWorker(seen.append, max_pending=64)
        assert all(worker.submit(i) for i in range(20))
        worker.drain()
        assert seen == list(range(20))
        assert worker.evicted == 0
        assert worker.pending == 0
        worker.close()

    def test_overflow_evicts_the_oldest_pending_item(self):
        import threading

        started, release = threading.Event(), threading.Event()
        seen = []

        def handler(item):
            if item == "a":
                started.set()
                assert release.wait(5)
            seen.append(item)

        worker = BackgroundWorker(handler, max_pending=2)
        assert worker.submit("a")
        assert started.wait(5)  # "a" is in flight, not evictable
        assert worker.submit("b")
        assert worker.submit("c")
        assert not worker.submit("d")  # full: "b" (oldest) coalesced away
        assert worker.evicted == 1
        release.set()
        worker.drain()
        assert seen == ["a", "c", "d"]
        worker.close()

    def test_handler_errors_surface_on_the_caller(self):
        def boom(item):
            raise ValueError(f"bad item {item}")

        worker = BackgroundWorker(boom)
        worker.submit(1)
        with pytest.raises(ValueError, match="bad item 1"):
            worker.drain()
        worker.close()  # error already consumed: clean shutdown

    def test_close_is_idempotent_and_final(self):
        seen = []
        worker = BackgroundWorker(seen.append)
        worker.submit(1)
        worker.close()
        worker.close()
        assert seen == [1]  # close drains before stopping
        with pytest.raises(ReproError):
            worker.submit(2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            BackgroundWorker(lambda item: None, max_pending=0)


# ----------------------------------------------------------------------
# Shared-memory snapshot transport


class TestSharedMemoryTransport:
    """The shm fast path: bit-identity, no leaks, graceful fallbacks."""

    def test_broadcast_roundtrip_and_release(self):
        from repro.parallel import shm

        payload = {"rows": list(range(100)), "name": "broadcast"}
        handle = shm.broadcast(payload)
        assert handle is not None
        assert shm.active_segment_count() == 1
        assert shm.read_broadcast(handle) == payload
        shm.release(handle.segment)
        assert shm.active_segment_count() == 0
        shm.release(handle.segment)  # idempotent

    def test_snapshot_codec_bit_identical(self, sdss_db, sdss_wl):
        from repro.parallel import shm

        catalog = sdss_db.catalog
        for name in ("q01_box_search", "q15_spec_redshift_join"):
            query = sdss_wl.query(name).bind(catalog)
            snapshot = InumModel(catalog, query).snapshot()
            handle = shm.encode_snapshot(snapshot)
            assert handle is not None
            decoded = shm.decode_snapshot(handle)
            assert len(decoded.entries) == len(snapshot.entries)
            for ours, theirs in zip(snapshot.entries, decoded.entries):
                assert ours.order_vector == theirs.order_vector
                assert ours.internal_cost == theirs.internal_cost
                assert ours.loops == theirs.loops
                assert ours.nestloop_enabled == theirs.nestloop_enabled
            assert decoded.optimizer_calls == snapshot.optimizer_calls
        assert shm.active_segment_count() == 0

    def test_snapshot_codec_empty_and_odd_shapes(self):
        from repro.inum.model import InumSnapshot
        from repro.parallel import shm

        empty = InumSnapshot(
            entries=(), optimizer_calls=3, combinations_truncated=1
        )
        handle = shm.encode_snapshot(empty)
        assert handle is not None
        decoded = shm.decode_snapshot(handle)
        assert decoded.entries == ()
        assert decoded.optimizer_calls == 3
        assert decoded.combinations_truncated == 1
        assert shm.active_segment_count() == 0

    def test_unpicklable_snapshot_falls_back_to_none(self):
        from repro.inum.model import CacheEntry, InumSnapshot
        from repro.parallel import shm

        class Unpicklable:
            def __reduce__(self):
                raise TypeError("no pickling here")

        snapshot = InumSnapshot(
            entries=(
                CacheEntry(
                    order_vector=(("t", None),),
                    nestloop_enabled=True,
                    internal_cost=1.0,
                    loops=(("t", 1.0),),
                    plan=Unpicklable(),
                ),
            ),
            optimizer_calls=1,
            combinations_truncated=0,
        )
        assert shm.encode_snapshot(snapshot) is None
        assert shm.active_segment_count() == 0

    def test_process_mode_bit_identical_and_leak_free(
        self, sdss_db, sdss_wl, monkeypatch
    ):
        from repro.parallel import shm

        workload = sdss_wl.subset(6)
        serial = IlpIndexAdvisor(sdss_db.catalog, workers=1).recommend(
            workload, budget_pages=500
        )
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "process")
        process = IlpIndexAdvisor(sdss_db.catalog, workers=2).recommend(
            workload, budget_pages=500
        )
        assert _result_signature(serial) == _result_signature(process)
        assert shm.active_segment_count() == 0

    def test_process_mode_with_transport_off_still_identical(
        self, sdss_db, sdss_wl, monkeypatch
    ):
        from repro.inum.model import InumSnapshot
        from repro.parallel import shm

        def unavailable(*args, **kwargs):
            raise OSError("no shared memory on this host")

        # The broadcast segment cannot be created, so the whole batch
        # is handed to the plain-pickle worker.
        monkeypatch.setattr(shm.shared_memory, "SharedMemory", unavailable)
        assert shm.broadcast({"x": 1}) is None
        empty = InumSnapshot(entries=(), optimizer_calls=0, combinations_truncated=0)
        assert shm.encode_snapshot(empty) is None
        workload = sdss_wl.subset(4)
        serial = IlpIndexAdvisor(sdss_db.catalog, workers=1).recommend(
            workload, budget_pages=500
        )
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "process")
        process = IlpIndexAdvisor(sdss_db.catalog, workers=2).recommend(
            workload, budget_pages=500
        )
        assert _result_signature(serial) == _result_signature(process)

    def test_engine_close_releases_segments(self, sdss_db, sdss_wl):
        from repro.parallel import shm

        handle = shm.broadcast({"orphan": True})
        assert handle is not None and shm.active_segment_count() == 1
        with EvaluationEngine(workers=2, mode="thread"):
            models = build_inum_models(
                sdss_db.catalog, sdss_wl.subset(2), workers=2, mode="thread"
            )
            assert len(models) == 2
        # close() swept the orphaned broadcast too.
        assert shm.active_segment_count() == 0
