"""The evaluation support package: caches, invalidation, model builds.

The contract under test: the shared caches / incremental invalidation
only change timings and counters, never outcomes — same index sets,
same costs, same per-query benefits.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.catalog.schema import Index
from repro.core.parinda import Parinda
from repro.errors import ReproError
from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import InumModel
from repro.parallel import CostCache, build_inum_models
from repro.whatif.session import WhatIfSession
from repro.workloads.workload import Query, Workload
from repro.workloads.sdss import build_sdss_database, sdss_workload

from tests.reference import serving_indexes


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
# Cache counters


# Two queries whose photoobj relation has one signature (same
# restrictions, same columns read) and whose join needs the same orders.
_SHARED = Workload(
    queries=[
        Query(
            name=f"shared_{i}",
            sql="SELECT p.objid, s.z FROM photoobj p, specobj s "
            "WHERE p.specobjid = s.specobjid AND p.ra < 120" + extra,
        )
        for i, extra in enumerate(("", " AND s.z > 0.1"))
    ],
    name="shared",
)


def test_cost_cache_hits_across_models(sdss_db):
    catalog = sdss_db.catalog
    cache = CostCache()
    models = build_inum_models(catalog, _SHARED, cost_cache=cache)
    assert cache.hits > 0
    # The second model sizes the first's synthetic order indexes.
    assert cache.counters["index_pages"].hits > 0
    # Repeating the same build is almost all hits.
    misses_before = cache.misses
    build_inum_models(catalog, _SHARED, cost_cache=cache)
    assert cache.misses == misses_before  # every key already present
    assert cache.stats()["index_pages"]["hit_rate"] >= 0.5
    # The rebuild was served wholesale from the model section.
    assert cache.counters["inum"].hits > 0
    # Every photoobj access cost the first model computes, the second
    # reads from the cache; unusable indexes never reach it.
    pool = [
        Index("p_ra", "photoobj", ("ra",), hypothetical=True),
        Index("p_spec_ra", "photoobj", ("specobjid", "ra"), hypothetical=True),
        Index("p_dec", "photoobj", ("dec",), hypothetical=True),
    ]
    WorkloadEvaluator(list(models.values()), [1.0, 1.0], pool)
    access = cache.counters["access"]
    assert (access.misses, access.hits) == (1, 1)


_PROBE = Index(
    name="probe", table_name="photoobj", columns=("ra", "dec"), hypothetical=True
)


def _estimates(models):
    return {
        name: (model.estimate(), model.estimate([_PROBE]))
        for name, model in models.items()
    }


def test_inum_cache_returns_the_same_models(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    workload = sdss_wl.subset(8)
    cache = CostCache()
    first = build_inum_models(catalog, workload, cost_cache=cache)
    calls = sum(m.stats.optimizer_calls for m in first.values())
    assert calls > 0
    misses = cache.misses
    second = build_inum_models(catalog, workload, cost_cache=cache)
    # A hit is the model: same objects, nothing rebuilt, nothing re-asked.
    assert list(second) == list(first)
    assert all(second[name] is first[name] for name in first)
    assert cache.counters["inum"].hits == len(second)
    assert cache.misses == misses
    assert sum(m.stats.optimizer_calls for m in second.values()) == calls
    expected = _estimates(first)

    # DDL bumps the catalog version: the old models can never be served
    # again, and the new ones price bit-identically (a real index is
    # hidden from INUM, so the estimates are those of the first build).
    catalog.add_index(Index(name="tmp_inum", table_name="specobj", columns=("z",)))
    try:
        rebuilt = build_inum_models(catalog, workload, cost_cache=cache)
        assert all(rebuilt[name] is not first[name] for name in first)
        assert cache.counters["inum"].misses == 2 * len(first)
        assert _estimates(rebuilt) == expected
    finally:
        catalog.drop_index("tmp_inum")


def test_inum_cache_eviction_rebuilds_identically(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    workload = sdss_wl.subset(4)
    cache = CostCache(max_entries=1)
    first = build_inum_models(catalog, workload, cost_cache=cache)
    expected = _estimates(first)
    second = build_inum_models(catalog, workload, cost_cache=cache)
    # One slot, four queries: each model was evicted before its turn
    # came round again.
    assert cache.counters["inum"].evictions > 0
    assert all(second[name] is not first[name] for name in first)
    assert _estimates(second) == expected
    assert _estimates(build_inum_models(catalog, workload)) == expected


def test_cached_models_do_not_keep_their_cache_alive(sdss_db, sdss_wl):
    """The cache stores the models; a model that stored the cache back
    would make every per-call CostCache cyclic garbage (peak RSS of a
    long-lived fleet process is where that shows)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cache = CostCache()
        models = build_inum_models(
            sdss_db.catalog, sdss_wl.subset(4), cost_cache=cache
        )
        assert cache.section_size("inum") == len(models) > 0
        cache_ref = weakref.ref(cache)
        model_ref = weakref.ref(next(iter(models.values())))
        del cache, models
        # Freed by refcount alone — the collector is off.
        assert cache_ref() is None
        assert model_ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_advisor_result_surfaces_counters(sdss_db, sdss_wl):
    result = IlpIndexAdvisor(sdss_db.catalog).recommend(
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

    # Replanned: exactly the queries the new index gives a path, which
    # is fewer than the ones that merely reference specobj.
    before = {q.name: serving_indexes(session, q.sql) for q in sdss_wl}
    session.add_index("specobj", ("z",))
    for query in sdss_wl:
        session.cost(query.sql)
    replans = session.plan_cache_misses - first_misses
    served = sum(
        1 for q in sdss_wl if serving_indexes(session, q.sql) != before[q.name]
    )
    affected = sum(1 for q in sdss_wl if "specobj" in q.sql)
    assert 0 < served < affected < len(list(sdss_wl))
    assert replans == served


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


def test_parinda_plan_costs_follow_the_sql_not_the_name():
    """A name reused for another statement is priced afresh, by
    ``workload_cost`` and by ``apply_design``'s validation alike."""
    db = build_sdss_database(photo_rows=1000)
    survey = sdss_workload()
    first = Workload(name="a", queries=[Query("q", survey.queries[0].sql)])
    second = Workload(name="b", queries=[Query("q", survey.queries[5].sql)])
    expected = Parinda(db).workload_cost(second)
    parinda = Parinda(db)
    assert parinda.workload_cost(first) != expected
    assert parinda.workload_cost(second) == expected
    parinda = Parinda(db)
    parinda.workload_cost(first)
    report = parinda.apply_design([], workload=second, validate=True)
    assert [entry.materialized for entry in report.validation] == [expected]


# ----------------------------------------------------------------------
# Bounded-cache behavior


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
