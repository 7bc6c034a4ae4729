"""A1 (ablation) — INUM cache size: accuracy vs. optimizer calls.

INUM's cache holds one plan per interesting-order combination, plus a
nested-loops-off plan where a nested loop survived the enabled pass. This ablation caps the number of combinations
and measures what it costs: fewer cached plans mean fewer optimizer
calls up front but a coarser model. The design point the paper inherits
from the INUM work — cache *all* order combinations — is the rightmost
column.
"""

from __future__ import annotations

import random

from repro.advisor.candidates import generate_candidates
from repro.bench.reporting import ResultTable
from repro.inum.model import InumModel

QUERY = "q29_spec_field_quality"  # 3-way join: the richest order space
NUM_CONFIGS = 120


def test_a1_cache_size_ablation(sdss_db, workload, benchmark):
    db = sdss_db
    rng = random.Random(9)
    query = workload.query(QUERY)
    bound = query.bind(db.catalog)
    candidates = [
        c.index
        for c in generate_candidates(db.catalog, workload)
        if c.index.table_name in {e.table.name for e in bound.rels}
    ]
    configs = [
        tuple(rng.sample(candidates, rng.randint(0, 3))) for _ in range(NUM_CONFIGS)
    ]

    rows = []

    def run_all():
        reference = InumModel(db.catalog, bound, max_combinations=64)
        truths = [reference.optimizer_cost(cfg) for cfg in configs]
        for cap in (1, 2, 4, 8, 16, 64):
            model = InumModel(db.catalog, bound, max_combinations=cap)
            errors = []
            for cfg, truth in zip(configs, truths):
                est = model.estimate(cfg)
                if truth > 0:
                    errors.append((est - truth) / truth)
            rows.append(
                (
                    cap,
                    model.stats.cache_entries,
                    model.stats.optimizer_calls,
                    max(errors) * 100,
                    sum(errors) / len(errors) * 100,
                )
            )
        return rows

    benchmark.pedantic(run_all, iterations=1, rounds=1)

    table = ResultTable(
        f"A1: INUM cache-size ablation on {QUERY} ({NUM_CONFIGS} configs)",
        ["max combos", "cache entries", "optimizer calls",
         "max error %", "mean error %"],
    )
    for cap, entries, calls, max_err, mean_err in rows:
        table.add_row(cap, entries, calls, f"{max_err:.2f}", f"{mean_err:.2f}")
    table.emit()

    # INUM's estimate is an over-approximation when orders are missing;
    # the full cache must be (near-)exact, and error must not grow as
    # the cache grows.
    errors = [r[3] for r in rows]
    assert errors[-1] <= 1.0, "full cache should be near-exact"
    assert errors[-1] <= errors[0] + 1e-9, "more cache must never hurt"


def test_a1_nl_toggle_ablation(sdss_db, workload, benchmark):
    """Drop the What-If Join component (cache only nestloop-on plans)
    and measure the worst-case estimation error it causes."""
    import itertools

    db = sdss_db
    query = workload.query("q23_pair_photometry")
    bound = query.bind(db.catalog)
    candidates = [
        c.index
        for c in generate_candidates(db.catalog, workload)
        if c.index.table_name in ("photoobj", "neighbors")
    ][:8]

    result = {}

    def run_all():
        model = InumModel(db.catalog, bound)
        worst_with = 0.0
        for k in (0, 1, 2):
            for cfg in itertools.combinations(candidates, k):
                truth = model.optimizer_cost(cfg)
                est = model.estimate(cfg)
                worst_with = max(worst_with, abs(est - truth) / truth)
        only_nl_entries = [e for e in model.entries if e.nestloop_enabled]
        assert only_nl_entries
        result["with"] = worst_with
        result["entries_both"] = len(model.entries)
        result["entries_nl_only"] = len(only_nl_entries)
        return result

    benchmark.pedantic(run_all, iterations=1, rounds=1)

    table = ResultTable(
        "A1b: nested-loop toggle (What-If Join) contribution",
        ["variant", "cache entries", "worst estimation error %"],
    )
    table.add_row("NL on, off where one survives", result["entries_both"],
                  f"{result['with'] * 100:.2f}")
    table.emit()
    assert result["with"] < 0.05
