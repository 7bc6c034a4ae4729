"""E5 — INUM: "costs of millions of physical designs in the order of
minutes instead of days" (§3.4).

Two series: (a) throughput — configurations priced per second by INUM
(one ``estimate_batch`` call over all of them, the way the advisors
price) vs. by full re-optimization, plus the projected time for one
million evaluations; (b) accuracy — INUM's estimate vs. the optimizer's answer
over random configurations (INUM's guarantee is a close upper
approximation; in this substrate it is near-exact).
"""

from __future__ import annotations

import random
import time

from repro.advisor.candidates import generate_candidates
from repro.bench.reporting import ResultTable
from repro.inum.model import InumModel

NUM_CONFIGS = 300


def _random_configs(candidates, rng, count):
    configs = []
    for _ in range(count):
        k = rng.randint(0, min(4, len(candidates)))
        configs.append(tuple(c.index for c in rng.sample(candidates, k)))
    return configs


def test_e5_inum_throughput_and_accuracy(sdss_db, workload, benchmark):
    db = sdss_db
    rng = random.Random(5)
    candidates = generate_candidates(db.catalog, workload)
    queries = [workload.query(n) for n in
               ("q01_box_search", "q15_spec_redshift_join", "q26_field_objects")]

    results = {}

    def run_all():
        for query in queries:
            bound = query.bind(db.catalog)
            build_start = time.perf_counter()
            model = InumModel(db.catalog, bound)
            build_seconds = time.perf_counter() - build_start

            relevant = [c for c in candidates if any(
                c.index.table_name == e.table.name for e in bound.rels)]
            configs = _random_configs(relevant, rng, NUM_CONFIGS)

            start = time.perf_counter()
            estimates = model.estimate_batch(configs)
            inum_seconds = time.perf_counter() - start

            start = time.perf_counter()
            truths = [model.optimizer_cost(cfg) for cfg in configs[:40]]
            optimizer_seconds = (time.perf_counter() - start) / 40 * NUM_CONFIGS

            errors = [
                abs(est - truth) / truth
                for est, truth in zip(estimates[:40], truths)
                if truth > 0
            ]
            results[query.name] = (
                model, build_seconds, inum_seconds, optimizer_seconds, errors
            )
        return results

    benchmark.pedantic(run_all, iterations=1, rounds=1)

    table = ResultTable(
        "E5: INUM vs. full optimization (300 configurations per query)",
        ["query", "cache entries", "optimizer calls", "INUM (ms)",
         "optimizer (ms)", "speedup", "1M configs (INUM)", "1M configs (opt)",
         "max error %"],
    )
    for name, (model, build_s, inum_s, opt_s, errors) in results.items():
        speedup = opt_s / inum_s if inum_s > 0 else float("inf")
        per_config_inum = inum_s / NUM_CONFIGS
        per_config_opt = opt_s / NUM_CONFIGS
        table.add_row(
            name,
            model.stats.cache_entries,
            model.stats.optimizer_calls,
            inum_s * 1000,
            opt_s * 1000,
            f"{speedup:.0f}x",
            _human_time(per_config_inum * 1e6),
            _human_time(per_config_opt * 1e6),
            f"{max(errors) * 100:.2f}",
        )
    table.emit()

    for name, (_m, _b, inum_s, opt_s, errors) in results.items():
        assert opt_s / inum_s > 10, f"INUM must be >10x faster on {name}"
        assert max(errors) < 0.05, f"INUM error must stay under 5% on {name}"


def _human_time(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}min"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"
