"""E4 — "Simulating the structures makes the operations orders of
magnitude faster" (§1).

Compares the wall-clock time to *simulate* an index (statistics only,
Equation 1) against the time to *materialize* it (sort all rows and
pack B-Tree leaves), across table scales. The paper's claim is an
orders-of-magnitude gap that widens with data size — simulation is O(1)
in rows, building is O(N log N). The build is one columnar sort, so at
the smallest scale the gap is about one order of magnitude; every scale
is reported, and the orders-of-magnitude bound is held at the largest.
"""

from __future__ import annotations

import time

from repro.bench.reporting import ResultTable
from repro.catalog.schema import Index
from repro.whatif.session import WhatIfSession
from repro.workloads.sdss import build_sdss_database

SCALES = (2000, 8000, 32000)
INDEX_COLUMNS = ("ra", "dec", "psfmag_r")


def test_e4_simulate_vs_materialize(benchmark):
    measurements = []

    def run_all():
        for rows in SCALES:
            db = build_sdss_database(photo_rows=rows, seed=1)

            session = WhatIfSession(db.catalog)
            start = time.perf_counter()
            session.add_index("photoobj", INDEX_COLUMNS)
            simulate_seconds = time.perf_counter() - start

            index = Index("e4_real", "photoobj", INDEX_COLUMNS)
            _btree, build_seconds = db.timed_create_index(index)
            measurements.append((rows, simulate_seconds, build_seconds))
        return measurements

    benchmark.pedantic(run_all, iterations=1, rounds=1)

    table = ResultTable(
        "E4: what-if simulation vs. real index build",
        ["photoobj rows", "simulate (ms)", "materialize (ms)", "ratio"],
    )
    for rows, sim, build in measurements:
        ratio = build / sim if sim > 0 else float("inf")
        table.add_row(rows, sim * 1000, build * 1000, f"{ratio:.0f}x")
    table.emit()

    # The gap grows with rows and is orders of magnitude at the largest.
    ratios = [build / sim for _r, sim, build in measurements]
    assert ratios[-1] > ratios[0], "the gap must widen with table size"
    assert ratios[-1] > 100, "simulation must be >>100x faster at scale"
