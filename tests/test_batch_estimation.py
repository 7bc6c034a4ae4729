"""The estimation core: bit-identity with the scalar reference loop.

The contract under test is absolute: every cost the array evaluator
produces — base costs, singleton benefit rows, arbitrary configuration
costs, greedy extension totals, workload sums — must equal the plain
per-entry loop in ``tests/reference.py`` to the last bit
(``struct.pack`` equality, not ``pytest.approx``), and the serving-index
detail must name the same indexes. Everything in ``src/`` prices
through the evaluator only, so these checks are what ties its numbers
to the reference.
"""

from __future__ import annotations

import copy
import random
import struct

import numpy as np
import pytest

from repro.advisor.candidates import generate_candidates
from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.baselines.greedy import GreedyIndexAdvisor
from repro.catalog.sizing import (
    estimate_index_pages,
    estimate_index_pages_batch,
    index_row_width,
    index_row_widths_batch,
)
from repro.inum.batch import WorkloadEvaluator, pool_signature
from repro.inum.model import InumModel
from repro.workloads.sdss import build_sdss_database, sdss_workload
from tests.reference import inum_estimate, inum_estimate_detail


@pytest.fixture(scope="module")
def sdss_db():
    return build_sdss_database(photo_rows=3000, seed=11)


@pytest.fixture(scope="module")
def sdss_wl():
    return sdss_workload()


@pytest.fixture(scope="module")
def compiled(sdss_db, sdss_wl):
    """(workload, models, candidates, evaluator) over an 8-query slice."""
    workload = sdss_wl.subset(8)
    catalog = sdss_db.catalog
    candidates = generate_candidates(catalog, workload)
    models = {
        q.name: InumModel(catalog, q.bind(catalog)) for q in workload
    }
    evaluator = WorkloadEvaluator(
        [models[q.name] for q in workload],
        [q.weight for q in workload],
        [c.index for c in candidates],
    )
    return workload, models, candidates, evaluator


def bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def assert_same_bits(a: float, b: float) -> None:
    assert bits(a) == bits(b), f"{a!r} != {b!r} (bitwise)"


def _scalar_workload_cost(workload, models, candidates, positions):
    config = tuple(candidates[p].index for p in positions)
    expected = 0.0
    for query in workload:
        expected += inum_estimate(models[query.name], config) * query.weight
    return expected


# ----------------------------------------------------------------------
# Property: estimate_batch ≡ looped estimate, bit for bit


def test_estimate_batch_matches_scalar_on_random_configs(compiled):
    workload, models, candidates, _ = compiled
    rng = random.Random(20260808)
    pool = [c.index for c in candidates]
    configs = [
        rng.sample(pool, rng.randint(0, min(5, len(pool))))
        for _ in range(25)
    ]
    for query in workload:
        model = models[query.name]
        batch = model.estimate_batch(configs)
        assert batch.shape == (len(configs),)
        for j, config in enumerate(configs):
            assert_same_bits(batch[j], inum_estimate(model, tuple(config)))


def test_estimate_batch_dedupes_repeated_indexes(compiled):
    workload, models, candidates, _ = compiled
    model = models[next(iter(workload)).name]
    index = candidates[0].index
    doubled = model.estimate_batch([[index, index], [index]])
    assert_same_bits(doubled[0], doubled[1])
    assert_same_bits(doubled[0], inum_estimate(model, (index,)))


def test_evaluator_base_and_singletons_match_scalar(compiled):
    workload, models, candidates, evaluator = compiled
    base = evaluator.base_costs()
    singles = evaluator.singleton_costs()
    assert singles.shape == (len(list(workload)), len(candidates))
    for m, query in enumerate(workload):
        model = models[query.name]
        assert_same_bits(base[m], inum_estimate(model))
        for p, candidate in enumerate(candidates):
            assert_same_bits(
                singles[m, p], inum_estimate(model, (candidate.index,))
            )


def test_evaluator_workload_cost_matches_scalar_sum(compiled):
    workload, models, candidates, evaluator = compiled
    rng = random.Random(7)
    for _ in range(10):
        positions = rng.sample(
            range(len(candidates)), rng.randint(0, min(6, len(candidates)))
        )
        assert_same_bits(
            evaluator.workload_cost(positions),
            _scalar_workload_cost(workload, models, candidates, positions),
        )


def test_evaluator_extension_costs_match_scalar(compiled):
    workload, models, candidates, evaluator = compiled
    current = [0, 3]
    extras = [p for p in range(len(candidates)) if p not in current][:12]
    matrix = evaluator.extension_costs(current, extras)
    for m, query in enumerate(workload):
        model = models[query.name]
        for j, extra in enumerate(extras):
            config = tuple(
                candidates[p].index for p in current + [extra]
            )
            assert_same_bits(matrix[m, j], inum_estimate(model, config))


# ----------------------------------------------------------------------
# Property: serving-index detail ≡ the reference loop's


def _assert_serving_matches_reference(models, pool, positions):
    evaluator = WorkloadEvaluator(models, [1.0] * len(models), pool)
    costs, serving = evaluator.serving_indexes(positions)
    config = [pool[p] for p in positions]
    for m, model in enumerate(models):
        cost, detail = inum_estimate_detail(model, config)
        assert_same_bits(costs[m], cost)
        assert serving[m] == detail
    return costs, serving


def test_serving_indexes_match_reference_on_random_positions(compiled):
    workload, models, candidates, evaluator = compiled
    rng = random.Random(22)
    pool = [c.index for c in candidates]
    ordered = [models[q.name] for q in workload]
    used = set()
    for _ in range(40):
        positions = rng.sample(range(len(pool)), rng.randint(0, min(8, len(pool))))
        costs, serving = _assert_serving_matches_reference(ordered, pool, positions)
        for m in range(len(ordered)):
            assert_same_bits(costs[m], evaluator.per_query_costs([positions])[m, 0])
        used.update(name for detail in serving for name in detail.values())
    # The sample exercises both outcomes, not just sequential scans.
    assert None in used and len(used) > 1


def _with_entries(model, entries):
    hollow = copy.copy(model)
    hollow._entries = list(entries)
    return hollow


def test_serving_indexes_model_without_usable_entry(compiled):
    workload, models, candidates, _ = compiled
    pool = [c.index for c in candidates]
    for query in workload:
        built = models[query.name]
        ordered_only = [
            e for e in built.entries if any(o for _, o in e.order_vector)
        ]
        for entries in ([], ordered_only):
            hollow = _with_entries(built, entries)
            # No index delivers an order, so ordered-only entries are
            # all unusable; beside a healthy model to cover row offsets.
            costs, serving = _assert_serving_matches_reference(
                [hollow, built], pool, []
            )
            assert costs[0] == float("inf") and serving[0] == {}
            assert costs[1] < float("inf") and serving[1]


def test_serving_indexes_equal_cost_first_in_configuration_wins(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    query = sdss_wl.query("q01_box_search")
    model = InumModel(catalog, query.bind(catalog))
    candidates = generate_candidates(catalog, type(sdss_wl)([query]))
    evaluator = WorkloadEvaluator([model], [1.0], [c.index for c in candidates])
    serving = evaluator.serving_indexes(range(len(candidates)))[1][0]
    (winner,) = [c.index for c in candidates if c.index.name in serving.values()]
    twin = _index_for(winner.table_name, winner.columns)
    assert twin.name != winner.name
    for pool in ([winner, twin], [twin, winner]):
        for positions in ([0, 1], [1, 0]):
            _, serving = _assert_serving_matches_reference([model], pool, positions)
            assert set(serving[0].values()) == {pool[positions[0]].name}


def test_final_pricing_matches_reference(sdss_db, sdss_wl):
    """What ``recommend`` reports per query is the reference loop's
    answer for the recommended configuration, to the last bit."""
    advisor = IlpIndexAdvisor(sdss_db.catalog)
    result = advisor.recommend(sdss_wl, budget_pages=2000)
    models = advisor.build_models(sdss_wl)
    cost_before = cost_after = 0.0
    assert [b.name for b in result.per_query] == [q.name for q in sdss_wl]
    for query, priced in zip(sdss_wl, result.per_query):
        model = models[query.name]
        after, detail = inum_estimate_detail(model, result.indexes)
        assert_same_bits(priced.cost_before, inum_estimate(model) * query.weight)
        assert_same_bits(priced.cost_after, after * query.weight)
        assert priced.indexes_used == sorted(
            {name for name in detail.values() if name is not None}
        )
        cost_before += priced.cost_before
        cost_after += priced.cost_after
    assert_same_bits(result.cost_before, cost_before)
    assert_same_bits(result.cost_after, cost_after)
    assert any(b.indexes_used for b in result.per_query)
    assert result.inum_estimates == 2 * len(result.per_query)


def test_workload_cost_is_memoized(compiled):
    *_, evaluator = compiled
    before = evaluator.memo_size
    first = evaluator.workload_cost([2, 5, 9])
    grown = evaluator.memo_size
    second = evaluator.workload_cost([9, 5, 2])  # same set, other order
    assert grown == before + 1
    assert evaluator.memo_size == grown
    assert_same_bits(first, second)


# ----------------------------------------------------------------------
# Degenerate shapes


def test_estimate_batch_no_configs(compiled):
    workload, models, *_ = compiled
    model = models[next(iter(workload)).name]
    batch = model.estimate_batch([])
    assert batch.shape == (0,)


def test_evaluator_empty_workload(compiled):
    _, _, candidates, _ = compiled
    evaluator = WorkloadEvaluator([], [], [c.index for c in candidates])
    assert evaluator.base_costs().shape == (0,)
    assert evaluator.singleton_costs().shape == (0, len(candidates))
    assert evaluator.workload_cost([0, 1]) == 0.0
    assert evaluator.workload_totals(
        evaluator.extension_costs([], [0, 1])
    ).shape == (2,)


def test_evaluator_zero_candidates(compiled):
    workload, models, _, _ = compiled
    evaluator = WorkloadEvaluator(
        [models[q.name] for q in workload],
        [q.weight for q in workload],
        [],
    )
    assert evaluator.singleton_costs().shape == (len(list(workload)), 0)
    assert_same_bits(
        evaluator.workload_cost([]), _scalar_workload_cost(workload, models, [], [])
    )


def test_single_alias_query(sdss_db, sdss_wl):
    catalog = sdss_db.catalog
    query = sdss_wl.query("q01_box_search")
    bound = query.bind(catalog)
    assert len(bound.aliases) == 1
    model = InumModel(catalog, bound)
    candidates = generate_candidates(catalog, type(sdss_wl)([query]))
    configs = [
        [c.index for c in candidates[:k]] for k in range(len(candidates) + 1)
    ]
    batch = model.estimate_batch(configs)
    for j, config in enumerate(configs):
        assert_same_bits(batch[j], inum_estimate(model, tuple(config)))


def test_pool_signature_orders_and_distinguishes(compiled):
    _, _, candidates, _ = compiled
    pool = [c.index for c in candidates]
    assert pool_signature(pool) == pool_signature(list(pool))
    assert pool_signature(pool[:3]) != pool_signature(pool[:2])


# ----------------------------------------------------------------------
# The advisor's savings array against the scalar loop


def test_benefit_matrix_matches_scalar_dict(compiled):
    workload, models, candidates, evaluator = compiled
    savings = IlpIndexAdvisor._benefit_matrix(workload, evaluator)
    names = [query.name for query in workload]
    rows, columns = np.nonzero(savings)
    matrix = {
        (names[q], p): float(savings[q, p])
        for q, p in zip(rows.tolist(), columns.tolist())
    }

    scalar: dict[tuple[str, int], float] = {}
    for query in workload:
        model = models[query.name]
        for p, candidate in enumerate(candidates):
            saving = (
                inum_estimate(model) - inum_estimate(model, (candidate.index,))
            ) * query.weight
            if saving > 1e-6:
                scalar[(query.name, p)] = saving

    assert matrix == scalar
    # Row-major order is the order the program creates its y variables.
    assert list(matrix) == list(scalar)


# ----------------------------------------------------------------------
# Batch pricing: primed memo entries and the refine climb's returned
# totals are the floats an unprimed evaluator (and the scalar sum)
# would produce


def _assert_primed_exact(compiled, prime, configs):
    workload, models, candidates, unprimed = compiled
    primed = WorkloadEvaluator(
        [models[q.name] for q in workload],
        [q.weight for q in workload],
        [c.index for c in candidates],
    )
    prime(primed)
    assert primed.memo_size == len({frozenset(c) for c in configs})
    for positions in configs:
        cost = primed.workload_cost(positions)
        assert_same_bits(
            cost, _scalar_workload_cost(workload, models, candidates, positions)
        )
        assert_same_bits(cost, unprimed.workload_cost(positions))
    # Every answer came out of the memo the priming call filled.
    assert primed.memo_size == len({frozenset(c) for c in configs})


def test_prime_matches_scalar_and_unprimed(compiled):
    configs = [[], [4], [0, 3, 7], [7, 3, 0], [1, 2, 5, 8, 11]]
    _assert_primed_exact(compiled, lambda ev: ev.prime(configs), configs)


def _assert_totals_exact(compiled, totals, configs):
    """Each returned total is, in order, its configuration's scalar sum
    and an unprimed evaluator's ``workload_cost``, bit for bit."""
    workload, models, candidates, _ = compiled
    unprimed = WorkloadEvaluator(
        [models[q.name] for q in workload],
        [q.weight for q in workload],
        [c.index for c in candidates],
    )
    assert totals.shape == (len(configs),)
    for total, positions in zip(totals.tolist(), configs):
        assert_same_bits(
            total, _scalar_workload_cost(workload, models, candidates, positions)
        )
        assert_same_bits(total, unprimed.workload_cost(positions))


def test_prime_extensions_matches_scalar_and_unprimed(compiled):
    *_, candidates, evaluator = compiled
    current = [0, 3]
    extras = [p for p in range(len(candidates)) if p not in current]
    random.Random(5).shuffle(extras)
    memo = evaluator.memo_size
    totals = evaluator.prime_extensions(current, extras)
    assert evaluator.memo_size == memo
    _assert_totals_exact(compiled, totals, [current + [e] for e in extras])
    assert evaluator.prime_extensions(current, []).shape == (0,)


def test_prime_swaps_matches_scalar_and_unprimed(compiled):
    *_, candidates, evaluator = compiled
    current = [0, 3, 6]
    pairs = [
        (out, incoming)
        for out in current
        for incoming in range(len(candidates))
        if incoming not in current
    ]
    random.Random(6).shuffle(pairs)
    memo = evaluator.memo_size
    totals = evaluator.prime_swaps(current, pairs)
    assert evaluator.memo_size == memo
    _assert_totals_exact(
        compiled,
        totals,
        [[p for p in current if p != out] + [incoming] for out, incoming in pairs],
    )
    assert evaluator.prime_swaps(current, []).shape == (0,)


# ----------------------------------------------------------------------
# Advisors: one pipeline, phases attributed


@pytest.mark.parametrize(
    "advisor_class, select_phases",
    [
        (IlpIndexAdvisor, {"benefit_matrix", "prune", "solve", "refine"}),
        (GreedyIndexAdvisor, {"solve"}),
    ],
)
def test_phase_seconds_surfaced(sdss_db, sdss_wl, advisor_class, select_phases):
    result = advisor_class(sdss_db.catalog).recommend(
        sdss_wl.subset(4), budget_pages=400
    )
    assert set(result.phase_seconds) == {
        "candidates",
        "model_build",
        "apply_pricing",
    } | select_phases
    assert all(v >= 0.0 for v in result.phase_seconds.values())


# ----------------------------------------------------------------------
# Batched Equation-1 sizing


def test_sizing_batch_matches_scalar(sdss_db):
    catalog = sdss_db.catalog
    for table_name in ("photoobj", "specobj"):
        table = catalog.table(table_name)
        stats = catalog.statistics(table_name)
        row_count = stats.table.row_count
        columns = list(table.column_names)
        sequences = [tuple(columns[:k]) for k in range(1, min(4, len(columns)))]
        sequences += [tuple(reversed(seq)) for seq in sequences]
        widths = index_row_widths_batch(table, sequences, stats.columns)
        pages = estimate_index_pages_batch(
            table, sequences, row_count, stats.columns
        )
        for j, seq in enumerate(sequences):
            index = _index_for(table_name, seq)
            assert widths[j] == index_row_width(table, index, stats.columns)
            assert pages[j] == estimate_index_pages(
                table, index, row_count, stats.columns
            )
    assert estimate_index_pages_batch(table, [], row_count).shape == (0,)
    assert (estimate_index_pages_batch(table, sequences, 0) == 1).all()


def _index_for(table_name, columns):
    from repro.catalog.schema import Index

    return Index(
        name=f"probe_{'_'.join(columns)}",
        table_name=table_name,
        columns=tuple(columns),
        hypothetical=True,
    )
