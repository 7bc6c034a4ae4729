"""INUM estimation: plan-cache entries × a configuration → a cost.

This is the one place a cost is computed from an
:class:`~repro.inum.model.InumModel`'s cached plans and a
configuration's access costs. The advisors price tens of thousands of
configurations per ``recommend`` (the benefit matrix prices every
(query, candidate) pair; the refinement hill-climb prices hundreds of
trial configurations against every model, each step of an add/swap
scan as one :meth:`~WorkloadEvaluator.prime_extensions` and one
:meth:`~WorkloadEvaluator.prime_swaps` batch), so the *whole
workload's* models are compiled into flat numpy arrays once per
candidate pool and configurations are evaluated as array reductions:

``slots``
    Every (model, alias) pair is one slot. A slot owns a sequential-
    scan cost and a vocabulary of interesting-order columns; its
    portion of the *access vector* ``V`` holds the best unordered
    access cost (position 0) and the best access cost delivering each
    order column (positions 1..O). ``V[0]`` is a dedicated zero used
    by ragged-row padding.
``PC``
    The pool-cost matrix: ``PC[l, p]`` is pool index ``p``'s
    contribution to access-vector position ``l`` (``inf`` when the
    index is on another table or cannot deliver the order). A
    configuration's access vector is then one masked column reduction:
    ``V = min(base, PC[:, positions].min(axis=1))``.
``rows``
    Every cached plan entry of every model is one row with its
    internal cost, per-alias loop counts, and per-alias indices into
    ``V``. Evaluating a configuration is a gather plus an
    alias-by-alias multiply-accumulate plus a per-model segmented min.

Float order is a hard contract: the accumulation runs alias-by-alias
in each entry's order-vector order (one elementwise FMA-free
multiply-add per alias, never a pairwise ``sum``), the workload total
accumulates query-by-query in workload order, and padding contributes
exactly ``0.0 * 0.0``. ``tests/reference.py`` holds the plain
per-entry loop these arrays replay; every cost here equals it to the
last bit, which is what lets the advisors keep their
recommendation-diff regression gate.

Ties are first-minimum throughout: the sequential scan serves a
relation unless an index is strictly cheaper, among equally cheap
indexes the first in configuration order serves, and among equally
cheap cache entries the first built wins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.catalog.schema import Index, index_signature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (model → batch)
    from repro.inum.model import InumModel


class WorkloadEvaluator:
    """Array-compiled estimator for a fixed (models, candidate pool).

    Args:
        models: One built :class:`InumModel` per workload query, in
            workload order (the order fixes the float accumulation
            sequence of workload totals).
        weights: Query weights aligned with ``models``.
        pool: The candidate indexes configurations draw from;
            configurations are given as *positions* into this pool.
    """

    def __init__(
        self,
        models: Sequence["InumModel"],
        weights: Sequence[float],
        pool: Sequence[Index],
    ) -> None:
        if len(models) != len(weights):
            raise ValueError("models and weights must align")
        self._weights = [float(w) for w in weights]
        self._pool = list(pool)
        self._memo: dict[frozenset[int], float] = {}
        self._compile(models)

    # ------------------------------------------------------------------
    # Compilation

    def _compile(self, models: Sequence["InumModel"]) -> None:
        pool = self._pool
        n_pool = len(pool)
        offsets: list[int] = []  # V offset per slot
        base_parts: list[float] = [0.0]  # V[0] is the padding zero
        pc_rows: list[dict[int, float]] = [dict()]
        slot_meta: list[tuple[int, str]] = []  # (model position, alias)

        row_internal: list[float] = []
        row_loops: list[list[float]] = []
        row_vidx: list[list[int]] = []
        row_aliases: list[list[str]] = []
        model_row_start: list[int] = []
        model_row_count: list[int] = []

        for m, model in enumerate(models):
            aliases = sorted(model._query.aliases)
            slot_of: dict[str, int] = {}
            entries = model._entries

            for alias in aliases:
                vocab = model._orders[alias]
                slot_of[alias] = len(offsets)
                slot_meta.append((m, alias))
                offsets.append(len(base_parts))
                base_parts.append(model._seq_costs[alias])
                base_parts.extend([np.inf] * len(vocab))
                table = model._query.rel(alias).table.name
                unordered: dict[int, float] = {}
                ordered: list[dict[int, float]] = [dict() for _ in vocab]
                for p, index in enumerate(pool):
                    if index.table_name != table:
                        continue
                    info = model._access_info(alias, index)
                    unordered[p] = info.cost
                    for k, order in enumerate(vocab):
                        if order in info.provides:
                            ordered[k][p] = info.cost
                pc_rows.append(unordered)
                pc_rows.extend(ordered)

            model_row_start.append(len(row_internal))
            for entry in entries:
                loops_row: list[float] = []
                vidx_row: list[int] = []
                for alias, order in entry.order_vector:
                    loops_row.append(entry.loops_of(alias))
                    off = offsets[slot_of[alias]]
                    if order is None:
                        vidx_row.append(off)
                    else:
                        vidx_row.append(
                            off + 1 + model._orders[alias].index(order)
                        )
                row_internal.append(entry.internal_cost)
                row_loops.append(loops_row)
                row_vidx.append(vidx_row)
                row_aliases.append([alias for alias, _ in entry.order_vector])
            model_row_count.append(len(entries))

        self._n_models = len(models)
        self._base = np.array(base_parts, dtype=np.float64)
        length = len(base_parts)
        # One column past the pool stays all-inf: the padding position
        # of ragged configuration batches.
        self._pc = np.full((length, n_pool + 1), np.inf, dtype=np.float64)
        for l, row in enumerate(pc_rows):
            for p, cost in row.items():
                self._pc[l, p] = cost

        n_rows = len(row_internal)
        amax = max((len(r) for r in row_loops), default=1)
        self._amax = max(1, amax)
        self._internal = np.array(row_internal, dtype=np.float64)
        self._row_aliases = row_aliases
        self._loops = np.zeros((n_rows, self._amax), dtype=np.float64)
        # Padding gathers V[0] == 0.0 with loop count 0.0: the
        # accumulation sees exactly +0.0 for the ragged tail.
        self._vidx = np.zeros((n_rows, self._amax), dtype=np.int64)
        for r in range(n_rows):
            k = len(row_loops[r])
            self._loops[r, :k] = row_loops[r]
            self._vidx[r, :k] = row_vidx[r]

        nonempty = [m for m, count in enumerate(model_row_count) if count]
        self._nonempty_models = np.array(nonempty, dtype=np.int64)
        self._nonempty_starts = np.array(
            [model_row_start[m] for m in nonempty], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Evaluation

    def _access_vector(self, positions: Sequence[int]) -> np.ndarray:
        """The configuration's access vector ``V`` (length L)."""
        positions = list(dict.fromkeys(int(p) for p in positions))
        if not positions:
            return self._base
        return np.minimum(self._base, self._pc[:, positions].min(axis=1))

    def _row_totals(self, vectors: np.ndarray) -> np.ndarray:
        """Per-entry totals for access vectors ``(L, C)`` → ``(R, C)``."""
        gathered = vectors[self._vidx]  # (R, Amax, C)
        totals = np.broadcast_to(
            self._internal[:, None], (self._internal.shape[0], vectors.shape[1])
        ).copy()
        for j in range(self._amax):
            totals += self._loops[:, j, None] * gathered[:, j, :]
        return totals

    def _matrix_costs(self, vectors: np.ndarray) -> np.ndarray:
        """Per-model costs for access vectors ``(L, C)`` → ``(M, C)``."""
        costs = np.full((self._n_models, vectors.shape[1]), np.inf)
        if self._nonempty_starts.size:
            costs[self._nonempty_models] = np.minimum.reduceat(
                self._row_totals(vectors), self._nonempty_starts, axis=0
            )
        return costs

    def per_query_costs(
        self, configs: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Cost matrix ``(M, C)`` for arbitrary position-set configs."""
        if not configs:
            return np.zeros((self._n_models, 0))
        padded = np.full(
            (max(1, *map(len, configs)), len(configs)), len(self._pool)
        )
        for c, positions in enumerate(configs):
            padded[: len(positions), c] = positions
        vectors = np.repeat(self._base[:, None], len(configs), axis=1)
        for columns in padded:  # k-th index of every configuration at once
            np.minimum(vectors, self._pc[:, columns], out=vectors)
        return self._matrix_costs(vectors)

    def serving_indexes(
        self, positions: Sequence[int]
    ) -> tuple[np.ndarray, list[dict[str, str | None]]]:
        """One configuration's per-model costs and who serves each relation.

        ``costs[m]`` is the ``per_query_costs`` column for ``positions``;
        ``serving[m]`` maps every alias of model ``m``'s winning cache
        entry to the name of the pool index that serves it (``None`` =
        sequential scan), under the module's first-minimum tie rule. A
        model with no usable entry costs ``inf`` and has an empty map.
        """
        # The all-inf padding column makes the empty configuration and a
        # position no index can serve the same case: nothing beats base.
        columns = np.append(np.asarray(positions, dtype=np.int64), len(self._pool))
        offered = self._pc[:, columns]
        cheapest = offered.min(axis=1)
        server = np.where(
            cheapest < self._base, columns[offered.argmin(axis=1)], -1
        )
        vector = np.minimum(self._base, cheapest)
        totals = self._row_totals(vector[:, None])[:, 0]
        costs = np.full(self._n_models, np.inf)
        serving: list[dict[str, str | None]] = [{} for _ in costs]
        starts = self._nonempty_starts.tolist()
        for m, start, end in zip(
            self._nonempty_models.tolist(), starts, starts[1:] + [len(totals)]
        ):
            row = start + int(totals[start:end].argmin())
            costs[m] = totals[row]
            if costs[m] < np.inf:
                serving[m] = {
                    alias: None if p < 0 else self._pool[p].name
                    for alias, p in zip(
                        self._row_aliases[row], server[self._vidx[row]].tolist()
                    )
                }
        return costs, serving

    def base_costs(self) -> np.ndarray:
        """Per-model cost of the empty configuration ``(M,)``."""
        return self._matrix_costs(self._base[:, None])[:, 0]

    def singleton_costs(self) -> np.ndarray:
        """Cost matrix ``(M, P)`` of every one-index configuration."""
        if not self._pool:
            return np.zeros((self._n_models, 0))
        vectors = np.minimum(self._base[:, None], self._pc[:, :-1])
        return self._matrix_costs(vectors)

    def utilization_fractions(self) -> np.ndarray:
        """Index-utilization embedding ``(M, P)`` of the workload.

        Entry ``(q, p)`` is the fraction of query ``q``'s base cost
        that candidate ``p`` alone removes —
        ``(base - singleton) / base``, clipped to ``[0, 1]`` — i.e. how
        much query ``q`` *uses* candidate ``p``. Two queries with
        similar rows benefit from the same physical design, which is
        exactly the similarity the fleet clusterer partitions on. Costs
        come from the compiled arrays, so the whole embedding is two
        matrix evaluations regardless of workload or pool size.
        """
        if not self._pool:
            return np.zeros((self._n_models, 0))
        base = self.base_costs()[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            fractions = (base - self.singleton_costs()) / base
        fractions = np.where(np.isfinite(fractions), fractions, 0.0)
        return np.clip(fractions, 0.0, 1.0)

    def extension_costs(
        self, positions: Sequence[int], extras: Sequence[int]
    ) -> np.ndarray:
        """Cost matrix ``(M, C)`` of ``positions + [extra]`` per extra.

        The greedy search's inner loop and the refine climb's adds:
        every remaining candidate appended to the current
        configuration, evaluated in one shot.
        """
        if not len(extras):
            return np.zeros((self._n_models, 0))
        current = self._access_vector(positions)
        vectors = np.minimum(current[:, None], self._pc[:, list(extras)])
        return self._matrix_costs(vectors)

    def workload_totals(self, cost_matrix: np.ndarray) -> np.ndarray:
        """Weighted workload totals per config column ``(M, C) → (C,)``.

        Accumulates query-by-query in workload order — the same float
        addition sequence as ``sum(estimate(cfg) * w for ...)``.
        """
        totals = np.zeros(cost_matrix.shape[1])
        for m, weight in enumerate(self._weights):
            totals += cost_matrix[m] * weight
        return totals

    def workload_cost(self, positions: Sequence[int]) -> float:
        """Weighted workload cost of one configuration (memoized).

        The memo is keyed by the configuration's position *set*, so a
        configuration the refine climb reaches again, in any order, is
        priced once.
        """
        key = frozenset(int(p) for p in positions)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        costs = self._matrix_costs(self._access_vector(positions)[:, None])
        total = 0.0
        for cost, weight in zip(costs[:, 0].tolist(), self._weights):
            total += cost * weight
        self._memo[key] = total
        return total

    def prime(self, position_sets: Sequence[Sequence[int]]) -> None:
        """Batch-evaluate arbitrary configurations into the memo.

        Each column of one batch is arithmetically independent of its
        neighbours and :meth:`workload_totals` accumulates like
        :meth:`workload_cost`, so a primed entry is the exact float a
        later individual evaluation would store.
        """
        todo: dict[frozenset[int], Sequence[int]] = {}
        for positions in position_sets:
            key = frozenset(int(p) for p in positions)
            if key not in self._memo and key not in todo:
                todo[key] = positions
        if not todo:
            return
        vectors = np.stack(
            [self._access_vector(ps) for ps in todo.values()], axis=1
        )
        totals = self.workload_totals(self._matrix_costs(vectors))
        self._memo.update(zip(todo, totals.tolist()))

    def prime_extensions(
        self, positions: Sequence[int], extras: Sequence[int]
    ) -> np.ndarray:
        """Workload totals of every ``positions + [extra]``, in order.

        ``min(V(positions), PC[:, e])`` equals ``V(positions + [e])``
        elementwise, so one batch prices exactly what
        :meth:`workload_cost` would price one configuration at a time,
        to the last bit. The refine climb's adds.
        """
        return self.workload_totals(self.extension_costs(positions, extras))

    def prime_swaps(
        self,
        positions: Sequence[int],
        pairs: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        """Workload totals of every ``positions - {out} + {incoming}``.

        One total per ``(out, incoming)`` pair, in order, each equal to
        :meth:`workload_cost` of that configuration to the last bit.
        The refine climb's same-table swaps.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if not pairs.size:
            return np.zeros(0)
        outs, base_of = np.unique(pairs[:, 0], return_inverse=True)
        bases = np.stack(
            [self._access_vector([p for p in positions if p != out])
             for out in outs.tolist()],
            axis=1,
        )
        vectors = np.minimum(bases[:, base_of], self._pc[:, pairs[:, 1]])
        return self.workload_totals(self._matrix_costs(vectors))

    @property
    def pool(self) -> list[Index]:
        return list(self._pool)

    @property
    def memo_size(self) -> int:
        return len(self._memo)


def pool_signature(pool: Sequence[Index]) -> tuple:
    """Hashable identity of a candidate pool (for evaluator caching)."""
    return tuple(index_signature(ix) for ix in pool)
