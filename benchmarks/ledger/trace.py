"""Outside-in tracing for the perf ledger.

The ledger never edits ``src/``. A :class:`Recorder` swaps the public
callables listed in :data:`TARGETS` for thin wrappers that record one
span per call — name, start, end, parent span, lap id — and swaps the
originals back afterwards. It does so only inside the **timed** parts
of a lap (:class:`Timed`), the parts the end-to-end metrics are read
from, so the per-layer rows decompose exactly those. A layer's ``*_s``
metric is the **self time** of its spans (duration minus the part
covered by child spans), so the self times of one lap add up to the
lap's timed seconds and a regression names the layer it sits in.
Counts come from span counts and from ``after`` hooks that read public
arguments and results at the same boundary
(``MilpSolution.nodes_explored``, the ``LinearProgram`` handed to the
solver, the state dict handed to the store).

:data:`LAYER_METRICS` declares every per-layer metric of
``BENCHMARK.json`` with the end-to-end metric it is expected to move
(``moves``) and the workloads it must stay flat on (``flat_on``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

ROOT_SPAN = "harness.lap"

#: Workloads that only ever price hypothetical designs: a real index
#: build on one of them is a bug.
WHATIF_ONLY = ("advise_cold", "advise_scale", "tune_drift", "whatif_session",
               "partition_autopart")


class Recorder:
    """In-memory span log plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        # One list per span: [name, start, end, parent index, lap id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.lap = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.lap]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every original back (reverse order, so double wraps of
        one attribute unwind correctly)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets=None):
        """Wrap :data:`TARGETS` for the duration of the block."""
        for name, module, owner, attr, after in targets or TARGETS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            self.wrap(target, attr, name, after)
        try:
            yield self
        finally:
            self.unwrap_all()

    @contextmanager
    def span(self, name: str):
        """An explicit span (the harness wraps each lap in one)."""
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.lap]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- arithmetic -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children."""
        own = [end - start for _n, start, end, _p, _l in self.spans]
        for _name, start, end, parent, _lap in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "self_s", "total_s"}}`` over all laps."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[2] - span[1]
        return dict(table)

    def total_under(self, name: str, ancestors: tuple[str, ...]) -> float:
        """Inclusive seconds of ``name`` spans nested below any span
        named in ``ancestors``."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] in ancestors:
                    total += span[2] - span[1]
                    break
                parent = self.spans[parent][3]
        return total

    def dump(self, path, lap: int) -> None:
        """One JSON object per span of ``lap``; times relative to its
        first span. Ids and parents index that lap's spans."""
        spans = [span for span in self.spans if span[4] == lap]
        offset = self.spans.index(spans[0]) if spans else 0
        origin = spans[0][1] if spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, lap) in enumerate(spans):
                parent = parent - offset if parent >= 0 else -1
                out.write(json.dumps({
                    "id": index, "name": name, "lap": lap, "parent": parent,
                    "start_s": round(start - origin, 7),
                    "end_s": round(end - origin, 7),
                }) + "\n")


class Timed:
    """The parts of a lap the clock runs on.

    A workload brackets what its user waits for with ``with timed():``
    — input copies, fresh-host builds and result checks stay outside.
    ``seconds`` adds the brackets up. Given a recorder, each bracket
    is also one root span with :data:`TARGETS` wrapped for its
    duration, so a traced lap records spans for the timed work only.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self.seconds = 0.0

    @contextmanager
    def __call__(self):
        with ExitStack() as stack:
            if self.recorder is not None:
                stack.enter_context(self.recorder.installed())
                stack.enter_context(self.recorder.span(ROOT_SPAN))
            started = time.perf_counter()
            try:
                yield
            finally:
                self.seconds += time.perf_counter() - started


# ----------------------------------------------------------------------
# after-hooks: counts read from public arguments/results at the boundary


def _after_bb_solve(counters, args, kwargs, solution) -> None:
    program = args[1]
    counters["ilp.rows"] += len(program.constraints)
    counters["ilp.cols"] += program.num_variables
    counters["ilp.nnz"] += program.nnz
    counters["ilp.nodes"] += solution.nodes_explored
    counters["ilp.solves"] += 1
    counters["ilp.optimal"] += solution.status == "optimal"


def _after_store_write(counters, args, kwargs, _result) -> None:
    state = args[2] if len(args) > 2 else kwargs["state"]
    counters["store.bytes_written"] += len(json.dumps(state))


def _after_candidates(counters, args, kwargs, candidates) -> None:
    counters["candidates.generated"] += len(candidates)


def _after_prune(counters, args, kwargs, kept) -> None:
    counters["candidates.pruned"] += len(args[0]) - len(kept)


def _after_compress(counters, args, kwargs, result) -> None:
    counters["compress.statements_in"] += result.statements_in
    counters["compress.templates_out"] += len(result.workload)


def _after_fold(counters, args, kwargs, folded) -> None:
    counters["compress.statements_in"] += len(args[0])
    counters["compress.templates_out"] += len(folded)


def _after_build_models(counters, args, kwargs, models) -> None:
    counters["inum.models_built"] += len(models)


# (span name, module, class or None, attribute, after-hook). Module
# functions are patched on the *importing* module's name, which is the
# binding the caller resolves at call time.
TARGETS = [
    ("sql.tokenize", "repro.online.monitor", None, "tokenize", None),
    ("sql.tokenize", "repro.advisor.compress", None, "tokenize", None),
    ("sql.tokenize", "repro.sql.parser", None, "tokenize", None),
    ("sql.bind", "repro.advisor.ilp_advisor", None, "bind_workload", None),
    ("sql.bind", "repro.fleet.tuner", None, "bind_workload", None),
    ("sql.bind", "repro.parallel.caches", "CostCache", "bound_query", None),
    ("sql.bind", "repro.whatif.session", "WhatIfSession", "bind_sql", None),
    ("sql.bind", "repro.workloads.workload", "Query", "bind", None),
    ("monitor.observe", "repro.online.monitor", "WorkloadMonitor", "observe", None),
    ("drift.check", "repro.online.drift", "DriftDetector", "compare", None),
    ("online.tuner", "repro.online.tuner", "OnlineTuner", "observe", None),
    ("online.tuner", "repro.online.tuner", "OnlineTuner", "readvise", None),
    ("compress.fold", "repro.advisor.compress", None, "compress_statements", _after_compress),
    ("compress.fold", "repro.advisor.compress", None, "fold_workload", _after_fold),
    ("candidates.generate", "repro.advisor.ilp_advisor", None, "generate_candidates", _after_candidates),
    ("candidates.generate", "repro.fleet.tuner", None, "generate_candidates", _after_candidates),
    ("candidates.generate", "repro.advisor.ilp_advisor", None, "prune_dominated", _after_prune),
    ("advisor.recommend", "repro.advisor.ilp_advisor", "IlpIndexAdvisor", "recommend", None),
    ("inum.build", "repro.advisor.ilp_advisor", None, "build_inum_models", _after_build_models),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "__init__", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "per_query_costs", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "base_costs", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "singleton_costs", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "utilization_fractions", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "extension_costs", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "workload_cost", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "prime", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "prime_extensions", None),
    ("inum.batch", "repro.inum.batch", "WorkloadEvaluator", "prime_swaps", None),
    ("optimizer.plan", "repro.optimizer.planner", "Planner", "plan", None),
    ("whatif.plan", "repro.whatif.session", "WhatIfSession", "plan", None),
    ("whatif.mutate", "repro.whatif.session", "WhatIfSession", "add_index", None),
    ("whatif.mutate", "repro.whatif.session", "WhatIfSession", "drop_index", None),
    ("whatif.mutate", "repro.whatif.session", "WhatIfSession", "add_partition_table", None),
    ("whatif.mutate", "repro.whatif.session", "WhatIfSession", "set_join_flags", None),
    ("whatif.evaluate", "repro.core.interactive", "InteractiveDesigner", "evaluate", None),
    ("ilp.bb", "repro.ilp.branch_bound", "BranchAndBoundSolver", "solve", _after_bb_solve),
    ("ilp.simplex", "repro.ilp.simplex", "SimplexSolver", "solve", None),
    ("autopart.recommend", "repro.partitioning.autopart", "AutoPartAdvisor", "recommend", None),
    ("autopart.rewrite", "repro.partitioning.rewrite", "PartitionRewriter", "rewrite", None),
    ("router.route", "repro.fleet.router", "Router", "route", None),
    ("fleet.retune", "repro.fleet.tuner", "DivergentTuner", "tune", None),
    ("fleet.cluster", "repro.fleet.clusterer", "WorkloadClusterer", "cluster", None),
    ("fleet.observe", "repro.fleet.serve", "FleetController", "observe", None),
    ("fleet.observe", "repro.fleet.serve", "FleetController", "resume", None),
    ("apply.run", "repro.resilience.apply", "ApplyExecutor", "apply", None),
    ("apply.run", "repro.resilience.apply", "ApplyExecutor", "rollback", None),
    ("store.write", "repro.resilience.store", "StateStore", "write", _after_store_write),
    ("store.read", "repro.resilience.store", "StateStore", "read", None),
    ("store.lease", "repro.resilience.store", "StateStore", "acquire", None),
    ("storage.index_build", "repro.storage.database", "Database", "create_index", None),
    ("storage.index_drop", "repro.storage.database", "Database", "drop_index", None),
]


# ----------------------------------------------------------------------
# Per-layer metric declarations


@dataclass(frozen=True)
class LayerMetric:
    """One ``per_layer`` entry of ``BENCHMARK.json``.

    ``source`` says where the per-lap value comes from:

    * ``("self", span)`` — summed self seconds of the span name. These
      partition the lap's wall time (with ``harness.untraced_s``).
    * ``("calls", span)`` — span count.
    * ``("count", key)`` — a counter: an ``after`` hook's, or one the
      workload read off a public result field (``Lap.counts``).
    * ``("phase", key)`` — seconds that overlap a ``self`` row (an
      ``AdvisorResult.phase_seconds`` entry or an inclusive span
      total); informative, excluded from the sums-to-wall check.
    * ``("derived", key)`` — computed in :func:`layer_values`.
    """

    name: str
    unit: str
    layer: str
    source: tuple[str, str]
    better: str = "lower"
    moves: tuple[tuple[str, str], ...] = ()
    flat_on: tuple[str, ...] = ()


def _m(name, unit, layer, kind, key, *, better="lower", moves=(), flat_on=()):
    return LayerMetric(name, unit, layer, (kind, key), better, tuple(moves), tuple(flat_on))


LAYER_METRICS: list[LayerMetric] = [
    # sql
    _m("sql.tokenize_s", "s", "sql", "self", "sql.tokenize",
       moves=[("stmts_per_s", "tune_drift"), ("op_ms_p50", "advise_scale")],
       flat_on=["partition_autopart"]),
    _m("sql.tokenize_calls", "count", "sql", "calls", "sql.tokenize"),
    _m("sql.bind_s", "s", "sql", "self", "sql.bind",
       moves=[("op_ms_p50", "advise_cold")], flat_on=["advise_scale"]),
    _m("sql.bind_calls", "count", "sql", "calls", "sql.bind"),
    # online
    _m("monitor.observe_s", "s", "online", "self", "monitor.observe",
       moves=[("stmts_per_s", "tune_drift"), ("stmts_per_s", "fleet_serve")],
       flat_on=["advise_cold"]),
    _m("monitor.observe_calls", "count", "online", "calls", "monitor.observe"),
    _m("monitor.templates", "count", "online", "count", "monitor.templates"),
    _m("drift.check_s", "s", "online", "self", "drift.check",
       moves=[("stmts_per_s", "tune_drift")], flat_on=["advise_cold"]),
    _m("drift.checks", "count", "online", "calls", "drift.check"),
    _m("drift.fired", "count", "online", "count", "drift.fired"),
    _m("tuner.self_s", "s", "online", "self", "online.tuner",
       moves=[("stmts_per_s", "tune_drift")], flat_on=["advise_cold"]),
    _m("tuner.readvise_s", "s", "online", "phase", "tuner.readvise_s",
       moves=[("op_ms_p50", "tune_drift")], flat_on=["advise_cold"]),
    _m("tuner.readvises", "count", "online", "count", "tuner.readvises"),
    _m("tuner.held", "count", "online", "count", "tuner.held"),
    # advisor
    _m("compress.fold_s", "s", "advisor", "self", "compress.fold",
       moves=[("op_ms_p50", "advise_scale"), ("stmts_per_s", "advise_scale")],
       flat_on=["whatif_session", "advise_cold"]),
    _m("compress.statements_in", "count", "advisor", "count", "compress.statements_in"),
    _m("compress.templates_out", "count", "advisor", "count", "compress.templates_out"),
    _m("candidates.generate_s", "s", "advisor", "self", "candidates.generate",
       moves=[("op_ms_p50", "advise_cold")], flat_on=["whatif_session"]),
    _m("candidates.generated", "count", "advisor", "count", "candidates.generated"),
    _m("candidates.pruned", "count", "advisor", "count", "candidates.pruned"),
    _m("advisor.recommend_self_s", "s", "advisor", "self", "advisor.recommend",
       moves=[("op_ms_p50", "advise_cold")], flat_on=["whatif_session"]),
    _m("advisor.benefit_matrix_s", "s", "advisor", "phase", "phase.benefit_matrix",
       moves=[("op_ms_p50", "advise_cold")], flat_on=["whatif_session"]),
    _m("advisor.refine_s", "s", "advisor", "phase", "phase.refine",
       moves=[("op_ms_p50", "advise_cold")], flat_on=["whatif_session"]),
    _m("advisor.price_s", "s", "advisor", "phase", "phase.apply_pricing",
       moves=[("op_ms_p50", "advise_cold")], flat_on=["whatif_session"]),
    # inum
    _m("inum.build_s", "s", "inum", "self", "inum.build",
       moves=[("op_ms_p50", "advise_cold")],
       flat_on=["tune_drift", "partition_autopart"]),
    _m("inum.models_built", "count", "inum", "count", "inum.models_built"),
    _m("inum.optimizer_calls", "count", "inum", "count", "inum.optimizer_calls"),
    _m("inum.estimates_served", "count", "inum", "count", "inum.estimates_served"),
    _m("inum.batch_s", "s", "inum", "self", "inum.batch",
       moves=[("op_ms_p50", "advise_cold"), ("op_ms_p50", "tune_drift")],
       flat_on=["partition_autopart"]),
    # optimizer
    _m("optimizer.plan_s", "s", "optimizer", "self", "optimizer.plan",
       moves=[("op_ms_p50", "partition_autopart"), ("op_ms_p50", "whatif_session"),
              ("op_ms_p50", "advise_cold")],
       flat_on=["advise_scale", "tune_drift"]),
    _m("optimizer.plan_calls", "count", "optimizer", "calls", "optimizer.plan"),
    # whatif
    _m("whatif.plan_s", "s", "whatif", "self", "whatif.plan",
       moves=[("op_ms_p50", "whatif_session"), ("op_ms_p50", "partition_autopart")],
       flat_on=["advise_cold", "advise_scale"]),
    _m("whatif.plan_calls", "count", "whatif", "calls", "whatif.plan"),
    _m("whatif.mutate_s", "s", "whatif", "self", "whatif.mutate",
       moves=[("op_ms_p50", "whatif_session")],
       flat_on=["advise_cold", "advise_scale"]),
    _m("whatif.evaluate_self_s", "s", "whatif", "self", "whatif.evaluate",
       moves=[("op_ms_p50", "whatif_session")],
       flat_on=["advise_cold", "advise_scale"]),
    _m("whatif.plans_per_step", "count", "whatif", "derived", "whatif.plans_per_step"),
    # ilp
    _m("ilp.solve_s", "s", "ilp", "phase", "ilp.solve_s",
       moves=[("op_ms_p50", "advise_scale")],
       flat_on=["advise_cold", "whatif_session", "partition_autopart"]),
    _m("ilp.bb_self_s", "s", "ilp", "self", "ilp.bb",
       moves=[("op_ms_p50", "advise_scale")],
       flat_on=["advise_cold", "whatif_session", "partition_autopart"]),
    _m("ilp.simplex_s", "s", "ilp", "self", "ilp.simplex",
       moves=[("op_ms_p50", "advise_scale")],
       flat_on=["advise_cold", "whatif_session", "partition_autopart"]),
    _m("ilp.nodes", "count", "ilp", "count", "ilp.nodes",
       moves=[("op_ms_p50", "advise_scale")]),
    _m("ilp.lp_solves", "count", "ilp", "calls", "ilp.simplex",
       moves=[("op_ms_p50", "advise_scale")]),
    _m("ilp.rows", "count", "ilp", "count", "ilp.rows"),
    _m("ilp.cols", "count", "ilp", "count", "ilp.cols"),
    _m("ilp.nnz", "count", "ilp", "count", "ilp.nnz"),
    _m("ilp.optimal_share", "ratio", "ilp", "derived", "ilp.optimal_share",
       better="higher"),
    # parallel (the shared CostCache)
    _m("cache.hits", "count", "parallel", "count", "cache.hits", better="higher",
       moves=[("op_ms_p50", "tune_drift"), ("op_ms_p50", "fleet_serve")],
       flat_on=["advise_cold"]),
    _m("cache.misses", "count", "parallel", "count", "cache.misses"),
    _m("cache.hit_rate", "ratio", "parallel", "derived", "cache.hit_rate",
       better="higher",
       moves=[("op_ms_p50", "tune_drift"), ("op_ms_p50", "fleet_serve")],
       flat_on=["advise_cold"]),
    _m("cache.evictions", "count", "parallel", "count", "cache.evictions"),
    _m("cache.inum_misses", "count", "parallel", "count", "cache.inum_misses",
       moves=[("op_ms_p50", "tune_drift")]),
    # partitioning
    _m("autopart.self_s", "s", "partitioning", "self", "autopart.recommend",
       moves=[("op_ms_p50", "partition_autopart")],
       flat_on=["advise_cold", "advise_scale", "tune_drift"]),
    _m("autopart.rewrite_s", "s", "partitioning", "self", "autopart.rewrite",
       moves=[("op_ms_p50", "partition_autopart")],
       flat_on=["advise_cold", "advise_scale", "tune_drift"]),
    _m("autopart.shells_shared", "count", "partitioning", "count",
       "autopart.shells_shared", better="higher"),
    _m("autopart.rebinds_shared", "count", "partitioning", "count",
       "autopart.rebinds_shared", better="higher"),
    # fleet
    _m("router.route_s", "s", "fleet", "self", "router.route",
       moves=[("stmts_per_s", "fleet_serve")], flat_on=["tune_drift"]),
    _m("router.route_calls", "count", "fleet", "calls", "router.route"),
    _m("fleet.retune_s", "s", "fleet", "self", "fleet.retune",
       moves=[("op_ms_p50", "fleet_serve")], flat_on=["tune_drift"]),
    _m("fleet.retunes", "count", "fleet", "calls", "fleet.retune"),
    _m("fleet.cluster_s", "s", "fleet", "self", "fleet.cluster",
       moves=[("op_ms_p50", "fleet_serve")], flat_on=["tune_drift"]),
    _m("fleet.serve_self_s", "s", "fleet", "self", "fleet.observe",
       moves=[("stmts_per_s", "fleet_serve"), ("op_ms_p50", "fleet_resume")],
       flat_on=["tune_drift"]),
    _m("fleet.rollouts", "count", "fleet", "count", "fleet.rollouts"),
    _m("fleet.transitions", "count", "fleet", "count", "fleet.transitions"),
    # resilience
    _m("apply.self_s", "s", "resilience", "self", "apply.run",
       moves=[("op_ms_p50", "fleet_serve"), ("op_ms_p50", "fleet_resume")],
       flat_on=["advise_cold", "advise_scale", "whatif_session"]),
    _m("apply.runs", "count", "resilience", "calls", "apply.run"),
    _m("store.write_s", "s", "resilience", "self", "store.write",
       moves=[("op_ms_p50", "fleet_serve"), ("stmts_per_s", "fleet_serve")],
       flat_on=["advise_cold", "advise_scale", "whatif_session"]),
    _m("store.writes", "count", "resilience", "calls", "store.write"),
    _m("store.bytes_written", "B", "resilience", "count", "store.bytes_written"),
    _m("store.read_s", "s", "resilience", "self", "store.read",
       moves=[("op_ms_p50", "fleet_resume")],
       flat_on=["advise_cold", "advise_scale", "whatif_session"]),
    _m("store.reads", "count", "resilience", "calls", "store.read"),
    _m("store.lease_s", "s", "resilience", "self", "store.lease",
       moves=[("op_ms_p50", "fleet_resume")],
       flat_on=["advise_cold", "advise_scale", "whatif_session"]),
    _m("store.lease_acquires", "count", "resilience", "calls", "store.lease"),
    # storage
    _m("storage.index_build_s", "s", "storage", "self", "storage.index_build",
       moves=[("op_ms_p50", "fleet_serve"), ("stmts_per_s", "fleet_serve"),
              ("op_ms_p50", "fleet_resume")],
       flat_on=WHATIF_ONLY),
    _m("storage.index_builds", "count", "storage", "calls", "storage.index_build",
       flat_on=WHATIF_ONLY),
    _m("storage.index_drop_s", "s", "storage", "self", "storage.index_drop",
       flat_on=WHATIF_ONLY),
    _m("storage.index_drops", "count", "storage", "calls", "storage.index_drop",
       flat_on=WHATIF_ONLY),
    # harness (diagnostics; no layer of the program)
    _m("harness.untraced_s", "s", "harness", "self", ROOT_SPAN),
    _m("harness.lap_s", "s", "harness", "derived", "harness.lap_s"),
    _m("harness.calib_ms", "ms", "harness", "derived", "harness.calib_ms"),
    _m("harness.trace_overhead_pct", "%", "harness", "derived",
       "harness.trace_overhead_pct"),
    _m("harness.op_ms_p90", "ms", "harness", "derived", "harness.op_ms_p90"),
]


def layer_values(
    recorder: Recorder, laps: int, counts: dict[str, float],
    derived: dict[str, float],
) -> dict[str, float]:
    """Per-lap value of every :data:`LAYER_METRICS` entry.

    ``recorder`` holds ``laps`` traced laps; seconds and span counts
    are divided by ``laps``. ``counts`` are the per-lap counters the
    workload read off public result fields; hook counters (summed over
    the traced laps) are averaged in beside them. ``derived`` carries
    what only the harness knows (kernel time, overhead, p90).
    """
    spans = recorder.by_name()
    laps = max(laps, 1)
    merged = {key: value / laps for key, value in recorder.counters.items()}
    merged.update(counts)
    merged["tuner.readvise_s"] = recorder.total_under(
        "advisor.recommend", ("online.tuner",)
    ) / laps
    merged["ilp.solve_s"] = spans.get("ilp.bb", {}).get("total_s", 0.0) / laps
    solves = merged.get("ilp.solves", 0)
    lookups = merged.get("cache.hits", 0) + merged.get("cache.misses", 0)
    steps = spans.get("whatif.evaluate", {}).get("calls", 0)
    computed = dict(derived)
    computed["ilp.optimal_share"] = merged.get("ilp.optimal", 0) / solves if solves else 0.0
    computed["cache.hit_rate"] = merged.get("cache.hits", 0) / lookups if lookups else 0.0
    computed["whatif.plans_per_step"] = (
        spans.get("optimizer.plan", {}).get("calls", 0) / steps if steps else 0.0
    )
    computed["harness.lap_s"] = spans.get(ROOT_SPAN, {}).get("total_s", 0.0) / laps
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        kind, key = metric.source
        if kind == "self":
            values[metric.name] = spans.get(key, {}).get("self_s", 0.0) / laps
        elif kind == "calls":
            values[metric.name] = spans.get(key, {}).get("calls", 0) / laps
        elif kind in ("count", "phase"):
            values[metric.name] = merged.get(key, 0.0)
        else:
            values[metric.name] = computed.get(key, 0.0)
    return values
