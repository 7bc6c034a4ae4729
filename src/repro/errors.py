"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type at the API boundary.
The sub-hierarchy mirrors the subsystems: SQL frontend, catalog,
optimizer, executor, advisor, the ILP solver, and the resilience layer.

Catch-at-boundary contract (the resilience layer)
    Failures are caught at the *component boundary* that can degrade
    gracefully, never deeper and never broader:

    * per-query failures (a model build, a what-if plan) are caught by
      the advisor that owns the workload loop, which quarantines the
      query and records a
      :class:`~repro.resilience.degrade.DegradedResult`;
    * :class:`WorkerCrashError` (the background worker's decision
      thread died) is reported to the supervising ``on_crash`` callback
      by the worker's watchdog, which restarts the thread;
    * :class:`SolverError` and a ``solver.iterate`` fault are caught by
      :class:`~repro.advisor.ilp_advisor.IlpIndexAdvisor`, which falls
      back to the greedy baseline selection;
    * :class:`StateCorruptError` is caught by the state-file loader,
      which falls back to the last-good checkpoint, and by the CLI,
      which starts cold with a warning when no checkpoint survives;
    * the online tuner catches any :class:`ReproError` escaping one
      re-advise and emits a ``degraded`` event — the daemon never dies
      because one checkpoint did;
    * a failed apply step (``index.build`` / ``page.read`` faults, real
      build errors) is caught by the journaled
      :class:`~repro.resilience.apply.ApplyExecutor`, which retries the
      step once and otherwise leaves a resumable journal behind —
      :class:`ApplyConflictError` marks the one state that needs an
      operator (a journal recording a different in-flight delta).

    :class:`FaultInjected` deliberately derives from
    :class:`ResilienceError` (not from the subsystem errors), so an
    injected fault exercises exactly the handlers that also catch the
    real failure — any ``except`` broad enough to swallow it silently
    would also swallow real faults, which is what the chaos CI job
    exists to catch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CatalogError(ReproError):
    """Schema or catalog inconsistency (unknown table, duplicate index, ...)."""


class DuplicateObjectError(CatalogError):
    """An object with the same name already exists in the catalog."""


class UnknownObjectError(CatalogError):
    """A referenced table, column, or index does not exist."""


class SQLError(ReproError):
    """Base class for SQL frontend errors."""


class TokenizeError(SQLError):
    """The SQL text contains a character sequence that cannot be tokenized."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """The token stream does not form a statement in the supported grammar."""


class CanonicalizeError(SQLError):
    """A statement cannot be canonicalized into a workload template.

    Raised by the online monitor's canonicalizer for statements that
    are empty after comment stripping; tokenizer failures surface as
    :class:`TokenizeError`. Catching these two types is exactly "the
    statement itself was malformed" — advisor or re-advise failures
    deliberately do *not* derive from them."""


class BindError(SQLError):
    """Name resolution failed (unknown column/table, ambiguous reference)."""


class PlannerError(ReproError):
    """The optimizer could not produce a plan for a bound query."""


class ExecutorError(ReproError):
    """Runtime failure while executing a physical plan."""


class StatisticsError(ReproError):
    """Statistics are missing or unusable for an estimation request."""


class AdvisorError(ReproError):
    """Physical-design advisor failure (no candidates, bad constraints, ...)."""


class SolverError(ReproError):
    """The LP/ILP solver failed (infeasible, unbounded, iteration limit)."""


class InfeasibleError(SolverError):
    """The optimization problem has no feasible solution."""


class UnboundedError(SolverError):
    """The optimization problem is unbounded."""


class WhatIfError(ReproError):
    """Invalid what-if operation (duplicate hypothetical object, ...)."""


class ResilienceError(ReproError):
    """Base class for the fault-injection / graceful-degradation layer."""


class FaultInjected(ResilienceError):
    """A :class:`~repro.resilience.faults.FaultInjector` fired.

    Carries the fault point, the caller-supplied detail (usually the
    query or file the fault landed on), and the 1-based invocation
    count at which it fired, so failure schedules can be replayed and
    asserted exactly.
    """

    def __init__(self, point: str, detail: str = "", count: int = 0) -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"injected fault at {point}{suffix}, invocation {count}"
        )
        self.point = point
        self.detail = detail
        self.count = count


class StateCorruptError(ResilienceError):
    """A persisted state file is corrupt, truncated, or fails its checksum."""


class StaleLeaseError(ResilienceError):
    """A state-store write carried a fencing token that is no longer current.

    Raised by :class:`~repro.resilience.store.StateStore` backends when
    a writer whose lease epoch has been superseded (an old host coming
    back after failover) tries to write: the store refuses the write
    *before* touching any slot, so a fenced-out daemon can never
    clobber the new owner's journal. The only recovery is to re-acquire
    the lease — which concedes that the other writer's state is now the
    truth — or to exit; the CLI maps this to its own exit code.
    """


class ApplyConflictError(ResilienceError):
    """An apply journal blocks the requested materialization.

    Raised when a new apply is requested while an unfinished journal
    records a *different* delta (finish or roll back the journaled run
    first), when a rollback is requested with no recoverable journal,
    or when an apply would race an in-progress rollback. The CLI maps
    this to its own exit code so supervisors can tell "operator must
    resolve the journal" apart from a crash.
    """


class WorkerCrashError(ResilienceError):
    """The background worker's thread died while work was pending."""
