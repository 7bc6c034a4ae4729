"""Fault-injection harness and graceful-degradation primitives.

An always-on advisor needs failure isolation more than raw speed: one
failing query, one failed solve, one torn state write must not
take down a whole advise — let alone the daemon. This package holds
the two halves of that safety layer:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`FaultInjector` with named fault points, activated explicitly
  (``Parinda(fault_injector=...)``) or ambiently (``REPRO_FAULTS``),
  so CI can replay exact failure schedules;
* :mod:`repro.resilience.degrade` — the structured
  :class:`DegradedResult` records advisors attach to their results
  when they shed work instead of aborting;
* :mod:`repro.resilience.store` — the pluggable fenced
  :class:`StateStore` (file or in-database backend), the one
  persistence API every durable component writes through, with a
  writer lease whose stale holders get :class:`StaleLeaseError`
  instead of clobbering the journal;
* :mod:`repro.resilience.state` — the envelope codec behind it:
  checksummed files with last-good-checkpoint (``.bak``) recovery;
* :mod:`repro.resilience.apply` — crash-safe design materialization:
  :class:`DesignDelta` diffs, the journaled :class:`ApplyExecutor`,
  and rollback to the journaled pre-apply design.

The degradation ladder itself lives at the component boundaries (see
the catch-at-boundary contract in :mod:`repro.errors` and the
"Failure model" section of DESIGN.md).
"""

from repro.errors import (
    ApplyConflictError,
    FaultInjected,
    ResilienceError,
    StaleLeaseError,
    StateCorruptError,
)
from repro.resilience.degrade import DEGRADE_ACTIONS, DegradedResult
from repro.resilience.faults import (
    FAULT_POINT_DOCS,
    FAULT_POINTS,
    FaultInjector,
    ambient,
    check,
    reset_ambient,
    resolve,
)
from repro.resilience.state import (
    STATE_FORMAT,
    backup_path,
    dump_state,
    has_state,
    load_state,
)
from repro.resilience.store import (
    DatabaseStateStore,
    FileStateStore,
    StateStore,
    store_from_spec,
    torn_slot_paths,
)

# Imported last: apply builds on faults/state above, and its runtime
# imports stay clear of repro.storage (TYPE_CHECKING only) so the
# storage layer can import this package for its fault points.
from repro.resilience.apply import (
    ApplyExecutor,
    ApplyReport,
    DesignDelta,
    ValidationEntry,
    materialized_name,
)

__all__ = [
    "ApplyConflictError",
    "ApplyExecutor",
    "ApplyReport",
    "DEGRADE_ACTIONS",
    "DatabaseStateStore",
    "DegradedResult",
    "DesignDelta",
    "FAULT_POINT_DOCS",
    "FAULT_POINTS",
    "FaultInjected",
    "FaultInjector",
    "FileStateStore",
    "ResilienceError",
    "STATE_FORMAT",
    "StaleLeaseError",
    "StateCorruptError",
    "StateStore",
    "ValidationEntry",
    "ambient",
    "backup_path",
    "check",
    "dump_state",
    "has_state",
    "load_state",
    "materialized_name",
    "reset_ambient",
    "resolve",
    "store_from_spec",
    "torn_slot_paths",
]
