"""Structured degradation records.

When a component survives a failure by shedding work — quarantining a
query, retrying a failed apply step, falling back to the greedy
solver, recovering state from a backup — it records one
:class:`DegradedResult` instead of (or in addition to) a log line.
Advisor results carry the list on their ``degraded`` field, so callers
and tests can assert exactly what was lost, and the CLI can surface it
as ``warning:`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass

# The closed set of degradation actions, from mildest to most lossy:
#   retried     — the work unit was re-run and succeeded; nothing lost.
#   recovered   — state was restored from the last-good checkpoint.
#   fallback    — a component was replaced by its degraded twin
#                 (ILP solver -> greedy selection).
#   quarantined — the work unit was dropped from this run's results.
DEGRADE_ACTIONS = (
    "retried",
    "recovered",
    "fallback",
    "quarantined",
)


@dataclass(frozen=True)
class DegradedResult:
    """One graceful-degradation decision, as seen from outside.

    Attributes:
        point: The fault point or boundary the failure surfaced at
            (``inum.build``, ``solver.iterate``, ``fleet.advise``, ...).
        subject: What degraded — a query name, file path, or component.
        action: One of :data:`DEGRADE_ACTIONS`.
        detail: Human-readable cause (usually the stringified error).
    """

    point: str
    subject: str
    action: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.point}[{self.subject or '-'}] {self.action}{suffix}"
