"""Online tuning: streaming workload monitor + incremental advisor loop.

The batch stack (PARINDA's advisors) answers "given this workload, what
design?"; this package keeps that answer current while the workload is
a live statement stream:

* :class:`~repro.online.monitor.WorkloadMonitor` — canonicalizes
  statements into literal-stripped templates (IN-list arity collapses
  to one template), classifies SELECT vs INSERT/UPDATE/DELETE (DML
  becomes per-table ``update_rates`` for the advisor's maintenance
  model), quarantines unparseable shapes, tracks a sliding window and a
  decayed long-term profile, and emits ordinary ``Workload`` snapshots
  so nothing downstream changes.
* :class:`~repro.online.drift.DriftDetector` — decides whether the
  active window has genuinely diverged from the distribution the
  standing recommendation was computed for (all thresholds inclusive).
* :class:`~repro.online.tuner.OnlineTuner` — the daemon loop: on drift,
  re-run the ILP advisor through the shared
  :class:`~repro.parallel.caches.CostCache` (warm re-advises reuse the
  cached INUM models and make no raw optimizer calls), apply a build-cost
  hysteresis, and log typed :class:`~repro.online.tuner.TuningEvent`\\ s.
  The drift check and any re-advise run inside ``observe()``, on the
  caller's thread. ``save_state`` / ``restore_state`` make the loop
  durable across restarts; given a state store, the tuner resumes from
  it and checkpoints into it itself.

Entry points: ``Parinda.online(...)`` on the facade, and
``python -m repro tune --stream FILE [--state FILE]``
on the CLI.
"""

from repro.online.drift import DriftDetector, DriftReport
from repro.online.monitor import (
    DML_KINDS,
    MONITOR_STATE_VERSION,
    QueryTemplate,
    WorkloadMonitor,
    canonicalize,
    canonicalize_tokens,
    classify_statement,
    render_statement,
)
from repro.online.tuner import (
    EVENT_KINDS,
    TUNER_STATE_VERSION,
    OnlineTuner,
    TuningEvent,
)

__all__ = [
    "DriftDetector",
    "DriftReport",
    "DML_KINDS",
    "MONITOR_STATE_VERSION",
    "QueryTemplate",
    "WorkloadMonitor",
    "canonicalize",
    "canonicalize_tokens",
    "classify_statement",
    "render_statement",
    "EVENT_KINDS",
    "TUNER_STATE_VERSION",
    "OnlineTuner",
    "TuningEvent",
]
