"""Workload drift detection: has the query mix really changed?

Re-advising on every statement would waste the advisor stack (and, on a
real system, the optimizer) on noise; never re-advising defeats online
tuning. The detector compares the *active window's* template
distribution against the distribution the last recommendation was
computed for, and reports drift only on real change:

* **weight change** — total-variation distance between the two
  distributions meets or exceeds a threshold (the mix shifted);
* **new templates** — a template absent from the baseline now holds a
  non-trivial share of the window (new query shape arrived);
* **vanished templates** — a template that mattered in the baseline no
  longer appears at all (a query shape went away, so indexes chosen for
  it may be dead weight).

All three comparisons are **inclusive** (``>=``): a distribution
sitting exactly on a threshold counts as drifted. Boundary behaviour
is pinned by tests — an exact-threshold stream must re-advise rather
than silently ride the edge forever.

All three signals are pure functions of the two distributions, so the
detector is deterministic and trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one baseline-vs-window comparison."""

    drifted: bool
    total_variation: float
    new_templates: tuple[str, ...] = ()
    vanished_templates: tuple[str, ...] = ()
    reasons: tuple[str, ...] = field(default=())

    @property
    def reason(self) -> str:
        return "; ".join(self.reasons) if self.reasons else "stable"


class DriftDetector:
    """Threshold-based drift detection over template distributions.

    Args:
        weight_threshold: Total-variation distance (0..1) at or above
            which the mix counts as shifted even with no new/vanished
            shapes (inclusive: distance == threshold drifts).
        new_template_share: Minimum window share a previously unseen
            template must hold to trigger drift on its own — one stray
            ad-hoc query is not a regime change (inclusive).
        vanished_template_share: Minimum *baseline* share a template
            must have held for its disappearance to trigger drift
            (inclusive).
    """

    def __init__(
        self,
        weight_threshold: float = 0.2,
        new_template_share: float = 0.05,
        vanished_template_share: float = 0.05,
    ) -> None:
        if not 0.0 < weight_threshold <= 1.0:
            raise ReproError("weight_threshold must be in (0, 1]")
        self.weight_threshold = weight_threshold
        self.new_template_share = new_template_share
        self.vanished_template_share = vanished_template_share

    def compare(
        self,
        baseline: dict[str, float],
        current: dict[str, float],
    ) -> DriftReport:
        """Compare two normalized template distributions.

        ``baseline`` is the distribution the last recommendation was
        computed for; ``current`` is the active window's.
        """
        # Summed in sorted order: set order follows the interpreter's
        # str hash seed, and a shift landing exactly on the threshold
        # must not fire or hold by the last ulp of the process it is in.
        keys = sorted(set(baseline) | set(current))
        total_variation = 0.5 * sum(
            abs(current.get(k, 0.0) - baseline.get(k, 0.0)) for k in keys
        )
        new = tuple(
            sorted(
                k
                for k in current
                if k not in baseline
                and current[k] >= self.new_template_share
            )
        )
        vanished = tuple(
            sorted(
                k
                for k in baseline
                if k not in current
                and baseline[k] >= self.vanished_template_share
            )
        )

        reasons: list[str] = []
        if total_variation >= self.weight_threshold:
            reasons.append(
                f"weight shift {total_variation:.2f} >= "
                f"{self.weight_threshold:.2f}"
            )
        if new:
            reasons.append(f"{len(new)} new template(s)")
        if vanished:
            reasons.append(f"{len(vanished)} vanished template(s)")
        return DriftReport(
            drifted=bool(reasons),
            total_variation=total_variation,
            new_templates=new,
            vanished_templates=vanished,
            reasons=tuple(reasons),
        )
