"""Deterministic, seeded fault injection at named pipeline points.

The pipeline calls :func:`check` at a handful of **fault points** —
places where production deployments actually fail and where the stack
has a graceful-degradation answer:

The authoritative list lives in :data:`FAULT_POINT_DOCS` (one dict,
point -> one-line description); :data:`FAULT_POINTS`, the unknown-point
error message, and the doc-drift tests in ``tests/test_apply.py`` are
all derived from it, so a new point cannot land without its docs.

With no injector active every check is a no-op (not even a counter
increment), so a fault-free run is bit-identical to one that never
imported this module. An **idle** injector (empty schedule) counts
invocations but never fires — useful for asserting a pipeline's fault
surface without perturbing it.

Activation
    Every fault point asks :func:`current` for the active injector;
    there is no per-component ``fault_injector`` argument to thread.

    * in a scope: ``with injecting(FaultInjector(...)):`` activates an
      injector for everything run inside the block, on this thread
      (one :class:`contextvars.ContextVar`). Scopes nest: the
      innermost wins, leaving a scope restores the enclosing one, and
      ``injecting(None)`` inherits the enclosing scope. The owners of
      durable writes — ``FleetController`` and the state stores — are
      the only classes that still take a ``fault_injector`` keyword;
      each enters its scope around its own public calls, so the
      injector reaches every check those calls make, journal writes
      included;
    * ambiently: the ``REPRO_FAULTS`` environment variable holds a
      schedule spec (see :meth:`FaultInjector.from_spec`) and
      ``REPRO_FAULTS_SEED`` the seed; CI uses this to replay exact
      failure schedules against unmodified commands. The ambient
      injector applies only where no scope is active.

Schedule spec
    ``;``-separated ``point:arg`` entries::

        REPRO_FAULTS="inum.build:3;state.write:2"    # 3rd build, 2nd write
        REPRO_FAULTS="inum.build:3,7"                # 3rd and 7th build
        REPRO_FAULTS="inum.build:%5"                 # every 5th build
        REPRO_FAULTS="solver.iterate:p0.01"          # 1% of nodes, seeded
        REPRO_FAULTS="stream.read:*"                 # every invocation

    Counts are 1-based over the injector's lifetime. Probability
    entries draw from a per-point ``random.Random`` seeded from
    ``(seed, point)``, so the schedule is a pure function of the seed
    and the (deterministic) invocation order.
"""

from __future__ import annotations

import functools
import os
import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar

from repro.errors import FaultInjected, ResilienceError

# The one source of truth for the fault surface. README's fault-point
# list and DESIGN.md's fault table are asserted against this mapping by
# tests, so the docs cannot drift when a point is added.
FAULT_POINT_DOCS: dict[str, str] = {
    "optimizer.plan": "one what-if plan inside AutoPart's pricing loop",
    "inum.build": "one per-query INUM model construction",
    "solver.iterate": "one branch-and-bound node expansion",
    "state.write": "one best-effort daemon state checkpoint",
    "stream.read": "one statement read off a daemon's stream",
    "index.build": "one B-Tree bulk build inside Database.create_index",
    "page.read": "one heap page/column read (executor scan, index build)",
    "journal.write": "one apply-journal write (ApplyExecutor)",
    "replica.apply": "one replica design apply inside a fleet rollout",
    "rollout.journal": "one fleet-rollout state-journal write (FleetController)",
    "validate.window": "one post-apply health-gate window validation",
    "store.read": "one state-store slot read (file or database backend)",
    "store.write": "one state-store slot write (file or database backend)",
    "lease.acquire": "one fenced writer-lease acquisition on a state store",
}

FAULT_POINTS = tuple(FAULT_POINT_DOCS)


class _Schedule:
    """When one fault point fires: exact counts, a period, or a rate."""

    def __init__(
        self,
        counts: frozenset[int] = frozenset(),
        every: int = 0,
        probability: float = 0.0,
        always: bool = False,
    ) -> None:
        self.counts = counts
        self.every = every
        self.probability = probability
        self.always = always

    def fires(self, count: int, rng: random.Random) -> bool:
        if self.always:
            return True
        if count in self.counts:
            return True
        if self.every and count % self.every == 0:
            return True
        if self.probability and rng.random() < self.probability:
            return True
        return False


def _parse_entry(entry: str) -> tuple[str, _Schedule]:
    point, sep, arg = entry.partition(":")
    point = point.strip()
    if point not in FAULT_POINTS:
        raise ResilienceError(
            f"unknown fault point {point!r}; known: {', '.join(FAULT_POINTS)}"
        )
    arg = arg.strip()
    if not sep or not arg:
        raise ResilienceError(f"fault entry {entry!r} needs point:arg")
    if arg == "*":
        return point, _Schedule(always=True)
    if arg.startswith("%"):
        every = int(arg[1:])
        if every <= 0:
            raise ResilienceError(f"bad period in fault entry {entry!r}")
        return point, _Schedule(every=every)
    if arg.startswith("p"):
        probability = float(arg[1:])
        if not 0.0 <= probability <= 1.0:
            raise ResilienceError(f"bad probability in fault entry {entry!r}")
        return point, _Schedule(probability=probability)
    try:
        counts = frozenset(int(part) for part in arg.split(","))
    except ValueError:
        raise ResilienceError(f"bad count list in fault entry {entry!r}") from None
    if any(count <= 0 for count in counts):
        raise ResilienceError(f"counts must be positive in {entry!r}")
    return point, _Schedule(counts=counts)


class FaultInjector:
    """Fires :class:`~repro.errors.FaultInjected` on a fixed schedule.

    Thread-safe: invocation counters are kept under one lock, so a
    count-based schedule fires exactly once no matter which thread's
    check lands on the scheduled invocation.

    Args:
        schedule: Mapping of fault point to its :class:`_Schedule`;
            usually built via :meth:`from_spec`. An empty schedule is
            an *idle* injector: it counts but never fires.
        seed: Seed for the per-point RNGs behind ``p``-rate entries.
    """

    def __init__(
        self,
        schedule: dict[str, _Schedule] | None = None,
        seed: int = 0,
    ) -> None:
        for point in schedule or {}:
            if point not in FAULT_POINTS:
                raise ResilienceError(f"unknown fault point {point!r}")
        self.seed = seed
        self._schedule = dict(schedule or {})
        self._lock = threading.Lock()
        self._checks = {point: 0 for point in FAULT_POINTS}
        self._fired = {point: 0 for point in FAULT_POINTS}
        self._rng = {
            point: random.Random(f"{seed}:{point}") for point in FAULT_POINTS
        }

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Parse a ``point:arg;point:arg`` schedule spec (module doc)."""
        schedule: dict[str, _Schedule] = {}
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            point, parsed = _parse_entry(entry)
            if point in schedule:
                raise ResilienceError(f"duplicate fault point {point!r} in spec")
            schedule[point] = parsed
        return cls(schedule=schedule, seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> "FaultInjector | None":
        """Build from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``; None when unset."""
        environ = environ if environ is not None else os.environ
        spec = environ.get("REPRO_FAULTS", "").strip()
        if not spec:
            return None
        seed = int(environ.get("REPRO_FAULTS_SEED", "0"))
        return cls.from_spec(spec, seed=seed)

    # ------------------------------------------------------------------

    def check(self, point: str, detail: str = "") -> None:
        """Count one invocation of ``point``; raise when scheduled.

        Raises:
            FaultInjected: when this invocation is on the schedule.
        """
        if point not in self._checks:
            raise ResilienceError(f"unknown fault point {point!r}")
        with self._lock:
            self._checks[point] += 1
            count = self._checks[point]
            schedule = self._schedule.get(point)
            fire = schedule is not None and schedule.fires(
                count, self._rng[point]
            )
            if fire:
                self._fired[point] += 1
        if fire:
            raise FaultInjected(point, detail, count)

    def checks(self, point: str | None = None) -> int:
        """Invocations seen (for ``point``, or total)."""
        with self._lock:
            if point is not None:
                return self._checks[point]
            return sum(self._checks.values())

    def fired(self, point: str | None = None) -> int:
        """Faults actually injected (for ``point``, or total)."""
        with self._lock:
            if point is not None:
                return self._fired[point]
            return sum(self._fired.values())

    @property
    def idle(self) -> bool:
        """True when the schedule can never fire."""
        return not self._schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        points = ",".join(sorted(self._schedule)) or "idle"
        return f"FaultInjector({points}, seed={self.seed})"


# ----------------------------------------------------------------------
# Ambient injector (REPRO_FAULTS): one per process, parsed lazily.

_ambient_lock = threading.Lock()
_ambient: FaultInjector | None = None
_ambient_spec: str | None = None  # the spec _ambient was parsed from


def ambient() -> FaultInjector | None:
    """The process-wide injector parsed from ``REPRO_FAULTS``, or None.

    Parsed once and cached so counters accumulate across call sites;
    re-parsed only when the environment variable changes (tests).
    """
    global _ambient, _ambient_spec
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    with _ambient_lock:
        if spec != _ambient_spec:
            _ambient_spec = spec
            _ambient = FaultInjector.from_env()
        return _ambient


def reset_ambient() -> None:
    """Drop the cached ambient injector (test isolation)."""
    global _ambient, _ambient_spec
    with _ambient_lock:
        _ambient = None
        _ambient_spec = None


# ----------------------------------------------------------------------
# Scoped injector: the one activation path every fault point reads.

_scope: ContextVar[FaultInjector | None] = ContextVar(
    "repro_faults", default=None
)


@contextmanager
def injecting(injector: FaultInjector | None):
    """Activate ``injector`` for the block; ``None`` inherits the scope."""
    if injector is None:
        yield
        return
    token = _scope.set(injector)
    try:
        yield
    finally:
        _scope.reset(token)


def scoped(method):
    """Run an owner's public ``method`` inside ``injecting(self._faults)``.

    Entered once per call, never per fault point; an owner holding no
    injector calls straight through.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if self._faults is None:
            return method(self, *args, **kwargs)
        with injecting(self._faults):
            return method(self, *args, **kwargs)

    return wrapper


def current() -> FaultInjector | None:
    """The innermost scope's injector, else the ambient one, else None."""
    injector = _scope.get()
    return injector if injector is not None else ambient()


def check(point: str, detail: str = "") -> None:
    """Fault-point check through :func:`current`; no-op when none."""
    injector = current()
    if injector is not None:
        injector.check(point, detail)
