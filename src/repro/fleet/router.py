"""Cost-based statement routing across a tuned fleet.

Once the divergent tuner has given every replica its own design, a
statement should run wherever its template prices cheapest. The router
is the runtime half of that contract:

* **Pricing** is a table, not a planner call: the tuner prices every
  template against every replica design through the batched INUM
  evaluator and hands the router one ``(template, replica) -> cost``
  matrix, so routing one statement costs a dict lookup plus a scan
  over N replicas.
* **Determinism**: among eligible replicas the minimum-cost one wins,
  with cost ties broken toward the lowest replica id. Two routers fed
  the same statement sequence produce the same routes — always, not
  just usually — which is what makes fleet behaviour replayable.
* **Load balance**: a ``max_share`` cap keeps the cheapest replica
  from absorbing the whole stream. The invariant, checked by property
  test: after every route, each replica's routed weight is at most
  ``max_share × total + grain``, where ``grain`` is the heaviest
  single statement routed so far (granularity allowance — a weight
  cannot be split across replicas). With ``max_share ≥ 1/N`` an
  eligible replica always exists: if every replica were over the cap,
  the loads would sum to more than the total routed weight.

Statements are matched to templates by the monitor's canonical
fingerprint (:func:`repro.online.monitor.canonicalize`), so literal
variations of a tuned template route identically. A statement whose
shape the tuner never saw has no cost row; it falls back to the
least-loaded replica (deterministic: lowest id on ties) and is counted
on :attr:`Router.unknown_routed`.

**Degenerate pricing.** Construction rejects non-finite or negative
cost entries with a typed :class:`~repro.errors.ReproError` — they can
only come from a broken pricing step, and min() over NaN rows would
silently produce order-dependent routes. An *all-zero* cost row is
legal but uninformative (an empty or zero-cost pricing workload);
rather than pinning every such statement to replica 0 by tie-break,
the router balances them like unknown templates — least-loaded, ties
to the lowest id, which under uniform weights degenerates to a clean
round-robin — and counts them on :attr:`Router.unpriced_routed`. An
empty cost table is likewise legal: every statement takes the
least-loaded fallback.

**Rotation control.** The fleet controller takes replicas out of
serving rotation one at a time (a rollout transition, a quarantined
apply): :meth:`Router.exclude` removes a replica from every subsequent
assignment — its load re-prices onto the survivors — and
:meth:`Router.restore` puts it back. Excluding the last serving
replica is refused: a fleet with nobody in rotation cannot route.
While replicas are excluded the load-cap invariant is measured against
the *surviving* rotation, so the cap may be exceeded on survivors by
exactly the excluded replicas' share — capacity loss, not a bug.

**Persistence.** :meth:`Router.save`/:meth:`Router.load` round-trip
the whole router (cost table, fingerprint map, loads, exclusions,
fallback counters) through a JSON-able dict so a restarted controller
resumes routing deterministically: the restored router routes any
suffix of the stream exactly as the original would have.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.errors import ReproError
from repro.online.monitor import canonicalize

# Float-comparison slack for the eligibility test; routed weights are
# sums of user-supplied weights, so exact equality is too brittle.
_EPS = 1e-9

# Serialization format of Router.save()/load().
ROUTER_STATE_VERSION = 1


class Router:
    """Assign statements to the replica whose design prices them cheapest.

    Args:
        costs: Per-template routing costs: template name -> one cost
            per replica (aligned with replica ids ``0..N-1``).
        n_replicas: Fleet width; every cost row must have this length.
        max_share: Load-balance cap — the maximum fraction of total
            routed weight any single replica may hold (up to the
            documented one-statement granularity allowance). Must be
            at least ``1/n_replicas`` or no valid routing exists.
        fingerprints: Canonical-fingerprint -> template-name map for
            routing raw SQL text. Statements are canonicalized and
            looked up here; omit it to route by template name only.
    """

    def __init__(
        self,
        costs: Mapping[str, Sequence[float]],
        n_replicas: int,
        *,
        max_share: float = 1.0,
        fingerprints: Mapping[str, str] | None = None,
    ) -> None:
        if n_replicas <= 0:
            raise ReproError("n_replicas must be positive")
        if not 0.0 < max_share <= 1.0:
            raise ReproError("max_share must be in (0, 1]")
        if max_share * n_replicas < 1.0 - _EPS:
            raise ReproError(
                f"max_share={max_share} cannot spread a stream over "
                f"{n_replicas} replicas (needs max_share >= 1/{n_replicas})"
            )
        self.n_replicas = n_replicas
        self.max_share = max_share
        self._costs: dict[str, tuple[float, ...]] = {}
        self._unpriced: set[str] = set()
        for name, row in costs.items():
            row = tuple(float(c) for c in row)
            if len(row) != n_replicas:
                raise ReproError(
                    f"cost row for {name!r} has {len(row)} entries; "
                    f"expected {n_replicas}"
                )
            for cost in row:
                if not math.isfinite(cost):
                    raise ReproError(
                        f"cost row for {name!r} contains non-finite "
                        f"entry {cost!r}"
                    )
                if cost < 0:
                    raise ReproError(
                        f"cost row for {name!r} contains negative "
                        f"entry {cost!r}"
                    )
            if not any(row):
                # All-zero row: the pricing step estimated zero cost
                # everywhere (empty evaluation workload, fully cached
                # zero-cost template...). "Cheapest replica" is
                # meaningless here, and min-with-tie-break would pin
                # every such statement to replica 0 — so treat the
                # template like an unpriced one and keep the fleet
                # level instead (least-loaded, ties to lowest id, which
                # under uniform weights is a deterministic round-robin).
                self._unpriced.add(name)
                continue
            self._costs[name] = row
        self._fingerprints = dict(fingerprints or {})
        self._excluded: set[int] = set()
        self._loads = [0.0] * n_replicas
        self._total = 0.0
        self._grain = 0.0
        #: Statements routed without a known template (fallback path).
        self.unknown_routed = 0
        #: Statements whose template had an all-zero cost row and was
        #: routed by load balance instead of price.
        self.unpriced_routed = 0
        #: Total statements routed.
        self.routed = 0

    # ------------------------------------------------------------------

    def route(self, statement: str, weight: float = 1.0) -> int:
        """Route one SQL statement; returns the chosen replica id."""
        name = self._fingerprints.get(canonicalize(statement))
        if name is None or (
            name not in self._costs and name not in self._unpriced
        ):
            self.unknown_routed += 1
            return self._assign(None, weight)
        if name in self._unpriced:
            self.unpriced_routed += 1
            return self._assign(None, weight)
        return self._assign(self._costs[name], weight)

    def route_template(self, name: str, weight: float = 1.0) -> int:
        """Route by template/query name (the tuner's own route step)."""
        row = self._costs.get(name)
        if row is None:
            if name in self._unpriced:
                self.unpriced_routed += 1
            else:
                self.unknown_routed += 1
        return self._assign(row, weight)

    def costs_for(self, name: str) -> tuple[float, ...] | None:
        """The routing-cost row for one template (None when unknown)."""
        return self._costs.get(name)

    # ------------------------------------------------------------------

    def _assign(self, row: Sequence[float] | None, weight: float) -> int:
        if weight <= 0:
            raise ReproError("statement weight must be positive")
        grain = max(self._grain, weight)
        cap = self.max_share * (self._total + weight) + grain + _EPS
        rotation = [
            r for r in range(self.n_replicas) if r not in self._excluded
        ]
        eligible = [r for r in rotation if self._loads[r] + weight <= cap]
        if not eligible:
            # With every replica in rotation this is unreachable for
            # max_share >= 1/N (see module doc); with exclusions the
            # survivors legitimately absorb the excluded share, so the
            # cap yields to availability.
            eligible = rotation
        if row is None:
            # No pricing: keep the fleet level. Lowest load wins, ties
            # toward the lowest replica id.
            chosen = min(eligible, key=lambda r: (self._loads[r], r))
        else:
            chosen = min(eligible, key=lambda r: (row[r], r))
        self._loads[chosen] += weight
        self._total += weight
        self._grain = grain
        self.routed += 1
        return chosen

    # ------------------------------------------------------------------
    # Rotation control (fleet rollouts / quarantine)

    def _check_replica(self, replica_id: int) -> int:
        replica_id = int(replica_id)
        if not 0 <= replica_id < self.n_replicas:
            raise ReproError(
                f"replica id {replica_id} out of range 0..{self.n_replicas - 1}"
            )
        return replica_id

    def exclude(self, replica_id: int) -> None:
        """Take one replica out of serving rotation.

        Subsequent assignments never pick it; its share re-prices onto
        the survivors. Idempotent. Refused when it would leave nobody
        in rotation — an empty rotation cannot route anything.
        """
        replica_id = self._check_replica(replica_id)
        if len(self._excluded | {replica_id}) >= self.n_replicas:
            raise ReproError(
                "cannot exclude the last replica in serving rotation"
            )
        self._excluded.add(replica_id)

    def restore(self, replica_id: int) -> None:
        """Return an excluded replica to serving rotation (idempotent)."""
        self._excluded.discard(self._check_replica(replica_id))

    @property
    def excluded(self) -> frozenset[int]:
        """Replica ids currently out of serving rotation."""
        return frozenset(self._excluded)

    # ------------------------------------------------------------------
    # Persistence

    def save(self) -> dict:
        """The full router state as a versioned, JSON-able dict."""
        return {
            "version": ROUTER_STATE_VERSION,
            "n_replicas": self.n_replicas,
            "max_share": self.max_share,
            "costs": {name: list(row) for name, row in self._costs.items()},
            "unpriced": sorted(self._unpriced),
            "fingerprints": dict(self._fingerprints),
            "excluded": sorted(self._excluded),
            "loads": list(self._loads),
            "total": self._total,
            "grain": self._grain,
            "unknown_routed": self.unknown_routed,
            "unpriced_routed": self.unpriced_routed,
            "routed": self.routed,
        }

    @classmethod
    def load(cls, state: dict) -> "Router":
        """Rebuild a router from :meth:`save` output.

        The restored router routes any statement suffix exactly as the
        saved one would have: cost table, fingerprint map, per-replica
        loads, the granularity allowance, exclusions, and the fallback
        counters all round-trip.
        """
        version = state.get("version")
        if version != ROUTER_STATE_VERSION:
            raise ReproError(
                f"unsupported router state version {version!r} "
                f"(expected {ROUTER_STATE_VERSION})"
            )
        router = cls(
            {name: row for name, row in state["costs"].items()},
            int(state["n_replicas"]),
            max_share=float(state["max_share"]),
            fingerprints=state.get("fingerprints") or {},
        )
        # Unpriced (all-zero) rows were filtered out of the cost table
        # at construction; restore their membership directly.
        router._unpriced = set(state.get("unpriced", ()))
        for replica_id in state.get("excluded", ()):
            router.exclude(replica_id)
        router._loads = [float(load) for load in state["loads"]]
        if len(router._loads) != router.n_replicas:
            raise ReproError("router state loads do not match n_replicas")
        router._total = float(state["total"])
        router._grain = float(state["grain"])
        router.unknown_routed = int(state["unknown_routed"])
        router.unpriced_routed = int(state["unpriced_routed"])
        router.routed = int(state["routed"])
        return router

    # ------------------------------------------------------------------

    @property
    def loads(self) -> tuple[float, ...]:
        """Routed weight per replica so far."""
        return tuple(self._loads)

    @property
    def total_weight(self) -> float:
        return self._total

    def shares(self) -> tuple[float, ...]:
        """Load fractions per replica (zeros before any routing)."""
        if self._total <= 0:
            return tuple(0.0 for _ in range(self.n_replicas))
        return tuple(load / self._total for load in self._loads)

    def reset(self) -> None:
        """Erase every routing decision; keep the pricing.

        Pinned semantics (property-tested): after ``reset()`` the
        router behaves exactly like a freshly constructed
        ``Router(costs, n_replicas, max_share=..., fingerprints=...)``
        — loads, the granularity allowance, exclusions, and all three
        fallback counters are cleared, so a fresh rollout can never
        inherit stale assignments or a stale rotation. Only the static
        pricing inputs (cost table, unpriced set, fingerprint map)
        survive.
        """
        self._loads = [0.0] * self.n_replicas
        self._total = 0.0
        self._grain = 0.0
        self._excluded = set()
        self.unknown_routed = 0
        self.unpriced_routed = 0
        self.routed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Router(replicas={self.n_replicas}, templates={len(self._costs)}, "
            f"max_share={self.max_share}, routed={self.routed})"
        )
