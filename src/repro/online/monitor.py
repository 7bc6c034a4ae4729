"""Streaming workload observation: templates, windows, profiles.

The batch advisors consume a :class:`~repro.workloads.workload.Workload`
— a fixed set of weighted queries. A live system instead produces an
endless stream of statements whose *shapes* repeat while their literals
vary. The monitor bridges the two worlds:

* every observed statement is canonicalized into a **template** — the
  token stream with literals stripped — so ``ra < 180.1`` and
  ``ra < 12.9`` count as the same query; runs of stripped literals
  inside parentheses collapse to a single ``?+`` marker, so ``IN (1,2)``
  and ``IN (1,2,3)`` share one template instead of exploding the
  template table per IN-list arity;
* a **sliding window** of the last N observations tracks what the
  system is running *right now* (template frequencies over the window);
* an **exponentially decayed profile** tracks the long-term mix, so a
  burst does not erase history and history does not drown a real shift;
* DML statements (INSERT/UPDATE/DELETE) are first-class templates:
  they participate in the window and profile (so a write-heavy shift
  registers as drift) and are aggregated into per-table
  :meth:`WorkloadMonitor.update_rates` for the advisor's index
  maintenance model;
* :meth:`WorkloadMonitor.snapshot` converts the active window back into
  a plain ``Workload`` (one SELECT query per template, weighted by
  window frequency, using the template's first observed statement as
  the representative SQL, with DML rates on
  ``Workload.update_rates``), so the entire advisor stack downstream
  is unchanged.

Templates whose example statement tokenizes but does not survive the
full SELECT parser are **quarantined**: they keep counting in the
window (they are real traffic) but are excluded from snapshots, so one
malformed statement cannot fail every future re-advise. The tuner adds
bind-time failures to the same quarantine.

:meth:`WorkloadMonitor.save` / :meth:`WorkloadMonitor.load` round-trip
the whole state (templates, window, decayed profile, counters) through
a versioned JSON-able dict so a restarted daemon resumes warm.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import CanonicalizeError, ParseError, ReproError, SQLError, TokenizeError
from repro.sql.parser import parse_select
from repro.sql.tokenizer import Token, TokenType, literal_shape, strip_literals, tokenize
from repro.workloads.workload import Query, Workload

# Renormalize the decayed profile before per-observation weights can
# approach float overflow; the distribution is scale-invariant.
_RENORM_THRESHOLD = 1e12

# Serialization format of WorkloadMonitor.save()/load().
MONITOR_STATE_VERSION = 1

# Statement kinds the classifier distinguishes. "other" covers anything
# that tokenizes but is neither a SELECT nor a DML write (e.g. a bare
# EXPLAIN); such statements are observed but never advised on.
DML_KINDS = ("insert", "update", "delete")


def _collapse_placeholder_lists(parts: list[str]) -> list[str]:
    """Collapse ``( ? , ? , ... )`` runs into a single ``( ?+ )``.

    Applied uniformly to every parenthesized list made only of stripped
    literals, so template identity never depends on IN-list (or VALUES
    tuple) arity — a literal-varied IN-list workload maps onto one
    template instead of one per element count.
    """
    out: list[str] = []
    i = 0
    while i < len(parts):
        if parts[i] == "(":
            j = i + 1
            expect = "?"
            while j < len(parts) and parts[j] == expect:
                expect = "," if expect == "?" else "?"
                j += 1
            # A valid run ends right after a "?" and is closed by ")".
            if expect == "," and j < len(parts) and parts[j] == ")":
                out.extend(("(", "?+", ")"))
                i = j + 1
                continue
        out.append(parts[i])
        i += 1
    return out


def canonicalize(sql: str) -> str:
    """The literal-stripped fingerprint of one SQL statement.

    Scanned by the production tokenizer's own pattern (so comments, case
    folding, and quoting behave exactly as in the parser, and a
    statement the tokenizer rejects is rejected here with the same
    error) but without building tokens: every number and string literal
    becomes ``?``; parenthesized all-literal lists collapse to
    ``( ?+ )`` regardless of arity. Whitespace and literal values never
    influence the result; identifiers and structure always do.

    A statement is scanned once per shape: its
    :func:`~repro.sql.tokenizer.literal_shape` (the text with literal
    values erased) is itself SQL with the same fingerprint, so the
    fingerprint is memoized by shape and a statement of a known shape
    costs two substitutions and a lookup. Errors are never memoized: a
    shape that fails is rescanned as the original text, which raises
    the original message and position. Text without a safe shape
    (quoted identifiers, comments, ``?``, non-ASCII) is always scanned.
    """
    shape = literal_shape(sql)
    if shape is not None:
        try:
            return _shape_fingerprint(shape)
        except (TokenizeError, CanonicalizeError):
            pass
    return _fingerprint(strip_literals(sql))


@lru_cache(maxsize=1024)
def _shape_fingerprint(shape: str) -> str:
    return _fingerprint(strip_literals(shape))


def canonicalize_tokens(tokens: list[Token]) -> str:
    """:func:`canonicalize` over an already-tokenized statement."""
    parts: list[str] = []
    for token in tokens:
        if token.type is TokenType.EOF:
            break
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            parts.append("?")
        else:
            parts.append(token.value)
    return _fingerprint(parts)


def _fingerprint(parts: list[str]) -> str:
    # A trailing statement terminator is presentation, not shape.
    while parts and parts[-1] == ";":
        parts.pop()
    if not parts:
        raise CanonicalizeError("cannot canonicalize an empty statement")
    return " ".join(_collapse_placeholder_lists(parts))


def classify_tokens(tokens: list[Token]) -> tuple[str, str | None]:
    """``(kind, target_table)`` of one tokenized statement.

    ``kind`` is ``"select"``, one of :data:`DML_KINDS`, or ``"other"``;
    ``target_table`` is the written table for DML kinds (None when the
    statement is too malformed to name one — it then degrades to
    ``"other"``).
    """
    words = [t.value for t in tokens if t.type is not TokenType.EOF]
    if not words:
        return "other", None
    head = words[0]
    if head == "select":
        return "select", None
    try:
        if head == "insert" and words[1] == "into":
            return "insert", words[2]
        if head == "update":
            return "update", words[1]
        if head == "delete" and words[1] == "from":
            return "delete", words[2]
    except IndexError:
        return "other", None
    return "other", None


def classify_statement(sql: str) -> tuple[str, str | None]:
    """:func:`classify_tokens` over raw SQL text."""
    return classify_tokens(tokenize(sql))


def render_statement(tokens: list[Token]) -> str:
    """Re-emit a token list as parseable SQL text.

    Used by replay harnesses to produce literal-varied instances of a
    template; string literals regain their quotes (with embedded quotes
    re-doubled) and everything is space-separated, which the tokenizer
    treats identically to the original spacing.
    """
    parts = []
    for token in tokens:
        if token.type is TokenType.EOF:
            break
        if token.type is TokenType.STRING:
            parts.append("'" + token.value.replace("'", "''") + "'")
        else:
            parts.append(token.value)
    return " ".join(parts)


@dataclass(frozen=True)
class QueryTemplate:
    """One canonical query shape seen on the stream."""

    template_id: str  # stable, ordered name: t003_9f2a1c
    fingerprint: str  # the canonical (literal-stripped) text
    example_sql: str  # first concrete statement observed
    sequence: int  # first-seen order, 1-based
    kind: str = "select"  # select / insert / update / delete / other
    target_table: str | None = None  # written table, DML kinds only


def template_name(fingerprint: str, sequence: int) -> str:
    """Stable template id (``t003_9f2a1c``) for a fingerprint.

    Shared by the monitor and the workload compressor
    (:mod:`repro.advisor.compress`) so a compressed stream and a
    monitor snapshot of the same traffic name their queries
    identically.
    """
    digest = hashlib.sha1(fingerprint.encode()).hexdigest()[:6]
    return f"t{sequence:03d}_{digest}"


class WorkloadMonitor:
    """Ingests statements one at a time; answers "what runs here?".

    Args:
        window_size: Number of most recent statements the active window
            holds. The window is what :meth:`snapshot` and drift
            detection see.
        decay: Per-observation retention of the long-term profile. Each
            new statement carries weight 1 while all prior history is
            effectively multiplied by ``decay`` — e.g. 0.995 gives a
            half-life of ~139 statements.
    """

    def __init__(self, window_size: int = 128, decay: float = 0.995) -> None:
        if window_size <= 0:
            raise ReproError("window_size must be positive")
        if not 0.0 < decay <= 1.0:
            raise ReproError("decay must be in (0, 1]")
        self.window_size = window_size
        self.decay = decay
        self._templates: dict[str, QueryTemplate] = {}
        self._by_id: dict[str, str] = {}  # template_id -> fingerprint
        self._quarantined: set[str] = set()  # fingerprints
        self._quarantine_reasons: dict[str, str] = {}  # fingerprint -> why
        self._window: deque[str] = deque(maxlen=window_size)
        self._window_counts: dict[str, int] = {}
        self._profile: dict[str, float] = {}
        self._profile_weight = 1.0  # weight the next observation carries
        self._observed = 0

    # ------------------------------------------------------------------
    # Ingestion

    def observe(self, sql: str) -> QueryTemplate:
        """Ingest one statement; returns its template."""
        fingerprint = canonicalize(sql)
        template = self._templates.get(fingerprint)
        if template is None:
            # Tokens are only needed to classify a new template.
            kind, target_table = classify_tokens(tokenize(sql))
            sequence = len(self._templates) + 1
            template = QueryTemplate(
                template_id=template_name(fingerprint, sequence),
                fingerprint=fingerprint,
                example_sql=sql.strip().rstrip(";"),
                sequence=sequence,
                kind=kind,
                target_table=target_table,
            )
            self._templates[fingerprint] = template
            self._by_id[template.template_id] = fingerprint
            if kind == "select":
                # Tokenizing succeeded, but only a full parse proves the
                # statement is advisable; quarantine it otherwise so one
                # bad statement cannot fail every future snapshot()
                # re-advise. Checked once per template, not per statement.
                try:
                    parse_select(template.example_sql)
                except (ParseError, SQLError) as exc:
                    self._quarantined.add(fingerprint)
                    self._quarantine_reasons[fingerprint] = str(exc)
        self._observed += 1

        # Sliding window: deque handles expiry; counts track membership.
        if len(self._window) == self.window_size:
            expired = self._window[0]
            remaining = self._window_counts[expired] - 1
            if remaining:
                self._window_counts[expired] = remaining
            else:
                del self._window_counts[expired]
        self._window.append(fingerprint)
        self._window_counts[fingerprint] = (
            self._window_counts.get(fingerprint, 0) + 1
        )

        # Decayed profile: rather than multiplying every stored value by
        # `decay` per observation (O(templates)), grow the weight of new
        # observations by 1/decay — same distribution, O(1) per event.
        self._profile[fingerprint] = (
            self._profile.get(fingerprint, 0.0) + self._profile_weight
        )
        if self.decay < 1.0:
            self._profile_weight /= self.decay
            if self._profile_weight > _RENORM_THRESHOLD:
                scale = self._profile_weight
                for key in self._profile:
                    self._profile[key] /= scale
                self._profile_weight = 1.0
        return template

    # ------------------------------------------------------------------
    # Quarantine

    def quarantine(self, key: str, reason: str = "") -> QueryTemplate:
        """Exclude a template from future snapshots; returns it.

        ``key`` is a fingerprint or a template id (snapshot query names
        are template ids, so advise-time failures can be routed back
        here directly). The template keeps counting in the window — it
        is real traffic — it just stops reaching the advisor. ``reason``
        is kept for reporting (:attr:`quarantine_reasons`) and survives
        save/load.
        """
        fingerprint = self._by_id.get(key, key)
        template = self._templates.get(fingerprint)
        if template is None:
            raise ReproError(f"unknown template {key!r}")
        self._quarantined.add(fingerprint)
        if reason:
            self._quarantine_reasons.setdefault(fingerprint, reason)
        return template

    def is_quarantined(self, key: str) -> bool:
        return self._by_id.get(key, key) in self._quarantined

    @property
    def quarantined(self) -> frozenset[str]:
        """Fingerprints currently excluded from snapshots."""
        return frozenset(self._quarantined)

    @property
    def quarantine_reasons(self) -> dict[str, str]:
        """Why each quarantined fingerprint was excluded (best effort)."""
        return dict(self._quarantine_reasons)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def observed(self) -> int:
        """Total statements ingested since construction."""
        return self._observed

    @property
    def templates(self) -> dict[str, QueryTemplate]:
        """Every template ever seen, keyed by fingerprint."""
        return dict(self._templates)

    def template(self, fingerprint: str) -> QueryTemplate:
        try:
            return self._templates[fingerprint]
        except KeyError:
            raise ReproError(f"unknown template {fingerprint!r}") from None

    @property
    def window_counts(self) -> dict[str, int]:
        """Per-template statement counts over the active window."""
        return dict(self._window_counts)

    def window_distribution(self) -> dict[str, float]:
        """Normalized template shares over the active window."""
        return self._distribution(self._window_counts)

    def profile_distribution(self) -> dict[str, float]:
        """Normalized template shares of the decayed long-term profile."""
        return self._distribution(self._profile)

    def update_rates(self) -> dict[str, float]:
        """Weighted DML statements per written table, over the window.

        Statement-level rates (one unit per INSERT/UPDATE/DELETE), in
        the same units as snapshot query weights — exactly what
        ``IlpIndexAdvisor.recommend(update_rates=...)`` expects.
        """
        return self._update_rates(self._window_counts)

    def utilization_profile(self) -> dict[str, float]:
        """Normalized advisable-template weights over the active window.

        The fleet tuner's workload-compression contract: one entry per
        *advisable* template (SELECT kind, not quarantined), keyed by
        ``template_id`` and valued by the template's share of the
        advisable window traffic — the shares sum to 1.0. Held
        (quarantined) templates contribute nothing, and a template
        whose statements have all slid out of the window is absent
        outright, so consumers weighting by this profile automatically
        follow workload drift. Empty dict when the window holds no
        advisable template.
        """
        counts = {
            self._templates[fp].template_id: float(count)
            for fp, count in self._window_counts.items()
            if self._templates[fp].kind == "select"
            and fp not in self._quarantined
        }
        total = sum(counts.values())
        if not total:
            return {}
        return {tid: count / total for tid, count in counts.items()}

    def profile_update_rates(self) -> dict[str, float]:
        """Weighted DML statements per written table, decayed-profile units.

        The long-horizon counterpart of :meth:`update_rates`: per-table
        DML mass from the exponentially decayed profile, in the same
        units as :meth:`profile_snapshot` query weights.
        """
        return self._update_rates(self._profile)

    # ------------------------------------------------------------------
    # Bridge back to the batch stack

    def profile_snapshot(self, name: str | None = None) -> Workload:
        """The full decayed profile as an advisor-ready ``Workload``.

        Where :meth:`snapshot` answers "what ran in the last N
        statements", this answers "what has this system been running",
        with every advisable SELECT template ever observed weighted by
        its decayed profile mass and the profile's DML mass on
        ``update_rates`` — the input for re-advising against a day of
        traffic rather than a window of it.

        Templates whose profile mass has decayed all the way to zero
        (vanished traffic pushed below float resolution by profile
        renormalization) are filtered out here: a zero-weight query
        would otherwise still generate candidates, benefit-matrix rows,
        and ILP variables for statements that no longer run — and
        ``Query`` rejects non-positive weights outright. Filtering
        cannot change the recommendation: a query with zero weight
        contributes zero benefit everywhere.
        """
        return self._snapshot(self._profile, name or f"profile@{self._observed}")

    def snapshot(self, name: str | None = None) -> Workload:
        """The active window as a plain, advisor-ready ``Workload``.

        One query per advisable SELECT template currently in the window
        (quarantined and non-SELECT templates are excluded), in
        first-seen order (deterministic for a deterministic stream),
        weighted by its window count and carrying the template's first
        observed statement as the concrete SQL. The window's DML
        traffic rides along as ``Workload.update_rates``.
        """
        return self._snapshot(
            self._window_counts, name or f"online@{self._observed}"
        )

    # The window (``_window_counts``, every count >= 1) and the decayed
    # profile (``_profile``) are two mass maps over fingerprints; each
    # view of either is built here, iterating the map in its own order.

    @staticmethod
    def _distribution(masses: dict[str, float]) -> dict[str, float]:
        total = sum(masses.values())
        if not total:
            return {}
        return {fp: mass / total for fp, mass in masses.items()}

    def _update_rates(self, masses: dict[str, float]) -> dict[str, float]:
        rates: dict[str, float] = {}
        for fingerprint, mass in masses.items():
            if mass <= 0.0:
                continue
            template = self._templates[fingerprint]
            if template.kind in DML_KINDS and template.target_table:
                rates[template.target_table] = (
                    rates.get(template.target_table, 0.0) + float(mass)
                )
        return rates

    def _snapshot(self, masses: dict[str, float], name: str) -> Workload:
        templates = sorted(
            (
                self._templates[fp]
                for fp, mass in masses.items()
                if mass > 0.0
                and self._templates[fp].kind == "select"
                and fp not in self._quarantined
            ),
            key=lambda t: t.sequence,
        )
        queries = [
            Query(
                name=t.template_id,
                sql=t.example_sql,
                weight=float(masses[t.fingerprint]),
            )
            for t in templates
        ]
        return Workload(
            queries=queries, name=name, update_rates=self._update_rates(masses)
        )

    def clear_window(self) -> None:
        """Drop the active window; keep templates, profile, quarantine.

        The fleet controller clears a replica's window when its routing
        assignment changes (a rollout re-prices traffic), so drift
        baselines and post-apply health-gate validations compare
        against the traffic the replica *now* serves rather than a mix
        it no longer receives. Long-term state — learned templates,
        the decayed profile, quarantine — survives; only the sliding
        window restarts.
        """
        self._window.clear()
        self._window_counts = {}

    # ------------------------------------------------------------------
    # Sharded deployments

    def merge(self, other: "WorkloadMonitor") -> "WorkloadMonitor":
        """Combine two shard monitors into one fleet-level view.

        Multi-frontend deployments observe the same logical stream
        through several monitors (one per frontend / per replica); the
        drift check needs the combined picture. The merge is
        non-mutating and returns a new monitor whose window holds both
        shards' windows in full (``window_size`` is the sum, so nothing
        is evicted by the merge itself): window counts add, per-table
        update rates add, quarantine sets union (self's reason wins on
        overlap), and ``observed`` totals add.

        Template identity is by fingerprint. Self's templates keep
        their sequences (and therefore their template ids); templates
        only the other shard has seen are appended in that shard's
        first-seen order and re-sequenced, so the merged monitor's ids
        stay stable and deterministic for a deterministic pair of
        shards.

        Decayed profiles cannot be merged exactly without the global
        interleaving order, which sharding has discarded. Each shard's
        profile is rescaled so its most recent observation carries
        weight 1 — concurrently fed shards are "equally recent" — and
        the rescaled masses add. The *window* statistics, which is what
        drift detection consumes, merge exactly: as long as neither
        shard has evicted, the merged window counts equal those of a
        single monitor that observed the combined stream, so merged
        drift decisions match the combined monitor's (pinned by test).

        Both monitors must share the same ``decay``.
        """
        if other.decay != self.decay:
            raise ReproError(
                f"cannot merge monitors with different decay "
                f"({self.decay} vs {other.decay})"
            )
        merged = WorkloadMonitor(
            window_size=self.window_size + other.window_size,
            decay=self.decay,
        )
        for source in (self, other):
            for template in sorted(
                source._templates.values(), key=lambda t: t.sequence
            ):
                if template.fingerprint in merged._templates:
                    continue
                sequence = len(merged._templates) + 1
                renamed = QueryTemplate(
                    template_id=template_name(template.fingerprint, sequence),
                    fingerprint=template.fingerprint,
                    example_sql=template.example_sql,
                    sequence=sequence,
                    kind=template.kind,
                    target_table=template.target_table,
                )
                merged._templates[renamed.fingerprint] = renamed
                merged._by_id[renamed.template_id] = renamed.fingerprint
            for fingerprint in source._quarantined:
                merged._quarantined.add(fingerprint)
                reason = source._quarantine_reasons.get(fingerprint, "")
                if reason:
                    merged._quarantine_reasons.setdefault(fingerprint, reason)
            for fingerprint in source._window:
                merged._window.append(fingerprint)
                merged._window_counts[fingerprint] = (
                    merged._window_counts.get(fingerprint, 0) + 1
                )
            scale = source._profile_weight
            for fingerprint, mass in source._profile.items():
                merged._profile[fingerprint] = (
                    merged._profile.get(fingerprint, 0.0) + mass / scale
                )
            merged._observed += source._observed
        merged._profile_weight = 1.0
        return merged

    # ------------------------------------------------------------------
    # Durability

    def save(self) -> dict:
        """The full monitor state as a versioned, JSON-able dict."""
        return {
            "version": MONITOR_STATE_VERSION,
            "window_size": self.window_size,
            "decay": self.decay,
            "observed": self._observed,
            "profile_weight": self._profile_weight,
            "templates": [
                {
                    "fingerprint": t.fingerprint,
                    "example_sql": t.example_sql,
                    "sequence": t.sequence,
                    "kind": t.kind,
                    "target_table": t.target_table,
                    "quarantined": t.fingerprint in self._quarantined,
                    "quarantine_reason": self._quarantine_reasons.get(
                        t.fingerprint, ""
                    ),
                }
                for t in sorted(
                    self._templates.values(), key=lambda t: t.sequence
                )
            ],
            "window": list(self._window),
            "profile": dict(self._profile),
        }

    @classmethod
    def load(cls, state: dict) -> "WorkloadMonitor":
        """Rebuild a monitor from :meth:`save` output.

        Template ids are re-derived from (fingerprint, sequence), so a
        restored monitor emits identical snapshots — and therefore an
        identical advisor input — to the one that was saved.
        """
        version = state.get("version")
        if version != MONITOR_STATE_VERSION:
            raise ReproError(
                f"unsupported monitor state version {version!r} "
                f"(expected {MONITOR_STATE_VERSION})"
            )
        monitor = cls(
            window_size=int(state["window_size"]),
            decay=float(state["decay"]),
        )
        for entry in state["templates"]:
            template = QueryTemplate(
                template_id=template_name(
                    entry["fingerprint"], int(entry["sequence"])
                ),
                fingerprint=entry["fingerprint"],
                example_sql=entry["example_sql"],
                sequence=int(entry["sequence"]),
                kind=entry.get("kind", "select"),
                target_table=entry.get("target_table"),
            )
            monitor._templates[template.fingerprint] = template
            monitor._by_id[template.template_id] = template.fingerprint
            if entry.get("quarantined"):
                monitor._quarantined.add(template.fingerprint)
                reason = entry.get("quarantine_reason", "")
                if reason:
                    monitor._quarantine_reasons[template.fingerprint] = reason
        for fingerprint in state["window"]:
            if fingerprint not in monitor._templates:
                raise ReproError(
                    f"window references unknown template {fingerprint!r}"
                )
            monitor._window.append(fingerprint)
            monitor._window_counts[fingerprint] = (
                monitor._window_counts.get(fingerprint, 0) + 1
            )
        monitor._profile = {
            fp: float(weight) for fp, weight in state["profile"].items()
        }
        monitor._profile_weight = float(state["profile_weight"])
        monitor._observed = int(state["observed"])
        return monitor
