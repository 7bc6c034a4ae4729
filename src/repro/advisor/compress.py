"""CoPhy-style workload compression: statement streams → weighted templates.

The ILP's size grows with queries × candidate sets, so a raw
10k-statement stream is hopeless as direct advisor input even though it
usually contains only a few dozen distinct query *shapes*. Compression
folds the stream onto those shapes using the monitor's canonicalizer
(:func:`repro.online.monitor.canonicalize`): one representative
query per template (the first concrete statement observed), weighted by
the template's occurrence count, with DML statements aggregated into
per-table ``update_rates``.

The proof obligation — advising the compressed workload must be
**bit-identical** to advising the weight-equivalent expanded one — is
discharged by construction: an ``IlpIndexAdvisor(compress=True)``
routes *every* workload through :func:`fold_workload` first, and
folding is idempotent (template ids, representative SQL, and
weight-accumulation order are all pure functions of the statement
sequence). Its ``recommend(expanded)`` and
``recommend(compress(stream).workload)`` therefore feed the advisor
byte-identical inputs; ``tests/test_compress.py`` pins the resulting
floats with ``struct.pack``.

Weight arithmetic matters for that contract: occurrence counts
accumulate as repeated ``+ 1.0`` (and folding accumulates the input
queries' weights in stream order), so folding a stream and folding the
equivalent weight-1 expansion produce the same float in every position,
not merely the same value up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import (
    CanonicalizeError,
    ParseError,
    SQLError,
    TokenizeError,
)
from repro.online.monitor import (
    DML_KINDS,
    canonicalize,
    classify_tokens,
    template_name,
)
from repro.sql.parser import parse_select
from repro.sql.tokenizer import tokenize
from repro.workloads.workload import Query, Workload


@dataclass
class _Entry:
    """One template accumulating occurrences during a fold."""

    sequence: int
    sql: str
    kind: str
    target_table: str | None
    weight: float = 0.0


@dataclass
class CompressionResult:
    """Outcome of compressing one statement stream."""

    #: The template-weighted advisor input (SELECT templates only;
    #: DML mass rides on ``workload.update_rates``).
    workload: Workload
    #: Raw statements consumed from the stream.
    statements_in: int = 0
    #: Statements that landed on an advisable SELECT template.
    select_statements: int = 0
    #: Statements aggregated into per-table update_rates.
    dml_statements: int = 0
    #: Statements skipped: untemplatable, unparseable SELECT shapes, or
    #: kinds the advisor has no model for (bare EXPLAIN etc.).
    skipped: int = 0
    #: Why each skipped template was dropped (fingerprint -> reason).
    skipped_reasons: dict[str, str] = field(default_factory=dict)

    @property
    def templates(self) -> int:
        """Advisable templates emitted."""
        return len(self.workload.queries)

    @property
    def ratio(self) -> float:
        """Statements folded per emitted template (≥ 1.0)."""
        if not self.workload.queries:
            return 1.0
        return self.select_statements / len(self.workload.queries)


def compress_statements(
    statements: Iterable[str], name: str = "compressed"
) -> CompressionResult:
    """Fold a raw statement stream into a template-weighted workload.

    One :class:`Query` per advisable SELECT template — named with the
    monitor's stable template id, carrying the first observed statement
    as representative SQL, weighted by occurrence count — plus
    aggregated per-table ``update_rates`` from the stream's DML.
    Untemplatable statements and SELECT shapes that fail the full
    parser are counted on ``skipped`` instead of failing the fold (the
    streaming monitor quarantines the same shapes).
    """
    entries: dict[str, _Entry] = {}
    result = CompressionResult(workload=Workload(name=name))
    for sql in statements:
        result.statements_in += 1
        try:
            fingerprint = canonicalize(sql)
        except (TokenizeError, CanonicalizeError) as exc:
            result.skipped += 1
            result.skipped_reasons.setdefault(
                f"statement#{result.statements_in}", str(exc)
            )
            continue
        entry = entries.get(fingerprint)
        if entry is None:
            kind, target_table = classify_tokens(tokenize(sql))
            entry = _Entry(
                sequence=len(entries) + 1,
                sql=sql.strip().rstrip(";"),
                kind=kind,
                target_table=target_table,
            )
            if kind == "select":
                # Only a full parse proves the template is advisable;
                # checked once per template, not per statement.
                try:
                    parse_select(entry.sql)
                except (ParseError, SQLError) as exc:
                    entry.kind = "held"
                    result.skipped_reasons[fingerprint] = str(exc)
            entries[fingerprint] = entry
        entry.weight += 1.0
        if entry.kind == "select":
            result.select_statements += 1
        elif entry.kind in DML_KINDS and entry.target_table:
            result.dml_statements += 1
        else:
            result.skipped += 1

    queries: list[Query] = []
    update_rates: dict[str, float] = {}
    for fingerprint, entry in entries.items():
        if entry.kind == "select":
            queries.append(
                Query(
                    name=template_name(fingerprint, entry.sequence),
                    sql=entry.sql,
                    weight=entry.weight,
                )
            )
        elif entry.kind in DML_KINDS and entry.target_table:
            update_rates[entry.target_table] = (
                update_rates.get(entry.target_table, 0.0) + entry.weight
            )
    result.workload = Workload(
        queries=queries, name=name, update_rates=update_rates
    )
    return result


def fold_workload(workload: Workload, name: str | None = None) -> Workload:
    """Fold duplicate-template queries of ``workload`` into one each.

    Queries sharing a canonical fingerprint collapse to a single query
    named by the monitor's template id, whose weight is the sum of the
    folded queries' weights accumulated in workload order and whose SQL
    is the first occurrence's. ``update_rates`` pass through untouched.

    Idempotent, including float weights and query names — the advisor's
    ``compress=True`` path relies on ``fold(fold(w)) == fold(w)`` to
    make compressed-vs-expanded advising bit-identical. Queries with
    non-positive weight (which :class:`Query` normally forbids, but a
    decayed profile can underflow to) are dropped before the advisor
    builds models for them; they contribute zero benefit, so dropping
    them cannot change the recommendation.
    """
    entries: dict[str, _Entry] = {}
    for query in workload:
        if query.weight <= 0.0:
            continue
        fingerprint = canonicalize(query.sql)
        entry = entries.get(fingerprint)
        if entry is None:
            entry = _Entry(
                sequence=len(entries) + 1,
                sql=query.sql.strip().rstrip(";"),
                kind="select",
                target_table=None,
            )
            entries[fingerprint] = entry
        entry.weight += query.weight
    queries = [
        Query(
            name=template_name(fingerprint, entry.sequence),
            sql=entry.sql,
            weight=entry.weight,
        )
        for fingerprint, entry in entries.items()
    ]
    return Workload(
        queries=queries,
        name=name or f"{workload.name}~compressed",
        update_rates=dict(workload.update_rates),
    )
