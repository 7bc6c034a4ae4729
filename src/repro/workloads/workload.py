"""Workload container: named, weighted SQL queries."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from repro.catalog.catalog import Catalog
from repro.errors import ReproError
from repro.sql.ast_nodes import SelectStmt
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_select


@dataclass(frozen=True)
class Query:
    """One workload query.

    ``weight`` models relative frequency: benefit computations multiply
    per-execution savings by it.
    """

    name: str
    sql: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ReproError(f"query {self.name!r} must have positive weight")

    def parse(self) -> SelectStmt:
        return parse_select(self.sql)

    def bind(self, catalog: Catalog) -> BoundQuery:
        return bind(catalog, self.parse())


@dataclass
class Workload:
    """An ordered collection of queries.

    ``update_rates`` carries the write side of the workload: weighted
    row-update statements per table name, in the same units as query
    weights. Advisors that model index maintenance
    (:meth:`IlpIndexAdvisor.recommend`) consume it; everything else
    ignores it. The online monitor fills it from observed
    INSERT/UPDATE/DELETE statements so write-heavy shifts reach the
    advisor.
    """

    queries: list[Query] = field(default_factory=list)
    name: str = "workload"
    update_rates: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [q.name for q in self.queries]
        if len(set(names)) != len(names):
            raise ReproError(f"workload {self.name!r} has duplicate query names")

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def query(self, name: str) -> Query:
        for query in self.queries:
            if query.name == name:
                return query
        raise ReproError(f"no query named {name!r} in workload {self.name!r}")

    @property
    def total_weight(self) -> float:
        return sum(q.weight for q in self.queries)

    def subset(self, count: int, name: str | None = None) -> "Workload":
        """The first ``count`` queries (workload-size scaling sweeps)."""
        return Workload(
            queries=self.queries[:count],
            name=name or f"{self.name}[:{count}]",
            update_rates=dict(self.update_rates),
        )

    def compress(self, name: str | None = None) -> "Workload":
        """Fold duplicate-template queries into weighted representatives.

        CoPhy-style workload compression: queries whose SQL shares a
        canonical (literal-stripped) fingerprint collapse into one
        query weighted by their summed weights, so advisor cost grows
        with the number of query *shapes* instead of raw statements.
        Idempotent; see :func:`repro.advisor.compress.fold_workload`.
        """
        from repro.advisor.compress import fold_workload

        return fold_workload(self, name=name)

    @classmethod
    def from_sql(cls, statements: list[str], name: str = "workload") -> "Workload":
        """Build a workload from bare SQL strings (auto-named q1..qN)."""
        return cls(
            queries=[
                Query(name=f"q{i + 1}", sql=sql) for i, sql in enumerate(statements)
            ],
            name=name,
        )

    @classmethod
    def from_file(cls, path: str, name: str | None = None) -> "Workload":
        """Load semicolon-separated queries from a SQL file.

        Mirrors the demo GUI's "workload file" input. Lines starting
        with ``--`` are comments.
        """
        return cls.from_sql(list(iter_statements(path)), name=name or path)


def iter_statements(source: str | IO[str] | Iterable[str] | None) -> Iterator[str]:
    """Yield semicolon-separated SQL statements from ``source``.

    ``source`` may be a file path, ``"-"`` or ``None`` for stdin, an
    open text stream, or any iterable of text chunks. Files and streams
    are read line by line, so each statement is yielded as soon as its
    ``;`` arrives: a live stream (``tail -f log | ... --stream -``) is
    observed while it is still open. Statements are stripped; empty
    ones are dropped. Comments (``--``, ``/* */``) pass through
    untouched — the tokenizer skips them. This is the single statement
    reader shared by ``Workload.from_file``, the CLI's ``tune
    --stream``, and the replay harness.
    """
    if source is None or source == "-":
        yield from _split_statements(sys.stdin)
    elif isinstance(source, str):
        with open(source) as handle:
            yield from _split_statements(handle)
    else:
        yield from _split_statements(source)


def _split_statements(chunks: Iterable[str]) -> Iterator[str]:
    """``"".join(chunks).split(";")``, stripped and non-empty, yielded
    as each ``;`` arrives."""
    tail: list[str] = []  # text since the last ";"
    for chunk in chunks:
        pieces = chunk.split(";")
        if len(pieces) > 1:
            tail.append(pieces[0])
            pieces[0] = "".join(tail)
            tail = []
            for statement in pieces[:-1]:
                statement = statement.strip()
                if statement:
                    yield statement
        tail.append(pieces[-1])
    statement = "".join(tail).strip()
    if statement:
        yield statement
