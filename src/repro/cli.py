"""Command-line interface: the demo GUI's three screens, as subcommands.

The demo database is synthetic (the storage engine is in-process), so a
``--db`` option selects and scales one of the built-in generators
instead of connecting somewhere::

    python -m repro suggest-indexes    --budget-mb 16
    python -m repro suggest-partitions --replication 0.3
    python -m repro evaluate --index photoobj:ra,dec --index specobj:z
    python -m repro explain  --sql "SELECT ra FROM photoobj WHERE ra < 1" \
                             --index photoobj:ra
    python -m repro tune --stream queries.sql   # or: --stream - (stdin)

``--workload FILE`` accepts a semicolon-separated SQL file (the demo's
"workload file" input); by default the built-in 30-query survey
workload is used. ``tune --stream`` runs the online tuning loop over a
statement stream instead of a fixed workload.

Diagnostics that degrade result fidelity (truncated INUM order
combinations, recommendations held back by hysteresis, degraded
re-advises) are surfaced as ``warning:`` lines on stderr, not buried
in result objects.

``tune`` is the durable daemon entry point, so it runs with the full
degradation ladder on: state files are checksummed with last-good
``.bak`` recovery, a failed re-advise logs and continues, and a stream
that disappears mid-run (the file deleted, a pipe closed) flushes one
final checkpoint and exits with the distinct code
:data:`EXIT_STREAM_LOST` so supervisors can tell "input went away"
from "the tuner crashed".

``tune --apply`` materializes the final standing design through the
journaled :class:`~repro.resilience.apply.ApplyExecutor`: an intent
journal (default ``STATE.apply``, override with ``--journal``) precedes
every drop/build, so a killed apply resumes by re-running the same
command and ``tune --rollback`` restores the journaled pre-apply
design. A journal that records a *different* unfinished run exits with
:data:`EXIT_APPLY_CONFLICT` — resolve it (re-run or roll back) before
applying something new.

All persistence goes through one
:class:`~repro.resilience.store.StateStore`, built here at the edge.
``--store SPEC`` (on ``tune`` and ``fleet --serve``) names it:
``file:PATH`` keeps checksummed local files, ``db:[PATH]`` keeps state
*inside the monitored database*, so a daemon restarted on a fresh host
with zero local files resumes the same loop. The daemon acquires a
fenced writer lease at startup; a superseded daemon (another one
acquired after it) exits :data:`EXIT_STALE_LEASE` on its next write
instead of corrupting the new owner's journal. ``--state FILE`` is
``--store file:FILE`` without the lease. Exit codes live
in :mod:`repro.exit_codes`, one module, pinned to the README table by
a doc-drift test.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from repro.advisor.compress import compress_statements
from repro.bench.reporting import ResultTable
from repro.core.parinda import Parinda
from repro.errors import (
    ApplyConflictError,
    CanonicalizeError,
    FaultInjected,
    ReproError,
    ResilienceError,
    StaleLeaseError,
    StateCorruptError,
    TokenizeError,
)

# Re-exported here for back-compat: scripts (and the test suite) import
# exit codes from repro.cli; their single source of truth — with docs
# and the README doc-drift pin — is repro.exit_codes.
from repro.exit_codes import (
    EXIT_APPLY_CONFLICT,
    EXIT_OK,
    EXIT_ROLLOUT_FROZEN,
    EXIT_STALE_LEASE,
    EXIT_STREAM_LOST,
)
from repro.optimizer.explain import explain
from repro.resilience import faults
from repro.resilience.store import (
    FileStateStore,
    StateStore,
    store_from_spec,
    torn_slot_paths,
)
from repro.storage.database import Database
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.star import build_star_database, star_workload
from repro.workloads.workload import Workload, iter_statements


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _warn_truncation(result) -> None:
    """Surface degraded INUM fidelity as a user-facing warning."""
    truncated = getattr(result, "combinations_truncated", 0)
    if truncated:
        _warn(
            f"{truncated} interesting-order combination(s) were dropped "
            "(max_combinations cap); INUM estimates may over-approximate "
            "for the affected queries"
        )


def _budget_mb(text: str) -> float:
    """argparse ``type=`` of every ``--budget-mb``: finite and above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of megabytes above zero, got {text!r}"
        )
    return value


def _non_negative(text: str) -> float:
    """argparse ``type=`` of ``--replication``, ``--build-cost-per-page``
    and ``--tolerance``: finite and at least zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, zero or above, got {text!r}"
        )
    return value


def _share(text: str) -> float:
    """argparse ``type=`` of ``--max-share``: a fraction in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a fraction above 0 and at most 1, got {text!r}"
        )
    return value


def _whole(low: int):
    """argparse ``type=`` of the integer flags: a whole number >= ``low``
    (1 for ``--replicas``, ``--rounds``, ``--window``,
    ``--check-interval``, ``--state-interval``, ``--regression-windows``
    and ``--cache-entries``; 0 for ``--warmup``, ``--probation`` and
    ``--release``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a whole number, {low} or above, got {text!r}"
            )
        return value

    return parse


def _load_database(spec: str) -> Database:
    name, _, scale = spec.partition(":")
    if name not in ("sdss", "star"):
        raise SystemExit(f"unknown --db {spec!r}; use sdss[:rows] or star[:rows]")
    rows = None
    if scale:
        try:
            rows = int(scale)
        except ValueError:
            rows = -1
        if rows < 0:
            raise SystemExit(
                f"bad --db {spec!r}; rows must be a whole number, zero or above"
            )
    if name == "sdss":
        return build_sdss_database(photo_rows=10_000 if rows is None else rows)
    return build_star_database(fact_rows=8_000 if rows is None else rows)


def _build_store(args: argparse.Namespace, db: Database) -> StateStore | None:
    """Turn ``--state FILE`` / ``--store SPEC`` into the run's store.

    ``--state`` never acquires: single-writer, unfenced, no ``.lease``
    sidecar. ``--store`` acquires the fenced writer lease, which bumps
    the persisted epoch, so any daemon still holding the previous lease
    is fenced out: its next store write raises
    :class:`~repro.errors.StaleLeaseError` and the process exits
    :data:`EXIT_STALE_LEASE` instead of clobbering this run's journal.
    """
    if not args.store:
        return FileStateStore(args.state) if args.state else None
    if args.state or getattr(args, "journal", None):
        raise SystemExit(
            "--store replaces --state and --journal (the apply journal "
            "lives in the store's 'apply' slot); pass one or the other"
        )
    try:
        store = store_from_spec(args.store, database=db)
    except ReproError as exc:
        raise SystemExit(str(exc))
    owner = f"pid:{os.getpid()}"
    epoch = store.acquire(owner=owner)
    print(f"State store {store.describe()}: lease epoch {epoch} ({owner}).")
    return store


def _resume_state(args: argparse.Namespace, store: StateStore | None) -> dict | None:
    """The primary slot's saved state, or None for a cold start.

    The read goes through the checksum envelope: a torn primary falls
    back to the rotated ``.bak`` (with a warning), and when both copies
    are gone the daemon warns and starts cold rather than dying on its
    own state.
    """
    if store is None or not store.exists(""):
        return None
    try:
        saved, source = store.read("")
    except StateCorruptError as exc:
        noun = "store" if args.store else "file"
        _warn(f"state {noun} unrecoverable ({exc}); starting cold")
        return None
    if source == "backup":
        _warn(
            "state primary was corrupt; resumed from last-good "
            f"checkpoint {torn_slot_paths(store)[1]}"
        )
    return saved


def _checkpoint(store: StateStore | None, snapshot, position: int) -> None:
    """Write ``snapshot(position)`` into the primary slot, best effort.

    A failed save must never kill the loop — the in-memory state is
    still healthy and the next interval retries — so disk errors and
    injected ``state.write`` faults are reported as warnings. One
    deliberate exception: :class:`~repro.errors.StaleLeaseError`
    propagates, because a fenced-out daemon must die, not keep serving
    while another daemon owns the journal.
    """
    if store is None:
        return
    state = snapshot(position)
    try:
        store.write("", state, fault_point="state.write")
    except (OSError, FaultInjected) as exc:
        _warn(
            f"state checkpoint to {store.describe()} failed ({exc}); "
            "continuing"
        )


def _drive_stream(
    args: argparse.Namespace,
    store: StateStore | None,
    observe,
    snapshot,
    resume_position: int,
    *,
    periodic: bool,
    settle=None,
) -> tuple[int, str | None]:
    """The ``tune`` / ``fleet --serve`` loop; returns (skipped, stream_lost).

    Statements up to ``resume_position`` were observed by a previous
    run and are skipped. ``snapshot(position)`` is checkpointed every
    ``--state-interval`` statements when ``periodic``, and once more
    after ``settle`` at the end. A stream that goes away mid-run
    (``OSError``: file deleted under us, pipe closed, disk gone; or the
    ``stream.read`` injection point) still gets that final flush and is
    reported as ``stream_lost``, for :data:`EXIT_STREAM_LOST`. Any other
    :class:`FaultInjected` (``rollout.journal``, ``journal.write``)
    stands in for a crash and must kill the process like one.
    """
    position = skipped = 0
    stream_lost: str | None = None
    try:
        for statement in iter_statements(args.stream):
            # Checked before the position counter moves, so a checkpoint
            # flushed after a loss never skips the lost statement on
            # resume.
            faults.check("stream.read", f"statement {position + 1}")
            position += 1
            if position <= resume_position:
                continue
            try:
                observe(statement)
            except (TokenizeError, CanonicalizeError) as exc:
                # Not even a template: drop it. Statements that DO
                # template but fail the parser or binder are quarantined
                # by the monitor instead, so one bad shape cannot fail
                # every future snapshot re-advise.
                skipped += 1
                _warn(f"skipped untemplatable statement: {exc}")
            if periodic and position % args.state_interval == 0:
                _checkpoint(store, snapshot, position)
    except OSError as exc:
        stream_lost = str(exc)
    except FaultInjected as exc:
        if exc.point != "stream.read":
            raise
        stream_lost = str(exc)
    if stream_lost is not None:
        _warn(
            f"statement stream lost after {position} statement(s): "
            f"{stream_lost}; flushing final checkpoint"
        )
    if settle is not None:
        settle(stream_lost)
    _checkpoint(store, snapshot, position)
    return skipped, stream_lost


def _load_workload(path: str | None, db_spec: str) -> Workload:
    if path is not None:
        try:
            return Workload.from_file(path)
        except OSError as exc:
            raise SystemExit(f"error: {exc}")
    return sdss_workload() if db_spec.startswith("sdss") else star_workload()


def _parse_index_spec(spec: str) -> tuple[str, tuple[str, ...]]:
    table, _, columns = spec.partition(":")
    if not table or not columns:
        raise SystemExit(
            f"bad --index {spec!r}; expected table:col1,col2 (e.g. photoobj:ra,dec)"
        )
    return table, tuple(c.strip() for c in columns.split(","))


def _per_query_table(title: str, entries) -> ResultTable:
    table = ResultTable(title, ["query", "before", "after", "benefit %", "uses"])
    for entry in entries:
        pct = (
            (entry.cost_before - entry.cost_after) / entry.cost_before * 100
            if entry.cost_before
            else 0.0
        )
        table.add_row(
            entry.name,
            entry.cost_before,
            entry.cost_after,
            f"{pct:.1f}",
            ", ".join(entry.indexes_used) or "-",
        )
    return table


# ----------------------------------------------------------------------
# Subcommands


def cmd_suggest_indexes(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    folded = None
    if args.compress and args.workload is not None:
        # A statement file in scale mode is a raw stream: fold it the
        # way `tune` reads one, so a statement that cannot be templated
        # or parsed is counted and skipped instead of failing the run.
        folded = compress_statements(
            iter_statements(args.workload), name=args.workload
        )
        workload = folded.workload
        for where, reason in folded.skipped_reasons.items():
            _warn(f"skipped {where}: {reason}")
    else:
        workload = _load_workload(args.workload, args.db)
    parinda = Parinda(db)
    result = parinda.suggest_indexes(
        workload,
        budget_bytes=int(args.budget_mb * 1024 * 1024),
        single_column_only=args.single_column,
        compress=args.compress,
    )
    if folded is not None:
        # Writes are folded too, but this command advises reads only.
        aside = "".join(
            f", {count} {what}"
            for what, count in (
                ("DML not advised", folded.dml_statements),
                ("skipped", folded.skipped),
            )
            if count
        )
        print(
            f"Compressed {folded.statements_in} statements onto "
            f"{folded.templates} templates{aside} "
            f"({result.candidates_pruned} candidates pruned)."
        )
    elif args.compress and result.queries_folded:
        print(
            f"Compressed {len(workload)} statements onto "
            f"{len(workload) - result.queries_folded} templates "
            f"({result.candidates_pruned} candidates pruned)."
        )
    print(
        f"Considered {result.candidates_considered} candidates; "
        f"solver {result.solver_status} ({result.solver_nodes} nodes, "
        f"{result.elapsed_seconds:.2f}s)."
    )
    print(
        f"Suggested {len(result.indexes)} indexes, {result.size_pages} pages "
        f"of {result.budget_pages} allowed; workload cost "
        f"{result.cost_before:,.0f} -> {result.cost_after:,.0f} "
        f"({result.speedup:.2f}x)."
    )
    for index in result.indexes:
        print(f"  CREATE INDEX ON {index.table_name} "
              f"({', '.join(index.columns)});")
    _warn_truncation(result)
    if args.verbose:
        _per_query_table("Per-query benefit", result.per_query).emit()
    if args.create:
        created = parinda.create_indexes(result)
        print(f"Materialized {len(created)} indexes.")
    return 0


def cmd_suggest_partitions(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    workload = _load_workload(args.workload, args.db)
    parinda = Parinda(db)
    result = parinda.suggest_partitions(
        workload, replication_limit=args.replication
    )
    print(
        f"AutoPart: {result.iterations} iterations, {result.evaluations} "
        f"what-if evaluations, {result.elapsed_seconds:.1f}s."
    )
    print(
        f"Workload cost {result.cost_before:,.0f} -> {result.cost_after:,.0f} "
        f"({result.speedup:.2f}x)."
    )
    for table_name, scheme in sorted(result.schemes.items()):
        print(f"Partitions for {table_name}:")
        for position, fragment in enumerate(scheme.fragments):
            print(f"  {scheme.fragment_name(position)}: ({', '.join(fragment)})")
    if args.verbose:
        _per_query_table("Per-query benefit", result.per_query).emit()
    if args.save_rewritten:
        with open(args.save_rewritten, "w") as handle:
            for name, sql in result.rewritten_sql.items():
                handle.write(f"-- {name}\n{sql};\n\n")
        print(f"Rewritten workload saved to {args.save_rewritten}.")
    if args.create:
        created = parinda.create_partitions(result)
        print(f"Materialized {len(created)} fragment tables.")
    return 0


def cmd_suggest_combined(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    workload = _load_workload(args.workload, args.db)
    parinda = Parinda(db)
    budget_pages = max(1, int(args.budget_mb * 1024 * 1024) // 8192)
    result = parinda.suggest_combined(
        workload, budget_pages=budget_pages, replication_limit=args.replication
    )
    print(
        f"Partitions: {sum(len(s.fragments) for s in result.partitions.schemes.values())} "
        f"fragments ({result.partitions.speedup:.2f}x alone)."
    )
    print(
        f"Indexes on the partitioned design: {len(result.indexes.indexes)} "
        f"({result.indexes.size_pages}/{budget_pages} pages)."
    )
    for index in result.indexes.indexes:
        print(f"  CREATE INDEX ON {index.table_name} "
              f"({', '.join(index.columns)});")
    print(
        f"Combined workload cost {result.cost_before:,.0f} -> "
        f"{result.cost_after:,.0f} ({result.speedup:.2f}x)."
    )
    _warn_truncation(result.indexes)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    if args.serve:
        return _fleet_serve(args)
    # A static tune never opens a store: running it anyway would tell
    # the operator the fleet was thawed/released when nothing was touched.
    serve_only = {
        "--thaw": args.thaw,
        "--release": args.release is not None,
        "--state": args.state,
        "--store": args.store,
        "--stream": args.stream != "-",
    }
    ignored = [flag for flag, given in serve_only.items() if given]
    if ignored:
        raise SystemExit(f"{', '.join(ignored)} only make sense with --serve")
    db = _load_database(args.db)
    workload = _load_workload(args.workload, args.db)
    parinda = Parinda(db)
    tuner = parinda.fleet(
        n_replicas=args.replicas,
        budget_bytes=int(args.budget_mb * 1024 * 1024),
        max_rounds=args.rounds,
        seed=args.seed,
        max_share=args.max_share,
    )
    result = tuner.tune(workload)
    print(
        f"Fleet of {result.n_replicas} replicas over "
        f"{result.candidates_considered} shared candidates; "
        f"{'converged' if result.converged else 'round cap reached'} "
        f"after {len(result.rounds)} round(s), "
        f"{result.elapsed_seconds:.2f}s."
    )
    for rnd in result.rounds:
        print(
            f"  round {rnd.number}: total fleet cost {rnd.total_cost:,.0f} "
            f"(clusters {'/'.join(str(s) for s in rnd.cluster_sizes)}, "
            f"{rnd.reassigned} reassigned)"
        )
    for replica in result.replicas:
        served = [
            name for name, rid in sorted(result.assignment.items())
            if rid == replica.replica_id
        ]
        print(
            f"Replica {replica.replica_id}: {len(replica.design)} indexes, "
            f"serves {len(served)} template(s)"
            + (f" ({', '.join(served)})" if served and args.verbose else "")
        )
        for index in replica.design:
            print(f"  CREATE INDEX ON {index.table_name} "
                  f"({', '.join(index.columns)});")
    for record in result.degraded:
        _warn(str(record))
    if args.baseline:
        baseline = tuner.uniform_baseline(workload)
        delta = (
            (baseline.total_cost - result.total_cost) / baseline.total_cost * 100
            if baseline.total_cost
            else 0.0
        )
        print(
            f"Uniform-design baseline: {baseline.total_cost:,.0f} "
            f"({len(baseline.result.indexes)} indexes on every replica); "
            f"divergent design saves {delta:.1f}%."
        )
    return 0


def _fleet_serve(args: argparse.Namespace) -> int:
    """The ``fleet --serve`` loop: closed-loop serving over a stream.

    Feeds every stream statement into a
    :class:`~repro.fleet.serve.FleetController`, which routes, watches
    drift, re-tunes, rolls designs out replica by replica through
    journaled applies, and rolls a sustained regression back
    automatically. With ``--state`` or ``--store`` the rollout is
    journaled: killing the process at any point and re-running the same
    command resumes to the same terminal fleet state (``--store db:``
    keeps the journal inside the monitored database, surviving host
    loss). ``--thaw`` acknowledges a frozen fleet — it prints the
    regressed design for inspection, unfreezes, and resumes re-tuning
    in-process; ``--release N`` puts a quarantined replica back into
    rotation. Exits :data:`EXIT_ROLLOUT_FROZEN` when the run ends frozen
    (a regression rollback halted further rollouts),
    :data:`EXIT_STREAM_LOST` when the stream went away mid-run,
    :data:`EXIT_STALE_LEASE` when a newer daemon fenced this one off the
    store, 0 otherwise.
    """
    db = _load_database(args.db)
    parinda = Parinda(db, cache_max_entries=args.cache_entries)
    store = _build_store(args, db)

    def listener(event) -> None:
        if event.kind in ("quarantined", "degraded", "regressed", "frozen"):
            _warn(str(event))
            return
        print(event)

    controller = parinda.fleet_serve(
        args.replicas,
        budget_bytes=int(args.budget_mb * 1024 * 1024),
        state_store=store,
        window_size=args.window,
        check_interval=args.check_interval,
        warmup=args.warmup,
        state_interval=args.state_interval,
        regression_windows=args.regression_windows,
        regression_tolerance=args.tolerance,
        probation_windows=args.probation,
        max_share=args.max_share,
        max_rounds=args.rounds,
        seed=args.seed,
        listener=listener,
    )
    resume_position = 0
    if controller.resumed:
        resume_position = controller.position
        print(
            f"Resuming from {store.describe()}: position {resume_position}, "
            f"phase {controller.phase}."
        )
        # Converge first (finish any interrupted rollout / rollback)
        # so the skipped stream prefix replays against a settled fleet.
        controller.resume()

    if args.thaw:
        if controller.frozen:
            info = controller.thaw() or {}
            names = ", ".join(
                "{}({})".format(ix["table_name"], ", ".join(ix["columns"]))
                for ix in info.get("design", [])
            ) or "-"
            print(
                f"Thawed: regressed design on replica {info.get('replica')} "
                f"at position {info.get('position')} was [{names}]; "
                "re-tuning resumed."
            )
        else:
            _warn("--thaw: fleet is not frozen; nothing to acknowledge")
    if args.release is not None:
        try:
            controller.release(args.release)
            print(f"Replica {args.release} released from quarantine.")
        except ReproError as exc:
            _warn(f"release blocked: {exc}")

    skipped, stream_lost = _drive_stream(
        args,
        store,
        controller.observe,
        lambda _position: controller.save_state(),
        resume_position,
        periodic=False,  # the controller checkpoints itself
    )

    counts = controller.event_counts
    print(
        f"\nStream done: {controller.position} statements, phase "
        f"{controller.phase}"
        + (f", {skipped} skipped" if skipped else "")
        + f"; {counts['drifted']} drift(s), {counts['re-tuned']} "
        f"re-tune(s), {counts['rollout-finished']} rollout(s), "
        f"{counts['rolled-back']} rollback(s), "
        f"{counts['quarantined']} quarantined."
    )
    for runtime in controller.replicas:
        status = runtime.status
        detail = f" ({runtime.detail})" if runtime.detail else ""
        print(
            f"Replica {runtime.replica_id} [{status}{detail}]: "
            f"{len(runtime.design)} index(es)"
        )
        for index in runtime.design:
            print(f"  CREATE INDEX ON {index.table_name} "
                  f"({', '.join(index.columns)});")
    if controller.frozen:
        return EXIT_ROLLOUT_FROZEN
    return EXIT_STREAM_LOST if stream_lost is not None else 0


def cmd_tune(args: argparse.Namespace) -> int:
    if (args.dry_run or args.validate) and not args.apply:
        raise SystemExit("--dry-run/--validate only make sense with --apply")
    if args.rollback and (args.apply or args.dry_run):
        raise SystemExit("--rollback excludes --apply/--dry-run")
    db = _load_database(args.db)
    parinda = Parinda(db, cache_max_entries=args.cache_entries)
    store = _build_store(args, db)
    # The apply journal is slot "apply" of the state store (STATE.apply
    # under --state); --journal, or no store at all, gives it a file of
    # its own.
    journal_store, journal_key = store, "apply"
    if args.journal or store is None:
        journal_store = FileStateStore(args.journal or "repro-apply.json")
        journal_key = ""

    if args.rollback:
        # No streaming: restore the journaled pre-apply design and exit.
        try:
            report = parinda.rollback_design(
                store=journal_store, journal_key=journal_key
            )
        except ApplyConflictError as exc:
            _warn(f"rollback blocked: {exc}")
            return EXIT_APPLY_CONFLICT
        for record in report.degraded:
            _warn(str(record))
        print(
            f"Rollback {report.phase}: rebuilt {len(report.built)}, "
            f"dropped {len(report.dropped)}, skipped {len(report.skipped)}."
        )
        return 0

    def listener(event) -> None:
        if event.kind == "observed":
            return
        if event.kind in ("held", "quarantined", "degraded"):
            label = "recommendation held" if event.kind == "held" else event.kind
            _warn(f"[{event.sequence}] {label}: {event.detail}")
            return
        print(f"[{event.sequence}] {event.kind}: {event.detail}")
        if event.kind == "re-advised" and event.result is not None:
            _warn_truncation(event.result)

    # A saved state also records how far into the stream it got, so a
    # restarted file-stream run skips what the previous run already
    # observed. Stdin is not replayable, so the position is ignored
    # there — the caller feeds whatever is new.
    saved = _resume_state(args, store)
    resume_position = 0
    if saved is not None and args.stream != "-":
        resume_position = int(saved.get("stream_position", 0))

    tuner = parinda.online(
        budget_bytes=int(args.budget_mb * 1024 * 1024),
        state_store=store if saved is not None else None,
        degrade_on_error=True,
        window_size=args.window,
        check_interval=args.check_interval,
        warmup=args.warmup,
        build_cost_per_page=args.build_cost_per_page,
        listener=listener,
        compress=args.compress,
    )
    if resume_position:
        print(
            f"Resuming from {store.describe()}: {tuner.monitor.observed} "
            f"statements already observed; skipping {resume_position} "
            "stream statement(s)."
        )

    def snapshot(position: int) -> dict:
        state = tuner.save_state()
        state["stream_position"] = position
        return state

    def settle(stream_lost: str | None) -> None:
        if (
            stream_lost is None
            and tuner.readvise_count == 0
            and tuner.monitor.observed
        ):
            # Short streams can end inside the warmup window; still
            # give the user an answer for what was seen.
            tuner.readvise(reason="end of stream")

    skipped, stream_lost = _drive_stream(
        args,
        store,
        tuner.observe,
        snapshot,
        resume_position,
        periodic=True,
        settle=settle,
    )

    counts = tuner.event_counts
    print(
        f"\nStream done: {tuner.monitor.observed} statements, "
        f"{len(tuner.monitor.templates)} templates"
        + (f", {skipped} skipped" if skipped else "")
        + (
            f", {counts['quarantined']} quarantined"
            if counts["quarantined"]
            else ""
        )
        + (
            f", {counts['degraded']} degraded"
            if counts.get("degraded")
            else ""
        )
        + f"; {counts['drifted']} drift(s), {counts['re-advised']} "
        f"re-advise(s), {counts['recommended']} adopted, "
        f"{counts['held']} held."
    )
    if tuner.design:
        print(f"Standing design ({len(tuner.design)} indexes):")
        for index in tuner.design:
            print(f"  CREATE INDEX ON {index.table_name} "
                  f"({', '.join(index.columns)});")
    else:
        print("Standing design: no indexes adopted.")
    if args.apply:
        if stream_lost is not None:
            _warn(
                "stream lost; skipping --apply — resume the stream, then "
                "re-run with --apply"
            )
        else:
            code = _tune_apply(args, parinda, tuner, journal_store, journal_key)
            if code != 0:
                return code
    if args.verbose:
        stats = tuner.cache.stats()
        table = ResultTable(
            "Cost-cache", ["section", "hits", "misses", "evictions", "size"]
        )
        for section, entry in sorted(stats.items()):
            table.add_row(
                section,
                entry["hits"],
                entry["misses"],
                entry["evictions"],
                entry["size"],
            )
        table.emit()
    return EXIT_STREAM_LOST if stream_lost is not None else 0


def _tune_apply(args, parinda, tuner, store: StateStore, journal_key: str) -> int:
    """The ``tune --apply`` tail: materialize the standing design.

    Passes the tuner's full :class:`AdvisorResult` through when it
    still describes the standing design (so ``--validate`` can report
    simulated-vs-materialized costs per query); falls back to the bare
    index list otherwise. Returns the process exit code contribution
    (0, or :data:`EXIT_APPLY_CONFLICT`).
    """
    from repro.catalog.schema import index_signature

    design = list(tuner.design)
    request = design
    result = tuner.last_result
    if result is not None and {index_signature(ix) for ix in result.indexes} == {
        index_signature(ix) for ix in design
    }:
        request = result
    try:
        report = parinda.apply_design(
            request,
            workload=tuner.monitor.snapshot() if args.validate else None,
            dry_run=args.dry_run,
            validate=args.validate,
            store=store,
            journal_key=journal_key,
        )
    except ApplyConflictError as exc:
        _warn(f"apply blocked: {exc}")
        return EXIT_APPLY_CONFLICT
    for record in report.degraded:
        _warn(str(record))
    if report.dry_run:
        print(
            f"Dry run: would build {len(report.built)}, "
            f"would drop {len(report.dropped)}."
        )
        for name in report.dropped:
            print(f"  DROP INDEX {name};")
        for name in report.built:
            print(f"  CREATE INDEX {name};")
        return 0
    print(
        f"Applied design{' (resumed)' if report.resumed else ''}: "
        f"built {len(report.built)}, dropped {len(report.dropped)}, "
        f"skipped {len(report.skipped)}; journal {store.describe(journal_key)} "
        f"{report.phase}."
    )
    for entry in report.validation:
        if entry.simulated is None:
            print(f"  {entry.name}: materialized cost {entry.materialized:,.0f}")
        else:
            print(
                f"  {entry.name}: simulated {entry.simulated:,.0f} vs "
                f"materialized {entry.materialized:,.0f} "
                f"({entry.error * 100:.1f}% error)"
            )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    workload = _load_workload(args.workload, args.db)
    designer = Parinda(db).interactive()
    for spec in args.index or []:
        table, columns = _parse_index_spec(spec)
        designer.add_whatif_index(table, columns)
    evaluation = designer.evaluate(workload)
    print(
        f"Workload cost {evaluation.cost_before:,.0f} -> "
        f"{evaluation.cost_after:,.0f}; average per-query benefit "
        f"{evaluation.average_benefit * 100:.1f}%."
    )
    _per_query_table("Per-query benefit", evaluation.per_query).emit()
    if args.compare:
        comparison = designer.compare_with_materialized(args.compare, workload)
        print(
            f"\nSimulation check on {args.compare}: plans match = "
            f"{comparison.plans_match}, cost error "
            f"{comparison.cost_error * 100:.4f}%"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    designer = Parinda(db).interactive()
    for spec in args.index or []:
        table, columns = _parse_index_spec(spec)
        designer.add_whatif_index(table, columns)
    plan = designer.session.plan(args.sql)
    print(explain(plan))
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARINDA reproduction: interactive physical design",
    )
    parser.add_argument(
        "--db",
        default="sdss:10000",
        help="built-in database to load: sdss[:rows] or star[:rows]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suggest-indexes", help="scenario 3: automatic indexes")
    p.add_argument("--workload", help="semicolon-separated SQL file")
    p.add_argument("--budget-mb", type=_budget_mb, default=16.0)
    p.add_argument("--single-column", action="store_true",
                   help="COLT-style single-column candidates only")
    p.add_argument("--compress", action="store_true",
                   help="CoPhy scale mode: fold the workload onto "
                        "canonical templates and prune the ILP")
    p.add_argument("--create", action="store_true",
                   help="materialize the suggestions")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_suggest_indexes)

    p = sub.add_parser("suggest-partitions", help="scenario 2: AutoPart")
    p.add_argument("--workload", help="semicolon-separated SQL file")
    p.add_argument("--replication", type=_non_negative, default=0.25,
                   help="replicated-column space limit (fraction of table)")
    p.add_argument("--save-rewritten", metavar="FILE",
                   help="write the rewritten workload to FILE")
    p.add_argument("--create", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_suggest_partitions)

    p = sub.add_parser(
        "suggest-combined", help="full pipeline: partitions, then indexes"
    )
    p.add_argument("--workload", help="semicolon-separated SQL file")
    p.add_argument("--budget-mb", type=_budget_mb, default=16.0)
    p.add_argument("--replication", type=_non_negative, default=0.25)
    p.set_defaults(func=cmd_suggest_combined)

    p = sub.add_parser(
        "tune", help="scenario 4: online tuning over a statement stream"
    )
    p.add_argument("--stream", default="-", metavar="FILE",
                   help="semicolon-separated SQL stream; '-' reads stdin")
    p.add_argument("--state", metavar="FILE",
                   help="resume from and periodically checkpoint the tuner "
                        "state to this JSON file (survives restarts); "
                        "--store file:FILE without the lease")
    p.add_argument("--state-interval", type=_whole(1), default=32,
                   help="statements between --state checkpoints")
    p.add_argument("--store", metavar="SPEC",
                   help="state store, instead of --state/--journal: "
                        "file:PATH (checksummed local files) or db:[PATH] "
                        "(state lives inside the monitored database and "
                        "survives host loss); acquires a fenced writer "
                        "lease at startup")
    p.add_argument("--budget-mb", type=_budget_mb, default=16.0)
    p.add_argument("--window", type=_whole(1), default=128,
                   help="sliding-window size (statements)")
    p.add_argument("--check-interval", type=_whole(1), default=32,
                   help="statements between drift checks")
    p.add_argument("--warmup", type=_whole(0), default=None,
                   help="statements before the first advise (default: window)")
    p.add_argument("--build-cost-per-page", type=_non_negative, default=4.0,
                   help="hysteresis: per-page cost charged to new indexes")
    p.add_argument("--compress", action="store_true",
                   help="CoPhy scale mode: re-advise the full decayed "
                        "template profile with workload compression and "
                        "pruned ILP (for 10k+ statement streams)")
    p.add_argument("--cache-entries", type=_whole(1), default=4096,
                   help="per-section CostCache bound (LRU)")
    p.add_argument("--apply", action="store_true",
                   help="materialize the final standing design through the "
                        "crash-safe apply journal")
    p.add_argument("--dry-run", action="store_true",
                   help="with --apply: report the drop/build delta without "
                        "touching anything")
    p.add_argument("--rollback", action="store_true",
                   help="restore the journaled pre-apply design and exit "
                        "(no streaming)")
    p.add_argument("--journal", metavar="FILE",
                   help="apply-journal file (default: the state store's "
                        "'apply' slot — STATE.apply under --state — or "
                        "repro-apply.json with neither --state nor --store)")
    p.add_argument("--validate", action="store_true",
                   help="with --apply: re-plan the window against the "
                        "materialized design and report simulated-vs-"
                        "materialized costs")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print cost-cache statistics at the end")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "fleet", help="scenario 5: divergent designs for a replicated fleet"
    )
    p.add_argument("--replicas", type=_whole(1), default=3, metavar="N",
                   help="fleet width (one design per replica)")
    p.add_argument("--rounds", type=_whole(1), default=8, metavar="R",
                   help="cluster→tune→route iteration cap")
    p.add_argument("--workload", help="semicolon-separated SQL file")
    p.add_argument("--budget-mb", type=_budget_mb, default=16.0,
                   help="per-replica storage budget")
    p.add_argument("--max-share", type=_share, default=1.0,
                   help="load-balance cap: max fraction of routed weight "
                        "one replica may serve (1.0 disables)")
    p.add_argument("--seed", type=int, default=0,
                   help="clustering seed (fixed seed => identical fleet)")
    p.add_argument("--baseline", action="store_true",
                   help="also tune the uniform single-design baseline "
                        "and report the divergent saving")
    p.add_argument("--serve", action="store_true",
                   help="closed-loop serving: route a statement stream, "
                        "re-tune on drift, roll designs out replica by "
                        "replica with journaled applies, auto-rollback "
                        "sustained regressions")
    p.add_argument("--stream", default="-", metavar="FILE",
                   help="with --serve: semicolon-separated SQL stream; "
                        "'-' reads stdin")
    p.add_argument("--state", metavar="FILE",
                   help="with --serve: journal rollout state here so a "
                        "killed run resumes to the same terminal fleet; "
                        "--store file:FILE without the lease")
    p.add_argument("--store", metavar="SPEC",
                   help="with --serve: state store, instead of "
                        "--state: file:PATH or db:[PATH] (rollout journal "
                        "lives inside the monitored database and survives "
                        "host loss); acquires a fenced writer lease at "
                        "startup")
    p.add_argument("--thaw", action="store_true",
                   help="with --serve: acknowledge a frozen fleet — print "
                        "the regressed design, unfreeze, and resume "
                        "re-tuning in-process")
    p.add_argument("--release", type=_whole(0), default=None, metavar="R",
                   help="with --serve: release quarantined replica R back "
                        "into serving rotation before streaming")
    p.add_argument("--state-interval", type=_whole(1), default=64,
                   help="statements between steady-state checkpoints")
    p.add_argument("--window", type=_whole(1), default=64,
                   help="per-replica monitor window (statements)")
    p.add_argument("--check-interval", type=_whole(1), default=32,
                   help="statements between drift/validation checks")
    p.add_argument("--warmup", type=_whole(0), default=None,
                   help="statements before the first tune (default: window)")
    p.add_argument("--regression-windows", type=_whole(1), default=2,
                   help="consecutive regressing windows that trigger "
                        "automatic rollback of a replica")
    p.add_argument("--tolerance", type=_non_negative, default=0.1,
                   help="relative window-cost slack before a validation "
                        "counts as regressing")
    p.add_argument("--probation", type=_whole(0), default=4,
                   help="validation windows a fresh design stays under "
                        "the health gate")
    p.add_argument("--cache-entries", type=_whole(1), default=4096,
                   help="per-section CostCache bound (LRU)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="list the templates each replica serves")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("evaluate", help="scenario 1: interactive what-if")
    p.add_argument("--workload", help="semicolon-separated SQL file")
    p.add_argument("--index", action="append", metavar="TABLE:COL1,COL2",
                   help="what-if index (repeatable)")
    p.add_argument("--compare", metavar="QUERY",
                   help="verify simulation of QUERY against a materialized twin")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="EXPLAIN a query under what-if indexes")
    p.add_argument("--sql", required=True)
    p.add_argument("--index", action="append", metavar="TABLE:COL1,COL2")
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StaleLeaseError as exc:
        # A newer daemon acquired the store lease; this one must stop
        # rather than clobber the new owner's journal. Distinct code so
        # supervisors do NOT blindly restart it against the same store.
        _warn(f"fenced off the state store: {exc}")
        return EXIT_STALE_LEASE
    except ResilienceError:
        # Injected faults, corrupt state and journal conflicts that got
        # this far stand in for a crash and must look like one.
        raise
    except ReproError as exc:
        # A user mistake (bad SQL, unknown column, out-of-range flag):
        # one line and exit 1, not a stack trace.
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
