"""Pluggable, fenced state stores: survive host loss, not just process loss.

Every durability guarantee in the stack — the tuner's checkpoints, the
apply executor's intent journal, the fleet's rollout envelope — goes
through a :class:`StateStore`; this is the only persistence API, and
stores are built only at the edge (the CLI, a test, a script). A
checksummed file on local disk survives a killed *process*; it does
not survive a lost *host*. Hence two backends:

* :class:`FileStateStore` — one base path; slot ``""`` is the base
  file, slot ``K`` is ``base.K``. Every slot is a checksummed
  ``repro-state-v1`` envelope (:mod:`repro.resilience.state` is the
  codec), loadable by and from every earlier version's
  ``--state``/``--journal`` files.
* :class:`DatabaseStateStore` — state rows live *inside the monitored
  database* (AIM-style): slots are rows of a ``repro_state`` table in
  the :class:`~repro.storage.database.Database` being tuned, persisted
  through the database's durable medium (the ``dsn`` file — the
  engine here is in-process, so the dsn file *models the database
  server's own storage*, a failure domain independent of the daemon
  host's local disk). A daemon restarted on a fresh host with zero
  local state files attaches to the same dsn and resumes the same
  serve loop.

Fencing
    Failover makes split-brain a real hazard: the old daemon may come
    back after a new one has taken over the journal. ``acquire()``
    bumps a monotonic **epoch** persisted next to the slots (a sidecar
    ``.lease`` file, or the ``__lease__`` row); the acquiring store
    instance holds that epoch as its fencing token, and every write
    re-reads the persisted lease and compares. A writer holding a
    superseded epoch gets :class:`~repro.errors.StaleLeaseError`
    *before any slot is touched* — it cannot clobber the new owner's
    journal. A store that never acquired a lease on a path where no
    lease record exists runs unfenced: the single-writer mode of
    ``--state FILE``.

Failure semantics
    * ``store.read`` / ``store.write`` / ``lease.acquire`` fault points
      (and real ``OSError``) model *transient* store failures — a blip
      on the database connection, NFS hiccup. They get :data:`RETRIES`
      retries with a linear :data:`BACKOFF_S` backoff; only after the
      budget is exhausted does the error propagate.
    * A caller-supplied ``fault_point`` on :meth:`StateStore.write`
      (``journal.write``, ``rollout.journal``, ``state.write``) models
      a *crash of the writer itself* mid-write and propagates
      immediately — retrying it would defeat every kill/resume test
      built on those points.
    * :class:`~repro.errors.StaleLeaseError` is never retried: a stale
      writer does not become current by trying again.

Daemon persistence
    Each durable daemon owns its primary slot: it reads it once at
    construction through :func:`read_resume` and checkpoints it through
    :func:`write_checkpoint`, so every daemon resumes by one rule and
    words every store notice the same way.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    FaultInjected,
    ReproError,
    StaleLeaseError,
    StateCorruptError,
)
from repro.resilience import faults
from repro.resilience.faults import FaultInjector
from repro.resilience.state import (
    backup_path,
    canonical_json,
    dump_canonical,
    dump_state,
    has_state,
    load_state,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids storage import
    from repro.storage.database import Database

#: Name of the in-database mirror table kept by DatabaseStateStore.
STORE_TABLE = "repro_state"

#: Reserved slot key holding the lease record in the database backend.
LEASE_KEY = "__lease__"

#: The dsn a bare ``--store db:`` spec attaches to.
DEFAULT_DB_DSN = "repro-dbstate.json"

#: Envelope format for the database backend's durable row set.
STORE_FORMAT = "repro-store-v1"

#: Fault points treated as transient (retried) by the store layer.
TRANSIENT_POINTS = ("store.read", "store.write", "lease.acquire")

#: Retries of a transient failure before it propagates (three attempts).
RETRIES = 2

#: Backoff before retry ``n`` (1-based) is ``n * BACKOFF_S`` seconds.
BACKOFF_S = 0.005


class StateStore:
    """Keyed slots of JSON state behind a fenced writer lease.

    Slots are named by short keys; key ``""`` is the primary slot (the
    tuner state / fleet envelope), other keys hold apply journals
    (``"apply"``, ``"r0.apply"``, ...). Subclasses implement the raw
    slot and lease I/O; this base class owns retry, fault points, and
    fencing (transient failures get :data:`RETRIES` retries) so both
    backends behave identically under failure.

    ``fault_injector`` is the active injector around every
    :meth:`read`, :meth:`write` and :meth:`acquire`
    (:func:`repro.resilience.faults.injecting`); ``None`` leaves the
    caller's scope in force.
    """

    def __init__(self, fault_injector: FaultInjector | None = None) -> None:
        self._faults = fault_injector
        self._epoch: int | None = None

    # -- backend surface ------------------------------------------------

    def _read_slot(self, key: str) -> tuple[dict, str]:
        raise NotImplementedError

    def _write_slot(self, key: str, state: dict, fault_point: str | None) -> None:
        raise NotImplementedError

    def _exists_slot(self, key: str) -> bool:
        raise NotImplementedError

    def _read_lease(self) -> dict | None:
        """The persisted lease record, re-read from durable bytes.

        :meth:`write` and :meth:`acquire` read the lease first in every
        attempt, then write; a backend may update exactly the state
        this read loaded, so the fencing read is the update's read.
        """
        raise NotImplementedError

    def _write_lease(self, record: dict) -> None:
        raise NotImplementedError

    def describe(self, key: str = "") -> str:
        raise NotImplementedError

    # -- retry ----------------------------------------------------------

    def _with_retry(self, attempt: Callable[[], object]) -> object:
        """Run ``attempt``, retrying transient failures with backoff.

        Transient means: ``OSError`` or an injected fault at one of
        :data:`TRANSIENT_POINTS`. Everything else — a caller-supplied
        crash point, :class:`StaleLeaseError`, corrupt state — is not
        the store's to absorb and propagates on the first occurrence.
        """
        for retry in range(1, RETRIES + 2):
            try:
                return attempt()
            except StaleLeaseError:
                raise
            except FaultInjected as exc:
                if exc.point not in TRANSIENT_POINTS or retry > RETRIES:
                    raise
            except OSError:
                if retry > RETRIES:
                    raise
            time.sleep(BACKOFF_S * retry)

    # -- lease ----------------------------------------------------------

    @property
    def epoch(self) -> int | None:
        """The fencing token held by this instance (None = never acquired)."""
        return self._epoch

    @faults.scoped
    def acquire(self, owner: str = "") -> int:
        """Take (or take over) the writer lease; returns the new epoch.

        Bumps the persisted epoch past whatever the previous holder
        had, so every instance still holding the old token fails its
        next write with :class:`~repro.errors.StaleLeaseError`.
        """

        def attempt() -> int:
            faults.check("lease.acquire", self.describe())
            current = self._read_lease()
            epoch = int(current.get("epoch", 0)) + 1 if current else 1
            self._write_lease({"epoch": epoch, "owner": owner})
            return epoch

        epoch = self._with_retry(attempt)
        self._epoch = int(epoch)  # type: ignore[arg-type]
        return self._epoch

    def check_lease(self) -> None:
        """Raise :class:`StaleLeaseError` if this writer has been fenced.

        No lease record anywhere means unfenced operation: any writer
        is welcome. Once *someone* has acquired, only the
        instance holding the current epoch may write.
        """
        record = self._read_lease()
        if record is None:
            return
        current = int(record.get("epoch", 0))
        held = self._epoch
        if held is None or held != current:
            holder = record.get("owner") or "unknown"
            raise StaleLeaseError(
                f"write to {self.describe()} rejected: this writer holds "
                f"lease epoch {held}, but epoch {current} "
                f"(owner {holder!r}) is current — a newer daemon has "
                f"taken over; refusing to clobber its journal"
            )

    # -- slot API -------------------------------------------------------

    @faults.scoped
    def read(self, key: str = "") -> tuple[dict, str]:
        """Load one slot; returns ``(state, source)``.

        ``source`` is ``"primary"``/``"backup"`` describing which
        durable candidate survived (both backends keep a rotated
        last-good copy). Raises
        :class:`~repro.errors.StateCorruptError` when no candidate
        verifies, exactly like :func:`repro.resilience.state.load_state`.
        """

        def attempt() -> tuple[dict, str]:
            faults.check("store.read", self.describe(key))
            return self._read_slot(key)

        return self._with_retry(attempt)  # type: ignore[return-value]

    @faults.scoped
    def write(
        self, key: str, state: dict, fault_point: str | None = None
    ) -> None:
        """Write one slot, carrying this writer's fencing token.

        ``fault_point`` names the *caller's* crash point
        (``journal.write`` / ``rollout.journal`` / ``state.write``) and
        keeps its kill-mid-write semantics: it fires inside the
        envelope writer, leaves a torn primary behind, and is never
        retried. The store's own ``store.write`` point (and plain
        ``OSError``) is transient and retried. The lease is re-checked
        on every attempt, before any bytes move.
        """

        def attempt() -> None:
            faults.check("store.write", self.describe(key))
            self.check_lease()
            self._write_slot(key, state, fault_point)

        self._with_retry(attempt)

    def exists(self, key: str = "") -> bool:
        """True when ``key`` has a readable (primary or backup) slot."""
        return self._exists_slot(key)


class FileStateStore(StateStore):
    """Slots as checksummed state files under one base path.

    Slot ``""`` maps to ``base_path`` itself and slot ``K`` to
    ``base_path.K`` — which makes the fleet's per-replica journal slots
    (``r0.apply``...) land on exactly the paths the pre-store code
    used, and the files loadable by and from every earlier version,
    because all envelope I/O delegates to
    :func:`repro.resilience.state.dump_state` /
    :func:`~repro.resilience.state.load_state`. The lease lives in a
    sidecar ``base_path.lease`` file; absent that file the store is
    unfenced (single-writer mode).
    """

    def __init__(
        self,
        base_path: str,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(fault_injector=fault_injector)
        if not base_path:
            raise ReproError("FileStateStore needs a non-empty base path")
        self.base_path = base_path

    def path_for(self, key: str = "") -> str:
        """The file a slot lives in (``base`` or ``base.key``)."""
        return self.base_path if key == "" else f"{self.base_path}.{key}"

    @property
    def lease_path(self) -> str:
        return f"{self.base_path}.lease"

    def describe(self, key: str = "") -> str:
        return self.path_for(key)

    def _read_slot(self, key: str) -> tuple[dict, str]:
        return load_state(self.path_for(key))

    def _write_slot(self, key: str, state: dict, fault_point: str | None) -> None:
        dump_state(self.path_for(key), state, fault_point=fault_point)

    def _exists_slot(self, key: str) -> bool:
        return has_state(self.path_for(key))

    def _read_lease(self) -> dict | None:
        if not has_state(self.lease_path):
            return None
        record, _source = load_state(self.lease_path)
        return record

    def _write_lease(self, record: dict) -> None:
        # fault_point=None: acquire() already checked lease.acquire.
        dump_state(self.lease_path, record, fault_point=None)


class DatabaseStateStore(StateStore):
    """Slots as rows of a table inside the monitored database itself.

    The authoritative row set (every slot, plus the ``__lease__``
    record) is one JSON document persisted at ``dsn`` through the same
    checksummed envelope + ``.bak`` rotation as every other state file
    — the dsn models the database server's durable pages, the failure
    domain that survives when the daemon's host is lost. On top of it,
    the rows are mirrored into a real ``repro_state`` table in the
    :class:`Database` (columns ``skey``/``epoch``/``payload``) so the
    journal is inspectable with the engine's own scan machinery; the
    mirror is refreshed via :meth:`Database.replace_rows`, which
    deliberately skips re-ANALYZE so journal writes never thrash the
    planner's catalog-versioned caches.

    Every access re-reads the dsn bytes, so two store instances
    attached to the same dsn observe each other's writes — that is what
    makes the fencing check meaningful across a failover. An instance
    keeps the text it last persisted and, per slot, the epoch and
    canonical state text it was built from: when the dsn still holds
    exactly those bytes the slots are reused as they are (no parse, no
    checksum pass, and a write serialises only the slot it writes);
    any other bytes — another writer, a tear, a ``.bak`` fallback, a
    fresh attach — go through the verified
    :func:`~repro.resilience.state.load_state` ladder.
    """

    def __init__(
        self,
        database: "Database",
        dsn: str,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(fault_injector=fault_injector)
        if not dsn:
            raise ReproError("DatabaseStateStore needs a non-empty dsn path")
        self.database = database
        self.dsn = dsn
        self._from_backup = False
        # The dsn text this instance last persisted and the slots it was
        # joined from: {key: (epoch, canonical state text)}.
        self._persisted: str | None = None
        self._slots: dict[str, tuple[int, str]] = {}
        # The row set the current attempt's lease read loaded; the
        # write that follows it in the same attempt updates exactly it.
        self._loaded: dict[str, tuple[int, str]] | None = None
        self._attach()

    # -- plumbing -------------------------------------------------------

    def _attach(self) -> None:
        """Create the mirror table and hydrate it from the dsn (if any)."""
        if not self.database.has_relation(STORE_TABLE):
            from repro.catalog.datatypes import BIGINT, TEXT
            from repro.catalog.schema import Column, Table

            self.database.create_table(
                Table(
                    name=STORE_TABLE,
                    columns=(
                        Column("skey", TEXT, nullable=False),
                        Column("epoch", BIGINT, nullable=False),
                        Column("payload", TEXT, nullable=False),
                    ),
                    primary_key=("skey",),
                )
            )
        try:
            rows, _source = self._load_rows()
        except StateCorruptError:
            # A dsn whose primary AND .bak are both torn must not make
            # the store unconstructable — attaching cold keeps the
            # degradation ladder intact (exists() says False, read()
            # still reports the corruption), exactly like a controller
            # facing a torn state-file pair.
            return
        if rows:
            self._mirror(rows)

    def _load_rows(self) -> tuple[dict[str, tuple[int, str]], str]:
        """The durable row set as ``{key: (epoch, canonical state text)}``.

        Empty when no dsn exists. The dsn bytes are read on every call;
        only when they are not this instance's own last write are they
        parsed and verified.
        """
        try:
            with open(self.dsn) as handle:
                text = handle.read()
        except OSError:
            text = None  # missing or unreadable: the ladder decides
        if text is not None and text == self._persisted:
            return self._slots, "primary"
        if not has_state(self.dsn):
            return {}, "primary"
        document, source = load_state(self.dsn)
        rows = document.get("rows")
        if not isinstance(rows, dict):
            raise StateCorruptError(
                f"state store {self.dsn} has no row set (format "
                f"{document.get('format')!r})"
            )
        return {
            key: (int(row.get("epoch", 0)), canonical_json(row.get("state")))
            for key, row in rows.items()
        }, source

    def _persist(
        self, rows: dict[str, tuple[int, str]], fault_point: str | None
    ) -> None:
        """Write the row set durably, then refresh the in-DB mirror.

        The document's canonical text is joined from the sorted slot
        texts — exactly ``canonical_json({"format", "rows"})`` of the
        parsed row set, so the checksum is the one every loader
        recomputes. Order matters: the dsn (the durable commit point)
        goes first under the caller's crash fault point; a write that
        "crashes" there leaves the mirror stale, which the next attach
        heals from the dsn's ``.bak`` ladder — the same torn-write story
        as every other envelope in the stack.
        """
        body = ",".join(
            f'{json.dumps(key)}:{{"epoch":{epoch},"state":{text}}}'
            for key, (epoch, text) in sorted(rows.items())
        )
        self._persisted = dump_canonical(
            self.dsn,
            f'{{"format":"{STORE_FORMAT}","rows":{{{body}}}}}',
            fault_point=fault_point,
        )
        self._slots = rows
        self._mirror(rows)

    def _mirror(self, rows: dict[str, tuple[int, str]]) -> None:
        keys = sorted(rows)
        self.database.replace_rows(
            STORE_TABLE,
            {
                "skey": keys,
                "epoch": [rows[k][0] for k in keys],
                "payload": [rows[k][1] for k in keys],
            },
        )

    def describe(self, key: str = "") -> str:
        suffix = f"#{key}" if key else ""
        return f"db:{self.dsn}{suffix}"

    # -- backend surface ------------------------------------------------

    def _read_slot(self, key: str) -> tuple[dict, str]:
        rows, source = self._load_rows()
        row = rows.get(key)
        # A dict state is the only one whose canonical text opens a brace.
        if row is None or not row[1].startswith("{"):
            raise StateCorruptError(
                f"no recoverable state for slot {key!r} in {self.describe()}"
            )
        return json.loads(row[1]), "backup" if self._from_backup else source

    def _rows_for_update(self) -> dict[str, tuple[int, str]]:
        """Current rows, or a fresh set when the dsn pair is unrecoverable.

        A write over a torn dsn heals it the way :func:`dump_state`
        heals a torn state file: start a new generation. Whatever the
        torn pair held was already unrecoverable by definition.
        """
        try:
            rows, source = self._load_rows()
        except StateCorruptError:
            return {}
        # Re-persisting (a lease write, say) heals a torn primary from
        # its .bak, but the slots still hold the backup's state until
        # they are rewritten — reads keep saying so, like the file store.
        self._from_backup |= source == "backup"
        return rows

    def _update(
        self, key: str, epoch: int, state: dict, fault_point: str | None
    ) -> None:
        """Persist the row set this attempt's lease read loaded, with
        ``key`` set to ``state`` — the only slot serialised."""
        loaded, self._loaded = self._loaded, None
        rows = dict(self._rows_for_update() if loaded is None else loaded)
        rows[key] = (epoch, canonical_json(state))
        self._persist(rows, fault_point)

    def _write_slot(self, key: str, state: dict, fault_point: str | None) -> None:
        self._update(key, self._epoch or 0, state, fault_point)
        self._from_backup = False

    def _exists_slot(self, key: str) -> bool:
        try:
            rows, _source = self._load_rows()
        except StateCorruptError:
            return False
        row = rows.get(key)
        return row is not None and row[1].startswith("{")

    def _read_lease(self) -> dict | None:
        # An unrecoverable dsn pair holds no recoverable lease either;
        # treating it as unfenced matches the file backend losing its
        # sidecar .lease file with the rest of the host.
        self._loaded = self._rows_for_update()
        row = self._loaded.get(LEASE_KEY)
        if row is None:
            return None
        return json.loads(row[1]) or {}

    def _write_lease(self, record: dict) -> None:
        self._update(LEASE_KEY, int(record.get("epoch", 0)), record, None)


def store_from_spec(
    spec: str,
    database: "Database | None" = None,
    fault_injector: FaultInjector | None = None,
) -> StateStore:
    """Build a store from a CLI ``--store`` spec.

    * ``file:PATH`` (or a bare path) -> :class:`FileStateStore`;
    * ``db:`` -> :class:`DatabaseStateStore` on :data:`DEFAULT_DB_DSN`;
    * ``db:PATH`` -> :class:`DatabaseStateStore` on ``PATH``.

    Raises :class:`~repro.errors.ReproError` for an unknown scheme or
    a ``db:`` spec with no database to attach to.
    """
    scheme, sep, rest = spec.partition(":")
    if not sep:
        scheme, rest = "file", spec
    if scheme == "file":
        if not rest:
            raise ReproError("--store file: needs a path (file:PATH)")
        return FileStateStore(rest, fault_injector=fault_injector)
    if scheme == "db":
        if database is None:
            raise ReproError("--store db: needs a loaded database to attach to")
        return DatabaseStateStore(
            database, rest or DEFAULT_DB_DSN, fault_injector=fault_injector
        )
    raise ReproError(
        f"unknown state-store scheme {scheme!r} in {spec!r}; "
        "use file:PATH or db:[PATH]"
    )


def read_resume(store: StateStore | None) -> tuple[dict | None, str | None]:
    """A daemon's resume read of slot ``""``: ``(state, notice)``.

    The one resume rule of both durable daemons
    (:class:`~repro.online.tuner.OnlineTuner`,
    :class:`~repro.fleet.serve.FleetController`): the primary when it
    verifies; else the rotated ``.bak``, with a notice naming it; else
    no state (a cold start) with a notice, rather than a daemon dying on
    its own state. No store, or nothing saved yet, starts cold silently.
    """
    if store is None or not store.exists(""):
        return None, None
    try:
        state, source = store.read("")
    except StateCorruptError as exc:
        return None, f"state unrecoverable ({exc}); starting cold"
    if source == "backup":
        return state, (
            "state primary was corrupt; resumed from last-good checkpoint "
            f"{torn_slot_paths(store)[1]}"
        )
    return state, None


def write_checkpoint(store: StateStore, state: dict) -> str | None:
    """A daemon's best-effort write of slot ``""``; a notice if it failed.

    A failed checkpoint must never kill the loop — the in-memory state
    is still healthy and the next interval retries — so disk errors and
    injected ``state.write`` faults come back as the notice. One
    deliberate exception: :class:`~repro.errors.StaleLeaseError`
    propagates, because a fenced-out daemon must die, not keep serving
    while another daemon owns the journal.
    """
    try:
        store.write("", state, fault_point="state.write")
    except (OSError, FaultInjected) as exc:
        return f"state checkpoint to {store.describe()} failed ({exc}); continuing"
    return None


def torn_slot_paths(store: StateStore, key: str = "") -> tuple[str, str]:
    """(primary, backup) file paths backing a slot — for chaos tooling.

    Both backends ultimately persist through one primary file with a
    rotated ``.bak``; tests and the chaos CI legs tear those files to
    exercise the load ladder without knowing which backend they face.
    """
    if isinstance(store, FileStateStore):
        primary = store.path_for(key)
    elif isinstance(store, DatabaseStateStore):
        primary = store.dsn
    else:  # pragma: no cover - future backends
        raise ReproError(f"no file backing for {type(store).__name__}")
    return primary, backup_path(primary)
