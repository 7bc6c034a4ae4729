"""Seeded inputs and the seven workloads of the perf ledger.

Every workload is a closed loop with one client in one thread: the
caller issues an operation and waits for the reply. A workload builds
its inputs in :meth:`setup` (timed as ``setup_s``) and then runs
**laps**; a lap is a fixed list of operations over those inputs, so
every lap of a run does identical work, exact counts repeat lap after
lap, and the harness can run as many laps as ``--seconds`` allows.
``lap(state, timed)`` brackets what the user waits for with
``with timed():`` (``trace.Timed``): wall time and spans are taken
there and nowhere else.

What ``--seed`` varies: literals, draw order and statement order of
the generated statements. What it does not vary: the SDSS database
(``DB_SEED``), which templates exist, and the order in which templates
first appear. The built-in branch and bound is chaotic in those (the
same 30 templates in another first-occurrence order solve in 19 or in
885 nodes), so a seed that moved them would bury every timing under
input noise; see README.md.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass, field

from repro.advisor import compress
from repro.advisor.candidates import generate_candidates
from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.catalog.schema import index_signature
from repro.core.interactive import InteractiveDesigner
from repro.core.parinda import Parinda
from repro.errors import FaultInjected
from repro.online.monitor import render_statement
from repro.online.tuner import OnlineTuner
from repro.optimizer.planner import Planner
from repro.parallel.caches import CostCache
from repro.resilience.faults import FaultInjector
from repro.resilience.state import backup_path
from repro.resilience.store import DatabaseStateStore, store_from_spec
from repro.sql.tokenizer import Token, TokenType, tokenize
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

DB_SEED = 42
UPDATE_EVERY = 7
UPDATE_SQL = "UPDATE photoobj SET status = {status} WHERE objid = {objid}"


@dataclass
class Lap:
    """What one lap of a workload hands back to the harness."""

    ops: list[float]  # seconds of each operation the user waits on
    statements: int  # workload statements consumed in the timed parts
    cost_before: float
    cost_after: float
    digest: str  # identical across laps, passes and processes
    counts: dict[str, float] = field(default_factory=dict)  # exact
    phases: dict[str, float] = field(default_factory=dict)  # seconds
    attempted: int = 0  # operations (advises, statements, steps, resumes)
    failed: int = 0  # of those, the ones that failed
    failures: list[str] = field(default_factory=list)  # why, one line each
    # The harness's: seconds inside `with timed():`, and the factor it
    # multiplied this lap's durations by (run.py: Pulse).
    timed: float = 0.0
    speed: float = 1.0

    def fail_op(self, reasons: list[str]) -> None:
        """One operation failed if ``reasons`` is not empty."""
        if reasons:
            self.failed = min(self.failed + 1, self.attempted)
            self.failures += reasons

    def fail_lap(self, reasons: list[str]) -> None:
        """A check on the lap as a whole: if its end state is wrong,
        none of its operations counts."""
        if reasons:
            self.failed = self.attempted
            self.failures += reasons


# ----------------------------------------------------------------------
# Input generators


def shapes() -> list[str]:
    """The 30 SDSS query shapes, in survey order."""
    return [query.sql.strip() for query in sdss_workload()]


def perturb(sql: str, rng: random.Random) -> str:
    """A literal-perturbed instance of ``sql`` (same template): every
    float literal is nudged by a seed-drawn epsilon."""
    salt = rng.randrange(1, 300)
    out = []
    occurrence = 0
    for token in tokenize(sql):
        if token.type is TokenType.NUMBER and "." in token.value:
            occurrence += 1
            nudged = float(token.value) + (salt * 31 + occurrence) * 1e-7
            token = Token(TokenType.NUMBER, repr(nudged), token.position)
        out.append(token)
    return render_statement(out)


def perturbed_workload(rng: random.Random, count: int) -> Workload:
    """The first ``count`` survey queries with seed-drawn literals."""
    return Workload(
        queries=[
            Query(name=q.name, sql=perturb(q.sql.strip(), rng), weight=q.weight)
            for q in sdss_workload().queries[:count]
        ],
        name=f"sdss[:{count}]",
    )


def with_updates(selects: list[str], rng: random.Random) -> list[str]:
    """Interleave one ``UPDATE photoobj`` per ``UPDATE_EVERY`` statements."""
    out: list[str] = []
    for sql in selects:
        out.append(sql)
        if len(out) % UPDATE_EVERY == 0:
            out.append(UPDATE_SQL.format(
                status=rng.randrange(3), objid=1000 + rng.randrange(100000)
            ))
    return out


def scale_stream(rng: random.Random, size: int) -> list[str]:
    """``size`` statements cycling the 30 shapes plus periodic UPDATEs.

    The first cycle is the survey itself, in order; every later cycle
    is shuffled and literal-perturbed by the seed.
    """
    survey = shapes()
    selects = list(survey)
    while len(selects) < size:
        order = list(range(len(survey)))
        rng.shuffle(order)
        selects.extend(perturb(survey[k], rng) for k in order)
    return with_updates(selects, rng)[:size]


def mixes(width: int) -> list[list[int]]:
    """Fixed template mixes: consecutive ``width``-shape slices of the
    survey (each shape sits in exactly one mix)."""
    return [list(range(o, o + width)) for o in range(0, 30, width)]


def cycle_stream(
    rng: random.Random, phases: int, per_phase: int, width: int
) -> list[str]:
    """``phases`` × ``per_phase`` SELECTs; each phase walks one fixed
    mix round robin, so a window's distribution is steady inside a
    phase, drift fires at phase boundaries only, and the same drifts
    happen under every seed. The seed draws the literals."""
    survey = shapes()
    pool = mixes(width)
    return [
        perturb(survey[pool[phase % len(pool)][i % width]], rng)
        for phase in range(phases)
        for i in range(per_phase)
    ]


def two_template_stream(rng: random.Random, size: int) -> list[str]:
    """photo+spec for the first half, extinction+spec for the second
    (the ``bench_store`` drifting stream). Literals walk fixed cycles,
    so every window holds the same mix of selectivities, and are then
    seed-perturbed."""
    def photo(i):
        return f"SELECT objid FROM photoobj WHERE psfmag_r < {14 + i % 6}.5"

    def spec(i):
        return f"SELECT specobjid FROM specobj WHERE z < 0.{1 + i % 4}"

    def ext(i):
        return f"SELECT objid FROM photoobj WHERE extinction_r < 0.{1 + i % 4}"

    half = size // 2
    return [
        perturb((photo if i % 2 else spec)(i // 2), rng) for i in range(half)
    ] + [
        perturb((ext if i % 2 else spec)(i // 2), rng) for i in range(half, size)
    ]


# ----------------------------------------------------------------------
# Shared result plumbing


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def advise_digest(result) -> str:
    """Index signatures plus the IEEE-754 bytes of every cost."""
    floats = [result.cost_before, result.cost_after, result.maintenance_cost]
    for entry in result.per_query:
        floats.extend([entry.cost_before, entry.cost_after])
    return _sha(
        struct.pack(f"<{len(floats)}d", *floats),
        repr([(ix.table_name, ix.columns) for ix in result.indexes]).encode(),
        repr([(q.name, tuple(q.indexes_used)) for q in result.per_query]).encode(),
        str(result.size_pages).encode(),
    )


def advise_failures(result, where: str) -> list[str]:
    failures = []
    if result.solver_status != "optimal":
        failures.append(f"{where}: solver_status {result.solver_status!r}")
    if result.degraded:
        failures.append(f"{where}: degraded {[str(d) for d in result.degraded]}")
    return failures


def cache_counts(stats: dict) -> dict[str, float]:
    """Ledger counters from a ``CostCache.stats()`` dict."""
    return {
        "cache.hits": sum(s["hits"] for s in stats.values()),
        "cache.misses": sum(s["misses"] for s in stats.values()),
        "cache.evictions": sum(s["evictions"] for s in stats.values()),
        "cache.inum_misses": stats.get("inum", {}).get("misses", 0),
    }


def advise_counts(result) -> dict[str, float]:
    return {
        "advisor.solver_nodes": result.solver_nodes,
        "advisor.candidates": result.candidates_considered,
        "candidates.pruned": result.candidates_pruned,
        "advisor.queries_folded": result.queries_folded,
        "inum.optimizer_calls": result.optimizer_calls,
        "inum.estimates_served": result.inum_estimates,
        **cache_counts(result.cache_stats),
    }


def advise_phases(result) -> dict[str, float]:
    return {f"phase.{k}": v for k, v in result.phase_seconds.items()}


def _add(total: dict[str, float], extra: dict[str, float]) -> None:
    for key, value in extra.items():
        total[key] = total.get(key, 0) + value


def fleet_cost_ratio(fleet, pristine) -> tuple[float, float]:
    """Planner cost of the fleet's live window before (no design) and
    after (each query on its cheapest replica's *materialized*
    design)."""
    window = fleet.merged_monitor().snapshot()
    base = Planner(pristine)
    replicas = [
        (Planner(rt.database.catalog), rt.database.catalog)
        for rt in fleet.replicas
    ]
    before = after = 0.0
    for query in window:
        before += query.weight * base.plan(query.bind(pristine)).total_cost
        after += query.weight * min(
            planner.plan(query.bind(catalog)).total_cost
            for planner, catalog in replicas
        )
    return before, after


def fleet_terminal(fleet) -> tuple:
    return (
        fleet.phase,
        tuple(
            tuple(sorted(index_signature(ix) for ix in rt.design))
            for rt in fleet.replicas
        ),
    )


def fleet_failures(fleet, where: str) -> list[str]:
    failures = []
    counts = fleet.event_counts
    if fleet.phase != "serving":
        failures.append(f"{where}: ended in phase {fleet.phase!r}")
    for kind in ("rolled-back", "frozen", "quarantined", "degraded"):
        if counts.get(kind):
            failures.append(f"{where}: {counts[kind]} {kind} event(s)")
    for rt in fleet.replicas:
        if rt.status != "serving":
            failures.append(f"{where}: replica {rt.replica_id} {rt.status}")
    return failures


# ----------------------------------------------------------------------
# Workloads


class AdviseCold:
    name = "advise_cold"
    why = ("30-query suggest_indexes with a fresh facade and cache per op: "
           "inum+optimizer do the work, ilp solves in 1 node; the bypass "
           "workload for solver changes")
    op = "Parinda(db).suggest_indexes(wl, budget_pages=2000), fresh facade per op"

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000 if smoke else 8000, "queries": 30,
                "budget_pages": 2000, "ops_per_lap": 2 if smoke else 8}

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        db = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        return db, perturbed_workload(rng, p["queries"]), p

    def lap(self, state, timed) -> Lap:
        db, workload, p = state
        lap = Lap([], 0, 0.0, 0.0, "")
        for _ in range(p["ops_per_lap"]):
            with timed():
                started = time.perf_counter()
                result = Parinda(db).suggest_indexes(
                    workload, budget_pages=p["budget_pages"]
                )
                lap.ops.append(time.perf_counter() - started)
            lap.statements += len(workload)
            lap.attempted += 1
            reasons = advise_failures(result, self.name)
            digest = advise_digest(result)
            if lap.digest and digest != lap.digest:
                reasons.append(f"{self.name}: digest differs between ops")
            lap.fail_op(reasons)
            lap.digest = digest
            lap.cost_before, lap.cost_after = result.cost_before, result.cost_after
            _add(lap.counts, advise_counts(result))
            _add(lap.phases, advise_phases(result))
        return lap


class AdviseScale:
    name = "advise_scale"
    why = ("10k-statement stream with DML folded then advised under a tight "
           "budget: ~200 B&B nodes, ilp.simplex dominates, compress.fold is "
           "the rest; writes enter the objective here only")
    op = ("compress_statements(stream) -> IlpIndexAdvisor(compress=True, "
          "solver_deadline=20).recommend(folded, 430, update_rates=...)")

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000 if smoke else 8000,
                "statements": 1000 if smoke else 10000,
                "budget_pages": 430, "solver_deadline": 20.0,
                "check_prefix": 1000, "check_budget_pages": 2000}

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        db = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        return db, scale_stream(rng, p["statements"]), p

    def lap(self, state, timed) -> Lap:
        db, stream, p = state
        advisor = IlpIndexAdvisor(
            db.catalog, compress=True, solver_deadline=p["solver_deadline"]
        )
        with timed():
            started = time.perf_counter()
            folded = compress.compress_statements(stream)
            result = advisor.recommend(
                folded.workload, p["budget_pages"],
                update_rates=folded.workload.update_rates or None,
            )
            op = time.perf_counter() - started
        reasons = advise_failures(result, self.name)
        if folded.skipped:
            reasons.append(f"{self.name}: {folded.skipped} statements skipped")
        counts = advise_counts(result)
        counts["compress.dml_statements"] = folded.dml_statements
        lap = Lap(
            [op], len(stream),
            result.cost_before, result.cost_after, advise_digest(result),
            counts, advise_phases(result), attempted=1,
        )
        lap.fail_op(reasons)
        return lap

    def verify(self, state) -> tuple[int, int, list[str]]:
        """Compressed ≡ expanded on the stream's first statements (at a
        loose budget: the fold is what is checked, not the search)."""
        db, stream, p = state
        prefix = stream[: p["check_prefix"]]
        folded = compress.compress_statements(prefix).workload
        expanded = Workload(
            queries=[
                Query(name=f"s{i}", sql=sql)
                for i, sql in enumerate(prefix)
                if sql.split(None, 1)[0].lower() == "select"
            ],
            name="expanded",
        )
        advisor = IlpIndexAdvisor(db.catalog, compress=True)
        rates = folded.update_rates or None
        a = advisor.recommend(folded, p["check_budget_pages"], update_rates=rates)
        b = advisor.recommend(expanded, p["check_budget_pages"], update_rates=rates)
        if advise_digest(a) != advise_digest(b):
            return 1, 1, [f"{self.name}: compressed and expanded advising differ"]
        return 1, 0, []


class TuneDrift:
    name = "tune_drift"
    why = ("tune --stream over a drifting stream: per-statement "
           "tokenize/canonicalize (online.monitor) plus warm re-advises "
           "through the shared CostCache; ilp and optimizer do little")
    op = ("OnlineTuner(budget_pages=500, window_size=120, check_interval=60, "
          "build_cost_per_page=0.5).observe(sql) per statement, fresh tuner "
          "per lap; op latency = observe() calls that re-advised")

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000 if smoke else 8000,
                "phases": 3 if smoke else 12, "per_phase": 300 if smoke else 600,
                "mix_width": 10, "budget_pages": 500, "window_size": 120,
                "check_interval": 60, "build_cost_per_page": 0.5}

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        db = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        selects = cycle_stream(rng, p["phases"], p["per_phase"], p["mix_width"])
        return db, with_updates(selects, rng), p

    def lap(self, state, timed) -> Lap:
        db, stream, p = state
        advised = []
        tuner = OnlineTuner(
            db.catalog,
            budget_pages=p["budget_pages"],
            window_size=p["window_size"],
            check_interval=p["check_interval"],
            build_cost_per_page=p["build_cost_per_page"],
            listener=lambda e: advised.append(e.result)
            if e.kind == "re-advised" else None,
        )
        ops = []
        clock = time.perf_counter
        with timed():
            for sql in stream:
                seen = len(advised)
                t0 = clock()
                tuner.observe(sql)
                if len(advised) > seen:
                    ops.append(clock() - t0)

        # Steady state: every window template was modelled by an
        # earlier re-advise, so a forced one must not miss the INUM
        # snapshot cache (zero optimizer calls).
        misses = tuner.cache.counters["inum"].misses
        final = tuner.readvise(reason="final")
        reasons = advise_failures(final, f"{self.name} final")
        if tuner.cache.counters["inum"].misses != misses:
            reasons.append(f"{self.name}: warm re-advise missed the inum cache")
        events = tuner.event_counts
        counts = {
            "drift.fired": events["drifted"],
            "tuner.readvises": events["re-advised"],
            "tuner.recommended": events["recommended"],
            "tuner.held": events["held"],
            "monitor.templates": len(tuner.monitor.templates),
            "inum.optimizer_calls": sum(r.optimizer_calls for r in advised),
            "inum.estimates_served": sum(r.inum_estimates for r in advised),
            **cache_counts(tuner.cache.stats()),
        }
        # Summed over every re-advise: the quality of the whole run,
        # not of whichever window came last.
        lap = Lap(
            ops, len(stream),
            sum(r.cost_before for r in advised), sum(r.cost_after for r in advised),
            _sha(advise_digest(final).encode(), repr(sorted(counts.items())).encode()),
            counts, attempted=len(stream) + 1,  # every observe() + the forced one
        )
        lap.fail_op(reasons)
        for result in advised:
            lap.fail_op(advise_failures(result, self.name))
        for kind in ("quarantined", "degraded"):
            for _ in range(events[kind]):
                lap.fail_op([f"{self.name}: a statement was {kind}"])
        return lap


class FleetServe:
    name = "fleet_serve"
    why = ("fleet --serve on 3 replicas with a file: journal: drift -> "
           "re-tune -> rolling journaled apply; real B-tree builds (storage) "
           "dominate, then journal writes (resilience.store)")
    op = ("Parinda(db).fleet_serve(3, budget_pages=500, window_size=60, "
          "check_interval=30, warmup=60, max_rounds=3).observe(sql) per "
          "statement; op latency = drifted -> rollout-finished")

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000 if smoke else 4000, "replicas": 3,
                "phases": 2 if smoke else 4, "per_phase": 240, "mix_width": 3,
                "budget_pages": 500, "window_size": 60, "check_interval": 30,
                "warmup": 60, "max_rounds": 3}

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        db = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        stream = cycle_stream(rng, p["phases"], p["per_phase"], p["mix_width"])
        return db, stream, p, workdir

    def lap(self, state, timed) -> Lap:
        base, stream, p, workdir = state
        events: list[tuple[str, float]] = []
        clock = time.perf_counter
        cache = CostCache()
        lapdir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        try:
            fleet = Parinda(base.clone()).fleet_serve(
                p["replicas"],
                budget_pages=p["budget_pages"],
                state_store=store_from_spec(
                    "file:" + os.path.join(lapdir, "fleet.state")
                ),
                cost_cache=cache,
                window_size=p["window_size"],
                check_interval=p["check_interval"],
                warmup=p["warmup"],
                max_rounds=p["max_rounds"],
                listener=lambda e: events.append((e.kind, clock())),
            )
            with timed():
                for sql in stream:
                    fleet.observe(sql)
        finally:
            shutil.rmtree(lapdir, ignore_errors=True)
        ops = []
        drifted_at = None
        for kind, at in events:
            if kind == "drifted":
                drifted_at = at
            elif kind == "rollout-finished" and drifted_at is not None:
                ops.append(at - drifted_at)
                drifted_at = None
        reasons = fleet_failures(fleet, self.name)
        if not ops:
            reasons.append(f"{self.name}: no drift -> rollout cycle completed")
        before, after = fleet_cost_ratio(fleet, base.catalog)
        counts = {
            "fleet.rollouts": fleet.event_counts["rollout-finished"],
            "fleet.transitions": fleet.event_counts["transition-finished"],
            "fleet.drifted": fleet.event_counts["drifted"],
            **cache_counts(cache.stats()),
        }
        lap = Lap(
            ops, len(stream), before, after,
            _sha(repr(fleet_terminal(fleet)).encode(),
                 repr(sorted(counts.items())).encode()),
            counts, attempted=len(stream),
        )
        lap.fail_lap(reasons)
        return lap


class FleetResume:
    name = "fleet_resume"
    why = ("crash mid-rollout, lose every local file but the db: dsn pair, "
           "resume on a fresh host: resilience.store reads + lease + "
           "re-materialisation, the other side of fleet_serve's writes")
    op = ("set-up kills 5 runs at rollout.journal:N and keeps only each dsn "
          "pair; a lap times one sweep of DatabaseStateStore + acquire + "
          "fleet_serve(...) + resume() on fresh databases, then finishes "
          "the 5 streams")

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000, "replicas": 2,
                "statements": 192 if smoke else 384,
                "kill_points": 3 if smoke else 5, "budget_pages": 512,
                "window_size": 24, "check_interval": 12, "warmup": 24,
                "max_rounds": 3}

    def _fleet(self, db, dsn, p, injector, cache=None):
        store = DatabaseStateStore(db, dsn, fault_injector=injector)
        store.acquire(owner="ledger")
        return Parinda(db).fleet_serve(
            p["replicas"],
            budget_pages=p["budget_pages"],
            state_store=store,
            fault_injector=injector,
            cost_cache=cache if cache is not None else CostCache(),
            window_size=p["window_size"],
            check_interval=p["check_interval"],
            warmup=p["warmup"],
            max_rounds=p["max_rounds"],
        )

    @staticmethod
    def _drive(fleet, stream) -> str | None:
        """Feed the stream from the fleet's resume cursor; returns the
        injected fault's text when one fires."""
        for sql in stream[fleet.position:]:
            try:
                fleet.observe(sql)
            except FaultInjected as exc:
                return str(exc)
        return None

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        base = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        stream = two_template_stream(rng, p["statements"])
        rundir = tempfile.mkdtemp(prefix="crashed-", dir=workdir)
        # The fault-free run fixes the expected terminal designs and
        # counts the journal writes the kill points are spread over.
        injector = FaultInjector()
        clean = self._fleet(
            base.clone(), os.path.join(rundir, "clean.json"), p, injector
        )
        self._drive(clean, stream)
        writes = injector.checks("rollout.journal")
        first, last, n = 3, writes - 1, p["kill_points"]
        kills = sorted({first + round(i * (last - first) / (n - 1)) for i in range(n)})
        # Crash: one doomed run per kill point, each leaving its dsn
        # pair behind (host loss: nothing else survives). Every lap
        # resumes from copies of these.
        dsns, crashes = [], []
        for kill in kills:
            killdir = os.path.join(rundir, f"kill{kill}")
            os.mkdir(killdir)
            dsn = os.path.join(killdir, "db.json")
            doomed = self._fleet(
                base.clone(), dsn, p,
                FaultInjector.from_spec(f"rollout.journal:{kill}"),
            )
            reasons = []
            if self._drive(doomed, stream) is None:
                reasons.append(f"{self.name} kill {kill}: fault never fired")
            strays = set(os.listdir(killdir)) - {
                os.path.basename(dsn), os.path.basename(backup_path(dsn))
            }
            if strays:
                reasons.append(
                    f"{self.name} kill {kill}: stray files {sorted(strays)}"
                )
            dsns.append(dsn)
            crashes.append(reasons)
        return base, stream, p, workdir, fleet_terminal(clean), kills, dsns, crashes

    def verify(self, state) -> tuple[int, int, list[str]]:
        """Every kill fired mid-rollout and left only its dsn pair."""
        crashes = state[-1]
        return (len(crashes), sum(1 for reasons in crashes if reasons),
                [reason for reasons in crashes for reason in reasons])

    def lap(self, state, timed) -> Lap:
        base, stream, p, workdir, expected, kills, dsns, _crashes = state
        clock = time.perf_counter
        lapdir = tempfile.mkdtemp(prefix="resume-", dir=workdir)
        try:
            # Fresh hosts: a new database and a copy of the surviving
            # dsn pair each.
            survivors = []
            for kill, dsn in zip(kills, dsns):
                hostdir = os.path.join(lapdir, f"host{kill}")
                shutil.copytree(os.path.dirname(dsn), hostdir)
                survivors.append(os.path.join(hostdir, os.path.basename(dsn)))
            hosts = [(base.clone(), CostCache()) for _ in kills]
            with timed():
                # Recover: the operation. One sweep over the kill
                # points, because their resumes differ (13 to 140 ms)
                # and a median over a pool of five kinds would sit on
                # one of them.
                started = clock()
                fleets = []
                for dsn, (fresh, cache) in zip(survivors, hosts):
                    fleet = self._fleet(fresh, dsn, p, None, cache)
                    fleet.resume()
                    fleets.append(fleet)
                sweep = clock() - started
                positions = [fleet.position for fleet in fleets]
                for fleet in fleets:
                    self._drive(fleet, stream)
        finally:
            shutil.rmtree(lapdir, ignore_errors=True)

        lap = Lap(
            [sweep], sum(len(stream) - position for position in positions),
            0.0, 0.0, "", attempted=len(kills),
        )
        for kill, fleet, (_fresh, cache) in zip(kills, fleets, hosts):
            where = f"{self.name} kill {kill}"
            reasons = fleet_failures(fleet, where)
            if not fleet.resumed:
                reasons.append(f"{where}: started cold instead of resuming")
            if fleet_terminal(fleet) != expected:
                reasons.append(f"{where}: resumed designs differ from fault-free")
            lap.fail_op(reasons)
            before, after = fleet_cost_ratio(fleet, base.catalog)
            lap.cost_before += before
            lap.cost_after += after
            _add(lap.counts, {
                "fleet.rollouts": fleet.event_counts["rollout-finished"],
                "fleet.transitions": fleet.event_counts["transition-finished"],
                "fleet.resumed": fleet.event_counts["resumed"],
                **cache_counts(cache.stats()),
            })
        lap.digest = _sha(
            repr([(k, pos, fleet_terminal(f))
                  for k, pos, f in zip(kills, positions, fleets)]).encode(),
            repr(sorted(lap.counts.items())).encode(),
        )
        return lap


class WhatIfSession:
    name = "whatif_session"
    why = ("the interactive component: mutate the what-if design, "
           "re-evaluate 30 queries; whatif+optimizer with per-table epoch "
           "invalidation, no inum, no ilp; cached and invalidating steps")
    op = ("InteractiveDesigner(db): add index 60% / drop 25% / vertical "
          "partitions 10% / join-flag toggle 5%, then evaluate(sdss_workload())")

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000 if smoke else 8000,
                "steps": 60 if smoke else 300}

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        db = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        workload = sdss_workload()
        pool = sorted({
            (c.index.table_name, tuple(c.index.columns))
            for c in generate_candidates(db.catalog, workload)
        })
        return db, workload, self.script(rng, db.catalog, pool, p["steps"]), pool

    @staticmethod
    def script(rng, catalog, pool, steps) -> list[tuple]:
        """A valid step list, generated against a model of the session
        (which indexes stand, which tables are partitioned) so that no
        step is refused. The *shape* — step kinds and the table each
        touches — comes from a fixed generator, because a step's cost
        is set by how many of the 30 queries its table invalidates;
        the seed picks the columns, the cut and the join method."""
        shape = random.Random(0)
        tables = sorted({table for table, _ in pool})
        sizes = [sum(1 for t, _ in pool if t == table) for table in tables]
        flags = ("enable_nestloop", "enable_hashjoin", "enable_mergejoin")
        standing: list[tuple] = []
        partitioned: set[str] = set()
        out: list[tuple] = []
        for step in range(steps):
            draw = shape.random()
            table = shape.choices(tables, sizes)[0]
            free = [c for c in pool if c[0] == table
                    and all(c != s[1] for s in standing)]
            if draw < 0.85 and standing and (draw < 0.25 or not free):
                out.append(("drop", standing.pop(shape.randrange(len(standing)))[0]))
            elif draw < 0.85:
                choice = free[rng.randrange(len(free))]
                standing.append((f"w{step}", choice))
                out.append(("add", f"w{step}", *choice))
            elif draw < 0.95:
                if table in partitioned:
                    # One scheme per table and session: start over.
                    standing, partitioned = [], set()
                    out.append(("reset",))
                else:
                    spec = catalog.table(table)
                    columns = [c for c in spec.column_names
                               if c not in spec.primary_key]
                    cut = 1 + rng.randrange(len(columns) - 1)
                    partitioned.add(table)
                    out.append(("partition", table,
                                tuple(columns[:cut]), tuple(columns[cut:])))
            else:
                out.append(("flag", flags[rng.randrange(len(flags))]))
        return out

    def lap(self, state, timed) -> Lap:
        db, workload, script, pool = state
        designer = InteractiveDesigner(db)
        ops = []
        costs = []
        clock = time.perf_counter
        with timed():
            for step in script:
                t0 = clock()
                kind = step[0]
                if kind == "add":
                    designer.add_whatif_index(step[2], step[3], name=step[1])
                elif kind == "drop":
                    designer.session.drop_index(step[1])
                elif kind == "partition":
                    designer.add_whatif_partitions(step[1], [step[2], step[3]])
                elif kind == "reset":
                    designer.reset()
                else:
                    designer.session.set_join_flags(**{step[1]: False})
                evaluation = designer.evaluate(workload)
                if kind == "flag":
                    # The DBA looks at the plan change and switches the
                    # join method back on; the next step replans everything.
                    designer.session.set_join_flags(**{step[1]: True})
                ops.append(clock() - t0)
                costs.append(evaluation.cost_after)
        # The session explores, it does not converge, so its last
        # design says little. The ratio is read off one fixed design
        # (every sixth candidate) after the script; the digest below
        # pins every step's cost.
        designer.reset()
        for position, (table, columns) in enumerate(pool[::6]):
            designer.add_whatif_index(table, columns, name=f"ref{position}")
        reference = designer.evaluate(workload)
        return Lap(
            ops, len(script) * len(workload),
            reference.cost_before, reference.cost_after,
            _sha(struct.pack(f"<{len(costs)}d", *costs)),
            {"whatif.steps": len(script)}, attempted=len(script),
        )


class PartitionAutopart:
    name = "partition_autopart"
    why = ("suggest-partitions: ~90% raw optimizer.plan calls through "
           "what-if sessions, the rest autopart itself; ilp and inum "
           "unused, so planner gains show here and solver gains must not")
    op = "Parinda(db).suggest_partitions(first 10 survey queries)"

    def params(self, smoke: bool) -> dict:
        return {"photo_rows": 2000 if smoke else 8000,
                "queries": 4 if smoke else 10}

    def setup(self, seed: int, smoke: bool, workdir: str):
        p = self.params(smoke)
        rng = random.Random(seed)
        db = build_sdss_database(photo_rows=p["photo_rows"], seed=DB_SEED)
        return db, perturbed_workload(rng, p["queries"]), p

    def lap(self, state, timed) -> Lap:
        db, workload, p = state
        with timed():
            started = time.perf_counter()
            result = Parinda(db).suggest_partitions(workload)
            op = time.perf_counter() - started
        floats = [result.cost_before, result.cost_after]
        for entry in result.per_query:
            floats.extend([entry.cost_before, entry.cost_after])
        schemes = sorted(
            (name, scheme.fragments) for name, scheme in result.schemes.items()
        )
        counts = {
            "autopart.shells_shared": result.shells_shared,
            "autopart.rebinds_shared": result.rebinds_shared,
            "autopart.iterations": result.iterations,
            "autopart.evaluations": result.evaluations,
        }
        lap = Lap(
            [op], len(workload),
            result.cost_before, result.cost_after,
            _sha(struct.pack(f"<{len(floats)}d", *floats), repr(schemes).encode()),
            counts, attempted=1,
        )
        if result.degraded:
            lap.fail_op(
                [f"{self.name}: degraded {[str(d) for d in result.degraded]}"]
            )
        return lap


WORKLOADS = [
    AdviseCold(), AdviseScale(), TuneDrift(), FleetServe(), FleetResume(),
    WhatIfSession(), PartitionAutopart(),
]
