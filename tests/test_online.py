"""Online tuning subsystem: monitor, drift detection, tuner loop, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.catalog.schema import Index, index_signature
from repro.cli import main as cli_main
from repro.core.parinda import Parinda
from repro.errors import ReproError, TokenizeError
from repro.inum.model import CacheEntry
from repro.parallel.caches import CostCache
from repro.resilience.apply import MANAGED_PREFIX
from repro.resilience.state import load_state
from repro.resilience.store import FileStateStore
from repro.online import (
    DriftDetector,
    OnlineTuner,
    WorkloadMonitor,
    canonicalize,
    render_statement,
)
from repro.online.monitor import _RENORM_THRESHOLD
from repro.sql.tokenizer import Token, TokenType, tokenize
from repro.workloads.sdss import build_sdss_database, sdss_workload

from tests import reference

PRE = ("q01_box_search", "q05_star_colors", "q15_spec_redshift_join")
POST = ("q11_qso_color_cut", "q17_qso_spectra", "q26_field_objects")
BUDGET = 200


@pytest.fixture(scope="module")
def sdss_db():
    return build_sdss_database(photo_rows=1000, seed=42)


@pytest.fixture(scope="module")
def sdss_wl():
    return sdss_workload()


def vary(sql: str, salt: int) -> str:
    """A literal-varied instance of ``sql`` (same template)."""
    out = []
    occurrence = 0
    for token in tokenize(sql):
        if token.type is TokenType.NUMBER and "." in token.value:
            occurrence += 1
            nudged = float(token.value) + (salt * 31 + occurrence) * 1e-7
            token = Token(TokenType.NUMBER, repr(nudged), token.position)
        out.append(token)
    return render_statement(out)


def stream_of(workload, names, rounds, salt0=0):
    sql_of = {n: workload.query(n).sql.strip() for n in names}
    return [
        vary(sql_of[name], salt0 + r) for r in range(rounds) for name in names
    ]


def outputs_under_hash_seeds(script: str) -> set[str]:
    """The distinct stdouts of ``script`` under PYTHONHASHSEED 0..3."""
    return {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": str(seed),
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(4)
    }


# ----------------------------------------------------------------------
# Canonicalization


class TestCanonicalize:
    def test_literals_do_not_matter(self):
        a = canonicalize("SELECT ra FROM photoobj WHERE ra < 180.5 AND dec > 2")
        b = canonicalize("select ra from photoobj where ra < 12.25 and dec > 9")
        assert a == b
        assert "?" in a

    def test_string_literals_stripped(self):
        a = canonicalize("SELECT z FROM specobj WHERE specclass = 'qso'")
        b = canonicalize("SELECT z FROM specobj WHERE specclass = 'star'")
        assert a == b

    def test_structure_does_matter(self):
        a = canonicalize("SELECT ra FROM photoobj WHERE ra < 1")
        b = canonicalize("SELECT dec FROM photoobj WHERE ra < 1")
        assert a != b

    def test_whitespace_and_case_do_not_matter(self):
        a = canonicalize("SELECT  ra\nFROM photoobj   WHERE ra < 1")
        b = canonicalize("select ra from photoobj where ra < 1")
        assert a == b

    def test_empty_statement_rejected(self):
        with pytest.raises(ReproError):
            canonicalize("   -- just a comment")

    def test_render_round_trip(self, sdss_wl):
        for name in PRE:
            sql = sdss_wl.query(name).sql
            rendered = render_statement(list(tokenize(sql)))
            assert canonicalize(rendered) == canonicalize(sql)

    def test_varied_instances_share_template(self):
        sql = "SELECT objid FROM photoobj WHERE ra < 180.5 AND dec > 20.25"
        fingerprints = {canonicalize(vary(sql, salt)) for salt in range(5)}
        assert len(fingerprints) == 1
        # ... while the concrete statements genuinely differ.
        assert len({vary(sql, salt) for salt in range(5)}) == 5

    def test_trailing_semicolon_ignored(self):
        assert canonicalize("SELECT ra FROM photoobj WHERE ra < 1.5;") == (
            canonicalize("SELECT ra FROM photoobj WHERE ra < 9.25")
        )

    def test_in_list_arity_collapses(self):
        # IN-lists of different lengths are ONE template, not one per
        # arity — otherwise a literal-varied IN workload explodes the
        # template table and splits its window weight.
        two = canonicalize("SELECT ra FROM photoobj WHERE objid IN (1, 2)")
        four = canonicalize(
            "SELECT ra FROM photoobj WHERE objid IN (1, 2, 3, 4)"
        )
        one = canonicalize("SELECT ra FROM photoobj WHERE objid IN (7)")
        assert two == four == one
        assert "?+" in two

    def test_string_in_list_collapses(self):
        a = canonicalize("SELECT z FROM specobj WHERE specclass IN ('qso')")
        b = canonicalize(
            "SELECT z FROM specobj WHERE specclass IN ('a', 'b', 'c')"
        )
        assert a == b

    def test_non_literal_lists_do_not_collapse(self):
        # Only all-literal runs collapse; column lists keep their shape.
        a = canonicalize("SELECT ra FROM photoobj WHERE objid IN (run, 2)")
        b = canonicalize("SELECT ra FROM photoobj WHERE objid IN (1, 2)")
        assert a != b
        assert "?+" not in a


# ----------------------------------------------------------------------
# The monitor


class TestWorkloadMonitor:
    A = "SELECT ra FROM photoobj WHERE ra < 1.5"
    B = "SELECT dec FROM photoobj WHERE dec < 1.5"

    def test_window_slides(self):
        monitor = WorkloadMonitor(window_size=4)
        for salt in range(4):
            monitor.observe(vary(self.A, salt))
        for salt in range(3):
            monitor.observe(vary(self.B, salt))
        counts = monitor.window_counts
        a_fp, b_fp = canonicalize(self.A), canonicalize(self.B)
        assert counts == {a_fp: 1, b_fp: 3}
        assert monitor.observed == 7

    def test_malformed_number_is_untemplatable_not_a_crash(self):
        monitor = WorkloadMonitor(window_size=4)
        with pytest.raises(TokenizeError, match="malformed number"):
            monitor.observe("SELECT ra FROM photoobj WHERE ra < 1e")
        assert monitor.observed == 0 and not monitor.templates
        monitor.observe(self.A)
        assert [q.sql for q in monitor.snapshot()] == [self.A]

    def test_window_distribution_normalized(self):
        monitor = WorkloadMonitor(window_size=8)
        monitor.observe(self.A)
        monitor.observe(self.B)
        monitor.observe(self.B)
        dist = monitor.window_distribution()
        assert dist[canonicalize(self.A)] == pytest.approx(1 / 3)
        assert dist[canonicalize(self.B)] == pytest.approx(2 / 3)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_profile_decays_toward_recent(self):
        monitor = WorkloadMonitor(window_size=100, decay=0.5)
        for _ in range(3):
            monitor.observe(self.A)
        for _ in range(3):
            monitor.observe(self.B)
        profile = monitor.profile_distribution()
        # Same observation counts, but B is more recent: with decay 0.5
        # it must dominate the long-term profile.
        assert profile[canonicalize(self.B)] > 2 * profile[canonicalize(self.A)]

    def test_profile_renormalization_is_scale_invariant(self):
        monitor = WorkloadMonitor(window_size=8, decay=0.01)
        for _ in range(12):  # forces several renormalizations
            monitor.observe(self.A)
        monitor.observe(self.B)
        profile = monitor.profile_distribution()
        assert profile[canonicalize(self.B)] > profile[canonicalize(self.A)]

    def test_snapshot_is_an_ordinary_workload(self):
        monitor = WorkloadMonitor(window_size=8)
        first = "SELECT ra FROM photoobj WHERE ra < 42.0;"
        monitor.observe(first)
        monitor.observe(vary(self.A, 9))
        monitor.observe(self.B)
        snapshot = monitor.snapshot()
        # Template ids are first-seen ordered and stable in shape.
        names = [q.name for q in snapshot]
        assert len(names) == 2
        assert names[0].startswith("t001_") and names[1].startswith("t002_")
        # The representative SQL is the FIRST observed instance, without
        # the trailing semicolon, and the weight is the window count.
        assert snapshot.queries[0].sql == first.rstrip(";")
        assert snapshot.queries[0].weight == 2.0
        assert snapshot.queries[1].weight == 1.0
        assert snapshot.name == "online@3"

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            WorkloadMonitor(window_size=0)
        with pytest.raises(ReproError):
            WorkloadMonitor(decay=0.0)
        with pytest.raises(ReproError):
            WorkloadMonitor(decay=1.5)

    def test_dml_classified_and_rated(self):
        monitor = WorkloadMonitor(window_size=16)
        monitor.observe(self.A)
        monitor.observe("INSERT INTO photoobj VALUES (1, 2.5)")
        monitor.observe("UPDATE photoobj SET ra = 1.5 WHERE objid = 3")
        monitor.observe("DELETE FROM specobj WHERE z < 0.5")
        kinds = {t.kind for t in monitor.templates.values()}
        assert kinds == {"select", "insert", "update", "delete"}
        insert_fp = canonicalize("INSERT INTO photoobj VALUES (9, 9.9)")
        assert monitor.templates[insert_fp].target_table == "photoobj"
        # Per-table window rates, in statement units.
        assert monitor.update_rates() == {"photoobj": 2.0, "specobj": 1.0}
        # DML participates in the window/drift distributions...
        assert len(monitor.window_distribution()) == 4
        # ...but snapshots stay SELECT-only, with rates riding along.
        snapshot = monitor.snapshot()
        assert [q.sql for q in snapshot] == [self.A]
        assert snapshot.update_rates == {"photoobj": 2.0, "specobj": 1.0}

    def test_insert_arity_shares_template(self):
        monitor = WorkloadMonitor(window_size=8)
        t1 = monitor.observe("INSERT INTO photoobj VALUES (1, 2)")
        t2 = monitor.observe("INSERT INTO photoobj VALUES (3, 4, 5)")
        assert t1.fingerprint == t2.fingerprint

    def test_dml_rates_expire_with_the_window(self):
        monitor = WorkloadMonitor(window_size=2)
        monitor.observe("UPDATE photoobj SET ra = 1.5 WHERE objid = 3")
        monitor.observe(self.A)
        monitor.observe(self.B)  # update slides out
        assert monitor.update_rates() == {}

    def test_unparseable_select_is_quarantined(self):
        monitor = WorkloadMonitor(window_size=8)
        monitor.observe(self.A)
        bad = monitor.observe("SELECT ra FROM")  # tokenizes, never parses
        assert monitor.is_quarantined(bad.fingerprint)
        assert monitor.is_quarantined(bad.template_id)
        assert bad.fingerprint in monitor.quarantined
        # Real traffic: still counted in the window, never advised on.
        assert monitor.window_counts[bad.fingerprint] == 1
        assert [q.sql for q in monitor.snapshot()] == [self.A]

    def test_quarantine_by_hand_and_unknown_key(self):
        monitor = WorkloadMonitor(window_size=8)
        template = monitor.observe(self.A)
        monitor.quarantine(template.template_id)
        assert monitor.is_quarantined(template.fingerprint)
        assert len(monitor.snapshot()) == 0
        with pytest.raises(ReproError):
            monitor.quarantine("no-such-template")

    def test_utilization_profile_normalized_select_only(self):
        monitor = WorkloadMonitor(window_size=16)
        a = monitor.observe(self.A)
        monitor.observe(vary(self.A, 1))
        b = monitor.observe(self.B)
        monitor.observe("INSERT INTO photoobj VALUES (1, 2.5)")
        profile = monitor.utilization_profile()
        # Keyed by template id, normalized over advisable (SELECT,
        # unquarantined) traffic only — DML contributes nothing.
        assert set(profile) == {a.template_id, b.template_id}
        assert profile[a.template_id] == pytest.approx(2 / 3)
        assert profile[b.template_id] == pytest.approx(1 / 3)
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_utilization_profile_excludes_held_templates(self):
        monitor = WorkloadMonitor(window_size=16)
        a = monitor.observe(self.A)
        b = monitor.observe(self.B)
        monitor.quarantine(a.template_id)
        profile = monitor.utilization_profile()
        assert set(profile) == {b.template_id}
        assert profile[b.template_id] == pytest.approx(1.0)
        # An unparseable (auto-held) template is excluded the same way.
        monitor.observe("SELECT ra FROM")
        assert set(monitor.utilization_profile()) == {b.template_id}

    def test_utilization_profile_follows_window_truncation(self):
        monitor = WorkloadMonitor(window_size=2)
        a = monitor.observe(self.A)
        monitor.observe(self.B)
        monitor.observe(vary(self.B, 1))  # A slides out of the window
        profile = monitor.utilization_profile()
        assert a.template_id not in profile
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_utilization_profile_empty_cases(self):
        monitor = WorkloadMonitor(window_size=4)
        assert monitor.utilization_profile() == {}
        # A window holding only DML has no advisable share to split.
        monitor.observe("INSERT INTO photoobj VALUES (1, 2.5)")
        assert monitor.utilization_profile() == {}

    def test_save_load_round_trip(self):
        monitor = WorkloadMonitor(window_size=4, decay=0.9)
        statements = [
            vary(self.A, 0),
            vary(self.B, 0),
            "UPDATE photoobj SET ra = 1.5 WHERE objid = 3",
            "SELECT ra FROM",  # quarantined
            vary(self.A, 1),
            vary(self.B, 1),
        ]
        for sql in statements:
            monitor.observe(sql)
        # Through actual JSON, as the CLI's --state file does.
        restored = WorkloadMonitor.load(json.loads(json.dumps(monitor.save())))
        assert restored.observed == monitor.observed
        assert restored.window_counts == monitor.window_counts
        assert restored.window_distribution() == monitor.window_distribution()
        assert restored.profile_distribution() == (
            monitor.profile_distribution()
        )
        assert restored.update_rates() == monitor.update_rates()
        assert restored.quarantined == monitor.quarantined
        # Snapshots — the advisor's input — must be identical, template
        # ids included.
        a, b = monitor.snapshot(), restored.snapshot()
        assert [(q.name, q.sql, q.weight) for q in a] == [
            (q.name, q.sql, q.weight) for q in b
        ]
        # And the two monitors must keep agreeing as the stream goes on.
        for sql in (vary(self.A, 2), vary(self.B, 2)):
            monitor.observe(sql)
            restored.observe(sql)
        assert restored.window_distribution() == monitor.window_distribution()
        assert restored.profile_distribution() == (
            monitor.profile_distribution()
        )

    def test_load_rejects_unknown_versions(self):
        monitor = WorkloadMonitor(window_size=4)
        monitor.observe(self.A)
        state = monitor.save()
        state["version"] = 99
        with pytest.raises(ReproError):
            WorkloadMonitor.load(state)


# ----------------------------------------------------------------------
# Drift detection


class TestDriftDetector:
    def test_identical_distributions_are_stable(self):
        detector = DriftDetector()
        dist = {"a": 0.6, "b": 0.4}
        report = detector.compare(dist, dict(dist))
        assert not report.drifted
        assert report.reason == "stable"
        assert report.total_variation == pytest.approx(0.0)

    def test_small_shift_below_threshold(self):
        detector = DriftDetector(weight_threshold=0.2)
        report = detector.compare({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
        assert not report.drifted
        assert report.total_variation == pytest.approx(0.1)

    def test_weight_shift_drifts(self):
        detector = DriftDetector(weight_threshold=0.2)
        report = detector.compare({"a": 0.9, "b": 0.1}, {"a": 0.3, "b": 0.7})
        assert report.drifted
        assert report.total_variation == pytest.approx(0.6)
        assert "weight shift" in report.reason

    def test_new_template_drifts(self):
        detector = DriftDetector(weight_threshold=0.9, new_template_share=0.05)
        report = detector.compare({"a": 1.0}, {"a": 0.8, "b": 0.2})
        assert report.drifted
        assert report.new_templates == ("b",)

    def test_tiny_new_template_ignored(self):
        detector = DriftDetector(weight_threshold=0.9, new_template_share=0.05)
        report = detector.compare({"a": 1.0}, {"a": 0.99, "b": 0.01})
        assert not report.drifted

    def test_vanished_template_drifts(self):
        detector = DriftDetector(
            weight_threshold=0.9, vanished_template_share=0.05
        )
        report = detector.compare({"a": 0.8, "b": 0.2}, {"a": 1.0})
        assert report.drifted
        assert report.vanished_templates == ("b",)

    # All thresholds are inclusive: a stream sitting exactly on one must
    # re-advise, not ride the edge forever.

    def test_weight_threshold_equality_drifts(self):
        # 0.75/0.25 are exact in binary, so the distance is exactly the
        # threshold — the inclusive comparison must fire.
        detector = DriftDetector(weight_threshold=0.25, new_template_share=0.5)
        report = detector.compare({"a": 1.0}, {"a": 0.75, "b": 0.25})
        assert report.total_variation == 0.25
        assert report.drifted
        assert "weight shift" in report.reason
        assert report.new_templates == ()  # b's share is below 0.5

    def test_new_template_share_equality_drifts(self):
        detector = DriftDetector(weight_threshold=0.9, new_template_share=0.05)
        report = detector.compare({"a": 1.0}, {"a": 0.95, "b": 0.05})
        assert report.drifted
        assert report.new_templates == ("b",)

    def test_vanished_share_equality_drifts(self):
        detector = DriftDetector(
            weight_threshold=0.9, vanished_template_share=0.05
        )
        report = detector.compare({"a": 0.95, "b": 0.05}, {"a": 1.0})
        assert report.drifted
        assert report.vanished_templates == ("b",)

    def test_at_threshold_decision_ignores_hash_seed(self):
        """A 24/120 shift sits exactly on weight_threshold=0.2; summed
        in str-hash order it fired under some seeds and held under
        others."""
        script = (
            "from repro.online import DriftDetector\n"
            "names = [f'select c{i} from t0 where c{i} = ?' for i in range(12)]\n"
            "shift = (7, 6, 5, 3, 2, 1, -1, -2, -3, -5, -6, -7)\n"
            "baseline = {n: 10 / 120 for n in names}\n"
            "current = {n: (10 + d) / 120 for n, d in zip(names, shift)}\n"
            "r = DriftDetector(weight_threshold=0.2).compare(baseline, current)\n"
            "print(repr(r.total_variation), r.drifted)\n"
        )
        outputs = outputs_under_hash_seeds(script)
        assert len(outputs) == 1, outputs

    def test_tuner_decisions_ignore_hash_seed(self):
        """Four query mixes, each held long enough to drift, re-advise
        and hold: event counts and the final design are the same under
        every str-hash order."""
        script = (
            "from repro.online import OnlineTuner\n"
            "from repro.workloads.sdss import build_sdss_database, sdss_workload\n"
            "db = build_sdss_database(photo_rows=1000, seed=42)\n"
            "sqls = [q.sql.strip() for q in sdss_workload()]\n"
            "tuner = OnlineTuner(db.catalog, budget_pages=200, window_size=24,\n"
            "                    check_interval=8, build_cost_per_page=0.25)\n"
            "for lo in (0, 8, 16, 4):\n"
            "    tuner.run(sqls[lo:lo + 8] * 4)\n"
            "assert tuner.event_counts['drifted'] > 3\n"
            "assert tuner.event_counts['held'] and tuner.design\n"
            "print(sorted(tuner.event_counts.items()))\n"
            "print([(ix.table_name, ix.columns) for ix in tuner.design])\n"
        )
        outputs = outputs_under_hash_seeds(script)
        assert len(outputs) == 1, outputs


# ----------------------------------------------------------------------
# The tuner loop


class TestOnlineTuner:
    def make_tuner(self, db, **kwargs):
        kwargs.setdefault("budget_pages", BUDGET)
        kwargs.setdefault("window_size", 9)
        kwargs.setdefault("check_interval", 3)
        kwargs.setdefault("build_cost_per_page", 0.25)
        return OnlineTuner(db.catalog, **kwargs)

    def test_stable_stream_never_readvises(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db)
        tuner.run(stream_of(sdss_wl, PRE, 12))
        assert tuner.readvise_count == 1  # warmup only
        assert tuner.event_counts["drifted"] == 0
        assert tuner.last_drift is not None and not tuner.last_drift.drifted

    def test_shift_is_detected_and_design_converges(self, sdss_db, sdss_wl):
        # (SQL advised, cumulative inum misses) per re-advise; inline
        # mode, so the window at emit time is the window advised.
        advised = []

        def on_event(event):
            if event.kind == "re-advised":
                advised.append(
                    (
                        {q.sql for q in tuner.monitor.snapshot()},
                        event.result.cache_stats["inum"]["misses"],
                    )
                )

        tuner = self.make_tuner(sdss_db, listener=on_event)
        tuner.run(
            stream_of(sdss_wl, PRE, 6) + stream_of(sdss_wl, POST, 8, salt0=100)
        )
        assert tuner.event_counts["drifted"] >= 1
        assert tuner.readvise_count >= 2
        # The cache keeps the models: a re-advise (and its hysteresis
        # pass) builds one only for SQL no earlier re-advise modelled.
        assert len(advised) == tuner.readvise_count
        seen, built = set(), 0
        for sqls, misses in advised:
            assert misses - built == len(sqls - seen)
            seen |= sqls
            built = misses
        assert built == len(seen) == tuner.cache.counters["inum"].misses
        # Pinned: the standing-vs-proposed comparison adopts these
        # designs with this arithmetic. No design carries an index whose
        # removal leaves its cost unchanged.
        assert [(e.sequence, e.detail) for e in tuner.events_of("recommended")] == [
            (9, "benefit 296 > build 5 (19 new pages)"),
            (21, "benefit 24 > build 2 (7 new pages)"),
            (27, "drop-only switch, no builds needed"),
        ]
        assert [(e.sequence, e.detail) for e in tuner.events_of("held")] == [
            (24, "design unchanged")
        ]

        # Bit-identical to the batch advisor on the same window snapshot.
        final = tuner.readvise(reason="test")
        batch = IlpIndexAdvisor(sdss_db.catalog).recommend(
            tuner.monitor.snapshot(), BUDGET
        )
        assert final.indexes == batch.indexes
        assert final.cost_before == batch.cost_before
        assert final.cost_after == batch.cost_after
        assert [
            (b.name, b.cost_before, b.cost_after) for b in final.per_query
        ] == [(b.name, b.cost_before, b.cost_after) for b in batch.per_query]

        # The window is pure post-shift: the adopted design must match
        # the batch answer for the plain post-shift workload.
        post = type(sdss_wl)(
            queries=[sdss_wl.query(n) for n in POST], name="post"
        )
        batch_post = IlpIndexAdvisor(sdss_db.catalog).recommend(post, BUDGET)
        assert {index_signature(ix) for ix in tuner.design} == {
            index_signature(ix) for ix in batch_post.indexes
        }

    def test_warm_readvise_makes_no_optimizer_calls(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db)
        tuner.run(stream_of(sdss_wl, PRE, 3))
        assert tuner.readvise_count == 1
        misses_before = tuner.cache.counters["inum"].misses
        assert misses_before == len(PRE)
        tuner.readvise(reason="warm")
        tuner.readvise(reason="warm again")
        # Same templates, same catalog version: every INUM model comes
        # back from the cache — zero new builds, hence zero raw
        # optimizer calls.
        assert tuner.cache.counters["inum"].misses == misses_before
        assert tuner.cache.counters["inum"].hits >= 2 * len(PRE)

    def test_hysteresis_holds_marginal_designs(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db, build_cost_per_page=1e9)
        tuner.run(stream_of(sdss_wl, PRE, 3))
        assert tuner.readvise_count == 1
        assert [e.detail for e in tuner.events_of("held")] == [
            "benefit 296 <= build 19000000000 (19 new pages)"
        ]
        assert tuner.event_counts["recommended"] == 0
        assert tuner.design == []  # proposal recorded, nothing adopted
        assert tuner.last_result is not None
        assert len(tuner.last_result.indexes) > 0

    def test_unchanged_design_is_held_not_readopted(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db)
        tuner.run(stream_of(sdss_wl, PRE, 3))
        adopted = tuner.event_counts["recommended"]
        tuner.readvise(reason="same window")
        assert tuner.event_counts["recommended"] == adopted
        held = tuner.events_of("held")
        assert held and held[-1].detail == "design unchanged"

    def test_cache_bound_respected(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db, cost_cache=CostCache(max_entries=8))
        tuner.run(
            stream_of(sdss_wl, PRE, 4) + stream_of(sdss_wl, POST, 5, salt0=50)
        )
        stats = tuner.cache.stats()
        assert all(entry["peak_size"] <= 8 for entry in stats.values())
        assert sum(entry["evictions"] for entry in stats.values()) > 0

    def test_only_readvising_decisions_take_a_snapshot(
        self, monkeypatch, sdss_db, sdss_wl
    ):
        calls = {"snapshot": 0, "compare": 0}

        def counted(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        counted(WorkloadMonitor, "snapshot")
        counted(DriftDetector, "compare")
        tuner = self.make_tuner(sdss_db)
        tuner.run(
            stream_of(sdss_wl, PRE, 12) + stream_of(sdss_wl, POST, 12, salt0=50)
        )
        tuner.readvise()
        drifted = tuner.event_counts["drifted"]
        assert 0 < drifted < calls["compare"]  # drifted and steady checks
        # One snapshot each for the warmup, every drifted check and the
        # forced re-advise; a steady check takes none.
        assert calls["snapshot"] == 1 + drifted + 1

    def test_event_log_and_listener_agree(self, sdss_db, sdss_wl):
        seen = []
        tuner = self.make_tuner(sdss_db, listener=seen.append)
        tuner.run(stream_of(sdss_wl, PRE, 3))
        assert seen == tuner.events
        assert tuner.event_counts["observed"] == 9
        readvised = tuner.events_of("re-advised")
        assert readvised and readvised[0].result is tuner.last_result

    def test_parameter_validation(self, sdss_db):
        with pytest.raises(ReproError):
            OnlineTuner(sdss_db.catalog, budget_pages=0)
        with pytest.raises(ReproError):
            OnlineTuner(sdss_db.catalog, budget_pages=10, check_interval=0)
        with pytest.raises(ReproError):
            OnlineTuner(
                sdss_db.catalog, budget_pages=10, build_cost_per_page=-1.0
            )
        tuner = OnlineTuner(sdss_db.catalog, budget_pages=10)
        with pytest.raises(ReproError):
            tuner.readvise()  # nothing observed yet
        with pytest.raises(ReproError):
            tuner.events_of("no-such-kind")


# ----------------------------------------------------------------------
# The held-baseline regression (white-box, stubbed advisor)

A_SQL = "SELECT ra FROM photoobj WHERE ra < 1.5"
B_SQL = "SELECT z FROM specobj WHERE z < 1.5"
IX_A = Index(
    name="stub_a", table_name="photoobj", columns=("ra",), hypothetical=True
)
IX_B = Index(
    name="stub_b", table_name="specobj", columns=("z",), hypothetical=True
)


class _StubModel:
    """What ``WorkloadEvaluator`` reads of a model: one relation, one
    cache entry, a sequential scan at 100 and "its" index at 95."""

    def __init__(self, index):
        rel = SimpleNamespace(table=SimpleNamespace(name=index.table_name))
        self._query = SimpleNamespace(aliases=["t"], rel=lambda alias: rel)
        self._orders = {"t": []}
        self._seq_costs = {"t": 100.0}
        self._entries = [
            CacheEntry((("t", None),), True, 0.0, (("t", 1.0),), plan=None)
        ]
        self._signature = index_signature(index)

    def _access_info(self, alias, index):
        mine = index_signature(index) == self._signature
        return SimpleNamespace(cost=95.0 if mine else 100.0, provides=frozenset())


class _StubAdvisor:
    """Proposes IX_A always, plus IX_B once specobj queries appear.

    Every query saves a flat 5 from "its" index, so the hysteresis
    benefit of a window is exactly 5 x (weight of newly covered
    queries) — hand-computable, no ILP involved.
    """

    def recommend(self, workload, budget_pages, update_rates=None, **kwargs):
        indexes = [IX_A]
        if any("specobj" in q.sql for q in workload):
            indexes.append(IX_B)
        return SimpleNamespace(indexes=tuple(indexes))

    def build_models(self, workload, cost_cache=None, **kwargs):
        return {
            q.name: _StubModel(IX_B if "specobj" in q.sql else IX_A)
            for q in workload
        }


class TestHeldBaselineRegression:
    """A held re-advise must NOT move the drift baseline.

    The baseline is the mix the STANDING design was computed for; if a
    hold absorbs it, a two-step shift whose first step is held becomes
    invisible — each step is individually below threshold against the
    crept baseline, and the tuner never adopts a design it provably
    should. Scenario (window 8, drift check every 8, build cost 10 per
    new index, every covered query saves 5):

      warmup  8xA            -> IX_A adopted  (benefit 40 > 10)
      step 1  6xA 2xB window -> drift; +IX_B held (benefit 10 <= 10)
      step 2  4xA 4xB window -> must STILL drift; +IX_B adopted (20 > 10)

    With the old behaviour the hold moved the baseline to the 6A2B mix,
    step 2 measured only TV 0.25 < 0.4 with no new templates, and the
    shift was never seen again.
    """

    def make_tuner(self, db):
        tuner = OnlineTuner(
            db.catalog,
            budget_pages=BUDGET,
            window_size=8,
            check_interval=8,
            warmup=8,
            build_cost_per_page=1.0,
        )
        tuner.detector = DriftDetector(
            weight_threshold=0.4, new_template_share=0.05
        )
        tuner._advisor = _StubAdvisor()
        tuner._index_pages = lambda ix: 10
        return tuner

    def test_two_step_shift_held_then_adopted(self, sdss_db):
        tuner = self.make_tuner(sdss_db)
        fp_a = canonicalize(A_SQL)

        for salt in range(8):
            tuner.observe(vary(A_SQL, salt))
        assert tuner.event_counts["recommended"] == 1
        assert {index_signature(ix) for ix in tuner.design} == {
            index_signature(IX_A)
        }
        assert tuner.save_state()["baseline"] == {fp_a: 1.0}

        for salt in range(6):
            tuner.observe(vary(A_SQL, 100 + salt))
        for salt in range(2):
            tuner.observe(vary(B_SQL, salt))
        assert tuner.event_counts["drifted"] == 1
        assert tuner.event_counts["held"] == 1
        assert {index_signature(ix) for ix in tuner.design} == {
            index_signature(IX_A)
        }
        # THE fix: the baseline still belongs to the standing design.
        assert tuner.save_state()["baseline"] == {fp_a: 1.0}

        for salt in range(4):
            tuner.observe(vary(A_SQL, 200 + salt))
        for salt in range(4):
            tuner.observe(vary(B_SQL, 100 + salt))
        assert tuner.event_counts["drifted"] == 2
        assert tuner.event_counts["recommended"] == 2
        assert {index_signature(ix) for ix in tuner.design} == {
            index_signature(IX_A),
            index_signature(IX_B),
        }

    def test_reconfirmed_design_does_move_the_baseline(self, sdss_db):
        # The counterpart: a "design unchanged" hold IS a reconfirmation
        # for the new mix, so the baseline follows it (otherwise a
        # stable-design mix change would re-check as drifted forever).
        tuner = self.make_tuner(sdss_db)
        for salt in range(8):
            tuner.observe(vary(A_SQL, salt))
        varied = canonicalize(
            "SELECT ra FROM photoobj WHERE ra < 1.5 AND dec > 2.5"
        )
        # A second photoobj shape: proposal stays exactly [IX_A].
        for salt in range(4):
            tuner.observe(vary(A_SQL, 300 + salt))
        for salt in range(4):
            tuner.observe(
                vary(
                    "SELECT ra FROM photoobj WHERE ra < 1.5 AND dec > 2.5",
                    salt,
                )
            )
        assert tuner.event_counts["drifted"] == 1
        held = tuner.events_of("held")
        assert held and held[-1].detail == "design unchanged"
        baseline = tuner.save_state()["baseline"]
        assert baseline[varied] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Quarantine + DML through the tuner


class TestQuarantineAndDml:
    def make_tuner(self, db, **kwargs):
        kwargs.setdefault("budget_pages", BUDGET)
        kwargs.setdefault("window_size", 9)
        kwargs.setdefault("check_interval", 3)
        kwargs.setdefault("build_cost_per_page", 0.25)
        return OnlineTuner(db.catalog, **kwargs)

    def test_parse_failure_quarantined_not_fatal(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db)
        bad = "SELECT ra FROM"  # tokenizes, never parses
        stream = stream_of(sdss_wl, PRE, 2)
        tuner.run(stream[:3] + [bad] + stream[3:] + [bad])
        assert tuner.event_counts["quarantined"] == 1  # announced once
        assert tuner.monitor.is_quarantined(canonicalize(bad))
        # The quarantined template never reaches the advisor again.
        result = tuner.readvise(reason="after quarantine")
        assert result is not None and len(result.indexes) > 0
        assert all("t0" in q.name for q in tuner.monitor.snapshot())

    def test_bind_failure_quarantined_at_advise(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db)
        phantom = "SELECT nosuchcol FROM photoobj WHERE ra < 1.5"
        stream = stream_of(sdss_wl, PRE, 3)
        # The phantom parses fine; only binding against the catalog can
        # reject it — which happens inside the warmup advise (the
        # stream is long enough that warmup fires with it in-window).
        tuner.run(stream[:3] + [phantom] + stream[3:])
        assert tuner.event_counts["quarantined"] == 1
        assert tuner.monitor.is_quarantined(canonicalize(phantom))
        assert tuner.last_result is not None
        assert tuner.readvise_count >= 1
        names = [q.sql for q in tuner.monitor.snapshot()]
        assert phantom not in names

    def test_dml_reaches_the_advisor(self, sdss_db, sdss_wl):
        tuner = self.make_tuner(sdss_db, window_size=12)
        selects = stream_of(sdss_wl, PRE, 3)
        updates = [
            f"UPDATE photoobj SET ra = {salt}.5 WHERE objid = {salt}"
            for salt in range(3)
        ]
        tuner.run(selects[:6] + updates + selects[6:])
        assert tuner.monitor.update_rates()["photoobj"] == 3.0
        result = tuner.readvise(reason="with dml")
        # The advisor saw the write rates: its objective charged index
        # maintenance on the written table.
        assert result.maintenance_cost > 0

    def test_dml_only_window_is_held_not_fatal(self, sdss_db):
        tuner = self.make_tuner(sdss_db, window_size=4, warmup=4)
        for salt in range(8):  # crosses a post-warmup drift check too
            tuner.observe(
                f"UPDATE photoobj SET ra = {salt}.5 WHERE objid = {salt}"
            )
        # Warmup fired on a window with zero advisable SELECTs: held,
        # not AdvisorError, and no drift churn afterwards.
        held = tuner.events_of("held")
        assert held and "no advisable SELECT" in held[0].detail
        assert tuner.event_counts["drifted"] == 0
        assert tuner.design == []
        assert tuner.readvise(reason="still empty") is None


# ----------------------------------------------------------------------
# Durability: save_state / restore_state


class TestDurability:
    def make_tuner(self, db):
        return OnlineTuner(
            db.catalog,
            budget_pages=BUDGET,
            window_size=9,
            check_interval=3,
            build_cost_per_page=0.25,
        )

    def test_restart_resumes_bit_identically(self, sdss_db, sdss_wl):
        stream = stream_of(sdss_wl, PRE, 6) + stream_of(
            sdss_wl, POST, 8, salt0=100
        )
        uninterrupted = self.make_tuner(sdss_db)
        uninterrupted.run(stream)

        first = self.make_tuner(sdss_db)
        cut = 17  # mid-stream, deliberately not on a check boundary
        for sql in stream[:cut]:
            first.observe(sql)
        # Through actual JSON, exactly as a --state file does; the
        # stream cursor rides along and comes back.
        state = json.loads(json.dumps(first.save_state()))
        assert state["stream_position"] == cut

        resumed = self.make_tuner(sdss_db)
        resumed.restore_state(state)
        assert resumed.monitor.observed == cut
        assert resumed.position == cut
        for sql in stream[cut:]:
            resumed.observe(sql)

        assert resumed.save_state() == uninterrupted.save_state()
        assert [index_signature(ix) for ix in resumed.design] == [
            index_signature(ix) for ix in uninterrupted.design
        ]
        assert resumed.readvise_count == uninterrupted.readvise_count

    def test_state_with_a_coalesced_count_restores(self, sdss_db):
        # Written by a tuner that still had a background mode: the
        # restored tuner ignores "coalesced" and saves everything else
        # back unchanged.
        ra = "select ra from photoobj where ra < ?"
        z = "select z from specobj where z < ?"
        state = {
            "baseline": {ra: 0.6666666666666666, z: 0.3333333333333333},
            "coalesced": 3,
            "design": [
                {
                    "columns": ["ra"],
                    "hypothetical": True,
                    "name": "cand_1_photoobj_ra",
                    "table_name": "photoobj",
                    "unique": False,
                }
            ],
            "event_counts": {
                "applied": 0, "degraded": 0, "drifted": 0, "held": 0,
                "observed": 3, "quarantined": 0, "re-advised": 1,
                "recommended": 1,
            },
            "last_check": 3,
            "monitor": {
                "decay": 0.5,
                "observed": 3,
                "profile": {ra: 3.0, z: 4.0},
                "profile_weight": 8.0,
                "templates": [
                    {
                        "example_sql": "SELECT ra FROM photoobj WHERE ra < 1.5",
                        "fingerprint": ra,
                        "kind": "select",
                        "quarantine_reason": "",
                        "quarantined": False,
                        "sequence": 1,
                        "target_table": None,
                    },
                    {
                        "example_sql": "SELECT z FROM specobj WHERE z < 1.5",
                        "fingerprint": z,
                        "kind": "select",
                        "quarantine_reason": "",
                        "quarantined": False,
                        "sequence": 2,
                        "target_table": None,
                    },
                ],
                "version": 1,
                "window": [ra, ra, z],
                "window_size": 3,
            },
            "readvise_count": 1,
            "version": 1,
            "warmed": True,
        }
        tuner = self.make_tuner(sdss_db)
        tuner.restore_state(json.loads(json.dumps(state)))
        expected = {k: v for k, v in state.items() if k != "coalesced"}
        # Saved back with what this version adds: the stream cursor
        # (absent: 0) and the ``store`` event counter.
        expected["stream_position"] = 0
        expected["event_counts"] = dict(expected["event_counts"], store=0)
        assert tuner.save_state() == expected

    def test_restore_rejects_bad_states(self, sdss_db):
        tuner = self.make_tuner(sdss_db)
        with pytest.raises(ReproError):
            tuner.restore_state({"version": 99})
        warm = self.make_tuner(sdss_db)
        warm.observe(A_SQL)
        state = warm.save_state()
        used = self.make_tuner(sdss_db)
        used.observe(A_SQL)
        with pytest.raises(ReproError):
            used.restore_state(state)  # not a fresh tuner


# ----------------------------------------------------------------------
# Facade + CLI wiring


class TestFacadeAndCli:
    def test_parinda_online_converts_budget(self, sdss_db):
        parinda = Parinda(sdss_db)
        tuner = parinda.online(budget_bytes=16 << 20, window_size=4)
        assert tuner.budget_pages == (16 << 20) // 8192
        with pytest.raises(ValueError):
            parinda.online()

    def test_bounded_facade_shares_its_cache(self, sdss_db):
        parinda = Parinda(sdss_db, cache_max_entries=512)
        tuner = parinda.online(budget_pages=BUDGET)
        assert tuner.cache is parinda._cost_cache
        # An unbounded facade cache must NOT be handed to a long-lived
        # loop; the tuner then brings its own bounded cache.
        unbounded = Parinda(sdss_db)
        tuner2 = unbounded.online(budget_pages=BUDGET)
        assert tuner2.cache is not unbounded._cost_cache

    def test_auto_apply_materializes_each_adopted_design(
        self, sdss_db, sdss_wl, tmp_path
    ):
        db = sdss_db.clone()  # the applier builds real indexes
        store = FileStateStore(str(tmp_path / "STATE"))

        def materialized():
            return {
                index_signature(ix)
                for ix in db.catalog.indexes()
                if ix.name.startswith(MANAGED_PREFIX) and db.has_btree(ix.name)
            }

        tuner = Parinda(db).online(
            budget_pages=BUDGET,
            window_size=9,
            check_interval=3,
            auto_apply=True,
            state_store=store,
        )
        for sql in stream_of(sdss_wl, PRE, 4):
            tuner.observe(sql)
        assert tuner.event_counts["applied"] == 1
        adopted = {index_signature(ix) for ix in tuner.design}
        assert adopted and materialized() == adopted
        # The tuner advises against a clone frozen before the apply;
        # against the live catalog the materialized indexes would
        # price at zero benefit and the same window would drop them.
        for sql in stream_of(sdss_wl, PRE, 4, salt0=100):
            tuner.observe(sql)
        tuner.readvise(reason="same window")
        assert tuner.event_counts["recommended"] == 1
        assert tuner.event_counts["applied"] == 1
        assert materialized() == adopted
        # A drifted window is adopted and replaces what stands.
        for sql in stream_of(sdss_wl, POST, 5, salt0=50):
            tuner.observe(sql)
        assert tuner.event_counts["applied"] > 1
        assert materialized() == {
            index_signature(ix) for ix in tuner.design
        } != adopted
        # The intent journal rides in the state store's "apply" slot;
        # the primary slot is the tuner's own checkpoint.
        assert store.read("apply")[0]["phase"] == "committed"
        tuner.checkpoint()
        assert store.read("")[0]["stream_position"] == tuner.position

    def test_failing_auto_apply_degrades_and_keeps_tuning(
        self, sdss_db, sdss_wl
    ):
        def applier(design):
            raise ReproError("disk full")

        tuner = Parinda(sdss_db).online(
            budget_pages=BUDGET,
            window_size=9,
            check_interval=3,
            auto_apply=applier,
            degrade_on_error=True,
        )
        for sql in stream_of(sdss_wl, PRE, 4):
            tuner.observe(sql)
        degraded = tuner.events_of("degraded")
        assert len(degraded) == 1 and "disk full" in degraded[0].detail
        assert tuner.event_counts["applied"] == 0
        assert tuner.design  # adopted, just not materialized
        for sql in stream_of(sdss_wl, POST, 5, salt0=50):
            tuner.observe(sql)
        assert tuner.event_counts["recommended"] > 1
        strict = Parinda(sdss_db).online(
            budget_pages=BUDGET, window_size=9, auto_apply=applier
        )
        with pytest.raises(ReproError, match="disk full"):
            for sql in stream_of(sdss_wl, PRE, 4):
                strict.observe(sql)

    def test_tune_subcommand(self, capsys, tmp_path, sdss_wl):
        path = tmp_path / "stream.sql"
        statements = stream_of(sdss_wl, PRE, 4) + stream_of(
            sdss_wl, POST, 5, salt0=50
        )
        path.write_text(";\n".join(statements) + ";\n")
        code = cli_main(
            [
                "--db", "sdss:800",
                "tune",
                "--stream", str(path),
                "--budget-mb", "1.6",
                "--window", "9",
                "--check-interval", "3",
                "--build-cost-per-page", "0.25",
                "-v",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Stream done" in captured.out
        assert "re-advised" in captured.out
        assert "Standing design" in captured.out
        assert "Cost-cache" in captured.out

    def test_tune_skips_bad_statements(self, capsys, tmp_path, sdss_wl):
        path = tmp_path / "stream.sql"
        good = stream_of(sdss_wl, PRE, 4)
        path.write_text(";\n".join(good[:6] + ["@@ not sql @@"] + good[6:]) + ";\n")
        code = cli_main(
            [
                "--db", "sdss:800",
                "tune",
                "--stream", str(path),
                "--window", "6",
                "--check-interval", "3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "1 skipped" in captured.out
        assert "skipped untemplatable statement" in captured.err

    def test_tune_skips_a_malformed_number_seen_first(self, capsys, tmp_path):
        # The first statement of a template used to reach float("1e")
        # in the quarantine parse and kill the daemon with ValueError.
        path = tmp_path / "stream.sql"
        path.write_text(
            "SELECT objid FROM photoobj WHERE ra < 1e;\n"
            + "".join(
                f"SELECT objid FROM photoobj WHERE ra < {i}.5;\n"
                for i in range(1, 7)
            )
        )
        code = cli_main(
            ["--db", "sdss:500", "tune", "--stream", str(path), "--window", "6"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "1 skipped" in captured.out
        assert "malformed number" in captured.err
        assert "CREATE INDEX ON photoobj" in captured.out

    @staticmethod
    def _design_lines(text):
        return [line for line in text.splitlines() if "CREATE INDEX" in line]

    def test_tune_state_resume_matches_uninterrupted(
        self, capsys, tmp_path, sdss_wl
    ):
        statements = stream_of(sdss_wl, PRE, 4) + stream_of(
            sdss_wl, POST, 5, salt0=50
        )
        full = tmp_path / "full.sql"
        full.write_text(";\n".join(statements) + ";\n")
        half = tmp_path / "half.sql"
        half.write_text(";\n".join(statements[:14]) + ";\n")
        base = [
            "--db", "sdss:800",
            "tune",
            "--budget-mb", "1.6",
            "--window", "9",
            "--check-interval", "3",
            "--build-cost-per-page", "0.25",
        ]
        assert cli_main(base + ["--stream", str(full)]) == 0
        reference = self._design_lines(capsys.readouterr().out)
        assert reference

        # First life: the prefix of the stream, checkpointing to --state.
        state = tmp_path / "state.json"
        code = cli_main(
            base
            + [
                "--stream", str(half),
                "--state", str(state),
                "--state-interval", "5",
            ]
        )
        assert code == 0
        capsys.readouterr()
        # State files are checksummed envelopes now; load_state verifies
        # and unwraps.
        saved, source = load_state(str(state))
        assert source == "primary"
        assert saved["stream_position"] == 14
        assert saved["monitor"]["observed"] == 14

        # Second life: same state file against the FULL stream — the
        # already-observed prefix is skipped, and the final design must
        # equal the uninterrupted run's.
        assert cli_main(base + ["--stream", str(full), "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "Resuming from" in out
        assert "skipping 14" in out
        assert self._design_lines(out) == reference


class TestNoThreads:
    """No run starts a thread: the tuner decides inline, on the caller's
    thread, which is why it holds no lock."""

    def _stream_file(self, tmp_path, sdss_wl):
        path = tmp_path / "stream.sql"
        statements = stream_of(sdss_wl, PRE, 4) + stream_of(
            sdss_wl, POST, 5, salt0=50
        )
        path.write_text(";\n".join(statements) + ";\n")
        return str(path)

    def _tune_cli(self, tmp_path, sdss_db, sdss_wl):
        assert cli_main([
            "--db", "sdss:800", "tune",
            "--stream", self._stream_file(tmp_path, sdss_wl),
            "--state", str(tmp_path / "state.json"),
            "--budget-mb", "1.6", "--window", "9", "--check-interval", "3",
            "--build-cost-per-page", "0.25",
        ]) == 0

    def _online_auto_apply(self, tmp_path, sdss_db, sdss_wl):
        tuner = Parinda(sdss_db.clone()).online(
            budget_pages=BUDGET, window_size=9, check_interval=3,
            auto_apply=True,
        )
        tuner.run(
            stream_of(sdss_wl, PRE, 4) + stream_of(sdss_wl, POST, 5, salt0=50)
        )
        assert tuner.event_counts["applied"] >= 1

    def _fleet_serve_cli(self, tmp_path, sdss_db, sdss_wl):
        assert cli_main([
            "--db", "sdss:800", "fleet", "--serve", "--replicas", "2",
            "--stream", self._stream_file(tmp_path, sdss_wl),
            "--state", str(tmp_path / "fleet.json"),
            "--budget-mb", "4", "--window", "9", "--check-interval", "3",
            "--warmup", "9",
        ]) == 0

    @pytest.mark.parametrize(
        "run", ["_tune_cli", "_online_auto_apply", "_fleet_serve_cli"]
    )
    def test_run_leaves_the_thread_set_unchanged(
        self, capsys, monkeypatch, tmp_path, sdss_db, sdss_wl, run
    ):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        before = threading.enumerate()
        getattr(self, run)(tmp_path, sdss_db, sdss_wl)
        assert threading.enumerate() == before
        assert started == []


# ----------------------------------------------------------------------
# CoPhy scale mode: profile snapshots and compressed re-advising


class TestProfileSnapshot:
    def test_profile_covers_templates_outside_window(self, sdss_wl):
        monitor = WorkloadMonitor(window_size=4)
        for sql in stream_of(sdss_wl, PRE, 2):  # 6 statements, window 4
            monitor.observe(sql)
        window = monitor.snapshot()
        profile = monitor.profile_snapshot()
        assert len(window.queries) < len(PRE) or len(window.queries) == len(PRE)
        assert len(profile.queries) == len(PRE)
        assert all(q.weight > 0 for q in profile.queries)

    def test_profile_weights_are_decayed_not_counts(self, sdss_wl):
        monitor = WorkloadMonitor(window_size=64, decay=0.9)
        stream = stream_of(sdss_wl, PRE, 4)
        for sql in stream:
            monitor.observe(sql)
        profile = monitor.profile_snapshot()
        weights = [q.weight for q in profile.queries]
        # All three templates appeared 4 times, but later observations
        # decay less: the weights must not be flat occurrence counts.
        assert len(weights) == 3
        assert max(weights) > min(weights)

    def test_underflowed_template_filtered_not_fatal(self):
        # ~27 renormalizations (decay 0.5 => one every ~40 statements)
        # push an absent template's decayed weight to exact 0.0. A naive
        # snapshot would then crash Query's positive-weight check; the
        # profile snapshot must silently drop it instead.
        monitor = WorkloadMonitor(window_size=8, decay=0.5)
        monitor.observe("select ra from photoobj where ra < 1.0")
        for i in range(1200):
            monitor.observe(f"select dec from photoobj where dec > {i % 7}")
        profile = monitor.profile_snapshot()
        assert len(profile.queries) == 1
        assert profile.queries[0].sql.startswith("select dec")
        assert profile.queries[0].weight > 0

    def test_profile_update_rates_aggregate_dml(self):
        monitor = WorkloadMonitor(window_size=8)
        monitor.observe("select ra from photoobj where ra < 1.0")
        monitor.observe("update photoobj set status = 1 where objid = 4")
        monitor.observe("update specobj set sclass = 2 where specid = 9")
        monitor.observe("update photoobj set status = 2 where objid = 5")
        rates = monitor.profile_update_rates()
        assert set(rates) == {"photoobj", "specobj"}
        assert rates["photoobj"] > rates["specobj"] > 0
        snapshot = monitor.profile_snapshot()
        assert snapshot.update_rates == rates

    def test_profile_respects_quarantine(self):
        monitor = WorkloadMonitor(window_size=8)
        template = monitor.observe("select ra from photoobj where ra < 1.0")
        monitor.observe("select dec from photoobj where dec > 2.0")
        monitor.quarantine(template.template_id)
        profile = monitor.profile_snapshot()
        assert [q.sql for q in profile.queries] == [
            "select dec from photoobj where dec > 2.0"
        ]


class TestViewsMatchTheReference:
    """Each window and profile view equals its own one-map copy
    (``tests.reference.monitor_*``) exactly: names, SQL, weights, rates
    and shares, in order, over streams that mix SELECT and DML, hold a
    quarantined SELECT, clear the window, merge shards, round-trip
    through save/load, and renormalize the decayed profile."""

    POOL = (
        "SELECT ra FROM photoobj WHERE ra < {}",
        "SELECT dec FROM photoobj WHERE dec > {} AND ra < 2.5",
        "SELECT z FROM specobj WHERE z < {}",
        "INSERT INTO photoobj VALUES ({}, 2.5)",
        "UPDATE photoobj SET ra = 1.5 WHERE objid = {}",
        "DELETE FROM specobj WHERE z < {}",
        "SELECT ra FROM",  # tokenizes, never parses: quarantined
    )
    OPS = st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(("observe", "shard")),
                st.integers(0, len(POOL) - 1),
                st.integers(0, 9),
            ),
            st.sampled_from((("clear",), ("merge",), ("save",))),
        ),
        max_size=40,
    )

    @staticmethod
    def assert_views_match(monitor):
        for mine, ref in (
            (monitor.snapshot(), reference.monitor_snapshot(monitor)),
            (monitor.profile_snapshot(),
             reference.monitor_profile_snapshot(monitor)),
        ):
            assert mine.name == ref.name
            assert [(q.name, q.sql, q.weight) for q in mine] == [
                (q.name, q.sql, q.weight) for q in ref
            ]
            assert list(mine.update_rates.items()) == list(
                ref.update_rates.items()
            )
        for mine, ref in (
            (monitor.update_rates, reference.monitor_update_rates),
            (monitor.profile_update_rates,
             reference.monitor_profile_update_rates),
            (monitor.window_distribution,
             reference.monitor_window_distribution),
            (monitor.profile_distribution,
             reference.monitor_profile_distribution),
        ):
            assert list(mine().items()) == list(ref(monitor).items())

    @settings(max_examples=80, deadline=None)
    @given(
        window=st.integers(1, 6),
        decay=st.sampled_from((1.0, 0.9, 0.5, 0.05)),
        ops=OPS,
    )
    def test_views_equal_the_one_map_copies(self, window, decay, ops):
        monitor = WorkloadMonitor(window_size=window, decay=decay)
        shard = WorkloadMonitor(window_size=window, decay=decay)
        for op in ops:
            if op[0] in ("observe", "shard"):
                target = monitor if op[0] == "observe" else shard
                target.observe(self.POOL[op[1]].format(op[2] + 0.5))
            elif op[0] == "clear":
                monitor.clear_window()
            elif op[0] == "merge":
                monitor = monitor.merge(shard)
            else:
                monitor = WorkloadMonitor.load(
                    json.loads(json.dumps(monitor.save()))
                )
            self.assert_views_match(monitor)

    def test_renormalized_profile_matches(self):
        monitor = WorkloadMonitor(window_size=3, decay=0.05)
        for i in range(14):
            monitor.observe(self.POOL[i % 6].format(i + 0.5))
        # Unrenormalized, the next weight would be 0.05 ** -14 (~6e17).
        assert monitor._profile_weight < _RENORM_THRESHOLD
        self.assert_views_match(monitor)


class TestCompressedTuning:
    def test_compress_tuner_advises_full_profile(self, sdss_db, sdss_wl):
        # Window of 9 holds only the newest statements; scale mode must
        # still re-advise every template the stream has shown.
        tuner = OnlineTuner(
            sdss_db.catalog,
            budget_pages=BUDGET,
            window_size=9,
            check_interval=3,
            compress=True,
        )
        tuner.run(
            stream_of(sdss_wl, PRE, 4) + stream_of(sdss_wl, POST, 4, salt0=50)
        )
        result = tuner.readvise(reason="test")
        advised = {b.name for b in result.per_query}
        assert len(advised) == len(PRE) + len(POST)
        assert result.solver_status in ("optimal", "feasible")

    def test_compress_off_advises_window_only(self, sdss_db, sdss_wl):
        tuner = OnlineTuner(
            sdss_db.catalog,
            budget_pages=BUDGET,
            window_size=9,
            check_interval=3,
        )
        tuner.run(
            stream_of(sdss_wl, PRE, 4) + stream_of(sdss_wl, POST, 4, salt0=50)
        )
        result = tuner.readvise(reason="test")
        # The 9-statement window only holds the POST templates.
        assert len(result.per_query) == len(POST)

    def test_compress_knob_reaches_facade(self, sdss_db, sdss_wl):
        parinda = Parinda(sdss_db)
        tuner = parinda.online(
            budget_pages=BUDGET, window_size=9, compress=True
        )
        assert tuner.compress is True
        for sql in stream_of(sdss_wl, PRE, 4):
            tuner.observe(sql)
        assert tuner.design is not None
