"""CLI tests: the three scenario subcommands."""

import io
import json
import os
import re

import pytest

from repro import exit_codes
from repro.cli import build_parser, main
from repro.errors import FaultInjected

from tests.conftest import SERVE_ARGS, TUNE_ARGS, run_main


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestSuggestIndexes:
    def test_basic(self, capsys):
        out = run_cli(
            capsys, "--db", "star:2000", "suggest-indexes", "--budget-mb", "2"
        )
        assert "Suggested" in out
        assert "CREATE INDEX ON" in out

    def test_verbose_table(self, capsys):
        out = run_cli(
            capsys, "--db", "star:2000", "suggest-indexes", "--budget-mb", "2", "-v"
        )
        assert "Per-query benefit" in out

    def test_single_column_flag(self, capsys):
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "suggest-indexes", "--budget-mb", "2", "--single-column",
        )
        for line in out.splitlines():
            if line.strip().startswith("CREATE INDEX ON"):
                columns = line[line.index("(") + 1 : line.rindex(")")]
                assert "," not in columns

    def test_create_flag(self, capsys):
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "suggest-indexes", "--budget-mb", "2", "--create",
        )
        assert "Materialized" in out

    @pytest.mark.parametrize("command", ["suggest-indexes", "suggest-combined"])
    def test_quarantined_queries_are_warned(self, capsys, monkeypatch, command):
        code, out, err = run_main(
            capsys,
            monkeypatch,
            ["--db", "sdss:800", command, "--budget-mb", "1.6"],
            injected="inum.build:%5",
        )
        assert code == 0
        assert "CREATE INDEX ON" in out
        warned = [
            line for line in err.splitlines()
            if line.startswith("warning: inum.build[")
        ]
        # Every 5th of the 30 survey queries is quarantined, each named.
        assert len(warned) == 6
        assert all("quarantined" in line for line in warned)


class TestSuggestPartitions:
    def test_basic(self, capsys):
        out = run_cli(
            capsys, "--db", "star:2000", "suggest-partitions", "--replication", "0.3"
        )
        assert "AutoPart" in out
        assert "Workload cost" in out

    def test_quarantined_query_is_warned(self, capsys, monkeypatch):
        code, out, err = run_main(
            capsys,
            monkeypatch,
            ["--db", "sdss:800", "suggest-partitions"],
            injected="optimizer.plan:1",
        )
        assert code == 0
        assert "Workload cost" in out
        warned = [
            line for line in err.splitlines()
            if line.startswith("warning: optimizer.plan[")
        ]
        assert len(warned) == 1 and "quarantined" in warned[0]

    def test_save_rewritten(self, capsys, tmp_path):
        target = tmp_path / "rewritten.sql"
        run_cli(
            capsys,
            "--db", "star:2000",
            "suggest-partitions", "--save-rewritten", str(target),
        )
        text = target.read_text()
        assert "SELECT" in text
        assert text.count(";") >= 6


class TestEvaluate:
    def test_whatif_indexes(self, capsys):
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "evaluate", "--index", "sales:sold_on",
        )
        assert "average per-query benefit" in out
        assert "whatif_sales_sold_on" in out

    def test_compare(self, capsys):
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "evaluate", "--index", "sales:sold_on", "--compare", "s01_day_range",
        )
        assert "plans match = True" in out

    def test_bad_index_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["--db", "star:2000", "evaluate", "--index", "nocolon"])


class TestExplain:
    def test_explain_with_whatif(self, capsys):
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "explain",
            "--sql", "SELECT amount FROM sales WHERE sold_on BETWEEN 5 AND 6",
            "--index", "sales:sold_on",
        )
        assert "Index Scan" in out
        assert "hypothetical" in out


class TestParser:
    def test_unknown_db(self):
        with pytest.raises(SystemExit):
            main(["--db", "oracle:1", "explain", "--sql", "SELECT 1 FROM t"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-3", "lots"])
    @pytest.mark.parametrize(
        "command", ["suggest-indexes", "suggest-combined", "tune", "fleet"]
    )
    def test_budget_mb_must_be_finite_and_positive(self, capsys, command, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", "star:2000", command, "--budget-mb", value])
        assert exit_info.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1].startswith(f"repro {command}: error: argument --budget-mb:")
        assert "Traceback" not in "".join(lines)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "some"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("suggest-partitions", "--replication"),
            ("suggest-combined", "--replication"),
            ("tune", "--build-cost-per-page"),
            ("fleet", "--tolerance"),
        ],
    )
    def test_float_flags_must_be_finite_and_non_negative(
        self, capsys, command, flag, value
    ):
        # nan passes every ``< 0`` check downstream: it held all tuner
        # proposals forever and switched the fleet health gate off.
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", "star:2000", command, flag, value])
        assert exit_info.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1].startswith(f"repro {command}: error: argument {flag}:")
        assert "Traceback" not in "".join(lines)

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("fleet", "--replicas", "0"),
            ("fleet", "--replicas", "-1"),
            ("fleet", "--replicas", "two"),
            ("tune", "--window", "0"),
            ("fleet", "--window", "0"),
            ("tune", "--check-interval", "0"),
            ("fleet", "--check-interval", "0"),
            ("tune", "--state-interval", "0"),
            ("fleet", "--state-interval", "0"),
            ("tune", "--warmup", "-3"),
            ("fleet", "--warmup", "-3"),
            ("fleet", "--probation", "-1"),
            # fleet --serve --rounds 0 used to serve its warm-up, then die
            # at the first re-tune with exit 1.
            ("fleet", "--rounds", "0"),
            ("fleet", "--regression-windows", "0"),
            ("tune", "--cache-entries", "0"),
            ("fleet", "--cache-entries", "0"),
            ("fleet", "--release", "-1"),
            ("fleet", "--release", "one"),
        ],
    )
    def test_int_flags_in_range(self, capsys, command, flag, value):
        # --replicas 0 used to serve one replica and exit 0; a negative
        # --warmup/--probation was taken silently; --release -1 warned
        # and exited 0.
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", "star:2000", command, flag, value])
        assert exit_info.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1].startswith(f"repro {command}: error: argument {flag}:")
        assert "Traceback" not in "".join(lines)

    def test_int_flags_accept_their_floor(self):
        args = build_parser().parse_args(
            ["fleet", "--serve", "--replicas", "1", "--state-interval", "1",
             "--warmup", "0", "--probation", "0"]
        )
        assert (args.replicas, args.state_interval, args.warmup, args.probation) == (
            1, 1, 0, 0
        )

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "2", "half"])
    def test_max_share_must_be_a_fraction(self, capsys, value):
        # Checked only once the database was built, and exited 1.
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", "star:2000", "fleet", "--max-share", value])
        assert exit_info.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1].startswith("repro fleet: error: argument --max-share:")

    def test_max_share_and_release_accept_their_range(self):
        args = build_parser().parse_args(
            ["fleet", "--serve", "--max-share", "1", "--release", "0"]
        )
        assert (args.max_share, args.release) == (1.0, 0)
        args = build_parser().parse_args(["fleet", "--max-share", "0.34"])
        assert args.max_share == 0.34

    def test_float_flags_accept_zero(self):
        args = build_parser().parse_args(["fleet", "--serve", "--tolerance", "0"])
        assert args.tolerance == 0.0

    @pytest.mark.parametrize("spec", ["sdss:abc", "sdss:-5", "star:1.5", "star:-1"])
    def test_db_scale_must_be_a_whole_number(self, spec):
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", spec, "explain", "--sql", "SELECT 1 FROM t"])
        # One line through SystemExit, like the unknown-database branch.
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert repr(spec) in message and "whole number" in message

    def test_db_scale_zero_still_loads(self, capsys):
        out = run_cli(
            capsys,
            "--db", "sdss:0",
            "explain", "--sql", "SELECT ra FROM photoobj WHERE ra < 1",
        )
        assert "Seq Scan on photoobj" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--thaw"],
            ["fleet", "--release", "1"],
            ["fleet", "--state", "{}"],
            ["fleet", "--store", "file:{}"],
            ["fleet", "--stream", "{}"],
            ["tune", "--stream", "{}", "--validate"],
        ],
        ids=["thaw", "release", "state", "store", "stream", "tune-validate"],
    )
    def test_flag_without_its_mode_is_a_usage_error(self, tmp_path, argv):
        # Ignoring the flag would run a plain tune and exit 0 without
        # touching a store, so the operator believes it took effect.
        target = tmp_path / "s"
        with pytest.raises(SystemExit, match="only make sense with"):
            main(["--db", "sdss:800"] + [a.format(target) for a in argv])
        assert os.listdir(tmp_path) == []

    def test_workload_file(self, capsys, tmp_path):
        wl = tmp_path / "wl.sql"
        wl.write_text("select amount from sales where sold_on between 1 and 2;")
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "suggest-indexes", "--workload", str(wl), "--budget-mb", "2",
        )
        assert "Suggested" in out

    def test_compress_workload_file_skips_bad_statements(
        self, capsys, monkeypatch, tmp_path
    ):
        # In scale mode a statement file is read like a stream: what
        # cannot be templated is reported and skipped, writes are set
        # aside, and the rest is advised.
        wl = tmp_path / "wl.sql"
        wl.write_text(
            "SELECT objid FROM photoobj WHERE ra < 1e;\n"
            "SELECT objid FROM photoobj WHERE ra < 10;\n"
            "UPDATE photoobj SET status = 1 WHERE objid = 7;\n"
            "SELECT objid FROM photoobj WHERE ra < 20;\n"
        )
        code, out, err = run_main(
            capsys, monkeypatch,
            ["--db", "sdss:500", "suggest-indexes", "--compress",
             "--workload", str(wl)],
        )
        assert code == 0
        assert "skipped statement#1: malformed number" in err
        assert (
            "Compressed 4 statements onto 1 templates, 1 DML not advised, "
            "1 skipped" in out
        )
        assert "CREATE INDEX ON photoobj" in out


class TestUserMistakes:
    """A user mistake is one ``error:`` line and exit 1, never a
    traceback; a fault that stands in for a crash still looks like one."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["suggest-indexes", "--workload", "{missing}"], "No such file"),
            (["suggest-indexes", "--workload", "{bad_sql}"], "unknown column 'nope'"),
            (["evaluate", "--index", "photoobj:nope"], "has no column 'nope'"),
        ],
        ids=["missing-workload", "unknown-column", "unknown-index-column"],
    )
    def test_one_error_line_and_exit_1(
        self, tmp_path, sdss_stream_file, argv, message
    ):
        bad_sql = tmp_path / "bad.sql"
        bad_sql.write_text("SELECT nope FROM photoobj;")
        paths = {
            "missing": tmp_path / "nonexistent.sql",
            "bad_sql": bad_sql,
            "stream": sdss_stream_file,
        }
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", "sdss:500"] + [a.format(**paths) for a in argv])
        # SystemExit(str): Python prints the string to stderr, exits 1.
        line = exit_info.value.code
        assert isinstance(line, str) and line.startswith("error: ")
        assert message in line and "\n" not in line

    def test_injected_crash_still_propagates(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file
    ):
        args = TUNE_ARGS + [
            "--stream", sdss_stream_file,
            "--state", str(tmp_path / "state.json"), "--apply",
        ]
        with pytest.raises(FaultInjected) as crash:
            run_main(capsys, monkeypatch, args, injected="journal.write:1")
        assert crash.value.point == "journal.write"


class TestSuggestCombined:
    def test_full_pipeline(self, capsys):
        out = run_cli(
            capsys,
            "--db", "star:2000",
            "suggest-combined", "--budget-mb", "2", "--replication", "0.3",
        )
        assert "Combined workload cost" in out
        assert "Partitions:" in out


class TestExitCodes:
    """One module defines every exit code; the README table is pinned to it.

    Supervisors branch on these numbers, so a new code must land in
    :data:`repro.exit_codes.EXIT_CODE_DOCS` *and* in the README table
    — these tests fail on either half drifting.
    """

    def _readme_rows(self) -> dict[int, str]:
        text = open("README.md").read()
        marker = "| code | meaning |"
        assert marker in text, "README lost its exit-code table"
        rows: dict[int, str] = {}
        for line in text.split(marker, 1)[1].splitlines():
            line = line.strip()
            if not line.startswith("|"):
                if rows:
                    break
                continue
            match = re.match(r"\|\s*(\d+)\s*\|(.+)\|", line)
            if match:
                rows[int(match.group(1))] = match.group(2)
        return rows

    def _constants(self) -> dict[int, str]:
        return {
            value: name
            for name, value in vars(exit_codes).items()
            if name.startswith("EXIT_") and isinstance(value, int)
        }

    def test_docs_cover_every_constant_and_nothing_else(self):
        assert set(exit_codes.EXIT_CODE_DOCS) == set(self._constants())

    def test_python_and_argparse_codes_stay_unclaimed(self):
        # 1 is any uncaught ReproError, 2 is an argparse usage error;
        # claiming either would make supervisor branching ambiguous.
        assert 1 not in exit_codes.EXIT_CODE_DOCS
        assert 2 not in exit_codes.EXIT_CODE_DOCS

    def test_readme_table_lists_exactly_the_documented_codes(self):
        assert set(self._readme_rows()) == set(exit_codes.EXIT_CODE_DOCS)

    def test_readme_rows_name_their_constants(self):
        names = self._constants()
        for code, meaning in self._readme_rows().items():
            assert names[code] in meaning, (
                f"README row for exit code {code} must mention {names[code]}"
            )

    def test_cli_reexports_match(self):
        import repro.cli as cli

        for code, name in self._constants().items():
            assert getattr(cli, name) == code


class TestOnePersistencePath:
    """``--state FILE`` is ``--store file:FILE`` without the lease.

    Both flags become one :class:`~repro.resilience.store.StateStore`
    at the CLI edge, so they must leave the same documents behind,
    print the same lines, and degrade the same way.
    """

    TUNE = TUNE_ARGS + ["--state-interval", "5"]

    @staticmethod
    def _twin_dirs(tmp_path):
        for name in ("state", "store"):
            (tmp_path / name).mkdir()
        return tmp_path / "state", tmp_path / "store"

    @staticmethod
    def _same_documents(state_dir, store_dir, lease):
        """Equal listings up to the lease; equal parsed envelopes."""
        names = sorted(os.listdir(state_dir))
        assert sorted(os.listdir(store_dir)) == sorted(names + [lease])
        for name in names:
            assert json.loads((state_dir / name).read_text()) == json.loads(
                (store_dir / name).read_text()
            ), name
        return names

    def test_tune_state_and_store_file_leave_the_same_documents(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file
    ):
        state_dir, store_dir = self._twin_dirs(tmp_path)
        args = self.TUNE + ["--stream", sdss_stream_file, "--apply"]
        code_a, out_a, _ = run_main(
            capsys, monkeypatch, args + ["--state", str(state_dir / "S")]
        )
        code_b, out_b, _ = run_main(
            capsys, monkeypatch, args + ["--store", f"file:{store_dir / 'S'}"]
        )
        assert code_a == code_b == 0
        names = self._same_documents(state_dir, store_dir, "S.lease")
        assert {"S", "S.apply"} <= set(names)
        assert f"journal {state_dir / 'S'}.apply committed" in out_a
        lines_b = [
            line.replace(str(store_dir), str(state_dir))
            for line in out_b.splitlines()
            if not line.startswith("State store ")
        ]
        assert lines_b == out_a.splitlines()

    def test_serve_state_and_store_file_leave_the_same_documents(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file
    ):
        state_dir, store_dir = self._twin_dirs(tmp_path)
        args = SERVE_ARGS + ["--stream", sdss_stream_file]
        code_a, out_a, _ = run_main(
            capsys, monkeypatch, args + ["--state", str(state_dir / "F")]
        )
        code_b, out_b, _ = run_main(
            capsys, monkeypatch, args + ["--store", f"file:{store_dir / 'F'}"]
        )
        assert code_a == code_b == 0
        names = self._same_documents(state_dir, store_dir, "F.lease")
        assert "F" in names
        assert any(re.fullmatch(r"F\.r\d\.apply", name) for name in names)
        assert [
            line for line in out_b.splitlines()
            if not line.startswith("State store ")
        ] == out_a.splitlines()

    @pytest.mark.parametrize(
        "command, flag",
        [(TUNE_ARGS, "--state"), (TUNE_ARGS, "--journal"), (SERVE_ARGS, "--state")],
        ids=["tune-state", "tune-journal", "serve-state"],
    )
    def test_store_excludes_state_and_journal(
        self, tmp_path, sdss_stream_file, command, flag
    ):
        ignored = tmp_path / "ignored.json"
        with pytest.raises(SystemExit, match="--store replaces"):
            main(
                command
                + ["--stream", sdss_stream_file, "--store", f"file:{tmp_path / 'S'}"]
                + [flag, str(ignored)]
            )
        assert not ignored.exists()

    @pytest.mark.parametrize("spec", ["--state {}", "--store file:{}"])
    def test_serve_final_flush_fault_warns_and_keeps_the_exit_code(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file, spec
    ):
        # An interval past the stream's end leaves the final flush as
        # the run's only state.write.
        args = SERVE_ARGS + ["--stream", sdss_stream_file, "--state-interval", "10000"]
        clean, _, _ = run_main(capsys, monkeypatch, args)
        code, out, err = run_main(
            capsys, monkeypatch, args + spec.format(tmp_path / "F").split(),
            injected="state.write:1",
        )
        assert code == clean == 0
        assert f"state checkpoint to {tmp_path / 'F'} failed" in err
        assert "Stream done: 120 statements" in out

    @pytest.mark.parametrize(
        "spec", ["--state {}", "--store file:{}", "--store db:{}"]
    )
    @pytest.mark.parametrize(
        "command, resumed",
        [
            (TUNE, "skipping 120 stream statement(s)"),
            (SERVE_ARGS + ["--state-interval", "5"], "position 120, phase"),
        ],
        ids=["tune", "serve"],
    )
    def test_resume_from_backup_warns_for_every_spec(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file, spec,
        command, resumed,
    ):
        args = (
            command
            + ["--stream", sdss_stream_file]
            + spec.format(tmp_path / "S").split()
        )
        code, out, err = run_main(capsys, monkeypatch, args)
        assert code == 0 and "state primary was corrupt" not in err
        design = out[out.index("Stream done"):]
        (tmp_path / "S").write_text("{ torn mid-write")
        code, out, err = run_main(capsys, monkeypatch, args)
        assert code == 0
        assert (
            "warning: state primary was corrupt; resumed from last-good "
            f"checkpoint {tmp_path / 'S'}.bak"
        ) in err
        # The .bak is the periodic checkpoint at the last statement.
        assert resumed in out
        assert out[out.index("Stream done"):] == design

    @pytest.mark.parametrize("command", [TUNE_ARGS, SERVE_ARGS], ids=["tune", "serve"])
    def test_resumed_daemon_on_stdin_observes_every_new_statement(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file, command
    ):
        # stdin is not replayable: a resumed daemon must not skip the
        # saved cursor's worth of whatever is fed to it next.
        text = open(sdss_stream_file).read()
        args = command + ["--stream", "-", "--state", str(tmp_path / "F")]
        done = []
        for _run in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, _ = run_main(capsys, monkeypatch, args)
            assert code == 0
            done.append(int(re.search(r"Stream done: (\d+)", out).group(1)))
        assert done == [120, 240]

    @pytest.mark.parametrize("spec", ["--state {}", "--store db:{}"])
    def test_tune_resume_reads_the_state_slot_once(
        self, capsys, monkeypatch, tmp_path, sdss_stream_file, spec
    ):
        from repro.resilience.store import StateStore

        args = (
            self.TUNE
            + ["--stream", sdss_stream_file]
            + spec.format(tmp_path / "S").split()
        )
        assert run_main(capsys, monkeypatch, args)[0] == 0
        reads = []
        original = StateStore.read

        def spy(store, key=""):
            reads.append(key)
            return original(store, key)

        monkeypatch.setattr(StateStore, "read", spy)
        code, out, _ = run_main(capsys, monkeypatch, args)
        assert code == 0 and "skipping 120 stream statement(s)" in out
        assert reads.count("") == 1
