"""Self-test of the perf ledger.

Outside tier-1's ``testpaths``; run with::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run as ledger  # noqa: E402

workloads, tracing = ledger.import_layers()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Span recorder


class Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n

    def countdown(self, n):
        return 0 if n == 0 else 1 + self.countdown(n - 1)

    def boom(self):
        self.inner(1)
        raise ValueError("boom")


TOY_TARGETS = [
    ("toy.outer", __name__, "Toy", "outer", None),
    ("toy.inner", __name__, "Toy", "inner", None),
    ("toy.countdown", __name__, "Toy", "countdown", None),
    ("toy.boom", __name__, "Toy", "boom", None),
]


def test_self_time_arithmetic_on_hand_built_spans():
    recorder = tracing.Recorder()
    # root 0..10, child a 1..4 (with grandchild 2..3), child b 5..9.
    recorder.spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert recorder.self_times() == [3.0, 2.0, 1.0, 4.0]
    table = recorder.by_name()
    assert table["a"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert sum(row["self_s"] for row in table.values()) == 10.0
    assert recorder.total_under("a", ("root",)) == 4.0
    assert recorder.total_under("b", ("a",)) == 0.0


def test_pulse_turns_kernel_readings_into_one_factor_per_mark():
    pulse = ledger.Pulse()
    ref = ledger.REF_KERNEL_MS * 1e-3
    # A quiet stretch, then one at 1.5x with an outlier the median ignores.
    pulse.readings = [ref, ref, ref, 1.5 * ref, 9 * ref, 1.5 * ref]
    assert pulse.speed(0) == pytest.approx(1 / 1.25)
    assert pulse.speed(3) == pytest.approx(1 / 1.5)
    # Nothing read since the mark (shorter than a period): reads once.
    assert pulse.speed(6) > 0 and len(pulse.readings) == 7


def test_pulse_samples_the_running_thread_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with ledger.Pulse() as pulse:
        started = ledger.time.perf_counter()
        while ledger.time.perf_counter() - started < 4 * pulse.PERIOD:
            pass
    assert len(pulse.readings) >= 2 and min(pulse.readings) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timed_brackets_add_up_and_trace_only_what_they_enclose():
    recorder = tracing.Recorder()
    timed = tracing.Timed(recorder)
    toy = Toy()
    original = tracing.TARGETS
    tracing.TARGETS = TOY_TARGETS
    try:
        toy.inner(1)  # before any bracket: no span
        with timed():
            toy.outer(1)
        toy.inner(1)  # between brackets: no span
        with timed():
            toy.inner(1)
    finally:
        tracing.TARGETS = original
    names = [span[0] for span in recorder.spans]
    assert names == [tracing.ROOT_SPAN, "toy.outer", "toy.inner", "toy.inner",
                     tracing.ROOT_SPAN, "toy.inner"]
    roots = recorder.by_name()[tracing.ROOT_SPAN]
    assert roots["calls"] == 2
    assert 0 < timed.seconds <= roots["total_s"]
    assert "__wrapped__" not in vars(Toy.inner)
    # Untraced, the same brackets only keep time.
    plain = tracing.Timed()
    with plain():
        toy.outer(1)
    assert plain.seconds > 0 and len(recorder.spans) == 6


def test_wrappers_record_nested_recursive_and_raising_calls():
    originals = {name: Toy.__dict__[name] for name in ("outer", "inner", "countdown", "boom")}
    recorder = tracing.Recorder()
    with recorder.installed(TOY_TARGETS):
        assert Toy.__dict__["outer"] is not originals["outer"]
        toy = Toy()
        assert toy.outer(2) == 4
        assert toy.countdown(3) == 3
        with pytest.raises(ValueError):
            toy.boom()
    # Removal restores the very same function objects.
    for name, original in originals.items():
        assert Toy.__dict__[name] is original

    names = [span[0] for span in recorder.spans]
    parents = [span[3] for span in recorder.spans]
    assert names == ["toy.outer", "toy.inner", "toy.inner",
                     "toy.countdown", "toy.countdown", "toy.countdown",
                     "toy.countdown", "toy.boom", "toy.inner"]
    assert parents == [-1, 0, 0, -1, 3, 4, 5, -1, 7]
    # The raising call still closed its span, and nothing is left open.
    assert all(span[2] >= span[1] > 0 for span in recorder.spans)
    assert recorder._stack == []
    # Self times of a tree add up to its root's duration.
    own = recorder.self_times()
    for root, members in ((0, (0, 1, 2)), (3, (3, 4, 5, 6)), (7, (7, 8))):
        duration = recorder.spans[root][2] - recorder.spans[root][1]
        assert sum(own[i] for i in members) == pytest.approx(duration)
        assert all(own[i] >= 0 for i in members)


def test_every_target_resolves_and_unwraps():
    recorder = tracing.Recorder()
    with recorder.installed():
        assert len(recorder._patched) == len(tracing.TARGETS)
    assert recorder._patched == []
    # A second install would stack on leftovers if any wrapper survived.
    from repro.optimizer.planner import Planner

    assert not hasattr(Planner.plan, "__wrapped__")


# ----------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_declarations_and_contract():
    document = json.loads((REPO / "BENCHMARK.json").read_text())
    assert document == ledger.spec(workloads, tracing)
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/ledger"]
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_moves_and_flat_on_reference_declared_names():
    metrics = {m["name"] for m in ledger.END_TO_END}
    names = {w.name for w in workloads.WORKLOADS}
    for metric in tracing.LAYER_METRICS:
        for moved, where in metric.moves:
            assert moved in metrics and where in names, metric.name
        assert set(metric.flat_on) <= names, metric.name
        assert not {w for _m, w in metric.moves} & set(metric.flat_on), metric.name
    assert set(tracing.WHATIF_ONLY) <= names
    # Every traced span name feeds a metric, so self times partition a lap.
    fed = {m.source[1] for m in tracing.LAYER_METRICS if m.source[0] == "self"}
    assert {target[0] for target in tracing.TARGETS} | {tracing.ROOT_SPAN} == fed


# ----------------------------------------------------------------------
# Seeds


def generated_inputs(seed: int) -> bytes:
    rng = random.Random(seed)
    parts = [
        workloads.scale_stream(rng, 400),
        workloads.cycle_stream(rng, 2, 30, 3),
        workloads.two_template_stream(rng, 48),
        [q.sql for q in workloads.perturbed_workload(rng, 10)],
    ]
    return "\n".join(sql for part in parts for sql in part).encode()


def test_seed_changes_inputs_and_same_seed_reproduces_them():
    assert generated_inputs(7) == generated_inputs(7)
    assert generated_inputs(7) != generated_inputs(8)


def test_whatif_script_is_seeded_and_valid(tmp_path):
    session = next(w for w in workloads.WORKLOADS if w.name == "whatif_session")
    first = session.setup(3, True, str(tmp_path))
    assert first[2] == session.setup(3, True, str(tmp_path))[2]
    assert first[2] != session.setup(4, True, str(tmp_path))[2]
    timed = tracing.Timed()
    lap = session.lap(first, timed)
    assert lap.failures == [] and lap.failed == 0
    assert len(lap.ops) == len(first[2]) == lap.attempted
    assert sum(lap.ops) <= timed.seconds


# ----------------------------------------------------------------------
# Failures are counted in operations


def test_failed_operations_never_exceed_attempted():
    lap = workloads.Lap([], 0, 1.0, 1.0, "", attempted=3)
    lap.fail_op([])
    assert (lap.failed, lap.failures) == (0, [])
    lap.fail_op(["status", "degraded"])  # two reasons, one operation
    assert (lap.failed, lap.failures) == (1, ["status", "degraded"])
    lap.fail_lap(["ended frozen"])  # the end state is wrong: all three
    assert lap.failed == 3
    lap.fail_op(["late"])
    assert lap.failed == 3


class Raising:
    name = "raising"

    def params(self, smoke):
        return {}

    def setup(self, seed, smoke, workdir):
        return None

    def lap(self, state, timed):
        raise RuntimeError("no such table")


def test_a_lap_that_raises_is_counted_and_still_reported():
    record = ledger.measure(Raising(), 1, 0.1, False, True)
    assert record["attempted"] == record["failed"] == 1
    assert "no such table" in record["failures"][0]
    assert set(record["end_to_end"]) == {m["name"] for m in ledger.END_TO_END}
    traced = ledger.measure(Raising(), 1, 0.1, True, True)
    assert set(traced["per_layer"]) == {m.name for m in tracing.LAYER_METRICS}


# ----------------------------------------------------------------------
# Smoke run and --compare


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, json.loads(out.read_text())


def test_smoke_run_reports_every_declared_metric(smoke_ledger):
    _path, document = smoke_ledger
    assert document["claim"] is None and document["smoke"] is True
    assert document["environment"]["PYTHONHASHSEED"] == "0"
    assert set(document["results"]) == {w.name for w in workloads.WORKLOADS}
    for name, entry in document["results"].items():
        assert entry["failures"] == [] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1, name
        assert set(entry["end_to_end"]) == {m["name"] for m in ledger.END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in tracing.LAYER_METRICS}
        for metric, row in entry["end_to_end"].items():
            assert row["median"] > 0, (name, metric)
        if name in tracing.WHATIF_ONLY:
            assert entry["per_layer"]["storage.index_builds"] == 0
        else:
            assert entry["per_layer"]["storage.index_builds"] > 0
        # Layer self times partition the traced lap.
        assert entry["self_sum_share"] == pytest.approx(1.0, abs=0.05)


def test_compare_verdicts_and_exit_codes(smoke_ledger, tmp_path, capsys):
    path, document = smoke_ledger
    assert ledger.compare(str(path), str(path)) == 0
    assert " same" in capsys.readouterr().out

    slower = json.loads(json.dumps(document))
    row = slower["results"]["advise_cold"]["end_to_end"]["op_ms_p50"]
    row["repeats"] = [v * 2 for v in row["repeats"]]
    row["median"] *= 2
    slow_path = tmp_path / "slower.json"
    slow_path.write_text(json.dumps(slower))
    assert ledger.compare(str(path), str(slow_path)) == 1
    assert " worse" in capsys.readouterr().out
    assert ledger.compare(str(slow_path), str(path)) == 0
    assert " better" in capsys.readouterr().out

    # A spread wider than the bound, without a clean win, is unresolved.
    noisy = json.loads(json.dumps(document))
    row = noisy["results"]["advise_cold"]["end_to_end"]["op_ms_p50"]
    row["spread"] = 0.9
    noisy_path = tmp_path / "noisy.json"
    noisy_path.write_text(json.dumps(noisy))
    assert ledger.compare(str(path), str(noisy_path)) == 0
    assert "unresolved" in capsys.readouterr().out

    # Same seed, different exact count: rejected whatever the timings.
    drifted = json.loads(json.dumps(document))
    drifted["results"]["tune_drift"]["counts"]["tuner.held"] += 1
    drifted_path = tmp_path / "drifted.json"
    drifted_path.write_text(json.dumps(drifted))
    assert ledger.compare(str(path), str(drifted_path)) == 1
    assert "EXACT MISMATCH" in capsys.readouterr().out


def test_driver_mode_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "whatif_session",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in ledger.END_TO_END}
