#!/usr/bin/env python3
"""The perf ledger: one command, seven workloads, every metric by name.

One measured run of one workload (the shape ``BENCHMARK.json``'s
``command`` is driven with)::

    python3 benchmarks/ledger/run.py --workload advise_scale --seed 7 \\
        --seconds 10 --trace 0

prints every metric with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

The whole ledger (every workload, three round-robin untraced repeats,
then one traced pass; results in ``out/ledger.json``)::

    python3 benchmarks/ledger/run.py [--seed N] [--smoke] [--out FILE]

and the comparison of two such result files::

    python3 benchmarks/ledger/run.py --compare A.json B.json

``--spec`` prints the ``BENCHMARK.json`` the declarations in this
directory imply. See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
RUN_SECONDS = 12
SETUP_RUNS = 3
REF_KERNEL_MS = 0.8  # Pulse's kernel on the sizing box, undisturbed
REPEATS = 3
DEFAULT_SEED = 20100322  # EDBT 2010

# Pinned for every measuring process: the online tuner's event counts
# depend on str hash order (README.md, "Known issue"), and an ambient
# fault schedule or path switch would change what is measured.
PINNED_ENV = {"PYTHONHASHSEED": "0"}
UNSET_ENV = ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_VECTORIZE",
             "REPRO_SHM_TRANSPORT", "REPRO_PARALLEL_MODE")

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median of SETUP_RUNS input builds: database, statements, "
             "scripts, (fleet_resume) the fault-free run and the crashed runs"},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25,
     "what": "median latency of the operation the workload's user waits on"},
    {"name": "stmts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "what": "median over laps of workload statements consumed per second "
             "of timed time"},
    {"name": "design_cost_ratio", "unit": "ratio", "better": "lower",
     "bound": 0.05,
     "what": "cost_after / cost_before of the lap's design; exact "
             "for a given seed — catches 'faster because worse'"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05,
     "what": "ru_maxrss of the measuring process"},
]


def pinned_environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    return env


def import_layers():
    """Import the program under test from this checkout's ``src/``."""
    source = REPO / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {source}/repro is missing")
    sys.path.insert(0, str(source))
    return load_local("workloads"), load_local("trace")


def load_local(name: str):
    """Import ``benchmarks/ledger/<name>.py`` as ``ledger_<name>``: by
    path, because ``trace`` is also a standard-library module."""
    qualified = f"ledger_{name}"
    if qualified not in sys.modules:
        found = importlib.util.spec_from_file_location(
            qualified, HERE / f"{name}.py"
        )
        module = importlib.util.module_from_spec(found)
        sys.modules[qualified] = module
        found.loader.exec_module(module)
    return sys.modules[qualified]


# ----------------------------------------------------------------------
# One measured run of one workload


class Pulse:
    """Reads the machine's speed while a run measures.

    The shared box this ledger was sized on flips between two speeds,
    about 1.0x and 1.3x (at times 1.8x), in stretches of 3 to 17
    seconds: longer than an operation, comparable to a run. CPU time
    inflates with wall time, so neither clock repeats: ten 12-second
    runs of one workload spread up to 28 % (interquartile over median;
    README.md), and the driver refuses a benchmark above 25 %.

    While a ``Pulse`` is active an interval timer interrupts the
    (single) thread every ``PERIOD`` seconds and times a fixed
    pure-Python kernel, which slows by the same factor as the
    workloads do. :meth:`speed` turns the readings taken since a mark
    into one factor, ``REF_KERNEL_MS`` over their median; the harness
    multiplies every duration of a lap (or a set-up) by the lap's
    factor. Nothing of the program is replaced or skipped.
    """

    PERIOD = 0.05

    def __init__(self) -> None:
        self.readings: list[float] = []  # kernel seconds, in time order

    @staticmethod
    def kernel_s() -> float:
        started = time.perf_counter()
        table = {}
        for i in range(1500):
            table[(i, i % 13)] = [i, str(i)]
        total = len(table)
        for i in range(8000):
            total += i * i % 7
        return time.perf_counter() - started

    def _tick(self, _signum=None, _frame=None) -> None:
        self.readings.append(self.kernel_s())

    def __enter__(self) -> "Pulse":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, mark: int) -> float:
        """Reference seconds per wall second over ``readings[mark:]``."""
        if len(self.readings) == mark:
            self._tick()  # shorter than a period
        return REF_KERNEL_MS * 1e-3 / statistics.median(self.readings[mark:])


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10)[8]


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run laps for ``seconds``, check, and summarise."""
    tracing = load_local("trace")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"tmp-{workload.name}-", dir=OUT)
    clock = time.perf_counter
    recorder = tracing.Recorder()
    setups, laps, traced, failures = [], [], [], []
    attempted = failed = 0
    try:
        with Pulse() as pulse:
            for _ in range(1 if smoke else SETUP_RUNS):
                mark, started = len(pulse.readings), clock()
                state = workload.setup(seed, smoke, workdir)
                wall = clock() - started
                setups.append((wall * pulse.speed(mark), wall))

            started = clock()
            while True:
                # Traced runs alternate plain and traced laps (plain
                # first: it also absorbs first-call warm-up), so the
                # overhead is read from neighbours in one process.
                with_spans = trace and len(laps) % 2 == 1
                recorder.lap = len(laps)
                timed = tracing.Timed(recorder if with_spans else None)
                mark, first_span = len(pulse.readings), len(recorder.spans)
                try:
                    lap = workload.lap(state, timed)
                except Exception:  # the run must still print its result line
                    # Identical work every lap: the next one would raise too.
                    lost = laps[0].attempted if laps else 1
                    attempted, failed = attempted + lost, failed + lost
                    failures.append(
                        f"lap {len(laps)} raised:\n{traceback.format_exc()}"
                    )
                    break
                # The lap at reference speed: one factor for all of it.
                lap.speed = pulse.speed(mark)
                lap.ops = [op * lap.speed for op in lap.ops]
                lap.timed = timed.seconds * lap.speed
                lap.phases = {k: v * lap.speed for k, v in lap.phases.items()}
                for span in recorder.spans[first_span:]:
                    span[1], span[2] = span[1] * lap.speed, span[2] * lap.speed
                laps.append(lap)
                traced.append(with_spans)
                if clock() - started >= seconds and (not trace or any(traced)):
                    break

        for index, lap in enumerate(laps):
            # Every lap does identical work: same digest, same exact counts.
            if lap.digest != laps[0].digest:
                lap.fail_lap([f"lap {index}: digest differs from lap 0"])
            elif lap.counts != laps[0].counts:
                lap.fail_lap([f"lap {index}: exact counts differ from lap 0"])
            attempted, failed = attempted + lap.attempted, failed + lap.failed
            failures += lap.failures
        if laps and hasattr(workload, "verify"):
            checked, wrong, reasons = workload.verify(state)
            attempted, failed = attempted + checked, failed + wrong
            failures += reasons
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(values) -> float:
        values = list(values)  # a run without one finished lap reports zeros
        return statistics.median(values) if values else 0.0

    ops = [op * 1e3 for lap in laps for op in lap.ops]
    first = laps[0] if laps else None
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "params": workload.params(smoke),
        "laps": len(laps), "ops": len(ops),
        "digest": first.digest if first else "",
        "counts": first.counts if first else {},
        "attempted": attempted, "failed": failed, "failures": failures,
        "calib_ms": median(pulse.readings) * 1e3, "op_ms_p90": p90(ops),
        "end_to_end": {
            "setup_s": median(ref for ref, _wall in setups),
            "op_ms_p50": median(ops),
            "stmts_per_s": median(lap.statements / lap.timed for lap in laps),
            "design_cost_ratio": first.cost_after / first.cost_before if first else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        # The same as the wall clock read them, before the speed factor.
        "wall": {
            "setup_s": median(wall for _ref, wall in setups),
            "op_ms_p50": median(
                op * 1e3 / lap.speed for lap in laps for op in lap.ops
            ),
            "stmts_per_s": median(
                lap.statements * lap.speed / lap.timed for lap in laps
            ),
        },
    }
    if trace:
        traced_laps = [lap for lap, on in zip(laps, traced) if on]
        phases: dict[str, float] = {}
        for lap in traced_laps:
            for key, value in lap.phases.items():
                phases[key] = phases.get(key, 0.0) + value / len(traced_laps)
        plain = median(lap.timed for lap, on in zip(laps, traced) if not on)
        overhead = 100.0 * (
            median(lap.timed for lap in traced_laps) / plain - 1.0
        ) if plain else 0.0
        layers = tracing.layer_values(
            recorder, len(traced_laps), {**record["counts"], **phases},
            {"harness.calib_ms": record["calib_ms"],
             "harness.op_ms_p90": record["op_ms_p90"],
             "harness.trace_overhead_pct": overhead},
        )
        if workload.name in tracing.WHATIF_ONLY and layers["storage.index_builds"]:
            record["failed"] += sum(lap.attempted - lap.failed for lap in traced_laps)
            failures.append(f"{workload.name}: real index built on a what-if path")
        record["per_layer"] = layers
        selfs = sum(
            layers[m.name] for m in tracing.LAYER_METRICS if m.source[0] == "self"
        )
        lap_s = layers["harness.lap_s"]
        record["self_sum_share"] = selfs / lap_s if lap_s else 0.0
        if traced_laps:
            recorder.dump(OUT / f"trace-{workload.name}.jsonl", traced.index(True))
    return record


def print_record(record: dict, units: dict[str, str]) -> None:
    print(f"# {record['workload']} seed={record['seed']} laps={record['laps']} "
          f"ops={record['ops']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    section = "per_layer" if record["trace"] else "end_to_end"
    for name, value in record[section].items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    if record["trace"]:
        print(f"{'(self times / lap wall)':32s} {record['self_sum_share']:16.6f} ratio")
    else:
        print(f"{'harness.op_ms_p90':32s} {record['op_ms_p90']:16.6f} ms")
        print(f"{'harness.calib_ms':32s} {record['calib_ms']:16.6f} ms")
        for name, value in record["wall"].items():
            print(f"{'wall.' + name:32s} {value:16.6f} {units[name]}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def run_one(args) -> int:
    workloads, ledger_trace = import_layers()
    by_name = {w.name: w for w in workloads.WORKLOADS}
    if args.workload not in by_name:
        sys.exit(f"ledger: unknown workload {args.workload!r}; "
                 f"known: {', '.join(by_name)}")
    record = measure(
        by_name[args.workload], args.seed, args.seconds, bool(args.trace),
        args.smoke,
    )
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({m.name: m.unit for m in ledger_trace.LAYER_METRICS})
    print_record(record, units)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record, indent=1) + "\n")
    section = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in section.items()
        },
    }))
    return 1 if record["failures"] else 0


# ----------------------------------------------------------------------
# The whole ledger


def environment_stamp() -> dict:
    import numpy

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
    ).stdout.strip()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "git_commit": commit or None, **PINNED_ENV,
    }


def spread(values: list[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def run_all(args) -> int:
    """Every workload: ``REPEATS`` untraced runs interleaved round
    robin (a slow minute on a shared box lands on every workload),
    then one traced run each."""
    workloads, ledger_trace = import_layers()
    OUT.mkdir(exist_ok=True)
    seconds = 1 if args.smoke else args.seconds
    repeats = 1 if args.smoke else REPEATS

    def child(name: str, trace: int) -> dict:
        detail = OUT / f"detail-{name}-{trace}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(trace), "--detail", str(detail),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, env=pinned_environment(), cwd=REPO)
        if not detail.exists():
            sys.exit(f"ledger: {name} (trace {trace}) exited "
                     f"{done.returncode} without a result")
        record = json.loads(detail.read_text())
        detail.unlink()
        return record

    names = [w.name for w in workloads.WORKLOADS]
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            untraced[name].append(child(name, 0))
    traced = {name: child(name, 1) for name in names}

    results = {}
    failed = False
    for name in names:
        runs = untraced[name]
        entry = {
            "params": runs[0]["params"],
            "digest": runs[0]["digest"],
            "counts": runs[0]["counts"],
            "ops": [run["ops"] for run in runs],
            "attempted": sum(run["attempted"] for run in runs + [traced[name]]),
            "failed": sum(run["failed"] for run in runs + [traced[name]]),
            "failures": [f for run in runs + [traced[name]]
                         for f in run["failures"]],
            "end_to_end": {},
            "per_layer": traced[name]["per_layer"],
            "self_sum_share": traced[name]["self_sum_share"],
            "diagnostics": {
                "harness.calib_ms": [run["calib_ms"] for run in runs],
                "harness.op_ms_p90": [run["op_ms_p90"] for run in runs],
                **{f"wall.{key}": [run["wall"][key] for run in runs]
                   for key in runs[0]["wall"]},
            },
        }
        for metric in END_TO_END:
            values = [run["end_to_end"][metric["name"]] for run in runs]
            entry["end_to_end"][metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "repeats": values,
            }
        # Untraced repeats and the traced pass must agree exactly.
        for run in runs[1:] + [traced[name]]:
            if run["digest"] != entry["digest"] or run["counts"] != entry["counts"]:
                entry["failures"].append(
                    f"{name}: digest or exact counts differ between passes"
                )
        failed = failed or bool(entry["failures"])
        results[name] = entry

    ledger = {
        "seed": args.seed, "seconds": seconds, "repeats": repeats,
        "smoke": args.smoke, "claim": None,
        "environment": environment_stamp(),
        "spec": spec(workloads, ledger_trace, full=True),
        "results": results,
    }
    out = Path(args.out) if args.out else OUT / "ledger.json"
    out.write_text(json.dumps(ledger, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in END_TO_END}
    print(f"\n{'workload':20s} {'metric':20s} {'median':>14s} {'unit':6s} spread")
    for name, entry in results.items():
        for metric, row in entry["end_to_end"].items():
            print(f"{name:20s} {metric:20s} {row['median']:14.4f} "
                  f"{units[metric]:6s} {row['spread']:.3f}")
        for failure in entry["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"wrote {out}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# BENCHMARK.json


def spec(workloads, ledger_trace, full: bool = False) -> dict:
    """What the declarations imply: exactly ``BENCHMARK.json``'s keys,
    or (``full``) the same with parameters, layers and expectations."""
    document = {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.WORKLOADS
        ],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in ledger_trace.LAYER_METRICS
        ],
    }
    if full:
        for entry, w in zip(document["workloads"], workloads.WORKLOADS):
            entry.update(op=w.op, params=w.params(False))
        for entry, m in zip(document["end_to_end"], END_TO_END):
            entry["what"] = m["what"]
        for entry, m in zip(document["per_layer"], ledger_trace.LAYER_METRICS):
            entry.update(
                layer=m.layer, source=list(m.source),
                moves=[{"metric": a, "workload": b} for a, b in m.moves],
                flat_on=list(m.flat_on),
            )
    return document


# ----------------------------------------------------------------------
# --compare


def compare(path_a: str, path_b: str) -> int:
    """One row per end-to-end metric × workload: A, B, delta, verdict."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    exit_code = 0
    print(f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'delta':>8s} {'bound':>6s} {'sprA':>6s} {'sprB':>6s} verdict")
    for name, entry_a in a["results"].items():
        entry_b = b["results"].get(name)
        if entry_b is None:
            print(f"{name:20s} missing from {path_b}")
            exit_code = 1
            continue
        for metric in END_TO_END:
            key, bound = metric["name"], metric["bound"]
            row_a, row_b = entry_a["end_to_end"][key], entry_b["end_to_end"][key]
            base = row_a["median"]
            delta = (row_b["median"] - base) / base if base else 0.0
            worse_by = delta if metric["better"] == "lower" else -delta
            if metric["better"] == "lower":
                clean_win = max(row_b["repeats"]) < min(row_a["repeats"])
                clean_loss = min(row_b["repeats"]) > max(row_a["repeats"])
            else:
                clean_win = min(row_b["repeats"]) > max(row_a["repeats"])
                clean_loss = max(row_b["repeats"]) < min(row_a["repeats"])
            noisy = max(row_a["spread"], row_b["spread"]) > bound
            if noisy and not (clean_win or clean_loss):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "same"
            if verdict == "worse":
                exit_code = 1
            print(f"{name:20s} {key:18s} {base:12.4f} {row_b['median']:12.4f} "
                  f"{delta:+8.3f} {bound:6.2f} {row_a['spread']:6.3f} "
                  f"{row_b['spread']:6.3f} {verdict}  (base {base:.4g})")
        if a["seed"] == b["seed"] and (
            entry_a["digest"] != entry_b["digest"]
            or entry_a["counts"] != entry_b["counts"]
        ):
            changed = sorted(
                k for k in set(entry_a["counts"]) | set(entry_b["counts"])
                if entry_a["counts"].get(k) != entry_b["counts"].get(k)
            )
            print(f"{name:20s} EXACT MISMATCH digest "
                  f"{entry_a['digest'][:12]} vs {entry_b['digest'][:12]}; "
                  f"counts that differ: {changed or 'none'}")
            exit_code = 1
    return exit_code


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2000 photo rows, one short repeat (self-test)")
    parser.add_argument("--detail", help="also write the full run record here")
    parser.add_argument("--out", help="where the whole-ledger result goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--spec", action="store_true",
                        help="print the BENCHMARK.json the declarations imply")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.spec:
        print(json.dumps(spec(*import_layers()), indent=2))
        return 0
    if dict(os.environ) != pinned_environment():
        # Hash randomisation is fixed at interpreter start: start again.
        os.execve(sys.executable, [sys.executable] + sys.argv, pinned_environment())
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
