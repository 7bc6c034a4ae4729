#!/usr/bin/env python
"""Closed-loop fleet serving benchmark: health gate and crash safety.

Drives :class:`~repro.fleet.serve.FleetController` against live SDSS
statement streams and gates the three behaviours the closed loop
promises (all hard gates, nonzero exit):

* **closed loop, stable**: a drifting stream re-tunes and rolls new
  designs out replica by replica, and the post-apply health gate never
  fires a rollback on designs that genuinely help — zero ``rolled-back``
  and ``frozen`` events across the whole run;
* **regression rollback**: an injected regressing design (dropping a
  replica's beneficial indexes) is confirmed by consecutive bad
  windows and rolled back **on that replica only** — the survivors
  keep their designs and rotation, and the freeze is recorded exactly
  once in the event log;
* **kill/resume convergence**: a run SIGKILLed mid-rollout (torn
  ``rollout.journal`` write) resumed with the same state file reaches
  the same terminal phase and per-replica designs as the fault-free
  run.

Everything lands in ``BENCH_FLEET_SERVE.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_serve.py          # full
    PYTHONPATH=src python benchmarks/bench_fleet_serve.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.catalog.schema import Index, index_signature  # noqa: E402
from repro.core.parinda import Parinda  # noqa: E402
from repro.errors import FaultInjected  # noqa: E402
from repro.resilience.faults import FaultInjector  # noqa: E402
from repro.resilience.store import FileStateStore  # noqa: E402
from repro.workloads.sdss import build_sdss_database  # noqa: E402

N_REPLICAS = 2
SEED = 42

# Covering indexes the stream templates genuinely benefit from (the
# prototype loop converges onto the photoobj one by itself); dropping
# them is the injected regression.
PHOTO_INDEX = Index(
    name="good_photo_psfmag",
    table_name="photoobj",
    columns=("psfmag_r", "objid"),
    hypothetical=True,
)
SPEC_INDEX = Index(
    name="good_spec_z",
    table_name="specobj",
    columns=("z", "specobjid"),
    hypothetical=True,
)


def photo_q(i: int) -> str:
    return f"SELECT objid FROM photoobj WHERE psfmag_r < {14 + i % 6}.5"


def spec_q(i: int) -> str:
    return f"SELECT specobjid FROM specobj WHERE z < 0.{1 + i % 5}"


def ext_q(i: int) -> str:
    return f"SELECT objid FROM photoobj WHERE extinction_r < 0.{1 + i % 4}"


def stable_stream(n: int):
    return [photo_q(i) if i % 2 else spec_q(i) for i in range(n)]


def drifting_stream(n: int):
    half = n // 2
    return [photo_q(i) if i % 2 else spec_q(i) for i in range(half)] + [
        ext_q(i) if i % 2 else spec_q(i) for i in range(half, n)
    ]


def make_fleet(photo_rows, state_file=None, fault_injector=None, **knobs):
    store = None
    if state_file is not None:
        store = FileStateStore(state_file, fault_injector=fault_injector)
    db = build_sdss_database(photo_rows=photo_rows, seed=SEED)
    parinda = Parinda(db)
    knobs.setdefault("window_size", 24)
    knobs.setdefault("check_interval", 12)
    knobs.setdefault("regression_windows", 2)
    knobs.setdefault("probation_windows", 3)
    knobs.setdefault("max_rounds", 3)
    return parinda.fleet_serve(
        n_replicas=N_REPLICAS,
        budget_bytes=4 << 20,
        state_store=store,
        fault_injector=fault_injector,
        **knobs,
    )


def designs_of(fleet):
    return [
        sorted(index_signature(ix) for ix in rt.design)
        for rt in fleet.replicas
    ]


def terminal_of(fleet):
    return {"phase": fleet.phase, "designs": designs_of(fleet)}


def leg_closed_loop(photo_rows, stream_len):
    """Drift -> re-tune -> rollout on a live stream; no false rollbacks."""
    fleet = make_fleet(photo_rows, warmup=24)
    started = time.perf_counter()
    for sql in drifting_stream(stream_len):
        fleet.observe(sql)
    seconds = time.perf_counter() - started
    counts = fleet.event_counts
    return {
        "statements": stream_len,
        "seconds": round(seconds, 3),
        "phase": fleet.phase,
        "event_counts": dict(counts),
        "designs": [
            [f"{t}({', '.join(c)})" for t, c in d] for d in designs_of(fleet)
        ],
        "gates": {
            "retuned": counts.get("re-tuned", 0) >= 1,
            "rolled_out": counts.get("rollout-finished", 0) >= 1,
            "validated": counts.get("validated", 0) >= 1,
            "no_rollback": counts.get("rolled-back", 0) == 0
            and counts.get("frozen", 0) == 0
            and fleet.phase == "serving",
        },
    }


def leg_regression_rollback(photo_rows, stream_len):
    """A regressing design rolls back its replica only and freezes."""
    # warmup above the stream length: drift never interferes, every
    # rollout below is deliberate.
    fleet = make_fleet(photo_rows, warmup=10_000, regression_tolerance=0.05)
    good = [(PHOTO_INDEX, SPEC_INDEX)] * N_REPLICAS
    for sql in stable_stream(stream_len // 2):
        fleet.observe(sql)
    fleet.rollout(good)
    for sql in stable_stream(stream_len):
        fleet.observe(sql)
    counts_before = dict(fleet.event_counts)
    stable_clean = (
        counts_before.get("rolled-back", 0) == 0
        and counts_before.get("frozen", 0) == 0
    )
    # The injection: strip the replica that routing handed the photoobj
    # template to (the one whose design actually matters) of its
    # beneficial indexes.
    victim_id = max(
        range(N_REPLICAS),
        key=lambda rid: sum(
            weight
            for template, weight in fleet.replicas[rid]
            .monitor.window_counts.items()
            if "photoobj" in template
        ),
    )
    bad = list(good)
    bad[victim_id] = ()
    fleet.rollout(bad)
    for sql in stable_stream(stream_len):
        fleet.observe(sql)
    counts = fleet.event_counts
    victim = fleet.replicas[victim_id]
    survivor = fleet.replicas[1 - victim_id]
    good_sigs = sorted(index_signature(ix) for ix in good[0])
    return {
        "statements": 2 * stream_len + stream_len // 2,
        "event_counts": dict(counts),
        "victim_replica": victim_id,
        "victim_status": victim.status,
        "survivor_status": survivor.status,
        "gates": {
            "stable_design_never_rolls_back": stable_clean,
            "frozen_once": fleet.frozen and counts.get("frozen", 0) == 1,
            "victim_only_rolled_back": counts.get("rolled-back", 0) == 1
            and victim.status == "rolled-back",
            "victim_restored": sorted(
                index_signature(ix) for ix in victim.design
            )
            == good_sigs,
            "survivor_keeps_design": survivor.status == "serving"
            and sorted(index_signature(ix) for ix in survivor.design)
            == good_sigs,
        },
    }


def leg_kill_resume(photo_rows, stream_len, workdir):
    """Torn rollout-journal write mid-run; resume converges."""
    stream = drifting_stream(stream_len)

    def drive(state_file, injector=None):
        fleet = make_fleet(
            photo_rows, state_file=state_file, fault_injector=injector,
            warmup=24,
        )
        resume_from = fleet.position if fleet.resumed else 0
        killed = None
        for position, sql in enumerate(stream, start=1):
            if position <= resume_from:
                continue
            try:
                fleet.observe(sql)
            except FaultInjected as exc:
                killed = str(exc)
                break
        return fleet, killed

    clean_state = str(Path(workdir) / "clean.state")
    clean, _ = drive(clean_state, FaultInjector())
    expected = terminal_of(clean)

    kill_state = str(Path(workdir) / "kill.state")
    _, killed = drive(kill_state, FaultInjector.from_spec("rollout.journal:2"))
    resumed, _ = drive(kill_state)
    observed = terminal_of(resumed)
    return {
        "statements": stream_len,
        "killed_at": killed,
        "expected": expected,
        "resumed": observed,
        "gates": {
            "kill_fired_mid_rollout": killed is not None,
            "resume_converges": observed == expected,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small database and short streams (CI-sized)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_FLEET_SERVE.json")
    )
    args = parser.parse_args()

    photo_rows = 800 if args.smoke else 2000
    stream_len = 192 if args.smoke else 384

    print(f"closed loop on a drifting stream (photo_rows={photo_rows}) ...")
    closed_loop = leg_closed_loop(photo_rows, stream_len)
    print(
        f"  {closed_loop['statements']} statements in "
        f"{closed_loop['seconds']}s; events {closed_loop['event_counts']}"
    )

    print("injected regression (one replica loses its design) ...")
    regression = leg_regression_rollback(photo_rows, stream_len // 2)
    print(
        f"  victim replica {regression['victim_replica']} "
        f"{regression['victim_status']}, survivor "
        f"{regression['survivor_status']}; events "
        f"{regression['event_counts']}"
    )

    print("kill/resume at a torn rollout-journal write ...")
    with tempfile.TemporaryDirectory() as workdir:
        kill_resume = leg_kill_resume(photo_rows, stream_len, workdir)
    print(f"  killed: {kill_resume['killed_at']}")
    print(f"  resumed terminal matches clean: "
          f"{kill_resume['gates']['resume_converges']}")

    legs = {
        "closed_loop": closed_loop,
        "regression_rollback": regression,
        "kill_resume": kill_resume,
    }
    report = {
        "benchmark": "closed-loop fleet serving",
        "photo_rows": photo_rows,
        "n_replicas": N_REPLICAS,
        "seed": SEED,
        **legs,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = False
    for leg_name, leg in legs.items():
        for gate, passed in leg["gates"].items():
            if not passed:
                print(f"ERROR: {leg_name}.{gate} failed", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
