"""Shared test fixtures: small deterministic databases."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.catalog.datatypes import DOUBLE, INTEGER, SMALLINT, TEXT, varchar
from repro.catalog.schema import make_table
from repro.resilience import faults
from repro.storage.database import Database
from repro.workloads.star import build_star_database, star_workload

# CI sets HYPOTHESIS_PROFILE=ci so that a failing property reproduces;
# local runs keep drawing fresh examples.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def star_db():
    """A loaded star-schema database (read-only across tests)."""
    return build_star_database(fact_rows=4000, seed=7)


@pytest.fixture(scope="session")
def star_wl():
    return star_workload()


def make_people_db(rows: int = 500, seed: int = 3) -> Database:
    """A small two-table database with mixed types and NULLs."""
    rng = random.Random(seed)
    db = Database()
    cities = ["oslo", "lima", "pune", "kyiv", "baku"]
    db.create_table(
        make_table(
            "people",
            [
                ("person_id", INTEGER),
                ("age", SMALLINT),
                ("height", DOUBLE),
                ("city", varchar(8)),
                ("nickname", TEXT),
            ],
            primary_key="person_id",
        ),
        {
            "person_id": list(range(1, rows + 1)),
            "age": [rng.randint(0, 99) for _ in range(rows)],
            "height": [round(rng.gauss(170, 12), 2) for _ in range(rows)],
            "city": [rng.choice(cities) for _ in range(rows)],
            "nickname": [
                None if rng.random() < 0.2 else f"nick{rng.randint(1, 50)}"
                for _ in range(rows)
            ],
        },
    )
    pet_rows = rows // 2
    db.create_table(
        make_table(
            "pets",
            [
                ("pet_id", INTEGER),
                ("owner_id", INTEGER),
                ("species", varchar(8)),
                ("weight", DOUBLE),
            ],
            primary_key="pet_id",
        ),
        {
            "pet_id": list(range(1, pet_rows + 1)),
            "owner_id": [rng.randint(1, rows) for _ in range(pet_rows)],
            "species": [rng.choice(["cat", "dog", "axolotl"]) for _ in range(pet_rows)],
            "weight": [round(rng.uniform(0.1, 40.0), 2) for _ in range(pet_rows)],
        },
    )
    return db


@pytest.fixture(scope="session")
def people_db():
    return make_people_db()


@pytest.fixture()
def fresh_people_db():
    """A mutable copy for tests that create indexes / drop tables."""
    return make_people_db()


# ----------------------------------------------------------------------
# Driving the tune / fleet --serve commands in-process

#: A ``tune`` run over :func:`sdss_stream_file` that adopts a design.
TUNE_ARGS = [
    "--db", "sdss:800", "tune",
    "--budget-mb", "1.6", "--window", "9", "--check-interval", "3",
    "--build-cost-per-page", "0.25",
]
#: A ``fleet --serve`` run over the same stream that rolls designs out.
SERVE_ARGS = [
    "--db", "sdss:800", "fleet", "--serve", "--replicas", "2",
    "--budget-mb", "1.6", "--window", "16", "--check-interval", "8",
]


@pytest.fixture()
def sdss_stream_file(tmp_path) -> str:
    """A 120-statement, two-template SDSS stream file."""
    lines = []
    for i in range(60):
        lines.append(f"SELECT ra, dec FROM photoobj WHERE ra < {i % 7 + 1}")
        lines.append(f"SELECT z FROM specobj WHERE z > {i % 5}")
    path = tmp_path / "stream.sql"
    path.write_text(";\n".join(lines) + ";\n")
    return str(path)


def run_main(capsys, monkeypatch, argv, injected=""):
    """``repro.cli.main(argv)`` under the ``REPRO_FAULTS`` schedule
    ``injected``; returns (exit code, stdout, stderr)."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_FAULTS", injected)
    faults.reset_ambient()
    try:
        code = main(list(argv))
    finally:
        faults.reset_ambient()
    captured = capsys.readouterr()
    return code, captured.out, captured.err
