"""Divergent-design tuning for replicated fleets.

The fleet layer sits on top of every existing subsystem: it clusters a
workload by index-utilization similarity (priced through the batched
INUM evaluator), tunes one :class:`Replica` design per cluster with
the ILP advisor, and routes statements to whichever replica's design
prices them cheapest. See :mod:`repro.fleet.tuner` for the
cluster→tune→route loop and its convergence contract, and
:mod:`repro.fleet.serve` for the closed serving loop that re-tunes on
drift, rolls designs out replica by replica, and rolls a regressing
replica back automatically.
"""

from repro.fleet.clusterer import WorkloadClusterer
from repro.fleet.router import Router
from repro.fleet.serve import FleetController, FleetEvent
from repro.fleet.tuner import (
    DivergentTuner,
    FleetResult,
    FleetRound,
    Replica,
    UniformBaseline,
)

__all__ = [
    "DivergentTuner",
    "FleetController",
    "FleetEvent",
    "FleetResult",
    "FleetRound",
    "Replica",
    "Router",
    "UniformBaseline",
    "WorkloadClusterer",
]
