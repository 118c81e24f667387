"""Small runs pinned to values recorded from the dict-ledger, Event-object
engine that preceded the flat-row event loop (``engine_reference.json``).

A 3 J battery makes every protocol lose nodes within the run, both to packet
charges and to steady drain, so the deaths list exercises the kill and
death-projection paths.  Counts and deaths must match exactly; the final
ledger must match per node and mode within 1e-9 J.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from regionsim.scenario import ScenarioConfig
from regionsim.sim import run

REFERENCE = json.loads((Path(__file__).parent / "engine_reference.json").read_text())

SMALL_DRAINING = ScenarioConfig(
    area_width=80.0,
    area_height=80.0,
    region_size=40.0,
    node_count=18,
    radio_range=120.0,
    sensing_range=30.0,
    sink_x=60.0,
    sink_y=30.0,
    battery_j=3.0,
    sessions=4,
    sim_duration_s=900.0,
    init_phase_s=30.0,
    report_interval_s=300.0,
    seed=7,
)


@pytest.mark.parametrize("protocol", ["res", "mte", "dt"])
def test_small_run_matches_recorded_engine(protocol):
    want = REFERENCE[protocol]
    report = run(replace(SMALL_DRAINING, protocol=protocol))
    assert report.generated == want["generated"]
    assert report.delivered == want["delivered"]
    assert [[t, v] for t, v in report.deaths] == want["deaths"]
    _, rows = report.ledger_snapshots[-1]
    assert [str(row[0]) for row in rows] == list(want["ledger"])
    for node, *spent, _ in rows:
        for got, expected in zip(spent, want["ledger"][str(node)]):
            assert abs(got - expected) <= 1e-9, (node, spent)
