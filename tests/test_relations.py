"""Metamorphic relations: two runs that must agree, so no second engine is
needed as an oracle.  Each relation names the model note it checks."""

from dataclasses import replace

import pytest

from regionsim.routing import PROTOCOLS
from regionsim.scenario import ScenarioConfig
from regionsim.sim import run

# 18 sensors with a 50 m range on an 80 m field, so that routes take several
# hops, and 60 J batteries, which every sensing node spends within the 8400 s
SMALL = ScenarioConfig(
    area_width=80.0,
    area_height=80.0,
    region_size=40.0,
    node_count=18,
    radio_range=50.0,
    sensing_range=30.0,
    sink_x=60.0,
    sink_y=30.0,
    battery_j=60.0,
    sessions=4,
)


def observed(protocol, seed, report_interval_s):
    """The deaths and each session's packet counts of one run."""
    report = run(replace(SMALL, protocol=protocol, report_interval_s=report_interval_s), seed)
    return report.deaths, [(s.generated, s.delivered) for s in report.sessions]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_reports_are_observers(protocol, seed):
    # README, Model notes, "Reports are observers": a report accrues drain
    # and reads the ledger but bills no charge, and where the reports fall
    # moves no death and no packet
    deaths, packets = observed(protocol, seed, 1200.0)
    assert deaths  # the relation is tested with deaths in the run
    for interval in (600.0, 840.0, 2800.0):
        assert observed(protocol, seed, interval) == (deaths, packets), interval
