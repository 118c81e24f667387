"""Simulation harness: runs, duty cycling, deaths, batches and output files."""

import filecmp
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim.energy import SENSE, EnergyLedger
from regionsim import sim
from regionsim.routing import CycleError
from regionsim.scenario import ScenarioConfig, deploy
from regionsim.sim import (
    COVERAGE_SAMPLES,
    BatchReport,
    _Run,
    coverage_series,
    emit_outputs,
    run,
    run_batch,
)

SMALL = ScenarioConfig(
    area_width=80.0,
    area_height=80.0,
    region_size=40.0,
    node_count=18,
    radio_range=120.0,
    sensing_range=30.0,
    sink_x=60.0,
    sink_y=30.0,
    battery_j=60.0,
    sessions=3,
    sim_duration_s=300.0,
    init_phase_s=30.0,
    report_interval_s=60.0,
    protocol="res",
    seed=7,
    run_count=3,
)


def conservation_residual(report, budget):
    worst = 0.0
    for _, snapshot in report.ledger_snapshots:
        for _, tx, rx, sense, sleep, remaining in snapshot:
            worst = max(worst, abs(budget - (remaining + tx + rx + sense + sleep)))
    return worst


def test_adjacent_sessions_deliver_everything():
    report = run(SMALL)
    assert report.sessions_established == 3
    assert report.delivery_ratio == 1.0
    assert report.generated == 3 * 270  # 3 sessions, 1 pkt/s over 270 s


def test_zero_sessions_only_flood_and_sleep():
    config = replace(SMALL, sessions=0, init_phase_s=0.0)
    report = run(config)
    assert report.generated == 0
    flood_j = report.totals_by_mode["tx"] + report.totals_by_mode["rx"]
    assert flood_j > 0.0  # setup flood is still paid
    assert report.totals_by_mode["sense"] == 0.0
    assert report.totals_by_mode["sleep"] > 0.0
    assert report.total_energy_j == pytest.approx(
        flood_j + report.totals_by_mode["sleep"]
    )


def test_res_run_counts_naive_flood_once(monkeypatch):
    import regionsim.flood
    import regionsim.sim

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    for module in (regionsim.sim, regionsim.flood):
        monkeypatch.setattr(module, "naive_flood_count", counting(module.naive_flood_count))
    report = run(SMALL)
    assert len(calls) == 1
    assert report.flood.savings == 1.0 - report.flood.tx / report.flood.naive


def test_or_run_prices_its_arcs_once_for_every_session(monkeypatch):
    price, route = sim._or_priced_graph, sim.route
    built, searched = [], []

    def pricing(*args):
        built.append(price(*args))
        return built[-1]

    def routing(*args, tables=None, **kwargs):
        searched.append(tables)
        return route(*args, tables=tables, **kwargs)

    monkeypatch.setattr(sim, "_or_priced_graph", pricing)
    monkeypatch.setattr(sim, "route", routing)
    report = run(replace(SMALL, protocol="or", radio_range=40.0, sessions=6))
    assert len(built) == 1 and len(searched) == 6
    assert all(tables is built[0] for tables in searched)
    assert report.sessions_established == 6
    assert max(s.hops for s in report.sessions) > 1


def test_init_phase_only_sink_neighbors_sense():
    # short range so that sink adjacency is a strict subset; snapshot the
    # ledger exactly at the end of the init phase
    config = replace(
        SMALL,
        radio_range=30.0,
        sim_duration_s=60.0,
        init_phase_s=30.0,
        report_interval_s=30.0,
        sessions=0,
    )
    report = run(config)
    t, snapshot = report.ledger_snapshots[1]
    assert t == 30.0
    sensing = {row[0] for row in snapshot if row[3] > 0}
    sleeping = {row[0] for row in snapshot if row[4] > 0}
    assert sensing and sleeping
    assert sensing.isdisjoint(sleeping)
    from regionsim.graph import build_unit_disk_digraph, neighborhoods
    from regionsim.scenario import deploy

    d = deploy(config, config.seed)
    g = build_unit_disk_digraph([d.nodes[v] for v in sorted(d.nodes)])
    adjacent = {v for v in neighborhoods(g, d.sink_id).all_nodes if v != d.sink_id}
    assert sensing == adjacent


def test_comparators_keep_all_sensors_sensing():
    report = run(replace(SMALL, protocol="dt"))
    _, snapshot = report.ledger_snapshots[-1]
    assert all(row[3] > 0 for row in snapshot)  # every sensor sensed


def test_res_sleeps_off_route_nodes():
    report = run(SMALL)
    on_routes = set()
    for s in report.sessions:
        on_routes.update(v for v in s.vertices if v != s.sink)
    _, snapshot = report.ledger_snapshots[-1]
    for node, tx, rx, sense, sleep, _ in snapshot:
        if node not in on_routes:
            # off-route: slept the whole session phase
            assert sleep > 0
    assert len(on_routes) < len(snapshot)  # somebody actually slept


def test_energy_conservation_within_tolerance():
    for proto in ("res", "dt", "mte", "merr", "or"):
        report = run(replace(SMALL, protocol=proto))
        assert conservation_residual(report, SMALL.battery_j) < 1e-9


def test_total_matches_ledger_sum_exactly():
    report = run(SMALL)
    _, snapshot = report.ledger_snapshots[-1]
    total = 0.0
    for _, tx, rx, sense, sleep, _ in snapshot:
        total += tx + rx + sense + sleep
    assert total == report.total_energy_j


@pytest.mark.parametrize(
    "config",
    [SMALL, replace(SMALL, protocol="dt", battery_j=3.0, sessions=4,
                    sim_duration_s=900.0, report_interval_s=300.0)],
    ids=["res", "dt-draining"],
)
def test_interval_rows_sum_their_own_snapshots(config):
    report = run(config)
    assert len(report.intervals) == len(report.ledger_snapshots)
    for row, (t, snapshot) in zip(report.intervals, report.ledger_snapshots):
        assert t == row.t_s
        assert [r[0] for r in snapshot] == sorted(r[0] for r in snapshot)
        tx = rx = sense = sleep = total = 0.0
        for _, txj, rxj, sensej, sleepj, _ in snapshot:
            tx += txj
            rx += rxj
            sense += sensej
            sleep += sleepj
            total += ((txj + rxj) + sensej) + sleepj
        assert (row.tx_j, row.rx_j, row.sense_j, row.sleep_j, row.total_j) == (
            tx, rx, sense, sleep, total
        )
    last = report.intervals[-1]
    assert last.t_s == config.sim_duration_s
    assert report.totals_by_mode == {
        "tx": last.tx_j, "rx": last.rx_j, "sense": last.sense_j, "sleep": last.sleep_j
    }
    assert report.total_energy_j == last.total_j


def test_stale_due_death_resettles_a_sleeping_node():
    # every sensor senses during init, so the flood charges at 30 s project
    # sense-mode deaths at about 218 s; the switch to sleep moves each
    # crossing past the run's end, but the sense-mode due times stay and
    # come due while their nodes are alive
    config = replace(
        SMALL, battery_j=3.0, sessions=0, sim_duration_s=900.0, report_interval_s=300.0
    )
    report = run(config)
    assert report.deaths == []
    _, snapshot = report.ledger_snapshots[-1]
    for _, _, _, _, _, remaining in snapshot:
        assert remaining > 1.8


def test_battery_death_stops_forwarding():
    config = replace(SMALL, battery_j=0.35, sessions=2, sim_duration_s=600.0)
    report = run(config)
    assert report.deaths
    assert report.lifetime_s == report.deaths[0][0]
    assert report.lifetime_s < 600.0
    assert report.delivery_ratio < 1.0
    # dead nodes never go meaningfully negative
    _, snapshot = report.ledger_snapshots[-1]
    for _, _, _, _, _, remaining in snapshot:
        assert remaining > -0.05


@pytest.mark.parametrize(
    "rate_hz, generated_at_60",
    [
        # the tick at 60.0 s goes before the report at 60.0 s
        (4.0, 3 * 121),
        # 0.1 s steps accumulate to just past 60.0 s, so that tick misses the
        # report; 30 + k / 10 would land on 60.0 exactly and count 3 * 301
        (10.0, 3 * 300),
    ],
)
def test_tick_clock_and_order_within_a_timestamp(rate_hz, generated_at_60):
    report = run(replace(SMALL, packet_rate_hz=rate_hz))
    assert report.generated == 3 * round(270 * rate_hz)
    row = next(row for row in report.intervals if row.t_s == 60.0)
    assert row.generated == generated_at_60


@pytest.mark.parametrize("protocol", ["dt", "mte"])
def test_drain_deaths_fire_once_at_the_crossing(protocol):
    config = replace(
        SMALL,
        protocol=protocol,
        battery_j=3.0,
        sessions=4,
        sim_duration_s=900.0,
        report_interval_s=300.0,
    )
    report = run(config)
    dead = [v for _, v in report.deaths]
    assert len(dead) == len(set(dead))
    times = [t for t, _ in report.deaths]
    assert times == sorted(times)
    charged = set()
    for s in report.sessions:
        charged.update(s.vertices)
    drained = [v for v in dead if v not in charged]
    assert drained  # some sensor died of sensing alone
    _, snapshot = report.ledger_snapshots[-1]
    remaining = {row[0]: row[5] for row in snapshot}
    for v in drained:
        assert abs(remaining[v]) <= 1e-9, (v, remaining[v])


def test_equal_due_deaths_settle_in_node_id_order():
    # at a 50 m range every sensor but node 2 is in the sink's neighbourhood
    # and senses from t = 0, so those 17 share the crossing at 3 J / 12 mW =
    # 250 s; node 2 sleeps through init and dies later
    config = replace(
        SMALL,
        protocol="dt",
        radio_range=50.0,
        battery_j=3.0,
        sessions=0,
        sim_duration_s=900.0,
        report_interval_s=300.0,
    )
    report = run(config)
    tied = [v for t, v in report.deaths if t == 250.0]
    assert len(tied) == 17
    assert report.deaths[:17] == [(250.0, v) for v in sorted(tied)]
    assert report.deaths[17:] == [(278.75, 2)]


DRAINING = replace(
    SMALL, battery_j=3.0, sessions=4, sim_duration_s=900.0, report_interval_s=300.0
)


def test_scalar_settles_bill_through_the_ledger(monkeypatch):
    calls = {"charge": 0, "impulse": 0}
    charge, impulse = EnergyLedger.charge, _Run._impulse

    def counting_charge(self, *args):
        calls["charge"] += 1
        charge(self, *args)

    def counting_impulse(self, *args):
        calls["impulse"] += 1
        impulse(self, *args)

    monkeypatch.setattr(EnergyLedger, "charge", counting_charge)
    monkeypatch.setattr(_Run, "_impulse", counting_impulse)
    report = run(replace(DRAINING, protocol="mte"))
    assert report.deaths
    assert calls["impulse"] > 0
    assert calls["charge"] == calls["impulse"]


def run_bulk_and_scalar(monkeypatch, config, seed=None):
    """Run once as is and once with every tick through _handle_tick, which
    settles through the EnergyLedger's own methods; the two must report the
    same state to the last bit, and hold the same due times whenever both
    settle them at the same time after the same packets.  Returns the first
    report."""

    def state(report):
        sessions = [(s.generated, s.delivered, s.energy_j) for s in report.sessions]
        return repr((report.deaths, report.ledger_snapshots, sessions, report.intervals))

    scalar_ticks = [0]
    # per run, the due times on entering each settle, keyed by (time, packets
    # generated): at a report time the bulk run settles once, after the tick
    # there, and the scalar run before and after it
    dues = [{}]
    handle_tick, settle_due = _Run._handle_tick, _Run._settle_due

    def counting_tick(self):
        scalar_ticks[-1] += 1
        handle_tick(self)

    def recording_settle(self, t):
        # only live nodes hold a due time
        assert set(self._due) <= self.alive
        dues[-1][t, sum(rec.generated for rec in self.records)] = sorted(self._due.items())
        left = settle_due(self, t)
        assert left == min(self._due.values(), default=math.inf)
        return left

    monkeypatch.setattr(_Run, "_handle_tick", counting_tick)
    monkeypatch.setattr(_Run, "_settle_due", recording_settle)
    bulk = run(config, seed)
    scalar_ticks.append(0)
    dues.append({})
    monkeypatch.setattr(_Run, "_bulk_ticks", lambda self, ticks: 0)
    scalar = run(config, seed)
    assert state(bulk) == state(scalar)
    assert dues[0].keys() <= dues[1].keys()
    assert [key for key, due in dues[0].items() if due != dues[1][key]] == []
    # the first run took most ticks in bulk
    assert scalar_ticks[0] < scalar_ticks[1] / 2
    return bulk


# multi-hop mte routes of 4 to 23 hops, so charge counts per node vary
# widely; the 5 J batteries kill busy relays, by charge and by drain
SPARSE_MTE = ScenarioConfig(area_width=320.0, area_height=320.0, node_count=280,
                            radio_range=60.0, battery_j=5.0, sim_duration_s=300.0,
                            protocol="mte")


@pytest.mark.parametrize(
    "config, seed, block_places",
    [
        *[(replace(DRAINING, protocol=p), None, None)
          for p in ("res", "dt", "mte", "merr", "or")],
        (replace(DRAINING, protocol="mte", packet_rate_hz=4.0), None, None),
        (replace(DRAINING, protocol="dt", packet_rate_hz=10.0), None, None),
        (replace(DRAINING, protocol="mte", init_phase_s=0.0), None, None),
        (ScenarioConfig(protocol="dt"), 2, None),
        (ScenarioConfig(protocol="mte"), 2, None),
        (SPARSE_MTE, 2, None),
        # no balance falls near a due time in 300 s, so no row can write one
        (replace(SPARSE_MTE, battery_j=100.0), 2, None),
        # so few places that every group splits and single rows exceed them
        (replace(DRAINING, protocol="mte"), None, 4),
        (ScenarioConfig(protocol="mte"), 2, 4),
    ],
    ids=["res", "dt", "mte", "merr", "or", "mte-4hz", "dt-10hz", "mte-no-init",
         "default-dt", "default-mte", "sparse-mte", "sparse-mte-100j", "mte-4-places",
         "default-mte-4-places"],
)
def test_bulk_ticks_match_scalar_ticks(monkeypatch, config, seed, block_places):
    if block_places is None:
        run_bulk_and_scalar(monkeypatch, config, seed)
        return
    applied = []
    bulk_ticks = _Run._bulk_ticks

    def counting_bulk(self, ticks):
        applied.append(bulk_ticks(self, ticks))
        return applied[-1]

    monkeypatch.setattr(_Run, "_bulk_ticks", counting_bulk)
    run(config, seed)
    real_cap = applied[:]
    applied.clear()
    monkeypatch.setattr(sim, "BLOCK_PLACES", block_places)
    run_bulk_and_scalar(monkeypatch, config, seed)
    # the same epochs, each applying as many ticks
    assert applied == real_cap


def record_epochs(monkeypatch):
    """Record each epoch of the bulk step as [ticks offered, passes, ticks
    applied], a pass holding per block [its first node, the limit offered,
    the limit returned, the row length of each due-write walk]; a pass starts
    at the block of the epoch's first node.  Returns the list it fills."""
    epochs = []
    bulk_ticks, bulk_block = _Run._bulk_ticks, _Run._bulk_block
    last_due_write = sim._last_due_write

    def recording_bulk(self, ticks):
        epochs.append([ticks, [], None])
        epochs[-1][2] = bulk_ticks(self, ticks)
        return epochs[-1][2]

    def recording_block(self, block, c, *arrays):
        passes = epochs[-1][1]
        first = block[0][0]
        if not passes or first == passes[0][0][0]:
            passes.append([])
        passes[-1].append([first, arrays[-1], None, []])
        result = bulk_block(self, block, c, *arrays)
        passes[-1][-1][2] = result[0]
        return result

    def recording_walk(neg, bar):
        epochs[-1][1][-1][-1][3].append(len(neg))
        return last_due_write(neg, bar)

    monkeypatch.setattr(_Run, "_bulk_ticks", recording_bulk)
    monkeypatch.setattr(_Run, "_bulk_block", recording_block)
    monkeypatch.setattr(sim, "_last_due_write", recording_walk)
    return epochs


@pytest.mark.parametrize("offer, block_places", [
    ("every-tick", None), ("one-tick-early", None), ("one-tick-late", None),
    ("every-tick", 4), ("one-tick-late", 4),
], ids=["every-tick", "one-tick-early", "one-tick-late", "every-tick-4-places",
        "one-tick-late-4-places"])
@pytest.mark.parametrize(
    "config, seed",
    [(replace(DRAINING, protocol="mte"), None), (replace(DRAINING, protocol="dt"), None),
     (ScenarioConfig(protocol="mte"), 2), (SPARSE_MTE, 2)],
    ids=["mte", "dt", "default-mte", "sparse-mte"],
)
def test_bulk_ticks_match_scalar_ticks_whatever_the_stop_estimate(
        monkeypatch, config, seed, offer, block_places):
    # Offering every tick, or one tick more than estimated, leaves the stop
    # to the dead test, and a block that lowers it makes every block run
    # again at the lowered stop; offering one tick fewer ends epochs early,
    # and the loop replays the next tick through _handle_tick.  The estimate
    # is exact on these runs, so only this test reaches those paths.
    estimate = sim._ticks_before_death
    if offer == "every-tick":
        fake = lambda balance, spend, drain, ticks: ticks
    elif offer == "one-tick-late":
        fake = lambda *args: min(args[-1], estimate(*args) + 1)
    else:
        fake = lambda *args: max(0, estimate(*args) - 1)
    monkeypatch.setattr(sim, "_ticks_before_death", fake)
    if block_places is not None:
        monkeypatch.setattr(sim, "BLOCK_PLACES", block_places)
    epochs = record_epochs(monkeypatch)
    report = run_bulk_and_scalar(monkeypatch, config, seed)
    assert report.deaths
    reruns = 0
    for _, passes, applied in epochs:
        if not (applied and passes):  # no ticks, or no node charged
            continue
        # a pass runs again exactly when one of its blocks lowered the
        # limit, and the last pass runs at the ticks applied, lowering nothing
        assert [any(ret < off for _, off, ret, _ in p) for p in passes] == (
            [True] * (len(passes) - 1) + [False])
        assert {(off, ret) for _, off, ret, _ in passes[-1]} == {(applied, applied)}
        reruns += len(passes) > 1
    if offer != "one-tick-early":
        assert reruns
    else:
        assert not reruns


def test_bulk_ticks_match_scalar_ticks_when_sources_die_in_the_first_tick(monkeypatch):
    # 30 s of sensing leave 0.5 mJ, less than one transmission
    config = replace(SMALL, protocol="dt", battery_j=0.3605, sessions=4)
    report = run_bulk_and_scalar(monkeypatch, config)
    sources = sorted(s.source for s in report.sessions)
    assert report.deaths[:4] == [(config.init_phase_s, v) for v in sources]


def test_bulk_ticks_match_scalar_ticks_when_a_relay_dies_mid_tick(monkeypatch):
    config = replace(DRAINING, protocol="mte", seed=1, sessions=6, radio_range=60.0)
    report = run_bulk_and_scalar(monkeypatch, config)
    senders = sorted(report.sessions, key=lambda s: s.source)
    # node 5 relays the first sender's packets and dies at a tick; the other
    # five senders still send in that tick
    assert senders[0].vertices[1] == 5
    assert report.deaths[0] == (144.0, 5)
    assert all(s.generated == senders[0].generated for s in senders)
    assert senders[0].delivered < senders[2].delivered


def due_writes_by_loop(low, threshold):
    """_impulse's rule, place by place: write at the first place below the
    threshold, then at each place more than 1 s below the last write."""
    places, bar = [], threshold
    for i, t in enumerate(low.tolist()):
        if t < bar:
            places.append(i)
            bar = t - 1.0
    return places


@st.composite
def falling_minima(draw):
    """A non-increasing array, as a running minimum of projections is: a run
    of inf (past the duration) and then falls of 0, exactly 1 s or any
    length; and a threshold, inf or near the values."""
    top = draw(st.one_of(st.integers(-20, 400).map(float),
                         st.floats(-20.0, 400.0, allow_nan=False)))
    falls = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                    st.floats(0.0, 3.0, allow_nan=False)),
                          max_size=60))
    values = [top]
    for fall in falls:
        values.append(values[-1] - fall)
    low = np.array([math.inf] * draw(st.integers(0, 3)) + values)
    near = draw(st.sampled_from(values))
    threshold = draw(st.sampled_from(
        [math.inf, near, near + 1.0, near - 1.0, near + 0.25]))
    return low, threshold


@settings(max_examples=300, deadline=None)
@given(falling_minima())
def test_due_writes_follow_the_impulse_rule(case):
    low, threshold = case
    for m in range(len(low) + 1):
        writes = due_writes_by_loop(low[:m], threshold)
        last = sim._last_due_write(np.negative(low[:m]), -threshold)
        assert last == (writes[-1] if writes else None)


def test_due_write_replay_stops_at_the_first_dead_tick(monkeypatch):
    # a dt source takes one charge a tick, so the row a walk is handed holds
    # one place per tick, and its length is the walk's bound; one row a block
    # puts blocks of writing rows before that of a source that dies
    config = replace(DRAINING, protocol="dt", seed=1, sessions=8, battery_j=6.0)
    monkeypatch.setattr(sim, "BLOCK_PLACES", 1)
    epochs = record_epochs(monkeypatch)
    report = run(config)
    # three sources die by charge at the tick of 429 s, 128 ticks into an
    # epoch offered 152
    assert report.deaths[:3] == [(429.0, 4), (429.0, 12), (429.0, 14)]
    ticks, passes, applied = next(e for e in epochs if e[0][:1] == [301.0])
    assert (len(ticks), applied, ticks[applied]) == (152, 128, 429.0)
    bounds = [n for _, _, _, walks in passes[-1] for n in walks]
    assert bounds and max(bounds) <= applied


@pytest.mark.parametrize("protocol", ["res", "dt", "mte", "merr", "or"])
def test_report_packet_counts_are_the_session_sums(protocol):
    engine = _Run(replace(DRAINING, protocol=protocol), DRAINING.seed)
    report = engine.report
    assert report.deaths and report.generated
    assert report.generated == sum(s.generated for s in report.sessions)
    assert report.delivered == sum(s.delivered for s in report.sessions)
    assert report.delivery_ratio == report.delivered / report.generated
    # the session records and _due are the engine's only copies
    assert {"generated", "delivered", "_next_due", "drain_w"}.isdisjoint(vars(engine))


@pytest.mark.parametrize("protocol", ["res", "dt", "mte", "merr", "or"])
def test_every_charged_node_senses(monkeypatch, protocol):
    # the epoch step bills every charged node's drain at the sense rate:
    # each lies on a route, and INIT, the last mode switch, precedes every tick
    modes = []
    charge_plan, handle_tick = _Run._charge_plan, _Run._handle_tick

    def recording_plan(self):
        groups, sessions = charge_plan(self)
        modes.extend(self.mode[v] for members in groups.values() for v, _, _ in members)
        return groups, sessions

    def recording_tick(self):
        modes.extend(self.mode[v] for _, charges in self._senders
                     for v, _, _ in charges if v in self.alive)
        handle_tick(self)

    monkeypatch.setattr(_Run, "_charge_plan", recording_plan)
    monkeypatch.setattr(_Run, "_handle_tick", recording_tick)
    config = replace(DRAINING, protocol=protocol)
    for config in (config, replace(config, init_phase_s=0.0, battery_j=0.5)):
        run(config)
    assert modes and set(modes) == {SENSE}


def test_report_times_and_counts_are_python_numbers():
    for protocol in ("dt", "mte"):
        report = run(replace(DRAINING, protocol=protocol))
        assert report.deaths
        assert all(type(t) is float and type(v) is int for t, v in report.deaths)
        for s in report.sessions:
            assert type(s.generated) is int and type(s.delivered) is int
            assert type(s.energy_j) is float
        assert type(report.generated) is int and type(report.delivered) is int
        for row in report.intervals:
            assert type(row.t_s) is float
            assert type(row.coverage_pct) is float
            assert type(row.alive) is int
            assert type(row.generated) is int and type(row.delivered) is int
        for t, snapshot in report.ledger_snapshots:
            assert type(t) is float
            assert all(type(x) is float for row in snapshot for x in row[1:])


DEAD_NETWORK = replace(SMALL, battery_j=0.35, sessions=3, sim_duration_s=900.0)


def test_dead_network_has_zero_coverage():
    # tiny battery: every node exhausts during/shortly after the init phase
    config = DEAD_NETWORK
    report = run(config)
    series = coverage_series(report)
    assert series[0][1] == pytest.approx(100.0, abs=1.0)
    assert len(report.deaths) == SMALL.node_count
    assert series[-1][1] == 0.0


def brute_force_coverage_pct(config, seed, alive, nodes=None):
    """Coverage of the alive set from scratch: every alive sensor against
    every sample point, in blocks of 64 sensors.  ``nodes`` defaults to the
    seed's deployment."""
    rng = np.random.default_rng([abs(seed), 0x5EED])
    pts = rng.random((COVERAGE_SAMPLES, 2))
    pts[:, 0] *= config.area_width
    pts[:, 1] *= config.area_height
    if not alive:
        return 0.0
    nodes = deploy(config, seed).nodes if nodes is None else nodes
    ids = sorted(alive)
    xs = np.array([nodes[v].x for v in ids])
    ys = np.array([nodes[v].y for v in ids])
    covered = np.zeros(len(pts), dtype=bool)
    for i in range(0, len(xs), 64):
        dx = pts[:, 0, None] - xs[None, i : i + 64]
        dy = pts[:, 1, None] - ys[None, i : i + 64]
        covered |= ((dx * dx + dy * dy) <= config.sensing_range**2).any(axis=1)
    return 100.0 * float(covered.mean())


SPARSE = ScenarioConfig(area_width=640.0, area_height=640.0, node_count=1120,
                        radio_range=60.0, sim_duration_s=600.0, report_interval_s=300.0)
# 320 m tall at a 20 m sensing range: the coverage index cuts the points into
# seven bands of about 46 m, most sensors' windows span two of them, and the
# 3 J batteries die within the run
TALL = replace(DRAINING, area_height=320.0, node_count=64, radio_range=60.0,
               sensing_range=20.0, report_interval_s=60.0)


def assert_coverage_equals_brute_force(config, seed, nodes=None):
    """Every report's coverage equals the brute force over its alive set."""
    report = run(config, seed)
    sensors = set(deploy(config, seed).sensor_ids)
    oracle = {}
    for row in report.intervals:
        # deaths settle before a report at the same time
        alive = frozenset(sensors - {v for t, v in report.deaths if t <= row.t_s})
        assert len(alive) == row.alive
        if alive not in oracle:
            oracle[alive] = brute_force_coverage_pct(config, seed, alive, nodes)
        assert row.coverage_pct == oracle[alive], row.t_s
    if report.deaths:
        # the deaths moved the coverage the test compares
        assert len({row.coverage_pct for row in report.intervals}) > 1


@pytest.mark.parametrize(
    "config, seed",
    [
        # a narrower sensing range, so that deaths uncover points
        (replace(DRAINING, sensing_range=20.0, report_interval_s=30.0), None),
        (replace(DRAINING, protocol="dt", sensing_range=20.0, report_interval_s=30.0), None),
        (ScenarioConfig(protocol="mte"), 2),
        (SPARSE, 3),
        (DEAD_NETWORK, None),
        # a sensing range wider than the 80 m field: every window is every point
        (replace(DEAD_NETWORK, sensing_range=200.0), None),
        (ScenarioConfig(node_count=280, sim_duration_s=1200.0), 2),
        (TALL, None),
        (replace(TALL, protocol="mte"), None),
    ],
    ids=["draining-res", "draining-dt", "default-mte", "sparse-res", "dead-network",
         "wide-range", "dense-res", "tall-bands-res", "tall-bands-mte"],
)
def test_coverage_equals_brute_force_at_every_report(config, seed):
    assert_coverage_equals_brute_force(config, config.seed if seed is None else seed)


# one region, a range wider than the field and a battery that dies early
ONE_REGION = replace(DEAD_NETWORK, area_width=40.0, area_height=40.0, sink_x=20.0, sink_y=20.0,
                     sessions=1, sensing_range=100.0)


@pytest.mark.parametrize("sensors", [1, 2, 3, 4])
def test_coverage_index_chunks_match_brute_force(monkeypatch, sensors):
    # every sensor's window is every point, so a chunk holds exactly three
    # sensors: the counts are one sensor, one below, at and above a chunk
    monkeypatch.setattr(sim, "COVER_PLACES", 3 * COVERAGE_SAMPLES)
    config = replace(ONE_REGION, node_count=sensors)
    assert_coverage_equals_brute_force(config, config.seed)


def test_coverage_index_with_sensors_sharing_x(monkeypatch):
    config = replace(DRAINING, sensing_range=20.0, report_interval_s=30.0)
    deployment = deploy(config, config.seed)
    # x on a 20 m grid: at most five columns of 19 nodes on the 80 m field
    nodes = {v: replace(n, x=round(n.x / 20.0) * 20.0) for v, n in deployment.nodes.items()}
    assert len({n.x for n in nodes.values()}) <= 5
    monkeypatch.setattr(sim, "deploy", lambda config, seed: replace(deployment, nodes=nodes))
    # chunks of several sensors, which split the columns
    monkeypatch.setattr(sim, "COVER_PLACES", 4 * COVERAGE_SAMPLES // 3)
    assert_coverage_equals_brute_force(config, config.seed, nodes)


def test_tall_field_deaths_subtract_windows_in_two_bands():
    # the tall cases above exercise what they are meant to: sensors whose
    # windows lie in two bands die at several times
    for config in (TALL, replace(TALL, protocol="mte")):
        r = _Run(config, config.seed)
        assert {len(windows) for windows in r._covers.values()} == {1, 2}
        times = {t for t, v in r.deaths if len(r._covers[v]) == 2}
        assert len(times) >= 3


def test_coverage_index_with_sensors_on_band_edges(monkeypatch):
    config = replace(TALL, protocol="mte")
    deployment = deploy(config, config.seed)
    # every y moved to the nearest band edge or a sensing range off one, where
    # the window y +- pad ends a rounding past the edge; two sensors at y = 0
    # and at y = height
    height, reach = config.area_height / 7, config.sensing_range
    grid = [y for k in range(8) for y in (k * height - reach, k * height, k * height + reach)
            if 0.0 <= y <= config.area_height]
    nodes = {v: replace(n, y=min(grid, key=lambda y: abs(y - n.y)))
             for v, n in deployment.nodes.items()}
    first, second = deployment.sensor_ids[:2]
    nodes[first] = replace(nodes[first], y=0.0)
    nodes[second] = replace(nodes[second], y=config.area_height)
    assert len({n.y for n in nodes.values()}) >= 12
    monkeypatch.setattr(sim, "deploy", lambda config, seed: replace(deployment, nodes=nodes))
    r = _Run(config, config.seed)
    dead = {v for _, v in r.deaths}
    assert {first, second} <= dead
    assert len(r._covers[first]) == len(r._covers[second]) == 1
    assert any(len(r._covers[v]) == 2 for v in dead)
    assert_coverage_equals_brute_force(config, config.seed, nodes)


def test_run_deterministic():
    a = run(SMALL)
    b = run(SMALL)
    assert a.intervals == b.intervals
    assert a.deaths == b.deaths
    assert a.total_energy_j == b.total_energy_j
    assert [s.energy_j for s in a.sessions] == [s.energy_j for s in b.sessions]


def test_interval_rows_cover_duration():
    report = run(SMALL)
    times = [row.t_s for row in report.intervals]
    assert times == [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]
    assert all(
        a <= b for a, b in zip(times, times[1:])
    )


def test_delivery_ratio_in_unit_interval():
    for proto in ("res", "dt", "mte"):
        report = run(replace(SMALL, protocol=proto))
        assert 0.0 <= report.delivery_ratio <= 1.0


def test_flood_stats_only_for_res():
    assert run(SMALL).flood is not None
    assert run(replace(SMALL, protocol="dt")).flood is None


def test_run_batch_single_equals_run():
    config = replace(SMALL, run_count=1)
    batch = run_batch(config)
    single = run(config)
    assert isinstance(batch, BatchReport)
    assert len(batch.runs) == 1
    assert batch.runs[0].total_energy_j == single.total_energy_j
    mean, std = batch.metrics["total_energy_j"]
    assert mean == pytest.approx(single.total_energy_j)
    assert std == 0.0


def test_run_batch_aggregates_run_count_runs():
    batch = run_batch(SMALL)
    assert len(batch.runs) == SMALL.run_count
    assert batch.seeds == (7, 8, 9)
    for name in ("total_energy_j", "delivery_ratio", "lifetime_s"):
        mean, std = batch.metrics[name]
        values = {
            "total_energy_j": [r.total_energy_j for r in batch.runs],
            "delivery_ratio": [r.delivery_ratio for r in batch.runs],
            "lifetime_s": [r.lifetime_s for r in batch.runs],
        }[name]
        assert mean == pytest.approx(sum(values) / len(values))


def test_batches_at_different_base_seeds_agree_within_bands():
    b1 = run_batch(SMALL)
    b2 = run_batch(replace(SMALL, seed=107))
    m1, s1 = b1.metrics["total_energy_j"]
    m2, s2 = b2.metrics["total_energy_j"]
    assert abs(m1 - m2) <= 2 * (s1 + s2) + 1e-9


def test_default_scenario_completes_quickly():
    import time

    t0 = time.time()
    report = run(ScenarioConfig(), seed=2)
    assert time.time() - t0 < 60.0
    assert report.sessions_established > 0


# -- outputs ---------------------------------------------------------------------


def test_emit_outputs_files(tmp_path):
    report = run(SMALL)
    paths = emit_outputs(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"summary.csv", "sessions.csv", "energy.csv", "report.txt"}
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("t_s,coverage_pct,alive")
    assert len(summary) == 1 + len(report.intervals)
    energy = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert energy[0] == "t_s,node_id,tx_j,rx_j,sense_j,sleep_j,remaining_j"
    assert len(energy) == 1 + len(report.ledger_snapshots) * SMALL.node_count


def test_zero_sessions_gives_header_only_sessions_csv(tmp_path):
    report = run(replace(SMALL, sessions=0))
    emit_outputs(report, tmp_path / "out")
    lines = (tmp_path / "out" / "sessions.csv").read_text().splitlines()
    assert lines == [
        "session_id,source,sink,protocol,status,hops,packet_energy_j,"
        "generated,delivered,energy_j"
    ]


def test_emit_outputs_byte_identical(tmp_path):
    emit_outputs(run(SMALL), tmp_path / "a")
    emit_outputs(run(SMALL), tmp_path / "b")
    for name in ("summary.csv", "sessions.csv", "energy.csv", "report.txt"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_flood_trace_emitted_when_enabled(tmp_path):
    config = replace(SMALL, flood_trace=True)
    report = run(config)
    paths = emit_outputs(report, tmp_path / "out")
    trace = tmp_path / "out" / "flood_trace.csv"
    assert trace in paths
    lines = trace.read_text().splitlines()
    assert lines[0] == "round,sender,receiver,region,hop,action"
    assert len(lines) > 1


def test_emit_batch_outputs(tmp_path):
    batch = run_batch(replace(SMALL, run_count=2))
    paths = emit_outputs(batch, tmp_path / "out")
    assert (tmp_path / "out" / "batch_summary.csv") in paths
    assert (tmp_path / "out" / "run_7" / "summary.csv").exists()
    assert (tmp_path / "out" / "run_8" / "summary.csv").exists()
    lines = (tmp_path / "out" / "batch_summary.csv").read_text().splitlines()
    assert lines[0] == "metric,mean,std"
    assert any(line.startswith("total_energy_j,") for line in lines)


def test_unrouted_sessions_are_written_with_no_hops_or_packets(tmp_path):
    config = ScenarioConfig(protocol="dt", radio_range=60.0, seed=2, sim_duration_s=300.0)
    report = run(config)
    assert (report.sessions_requested, report.sessions_established) == (15, 6)
    emit_outputs(report, tmp_path)
    rows = [line.split(",") for line in (tmp_path / "sessions.csv").read_text().splitlines()]
    unrouted = [dict(zip(rows[0], row)) for row in rows[1:] if row[4] == "no_route"]
    assert len(unrouted) == 9
    assert all(r["hops"] == "0" and r["generated"] == "0" for r in unrouted)


def test_merr_report_carries_characteristic_distance(tmp_path):
    emit_outputs(run(ScenarioConfig(protocol="merr")), tmp_path)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "merr_characteristic_distance_m: 180.000000" in lines


def test_run_failure_is_a_simulation_error_naming_the_seed(monkeypatch):
    def fail(config, seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(sim, "_Run", fail)
    with pytest.raises(sim.SimulationError, match=r"seed=9\b.*boom"):
        run(SMALL, 9)


def test_routing_error_keeps_its_class_and_names_the_seed(monkeypatch):
    def fail(config, seed):
        raise CycleError("loop")

    monkeypatch.setattr(sim, "_Run", fail)
    with pytest.raises(CycleError, match=r"seed=9\b.*loop"):
        run(SMALL, 9)
