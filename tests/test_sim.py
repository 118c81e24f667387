"""Simulation harness: runs, duty cycling, deaths, batches and output files."""

import filecmp
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim.energy import DEATH_EPSILON_J, RX, SENSE, SLEEP, TX, EnergyLedger, spent
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
        # only live nodes hold a due time, and no due time is NaN
        assert not np.isnan(self.due).any()
        assert np.isinf(self.due[~self.alive]).all()
        held = np.flatnonzero(self.due < math.inf).tolist()
        dues[-1][t, sum(rec.generated for rec in self.records)] = [
            (v, self.due[v].item()) for v in held]
        left = settle_due(self, t)
        assert type(left) is float
        assert left == self.due.min()
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


def scalar_setup_modes(self):
    """The t = 0 settle as a loop over the sensors through _impulse."""
    for v in self.sensors:
        self._mode[v] = SENSE if v in self.init_active else SLEEP
        self._since[v] = 0.0
        self._impulse(v, self._mode[v], 0.0)
    self._report()


def scalar_init(self):
    """Init as loops through _impulse: per sensor in id order, its flood
    charges at TX and at RX while it lives, then per sensor its accrual and,
    if its mode changes, the switch."""
    for v in self.sensors:
        for slot, joules in self._flood_charges:
            if joules[v] and self._alive[v]:
                self._impulse(v, slot, joules[v].item())
    for v in self.sensors:
        if self._alive[v]:
            self._accrue_to(v, self.now)
            if self._mode[v] != self.duty[v]:
                self._mode[v] = self.duty[v].item()
                self._impulse(v, self._mode[v], 0.0)


def scalar_report(self):
    """A report as a loop: accrue each live sensor, then add up the snapshot
    row by row."""
    for v in self.sensors:
        if self._alive[v]:
            self._accrue_to(v, self.now)
    snapshot = self.ledger.snapshot()
    self.ledger_snapshots.append((self.now, snapshot))
    tx = rx = sense = sleep = total = 0.0
    for _, txj, rxj, sensej, sleepj, _ in snapshot:
        tx += txj
        rx += rxj
        sense += sensej
        sleep += sleepj
        total += spent(txj, rxj, sensej, sleepj)
    generated = sum(rec.generated for rec in self.records)
    delivered = sum(rec.delivered for rec in self.records)
    self.intervals.append(sim.IntervalRow(
        self.now, self._coverage_pct(), int(np.count_nonzero(self.alive)), generated,
        delivered, delivered / generated if generated else 0.0, tx, rx, sense, sleep, total))


@pytest.mark.parametrize(
    "config",
    [
        *[replace(DRAINING, protocol=p) for p in ("res", "dt", "mte", "merr", "or")],
        # deaths at init: by the flood's charges, and by drain at the switch
        replace(DRAINING, battery_j=0.36),
        replace(DRAINING, battery_j=0.5),
        replace(DRAINING, protocol="dt", battery_j=0.3605),
        replace(SMALL, radio_range=50.0, sessions=4, battery_j=0.5),
        # at t = 0
        replace(DRAINING, battery_j=0.5e-9),
        ScenarioConfig(protocol="res", battery_j=3.0, sim_duration_s=1200.0),
        ScenarioConfig(protocol="res", node_count=280, battery_j=2.0, sim_duration_s=600.0),
    ],
    ids=["res", "dt", "mte", "merr", "or", "res-0.36j", "res-0.5j", "dt-0.3605j",
         "res-sparse-0.5j", "res-t0", "default-res-3j", "dense-res-2j"],
)
def test_array_passes_match_scalar_loops(monkeypatch, config):
    # the t = 0 settle, init and the reports replay _impulse on arrays: the
    # same run through the loops reports the same state to the last bit, and
    # holds the same due times at every due settle
    def state(report):
        sessions = [(s.generated, s.delivered, s.energy_j) for s in report.sessions]
        return repr((report.deaths, report.ledger_snapshots, sessions, report.intervals))

    dues = []
    settle_due = _Run._settle_due

    def recording_settle(self, t):
        dues[-1].append((t, self.due.tobytes(), self.alive.tobytes(), self.mode.tobytes()))
        return settle_due(self, t)

    monkeypatch.setattr(_Run, "_settle_due", recording_settle)
    runs = []
    for passes in ((), ("_setup_modes", "_handle_init", "_report")):
        loops = {"_setup_modes": scalar_setup_modes, "_handle_init": scalar_init,
                 "_report": scalar_report}
        for name in passes:
            monkeypatch.setattr(_Run, name, loops[name])
        dues.append([])
        runs.append(run(config))
    array, scalar = runs
    assert state(array) == state(scalar)
    assert dues[0] == dues[1]
    assert array.deaths


# multi-hop mte routes of 4 to 23 hops, so charge counts per node vary
# widely; the 5 J batteries kill busy relays, by charge and by drain
SPARSE_MTE = ScenarioConfig(area_width=320.0, area_height=320.0, node_count=280,
                            radio_range=60.0, battery_j=5.0, sim_duration_s=300.0,
                            protocol="mte")
# the 256-cell field of the CI's sparse.ini: no sensor dies in 600 s and no
# charged node projects a death inside the run, so the epoch step sums every
# group in closed form
SPARSE_RES = ScenarioConfig(area_width=640.0, area_height=640.0, node_count=1120,
                            radio_range=60.0, sim_duration_s=600.0)
# tools/parity.py's SWITCH field: 40 J batteries put the first projections of
# the 16 charged nodes past the run's end, and their packets bring them
# inside it.  At seed 1 the first epoch sums every group in closed form, the
# second some of them, and from t = 600 s every group takes the per-charge
# path; nodes die from t = 621 s.
SWITCH = ScenarioConfig(area_width=80.0, area_height=80.0, region_size=40.0, node_count=18,
                        radio_range=50.0, sensing_range=30.0, sink_x=60.0, sink_y=30.0,
                        sessions=8, protocol="mte", battery_j=40.0, packet_rate_hz=4.0,
                        report_interval_s=300.0, sim_duration_s=1200.0)


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
        (SPARSE_RES, 3, None),
        (SWITCH, 1, None),
    ],
    ids=["res", "dt", "mte", "merr", "or", "mte-4hz", "dt-10hz", "mte-no-init",
         "default-dt", "default-mte", "sparse-mte", "sparse-mte-100j", "mte-4-places",
         "default-mte-4-places", "sparse-res", "switch-mte-40j"],
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


def record_paths(monkeypatch):
    """Record per epoch of the bulk step the rows it sums in closed form and
    the rows it hands to _bulk_block, counting each row once per pass.
    Returns the list it fills."""
    epochs = []
    bulk_ticks, closed_form, bulk_block = _Run._bulk_ticks, _Run._closed_form, _Run._bulk_block

    def recording_bulk(self, ticks):
        epochs.append([0, 0])
        return bulk_ticks(self, ticks)

    def recording_closed(self, ids, *args):
        epochs[-1][0] += len(ids)
        return closed_form(self, ids, *args)

    def recording_block(self, block, *args):
        epochs[-1][1] += len(block)
        return bulk_block(self, block, *args)

    monkeypatch.setattr(_Run, "_bulk_ticks", recording_bulk)
    monkeypatch.setattr(_Run, "_closed_form", recording_closed)
    monkeypatch.setattr(_Run, "_bulk_block", recording_block)
    return epochs


def run_state(config, seed):
    report = run(config, seed)
    sessions = [(s.generated, s.delivered, s.energy_j) for s in report.sessions]
    return repr((report.deaths, report.ledger_snapshots, sessions, report.intervals))


@pytest.mark.parametrize("config, seed", [
    (SPARSE_RES, 3), (SWITCH, 1), (replace(SPARSE_MTE, battery_j=100.0), 2),
], ids=["sparse-res", "switch-mte-40j", "sparse-mte-100j"])
def test_closed_form_matches_the_per_charge_path(monkeypatch, config, seed):
    # the same run with every group forced onto the per-charge path reports
    # the same state to the last bit
    epochs = record_paths(monkeypatch)
    closed = run_state(config, seed)
    assert sum(rows for rows, _ in epochs) > 0
    if config is SWITCH:
        # closed form only, then mixed, then the per-charge path only
        paths = [(rows > 0, blocks > 0) for rows, blocks in epochs if rows or blocks]
        assert paths[:2] == [(True, False), (True, True)]
        assert (False, True) in paths[2:] and (True, False) not in paths[2:]
    epochs.clear()
    monkeypatch.setattr(_Run, "_quiet", lambda self, ids, *args: np.zeros(len(ids), dtype=bool))
    assert run_state(config, seed) == closed
    assert sum(rows for rows, _ in epochs) == 0


@pytest.mark.parametrize(
    "config, seed",
    [*[(replace(DRAINING, protocol=p), None) for p in ("res", "dt", "mte", "merr", "or")],
     (SPARSE_MTE, 2), (SWITCH, 1)],
    ids=["res", "dt", "mte", "merr", "or", "sparse-mte", "switch-mte-40j"],
)
def test_closed_form_keeps_only_rows_it_checked(monkeypatch, config, seed):
    # The bound decides only which path a group takes.  With every group
    # trying the closed form in every epoch, those in which a node dies or
    # writes a due time fall back to the per-charge path, and the run
    # matches the scalar one.
    monkeypatch.setattr(sim, "BLOCK_PLACES", 1)
    monkeypatch.setattr(_Run, "_quiet", lambda self, ids, *args: np.ones(len(ids), dtype=bool))
    epochs = record_paths(monkeypatch)
    report = run_bulk_and_scalar(monkeypatch, config, seed)
    assert report.deaths
    assert any(rows for rows, _ in epochs) and any(blocks for _, blocks in epochs)


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_rows_match_bulk_block_rows(seed):
    # the same rows through both paths: 6 nodes, 5 charges a tick to either
    # slot, joules over three decades in sender order, 700 ticks, balances
    # that neither die nor write a due time
    engine = _Run(replace(SPARSE_MTE, battery_j=100.0), 2)
    w = engine.params.drain_w[SENSE]
    rng = np.random.default_rng(seed)
    r, c, k = 6, 5, 700
    ids = np.arange(r)
    engine.due[ids] = math.inf
    start = rng.random((r, 4)) * 1e-2
    start[rng.random((r, 4)) < 0.3] = 0.0
    first_drain = rng.random(r) * 1e-3
    slots = rng.choice([TX, RX], (r, c))
    joules = rng.random((r, c)) * 1e-5 * 10.0 ** rng.integers(0, 3, (r, c))
    ticks = sim._tick_times(30.0, 0.25, 30.0 + k * 0.25)
    wdT = w * np.diff(ticks)
    end, loud = engine._closed_form(ids, start, first_drain, np.full(r, c), slots.ravel(),
                                    joules.ravel(), ticks, wdT, k)
    limit, ends, _ = engine._bulk_block(ids, c, start, first_drain, slots, joules, ticks, wdT, k)
    assert limit == k and not loud.any()
    for slot in range(4):
        assert end[:, slot].tolist() == ends.get(slot, start[:, slot]).tolist(), slot


def test_closed_form_flags_a_dead_row_that_writes_no_due_time():
    # A node whose due time lies within 1 s of the epoch's first tick writes
    # none, whatever its balance, so only the dead test keeps its group off
    # the closed form when a charge empties its battery in the epoch.
    engine = _Run(replace(DRAINING, protocol="dt"), DRAINING.seed)
    w = engine.params.drain_w[SENSE]
    T = np.array([100.0, 100.25])
    engine.due[0] = 100.5
    # 1 mJ left before the first tick, and 2 mJ of charges a tick
    start = np.array([[engine.budget - 1e-3, 0.0, 0.0, 0.0]])
    end, loud = engine._closed_form(
        np.array([0]), start, np.array([0.0]), np.array([1]), np.array([TX]),
        np.array([2e-3]), T, w * np.diff(T), len(T))
    balance = engine.budget - spent(*end[0])
    assert balance <= DEATH_EPSILON_J
    assert T[0] + balance / w >= engine.due[0] - 1.0
    assert loud.tolist() == [True]


def repeated_sums_by_loop(start, adds, k):
    """Each row's start plus its adds, one at a time, k times over, as one
    np.add.accumulate per row."""
    return [np.add.accumulate(np.concatenate([[x], np.tile(row, k)]))[-1]
            for x, row in zip(start.tolist(), adds)]


@st.composite
def repeated_sums_cases(draw):
    """Starts that are zero, just below a binade's top or anything up to 8;
    adds up to 10 J, some larger than the starts, some with their low bits
    zeroed so that they tie on a spacing; 1 to 8 adds a tick and up to 5,000
    ticks."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    start = draw(st.lists(st.one_of(
        st.just(0.0),
        st.integers(-30, 3).map(lambda e: math.nextafter(2.0**e, 0.0)),
        st.floats(0.0, 8.0)), min_size=r, max_size=r))
    adds = np.array(draw(st.lists(st.one_of(
        st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 10.0)),
        min_size=r * c, max_size=r * c))).reshape(r, c)
    bits = draw(st.one_of(st.none(), st.integers(0, 60)))
    if bits is not None:
        adds = np.ldexp(np.floor(np.ldexp(adds, bits)), -bits)
    return np.array(start), adds, draw(st.integers(0, 5000))


@pytest.mark.parametrize("prefix", ["default", "one-tick"])
@settings(max_examples=150, deadline=None)
@given(repeated_sums_cases())
def test_repeated_sums_match_the_accumulate(prefix, case):
    start, adds, k = case
    # with one tick add by add, every later one goes through the binade rounds
    places = (sim.SEQUENTIAL_TICKS, sim.SEQUENTIAL_PLACES) if prefix == "default" else (1, 1)
    with mock.patch.multiple(sim, SEQUENTIAL_TICKS=places[0], SEQUENTIAL_PLACES=places[1]):
        got = sim._repeated_sums(start, adds, k)
    assert got.tolist() == repeated_sums_by_loop(start, adds, k)


@pytest.mark.parametrize("start, add", [
    (1.0, 2.0**-53),  # ties to even and stays at 1.0
    (1.0 + 2.0**-52, 2.0**-53),  # ties up once, then stays
    (1.0, 1.5 * 2.0**-52),  # ties alternately up and down, 1.5 spacings a tick
    (3.0, 2.5 * 2.0**-51),  # ties down to an even sum, 2 spacings a tick
])
def test_repeated_sums_take_a_whole_binade_of_ties_in_one_accumulate(start, add):
    accumulated, calls = sim._accumulated, []

    def counting(*args):
        calls.append(args[-1])
        return accumulated(*args)

    k = 100_000
    with mock.patch.object(sim, "_accumulated", counting):
        got = sim._repeated_sums(np.array([start]), np.array([[add]]), k)
    assert got.tolist() == repeated_sums_by_loop(np.array([start]), np.array([[add]]), k)
    # the sequential ticks, then the rest of the binade in one accumulate
    assert len(calls) == 2 and sum(calls) == k


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
        first = int(block[0])
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
    ticks, passes, applied = next(e for e in epochs if e[0][:1].tolist() == [301.0])
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
    # the session records and due are the engine's only copies
    assert {"generated", "delivered", "_next_due", "drain_w"}.isdisjoint(vars(engine))
    # per-node state is arrays by sensor id, and the live count is alive's
    n = len(engine.sensors)
    for name, dtype in (("mode", np.int8), ("mode_since", np.float64),
                        ("alive", np.bool_), ("due", np.float64)):
        array = getattr(engine, name)
        assert type(array) is np.ndarray and array.dtype == dtype and array.shape == (n,)
    assert engine.rows is engine.ledger.rows and engine.rows.shape == (n, 4)
    assert type(engine.live) is int and engine.live == np.count_nonzero(engine.alive)


@pytest.mark.parametrize("protocol", ["res", "dt", "mte", "merr", "or"])
def test_every_charged_node_senses(monkeypatch, protocol):
    # the epoch step bills every charged node's drain at the sense rate:
    # each lies on a route, and INIT, the last mode switch, precedes every tick
    modes = []
    charge_plan, handle_tick = _Run._charge_plan, _Run._handle_tick

    def recording_plan(self):
        plan = charge_plan(self)
        (ids, *_), _, _ = plan
        modes.extend(self.mode[ids].tolist())
        return plan

    def recording_tick(self):
        modes.extend(self.mode[v].item() for _, charges in self._senders
                     for v, _, _ in charges if self.alive[v])
        handle_tick(self)

    monkeypatch.setattr(_Run, "_charge_plan", recording_plan)
    monkeypatch.setattr(_Run, "_handle_tick", recording_tick)
    config = replace(DRAINING, protocol=protocol)
    for config in (config, replace(config, init_phase_s=0.0, battery_j=0.5)):
        run(config)
    assert modes and set(modes) == {SENSE}


def test_report_times_and_counts_are_python_numbers():
    # numpy scalars would print other reprs; init deaths, due settles and
    # bulk ticks all reach these reports
    configs = [replace(DRAINING, protocol=p) for p in ("res", "dt", "mte", "merr", "or")]
    configs += [replace(DRAINING, battery_j=0.36), replace(DRAINING, battery_j=0.5e-9)]
    for config in configs:
        report = run(config)
        assert report.deaths
        assert all(type(t) is float and type(v) is int for t, v in report.deaths)
        for s in report.sessions:
            assert type(s.generated) is int and type(s.delivered) is int
            assert type(s.energy_j) is float
        assert type(report.generated) is int and type(report.delivered) is int
        assert type(report.lifetime_s) is float and type(report.total_energy_j) is float
        assert all(type(x) is float for x in report.totals_by_mode.values())
        for row in report.intervals:
            assert type(row.t_s) is float
            assert type(row.coverage_pct) is float
            assert type(row.alive) is int
            assert type(row.generated) is int and type(row.delivered) is int
            for name in ("delivery_ratio", "tx_j", "rx_j", "sense_j", "sleep_j", "total_j"):
                assert type(getattr(row, name)) is float, name
        for t, snapshot in report.ledger_snapshots:
            assert type(t) is float
            assert all(type(row[0]) is int for row in snapshot)
            assert all(type(x) is float for row in snapshot for x in row[1:])


def loop_ticks(t_init, rate, duration):
    """The tick times as a ``t += step`` loop lists them."""
    t, step, ticks = t_init, 1.0 / rate, []
    while True:
        ticks.append(t)
        t += step
        if not t < duration - 1e-9:
            return ticks


@pytest.mark.parametrize("rate", [0.3, 1.0, 3.0, 4.7, 7.0, 10.0, 13.0])
@pytest.mark.parametrize("t_init", [0.0, 0.25, 30.0])
def test_tick_times_are_the_loop_sums(rate, t_init):
    ticks = loop_ticks(t_init, rate, t_init + 5000 / rate)
    # ends past, at, within 1e-9 of and a rounding off a tick, and one
    # before the first tick past init
    ends = [t_init + 1e-3, 40.0, 300.0, 301.7]
    for t in ticks[1::397]:
        ends += [t, t + 1e-9, t + 0.5e-9, t + 2e-9, np.nextafter(t + 1e-9, math.inf)]
    for duration in ends:
        want = loop_ticks(t_init, rate, duration)
        got = sim._tick_times(t_init, 1.0 / rate, duration - 1e-9)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes(), duration
    config = replace(SMALL, packet_rate_hz=rate, init_phase_s=t_init)
    times, _ = _Run(config, config.seed)._timeline()
    assert times.tobytes() == np.array(loop_ticks(t_init, rate, config.sim_duration_s)).tobytes()


def init_flood_costs(config):
    """Per sensor, the joules of its t = 0 mode drained up to init, its TX and
    its RX flood charges, worked out from the flood and the energy model."""
    from regionsim.energy import rx_energy, tx_energy
    from regionsim.flood import run_flood
    from regionsim.graph import build_unit_disk_digraph, neighborhoods

    deployment = deploy(config, config.seed)
    nodes = deployment.nodes
    g = build_unit_disk_digraph([nodes[v] for v in sorted(nodes)])
    states = run_flood(g, deployment.seeds).states
    sensing = neighborhoods(g, deployment.sink_id).all_nodes
    params, bits = config.energy, float(config.packet_bits)
    tx1 = tx_energy(bits, params.level_count - 1, params)
    rx1 = rx_energy(bits, params)
    watts = {True: params.p_sense_mw / 1000.0, False: params.p_sleep_mw / 1000.0}
    return {
        v: (watts[v in sensing] * config.init_phase_s, states[v].tx_count * tx1,
            states[v].rx_count * rx1)
        for v in deployment.sensor_ids
    }


def test_flood_charges_kill_at_tx_and_at_rx_in_id_order():
    config = replace(SMALL, radio_range=50.0, sessions=4)
    costs = init_flood_costs(config)
    # a battery between the cheapest and the dearest flood: some sensors die
    # at their TX charge, some at their RX charge, and none before init
    totals = sorted(drain + tx + rx for drain, tx, rx in costs.values())
    battery = totals[len(totals) // 2]
    assert battery > max(drain for drain, _, _ in costs.values()) + 1e-6
    config = replace(config, battery_j=battery)
    at_tx, at_rx = set(), set()
    for v, (drain, tx, rx) in costs.items():
        # the ledger's sum: TX, RX, then the one duty cell that drained
        if battery - (tx + drain) <= 1e-9:
            at_tx.add(v)
        elif battery - ((tx + rx) + drain) <= 1e-9:
            at_rx.add(v)
    assert at_tx and at_rx
    report = run(config)
    init = [v for t, v in report.deaths if t == config.init_phase_s]
    assert init == sorted(at_tx | at_rx)
    assert all(t > config.init_phase_s for t, _ in report.deaths[len(init):])
    snapshot = dict((row[0], row) for row in report.ledger_snapshots[1][1])
    for v in at_tx:
        assert snapshot[v][2] == 0.0  # no RX billed after a death at TX
    for v in at_rx:
        assert snapshot[v][2] == costs[v][2]


@pytest.mark.parametrize("battery", [1e-9, 0.5e-9, 1e-300])
@pytest.mark.parametrize("protocol", ["res", "dt"])
def test_battery_within_death_epsilon_kills_every_sensor_at_t0(battery, protocol):
    config = replace(SMALL, battery_j=battery, protocol=protocol)
    report = run(config)
    sensors = list(deploy(config, config.seed).sensor_ids)
    assert report.deaths == [(0.0, v) for v in sensors]
    first = report.intervals[0]
    assert (first.t_s, first.alive, first.coverage_pct, first.total_j) == (0.0, 0, 0.0, 0.0)
    assert report.delivered == 0


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
        assert len(r._covers) == len(r.sensors)
        assert {len(windows) for windows in r._covers} == {1, 2}
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
