"""Deterministic discrete-event runs, batch averaging, and output files.

One run = deploy nodes, build the communication graph, set up the selected
protocol, then walk one fixed timeline of events, settling the battery deaths
that fall between them.  Identical (config, seed) pairs produce identical
reports and byte-identical CSV files.  Routing tables are built once per run
(res: cell tables; mte: one minimum-energy tree toward the sink), and so are
or's arc prices.

Event loop.  The traffic is fixed, so everything but the deaths is known
before the run starts: the init event at init_phase_s (flood charges, then
each sensor's duty mode in id order), one tick per packet instant from
init_phase_s on, where every routed session sends one packet in source-id
order, and the interval reports.  These merge into one timeline ordered by
(time, kind), with init < tick < report.  Before each timeline event, every
drain death due at or before it is settled in (time, node) order, so deaths
go first within a timestamp.

Epochs.  Between two other events, and until a node dies, every tick charges
the same ledger cells with the same joules, so the loop applies each such
run of ticks, an epoch, in one bulk step that replays the scalar settle
arithmetic with numpy, bit for bit.  An epoch starts at a tick and ends at
whichever comes first: the next non-tick event, the next due time, or the
tick before the first one in which a balance reaches DEATH_EPSILON_J.  Each
charged balance falls linearly over the epoch, so the step first estimates
that stop from every node's balance and its spend per tick.  It then works
on blocks of nodes that take the same number of charges per tick, in one
pass per block over the estimated stop, or two if a block lowers it, on
2-D numpy arrays of at most BLOCK_PLACES floats unless a single node needs
more.  The pass accumulates each cell the block touches after every charge
and reads each balance at every tick's end.  A block in which a balance reaches DEATH_EPSILON_J
before the stop keeps nothing and lowers the stop to the tick before; once
every block has run, they all run again at the lowered stop, which no
block can lower again, as it is the earliest dead tick over all nodes.  So
the stop is confirmed before anything is kept, which settles a late
estimate exactly.  A block at a confirmed stop keeps only each cell's value
there, and if some node's floor, the first tick's time plus its balance at
the stop over its drain rate, lies below its due time less 1 s and within
the duration, the last due time the 1 s rule writes for such a node: it
replays their per-charge projections of the drain death, negated, and
walks the writes from the first one on; no other node can write one in the
epoch.  Each array of a kept block is a prefix of the one it would compute
over the whole run of ticks, so every value it keeps is the scalar one.
The tick in which a node dies is replayed through the scalar _handle_tick,
as are init, due settles, t = 0 and the tick after an epoch that an early
estimate ended.

Model notes:
  * The sink is a mains-powered base station: it relays and receives but has
    no ledger entry and never dies.
  * Packet hop charges are applied at the generation timestamp; transmission
    time enters the energy figures, not the event clock.
  * Under the region-search protocol only nodes on an active session route
    stay in sense mode after setup; the comparison protocols keep every
    sensor in sense mode, which is the energy gap being measured.
  * Battery deaths.  _Run._impulse is the one settle step: it accrues a
    node's drain and bills a charge in full through the EnergyLedger's own
    methods (so a node can end up to one charge below zero), then kills the
    node at or below DEATH_EPSILON_J or projects its drain death.  Due
    deaths, duty-mode switches and t = 0 settle with a zero charge.  Each
    node has one due time, which goes when the node dies; a new projection
    replaces it only when more than 1 s earlier.  A node that no charge
    touches dies at its crossing; a node whose projection packet charges
    keep moving earlier dies at its recorded due time, up to 1 s late and
    up to 1 s of drain below zero (12 mJ while sensing).  Under dt on the
    default scenario at seed 2 the 15 session sources end 1.3 to 9.8 mJ
    below zero.
  * Coverage.  Set-up indexes the sample points within sensing range of
    each sensor and counts, per point, the sensors covering it; a death
    subtracts the dead sensor's points, so a report's coverage is the share
    of points whose count is nonzero, as a Python float.  The points are
    cut into at most COVER_BANDS horizontal bands, each at least two sensing
    ranges tall (one band on a field under four ranges tall), x-sorted
    within each band.  Per band, the index tests the sensors whose y +-
    range meets it, in x order, a chunk of at most COVER_PLACES tests (or
    one sensor) at a time, against one window of the band's points; a point
    outside a sensor's own window or bands fails its test, so each sensor
    covers the same points as in a test of its own window alone.
  * Ledger layout.  Each sensor's spends are one flat [tx, rx, sense, sleep]
    list in EnergyLedger.rows, indexed by the slots the charges carry.  Only
    the epoch step works on those rows directly: it replays accrue, charge
    and remaining, with the same drain watts and the same energy.spent, so
    both give the same bits.  A report sums its interval row from its own
    ledger snapshot, in sensor order, and its packet counts from the session
    records.
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import (
    DEATH_EPSILON_J,
    LEDGER_MODES,
    RX,
    SENSE,
    SLEEP,
    TX,
    EnergyLedger,
    rx_energy,
    spent,
    tx_energy,
)
from .flood import cells_from_flood, message_savings, naive_flood_count, run_flood
from .graph import NodeId, build_unit_disk_digraph, neighborhoods
from .regions import build_boundary_dual_graph
from .routing import (
    RouteNotFound,
    RoutingError,
    _or_priced_graph,
    build_mte_table,
    build_res_tables,
    characteristic_distance,
    packet_energy,
    per_packet_charges,
    route,
)
from .scenario import ScenarioConfig, ScenarioError, deploy, scenario_to_dict

COVERAGE_SAMPLES = 10_000
# floats per array of one block of the epoch step (256 KB)
BLOCK_PLACES = 1 << 15
# floats per array of one chunk of the coverage index (128 KB); of 2^13 to
# 2^17, the fastest or within noise of it on the default, dense and sparse fields
COVER_PLACES = 1 << 14
# most horizontal bands of the coverage index: of caps 2 to 15, 3 to 7 were
# within noise of the fastest on the 640 m and 1280 m fields and 15 was
# slower; uncapped, a 0.1 m sensing range on the 640 m field made 3,199 bands
# and an index 16 times slower than with one band
COVER_BANDS = 8


class SimulationError(RuntimeError):
    """A run aborted; the message carries the failing seed."""


# Kinds of the timeline events other than ticks, doubling as their order
# within one timestamp; a tick goes after an init and before a report.
INIT, REPORT = 0, 1


@dataclass(frozen=True)
class IntervalRow:
    t_s: float
    coverage_pct: float
    alive: int
    generated: int
    delivered: int
    delivery_ratio: float
    tx_j: float
    rx_j: float
    sense_j: float
    sleep_j: float
    total_j: float


@dataclass
class SessionRecord:
    session_id: int
    source: NodeId
    sink: NodeId
    protocol: str
    status: str  # "ok" or "no_route"
    hops: int
    packet_energy_j: float
    generated: int = 0
    delivered: int = 0
    energy_j: float = 0.0
    vertices: tuple = ()


@dataclass(frozen=True)
class FloodStats:
    tx: int
    rx: int
    discard: int
    naive: int
    savings: float
    rounds: int
    unreached: int


@dataclass
class RunReport:
    protocol: str
    seed: int
    config: dict
    intervals: list[IntervalRow]
    sessions: list[SessionRecord]
    flood: FloodStats | None
    flood_trace_rows: list
    totals_by_mode: dict[str, float]
    total_energy_j: float
    lifetime_s: float
    deaths: list[tuple[float, NodeId]]
    generated: int
    delivered: int
    delivery_ratio: float
    ledger_snapshots: list[tuple[float, list]]
    d_char_m: float | None
    sessions_requested: int
    sessions_established: int


@dataclass
class BatchReport:
    protocol: str
    base_seed: int
    seeds: tuple[int, ...]
    config: dict
    runs: list[RunReport]
    metrics: dict[str, tuple[float, float]]  # metric -> (mean, std)


def _tiled_sums(start: float, adds: np.ndarray, k: int) -> np.ndarray:
    """``start``, then the running sum after each add of ``adds`` repeated k
    times, added one at a time as a Python ``+=`` loop would."""
    acc = np.empty(k * len(adds) + 1)
    acc[0] = start
    acc[1:].reshape(k, len(adds))[:] = adds
    return np.add.accumulate(acc, out=acc)


def _ticks_before_death(balance: np.ndarray, spend: np.ndarray, drain: float,
                        ticks: int) -> int:
    """How many of ``ticks`` ticks pass before the first in which one of the
    balances reaches DEATH_EPSILON_J, up to rounding: each balance, taken
    before the first tick's charges, falls by its ``spend`` of charges in
    every tick and by ``drain`` from one tick to the next."""
    first = np.ceil((balance - spend - DEATH_EPSILON_J) / (spend + drain)).min()
    return int(min(max(first, 0), ticks))


def _last_due_write(neg: np.ndarray, bar: float) -> int | None:
    """The last place at which ``_impulse``'s rule writes a due time, or None,
    given one node's negated running minimum ``neg`` of the projections after
    every charge, which ascends, and ``bar``, its negated due time less 1 s
    before the first: the first write is at the first place above the bar,
    each next one at the first place more than 1 s above the last write."""
    i = int(np.searchsorted(neg, bar, "right"))
    if i == len(neg):
        return None
    tail = neg[i:]
    # nxt[j]: the place in tail of the write after one at place j
    nxt = memoryview(np.searchsorted(tail, tail + 1.0, "right"))
    j, n = 0, len(tail)
    while (k := nxt[j]) < n:
        j = k
    return i + j


class _Run:
    """Single-run engine; builds everything in __init__ and leaves a report.

    ``_due[v]`` is live node v's projected drain death, its only record,
    which goes when v dies.  The loop settles the smallest due time through
    ``_impulse``.  The session records hold the only packet counts.

    The loop hands each run of ticks before the next other event and before
    the smallest due time to ``_bulk_ticks``, which applies the ticks of an
    epoch (see the module notes) and returns how many.  If it stopped at a
    tick in which a node dies, ``_handle_tick`` replays that tick; if a due
    time now falls at or before the next tick, the loop settles it first.
    ``_impulse`` stays the one settle rule: the bulk step reproduces its
    arithmetic on ticks where it neither kills a node nor settles a due time.

    ``_impulse`` settles through ``EnergyLedger.accrue``, ``charge`` and
    ``remaining``, which check every flood charge as init bills it.  Only
    the epoch step (``_bulk_ticks`` and its ``_bulk_block``) works on the
    ledger rows directly, with the same arithmetic in the same order, so the
    hop charges it bills are checked once at setup.  Reports read the ledger
    only through ``snapshot``.
    """

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.seed = seed
        self.params = config.energy
        self.alpha = config.path_loss_exponent
        self.bits = float(config.packet_bits)
        self.duration = config.sim_duration_s

        self.deployment = deploy(config, seed)
        self.sink = self.deployment.sink_id
        self.nodes = self.deployment.nodes
        self.sensors = self.deployment.sensor_ids
        self.g = build_unit_disk_digraph(
            [self.nodes[v] for v in sorted(self.nodes)], symmetric=True
        )
        self.ledger = EnergyLedger(self.sensors, config.battery_j)
        self.rows = self.ledger.rows
        self.budget = self.ledger.budget_j

        self.mode: dict[NodeId, int] = {}  # SENSE or SLEEP; kept after death
        self.mode_since: dict[NodeId, float] = {}
        self.alive: set[NodeId] = set(self.sensors)
        self.deaths: list[tuple[float, NodeId]] = []
        self._due: dict[NodeId, float] = {}
        self.now = 0.0
        self.intervals: list[IntervalRow] = []
        self.ledger_snapshots: list[tuple[float, list]] = []

        self._setup_coverage()
        self._setup_protocol()
        self._setup_sessions()
        self._setup_modes()
        self._loop()
        self.report = self._build_report()

    # -- setup -----------------------------------------------------------

    def _setup_coverage(self):
        """Index which sample points each sensor covers, and count per point
        the sensors covering it; a death subtracts its points.

        A covered point lies within r of a sensor in x and in y up to
        rounding, so within ``pad`` of it in each (the 1e-9 margin of
        ``pad`` exceeds the rounding of x +- pad unless r is below about
        1e-6 of x).  The points are cut into horizontal bands, as many as
        fit at least two pads tall (one on a field under four pads tall), up
        to COVER_BANDS, and sorted by band, then by x within the band.  The
        band of a y is monotone in y, so a sensor's covered points lie in
        the bands from that of its y - pad to that of its y + pad, and in
        each such band within its window, the points within ``pad`` of its
        x.  Per band, the sensors that meet it are taken in x order, in
        chunks whose span of windows times their count stays within
        COVER_PLACES (one sensor at least), and each chunk is tested against
        that one span.  A point outside a sensor's own window fails its
        test, so the covered sets are those of a test window by window.
        Each sensor keeps its window ``(lo, hi)`` and its row of the test
        there, one per band it meets; counts are kept in the points' order.
        """
        rng = np.random.default_rng([abs(self.seed), 0x5EED])
        pts = rng.random((COVERAGE_SAMPLES, 2))
        pts[:, 0] *= self.config.area_width
        pts[:, 1] *= self.config.area_height
        r = self.config.sensing_range
        r2 = r**2
        pad = r * (1 + 1e-9)
        bands = max(1, min(COVER_BANDS, int(self.config.area_height // (2 * pad))))
        height = self.config.area_height / bands

        def band(y: np.ndarray) -> np.ndarray:
            return np.clip(np.floor(y / height), 0, bands - 1).astype(np.intp)

        # the counts do not depend on how points of equal x are ordered
        by = np.argsort(pts[:, 0])
        by = by[np.argsort(band(pts[by, 1]), kind="stable")]
        xs = pts[by, 0]
        ys = pts[by, 1]
        bounds = np.searchsorted(band(ys), np.arange(bands + 1)).tolist()
        sx = np.array([self.nodes[v].x for v in self.sensors])
        sy = np.array([self.nodes[v].y for v in self.sensors])
        order = np.argsort(sx, kind="stable")
        sx, sy = sx[order], sy[order]
        sensors = [self.sensors[k] for k in order.tolist()]
        low, high = band(sy - pad), band(sy + pad)
        self._covers: dict[NodeId, list[tuple[int, int, np.ndarray]]] = {v: [] for v in sensors}
        self._cover_count = np.zeros(COVERAGE_SAMPLES, dtype=np.int32)
        for b, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            meet = np.flatnonzero((low <= b) & (b <= high))
            mx, my = sx[meet], sy[meet]
            names = list(map(sensors.__getitem__, meet.tolist()))
            # both ascend, since the sensors do
            lo = (np.searchsorted(xs[start:stop], mx - pad) + start).tolist()
            hi = (np.searchsorted(xs[start:stop], mx + pad, "right") + start).tolist()
            i, n = 0, len(names)
            while i < n:
                j = i + 1
                while j < n and (j + 1 - i) * (hi[j] - lo[i]) <= COVER_PLACES:
                    j += 1
                a, z = lo[i], hi[j - 1]
                dx = xs[a:z] - mx[i:j, None]
                dy = ys[a:z] - my[i:j, None]
                dx *= dx
                dy *= dy
                dx += dy
                covered = dx <= r2
                del dx, dy
                self._cover_count[a:z] += covered.sum(axis=0, dtype=np.int32)
                for v, row, l, h in zip(names[i:j], covered, lo[i:j], hi[i:j]):
                    self._covers[v].append((l, h, row[l - a : h - a]))
                i = j

    def _setup_protocol(self):
        sink_nb = neighborhoods(self.g, self.sink).all_nodes
        self.init_active = frozenset(v for v in sink_nb if v != self.sink)
        self.tables = None
        self.flood_stats: FloodStats | None = None
        self.flood_trace_rows: list = []
        self.d_char: float | None = None
        self._flood_charges: list[tuple[NodeId, float, float]] = []

        if self.config.protocol == "mte":
            self.tables = build_mte_table(self.g, self.sink, self.alpha)
        elif self.config.protocol == "or":
            self.tables = _or_priced_graph(
                self.g, self.nodes, self.sink, self.params, self.alpha, self.bits
            )
        elif self.config.protocol == "res":
            trace: list | None = [] if self.config.flood_trace else None
            result = run_flood(self.g, self.deployment.seeds, trace=trace)
            self.flood_trace_rows = trace or []
            naive = naive_flood_count(self.g, self.deployment.seeds)
            self.flood_stats = FloodStats(
                tx=result.totals.tx,
                rx=result.totals.rx,
                discard=result.totals.discard,
                naive=naive,
                savings=message_savings(result.totals, naive),
                rounds=result.rounds,
                unreached=len(result.unreached),
            )
            cells = cells_from_flood(self.g, self.deployment.seeds, result.states)
            dual = build_boundary_dual_graph(self.g, cells)
            self.tables = build_res_tables(cells, dual, self.sink)
            top = self.params.level_count - 1
            tx1 = tx_energy(self.bits, top, self.params)
            rx1 = rx_energy(self.bits, self.params)
            self._flood_charges = [
                (v, result.states[v].tx_count * tx1, result.states[v].rx_count * rx1)
                for v in self.sensors
            ]
        elif self.config.protocol == "merr":
            self.d_char = characteristic_distance(
                self.params, self.config.radio_range, self.alpha
            )

    def _setup_sessions(self):
        rng = random.Random(f"{self.seed}:sources")
        pool = list(self.sensors)
        count = min(self.config.sessions, len(pool))
        sources = rng.sample(pool, count) if count else []
        self.records: list[SessionRecord] = []
        senders = []
        for idx, src in enumerate(sources):
            try:
                r = route(
                    self.config.protocol,
                    self.g,
                    self.nodes,
                    src,
                    self.sink,
                    self.params,
                    alpha=self.alpha,
                    tables=self.tables,
                    bits=self.bits,
                )
            except RouteNotFound:
                self.records.append(SessionRecord(
                    idx, src, self.sink, self.config.protocol, "no_route", 0, 0.0
                ))
                continue
            charges = per_packet_charges(r, self.params, self.bits)
            for charge in charges:
                self.ledger.check_charge(*charge)
            rec = SessionRecord(
                idx,
                src,
                self.sink,
                self.config.protocol,
                "ok",
                r.hops,
                packet_energy(r, self.params, self.bits),
                vertices=r.vertices,
            )
            self.records.append(rec)
            senders.append((rec, charges))
        # (record, (node, ledger slot, joules) per charge of a packet), in the
        # source-id order in which a tick sends
        self._senders = sorted(senders, key=lambda s: s[0].source)

        if self.config.protocol == "res":
            duty = {v for rec, _ in senders for v in rec.vertices}
            self.duty = frozenset(duty - {self.sink})
        else:
            self.duty = frozenset(self.sensors)

    def _setup_modes(self):
        for v in self.sensors:
            self.mode[v] = SENSE if v in self.init_active else SLEEP
            self.mode_since[v] = 0.0
            self._impulse(v, self.mode[v], 0.0)
        self._report()

    def _timeline(self) -> tuple[list[float], list[tuple[float, int]]]:
        """Every event but the deaths: the tick times, and the init and report
        events as sorted (time, kind) pairs."""
        t = t_init = self.config.init_phase_s
        # t_init always sends (it lies inside the run); each later instant adds
        # 1 / rate to the previous one, which gives other floats than
        # t_init + k / rate
        step = 1.0 / self.config.packet_rate_hz
        ticks = []
        while True:
            ticks.append(t)
            t += step
            if not t < self.duration - 1e-9:
                break
        interval = self.config.report_interval_s
        events = [(t_init, INIT)]
        k = 1
        while k * interval < self.duration - 1e-9:
            events.append((k * interval, REPORT))
            k += 1
        events.append((self.duration, REPORT))
        return ticks, sorted(events)

    # -- accounting ------------------------------------------------------
    # Callers pass live nodes only.

    def _accrue_to(self, v: NodeId, t: float):
        dur = t - self.mode_since[v]
        if dur > 0:
            self.ledger.accrue(v, self.mode[v], dur, self.params)
            self.mode_since[v] = t

    def _set_mode(self, v: NodeId, m: int):
        if v not in self.alive:
            return
        self._accrue_to(v, self.now)
        if self.mode[v] != m:
            self.mode[v] = m
            self._impulse(v, m, 0.0)

    def _impulse(self, v: NodeId, slot: int, joules: float):
        """Settle a live node: accrue its drain, bill the charge (zero for a
        due death, a mode switch or t = 0), then kill it or project its drain
        death."""
        now = self.now
        self._accrue_to(v, now)
        self.ledger.charge(v, slot, joules)
        remaining = self.ledger.remaining(v)
        if remaining <= DEATH_EPSILON_J:
            self.alive.discard(v)
            self._due.pop(v, None)
            self.deaths.append((now, v))
            for lo, hi, covered in self._covers[v]:
                self._cover_count[lo:hi] -= covered
            return
        # remaining > DEATH_EPSILON_J, so t >= now
        t = now + remaining / self.params.drain_w[self.mode[v]]
        if t <= self.duration:
            due = self._due.get(v)
            if due is None or t < due - 1.0:
                self._due[v] = t

    # -- event handlers ----------------------------------------------------

    def _loop(self):
        # Every tick and every due time falls at or before the last report,
        # at the run's end, so both are spent once the events are.
        ticks, events = self._timeline()
        due = self._due
        i = 0
        for t, kind in events:
            # the ticks before this event: init < tick < report at one time
            end = (bisect_left if kind == INIT else bisect_right)(ticks, t, i)
            while i < end:
                stop = bisect_left(ticks, self._settle_due(ticks[i]), i, end)
                i += self._bulk_ticks(ticks[i:stop])
                if i < end and ticks[i] < min(due.values(), default=math.inf):
                    # the tick in which a node dies
                    self.now = ticks[i]
                    self._handle_tick()
                    i += 1
            self._settle_due(t)
            self.now = t
            if kind == INIT:
                self._handle_init()
            else:
                self._report()

    def _settle_due(self, t: float) -> float:
        """Settle every due time at or before t: smallest time first, then
        smallest node id.  Returns the smallest due time left (inf if none)."""
        due = self._due
        while (td := min(due.values(), default=math.inf)) <= t:
            v = min(u for u, tu in due.items() if tu == td)
            del due[v]
            self.now = td
            self._impulse(v, self.mode[v], 0.0)
        return td

    def _handle_init(self):
        # region flood setup messages are paid at the end of the init phase
        alive = self.alive
        for u, txj, rxj in self._flood_charges:
            if u not in alive:
                continue
            if txj:
                self._impulse(u, TX, txj)
            if rxj and u in alive:
                self._impulse(u, RX, rxj)
        for v in self.sensors:
            self._set_mode(v, SENSE if v in self.duty else SLEEP)

    def _handle_tick(self):
        alive = self.alive
        impulse = self._impulse
        for rec, charges in self._senders:
            rec.generated += 1
            for v, slot, joules in charges:
                if v not in alive:
                    break  # dropped; a dead receiver wastes the transmission to it
                impulse(v, slot, joules)
                rec.energy_j += joules
            else:
                rec.delivered += 1

    def _charge_plan(self) -> tuple[dict, list]:
        """What each tick charges while the alive set stays as it is.

        Returns ``(groups, sessions)``.  ``groups`` maps c to the charged
        nodes that take c charges a tick, each as ``(v, slots, joules)``: the
        ledger slot and the joules of each of its charges, in sender order.
        Every charged node senses: it lies on a route, so it is in ``duty``,
        and INIT, which comes before every tick and is the last mode switch,
        set it to SENSE.  Per sender, ``sessions`` holds ``(record, joules
        of its charges up to the first dead node, whether that is all of
        them)``.
        """
        alive = self.alive
        charged: dict[NodeId, list[tuple[int, float]]] = {}
        sessions = []
        for rec, charges in self._senders:
            prefix = []
            for v, slot, joules in charges:
                if v not in alive:
                    break
                charged.setdefault(v, []).append((slot, joules))
                prefix.append(joules)
            sessions.append((rec, np.array(prefix), len(prefix) == len(charges)))
        groups: dict[int, list] = {}
        for v, node_charges in charged.items():
            slots, joules = zip(*node_charges)
            groups.setdefault(len(slots), []).append((v, slots, joules))
        return groups, sessions

    def _bulk_ticks(self, ticks: list[float]) -> int:
        """Apply the leading ticks of ``ticks`` at once; returns how many.

        The ticks hold no other event and fall before every due time, so
        until a node dies every tick charges the same cells with the same
        joules.  This replays ``_impulse`` on them in the scalar order, over
        blocks of the nodes that take the same number of charges a tick, all
        sensing.  It stops before the first tick in which a balance reaches
        DEATH_EPSILON_J, which the loop replays through ``_handle_tick``.

        Each charged balance falls linearly, so ``_ticks_before_death``
        estimates that stop K for every group before any block runs, and the
        estimate is the limit offered to the blocks.  Each block
        (``_bulk_block``) runs over the limit it is offered in one pass: it
        accumulates its cells and tests every balance at each tick's end.  A
        block that finds a dead tick keeps nothing and lowers the limit to
        its first one, and once the pass is over every block runs again at
        the lowered limit.  Otherwise it keeps its cells' values after tick
        K and each row's last due-time write before the end of tick K.  An
        early estimate ends the epoch early; the loop replays the next tick
        through ``_handle_tick``, in which no node dies.

        Why the bits hold.  A prefix of ``np.add.accumulate`` (and of
        ``np.maximum.accumulate``) equals the accumulate of that prefix, and
        everything else is elementwise.  A row whose first dead tick lies
        below the limit it is tested at lowers the limit to it, and any
        other row's lies at or past that limit, so a pass ends at the
        estimate or the earliest first dead tick of all rows, whichever is
        lower, whatever order the blocks run in and however the rows are
        split into blocks.  A second pass at that K finds no dead tick, so K
        is confirmed.  Every block kept computed exactly K ticks, a prefix of
        what it would compute over the whole run of ticks, so it holds the
        values the scalar path computes, and the last write of a row's chain
        over those ticks is the scalar due time.  ``_due`` may take its
        entries in another insertion order than tick by tick, which is
        harmless: ``_settle_due`` reads only minima.
        """
        groups, sessions = self._charge_plan()
        T = np.array(ticks)
        K = len(ticks)
        rows, mode_since, due = self.rows, self.mode_since, self._due
        w = self.params.drain_w[SENSE]
        plans = []
        for c, members in groups.items():
            start = np.array([rows[v] for v, _, _ in members])
            # the drain at each node's first charge, w * (t - mode_since)
            first_drain = w * (T[0] - np.array([mode_since[v] for v, _, _ in members]))
            slots = np.array([s for _, s, _ in members])
            joules = np.array([j for _, _, j in members])
            balance = self.budget - start.sum(axis=1) - first_drain
            K = min(K, _ticks_before_death(
                balance, joules.sum(axis=1), w / self.config.packet_rate_hz, K))
            plans.append((c, members, start, first_drain, slots, joules))
        wdT = w * np.diff(T)
        # a block that lowers K keeps nothing, and then every block runs
        # again at the lowered K, which none can lower
        offered = None
        while K != offered:
            offered, kept = K, []
            for c, members, *arrays in plans:
                # split rows, never ticks: each block's arrays hold about
                # BLOCK_PLACES floats, or one row if that is longer
                i = 0
                while i < len(members) and K:
                    size = max(1, BLOCK_PLACES // (K * c + 1))
                    block = members[i : i + size]
                    K, ends, dues = self._bulk_block(
                        block, c, *(a[i : i + size] for a in arrays), T, wdT, K)
                    kept.append((block, ends, dues))
                    i += size
        if not K:
            return 0
        last = ticks[K - 1]
        for block, ends, dues in kept:
            for slot, end in ends.items():
                for (v, _, _), x in zip(block, end):
                    rows[v][slot] = x
            for v, _, _ in block:
                mode_since[v] = last
            due.update(dues)
        for rec, joules, delivered in sessions:
            rec.generated += K
            if len(joules):
                rec.energy_j = float(_tiled_sums(rec.energy_j, joules, K)[-1])
            if delivered:
                rec.delivered += K
        return K

    def _bulk_block(self, block: list, c: int, start: np.ndarray,
                    first_drain: np.ndarray, slots: np.ndarray, joules: np.ndarray,
                    T: np.ndarray, wdT: np.ndarray, K: int) -> tuple[int, dict, list]:
        """One block of ``_bulk_ticks``: the nodes of ``block``, each sensing
        and taking c charges a tick, over the first K ticks of T; ``start``
        holds their ledger rows, ``first_drain`` the drain at their first
        charge, ``slots`` and ``joules`` their charges, and ``wdT`` the sense
        drain between consecutive ticks.

        Returns ``(limit, ends, dues)``.  If a balance of the block reaches
        DEATH_EPSILON_J in one of the K ticks, the limit is the first such
        tick and the rest is empty: nothing computed past it is kept.
        Otherwise the limit is K, ``ends`` maps each cell the block touches
        to its values at the end of tick K, in block order, and ``dues``
        holds ``(v, due time)`` for each row whose last due-time write falls
        in those K ticks.
        """
        r = len(block)
        w = self.params.drain_w[SENSE]
        # each cell after every charge as (rows, ticks, charges), broadcast
        # where it holds one value per row or per tick
        cells = [start[:, s, None, None] for s in range(len(LEDGER_MODES))]
        ends = {}
        for s in np.unique(slots).tolist():
            # the cell, then each charge in sender order: its joules, or 0.0
            # where it goes to the other slot, which changes no bit
            acc = np.empty((r, K * c + 1))
            acc[:, 0] = start[:, s]
            acc[:, 1:].reshape(r, K, c)[:] = np.where(slots == s, joules, 0.0)[:, None]
            np.add.accumulate(acc, axis=1, out=acc)
            cells[s] = acc[:, 1:].reshape(r, K, c)
            ends[s] = acc[:, ::c]
        # the drain at each tick's first charge: first_drain, then
        # w * (t_i - t_{i-1}); a 0.0 changes no bit
        drain = np.empty((r, K + 1))
        drain[:, 0] = start[:, SENSE]
        drain[:, 1] = first_drain
        drain[:, 2:] = wdT[: K - 1]
        np.add.accumulate(drain, axis=1, out=drain)
        cells[SENSE] = drain[:, 1:, None]
        ends[SENSE] = drain

        # each balance at the end of each tick, after the tick's last charge,
        # which leaves its lowest, as balances only fall
        at_end = [ends[s][:, 1:] if s in ends else x[:, 0] for s, x in enumerate(cells)]
        ticks_end = self.budget - spent(*at_end)
        dead = ticks_end <= DEATH_EPSILON_J
        hit = dead.any(axis=1)
        if hit.any():
            return int(dead.argmax(axis=1)[hit].min()), {}, []
        thresholds = np.array([self._due.get(v, math.inf) for v, _, _ in block]) - 1.0
        # No projection of a row lies below T[0] plus its balance at the end
        # of tick K over w, as T ascends, balances fall and rounding is
        # monotone: a row whose floor is not below its threshold, or lies
        # past the duration, writes nothing.
        floor = T[0] + ticks_end[:, -1] / w
        writers = np.flatnonzero((floor < thresholds) & (floor <= self.duration))
        n = len(writers)
        dues = []
        if n:
            # each projection is _impulse's, T + balance / w, negated, in its
            # operation order, computed in one buffer in place: the sum
            # follows spent's order, and rounding to nearest is symmetric in
            # sign, so each value is the projection's exact negation.  A
            # gather copies, so the rows are gathered only if some do not
            # project.
            sel = slice(None) if n == r else writers
            neg = cells[TX][sel] + cells[RX][sel]
            neg += cells[SENSE][sel]
            neg += cells[SLEEP][sel]
            neg -= self.budget
            neg /= w
            neg -= T[:K, None]
            neg[neg < -self.duration] = -math.inf
            # The first projection below a threshold is where their running
            # minimum first falls below it, and that minimum never rises.  A
            # write is such a place, so it equals the minimum there.
            neg = neg.reshape(n, K * c)
            np.maximum.accumulate(neg, axis=1, out=neg)
            bars = -thresholds[writers]
            # No write stops the epoch: a due time written at or before the
            # next tick means the drain alone empties that battery by that
            # tick, so the dead test stops the epoch there first.
            for k in np.flatnonzero(neg[:, -1] > bars).tolist():
                at = _last_due_write(neg[k], bars[k])
                dues.append((block[int(writers[k])][0], -float(neg[k, at])))
        return K, {s: end[:, -1].tolist() for s, end in ends.items()}, dues

    def _report(self):
        """Accrue the alive nodes, then snapshot the ledger and sum its row."""
        now = self.now
        for v in self.alive:
            self._accrue_to(v, now)
        snapshot = self.ledger.snapshot()
        self.ledger_snapshots.append((now, snapshot))
        tx = rx = sense = sleep = total = 0.0
        for _, txj, rxj, sensej, sleepj, _ in snapshot:
            tx += txj
            rx += rxj
            sense += sensej
            sleep += sleepj
            total += spent(txj, rxj, sensej, sleepj)
        generated = sum(rec.generated for rec in self.records)
        delivered = sum(rec.delivered for rec in self.records)
        self.intervals.append(IntervalRow(
            t_s=now,
            coverage_pct=self._coverage_pct(),
            alive=len(self.alive),
            generated=generated,
            delivered=delivered,
            delivery_ratio=delivered / generated if generated else 0.0,
            tx_j=tx,
            rx_j=rx,
            sense_j=sense,
            sleep_j=sleep,
            total_j=total,
        ))

    # -- metrics ---------------------------------------------------------

    def _coverage_pct(self) -> float:
        covered = int(np.count_nonzero(self._cover_count))
        return 100.0 * (covered / COVERAGE_SAMPLES)

    def _build_report(self) -> RunReport:
        # the last row is the report at duration, after which nothing runs
        last = self.intervals[-1]
        by_mode = dict(zip(LEDGER_MODES, (last.tx_j, last.rx_j, last.sense_j, last.sleep_j)))
        lifetime = self.deaths[0][0] if self.deaths else self.duration
        established = len(self._senders)
        return RunReport(
            protocol=self.config.protocol,
            seed=self.seed,
            config=scenario_to_dict(self.config),
            intervals=self.intervals,
            sessions=self.records,
            flood=self.flood_stats,
            flood_trace_rows=self.flood_trace_rows,
            totals_by_mode=by_mode,
            total_energy_j=last.total_j,
            lifetime_s=lifetime,
            deaths=self.deaths,
            generated=last.generated,
            delivered=last.delivered,
            delivery_ratio=last.delivery_ratio,
            ledger_snapshots=self.ledger_snapshots,
            d_char_m=self.d_char,
            sessions_requested=self.config.sessions,
            sessions_established=established,
        )


def run(config: ScenarioConfig, seed: int | None = None) -> RunReport:
    """Execute one deterministic run of the configured scenario.

    A failure other than a ``ScenarioError`` names the seed: a
    ``RoutingError`` keeps its class, anything else becomes a
    ``SimulationError``.
    """
    s = config.seed if seed is None else seed
    try:
        return _Run(config, s).report
    except ScenarioError:
        raise
    except RoutingError as exc:
        # keeps its class, so the CLI still reports it as a routing error
        raise type(exc)(f"run aborted (seed={s}): {exc}") from exc
    except Exception as exc:
        raise SimulationError(f"run aborted (seed={s}): {exc}") from exc


def run_batch(config: ScenarioConfig) -> BatchReport:
    """Run the scenario at consecutive seeds and aggregate mean/std metrics."""
    seeds = tuple(config.seed + i for i in range(config.run_count))
    reports = [run(config, s) for s in seeds]
    metrics: dict[str, tuple[float, float]] = {}

    def stat(name, values):
        arr = np.asarray(values, dtype=float)
        metrics[name] = (float(arr.mean()), float(arr.std()))

    stat("total_energy_j", [r.total_energy_j for r in reports])
    for m in LEDGER_MODES:
        stat(f"{m}_j", [r.totals_by_mode[m] for r in reports])
    stat("generated", [r.generated for r in reports])
    stat("delivered", [r.delivered for r in reports])
    stat("delivery_ratio", [r.delivery_ratio for r in reports])
    stat("lifetime_s", [r.lifetime_s for r in reports])
    stat("deaths", [len(r.deaths) for r in reports])
    stat("sessions_established", [r.sessions_established for r in reports])
    stat("coverage_initial_pct", [r.intervals[0].coverage_pct for r in reports])
    stat("coverage_final_pct", [r.intervals[-1].coverage_pct for r in reports])
    stat("coverage_min_pct", [min(i.coverage_pct for i in r.intervals) for r in reports])
    if all(r.flood is not None for r in reports):
        stat("flood_tx", [r.flood.tx for r in reports])
        stat("flood_savings", [r.flood.savings for r in reports])
    return BatchReport(
        protocol=config.protocol,
        base_seed=config.seed,
        seeds=seeds,
        config=scenario_to_dict(config),
        runs=reports,
        metrics=metrics,
    )


def coverage_series(report: RunReport) -> list[tuple[float, float]]:
    """Per-interval (time, coverage %) series of a run."""
    return [(row.t_s, row.coverage_pct) for row in report.intervals]


# -- output files --------------------------------------------------------


def _write_table(path: Path, header: str, lines) -> Path:
    """Write the header, then each line, with csv's CRLF endings; ids and
    fixed-point numbers need no quoting.  Returns ``path``."""
    with open(path, "w", newline="") as f:
        f.write("\r\n".join([header, *lines, ""]))
    return path


def _report_text(report: RunReport) -> str:
    lines = [
        "run summary",
        f"protocol: {report.protocol}",
        f"seed: {report.seed}",
        f"sensors: {report.config['node_count']}",
        f"sessions: {report.sessions_requested} requested, "
        f"{report.sessions_established} established",
        f"packets: {report.generated} generated, {report.delivered} delivered "
        f"(delivery ratio {report.delivery_ratio:.4f})",
        "energy_j: "
        + " ".join(f"{m}={report.totals_by_mode[m]:.9f}" for m in LEDGER_MODES)
        + f" total={report.total_energy_j:.9f}",
        f"lifetime_s: {report.lifetime_s:.3f}",
        f"deaths: {len(report.deaths)}",
    ]
    cov = [row.coverage_pct for row in report.intervals]
    lines.append(
        f"coverage_pct: initial={cov[0]:.4f} min={min(cov):.4f} final={cov[-1]:.4f}"
    )
    if report.flood is not None:
        f = report.flood
        lines.append(
            f"flood: tx={f.tx} rx={f.rx} discard={f.discard} naive={f.naive} "
            f"suppressed={100.0 * f.savings:.2f}% rounds={f.rounds} unreached={f.unreached}"
        )
    if report.d_char_m is not None:
        lines.append(f"merr_characteristic_distance_m: {report.d_char_m:.6f}")
    lines.append("config:")
    for k, v in report.config.items():
        lines.append(f"  {k} = {v}")
    return "\n".join(lines) + "\n"


def emit_outputs(report: "RunReport | BatchReport", out_dir: str | Path) -> list[Path]:
    """Write the report's CSV and text files; returns the paths written.

    Every CSV goes through one line writer, each row in one %-format.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if isinstance(report, BatchReport):
        written.append(_write_table(out / "batch_summary.csv", "metric,mean,std", (
            "%s,%.9f,%.9f" % (name, mean, std)
            for name, (mean, std) in sorted(report.metrics.items())
        )))
        for r in report.runs:
            written.extend(emit_outputs(r, out / f"run_{r.seed}"))
        return written

    written.append(_write_table(
        out / "summary.csv",
        "t_s,coverage_pct,alive,generated,delivered,"
        "delivery_ratio,tx_j,rx_j,sense_j,sleep_j,total_j",
        (
            "%.3f,%.4f,%s,%s,%s,%.6f,%.9f,%.9f,%.9f,%.9f,%.9f" % (
                row.t_s, row.coverage_pct, row.alive, row.generated, row.delivered,
                row.delivery_ratio, row.tx_j, row.rx_j, row.sense_j, row.sleep_j,
                row.total_j)
            for row in report.intervals
        ),
    ))
    written.append(_write_table(
        out / "sessions.csv",
        "session_id,source,sink,protocol,status,hops,"
        "packet_energy_j,generated,delivered,energy_j",
        (
            "%s,%s,%s,%s,%s,%s,%.9f,%s,%s,%.9f" % (
                s.session_id, s.source, s.sink, s.protocol, s.status, s.hops,
                s.packet_energy_j, s.generated, s.delivered, s.energy_j)
            for s in report.sessions
        ),
    ))
    # the time is formatted once per snapshot, not once per row
    written.append(_write_table(
        out / "energy.csv",
        "t_s,node_id,tx_j,rx_j,sense_j,sleep_j,remaining_j",
        (
            when + "%s,%.9f,%.9f,%.9f,%.9f,%.9f" % row
            for when, snapshot in (("%.3f," % t, rows) for t, rows in report.ledger_snapshots)
            for row in snapshot
        ),
    ))
    if report.flood_trace_rows:
        written.append(_write_table(
            out / "flood_trace.csv",
            "round,sender,receiver,region,hop,action",
            ("%s,%s,%s,%s,%s,%s" % r for r in report.flood_trace_rows),
        ))

    path = out / "report.txt"
    path.write_text(_report_text(report))
    written.append(path)
    return written
