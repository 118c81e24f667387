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
that stop from every node's balance and its spend per tick.  It works on
groups of nodes that take the same number of charges per tick.  A group in
which, by a cheap bound, no balance reaches DEATH_EPSILON_J and no node can
write a due time by the stop takes the closed form: each ledger cell and
each session's energy is summed over the ticks per binade of its running
sum, where every tick adds the same exact multiple of the binade's spacing
(see _repeated_sums), and the balances after the last tick are checked.
Cells never fall, so that balance is each node's lowest: one test there
stands for the dead test of every tick, and the writer test reads only it.
A group that fails the check, or the bound, takes the per-charge path, on
blocks of its nodes, in one pass per block over the estimated stop, or two
if a block lowers it, on 2-D numpy arrays of at most BLOCK_PLACES floats
unless a single node needs more.  The pass accumulates each cell the block
touches after every charge and reads each balance at every tick's end.  A
block in which a balance reaches DEATH_EPSILON_J before the stop keeps
nothing and lowers the stop to the tick before; once every group has run,
they all run again at the lowered stop, which no block can lower again, as
it is the earliest dead tick over all nodes.  So the stop is confirmed
before anything is kept, which settles a late estimate exactly.  A block at
a confirmed stop keeps only each cell's value there, and if some node's
floor, the first tick's time plus its balance at the stop over its drain
rate, lies below its due time less 1 s and within the duration, the last
due time the 1 s rule writes for such a node: it replays their per-charge
projections of the drain death, negated, and walks the writes from the
first one on; no other node can write one in the epoch.  Each array of a
kept block is a prefix of the one it would compute over the whole run of
ticks, so every value it keeps is the scalar one.  The tick in which a node
dies is replayed through the scalar _handle_tick, as are init, due settles,
t = 0 and the tick after an epoch that an early estimate ended.

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
  * Ledger layout.  deploy numbers the sensors 0..n-1, so a sensor's id is
    its index.  EnergyLedger.rows is one (n, 4) float64 array, row v holding
    sensor v's spends [tx, rx, sense, sleep], indexed by the slots the
    charges carry; each sensor's mode, mode start, liveness and due time
    (inf for none) are arrays of n too.  The scalar settle reads and writes
    them one sensor at a time through memoryviews of the same buffers, and
    the ledger's own methods bill it.  The t = 0 settle, init and the
    reports replay that arithmetic on arrays of sensors, and the epoch step
    on blocks of rows, each with the same drain watts, the same operations
    in the same order and the same energy.spent, so all give the same bits.
    A report sums its interval row over the rows in sensor order, one add
    at a time, and its packet counts from the session records; every value
    that reaches a report is a Python int or float.
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
# _repeated_sums adds the first ticks one charge at a time, at least
# SEQUENTIAL_TICKS and as many as fit in SEQUENTIAL_PLACES floats; of budgets
# 2^12 to 2^16 places, 2^12 to 2^14 were the fastest on the benchmark's
# session sums and larger ones slower
SEQUENTIAL_TICKS = 32
SEQUENTIAL_PLACES = 1 << 12


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


def _accumulated(start: np.ndarray, adds: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``start``, then its running sum after each add of its row
    of ``adds`` repeated k times, added one at a time as a Python ``+=``
    loop would: an array of (rows, k * len(row) + 1)."""
    r, c = adds.shape
    acc = np.empty((r, k * c + 1))
    acc[:, 0] = start
    acc[:, 1:].reshape(r, k, c)[:] = adds[:, None, :]
    return np.add.accumulate(acc, axis=1, out=acc)


def _repeated_sums(start: np.ndarray, adds: np.ndarray, K: int) -> np.ndarray:
    """The last column of ``_accumulated(start, adds, K)``, for starts and
    adds >= 0 and finite sums, in closed form while a sum stays in one
    binade.

    A sum x in [2^(e-1), 2^e) is a multiple of u = 2^(e-53), its spacing
    there (2^-1074 below the normal range).  An add a whose a/u is not a
    half-integer lands on x + u * rint(a/u) as long as that lies below 2^e.
    So while a row's sum stays in its binade and none of its adds ties,
    every tick adds the same S * u, S the sum of the rint(a/u) of its adds,
    and n ticks add n * S * u exactly: n * S is an integer below 2^53, and
    x + n * S * u a multiple of u below 2^e.  Each round, a row jumps over
    the ticks that stay in its binade and takes the tick that leaves it add
    by add.  A row with a tie takes its binade's ticks add by add in one
    accumulate, as many as it takes to leave the binade if every add lands
    on its floor(a/u) spacings, all that are left if those sum to 0.  The
    first ticks go add by add too, at least SEQUENTIAL_TICKS and as many as
    fit in SEQUENTIAL_PLACES floats, and all of them if those are a quarter
    of the run or more: they hold the zero starts and the narrow binades
    near them, and a round costs about as many numpy calls as a few
    thousand adds.  A row takes one round per binade it crosses, never one
    per tick.
    """
    p = max(SEQUENTIAL_TICKS, SEQUENTIAL_PLACES // max(1, adds.size))
    p = K if K <= 4 * p else p
    x = _accumulated(start, adds, p)[:, -1]
    left = np.full(len(x), float(K - p))
    active = left.nonzero()[0]
    while len(active):
        sums, a, n = x[active], adds[active], left[active]
        u = np.ldexp(1.0, np.maximum(np.frexp(sums)[1] - 53, -1074))
        q = a / u[:, None]
        whole = np.rint(q)
        tie = (np.abs(q - whole) == 0.5).any(axis=1)
        # the spacings a tick adds, at least that if an add ties, and the
        # ticks that stay in the binade at that (its floats are the multiples
        # of u below 2^53 u), all if it is 0; these counts are integers below
        # 2^53, so exact as floats
        steps = np.where(tie[:, None], np.floor(q), whole).sum(axis=1)
        stay = np.where(steps > 0, (2.0**53 - 1 - sums / u) // np.maximum(steps, 1), n)
        jump = np.where(tie, 0.0, np.minimum(stay, n))
        sums += jump * steps * u
        n -= jump
        # then the tick that leaves the binade add by add, or with a tie
        # every tick until it has left
        by_add = np.minimum(n, np.where(tie, stay + 1, 1.0))
        ones, more = (by_add == 1).nonzero()[0], (by_add > 1).nonzero()[0]
        if len(ones):
            sums[ones] = _accumulated(sums[ones], a[ones], 1)[:, -1]
        if len(more):
            k = by_add[more].astype(np.intp)
            acc = _accumulated(sums[more], a[more], int(k.max()))
            sums[more] = acc[np.arange(len(more)), k * a.shape[1]]
        n -= by_add
        x[active] = sums
        left[active] = n
        active = active[n > 0]
    return x


def _tick_times(start: float, step: float, end: float) -> np.ndarray:
    """``start``, then each sum of the last one and ``step`` while below
    ``end``, added one at a time as a Python ``+=`` loop would; ``start``
    even if it is not below ``end``."""
    count = max(2, int((end - start) / step) + 2)
    while True:
        acc = np.full(count, step)
        acc[0] = start
        np.add.accumulate(acc, out=acc)
        # the sums ascend, so those below end are a prefix
        k = 1 + int(np.searchsorted(acc[1:], end))
        if k < count:
            return acc[:k]
        count *= 2


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

    Per-sensor state is arrays indexed by sensor id: ``mode`` (int8, SENSE
    or SLEEP, kept after death), ``mode_since``, ``alive`` (with ``live``,
    its count) and ``due``, and the ledger's ``rows``.  ``_mode``,
    ``_since``, ``_alive`` and ``_due`` are memoryviews of the same buffers,
    for the scalar settle.  ``due[v]`` is live node v's projected drain
    death, its only record, ``inf`` for none and once v dies.  The loop
    settles the smallest due time, the smallest id among equal ones,
    through ``_impulse``.  The session records hold the only packet counts.

    The loop hands each run of ticks before the next other event and before
    the smallest due time to ``_bulk_ticks``, which applies the ticks of an
    epoch (see the module notes) and returns how many.  If it stopped at a
    tick in which a node dies, ``_handle_tick`` replays that tick; if a due
    time now falls at or before the next tick, the loop settles it first.
    ``_impulse`` stays the one settle rule: the bulk step reproduces its
    arithmetic on ticks where it neither kills a node nor settles a due time.

    ``_impulse`` settles through ``EnergyLedger.accrue``, ``charge`` and
    ``remaining``.  ``_settle`` and ``_accrue`` replay it on arrays of
    sensors for t = 0, init and the reports, and the epoch step
    (``_bulk_ticks`` and its ``_bulk_block``) on blocks of rows, each with
    the same arithmetic in the same order; init checks its flood charges
    with ``EnergyLedger.check_charges`` and setup the hop charges, each as
    ``charge`` would.  Reports read the ledger through ``snapshot`` and
    ``rows``.
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
        # deploy numbers the sensors 0..n-1 (the sink is n), so a sensor's id
        # is its index into the ledger rows and every per-sensor array
        self.ledger = EnergyLedger(self.sensors, config.battery_j)
        self.rows = self.ledger.rows
        self.budget = self.ledger.budget_j
        n = len(self.sensors)
        self.mode = np.full(n, SLEEP, dtype=np.int8)  # SENSE or SLEEP; kept after death
        self.mode_since = np.zeros(n)
        self.alive = np.ones(n, dtype=bool)
        self.live = n  # the count of True in alive
        self.due = np.full(n, math.inf)  # projected drain death; inf: none
        # the same buffers, read and written one node at a time
        self._mode, self._since, self._alive, self._due = map(
            memoryview, (self.mode, self.mode_since, self.alive, self.due))
        # drain watts by ledger slot, for SENSE and SLEEP
        self._drain = np.full(len(LEDGER_MODES), math.nan)
        for slot, watts in self.params.drain_w.items():
            self._drain[slot] = watts
        self.deaths: list[tuple[float, NodeId]] = []
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
        sensors = np.argsort(sx, kind="stable")  # ids, as ids are indices
        sx, sy = sx[sensors], sy[sensors]
        low, high = band(sy - pad), band(sy + pad)
        self._covers: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in self.sensors]
        self._cover_count = np.zeros(COVERAGE_SAMPLES, dtype=np.int32)
        for b, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            meet = np.flatnonzero((low <= b) & (b <= high))
            mx, my = sx[meet], sy[meet]
            names = sensors[meet].tolist()
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
        # the sensors that sense from t = 0 to init
        self.init_active = np.array(sorted(sink_nb - {self.sink}), dtype=np.intp)
        self.tables = None
        self.flood_stats: FloodStats | None = None
        self.flood_trace_rows: list = []
        self.d_char: float | None = None
        # (ledger slot, joules per sensor) of the flood charges init bills
        self._flood_charges: list[tuple[int, np.ndarray]] = []

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
            states = [result.states[v] for v in self.sensors]
            self._flood_charges = [
                (TX, np.array([st.tx_count for st in states], dtype=float) * tx1),
                (RX, np.array([st.rx_count for st in states], dtype=float) * rx1),
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
        # the same charges as arrays, concatenated in that order: node, slot,
        # joules, and per charge its sender's index and place among its charges
        sizes = np.array([len(charges) for _, charges in self._senders], dtype=np.intp)
        flat = [charge for _, charges in self._senders for charge in charges]
        node, slot, joules = zip(*flat) if flat else ((),) * 3
        sender = np.repeat(np.arange(len(sizes)), sizes)
        self._firsts = sizes.cumsum() - sizes
        self._charges = (np.asarray(node, dtype=np.intp), np.asarray(slot, dtype=np.intp),
                         np.asarray(joules, dtype=float), sender,
                         np.arange(len(flat)) - self._firsts[sender])
        self._plan = None  # the last _charge_plan

        # each sensor's mode after init: under res, SENSE on a route only
        self.duty = np.full(len(self.sensors), SENSE, dtype=np.int8)
        if self.config.protocol == "res":
            on_routes = {v for rec, _ in senders for v in rec.vertices} - {self.sink}
            self.duty[:] = SLEEP
            self.duty[list(on_routes)] = SENSE

    def _setup_modes(self):
        """Each sensor's first mode from t = 0, and the t = 0 settle."""
        self.mode[self.init_active] = SENSE
        for v in self._settle(np.arange(len(self.sensors))):
            self._kill(v)
        self._report()

    def _timeline(self) -> tuple[np.ndarray, list[tuple[float, int]]]:
        """Every event but the deaths: the tick times, and the init and report
        events as sorted (time, kind) pairs."""
        t_init = self.config.init_phase_s
        # t_init always sends (it lies inside the run); each later instant adds
        # 1 / rate to the previous one, which gives other floats than
        # t_init + k / rate
        ticks = _tick_times(t_init, 1.0 / self.config.packet_rate_hz, self.duration - 1e-9)
        interval = self.config.report_interval_s
        events = [(t_init, INIT)]
        k = 1
        while k * interval < self.duration - 1e-9:
            events.append((k * interval, REPORT))
            k += 1
        events.append((self.duration, REPORT))
        return ticks, sorted(events)

    # -- accounting ------------------------------------------------------
    # Callers pass live nodes only.  The scalar settle (_accrue_to, _impulse)
    # works one node at a time through the memoryviews; _accrue and _settle
    # replay it on an array of nodes, elementwise, in the same operation order.

    def _accrue_to(self, v: NodeId, t: float):
        since = self._since
        dur = t - since[v]
        if dur > 0:
            self.ledger.accrue(v, self._mode[v], dur, self.params)
            since[v] = t

    def _impulse(self, v: NodeId, slot: int, joules: float):
        """Settle a live node: accrue its drain, bill the charge (zero for a
        due death), then kill it or project its drain death."""
        now = self.now
        self._accrue_to(v, now)
        self.ledger.charge(v, slot, joules)
        remaining = self.ledger.remaining(v)
        if remaining <= DEATH_EPSILON_J:
            self._kill(v)
            return
        # remaining > DEATH_EPSILON_J, so t >= now
        t = now + remaining / self.params.drain_w[self._mode[v]]
        if t <= self.duration and t < self._due[v] - 1.0:
            self._due[v] = t

    def _kill(self, v: NodeId):
        """Record live node v's death at the current time."""
        self._alive[v] = False
        self._due[v] = math.inf
        self.live -= 1
        self.deaths.append((self.now, v))
        for lo, hi, covered in self._covers[v]:
            self._cover_count[lo:hi] -= covered

    def _accrue(self, nodes: np.ndarray):
        """``_accrue_to(v, now)`` for each node of ``nodes``."""
        now = self.now
        dur = now - self.mode_since[nodes]
        accrued = dur > 0
        nodes, dur = nodes[accrued], dur[accrued]
        modes = self.mode[nodes]
        self.rows[nodes, modes] += self._drain[modes] * dur
        self.mode_since[nodes] = now

    def _settle(self, nodes: np.ndarray, slot: int | None = None,
                joules: np.ndarray | None = None) -> list[NodeId]:
        """``_impulse`` on each node of ``nodes``, ascending live ids, with a
        charge of ``joules`` to ``slot`` each, or none, as a zero charge
        changes no bit.  Those at or below DEATH_EPSILON_J leave ``alive``
        and are returned, ascending, for the caller to ``_kill`` in its
        order; the others project their drain deaths by the 1 s rule."""
        now = self.now
        self._accrue(nodes)
        if slot is not None:
            self.rows[nodes, slot] += joules
        remaining = self.ledger.remaining_of(self.rows[nodes])
        dead = remaining <= DEATH_EPSILON_J
        died = nodes[dead]
        self.alive[died] = False
        nodes, remaining = nodes[~dead], remaining[~dead]
        t = now + remaining / self._drain[self.mode[nodes]]
        due = (t <= self.duration) & (t < self.due[nodes] - 1.0)
        self.due[nodes[due]] = t[due]
        return died.tolist()

    # -- event handlers ----------------------------------------------------

    def _loop(self):
        # Every tick and every due time falls at or before the last report,
        # at the run's end, so both are spent once the events are.
        times, events = self._timeline()
        ticks = times.tolist()
        due = self.due
        i = 0
        for t, kind in events:
            # the ticks before this event: init < tick < report at one time
            end = (bisect_left if kind == INIT else bisect_right)(ticks, t, i)
            while i < end:
                stop = bisect_left(ticks, self._settle_due(ticks[i]), i, end)
                i += self._bulk_ticks(times[i:stop])
                if i < end and ticks[i] < due.min():
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
        smallest node id, the first minimum ``argmin`` finds.  Returns the
        smallest due time left (inf if none)."""
        due, at = self.due, self._due
        while (td := at[v := int(due.argmin())]) <= t:
            at[v] = math.inf
            self.now = td
            self._impulse(v, self._mode[v], 0.0)
        return td

    def _handle_init(self):
        """Replay init's scalar loops on arrays: every live sensor accrues,
        then takes its region flood charges at TX and at RX (a charge of 0.0
        is none), then switches to its duty mode.  Each step settles as
        ``_impulse`` does, and a node that dies in one takes no later step.
        The deaths go in the scalar order: those of the flood charges by
        id, then those of the switch by id."""
        # region flood setup messages are paid at the end of the init phase
        self._accrue(np.flatnonzero(self.alive))
        dead = []
        for slot, joules in self._flood_charges:
            nodes = np.flatnonzero(self.alive & (joules != 0))
            self.ledger.check_charges(nodes, slot, joules[nodes])
            dead += self._settle(nodes, slot, joules[nodes])
        switch = np.flatnonzero(self.alive & (self.mode != self.duty))
        self.mode[switch] = self.duty[switch]
        for v in [*sorted(dead), *self._settle(switch)]:
            self._kill(v)

    def _handle_tick(self):
        alive = self._alive
        impulse = self._impulse
        for rec, charges in self._senders:
            rec.generated += 1
            for v, slot, joules in charges:
                if not alive[v]:
                    break  # dropped; a dead receiver wastes the transmission to it
                impulse(v, slot, joules)
                rec.energy_j += joules
            else:
                rec.delivered += 1

    def _charge_plan(self) -> tuple[tuple, tuple, tuple]:
        """What each tick charges while the alive set stays as it is: each
        sender's charges up to its first dead node.

        Returns ``(nodes, groups, sessions)``.  ``nodes`` is ``(ids, counts,
        spend, slots, joules)``: the charged nodes by ascending charge count,
        then id, the count and the joules sum of each, and the ledger slot
        and joules of their charges, one node after the other, each node's in
        sender order.  Every charged node senses: it lies on a route, so its
        ``duty`` mode is SENSE, and INIT, which comes before every tick and
        is the last mode switch, set it.  ``groups`` is ``(bounds, spans)``:
        each group's first node, then the node count, and per group ``(c,
        nodes, charges)``, its count and the slices of its nodes and their
        charges.  ``sessions`` is ``(full, charging, adds)``: per
        sender, whether it charges every node of its route; the senders that
        charge one at least; and per such sender its row of ``adds``, the
        joules of its charges padded with zeros.  No node revives, so the
        plan holds until one of its charged nodes dies, and is only made
        again then.
        """
        if self._plan is not None and self.alive[self._plan[0][0]].all():
            return self._plan
        node, slot, joules, sender, place = self._charges
        at = np.arange(len(node))
        ends = np.minimum.reduceat(np.where(self.alive[node], len(node), at), self._firsts)
        kept = at < ends[sender]
        full = ends == len(node)
        sender = sender[kept]
        lengths = np.bincount(sender, minlength=len(self._firsts))
        charging = lengths.nonzero()[0]
        adds = np.zeros((len(charging), lengths.max(initial=0)))
        adds[(lengths > 0).cumsum()[sender] - 1, place[kept]] = joules[kept]
        node, slot, joules = node[kept], slot[kept], joules[kept]
        counts = np.bincount(node)
        # by count, then id; stable, so each node's charges keep their sender order
        order = (counts[node] * len(counts) + node).argsort(kind="stable")
        slot, joules = slot[order], joules[order]
        ids = counts.nonzero()[0]
        ids = ids[counts[ids].argsort(kind="stable")]
        counts = counts[ids]
        firsts = counts.cumsum() - counts
        spend = np.add.reduceat(joules, firsts)
        # each group's first node, then the end
        cuts = ((counts[1:] != counts[:-1]).nonzero()[0] + 1).tolist()
        bounds = [0, *cuts, len(ids)] if len(ids) else [0]
        spans = [(c, slice(a, b), slice(f, f + (b - a) * c))
                 for a, b, c, f in zip(bounds, bounds[1:], counts[bounds[:-1]].tolist(),
                                       firsts[bounds[:-1]].tolist())]
        self._plan = ((ids, counts, spend, slot, joules), (bounds, spans),
                      (full, charging, adds))
        return self._plan

    def _bulk_ticks(self, ticks: np.ndarray) -> int:
        """Apply the leading ticks of ``ticks`` at once; returns how many.

        The ticks hold no other event and fall before every due time, so
        until a node dies every tick charges the same cells with the same
        joules.  This replays ``_impulse`` on them in the scalar order, over
        groups of the nodes that take the same number of charges a tick, all
        sensing.  It stops before the first tick in which a balance reaches
        DEATH_EPSILON_J, which the loop replays through ``_handle_tick``.

        The charged nodes' part is ``_bulk_nodes``.  Each charged balance
        falls linearly, so ``_ticks_before_death`` estimates that stop K for
        every node before any group runs, and the estimate is the limit
        offered to the groups.  A group whose every node stays ``_quiet``
        over the limit, by a bound, takes the closed
        form (``_closed_form``, all such groups at once): it sums each cell
        over the K ticks per binade and checks the balances after tick K.
        If one of them reaches DEATH_EPSILON_J or would write a due time, its
        group takes the per-charge path from then on, as every other group
        does: its blocks (``_bulk_block``) each run over the limit they are
        offered in one pass, accumulating their cells and testing every
        balance at each tick's end.  A block that finds a dead tick keeps
        nothing and lowers the limit to its first one, and once the pass is
        over every group runs again at the lowered limit.  Otherwise it
        keeps its cells' values after tick K and each row's last due-time
        write before the end of tick K.  An early estimate ends the epoch
        early; the loop replays the next tick through ``_handle_tick``, in
        which no node dies.  The kept cells, mode starts and due times are
        scattered back by the nodes' ids, and each session's energy is
        summed over the K ticks by ``_repeated_sums``.

        Why the bits hold.  A prefix of ``np.add.accumulate`` (and of
        ``np.maximum.accumulate``) equals the accumulate of that prefix, and
        everything else is elementwise.  A row whose first dead tick lies
        below the limit it is tested at lowers the limit to it, and any
        other row's lies at or past that limit, so a pass ends at the
        estimate or the earliest first dead tick of all rows, whichever is
        lower, whatever order the groups and blocks run in and however the
        rows are split into them.  A second pass at that K finds no dead
        tick, so K is confirmed.  Every block kept computed exactly K ticks,
        a prefix of what it would compute over the whole run of ticks, so it
        holds the values the scalar path computes, and the last write of a
        row's chain over those ticks is the scalar due time.

        The closed form holds the same bits.  Take a sum x in the binade
        [2^(e-1), 2^e) and u = 2^(e-53), its spacing; x is a multiple of u.
        For an add a >= 0 whose a/u is not a half-integer, fl(x + a) is
        x + u * rint(a/u) whenever that lies below 2^e.  So while a cell
        stays in one binade, every tick adds the same u * S, S the sum of
        the rint(a/u) of its charges, and after n ticks the cell holds
        x + n * u * S exactly, as both terms are multiples of u below 2^e.
        ``_repeated_sums`` jumps over those ticks; a zero start, a tie or a
        tick that leaves the binade goes add by add, as ``_bulk_block`` adds
        it.  The drain stays a tick-level accumulate.  Cells never fall, and
        energy.spent and budget - spent round monotonically, so each
        balance is lowest at the end of tick K: one test there stands for
        the dead test over every tick, and the writer test reads only that
        balance, as in ``_bulk_block``.  The bound decides only which path a
        group takes, never a bit: the closed form keeps nothing it has not
        checked.
        """
        nodes, groups, (full, charging, adds) = self._charge_plan()
        K = self._bulk_nodes(ticks, nodes, groups) if groups[1] else len(ticks)
        if not K:
            return 0
        if len(charging):
            records = [self._senders[i][0] for i in charging.tolist()]
            energies = _repeated_sums(np.array([rec.energy_j for rec in records]), adds, K)
            for rec, energy in zip(records, energies.tolist()):
                rec.energy_j = energy
        for (rec, _), delivered in zip(self._senders, full.tolist()):
            rec.generated += K
            if delivered:
                rec.delivered += K
        return K

    def _bulk_nodes(self, ticks: np.ndarray, nodes: tuple, groups: tuple) -> int:
        """The charged nodes' part of ``_bulk_ticks``, given the ``nodes``
        and ``groups`` of the charge plan, at least one of them: returns K,
        and keeps every charged node's cells, mode start and due time after
        tick K."""
        (ids, counts, spend, slots, joules), (bounds, groups) = nodes, groups
        rows, mode_since, due = self.rows, self.mode_since, self.due
        w = self.params.drain_w[SENSE]
        start = rows[ids]
        # the drain at each node's first charge, w * (t - mode_since)
        first_drain = w * (ticks[0] - mode_since[ids])
        balance = self.budget - start.sum(axis=1) - first_drain
        K = _ticks_before_death(balance, spend, w / self.config.packet_rate_hz, len(ticks))
        if not K:
            return 0
        closed = np.zeros(len(groups), dtype=bool)  # the groups on the closed form
        # the closed form costs about as much as a block of BLOCK_PLACES
        # charges, so it pays only over more
        if K * len(slots) > BLOCK_PLACES:
            closed = np.logical_and.reduceat(
                self._quiet(ids, balance, spend, ticks[0], K), bounds[:-1])
        wdT = w * np.diff(ticks)
        # a block that lowers K keeps nothing, and then every group runs
        # again at the lowered K, which none can lower
        offered = None
        while K != offered:
            offered, kept = K, []
            if closed.any() and K:
                member = np.repeat(np.arange(len(groups)), np.diff(bounds))
                on = closed[member].nonzero()[0]
                charges = np.repeat(closed[member], counts)
                end, loud = self._closed_form(
                    ids[on], start[on], first_drain[on], counts[on], slots[charges],
                    joules[charges], ticks, wdT, K)
                if loud.any():
                    # the groups of those rows take the per-charge path
                    closed[member[on[loud]]] = False
                    stay = closed[member[on]]
                    on, end = on[stay], end[stay]
                kept.append((ids[on], dict(enumerate(end.T)), (ids[:0], end[:0, 0])))
            for (c, members, charges), skip in zip(groups, closed.tolist()):
                if skip:
                    continue
                arrays = (ids[members], start[members], first_drain[members],
                          slots[charges].reshape(-1, c), joules[charges].reshape(-1, c))
                # split rows, never ticks: each block's arrays hold about
                # BLOCK_PLACES floats, or one row if that is longer
                i = 0
                while i < len(arrays[0]) and K:
                    size = max(1, BLOCK_PLACES // (K * c + 1))
                    block, *parts = (a[i : i + size] for a in arrays)
                    K, ends, dues = self._bulk_block(block, c, *parts, ticks, wdT, K)
                    kept.append((block, ends, dues))
                    i += size
        if not K:
            return 0
        for block, ends, (writers, times) in kept:
            for slot, end in ends.items():
                rows[block, slot] = end
            mode_since[block] = ticks[K - 1]
            due[writers] = times
        return K

    def _quiet(self, ids: np.ndarray, balance: np.ndarray, spend: np.ndarray,
               t0: float, K: int) -> np.ndarray:
        """Whether each node of ``ids`` keeps a balance above DEATH_EPSILON_J
        through K ticks from t0 and writes no due time there, by a bound: its
        ``balance`` before the first charge less K ticks of its ``spend`` and
        of drain, with a millionth of that as a margin for rounding, then the
        writer test of ``_bulk_block`` on it.  It chooses a group's path, and
        the closed form checks every row it keeps."""
        w = self.params.drain_w[SENSE]
        low = balance - K * (spend + w / self.config.packet_rate_hz) * (1 + 1e-6)
        floor = t0 + low / w
        return (low > DEATH_EPSILON_J) & ((floor >= self.due[ids] - 1.0) | (floor > self.duration))

    def _closed_form(self, ids: np.ndarray, start: np.ndarray, first_drain: np.ndarray,
                     counts: np.ndarray, slots: np.ndarray, joules: np.ndarray,
                     T: np.ndarray, wdT: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
        """The ledger rows of the nodes ``ids`` after the first K ticks of T,
        each sensing and taking its ``counts`` charges a tick, whose slots
        and joules ``slots`` and ``joules`` hold one node after the other,
        each node's in sender order; ``start`` holds their rows,
        ``first_drain`` the drain at their first charge and ``wdT`` the sense
        drain between consecutive ticks.

        Returns ``(end, loud)``: the rows after tick K, and per row whether
        its balance there reaches DEATH_EPSILON_J or its floor would write a
        due time, as ``_bulk_block`` tests them; only the other rows hold
        the scalar values.
        """
        r = len(ids)
        w = self.params.drain_w[SENSE]
        end = start.copy()
        # each cell's charges in sender order, padded with zeros, which change
        # no bit; the cell of row i and slot s is end's place i * 4 + s
        cell = np.repeat(np.arange(r) * len(LEDGER_MODES), counts) + slots
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        cells, first, size = np.unique(cell, return_index=True, return_counts=True)
        which = np.repeat(np.arange(len(cells)), size)
        adds = np.zeros((len(cells), size.max()))
        adds[which, np.arange(len(cell)) - first[which]] = joules[order]
        flat = end.reshape(-1)
        flat[cells] = _repeated_sums(flat[cells], adds, K)
        # the drain at each tick's first charge: first_drain, then
        # w * (t_i - t_{i-1}), in blocks of about BLOCK_PLACES floats
        step = max(1, BLOCK_PLACES // (K + 1))
        for i in range(0, r, step):
            part = slice(i, i + step)
            drain = np.empty((len(ids[part]), K + 1))
            drain[:, 0] = start[part, SENSE]
            drain[:, 1] = first_drain[part]
            drain[:, 2:] = wdT[: K - 1]
            end[part, SENSE] = np.add.accumulate(drain, axis=1, out=drain)[:, -1]
        balance = self.budget - spent(*end.T)
        floor = T[0] + balance / w
        loud = (balance <= DEATH_EPSILON_J) | (
            (floor < self.due[ids] - 1.0) & (floor <= self.duration))
        return end, loud

    def _bulk_block(self, block: np.ndarray, c: int, start: np.ndarray,
                    first_drain: np.ndarray, slots: np.ndarray, joules: np.ndarray,
                    T: np.ndarray, wdT: np.ndarray, K: int) -> tuple[int, dict, tuple]:
        """One block of ``_bulk_ticks``: the nodes whose ids ``block`` holds,
        each sensing and taking c charges a tick, over the first K ticks of
        T; ``start`` holds their ledger rows, ``first_drain`` the drain at
        their first charge, ``slots`` and ``joules`` their charges, and
        ``wdT`` the sense drain between consecutive ticks.

        Returns ``(limit, ends, dues)``.  If a balance of the block reaches
        DEATH_EPSILON_J in one of the K ticks, the limit is the first such
        tick and the rest is empty: nothing computed past it is kept.
        Otherwise the limit is K, ``ends`` maps each cell the block touches
        to its values at the end of tick K, in block order, each array a
        copy that holds no block buffer, and ``dues`` is ``(ids, times)``,
        the due time of each row whose last due-time write falls in those K
        ticks.
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
            return int(dead.argmax(axis=1)[hit].min()), {}, ()
        thresholds = self.due[block] - 1.0
        # No projection of a row lies below T[0] plus its balance at the end
        # of tick K over w, as T ascends, balances fall and rounding is
        # monotone: a row whose floor is not below its threshold, or lies
        # past the duration, writes nothing.
        floor = T[0] + ticks_end[:, -1] / w
        writers = np.flatnonzero((floor < thresholds) & (floor <= self.duration))
        n = len(writers)
        ids, times = block[:0], floor[:0]
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
            hits = np.flatnonzero(neg[:, -1] > bars)
            at = [_last_due_write(neg[k], bars[k]) for k in hits.tolist()]
            ids, times = block[writers[hits]], -neg[hits, at]
        return K, {s: end[:, -1].copy() for s, end in ends.items()}, (ids, times)

    def _report(self):
        """Accrue the alive nodes, then snapshot the ledger and sum its
        columns and its rows' totals in sensor order, one add at a time."""
        now = self.now
        self._accrue(np.flatnonzero(self.alive))
        self.ledger_snapshots.append((now, self.ledger.snapshot()))
        rows = self.rows
        sums = np.zeros((len(rows) + 1, len(LEDGER_MODES) + 1))
        sums[1:, :-1] = rows
        sums[1:, -1] = spent(*rows.T)
        tx, rx, sense, sleep, total = np.add.accumulate(sums, out=sums)[-1].tolist()
        generated = sum(rec.generated for rec in self.records)
        delivered = sum(rec.delivered for rec in self.records)
        self.intervals.append(IntervalRow(
            t_s=now,
            coverage_pct=self._coverage_pct(),
            alive=self.live,
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
