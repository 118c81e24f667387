"""Distributed region flooding: seeds label every node with its nearest region(s).

Each seed starts a wavefront carrying (region id, hop counter).  A node keeps
the set of regions seen at its current best hop count and kills anything
arriving late, which is what prunes the flood at cell boundaries.  The
decision rule for an arriving message against local state (regions R, best
distance D) is:

  hop >  D            -> discard
  hop == D, region new-> merge region, rebroadcast with hop+1
  hop == D, region old-> discard
  hop <  D (or unset) -> replace state with this region/hop, rebroadcast

Under the synchronized schedule every message travels at the same speed, so
round r delivers exactly the hop-r messages: a node's distance is its level
in a multi-source breadth-first search and its regions are those of its
in-neighbours one level closer.  ``run_flood`` computes an untraced sync flood
from that labelling, message tallies included, and delivers messages one by
one only for a trace or the ``async`` mode.

The labelling and ``naive_flood_count`` walk the graph's arc arrays
(``Digraph.arc_arrays``) a level at a time: one array pass over the arcs out
of each frontier, with no per-node Python until the labelling builds its
``FloodState`` objects.
"""

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .graph import Digraph, NodeId
from .regions import BoundaryCellMap, _normalize_seeds


class FloodAction(Enum):
    DISCARD = "discard"
    MERGE_REBROADCAST = "merge"
    REPLACE_REBROADCAST = "replace"


@dataclass(frozen=True)
class FloodMessage:
    """Region id plus hop counter; seeds emit hop_value 1."""

    region: NodeId
    hop_value: int

    def __post_init__(self):
        if self.hop_value < 1:
            raise ValueError("hop_value must be >= 1")


@dataclass
class FloodState:
    """Per-node label set and message tallies.

    ``distance`` None means unset (infinity).  Once set it never increases
    under the synchronized schedule.
    """

    regions: set = field(default_factory=set)
    distance: int | None = None
    tx_count: int = 0
    rx_count: int = 0
    discard_count: int = 0


def handle_message(state: FloodState, msg: FloodMessage) -> FloodAction:
    """Apply one arriving message to a node's state; exactly one rule fires."""
    state.rx_count += 1
    if state.distance is not None and msg.hop_value > state.distance:
        state.discard_count += 1
        return FloodAction.DISCARD
    if state.distance is not None and msg.hop_value == state.distance:
        if msg.region in state.regions:
            state.discard_count += 1
            return FloodAction.DISCARD
        state.regions.add(msg.region)
        return FloodAction.MERGE_REBROADCAST
    state.regions = {msg.region}
    state.distance = msg.hop_value
    return FloodAction.REPLACE_REBROADCAST


# pending message: (sender, receiver, region, hop)
PendingMessage = tuple[NodeId, NodeId, NodeId, int]


def init_flood(
    g: Digraph, seeds: Iterable[NodeId]
) -> tuple[dict[NodeId, FloodState], list[PendingMessage]]:
    """Seed states at distance 0 and the simultaneous first wave of messages."""
    seed_tuple = _normalize_seeds(g, seeds)
    states = {v: FloodState() for v in g.vertices}
    pending: list[PendingMessage] = []
    for s in seed_tuple:
        states[s].regions = {s}
        states[s].distance = 0
        for nb in g.out_neighbors(s):
            pending.append((s, nb, s, 1))
        states[s].tx_count += len(g.out_neighbors(s))
    return states, pending


@dataclass(frozen=True)
class FloodTotals:
    tx: int
    rx: int
    discard: int


@dataclass(frozen=True)
class FloodResult:
    states: dict[NodeId, FloodState]
    totals: FloodTotals
    rounds: int
    unreached: tuple[NodeId, ...]


def run_flood(
    g: Digraph,
    seeds: Iterable[NodeId],
    mode: str = "sync",
    seed: int | None = None,
    trace: list | None = None,
) -> FloodResult:
    """Run the flood to quiescence and return final states and totals.

    ``sync`` delivers all messages of one hop value before the next (every
    message travels at the same speed); ``async`` delivers in seeded random
    order and converges to the same labels.  ``trace`` collects rows
    (round, sender, receiver, region, hop, action) when given.

    An untraced sync flood is read off the breadth-first labelling (round r
    delivers exactly the hop-r messages), in time linear in the arcs.  The
    message-level loop runs for a trace or the ``async`` mode; both give the
    same result.
    """
    if mode == "sync" and trace is None:
        return _label_flood(g, seeds)
    return _message_flood(g, seeds, mode, seed, trace)


def _result(g: Digraph, states: dict[NodeId, FloodState], rounds: int) -> FloodResult:
    totals = FloodTotals(
        tx=sum(s.tx_count for s in states.values()),
        rx=sum(s.rx_count for s in states.values()),
        discard=sum(s.discard_count for s in states.values()),
    )
    unreached = tuple(v for v in g.vertices if states[v].distance is None)
    return FloodResult(states, totals, rounds, unreached)


def _row_bounds(g: Digraph) -> np.ndarray:
    """Each vertex's out-row as ``bounds[k]:bounds[k + 1]`` of ``g.arc_arrays()``."""
    tails = g.arc_arrays()[0]
    return np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=len(g)))))


def _out_arcs(bounds: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices of the arcs out of the non-empty ``rows``, row by row."""
    starts = bounds[rows]
    counts = bounds[rows + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)


def _label_flood(g: Digraph, seeds: Iterable[NodeId]) -> FloodResult:
    """The sync flood's result from a level-synchronous multi-source BFS.

    A node's distance is its BFS level and its regions are the union of the
    regions of its in-neighbours one level closer.  Each level is one array
    pass over the arcs out of the frontier.  A node's regions are a bit mask
    of ``ceil(len(seeds) / 64)`` words, bit j for the j-th smallest seed,
    OR-reduced per head over the arcs into the next level.  With k(v)
    regions at v, v sends k(v) messages on each out-arc and receives k(u) on
    each in-arc (u, v); a reached non-seed accepts k(v) of them and discards
    the rest, a seed or an unreached node discards all.  Round r runs while
    some node at level r - 1 has an out-arc.
    """
    seed_tuple = _normalize_seeds(g, seeds)
    vertices = g.vertices
    n = len(vertices)
    tails, heads, _ = g.arc_arrays()
    bounds = _row_bounds(g)
    rank = dict(zip(vertices, range(n)))
    frontier = np.array([rank[s] for s in seed_tuple], np.intp)
    bit = np.arange(len(seed_tuple))
    words = (len(seed_tuple) + 63) // 64
    mask = np.zeros((n, words), np.uint64)
    mask[frontier, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
    dist = np.full(n, -1, np.intp)
    dist[frontier] = 0
    level = 0
    while len(frontier):
        out = _out_arcs(bounds, frontier)
        head = heads[out]
        dist[head[dist[head] < 0]] = level + 1
        # the arcs into the next level, grouped by head
        into = out[dist[head] == level + 1]
        into = into[np.argsort(heads[into])]
        first = np.flatnonzero(np.diff(heads[into], prepend=-1))
        frontier = heads[into[first]]
        if len(frontier):
            mask[frontier] = np.bitwise_or.reduceat(mask[tails[into]], first)
        level += 1
    # the set bits, by node and then by seed: word, then bit within the word
    nonzero = np.flatnonzero(mask)
    bits = np.unpackbits(
        mask.ravel()[nonzero].astype("<u8", copy=False).view(np.uint8), bitorder="little"
    )
    hit = np.flatnonzero(bits.view(bool))
    at = nonzero[hit >> 6]
    k = np.bincount(at // words, minlength=n)
    names = np.array(seed_tuple, object)[at % words * 64 + (hit & 63)].tolist()
    ends = np.cumsum(k).tolist()
    regions = map(set, map(names.__getitem__, map(slice, [0, *ends], ends)))
    distance = [None if d < 0 else d for d in dist.tolist()]
    degree = np.diff(bounds)
    tx = k * degree
    rx = np.bincount(heads, weights=k[tails], minlength=n).astype(np.intp)
    discard = rx - np.where(dist > 0, k, 0)
    states = dict(zip(vertices, map(
        FloodState, regions, distance, tx.tolist(), rx.tolist(), discard.tolist()
    )))
    totals = FloodTotals(int(tx.sum()), int(rx.sum()), int(discard.sum()))
    rounds = int(dist[degree > 0].max(initial=-1)) + 1
    unreached = tuple(map(vertices.__getitem__, np.flatnonzero(dist < 0).tolist()))
    return FloodResult(states, totals, rounds, unreached)


def _message_flood(
    g: Digraph,
    seeds: Iterable[NodeId],
    mode: str,
    seed: int | None,
    trace: list | None,
) -> FloodResult:
    """Deliver every flood message one by one through ``handle_message``."""
    states, pending = init_flood(g, seeds)

    def deliver(rnd: int, snd: NodeId, rcv: NodeId, region: NodeId, hop: int) -> list[PendingMessage]:
        action = handle_message(states[rcv], FloodMessage(region, hop))
        if trace is not None:
            trace.append((rnd, snd, rcv, region, hop, action.value))
        if action is FloodAction.DISCARD:
            return []
        out = [(rcv, nb, region, hop + 1) for nb in g.out_neighbors(rcv)]
        states[rcv].tx_count += len(out)
        return out

    rounds = 0
    if mode == "sync":
        while pending:
            rounds += 1
            nxt: list[PendingMessage] = []
            for snd, rcv, region, hop in sorted(pending, key=lambda p: (p[1], p[2], p[0])):
                nxt.extend(deliver(rounds, snd, rcv, region, hop))
            pending = nxt
    elif mode == "async":
        if seed is None:
            raise ValueError("async mode needs a seed")
        rng = random.Random(seed)
        queue = list(pending)
        while queue:
            rounds += 1
            i = rng.randrange(len(queue))
            queue[i], queue[-1] = queue[-1], queue[i]
            snd, rcv, region, hop = queue.pop()
            queue.extend(deliver(rounds, snd, rcv, region, hop))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _result(g, states, rounds)


def naive_flood_count(g: Digraph, seeds: Iterable[NodeId]) -> int:
    """Message count of per-seed unrestricted flooding.

    Every node rebroadcasts each seed's flood once, on first receipt, across
    the whole graph; counts are per-link messages.  A seed's count is the
    out-degree sum of the nodes it reaches, found by a frontier walk over
    the arc arrays, one array pass per level.  On a ``symmetric`` graph that
    set is the seed's connected component, so one walk per component serves
    every seed in it; otherwise each seed gets its own walk.
    """
    seed_tuple = _normalize_seeds(g, seeds)
    heads = g.arc_arrays()[1]
    bounds = _row_bounds(g)
    degree = np.diff(bounds)
    rank = dict(zip(g.vertices, range(len(g))))
    left = np.array([rank[s] for s in seed_tuple], np.intp)
    total = 0
    while len(left):
        reached = np.zeros(len(g), bool)
        reached[left[0]] = True
        frontier = left[:1]
        while len(frontier) and not reached.all():
            fresh = np.zeros(len(g), bool)
            fresh[heads[_out_arcs(bounds, frontier)]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
        count = int(degree[reached].sum())
        served = reached[left] if g.symmetric else left == left[0]
        total += count * int(served.sum())
        left = left[~served]
    return total


def message_savings(totals: FloodTotals, naive: int) -> float:
    """Fraction of the ``naive`` per-seed flood messages (``naive_flood_count``)
    suppressed by the boundary pruning."""
    if naive == 0:
        return 0.0
    return 1.0 - totals.tx / naive


def cells_from_flood(
    g: Digraph, seeds: Iterable[NodeId], states: dict[NodeId, FloodState]
) -> BoundaryCellMap:
    """Boundary cell map read off the flood labels: hop cells, which
    ``verify_cell_containment`` checks on ``g.with_weights([1.0] * g.arc_count)``.

    Nodes the flood never reached carry no assignment and are absent from the
    map; callers decide whether that is an error.
    """
    seed_tuple = _normalize_seeds(g, seeds)
    owners: dict[NodeId, tuple[NodeId, ...]] = {}
    dist: dict[NodeId, float] = {}
    for v in g.vertices:
        st = states[v]
        if st.distance is None:
            continue
        owners[v] = tuple(sorted(st.regions))
        dist[v] = float(st.distance)
    return BoundaryCellMap(seed_tuple, owners, dist)
