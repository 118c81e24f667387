"""Session routing: the region-search protocol plus four comparison baselines.

All protocols route on the same digraph and energy model:

  res  - table walk: inside a cell, follow the shortest-path tree to the
         cell's exit arc (chosen on the boundary dual graph toward the sink's
         cell); in the sink's cell, follow the tree to the sink.
  dt   - one direct transmission to the sink at the lowest covering level.
  mte  - table walk on one minimum-energy sink tree per run: every node
         forwards along its path minimizing the sum of hop distances^alpha
         to the sink, one reversed search over the arcs priced at their
         length^alpha.
  merr - greedy relay toward the sink through hops closest to the
         characteristic distance of the radio.
  or   - offline optimum of total per-packet energy; lower-bound baseline.
         The arcs are priced once per run at the sensor energy of one hop
         over them, and each session is one search on that priced graph.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Mapping

import numpy as np

from .energy import RX, TX, EnergyParams, rx_energy, tx_energy
from .graph import Digraph, NodeId, NodePos, shortest_path, shortest_path_tree
from .regions import BoundaryCellMap, BoundaryDualGraph

PROTOCOLS = ("res", "dt", "mte", "merr", "or")


class RoutingError(RuntimeError):
    pass


class RouteNotFound(RoutingError):
    """No feasible route for the protocol; the session is excluded."""


class CycleError(RoutingError):
    """A table walk revisited a node: the tables are corrupt."""


@dataclass(frozen=True)
class SessionRoute:
    """One session's path with the transmit level used on each hop."""

    protocol: str
    source: NodeId
    sink: NodeId
    vertices: tuple[NodeId, ...]
    levels: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.vertices) - 1


def level_range(
    params: EnergyParams, level: int, radio_range: float, alpha: float
) -> float:
    """Reach of a power level, scaling the max range by radiated power^(1/alpha)."""
    top = params.level_mw(params.level_count - 1)
    return radio_range * (params.level_mw(level) / top) ** (1.0 / alpha)


@lru_cache(maxsize=64)
def level_reaches(
    params: EnergyParams, radio_range: float, alpha: float
) -> tuple[float, ...]:
    """``level_range`` of every level, computed once per arguments."""
    return tuple(
        level_range(params, level, radio_range, alpha)
        for level in range(params.level_count)
    )


def min_level_for_distance(
    params: EnergyParams, distance: float, radio_range: float, alpha: float
) -> int | None:
    """Lowest level whose reach covers the distance; None if out of max range.

    A reach covers ``distance`` when it is at least ``distance - 1e-9``, the
    comparison ``_or_priced_graph`` makes for every arc at once.
    """
    reaches = level_reaches(params, radio_range, alpha)
    level = bisect_left(reaches, distance - 1e-9)
    return level if level < len(reaches) else None


def characteristic_distance(
    params: EnergyParams, radio_range: float, alpha: float
) -> float:
    """Hop length minimizing energy per meter relayed.

    Evaluated at each level's maximum reach (within a level the draw is flat,
    so cost per meter is lowest at full reach).
    """
    best_r, best_cost = None, None
    for level, r in enumerate(level_reaches(params, radio_range, alpha)):
        cost = (params.draw_mw(level) + params.p_rx_mw) / r
        if best_cost is None or cost < best_cost:
            best_cost, best_r = cost, r
    return best_r


@dataclass(frozen=True)
class RoutingTable:
    """Per-node next hop toward a fixed sink under ``protocol``; stranded
    nodes have no entry."""

    sink: NodeId
    next_hop: dict[NodeId, NodeId]
    stranded: tuple[NodeId, ...]
    protocol: str = "res"


def _tree_next_hops(g: Digraph, target: NodeId | tuple[NodeId, ...]) -> dict[NodeId, NodeId]:
    """Next hop toward ``target`` (one vertex, or a tuple of them in
    vertex-disjoint components) for every vertex of ``g`` that reaches it.

    Read off the reversed lexicographic tree, in which a vertex's parent is
    its next hop, so equal-length routes break ties on the sequence that
    starts at its target.  Targets and the vertices that cannot reach one
    get no entry.
    """
    _, parent = shortest_path_tree(g, target, reverse=True)
    return {v: nxt for v, nxt in parent.items() if nxt is not None}


def build_res_tables(
    cells: BoundaryCellMap, dual: BoundaryDualGraph, sink: NodeId
) -> RoutingTable:
    """Region-search next-hop tables toward the sink.

    Each non-sink cell forwards along its intra-cell tree to the tail of the
    crossing arc its dual route chose, then across; the sink's cell forwards
    straight to the sink.  The cells are vertex-disjoint components of the
    cell graph that ``dual`` holds, so one reversed search from the sink and
    every exit tail yields every cell's tree.  Nodes that cannot reach their
    cell's exit (or whose cell has no dual route) are reported stranded; if
    the flood never reached the sink, it has no cell, and so are all nodes.
    """
    if sink not in dual.cell_graph:
        raise ValueError(f"sink {sink!r} is not a vertex of the cell graph")
    if sink not in cells.cell_of:
        return RoutingTable(sink=sink, next_hop={}, stranded=tuple(sorted(cells.cell_of)))

    # shortest dual route from every cell toward the sink cell: the reversed
    # lexicographic tree, in which a cell's parent is its next cell
    next_cell = _tree_next_hops(dual.graph, cells.cell_of[sink])
    # each routed cell's exit arc, tail to head; the tails are the targets
    crossing = dict(dual.arcs[(c, nxt)].crossing for c, nxt in next_cell.items())
    next_hop = _tree_next_hops(dual.cell_graph, (sink, *crossing)) | crossing
    stranded = (v for v in cells.cell_of if v != sink and v not in next_hop)
    return RoutingTable(sink=sink, next_hop=next_hop, stranded=tuple(sorted(stranded)))


def build_mte_table(g: Digraph, sink: NodeId, alpha: float = 2.0) -> RoutingTable:
    """Minimum-transmission-energy next hops toward the sink, for every node.

    A node's mte route is its path minimizing the sum of hop distances^alpha,
    which does not depend on the session, so one reversed tree from the sink
    serves every source; ties break on the sink-first sequence.  Each arc is
    priced with Python's ``pow``: ``np.power`` rounds differently on a few.
    """
    lengths = g.arc_arrays()[2].tolist()
    next_hop = _tree_next_hops(g.with_weights(list(map(math.pow, lengths, repeat(alpha)))), sink)
    stranded = tuple(v for v in g.vertices if v != sink and v not in next_hop)
    return RoutingTable(sink=sink, next_hop=next_hop, stranded=stranded, protocol="mte")


def _or_priced_graph(
    g: Digraph, nodes: Mapping[NodeId, NodePos], sink: NodeId, params: EnergyParams,
    alpha: float, bits: float,
) -> Digraph:
    """``g`` with each arc priced at the sensor energy of one packet over it:
    the transmission at the level ``min_level_for_distance`` picks for its
    length and its tail's range, plus a reception unless the head is the
    sink, or ``inf`` where no level reaches."""
    tails, heads, lengths = g.arc_arrays()
    tail_range = np.array([nodes[v].radio_range for v in g.vertices])[tails]
    levels = np.empty(len(lengths), np.intp)  # level_count where none reaches
    for radio_range in np.unique(tail_range).tolist():
        at = tail_range == radio_range
        reaches = level_reaches(params, radio_range, alpha)
        levels[at] = np.searchsorted(reaches, lengths[at] - 1e-9, "left")
    prices = np.array([
        [_hop_joules(params, bits, level, relayed) for relayed in (False, True)]
        for level in range(params.level_count)
    ] + [[math.inf, math.inf]])
    relayed = heads != g.vertices.index(sink)
    return g.with_weights(prices[levels, relayed.astype(np.intp)])


def walk_table(tables: RoutingTable, source: NodeId, sink: NodeId) -> tuple[NodeId, ...]:
    """Follow next-hop entries from source to sink; raise on any loop."""
    if sink != tables.sink:
        raise ValueError(f"tables were built for sink {tables.sink!r}")
    if source == sink:
        raise ValueError("source equals sink")
    verts = [source]
    visited = {source}
    at = source
    while at != sink:
        nxt = tables.next_hop.get(at)
        if nxt is None:
            raise RouteNotFound(f"{tables.protocol}: no route from {source!r} (stuck at {at!r})")
        if nxt in visited:
            raise CycleError(f"routing table cycle at {nxt!r} walking from {source!r}")
        verts.append(nxt)
        visited.add(nxt)
        at = nxt
    return tuple(verts)


def _assign_levels(
    vertices: tuple[NodeId, ...],
    nodes: Mapping[NodeId, NodePos],
    params: EnergyParams,
    alpha: float,
    protocol: str,
) -> tuple[int, ...]:
    levels = []
    for u, v in zip(vertices, vertices[1:]):
        d = nodes[u].distance_to(nodes[v])
        lvl = min_level_for_distance(params, d, nodes[u].radio_range, alpha)
        if lvl is None:
            raise RouteNotFound(f"{protocol}: hop {u!r}->{v!r} exceeds max range")
        levels.append(lvl)
    return tuple(levels)


def route(
    protocol: str,
    g: Digraph,
    nodes: Mapping[NodeId, NodePos],
    source: NodeId,
    sink: NodeId,
    params: EnergyParams,
    alpha: float = 2.0,
    tables: RoutingTable | Digraph | None = None,
    bits: float = 1024.0,
) -> SessionRoute:
    """Route one session under the named protocol; raises RouteNotFound.

    ``res`` walks ``tables``, which must be res tables.  ``mte`` walks them
    when they are an mte table (``build_mte_table`` for this sink and alpha),
    and otherwise builds one for this call.  ``or`` searches them when they
    are a priced graph (``_or_priced_graph`` for this graph, nodes, sink,
    alpha and bits), and otherwise prices one for this call.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if source == sink:
        raise ValueError("source equals sink")
    if source not in g or sink not in g:
        raise ValueError(f"unknown vertex {source if source not in g else sink!r}")

    kind = tables.protocol if isinstance(tables, RoutingTable) else None
    if protocol == "res":
        if kind != "res":
            raise ValueError("res routing needs prebuilt res tables")
        verts = walk_table(tables, source, sink)
    elif protocol == "dt":
        verts = (source, sink)
    elif protocol == "mte":
        if kind != "mte":
            tables = build_mte_table(g, sink, alpha)
        verts = walk_table(tables, source, sink)
    elif protocol == "or":
        if not isinstance(tables, Digraph):
            tables = _or_priced_graph(g, nodes, sink, params, alpha, bits)
        path = shortest_path(tables, source, sink)
        if path is None:
            raise RouteNotFound(f"or: {sink!r} unreachable from {source!r}")
        verts = path.vertices
    else:  # merr
        verts = _merr_walk(g, nodes, source, sink, params, alpha)

    return SessionRoute(
        protocol=protocol,
        source=source,
        sink=sink,
        vertices=verts,
        levels=_assign_levels(verts, nodes, params, alpha, protocol),
    )


def _merr_walk(
    g: Digraph,
    nodes: Mapping[NodeId, NodePos],
    source: NodeId,
    sink: NodeId,
    params: EnergyParams,
    alpha: float,
) -> tuple[NodeId, ...]:
    """Greedy relay: make progress toward the sink through hops nearest the
    characteristic distance; deliver directly once the sink is that close.
    Every hop strictly shortens the distance to the sink, so no node repeats."""
    verts = [source]
    at = source
    while at != sink:
        d_char = characteristic_distance(params, nodes[at].radio_range, alpha)
        to_sink = nodes[at].distance_to(nodes[sink])
        nbrs = g.out_neighbors(at)
        if sink in nbrs and to_sink <= d_char:
            verts.append(sink)
            break
        best = None
        best_key = None
        for nb in nbrs:
            if nodes[nb].distance_to(nodes[sink]) >= to_sink:
                continue  # no progress
            key = (abs(nodes[at].distance_to(nodes[nb]) - d_char), nb)
            if best_key is None or key < best_key:
                best_key, best = key, nb
        if best is None:
            raise RouteNotFound(f"merr: stuck at {at!r} routing to {sink!r}")
        verts.append(best)
        at = best
    return tuple(verts)


def _hop_joules(params: EnergyParams, bits: float, level: int, relayed: bool) -> float:
    """Sensor energy of one hop: the transmission at ``level``, plus the
    reception when the receiver relays (is a sensor, not the sink)."""
    joules = tx_energy(bits, level, params)
    if relayed:
        joules += rx_energy(bits, params)
    return joules


def per_packet_charges(
    route: SessionRoute, params: EnergyParams, bits: float
) -> tuple[tuple[NodeId, int, float], ...]:
    """Ledger charges ``(node, slot, joules)`` for one packet along the route.

    Each hop costs the sender a transmit charge at the hop's level and the
    receiver a receive charge; the sink is mains-powered and is never charged.
    """
    charges: list[tuple[NodeId, int, float]] = []
    for i in range(route.hops):
        sender, receiver = route.vertices[i], route.vertices[i + 1]
        charges.append((sender, TX, tx_energy(bits, route.levels[i], params)))
        if receiver != route.sink:
            charges.append((receiver, RX, rx_energy(bits, params)))
    return tuple(charges)


def packet_energy(route: SessionRoute, params: EnergyParams, bits: float) -> float:
    """Total sensor energy one packet costs on this route.

    Summed hop by hop, each hop's transmit plus receive charge first; a
    session's reported packet energy relies on this order, down to the last bit.
    """
    total = 0.0
    for receiver, level in zip(route.vertices[1:], route.levels):
        total += _hop_joules(params, bits, level, receiver != route.sink)
    return total
