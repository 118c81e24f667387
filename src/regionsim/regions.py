"""Boundary cells around region seeds, the cell dual graph, and boundary routing.

A boundary cell is the discrete Dirichlet/Voronoi cell of a seed on the
communication graph: every node belongs to the seed(s) it can reach at the
least distance in the graph's weights; a hop graph's cells are hop cells.
The dual graph has one vertex per cell and carries composed crossing weights,
which bound the stretch of routing through cells.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

from .graph import Digraph, NodeId, PathResult, shortest_path, single_source_distances


class StretchBoundError(RuntimeError):
    """Boundary route longer than its arc-count bound; cells and path weights disagree."""


def _normalize_seeds(g: Digraph, seeds: Iterable[NodeId]) -> tuple[NodeId, ...]:
    out = tuple(sorted(set(seeds)))
    if not out:
        raise ValueError("seed set is empty")
    for s in out:
        if s not in g:
            raise ValueError(f"seed {s!r} is not a vertex")
    return out


@dataclass(frozen=True)
class BoundaryCellMap:
    """Assignment of every node to its nearest region seed(s).

    ``owners`` keeps all minimizing seeds per node, sorted; ``cell_of``
    resolves ties to the smallest seed id so downstream routing is
    deterministic.  ``cell_of``, ``members`` and ``tie_nodes`` are read off
    ``owners`` when first asked for: a run reads ``cell_of`` only.
    """

    seeds: tuple[NodeId, ...]
    owners: dict[NodeId, tuple[NodeId, ...]]
    dist_to_seed: dict[NodeId, float]

    @cached_property
    def cell_of(self) -> dict[NodeId, NodeId]:
        return {v: own[0] for v, own in self.owners.items()}

    @cached_property
    def members(self) -> dict[NodeId, frozenset]:
        members: dict[NodeId, set] = {s: set() for s in self.seeds}
        for v, own in self.owners.items():
            for s in own:
                members[s].add(v)
        return {s: frozenset(vs) for s, vs in members.items()}

    @cached_property
    def tie_nodes(self) -> frozenset:
        return frozenset(v for v, own in self.owners.items() if len(own) > 1)

    def canonical_members(self, seed: NodeId) -> tuple[NodeId, ...]:
        return tuple(sorted(v for v in self.members.get(seed, ()) if self.cell_of[v] == seed))


def compute_boundary_cells(g: Digraph, seeds: Iterable[NodeId]) -> BoundaryCellMap:
    """Assign every node to the seed(s) minimizing its distance-to-seed.

    Distances are in ``g``'s arc weights; hop cells are computed on
    ``g.with_weights([1.0] * g.arc_count)``.  Raises if any node cannot
    reach a seed.
    """
    seed_tuple = _normalize_seeds(g, seeds)
    # distance from every node TO each seed = reverse search from the seed
    to_seed = {s: single_source_distances(g, s, reverse=True) for s in seed_tuple}
    owners: dict[NodeId, tuple[NodeId, ...]] = {}
    dist: dict[NodeId, float] = {}
    for v in g.vertices:
        best = None
        mins: list[NodeId] = []
        for s in seed_tuple:
            d = to_seed[s].get(v)
            if d is None:
                continue
            if best is None or d < best:
                best, mins = d, [s]
            elif d == best:
                mins.append(s)
        if best is None:
            raise ValueError(f"node {v!r} cannot reach any seed")
        owners[v] = tuple(mins)  # seeds already sorted
        dist[v] = best
    return BoundaryCellMap(seed_tuple, owners, dist)


@dataclass(frozen=True)
class ContainmentCheck:
    """Result of checking that a node's path to its seed stays in the cell."""

    ok: bool
    node: NodeId
    owner: NodeId
    witness: NodeId | None
    path: PathResult
    ties_on_path: tuple[NodeId, ...]


def verify_cell_containment(g: Digraph, cells: BoundaryCellMap, u: NodeId) -> ContainmentCheck:
    """Check that the canonical shortest path from u to its seed stays in the cell.

    The path is searched in ``g``'s weights, which must be the metric the
    cells were computed in: hop cells are checked on a hop graph.
    Membership counts tie nodes; ties encountered on the path are reported
    separately, since their canonical owner may differ.
    """
    if u not in cells.cell_of:
        raise ValueError(f"node {u!r} has no cell assignment")
    owner = cells.cell_of[u]
    path = shortest_path(g, u, owner)
    if path is None:
        raise ValueError(f"node {u!r} cannot reach its seed {owner!r}")
    member = cells.members[owner]
    ties = tuple(v for v in path.vertices if v in cells.tie_nodes)
    for v in path.vertices:
        if v not in member:
            return ContainmentCheck(False, u, owner, v, path, ties)
    return ContainmentCheck(True, u, owner, None, path, ties)


class DualArc(NamedTuple):
    """Directed cell-to-cell arc with composed weight and chosen crossing arc.

    A ``NamedTuple``: the dual graph builds one per crossed cell pair (3,004
    on the 256-cell field), and a tuple costs a fraction of a frozen
    dataclass's ``__init__``; it builds them through ``tuple.__new__``,
    which also skips the NamedTuple's Python-level ``__new__``.
    Construction and equality are by its fields."""

    src: NodeId
    dst: NodeId
    weight: float
    crossing: tuple[NodeId, NodeId]


@dataclass(frozen=True)
class BoundaryDualGraph:
    """One vertex per boundary cell; arcs where communication arcs cross cells.

    ``cell_graph`` spans the communication graph's vertices with only the
    arcs whose two ends share a canonical cell, so each cell's rows are its
    canonical subgraph's; the res tables and boundary routes search it.
    ``graph`` holds the cells and dual arcs as a weighted ``Digraph``, which
    ``build_boundary_dual_graph`` builds from its arc arrays through
    ``Digraph.from_arrays``, so the tables and routes build no graph.
    """

    cells: tuple[NodeId, ...]
    arcs: dict[tuple[NodeId, NodeId], DualArc]
    cell_graph: Digraph
    graph: Digraph = field(repr=False, compare=False)


def build_boundary_dual_graph(g: Digraph, cells: BoundaryCellMap) -> BoundaryDualGraph:
    """Build the cell dual graph with composed crossing weights.

    The weight of a dual arc is the minimum, over communication arcs (u, v)
    crossing the two cells, of
        d(seed_src -> u) + w(u, v) + d(v -> seed_dst)
    with both d terms measured inside the canonical cells, on the cell graph
    that the result keeps.  Crossing arcs whose endpoints are unreachable
    inside their cell are skipped.  Ties pick the lexicographically smallest
    (u, v) pair.  The dual arcs come in the order of their first crossing arc
    in ``g.arcs()``.

    The cells are vertex-disjoint components of the cell graph, each holding
    its seed, so one search from all seeds yields every cell's own distances,
    and one reversed search the distances to the seeds (the same search when
    the cell graph is symmetric).  The minimum is taken over arc arrays: every
    term is the same float and the sum the same left-to-right IEEE expression
    as a loop over ``g.arcs()``.  It costs O(arcs) with no sort: a table over
    the ``len(seeds) ** 2`` cell pairs numbers the pairs in first-crossing
    order, and ``np.minimum.at`` takes each pair's smallest weight and then
    its earliest crossing arc at that weight.  The dual ``Digraph`` is laid
    out from those arrays, cell indices and weights, by ``Digraph.from_arrays``.
    """
    cell_graph = g.within_parts(cells.cell_of)
    seeds = cells.seeds
    vertices = g.vertices
    rank = {v: k for k, v in enumerate(vertices)}
    # per vertex: its cell's index, and its distances from and to its seed
    # inside the cell (NaN when it has no cell or the search misses it)
    cell_index = {s: c for c, s in enumerate(seeds)}
    cell = np.fromiter(
        map(cell_index.get, map(cells.cell_of.get, vertices), repeat(-1)), np.intp, len(vertices)
    )

    def lengths(dist: dict) -> np.ndarray:
        out = np.full(len(vertices), np.nan)
        out[np.fromiter(map(rank.__getitem__, dist), np.intp, len(dist))] = list(dist.values())
        return out

    from_seed = lengths(single_source_distances(cell_graph, seeds))
    # on a symmetric cell graph the reverse search repeats the same sums
    to_seed = from_seed if cell_graph.symmetric else lengths(
        single_source_distances(cell_graph, seeds, reverse=True)
    )
    tails, heads, weights = g.arc_arrays()
    composed = (from_seed[tails] + weights) + to_seed[heads]
    crossing = np.flatnonzero((cell[tails] != cell[heads]) & ~np.isnan(composed))
    pair = cell[tails[crossing]] * len(seeds) + cell[heads[crossing]]
    weight = composed[crossing]
    # number the cell pairs in first-crossing order
    order = np.arange(len(pair))
    first = np.full(len(seeds) ** 2, len(pair))
    np.minimum.at(first, pair, order)
    first = first[pair]
    opens = first == order
    pair = (np.cumsum(opens) - 1)[first]
    # per pair: the smallest weight, ties to the earliest crossing arc, which
    # is the smallest (u, v)
    low = np.full(np.count_nonzero(opens), np.inf)
    np.minimum.at(low, pair, weight)
    tied = np.flatnonzero(weight == low[pair])
    best = np.full(len(low), len(pair))
    np.minimum.at(best, pair[tied], tied)
    u, v = tails[crossing[best]], heads[crossing[best]]
    weight = weight[best]
    graph = Digraph.from_arrays(seeds, cell[u], cell[v], weight)
    src = list(map(seeds.__getitem__, cell[u].tolist()))
    dst = list(map(seeds.__getitem__, cell[v].tolist()))
    crossed = zip(map(vertices.__getitem__, u.tolist()), map(vertices.__getitem__, v.tolist()))
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    fields = zip(src, dst, weight.tolist(), crossed)
    arcs = dict(zip(zip(src, dst), map(tuple.__new__, repeat(DualArc), fields)))
    return BoundaryDualGraph(cells=seeds, arcs=arcs, cell_graph=cell_graph, graph=graph)


def dual_route(
    dual: BoundaryDualGraph, src_cell: NodeId, dst_cell: NodeId
) -> tuple[DualArc, ...] | None:
    """Shortest dual-graph route between two cells as a sequence of dual arcs.

    Ties break on the lexicographically smallest cell-id sequence.  None if
    the destination cell is unreachable in the dual graph.
    """
    if src_cell not in dual.cells or dst_cell not in dual.cells:
        raise ValueError("unknown cell")
    path = shortest_path(dual.graph, src_cell, dst_cell)
    if path is None:
        return None
    cellpath = path.vertices
    return tuple(dual.arcs[hop] for hop in zip(cellpath, cellpath[1:]))


@dataclass(frozen=True)
class BoundaryRouteResult:
    """Direct path, boundary path through cell seeds, and their length ratio."""

    direct: PathResult
    boundary: PathResult
    ratio: float
    bound: int


def _intra_cell_path(dual: BoundaryDualGraph, cell: NodeId, frm: NodeId, to: NodeId) -> PathResult:
    path = shortest_path(dual.cell_graph, frm, to)
    if path is None:
        raise ValueError(f"no intra-cell path {frm!r}->{to!r} in cell {cell!r}")
    return path


def boundary_route(
    g: Digraph,
    cells: BoundaryCellMap,
    dual: BoundaryDualGraph,
    s: NodeId,
    t: NodeId,
) -> BoundaryRouteResult | None:
    """Compare the direct shortest path with the boundary path through seeds.

    Both endpoints must be seeds.  The boundary path enters each traversed
    cell, detours through its seed, and leaves by the dual route's chosen
    crossing arc, so its length equals the dual-graph distance.  The legs
    inside a cell search the cell graph that ``dual`` holds.  The ratio is
    checked against the direct path's arc count; the bound applies to cells
    computed on ``g`` itself, in the metric of its weights.
    """
    if s not in cells.seeds or t not in cells.seeds:
        raise ValueError("boundary_route endpoints must be seeds")
    direct = shortest_path(g, s, t)
    if direct is None:
        return None
    if s == t:
        return BoundaryRouteResult(direct, direct, 1.0, 0)
    route = dual_route(dual, cells.cell_of[s], cells.cell_of[t])
    if route is None:
        return None
    verts: list[NodeId] = [s]
    length = 0.0
    at = s
    for arc in route:
        leg = _intra_cell_path(dual, arc.src, at, arc.crossing[0])
        verts.extend(leg.vertices[1:])
        length += leg.length
        u, v = arc.crossing
        verts.append(v)
        length += g.weight(u, v)
        seed = arc.dst
        leg = _intra_cell_path(dual, seed, v, seed)
        verts.extend(leg.vertices[1:])
        length += leg.length
        at = seed
    boundary = PathResult(tuple(verts), length, len(verts) - 1)
    ratio = boundary.length / direct.length
    bound = direct.hops
    if ratio > bound:
        raise StretchBoundError(
            f"boundary route {s!r}->{t!r}: ratio {ratio:.6f} exceeds bound {bound}"
        )
    return BoundaryRouteResult(direct, boundary, ratio, bound)


def worst_case_construction(
    e: int, m: float, eps: float
) -> tuple[Digraph, tuple[NodeId, ...], NodeId, NodeId]:
    """Tightness instance whose boundary-route ratio approaches ``e`` as eps -> 0.

    A direct s->t path of ``e`` arcs (end arcs weigh m, interior arcs eps)
    where every interior node hangs its own seed at distance m - eps, forcing
    the boundary path to detour into each pendant cell.  Requires m > eps > 0.
    Returns (graph, seeds, s, t); compute the cells on this graph itself.
    """
    if e < 2:
        raise ValueError("need at least 2 arcs")
    if not (m > eps > 0):
        raise ValueError("require m > eps > 0")
    chain = ["s"] + [f"a{i:02d}" for i in range(1, e)] + ["t"]
    arcs: dict[tuple[NodeId, NodeId], float] = {}

    def link(u, v, w):
        arcs[(u, v)] = w
        arcs[(v, u)] = w

    link(chain[0], chain[1], m)
    for i in range(1, e - 1):
        link(chain[i], chain[i + 1], eps)
    link(chain[e - 1], chain[e], m)
    seeds = ["s", "t"]
    for i in range(1, e):
        pendant = f"b{i:02d}"
        link(chain[i], pendant, m - eps)
        seeds.append(pendant)
    vertices = chain + seeds[2:]
    return Digraph(vertices, arcs), tuple(sorted(seeds)), "s", "t"
