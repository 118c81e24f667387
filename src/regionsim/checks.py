"""Property suites over random connected unit-disk graphs.

These drive the `check-lemmas` CLI subcommand: cell containment, the
boundary-route stretch bound, and flood-label agreement with an independent
multi-source breadth-first search and with the message-level flood.
"""

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .flood import FloodState, message_savings, naive_flood_count, run_flood
from .graph import Digraph, NodeId, random_connected_unit_disk
from .regions import (
    StretchBoundError,
    boundary_route,
    build_boundary_dual_graph,
    compute_boundary_cells,
    verify_cell_containment,
)


def multi_source_bfs(
    g: Digraph, seeds: Iterable[NodeId]
) -> dict[NodeId, tuple[int | None, frozenset]]:
    """Independent oracle: per node, (hop distance to nearest seed, argmin seed set).

    Plain per-seed breadth-first searches; unreached nodes get (None, empty).
    """
    seed_list = sorted(set(seeds))
    dist_from: dict[NodeId, dict[NodeId, int]] = {}
    for s in seed_list:
        d = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for nb in g.out_neighbors(v):
                if nb not in d:
                    d[nb] = d[v] + 1
                    queue.append(nb)
        dist_from[s] = d
    out: dict[NodeId, tuple[int | None, frozenset]] = {}
    for v in g.vertices:
        best = None
        argmin: list[NodeId] = []
        for s in seed_list:
            d = dist_from[s].get(v)
            if d is None:
                continue
            if best is None or d < best:
                best, argmin = d, [s]
            elif d == best:
                argmin.append(s)
        out[v] = (best, frozenset(argmin))
    return out


@dataclass(frozen=True)
class SuiteGraph:
    index: int
    g: Digraph
    seeds: tuple[NodeId, ...]


def random_suite(
    count: int,
    seed: int,
    min_nodes: int = 10,
    max_nodes: int = 50,
    min_seeds: int = 1,
    max_seeds: int = 5,
) -> Iterator[SuiteGraph]:
    """Deterministic stream of random connected unit-disk graphs with seeds."""
    rng = random.Random(f"{seed}:suite")
    for i in range(count):
        n = rng.randint(min_nodes, max_nodes)
        _, g = random_connected_unit_disk(n, rng)
        k = rng.randint(min_seeds, min(max_seeds, n))
        seeds = tuple(sorted(rng.sample(range(n), k)))
        yield SuiteGraph(i, g, seeds)


@dataclass
class ContainmentReport:
    graphs: int = 0
    nodes_checked: int = 0
    failures: list = field(default_factory=list)
    tie_nodes: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_containment_suite(suite: Iterable[SuiteGraph]) -> ContainmentReport:
    """Check every node's path-to-seed containment in hop cells on every
    suite graph, searching each graph's hop copy."""
    report = ContainmentReport()
    for item in suite:
        hops = item.g.with_weights([1.0] * item.g.arc_count)
        cells = compute_boundary_cells(hops, item.seeds)
        report.graphs += 1
        report.tie_nodes += len(cells.tie_nodes)
        for v in item.g.vertices:
            check = verify_cell_containment(hops, cells, v)
            report.nodes_checked += 1
            if not check.ok:
                report.failures.append((item.index, v, check.witness))
    return report


@dataclass
class StretchReport:
    graphs: int = 0
    pairs_checked: int = 0
    max_ratio_fraction: float = 0.0  # worst ratio/bound seen
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_stretch_suite(suite: Iterable[SuiteGraph], max_pairs: int | None = None) -> StretchReport:
    """Check boundary-route length against the arc-count bound on seed pairs.

    Cells are computed on the suite graph itself, in its euclidean weights,
    so membership and path lengths agree, which is what the bound requires.
    """
    report = StretchReport()
    for item in suite:
        if len(item.seeds) < 2:
            continue
        cells = compute_boundary_cells(item.g, item.seeds)
        dual = build_boundary_dual_graph(item.g, cells)
        report.graphs += 1
        for s in item.seeds:
            for t in item.seeds:
                if s == t:
                    continue
                if max_pairs is not None and report.pairs_checked >= max_pairs:
                    return report
                report.pairs_checked += 1
                try:
                    result = boundary_route(item.g, cells, dual, s, t)
                except StretchBoundError as exc:
                    report.violations.append((item.index, s, t, str(exc)))
                    continue
                if result is None or not result.bound:
                    continue
                frac = result.ratio / result.bound
                report.max_ratio_fraction = max(report.max_ratio_fraction, frac)
    return report


@dataclass
class FloodOracleReport:
    graphs: int = 0
    nodes_checked: int = 0
    mismatches: list = field(default_factory=list)
    min_savings: float = 1.0
    max_savings: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _flood_outcome(state: FloodState) -> tuple:
    return (state.distance, sorted(state.regions), state.tx_count, state.rx_count,
            state.discard_count)


def run_flood_oracle_suite(suite: Iterable[SuiteGraph]) -> FloodOracleReport:
    """Compare flood labels (distance, region set) against the BFS oracle.

    The untraced flood, which ``run_flood`` computes from the labelling, is
    also compared with the message-level flood (``trace=[]``) per node,
    message tallies included, and in totals, rounds and unreached nodes;
    those mismatches are listed as (graph, node or None, got, want).
    """
    report = FloodOracleReport()
    for item in suite:
        result = run_flood(item.g, item.seeds)
        messages = run_flood(item.g, item.seeds, trace=[])
        oracle = multi_source_bfs(item.g, item.seeds)
        report.graphs += 1
        for v in item.g.vertices:
            report.nodes_checked += 1
            st = result.states[v]
            want_dist, want_regions = oracle[v]
            if st.distance != want_dist or frozenset(st.regions) != want_regions:
                report.mismatches.append(
                    (item.index, v, st.distance, sorted(st.regions), want_dist,
                     sorted(want_regions))
                )
            got, want = _flood_outcome(st), _flood_outcome(messages.states[v])
            if got != want:
                report.mismatches.append((item.index, v, got, want))
        got = (result.totals, result.rounds, result.unreached)
        want = (messages.totals, messages.rounds, messages.unreached)
        if got != want:
            report.mismatches.append((item.index, None, got, want))
        savings = message_savings(result.totals, naive_flood_count(item.g, item.seeds))
        report.min_savings = min(report.min_savings, savings)
        report.max_savings = max(report.max_savings, savings)
    return report
