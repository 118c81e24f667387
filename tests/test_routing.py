"""Routing protocols: table construction, walks, and the five route builders."""

import itertools
import math
import random

import pytest

from regionsim.energy import RX, TX, EnergyParams, rx_energy, tx_energy
from regionsim.flood import cells_from_flood, run_flood
from regionsim.graph import Digraph, NodePos, build_unit_disk_digraph
from regionsim.regions import build_boundary_dual_graph, compute_boundary_cells, dual_route
from regionsim.routing import (
    PROTOCOLS,
    CycleError,
    RouteNotFound,
    RoutingTable,
    _hop_joules,
    _or_priced_graph,
    build_mte_table,
    build_res_tables,
    characteristic_distance,
    level_range,
    level_reaches,
    min_level_for_distance,
    packet_energy,
    per_packet_charges,
    route,
    walk_table,
)

PARAMS = EnergyParams()


def line_nodes(count, spacing, reach):
    return {i: NodePos(i, spacing * i, 0.0, reach) for i in range(count)}


def squared(g):
    """``g`` with each arc weighing its weight squared."""
    return g.with_weights([w**2 for w in g.arc_arrays()[2].tolist()])


def res_pipeline(g, seeds, sink):
    result = run_flood(g, seeds)
    cells = cells_from_flood(g, seeds, result.states)
    dual = build_boundary_dual_graph(g, cells)
    return build_res_tables(cells, dual, sink)


# -- power level geometry ---------------------------------------------------------


def test_level_ranges_monotone_and_anchored():
    ranges = [level_range(PARAMS, l, 180.0, 2.0) for l in range(10)]
    assert ranges[-1] == pytest.approx(180.0)
    assert all(a < b for a, b in zip(ranges, ranges[1:]))


def test_min_level_for_distance():
    assert min_level_for_distance(PARAMS, 180.0, 180.0, 2.0) == 9
    assert min_level_for_distance(PARAMS, 0.5, 180.0, 2.0) == 0
    assert min_level_for_distance(PARAMS, 181.0, 180.0, 2.0) is None
    lvl = min_level_for_distance(PARAMS, 45.0, 180.0, 2.0)
    assert level_range(PARAMS, lvl, 180.0, 2.0) >= 45.0
    assert lvl > 0 and level_range(PARAMS, lvl - 1, 180.0, 2.0) < 45.0


def test_characteristic_distance_is_a_level_reach():
    d = characteristic_distance(PARAMS, 180.0, 2.0)
    reaches = [level_range(PARAMS, l, 180.0, 2.0) for l in range(10)]
    assert any(d == pytest.approx(r) for r in reaches)


def uncached_reaches(params, radio_range, alpha):
    top = 10.0 ** (params.level_dbms[-1] / 10.0)
    return [
        radio_range * (10.0 ** (dbm / 10.0) / top) ** (1.0 / alpha)
        for dbm in params.level_dbms
    ]


def uncached_min_level(params, distance, radio_range, alpha):
    for level, reach in enumerate(uncached_reaches(params, radio_range, alpha)):
        if reach >= distance - 1e-9:
            return level
    return None


def test_cached_level_reaches_follow_the_uncached_rule():
    tables = {}
    for radio_range in (30.0, 60.0, 120.5, 180.0):
        for alpha in (2.0, 2.5, 4.0):
            reaches = level_reaches(PARAMS, radio_range, alpha)
            want = uncached_reaches(PARAMS, radio_range, alpha)
            assert [r.hex() for r in reaches] == [r.hex() for r in want]
            assert [r.hex() for r in reaches] == [
                level_range(PARAMS, level, radio_range, alpha).hex() for level in range(10)
            ]
            for reach in reaches:
                for d in (reach - 1e-9, reach, reach + 1e-9):
                    assert min_level_for_distance(PARAMS, d, radio_range, alpha) == (
                        uncached_min_level(PARAMS, d, radio_range, alpha)
                    )
            tables[radio_range, alpha] = reaches
    for (r1, a1), t1 in tables.items():
        assert level_reaches(PARAMS, r1, a1) is t1
        for (r2, a2), t2 in tables.items():
            if (r1 == r2) != (a1 == a2):  # differ only in range or only in alpha
                assert t1 is not t2 and t1 != t2


# -- res tables --------------------------------------------------------------------


def test_res_route_on_six_node_path():
    # seeds at both ends, sink at one end: the walk crosses at the chosen arc
    nodes = line_nodes(6, 10.0, 12.0)
    g = build_unit_disk_digraph(nodes.values())
    tables = res_pipeline(g, [0, 5], sink=5)
    assert walk_table(tables, 1, 5) == (1, 2, 3, 4, 5)
    assert walk_table(tables, 0, 5) == (0, 1, 2, 3, 4, 5)


def test_res_same_cell_uses_intra_cell_tree():
    nodes = line_nodes(6, 10.0, 12.0)
    g = build_unit_disk_digraph(nodes.values())
    tables = res_pipeline(g, [0, 5], sink=5)
    assert walk_table(tables, 4, 5) == (4, 5)
    assert walk_table(tables, 3, 5) == (3, 4, 5)


def test_res_all_seeds_degenerates_to_shortest_path():
    rng = random.Random(61)
    from regionsim.graph import random_connected_unit_disk, shortest_path

    nodes, g = random_connected_unit_disk(15, rng)
    node_map = {n.id: n for n in nodes}
    sink = 14
    tables = res_pipeline(g, list(range(15)), sink)
    for src in range(14):
        r = route("res", g, node_map, src, sink, PARAMS, tables=tables)
        direct = shortest_path(g, src, sink)
        assert r.vertices == direct.vertices


def test_res_routes_cross_cells_only_at_dual_crossings():
    rng = random.Random(67)
    from regionsim.graph import random_connected_unit_disk

    nodes, g = random_connected_unit_disk(30, rng)
    seeds = [3, 17, 26]
    result = run_flood(g, seeds)
    cells = cells_from_flood(g, seeds, result.states)
    dual = build_boundary_dual_graph(g, cells)
    tables = build_res_tables(cells, dual, sink=0)
    crossings = {arc.crossing for arc in dual.arcs.values()}
    for src in g.vertices:
        if src == 0 or src in tables.stranded:
            continue
        verts = walk_table(tables, src, 0)
        for a, b in zip(verts, verts[1:]):
            if cells.cell_of[a] != cells.cell_of[b]:
                assert (a, b) in crossings


def test_res_tables_when_the_flood_never_reaches_the_sink():
    # a four-node line and a sink 1 km off it, out of every node's range
    nodes = line_nodes(4, 10.0, 15.0) | {4: NodePos(4, 1000.0, 0.0, 15.0)}
    g = build_unit_disk_digraph(nodes.values())
    assert g.out_neighbors(4) == () and g.in_neighbors(4) == ()
    seeds = [0, 3]
    result = run_flood(g, seeds)
    cells = cells_from_flood(g, seeds, result.states)
    dual = build_boundary_dual_graph(g, cells)
    assert 4 not in cells.cell_of and sorted(cells.cell_of) == [0, 1, 2, 3]
    tables = build_res_tables(cells, dual, 4)
    assert tables == RoutingTable(sink=4, next_hop={}, stranded=(0, 1, 2, 3))
    for src in range(4):
        with pytest.raises(RouteNotFound):
            route("res", g, nodes, src, 4, PARAMS, tables=tables)
    # a sink outside the graph is still an error
    with pytest.raises(ValueError, match="not a vertex of the cell graph"):
        build_res_tables(cells, dual, 99)


def symmetric_digraph(weights):
    arcs = {}
    for (u, v), w in weights.items():
        arcs[(u, v)] = arcs[(v, u)] = w
    return Digraph({c for key in weights for c in key}, arcs)


def singleton_cells_tables(g, sink):
    cells = compute_boundary_cells(g, g.vertices)
    dual = build_boundary_dual_graph(g, cells)
    return dual, build_res_tables(cells, dual, sink)


def test_res_exit_arc_ties_on_sink_first_cell_sequence():
    # every node is its own cell; cell 0 reaches sink 5 by two routes of
    # equal weight.  The exit arc follows the sink-first cell sequence
    # (5, 3, 2, 0) < (5, 4, 1, 0), not the forward one (0, 1, 4, 5) that
    # dual_route takes from cell 0.
    g = symmetric_digraph(
        {(0, 1): 1.0, (1, 4): 1.0, (4, 5): 1.0, (0, 2): 1.0, (2, 3): 1.0, (3, 5): 1.0}
    )
    dual, tables = singleton_cells_tables(g, sink=5)
    assert tables.next_hop[0] == 2
    assert walk_table(tables, 0, 5) == (0, 2, 3, 5)
    assert [a.crossing for a in dual_route(dual, 0, 5)] == [(0, 1), (1, 4), (4, 5)]


def test_res_exit_arc_ties_on_exact_float_sums():
    # 0.1 + 0.2 > 0.3 in floats: cell 5 exits straight to sink 0, although
    # the sink-first sequence (0, 1, 5) is smaller than (0, 5)
    g = symmetric_digraph({(0, 1): 0.1, (1, 5): 0.2, (0, 5): 0.3})
    _, tables = singleton_cells_tables(g, sink=0)
    assert tables.next_hop[5] == 0


def test_res_intra_cell_tie_follows_sink_first_sequence():
    # one cell, two unit routes 5->0: the reversed tree's path (0, 3, 2, 5)
    # is smaller than (0, 4, 1, 5), so 5 forwards to 2, not to the smaller
    # next hop 1
    g = symmetric_digraph({(5, 1): 1.0, (1, 4): 1.0, (4, 0): 1.0,
                           (5, 2): 1.0, (2, 3): 1.0, (3, 0): 1.0})
    tables = res_pipeline(g, [0], sink=0)
    assert tables.next_hop[5] == 2
    assert walk_table(tables, 5, 0) == (5, 2, 3, 0)


def test_res_walk_segments_are_reversed_intra_cell_tree_paths():
    from regionsim.graph import random_connected_unit_disk, shortest_paths

    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(8, 30)
        _, unit_disk = random_connected_unit_disk(n, rng)
        g = symmetric_digraph(
            {(u, v): float(rng.randint(1, 3)) for u, v, _ in unit_disk.arcs() if u < v}
        )
        seeds = sorted(rng.sample(range(n), rng.randint(1, 4)))
        sink = rng.randrange(n)
        result = run_flood(g, seeds)
        cells = cells_from_flood(g, seeds, result.states)
        dual = build_boundary_dual_graph(g, cells)
        tables = build_res_tables(cells, dual, sink)
        for src in g.vertices:
            if src == sink or src in tables.stranded:
                continue
            verts = walk_table(tables, src, sink)
            for cell, run in itertools.groupby(verts, key=cells.cell_of.get):
                segment = tuple(run)
                members = set(cells.canonical_members(cell))
                sub = Digraph(
                    members, {(u, v): w for u, v, w in g.arcs() if u in members and v in members}
                )
                tree = shortest_paths(sub, segment[-1], reverse=True)
                assert segment == tree[segment[0]].vertices[::-1]


def test_res_walk_terminates_within_vertex_count():
    rng = random.Random(71)
    from regionsim.graph import random_connected_unit_disk

    for _ in range(10):
        n = rng.randint(8, 40)
        nodes, g = random_connected_unit_disk(n, rng)
        seeds = sorted(rng.sample(range(n), rng.randint(1, 4)))
        sink = rng.randrange(n)
        tables = res_pipeline(g, seeds, sink)
        for src in g.vertices:
            if src == sink or src in tables.stranded:
                continue
            verts = walk_table(tables, src, sink)
            assert len(verts) <= n


def test_cell_graph_holds_the_same_cell_arcs_and_tables_build_no_graph(monkeypatch):
    from regionsim.checks import random_suite
    from regionsim.regions import boundary_route
    from regionsim.scenario import ScenarioConfig, deploy

    cases = []  # (graph, cells, sink, seed pairs to route between)
    for item in random_suite(20, seed=13):
        cells = compute_boundary_cells(item.g, item.seeds)
        pairs = list(itertools.permutations(item.seeds, 2))
        cases.append((item.g, cells, item.g.vertices[0], pairs))
    deployment = deploy(ScenarioConfig(), 2)
    nodes = deployment.nodes
    g = build_unit_disk_digraph([nodes[v] for v in sorted(nodes)], symmetric=True)
    flood = run_flood(g, deployment.seeds)
    cells = cells_from_flood(g, deployment.seeds, flood.states)
    cases.append((g, cells, deployment.sink_id, []))

    built = []  # every Digraph laid out, through either constructor
    lay_out = Digraph._lay_out

    def counting_lay_out(self, *args):
        built.append(args[0])
        lay_out(self, *args)

    monkeypatch.setattr(Digraph, "_lay_out", counting_lay_out)
    for g, cells, sink, pairs in cases:
        built.clear()
        dual = build_boundary_dual_graph(g, cells)
        # the cell graph and the dual Digraph, nothing per cell
        assert built == [g.vertices, cells.seeds]
        cell_of = cells.cell_of
        scan = [(u, v, w) for u, v, w in g.arcs()
                if u in cell_of and v in cell_of and cell_of[u] == cell_of[v]]
        assert dual.cell_graph.vertices == g.vertices
        assert list(dual.cell_graph.arcs()) == scan
        assert dual.cell_graph.symmetric or not g.symmetric
        built.clear()
        build_res_tables(cells, dual, sink)
        for s, t in pairs:
            boundary_route(g, cells, dual, s, t)
        assert built == []


def test_or_raises_route_not_found_when_an_arc_outruns_its_tail_range():
    # 0 -> 1 is 50 m but 0 reaches 30 m: no level prices it, so the only
    # route costs inf and its first hop exceeds the range
    nodes = {0: NodePos(0, 0.0, 0.0, 30.0), 1: NodePos(1, 50.0, 0.0, 60.0),
             2: NodePos(2, 100.0, 0.0, 60.0)}
    g = Digraph(nodes, {(0, 1): 50.0, (1, 2): 50.0})
    with pytest.raises(RouteNotFound, match="exceeds max range"):
        route("or", g, nodes, 0, 2, PARAMS)


def test_or_prices_levels_by_the_rule_of_min_level_for_distance():
    # arcs at each level's reach of their tail's range, at reach + 1e-9, one
    # ulp to either side of both, and lengths drawn at random, some past the
    # top reach; sensors are the heads of both billings, the sink of one
    rng = random.Random(101)
    bits = 2048.0
    for _ in range(20):
        alpha = rng.choice([2.0, 2.5, 4.0])
        nodes = {v: NodePos(v, 0.0, 0.0, rng.choice([30.0, 60.0, 120.5, 180.0]))
                 for v in range(rng.randint(2, 12))}
        arcs = {}
        for u, v in itertools.permutations(nodes, 2):
            lengths = [rng.uniform(0.1, 1.1 * nodes[u].radio_range)]
            for reach in level_reaches(PARAMS, nodes[u].radio_range, alpha):
                for d in (reach, reach + 1e-9):
                    lengths += [math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)]
            arcs[u, v] = rng.choice(lengths)
        g = Digraph(nodes, arcs)
        sink = rng.choice(g.vertices)
        priced = _or_priced_graph(g, nodes, sink, PARAMS, alpha, bits)
        assert [(u, v) for u, v, _ in priced.arcs()] == [(u, v) for u, v, _ in g.arcs()]
        for u, v, w in g.arcs():
            level = min_level_for_distance(PARAMS, w, nodes[u].radio_range, alpha)
            assert level == uncached_min_level(PARAMS, w, nodes[u].radio_range, alpha)
            want = math.inf if level is None else _hop_joules(PARAMS, bits, level, v != sink)
            assert priced.weight(u, v).hex() == want.hex()


def test_or_routes_equal_the_path_tuple_oracle_under_per_arc_prices():
    from test_graph import path_tuple_tree

    rng = random.Random(103)
    bits = 1024.0
    for _ in range(25):
        alpha = rng.choice([2.0, 3.0])
        count = rng.randint(3, 30)
        build = [NodePos(v, rng.uniform(0, 120), rng.uniform(0, 120), rng.choice([30.0, 45.0, 60.0]))
                 for v in range(count)]
        g = build_unit_disk_digraph(build, symmetric=rng.random() < 0.5)
        # some sensors reach less than the graph was built with, so that no
        # level prices a few of their arcs
        nodes = {n.id: NodePos(n.id, n.x, n.y, n.radio_range * rng.choice([1.0, 1.0, 0.7]))
                 for n in build}
        sink = rng.choice(g.vertices)

        def price(u, v, w):
            level = min_level_for_distance(PARAMS, w, nodes[u].radio_range, alpha)
            if level is None:
                return math.inf
            joules = tx_energy(bits, level, PARAMS)
            if v != sink:
                joules += rx_energy(bits, PARAMS)
            return joules

        prebuilt = _or_priced_graph(g, nodes, sink, PARAMS, alpha, bits)
        for src in g.vertices:
            if src == sink:
                continue
            want = path_tuple_tree(g, src, sink, price=price).get(sink)
            for tables in (prebuilt, None):
                args = ("or", g, nodes, src, sink, PARAMS, alpha, tables, bits)
                if want is None:
                    with pytest.raises(RouteNotFound, match="unreachable"):
                        route(*args)
                elif want.length == math.inf:
                    with pytest.raises(RouteNotFound, match="exceeds max range"):
                        route(*args)
                else:
                    r = route(*args)
                    assert r.vertices == want.vertices
                    assert packet_energy(r, PARAMS, bits) == want.length


def test_or_priced_graph_is_asymmetric_at_the_sink():
    # a symmetric line: into the sink a hop bills no reception, out of it one
    nodes = line_nodes(4, 10.0, 25.0)
    g = build_unit_disk_digraph(nodes.values())
    assert g.symmetric
    priced = _or_priced_graph(g, nodes, 3, PARAMS, 2.0, 1024.0)
    assert not priced.symmetric
    assert priced.weight(2, 3) < priced.weight(3, 2)
    assert priced.weight(1, 2) == priced.weight(2, 1)
    from test_graph import path_tuple_tree

    from regionsim.graph import shortest_paths

    for s in priced.vertices:
        want = path_tuple_tree(priced, s, reverse=True)
        assert shortest_paths(priced, s, reverse=True) == want


def test_walk_single_hop():
    tables = RoutingTable(sink=1, next_hop={0: 1}, stranded=())
    assert walk_table(tables, 0, 1) == (0, 1)


def test_walk_detects_corrupted_cycle():
    tables = RoutingTable(sink=9, next_hop={0: 1, 1: 0}, stranded=())
    with pytest.raises(CycleError, match="cycle"):
        walk_table(tables, 0, 9)


def test_walk_stuck_raises_route_not_found():
    tables = RoutingTable(sink=9, next_hop={}, stranded=(0,))
    with pytest.raises(RouteNotFound):
        walk_table(tables, 0, 9)


# -- protocol routes ----------------------------------------------------------------


def test_adjacent_pair_all_protocols_single_hop():
    nodes = line_nodes(2, 10.0, 50.0)
    g = build_unit_disk_digraph(nodes.values())
    tables = res_pipeline(g, [0], sink=1)
    for proto in ("res", "dt", "mte", "merr", "or"):
        r = route(proto, g, nodes, 0, 1, PARAMS, tables=tables)
        assert r.vertices == (0, 1), proto
        assert len(r.levels) == 1


def test_dt_uses_minimal_covering_level():
    nodes = {0: NodePos(0, 0, 0, 180.0), 1: NodePos(1, 100.0, 0, 180.0)}
    g = build_unit_disk_digraph(nodes.values())
    r = route("dt", g, nodes, 0, 1, PARAMS)
    want = min_level_for_distance(PARAMS, 100.0, 180.0, 2.0)
    assert r.levels == (want,)


def test_dt_out_of_range_fails():
    nodes = {0: NodePos(0, 0, 0, 50.0), 1: NodePos(1, 40.0, 0, 50.0), 2: NodePos(2, 80.0, 0, 50.0)}
    g = build_unit_disk_digraph(nodes.values())
    with pytest.raises(RouteNotFound, match="dt"):
        route("dt", g, nodes, 0, 2, PARAMS)


def test_mte_prefers_three_short_hops():
    # collinear chain, spacing 40, alpha 2: 3*40^2 < 120^2
    nodes = line_nodes(4, 40.0, 150.0)
    g = build_unit_disk_digraph(nodes.values())
    r = route("mte", g, nodes, 0, 3, PARAMS)
    assert r.vertices == (0, 1, 2, 3)


def test_mte_tie_follows_sink_first_sequence():
    # 5 reaches sink 0 directly (5^2 = 25) or through 1 (3^2 + 4^2 = 25), an
    # exact tie.  The sink tree's path (0, 1, 5) is smaller than (0, 5), so 5
    # forwards to 1, where a search from 5 would take the smaller (5, 0).
    from regionsim.graph import shortest_paths

    g = symmetric_digraph({(5, 1): 3.0, (1, 0): 4.0, (5, 0): 5.0})
    nodes = {v: NodePos(v, float(v), 0.0, 180.0) for v in g.vertices}
    tree = shortest_paths(squared(g), 0, reverse=True)
    r = route("mte", g, nodes, 5, 0, PARAMS)
    assert r.vertices == tree[5].vertices[::-1] == (5, 1, 0)


def test_mte_walks_the_sink_tree_of_minimum_energy_paths():
    from regionsim.graph import random_connected_unit_disk, shortest_path

    def energy(verts):
        return sum(g.weight(u, v) ** 2 for u, v in zip(verts, verts[1:]))

    rng = random.Random(97)
    for _ in range(20):
        node_list, g = random_connected_unit_disk(rng.randint(8, 30), rng)
        nodes = {n.id: n for n in node_list}
        sink = rng.choice(g.vertices)
        table = build_mte_table(g, sink)
        assert table.protocol == "mte" and table.stranded == ()
        for src in g.vertices:
            if src == sink:
                continue
            r = route("mte", g, nodes, src, sink, PARAMS)
            assert r.vertices == walk_table(table, src, sink)
            assert r == route("mte", g, nodes, src, sink, PARAMS, tables=table)
            best = shortest_path(squared(g), src, sink)
            assert energy(r.vertices) == pytest.approx(best.length, rel=1e-12)


def test_mte_unreachable_source_raises_route_not_found():
    # two components: {0, 1} and {2, 3}
    nodes = {
        0: NodePos(0, 0.0, 0.0, 15.0),
        1: NodePos(1, 10.0, 0.0, 15.0),
        2: NodePos(2, 100.0, 0.0, 15.0),
        3: NodePos(3, 110.0, 0.0, 15.0),
    }
    g = build_unit_disk_digraph(nodes.values())
    table = build_mte_table(g, 0)
    assert table.next_hop == {1: 0}
    assert table.stranded == (2, 3)
    with pytest.raises(RouteNotFound, match="^mte: no route from 3"):
        walk_table(table, 3, 0)
    with pytest.raises(RouteNotFound, match="^mte: no route from 2"):
        route("mte", g, nodes, 2, 0, PARAMS)
    assert route("mte", g, nodes, 1, 0, PARAMS, tables=table).vertices == (1, 0)
    with pytest.raises(ValueError, match="res tables"):
        route("res", g, nodes, 1, 0, PARAMS, tables=table)


def test_merr_progress_and_termination():
    nodes = line_nodes(8, 30.0, 100.0)
    g = build_unit_disk_digraph(nodes.values())
    r = route("merr", g, nodes, 0, 7, PARAMS)
    assert r.vertices[0] == 0 and r.vertices[-1] == 7
    # strict progress toward the sink at every hop
    for a, b in zip(r.vertices, r.vertices[1:]):
        assert nodes[b].distance_to(nodes[7]) < nodes[a].distance_to(nodes[7]) or b == 7


def test_merr_stuck_raises():
    # only neighbor leads away from the sink: greedy has no progress move
    nodes = {
        0: NodePos(0, 0.0, 0.0, 15.0),
        1: NodePos(1, -10.0, 0.0, 15.0),
        2: NodePos(2, 100.0, 0.0, 15.0),
    }
    g = build_unit_disk_digraph(nodes.values())
    with pytest.raises(RouteNotFound, match="merr"):
        route("merr", g, nodes, 0, 2, PARAMS)


def test_or_matches_exhaustive_search():
    rng = random.Random(83)
    from regionsim.graph import random_connected_unit_disk

    node_list, g = random_connected_unit_disk(8, rng, side=60.0, radio_range=30.0)
    nodes = {n.id: n for n in node_list}
    sink = 7
    bits = 1024.0

    def path_cost(verts):
        total = 0.0
        for u, v in zip(verts, verts[1:]):
            d = nodes[u].distance_to(nodes[v])
            lvl = min_level_for_distance(PARAMS, d, nodes[u].radio_range, 2.0)
            total += tx_energy(bits, lvl, PARAMS)
            if v != sink:
                total += rx_energy(bits, PARAMS)
        return total

    for src in range(7):
        r = route("or", g, nodes, src, sink, PARAMS, bits=bits)
        got = packet_energy(r, PARAMS, bits)
        # oracle: enumerate every simple path
        best = None
        middles = [v for v in g.vertices if v not in (src, sink)]
        for k in range(len(middles) + 1):
            for order in itertools.permutations(middles, k):
                verts = (src, *order, sink)
                if all(g.has_arc(a, b) for a, b in zip(verts, verts[1:])):
                    cost = path_cost(verts)
                    best = cost if best is None else min(best, cost)
        assert got == pytest.approx(best)


def test_or_prices_check_the_packet_size():
    nodes = line_nodes(3, 20.0, 50.0)
    g = build_unit_disk_digraph(nodes.values())
    with pytest.raises(ValueError, match="bits must be > 0"):
        route("or", g, nodes, 0, 2, PARAMS, bits=0.0)


def test_or_lower_bounds_other_protocols():
    rng = random.Random(89)
    from regionsim.graph import random_connected_unit_disk

    node_list, g = random_connected_unit_disk(35, rng, side=160.0, radio_range=190.0)
    nodes = {n.id: n for n in node_list}
    sink = 0
    seeds = sorted(rng.sample(range(1, 35), 4))
    tables = res_pipeline(g, seeds, sink)
    for src in range(1, 35):
        base = route("or", g, nodes, src, sink, PARAMS)
        e_or = packet_energy(base, PARAMS, 1024.0)
        for proto in ("res", "dt", "mte", "merr"):
            try:
                r = route(proto, g, nodes, src, sink, PARAMS, tables=tables)
            except RouteNotFound:
                continue
            assert e_or <= packet_energy(r, PARAMS, 1024.0) + 1e-12, (src, proto)


def test_route_rejects_source_equals_sink():
    nodes = line_nodes(2, 10.0, 50.0)
    g = build_unit_disk_digraph(nodes.values())
    with pytest.raises(ValueError, match="source equals sink"):
        route("dt", g, nodes, 0, 0, PARAMS)


def test_route_unknown_protocol():
    nodes = line_nodes(2, 10.0, 50.0)
    g = build_unit_disk_digraph(nodes.values())
    with pytest.raises(ValueError, match="unknown protocol"):
        route("dsr", g, nodes, 0, 1, PARAMS)


def test_per_packet_charges_skip_sink_rx():
    nodes = line_nodes(3, 10.0, 15.0)
    g = build_unit_disk_digraph(nodes.values())
    r = route("mte", g, nodes, 0, 2, PARAMS)
    charges = per_packet_charges(r, PARAMS, 1000.0)
    nodes_charged = {(n, m) for n, m, _ in charges}
    assert (0, TX) in nodes_charged
    assert (1, TX) in nodes_charged and (1, RX) in nodes_charged
    assert not any(n == 2 for n, _, _ in charges)  # sink is mains powered


@pytest.mark.parametrize("bits", [1000.0, 1024.0])
def test_packet_energy_is_the_left_fold_of_hop_prices(bits):
    rng = random.Random(101)
    from regionsim.graph import random_connected_unit_disk

    node_list, g = random_connected_unit_disk(30, rng, side=150.0, radio_range=70.0)
    nodes = {n.id: n for n in node_list}
    sink = 0
    tables = res_pipeline(g, sorted(rng.sample(range(1, 30), 5)), sink)
    routed, multi_hop = set(), set()
    for src in range(1, 30):
        for proto in PROTOCOLS:
            try:
                r = route(proto, g, nodes, src, sink, PARAMS, tables=tables, bits=bits)
            except RouteNotFound:
                continue
            want = 0.0
            for v, level in zip(r.vertices[1:], r.levels):
                hop = tx_energy(bits, level, PARAMS)
                if v != sink:
                    hop += rx_energy(bits, PARAMS)
                want += hop
            assert packet_energy(r, PARAMS, bits) == want, (src, proto)
            routed.add(proto)
            if r.hops > 1:
                multi_hop.add(proto)
    assert routed == set(PROTOCOLS)
    assert multi_hop == {"res", "mte", "merr", "or"}
