"""Graph core: construction, neighborhoods, and distance queries against
independent oracles (arc scans, BFS, Floyd-Warshall)."""

import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim.graph import (
    Digraph,
    NodePos,
    PathResult,
    build_unit_disk_digraph,
    hop_distance,
    is_connected,
    neighborhoods,
    perturb_weights,
    random_connected_unit_disk,
    set_distance,
    shortest_path,
    shortest_path_tree,
    shortest_paths,
    single_source_distances,
)


def path_graph(n, weight=1.0, prefix="v"):
    arcs = {}
    for i in range(n - 1):
        arcs[(f"{prefix}{i}", f"{prefix}{i+1}")] = weight
        arcs[(f"{prefix}{i+1}", f"{prefix}{i}")] = weight
    return Digraph([f"{prefix}{i}" for i in range(n)], arcs)


def random_digraph(rng, n, arc_prob=0.2, max_w=10.0):
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                arcs[(u, v)] = rng.uniform(0.1, max_w)
    return Digraph(range(n), arcs)


# -- oracles ---------------------------------------------------------------


def bfs_hops(g, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for nb in g.out_neighbors(v):
                if nb not in dist:
                    dist[nb] = dist[v] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def floyd_warshall(g):
    verts = g.vertices
    dist = {(u, v): math.inf for u in verts for v in verts}
    for v in verts:
        dist[(v, v)] = 0.0
    for u, v, w in g.arcs():
        dist[(u, v)] = min(dist[(u, v)], w)
    for k in verts:
        for i in verts:
            for j in verts:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


# -- unit disk construction --------------------------------------------------


def test_two_nodes_within_range():
    g = build_unit_disk_digraph([NodePos(0, 0, 0, 15), NodePos(1, 10, 0, 15)])
    assert g.has_arc(0, 1) and g.has_arc(1, 0)
    assert g.weight(0, 1) == pytest.approx(10.0)


def test_two_nodes_out_of_range():
    g = build_unit_disk_digraph([NodePos(0, 0, 0, 15), NodePos(1, 20, 0, 15)])
    assert g.arc_count == 0


def test_grid_is_four_neighbor_lattice():
    nodes = [
        NodePos(5 * r + c, 40.0 * c, 40.0 * r, 45.0)
        for r in range(5)
        for c in range(5)
    ]
    g = build_unit_disk_digraph(nodes)
    # oracle: brute-force pairwise distances
    expected = 0
    for a in nodes:
        for b in nodes:
            if a.id != b.id and a.distance_to(b) <= 45.0:
                expected += 1
    assert g.arc_count == expected == 80
    assert g.has_arc(0, 1) and g.has_arc(0, 5) and not g.has_arc(0, 6)


def test_duplicate_id_rejected():
    with pytest.raises(ValueError, match="duplicate node id 3"):
        build_unit_disk_digraph([NodePos(3, 0, 0, 5), NodePos(3, 1, 1, 5)])


def test_asymmetric_ranges_give_directed_arcs():
    g = build_unit_disk_digraph(
        [NodePos(0, 0, 0, 15), NodePos(1, 10, 0, 5)], symmetric=False
    )
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)


def test_unit_weight_mode():
    g = build_unit_disk_digraph(
        [NodePos(0, 0, 0, 15), NodePos(1, 10, 0, 15)], unit_weight=True
    )
    assert g.weight(0, 1) == 1.0


def test_digraph_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError, match="self-loop"):
        Digraph([0, 1], {(0, 0): 1.0})
    for w in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="non-positive"):
            Digraph([0, 1], {(0, 1): w})
    with pytest.raises(ValueError, match="unknown vertex"):
        Digraph([0, 1], {(0, 2): 1.0})


def from_dict(n, arcs):
    """``Digraph(range(n), ...)`` from ``(tail, head, weight)`` triples."""
    return Digraph(range(n), {(u, v): w for u, v, w in arcs})


def from_arrays(n, arcs):
    """The same graph through ``Digraph.from_arrays``: on ids 0..n-1 an arc's
    ends are its indices."""
    tails, heads, weights = zip(*arcs) if arcs else ((), (), ())
    return Digraph.from_arrays(range(n), tails, heads, weights)


@pytest.mark.parametrize("build", [from_dict, from_arrays], ids=["dict", "arrays"])
@pytest.mark.parametrize(
    "arcs, match",
    [
        ([(0, 3, 1.0)], r"arc \(0, 3\) references unknown vertex"),
        ([(0, 1, 1.0), (-1, 0, 1.0)], r"arc \(-1, 0\) references unknown vertex"),
        ([(0, 0, 1.0)], "self-loop on 0 not allowed"),
        ([(0, 1, 0.0)], r"arc \(0, 1\) has non-positive weight 0.0"),
        ([(0, 1, -1.0)], r"arc \(0, 1\) has non-positive weight -1.0"),
        ([(0, 1, math.nan)], r"arc \(0, 1\) has non-positive weight nan"),
        # the first bad arc in (tail, head) order, whatever the given order
        ([(2, 2, 1.0), (1, 2, -1.0), (1, 0, 0.0), (0, 1, 1.0)],
         r"arc \(1, 0\) has non-positive weight 0.0"),
        ([(1, 0, 0.0), (0, 0, 1.0)], "self-loop on 0 not allowed"),
        # an unknown vertex is reported before any other fault
        ([(0, 0, 1.0), (1, 3, 1.0), (2, 5, 1.0)], r"arc \(1, 3\) references unknown vertex"),
    ],
    ids=["unknown-head", "negative-index", "self-loop", "zero", "negative", "nan",
         "first-in-order", "self-loop-first", "unknown-first"],
)
def test_constructors_reject_the_same_first_arc(build, arcs, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        build(3, arcs)


def test_array_constructor_rejects_repeated_arcs_and_bad_arrays():
    with pytest.raises(ValueError, match=r"^duplicate arc \(0, 1\)$"):
        Digraph.from_arrays(range(3), [1, 0, 0], [2, 1, 1], [1.0, 2.0, 3.0])
    # a duplicate is reported where it comes in (tail, head) order
    with pytest.raises(ValueError, match="^self-loop on 0 not allowed$"):
        Digraph.from_arrays(range(3), [1, 0, 1], [2, 0, 2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        Digraph.from_arrays([1, 0], [0], [1], [1.0])
    with pytest.raises(ValueError, match="ascending"):
        Digraph.from_arrays([0, 0, 1], [0], [1], [1.0])
    with pytest.raises(ValueError, match="integer indices"):
        Digraph.from_arrays(range(2), [0.0], [1.0], [1.0])
    with pytest.raises(ValueError, match="one length"):
        Digraph.from_arrays(range(2), [0, 1], [1, 0], [1.0])
    # an index outside the vertices is named by itself, the rest by their ids
    with pytest.raises(ValueError, match=r"^arc \('b', 7\) references unknown vertex$"):
        Digraph.from_arrays("ab", [1, 0], [7, 1], [1.0, 1.0])


@pytest.mark.parametrize("build", [from_dict, from_arrays], ids=["dict", "arrays"])
def test_constructors_take_infinite_weights_alike(build):
    # an arc no power level reaches is priced at inf, so inf stays a weight
    g = build(3, [(1, 2, 1.0), (0, 1, math.inf)])
    assert g.weight(0, 1) == math.inf
    assert_same_adjacency(g, from_dict(3, [(0, 1, math.inf), (1, 2, 1.0)]))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_constructors_lay_out_graphs_without_arcs(n):
    for g in (from_dict(n, []), from_arrays(n, []), Digraph.from_arrays(range(n), [], [], [])):
        assert len(g) == n and g.arc_count == 0 and g.symmetric
        assert all(a.size == 0 for a in g.arc_arrays())
        assert_same_adjacency(g, Digraph(range(n), {}))
    # a one-node field: the builder's key sort over no pairs at all
    if n == 1:
        g = build_unit_disk_digraph([NodePos(4, 1.0, 2.0, 10.0)])
        assert g.vertices == (4,) and g.arc_count == 0


def test_array_constructor_equals_the_dict_constructor():
    rng = random.Random(131)
    graphs = asymmetric_graphs(137) + [tie_heavy_digraph(rng, 12) for _ in range(4)]
    graphs += [build_unit_disk_digraph(random_layout(rng, 40)), path_graph(6)]
    for g in graphs:
        arcs = list(g.arcs())
        rng.shuffle(arcs)
        rank = {v: k for k, v in enumerate(g.vertices)}
        tails = np.array([rank[u] for u, _, _ in arcs], np.int32)
        heads = np.array([rank[v] for _, v, _ in arcs], np.int32)
        got = Digraph.from_arrays(g.vertices, tails, heads, [w for _, _, w in arcs])
        assert_same_adjacency(got, g)
        assert_same_adjacency(Digraph(g.vertices, {(u, v): w for u, v, w in arcs}), g)


def test_builder_distances_are_math_hypot_bit_for_bit():
    from regionsim.graph import _hypot

    rng = np.random.default_rng(149)
    n = 200_000
    coords = [
        rng.random((2, n)) * 1280 - rng.random((2, n)) * 1280,
        rng.integers(-2000, 2000, (2, n)).astype(float),
        rng.random((2, n)) * 100 * (rng.random((2, n)) < 0.5),  # zeros on an axis
        np.stack([rng.random(n) * 100, rng.random(n) * 1e-6]),
        rng.standard_normal((2, n)) * 2.0 ** rng.integers(-1074, 1000, (2, n)),
        rng.standard_normal((2, n)) * 2.0 ** rng.integers(-1074, -1000, (2, n)),
    ]
    equal = rng.random(n) * 100
    coords.append(np.stack([equal, -equal]))
    for dx, dy in coords:
        got = _hypot(dx, dy)
        want = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
        assert got.tobytes() == want.tobytes()
    # int coordinates convert as math.hypot converts them
    ints = rng.integers(-(2**60), 2**60, (2, 1000))
    got = _hypot(*ints)
    assert got.tolist() == list(map(math.hypot, *ints.tolist()))


def all_pairs_unit_disk(nodes, symmetric=True, unit_weight=False):
    """Arcs of the unit-disk digraph by measuring every ordered pair."""
    arcs = {}
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                continue
            d = a.distance_to(b)
            reach = min(a.radio_range, b.radio_range) if symmetric else a.radio_range
            if d <= reach:
                arcs[(a.id, b.id)] = 1.0 if unit_weight else d
    return arcs


def random_layout(rng, n):
    """Mixed ranges and negative coordinates; about a third of the nodes sit
    on distinct multiples of the largest range, the edges of the build's grid."""
    lattice = [(20.0 * i, 20.0 * j) for i in range(-4, 5) for j in range(-4, 5)]
    on_edges = rng.sample(lattice, n // 3)
    inside = [(rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)) for _ in range(n - n // 3)]
    return [
        NodePos(i, x, y, rng.choice((5.0, 12.5, 20.0)))
        for i, (x, y) in enumerate(on_edges + inside)
    ]


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("unit_weight", [False, True])
def test_bucketed_build_equals_all_pairs(symmetric, unit_weight):
    rng = random.Random(41)
    for _ in range(60):
        nodes = random_layout(rng, rng.randint(1, 60))
        g = build_unit_disk_digraph(nodes, symmetric=symmetric, unit_weight=unit_weight)
        want = all_pairs_unit_disk(nodes, symmetric, unit_weight)
        got = {(u, v): w for u, v, w in g.arcs()}
        assert got.keys() == want.keys()
        assert all(got[a].hex() == want[a].hex() for a in want)


def assert_same_adjacency(g, ref):
    """Same vertices, and per vertex the same out- and in-neighbours in the
    same order, with bit-equal weights on both sides, and the same read-only
    arc arrays."""
    assert g.vertices == ref.vertices
    assert g.symmetric == ref.symmetric
    for v in ref.vertices:
        assert g.out_neighbors(v) == ref.out_neighbors(v)
        assert g.in_neighbors(v) == ref.in_neighbors(v)
        for nb in ref.out_neighbors(v):
            assert g.weight(v, nb).hex() == ref.weight(v, nb).hex()
        for nb in ref.in_neighbors(v):
            assert g.weight(nb, v).hex() == ref.weight(nb, v).hex()
    for got, want in zip(g.arc_arrays(), ref.arc_arrays()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable


def test_digraph_pickles_to_the_same_layout():
    import pickle

    nodes = random_layout(random.Random(3), 30)
    for g in (build_unit_disk_digraph(nodes), build_unit_disk_digraph(relabelled(nodes), False)):
        assert_same_adjacency(pickle.loads(pickle.dumps(g)), g)


def relabelled(nodes):
    """The same layout with string ids, whose sorted order is not the int order."""
    return [NodePos(f"n{n.id}", n.x, n.y, n.radio_range) for n in nodes]


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("unit_weight", [False, True])
def test_build_lays_out_adjacency_as_the_checked_constructor(symmetric, unit_weight):
    rng = random.Random(43)
    for _ in range(40):
        nodes = random_layout(rng, rng.randint(1, 60))
        for layout in (nodes, relabelled(nodes)):
            g = build_unit_disk_digraph(layout, symmetric=symmetric, unit_weight=unit_weight)
            want = all_pairs_unit_disk(layout, symmetric, unit_weight)
            assert_same_adjacency(g, Digraph((n.id for n in layout), want))


@pytest.mark.parametrize("field", ["default", "dense", "sparse"])
@pytest.mark.parametrize("seed", [1, 2])
def test_build_lays_out_field_adjacency_as_the_checked_constructor(field, seed):
    from regionsim.scenario import ScenarioConfig, deploy

    config = {
        "default": ScenarioConfig(),
        "dense": ScenarioConfig(node_count=280),
        "sparse": ScenarioConfig(
            area_width=640.0, area_height=640.0, node_count=1120, radio_range=60.0
        ),
    }[field]
    d = deploy(config, seed)
    g = build_unit_disk_digraph([d.nodes[v] for v in sorted(d.nodes)])
    assert_same_adjacency(g, Digraph(g.vertices, {(u, v): w for u, v, w in g.arcs()}))


def test_bucketed_build_keeps_arc_rounded_onto_range():
    # the true distance is just over 64 but rounds to exactly 64.0
    a = NodePos(0, math.nextafter(64.0, 0.0), 0.0, 64.0)
    b = NodePos(1, 128.0, 0.0, 64.0)
    assert a.distance_to(b) == 64.0
    for symmetric in (True, False):
        g = build_unit_disk_digraph([a, b], symmetric=symmetric)
        assert g.has_arc(0, 1) and g.has_arc(1, 0)


def test_bucketed_build_keeps_pair_whose_squared_distance_rounds_over_range():
    # the range is the pair's own rounded distance, but the rounded squares
    # sum to more than the rounded square of the range: the prefilter keeps it
    rng = random.Random(5)
    found = 0
    while found < 20:
        a = NodePos(0, rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), 1.0)
        x, y = a.x + rng.uniform(1.0, 100.0), a.y + rng.uniform(1.0, 100.0)
        dx, dy = a.x - x, a.y - y
        reach = math.hypot(dx, dy)
        if dx * dx + dy * dy <= reach * reach:
            continue
        found += 1
        nodes = [NodePos(0, a.x, a.y, reach), NodePos(1, x, y, reach)]
        for symmetric in (True, False):
            g = build_unit_disk_digraph(nodes, symmetric=symmetric)
            assert g.has_arc(0, 1) and g.has_arc(1, 0)
            assert g.weight(0, 1) == reach


def test_coincident_nodes_rejected_unless_unit_weight():
    nodes = [NodePos(0, 3.0, 4.0, 10.0), NodePos(1, 50.0, 0.0, 10.0), NodePos(2, 3.0, 4.0, 10.0)]
    with pytest.raises(ValueError, match="nodes 0 and 2 are coincident"):
        build_unit_disk_digraph(nodes)
    g = build_unit_disk_digraph(nodes, unit_weight=True)
    assert g.has_arc(0, 2) and g.has_arc(2, 0) and g.arc_count == 2


@pytest.mark.parametrize(
    "x, y, radio_range, message",
    [
        (math.nan, 0.0, 5.0, "position must be finite"),
        (0.0, math.inf, 5.0, "position must be finite"),
        (-math.inf, 0.0, 5.0, "position must be finite"),
        (0.0, 0.0, math.nan, "radio_range must be > 0"),
        (0.0, 0.0, 0.0, "radio_range must be > 0"),
    ],
)
def test_node_position_and_range_validated(x, y, radio_range, message):
    with pytest.raises(ValueError, match=message):
        NodePos(7, x, y, radio_range)


# -- neighborhoods -----------------------------------------------------------


def test_isolated_vertex_neighborhood():
    g = Digraph([0, 1], {})
    nb = neighborhoods(g, 0)
    assert nb.in_nodes == nb.out_nodes == frozenset()
    assert nb.in_degree == nb.out_degree == 0


def test_single_arc_neighborhood():
    g = Digraph(["a", "b"], {("a", "b"): 1.0})
    nb = neighborhoods(g, "b")
    assert nb.in_nodes == frozenset({"a"})
    assert nb.out_nodes == frozenset()
    assert nb.all_nodes == frozenset({"a"})


def test_neighborhoods_match_arc_scan():
    rng = random.Random(5)
    g = random_digraph(rng, 15)
    for v in g.vertices:
        ins = {u for u, w, _ in g.arcs() if w == v}
        outs = {w for u, w, _ in g.arcs() if u == v}
        nb = neighborhoods(g, v)
        assert nb.in_nodes == ins
        assert nb.out_nodes == outs
        assert nb.all_nodes == ins | outs
        # combined size never exceeds the degree sum; equal iff disjoint
        assert len(nb.all_nodes) <= nb.in_degree + nb.out_degree
        if ins.isdisjoint(outs):
            assert len(nb.all_nodes) == nb.in_degree + nb.out_degree


def test_neighborhoods_unknown_vertex():
    g = Digraph([0], {})
    with pytest.raises(ValueError, match="unknown vertex"):
        neighborhoods(g, 99)


def test_arc_membership_invariant():
    rng = random.Random(9)
    g = random_digraph(rng, 12)
    for u, v, _ in g.arcs():
        assert u in neighborhoods(g, v).in_nodes
        assert v in neighborhoods(g, u).out_nodes


# -- hop distance ------------------------------------------------------------


def test_hop_distance_to_self_is_zero():
    g = Digraph([0], {})
    assert hop_distance(g, 0, 0) == 0


def test_hop_distance_forced_route():
    g = Digraph("abc", {("a", "b"): 1.0, ("b", "c"): 1.0})
    assert hop_distance(g, "a", "c") == 2


def test_hop_distance_matches_bfs_all_pairs():
    rng = random.Random(17)
    g = random_digraph(rng, 20)
    for u in g.vertices:
        oracle = bfs_hops(g, u)
        for v in g.vertices:
            assert hop_distance(g, u, v) == oracle.get(v)


def test_hop_distance_unreachable_is_none():
    g = Digraph([0, 1], {})
    assert hop_distance(g, 0, 1) is None


# -- shortest path -----------------------------------------------------------


def test_shortest_path_self_is_empty():
    g = Digraph([7], {})
    p = shortest_path(g, 7, 7)
    assert p.vertices == (7,) and p.length == 0.0 and p.hops == 0


def test_shortest_path_disconnected_unreachable():
    g = Digraph([0, 1, 2, 3], {(0, 1): 1.0, (2, 3): 1.0})
    assert shortest_path(g, 0, 3) is None


def test_shortest_path_matches_floyd_warshall():
    rng = random.Random(23)
    g = random_digraph(rng, 20)
    oracle = floyd_warshall(g)
    for u in g.vertices:
        for v in g.vertices:
            p = shortest_path(g, u, v)
            if math.isinf(oracle[(u, v)]):
                assert p is None
            else:
                assert p.length == pytest.approx(oracle[(u, v)])
                # the returned sequence must be a real walk of that length
                total = sum(
                    g.weight(a, b) for a, b in zip(p.vertices, p.vertices[1:])
                )
                assert total == pytest.approx(p.length)


def test_shortest_path_lexicographic_tie_break():
    # two equal-length routes 0->3: (0,1,3) and (0,2,3); lex smallest wins
    g = Digraph(range(4), {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 1.0, (2, 3): 1.0})
    assert shortest_path(g, 0, 3).vertices == (0, 1, 3)


def tie_heavy_digraph(rng, n, arc_prob=0.3):
    """Small integer weights, so many vertices have several shortest paths."""
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                arcs[(u, v)] = float(rng.randint(1, 3))
    return Digraph(range(n), arcs)


def reversed_digraph(g):
    return Digraph(g.vertices, {(v, u): w for u, v, w in g.arcs()})


@pytest.mark.parametrize("unit", [False, True])
def test_shortest_paths_tree_matches_single_paths(unit):
    rng = random.Random(37)
    for g in (tie_heavy_digraph(rng, 12), random_digraph(rng, 12)):
        h = g.with_weights([1.0] * g.arc_count) if unit else g
        for s in g.vertices:
            tree = shortest_paths(h, s)
            for v in g.vertices:
                assert tree.get(v) == shortest_path(h, s, v)


def test_shortest_paths_stops_once_target_settles():
    rng = random.Random(41)
    g = tie_heavy_digraph(rng, 12)
    full = shortest_paths(g, 0)
    for t in full:
        part = shortest_paths(g, 0, target=t)
        assert part[t] == full[t]
        assert all(full[v] == p and p.length <= full[t].length for v, p in part.items())


def priced(g, price):
    """``g`` with each arc (u, v, w) weighing ``price(u, v, w)`` instead."""
    return g.with_weights([price(u, v, w) for u, v, w in g.arcs()])


def test_shortest_paths_reverse_equals_reversed_graph():
    rng = random.Random(43)
    squared = lambda u, v, w: w * w + u / 100.0  # noqa: E731 - depends on the tail
    for g in (tie_heavy_digraph(rng, 12), random_digraph(rng, 12)):
        rg = reversed_digraph(g)
        swapped = lambda u, v, w: squared(v, u, w)  # noqa: E731
        pg, prg = priced(g, squared), priced(rg, swapped)
        for s in g.vertices:
            tree = shortest_paths(g, s, reverse=True)
            priced_tree = shortest_paths(pg, s, reverse=True)
            for v in g.vertices:
                assert tree.get(v) == shortest_path(rg, s, v)
                assert priced_tree.get(v) == shortest_path(prg, s, v)


def path_tuple_tree(g, source, target=None, price=None, unit=False, reverse=False):
    """Reference search: heap entries carry the whole candidate path, so
    equal-length paths pop in lexicographic order.  ``price(u, v, w)``, if
    given, is each arc's cost in place of its weight w."""
    tree = {}
    tentative = {source: 0.0}
    heap = [(0.0, (source,))]
    while heap:
        d, path = heapq.heappop(heap)
        v = path[-1]
        if v in tree:
            continue
        tree[v] = PathResult(path, d, len(path) - 1)
        if v == target:
            break
        for nb in g.in_neighbors(v) if reverse else g.out_neighbors(v):
            if nb in tree:
                continue
            w = g.weight(nb, v) if reverse else g.weight(v, nb)
            if unit:
                cost = 1.0
            elif price is None:
                cost = w
            else:
                cost = price(*((nb, v) if reverse else (v, nb)), w)
            nd = d + cost
            if nd > tentative.get(nb, math.inf):
                continue
            tentative[nb] = nd
            heapq.heappush(heap, (nd, path + (nb,)))
    return tree


def string_ids(g):
    """The same digraph on string ids, whose sorted order is not the int order."""
    return Digraph((f"v{v}" for v in g.vertices), {(f"v{u}", f"v{v}"): w for u, v, w in g.arcs()})


def tie_heavy_graphs(seed):
    rng = random.Random(seed)
    graphs = [tie_heavy_digraph(rng, rng.randint(2, 25), rng.choice([0.15, 0.3, 0.6]))
              for _ in range(30)]
    # float ids 0.0, 1.0, ... equal their indices without being ints
    floats = [Digraph(map(float, g.vertices), {(float(u), float(v)): w for u, v, w in g.arcs()})
              for g in graphs[:3]]
    return graphs + [string_ids(g) for g in graphs[:10]] + floats


SQUARED = lambda u, v, w: w * w  # noqa: E731 - integer weights, so ties stay exact
# "unit" (hops) and "weight_fn", a function of each arc, SQUARED, are priced
# into the arcs up front; the path-tuple oracle prices them itself
METRICS = ["weight", "unit", "weight_fn"]


def metric_search(g, metric):
    """The graph that searches ``g`` under ``metric``, and the path-tuple
    oracle's keywords for the same metric on ``g`` itself."""
    if metric == "weight_fn":
        return priced(g, SQUARED), {"price": SQUARED}
    if metric == "unit":
        return g.with_weights([1.0] * g.arc_count), {"unit": True}
    return g, {}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("reverse", [False, True])
def test_parent_tree_equals_path_tuple_oracle(metric, reverse):
    for g in tie_heavy_graphs(61):
        h, oracle = metric_search(g, metric)
        for s in g.vertices:
            want = path_tuple_tree(g, s, reverse=reverse, **oracle)
            assert shortest_paths(h, s, reverse=reverse) == want
            dist, parent = shortest_path_tree(h, s, reverse=reverse)
            assert dist == {v: p.length for v, p in want.items()}
            assert {v: parent[v] for v in dist} == {
                v: p.vertices[-2] if p.hops else None for v, p in want.items()
            }
            assert single_source_distances(h, s, reverse=reverse) == dist


@pytest.mark.parametrize("metric", METRICS)
def test_parent_search_stopped_at_a_target_equals_path_tuple_oracle(metric):
    for g in tie_heavy_graphs(67):
        h, oracle = metric_search(g, metric)
        for s in g.vertices:
            full = path_tuple_tree(g, s, **oracle)
            for t in g.vertices:
                got = shortest_paths(h, s, target=t)
                assert (t in got) == (t in full)
                assert all(full[v] == p for v, p in got.items())
                assert shortest_path(h, s, t) == full.get(t)


def test_next_hops_equal_path_tuple_oracle():
    from regionsim.routing import _tree_next_hops, build_mte_table

    def oracle_next_hops(g, sink, price):
        tree = path_tuple_tree(g, sink, price=price, reverse=True)
        return {v: p.vertices[-2] for v, p in tree.items() if v != sink}

    for g in tie_heavy_graphs(71):
        squared = priced(g, SQUARED)
        for sink in g.vertices:
            assert _tree_next_hops(g, sink) == oracle_next_hops(g, sink, None)
            assert _tree_next_hops(squared, sink) == oracle_next_hops(g, sink, SQUARED)
            mte = oracle_next_hops(g, sink, lambda u, v, w: w**3.0)
            assert build_mte_table(g, sink, alpha=3.0).next_hop == mte


def test_equal_length_tie_compares_the_head_against_a_longer_path():
    # (0, 5) and (0, 1, 5) both weigh 2; 0 is a prefix of (0, 1), but with the
    # head the sequences compare 1 < 5, so 5 takes the path through 1
    g = Digraph(range(6), {(0, 5): 2.0, (0, 1): 1.0, (1, 5): 1.0})
    assert shortest_paths(g, 0)[5].vertices == (0, 1, 5)
    assert shortest_path_tree(g, 0)[1][5] == 1
    # and the direct arc stays when the head is the smaller vertex
    g = Digraph(range(3), {(1, 0): 2.0, (1, 2): 1.0, (2, 0): 1.0})
    assert shortest_path(g, 1, 0).vertices == (1, 0)


def disjoint_union(rng, symmetric):
    """Two to four tie-heavy digraphs on interleaved int ids, as one graph
    and as its components, each through the public constructor."""
    comps = []
    for _ in range(rng.randint(2, 4)):
        g = tie_heavy_digraph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4]))
        if symmetric:
            g = Digraph(g.vertices, {a: w for u, v, w in g.arcs() for a in ((u, v), (v, u))})
        comps.append(g)
    ids = list(range(sum(map(len, comps))))
    rng.shuffle(ids)
    relabelled = []
    for g in comps:
        name = dict(zip(g.vertices, ids))
        del ids[: len(g)]
        relabelled.append(Digraph(name.values(), {(name[u], name[v]): w for u, v, w in g.arcs()}))
    union = Digraph(
        (v for g in relabelled for v in g.vertices),
        {(u, v): w for g in relabelled for u, v, w in g.arcs()},
    )
    return union, relabelled


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("symmetric", [False, True])
def test_multi_source_tree_is_each_components_own_tree(metric, reverse, symmetric):
    rng = random.Random(83)
    for _ in range(60):
        union, comps = disjoint_union(rng, symmetric)
        union, _ = metric_search(union, metric)
        comps = [metric_search(g, metric)[0] for g in comps]
        assert union.symmetric or not symmetric
        # at most one source per component, in any order; some have none
        sources = [rng.choice(g.vertices) for g in comps if rng.random() < 0.8]
        rng.shuffle(sources)
        dist, parent = shortest_path_tree(union, tuple(sources), reverse=reverse)
        want_dist, want_parent = {}, {}
        for g in comps:
            for s in (s for s in sources if s in g):
                d, p = shortest_path_tree(g, s, reverse=reverse)
                want_dist |= d
                want_parent |= p
        assert dist == want_dist
        assert parent == want_parent
        assert single_source_distances(union, tuple(sources), reverse=reverse) == want_dist


def unchecked(g, weights):
    """``g`` with ``weights`` laid out past the constructors' checks, so that
    a search meets costs that only its own check stops."""
    tails, heads, _ = g.arc_arrays()
    return Digraph._from_arcs(g.vertices, tails, heads, np.array(weights, float))


def test_arc_from_a_vertex_at_inf_settles_its_head_at_inf():
    g = Digraph(range(3), {(0, 1): math.inf, (1, 2): 1.0})
    assert shortest_path(g, 0, 2) == PathResult((0, 1, 2), math.inf, 2)
    assert shortest_path_tree(g, 0) == (
        {0: 0.0, 1: math.inf, 2: math.inf}, {0: None, 1: 0, 2: 1}
    )
    # a cost that is not positive still raises there
    for cost in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="non-positive weight"):
            g.with_weights([math.inf, cost])
        with pytest.raises(ValueError, match="does not lengthen"):
            shortest_path(unchecked(g, [math.inf, cost]), 0, 2)


@pytest.mark.parametrize("cost", [0.0, -1.0, math.nan])
def test_non_positive_cost_raises(cost):
    g = path_graph(3)
    with pytest.raises(ValueError, match="non-positive weight"):
        g.with_weights([cost] * g.arc_count)
    with pytest.raises(ValueError, match="does not lengthen"):
        shortest_path(unchecked(g, [cost] * g.arc_count), "v0", "v2")


def test_positive_cost_lost_to_rounding_raises():
    # ulp(1e16) is 2, so (1e16 + 2) + 0.5 rounds back to 1e16 + 2: the route
    # through 2 ties the one through 3 only after 1 has settled through 3.
    # The path-tuple search settles (0, 2, 1); parents cannot, so it raises.
    g = Digraph(range(4), {(0, 2): 1e16 + 2, (0, 3): 1e16, (3, 1): 2.0, (2, 1): 0.5})
    assert path_tuple_tree(g, 0)[1].vertices == (0, 2, 1)
    with pytest.raises(ValueError, match="does not lengthen"):
        shortest_path_tree(g, 0)
    with pytest.raises(ValueError, match="does not lengthen"):
        shortest_path(g, 0, 1)


def test_shortest_paths_ties_on_exact_float_sums():
    # 0.1 + 0.2 != 0.3 in floats: the direct arc is strictly shorter even
    # though (0, 1, 3) is the lexicographically smaller sequence
    g = Digraph(range(4), {(0, 1): 0.1, (1, 3): 0.2, (0, 3): 0.3})
    assert shortest_paths(g, 0)[3].vertices == (0, 3)


def same_part_scan(g, part):
    """The oracle of ``within_parts``: every arc of ``g`` whose two ends lie in
    the same part, through the public constructor."""
    return Digraph(g.vertices, {
        (u, v): w for u, v, w in g.arcs() if u in part and v in part and part[u] == part[v]
    })


def assert_parts_hold_induced_rows(g, part, within):
    """Each part's rows in ``within`` are those of its subgraph built through
    the public constructor, and searches on the two agree."""
    for p in set(part.values()):
        members = {v for v, q in part.items() if q == p}
        sub = Digraph(members, {(u, v): w for u, v, w in g.arcs() if u in members and v in members})
        for v in sub.vertices:
            assert within.out_neighbors(v) == sub.out_neighbors(v)
            assert within.in_neighbors(v) == sub.in_neighbors(v)
            for nb in sub.out_neighbors(v):
                assert within.weight(v, nb).hex() == sub.weight(v, nb).hex()
            for reverse in (False, True):
                assert shortest_paths(within, v, reverse=reverse) == shortest_paths(
                    sub, v, reverse=reverse
                )


def test_within_parts_equals_full_arc_scan():
    from regionsim.checks import random_suite
    from regionsim.regions import compute_boundary_cells

    rng = random.Random(47)
    for item in random_suite(30, seed=5):
        g = item.g
        cells = compute_boundary_cells(g.with_weights([1.0] * g.arc_count), item.seeds)
        half = rng.sample(g.vertices, len(g) // 2)
        parts = [
            cells.cell_of,
            {v: rng.randrange(3) for v in half},  # the other half in no part
            dict.fromkeys(g.vertices, "all"),
            {v: v for v in g.vertices},
            {},
        ]
        for part in parts:
            within = g.within_parts(part)
            scan = same_part_scan(g, part)
            assert list(within.arcs()) == list(scan.arcs())
            assert_same_adjacency(within, scan)
        assert_parts_hold_induced_rows(g, cells.cell_of, g.within_parts(cells.cell_of))


def asymmetric_graphs(seed):
    """Digraphs whose in-rows are laid out apart from their out-rows: random
    arcs, and unit-disk builds with mixed radio ranges, on int and string ids."""
    rng = random.Random(seed)
    graphs = [random_digraph(rng, rng.randint(2, 25), rng.choice([0.1, 0.3])) for _ in range(10)]
    for _ in range(10):
        nodes = random_layout(rng, rng.randint(2, 40))
        graphs.append(build_unit_disk_digraph(nodes, symmetric=False))
    return graphs + [string_ids(g) for g in graphs]


def test_within_parts_equals_full_arc_scan_on_asymmetric_digraphs():
    rng = random.Random(53)
    graphs = asymmetric_graphs(59)
    assert sum(not g.symmetric for g in graphs) >= 30
    assert any(isinstance(g.vertices[0], str) and not g.symmetric for g in graphs)
    for g in graphs:
        parts = [{}, dict.fromkeys(g.vertices, 0), {g.vertices[-1]: 0}]
        for _ in range(4):
            members = rng.sample(g.vertices, rng.randint(1, len(g)))
            parts.append({v: rng.randrange(rng.randint(1, 4)) for v in members})
        for part in parts:
            within = g.within_parts(part)
            scan = same_part_scan(g, part)
            assert list(within.arcs()) == list(scan.arcs())
            assert_same_adjacency(within, scan)
            assert_parts_hold_induced_rows(g, part, within)


def test_symmetric_needs_every_reverse_at_the_same_weight():
    assert path_graph(3).symmetric
    assert Digraph(range(3), {}).symmetric
    assert not Digraph(range(2), {(0, 1): 1.0}).symmetric
    assert not Digraph(range(2), {(0, 1): 1.0, (1, 0): 2.0}).symmetric
    g = build_unit_disk_digraph([NodePos(0, 0, 0, 20), NodePos(1, 10, 0, 5)], symmetric=False)
    assert not g.symmetric and g.in_neighbors(0) == () and g.out_neighbors(0) == (1,)


def test_with_weights_equals_a_rebuild_through_the_constructor():
    rng = random.Random(89)
    graphs = asymmetric_graphs(97) + [tie_heavy_digraph(rng, 10) for _ in range(5)]
    graphs += [build_unit_disk_digraph(random_layout(rng, 30)), path_graph(4), Digraph(range(3), {})]
    for g in graphs:
        before = [(u, v, w.hex()) for u, v, w in g.arcs()]
        pricings = [
            lambda u, v, w: w * w,
            lambda u, v, w: rng.choice([0.5, 1.0, math.inf]),
            lambda u, v, w: rng.uniform(0.1, 3.0),
        ]
        for price in pricings:
            weights = [price(u, v, w) for u, v, w in g.arcs()]
            got = g.with_weights(weights)
            want = Digraph(g.vertices, {(u, v): w for (u, v, _), w in zip(g.arcs(), weights)})
            assert_same_adjacency(got, want)
            assert [(u, v, w.hex()) for u, v, w in g.arcs()] == before
            for s in g.vertices:
                for reverse in (False, True):  # the in-rows carry the new weights too
                    assert shortest_paths(got, s, reverse=reverse) == shortest_paths(
                        want, s, reverse=reverse
                    )


def test_with_weights_reuses_the_rows_on_symmetric_and_asymmetric_weights():
    # each graph lays out the next one's rows, so a chain of pricings passes
    # rows from symmetric to asymmetric weights and back
    rng = random.Random(101)
    graphs = [build_unit_disk_digraph(random_layout(rng, 30)), path_graph(5)]
    graphs += asymmetric_graphs(103)[::4]
    seen = set()
    for g in graphs:
        h = g
        for step in range(4):
            if step % 2:
                pair = {}
                weights = [pair.setdefault(frozenset((u, v)), rng.uniform(0.1, 3.0))
                           for u, v, _ in g.arcs()]
            else:
                weights = [rng.uniform(0.1, 3.0) for _ in range(g.arc_count)]
            h = h.with_weights(weights)
            want = Digraph(g.vertices, {(u, v): w for (u, v, _), w in zip(g.arcs(), weights)})
            assert [(u, v, w.hex()) for u, v, w in h.arcs()] == [
                (u, v, w.hex()) for u, v, w in want.arcs()]
            assert h.symmetric == want.symmetric
            seen.add(h.symmetric)
            for v in g.vertices:
                assert h.in_neighbors(v) == want.in_neighbors(v)
                # the reverse search reads the in-rows' weights
                assert shortest_paths(h, v, reverse=True) == shortest_paths(
                    want, v, reverse=True)
    assert seen == {False, True}


def test_with_weights_works_out_symmetric():
    g = path_graph(4)
    assert g.symmetric
    assert g.with_weights([w * w for w in g.arc_arrays()[2].tolist()]).symmetric
    assert not g.with_weights(range(1, g.arc_count + 1)).symmetric
    lopsided = Digraph(range(2), {(0, 1): 1.0, (1, 0): 2.0})
    assert not lopsided.symmetric
    assert lopsided.with_weights([3.0, 3.0]).symmetric
    one_way = Digraph(range(2), {(0, 1): 1.0})
    assert not one_way.with_weights([1.0]).symmetric


@pytest.mark.parametrize(
    "weights, match",
    [
        ([1.0, 1.0], "2 weights for 3 arcs"),
        ([1.0] * 4, "4 weights for 3 arcs"),
        ([1.0, 0.0, 1.0], r"arc \(1, 0\) has non-positive weight 0.0"),
        ([1.0, 1.0, -2.0], r"arc \(1, 2\) has non-positive weight -2.0"),
        ([math.nan, 1.0, 1.0], r"arc \(0, 1\) has non-positive weight nan"),
    ],
)
def test_with_weights_rejects_what_the_constructor_rejects(weights, match):
    g = Digraph(range(3), {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0})
    with pytest.raises(ValueError, match=match):
        g.with_weights(weights)
    assert g.with_weights([math.inf, 1.0, 2.0]).weight(0, 1) == math.inf


def test_vertex_reached_only_at_infinite_cost_settles_at_inf():
    # 2 is reached only over arcs priced at inf: it settles at inf, and of its
    # two inf routes keeps the one with the smaller sequence, (0, 1, 2)
    g = Digraph(range(3), {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (2, 0): 1.0})
    for ids in (lambda v: v, lambda v: f"v{v}"):
        h = g if ids(0) == 0 else string_ids(g)
        price = lambda u, v, w: math.inf if v == ids(2) else w  # noqa: E731
        dist, parent = shortest_path_tree(priced(h, price), ids(0))
        assert dist == {ids(0): 0.0, ids(1): 1.0, ids(2): math.inf}
        assert parent == {ids(0): None, ids(1): ids(0), ids(2): ids(1)}
        want = PathResult((ids(0), ids(1), ids(2)), math.inf, 2)
        assert shortest_path(priced(h, price), ids(0), ids(2)) == want
        assert path_tuple_tree(h, ids(0), price=price)[ids(2)] == want


def test_within_parts_rejects_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex"):
        path_graph(3).within_parts({"v0": 0, "x": 0})


def test_arcs_come_in_tail_head_order():
    from regionsim.checks import random_suite

    rng = random.Random(23)
    graphs = []
    for _ in range(30):
        n = rng.randint(2, 25)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        rng.shuffle(pairs)  # insertion order must not matter
        graphs.append(Digraph(range(n), {p: rng.uniform(0.1, 5.0) for p in pairs}))
    graphs += [item.g for item in random_suite(20, seed=9)]
    for g in graphs:
        part = {v: rng.randrange(2) for v in rng.sample(g.vertices, len(g) // 2)}
        for sub in (g, g.within_parts(part)):
            keys = [(u, v) for u, v, _ in sub.arcs()]
            assert keys == sorted(keys)
            assert len(keys) == sub.arc_count


def test_hop_equals_weighted_length_in_unit_mode():
    rng = random.Random(31)
    g = random_digraph(rng, 15)
    hops = g.with_weights([1.0] * g.arc_count)
    for u in g.vertices:
        for v in g.vertices:
            p = shortest_path(hops, u, v)
            h = hop_distance(g, u, v)
            assert (p is None) == (h is None)
            if p is not None:
                assert p.length == h == p.hops


def test_perturb_weights_breaks_ties_reproducibly():
    g = Digraph(range(4), {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 1.0, (2, 3): 1.0})
    g1 = perturb_weights(g, seed=4)
    g2 = perturb_weights(g, seed=4)
    for u, v, w in g1.arcs():
        assert w == g2.weight(u, v)
        assert w != g.weight(u, v)
    lengths = {
        shortest_path(g1, 0, 3).length
        for _ in range(2)
    }
    assert len(lengths) == 1


def test_perturb_weights_equals_a_rebuild_through_the_constructor():
    rng = random.Random(19)
    graphs = asymmetric_graphs(29) + [tie_heavy_digraph(rng, 12), path_graph(5)]
    for seed, g in enumerate(graphs):
        draws = random.Random(seed)
        want = Digraph(g.vertices, {(u, v): w + draws.random() * 1e-6 for u, v, w in g.arcs()})
        got = perturb_weights(g, seed, scale=1e-6)
        assert [(u, v, w.hex()) for u, v, w in got.arcs()] == [
            (u, v, w.hex()) for u, v, w in want.arcs()
        ]
        assert got.symmetric == want.symmetric
        assert_same_adjacency(got, want)


# -- set distance ------------------------------------------------------------


def test_set_distance_membership_is_zero():
    g = path_graph(4)
    assert set_distance(g, "v1", {"v1", "v3"}) == 0.0


def test_set_distance_single_route():
    g = Digraph("abc", {("a", "b"): 2.0, ("b", "c"): 3.0})
    assert set_distance(g, "a", {"c"}) == pytest.approx(5.0)


def test_set_distance_matches_exhaustive_min():
    rng = random.Random(41)
    g = random_digraph(rng, 14)
    oracle = floyd_warshall(g)
    for _ in range(20):
        sources = rng.sample(range(14), 3)
        targets = rng.sample(range(14), 3)
        want = min(oracle[(s, t)] for s in sources for t in targets)
        got = set_distance(g, sources, targets)
        if math.isinf(want):
            assert got is None
        else:
            assert got == pytest.approx(want)


def test_set_distance_equals_min_of_per_source_searches():
    # integer weights tie often; the one multi-source search must still give
    # each vertex the very float of its nearest source's own search
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 16)
        g = tie_heavy_digraph(rng, n, rng.choice([0.15, 0.3, 0.6]))
        sources = rng.sample(range(n), rng.randint(1, n))
        targets = rng.sample(range(n), rng.randint(1, n))
        per_source = [single_source_distances(g, s) for s in sources]
        want = min((d[t] for d in per_source for t in targets if t in d), default=None)
        assert set_distance(g, sources, targets) == want


def test_set_distance_empty_target_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError, match="empty target set"):
        set_distance(g, "v0", set())


def test_triangle_inequality():
    rng = random.Random(53)
    g = random_digraph(rng, 12, arc_prob=0.35)
    dist = {v: single_source_distances(g, v) for v in g.vertices}
    for x in g.vertices:
        for y in g.vertices:
            for z in g.vertices:
                if y in dist[x] and z in dist[y] and z in dist[x]:
                    assert dist[x][z] <= dist[x][y] + dist[y][z] + 1e-9


@pytest.mark.parametrize("reverse", [False, True])
def test_single_source_distances_match_floyd_warshall(reverse):
    rng = random.Random(59)
    g = random_digraph(rng, 20)
    oracle = floyd_warshall(g)
    for s in g.vertices:
        dist = single_source_distances(g, s, reverse=reverse)
        for v in g.vertices:
            want = oracle[(v, s)] if reverse else oracle[(s, v)]
            if math.isinf(want):
                assert v not in dist
            else:
                assert dist[v] == pytest.approx(want)


# -- connectivity ------------------------------------------------------------


def test_is_connected_false_when_disconnected():
    assert not is_connected(Digraph(range(4), {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0}))


def test_is_connected_single_vertex():
    assert is_connected(Digraph([3], {}))


def test_is_connected_asymmetric_reach_from_smallest_id():
    # 0 reaches every vertex, but no vertex reaches 0: connected as documented
    assert is_connected(Digraph(range(3), {(0, 1): 1.0, (1, 2): 1.0}))


def test_hop_searches_count_arcs_whatever_the_weights():
    # 1e20 + 1.0 does not lengthen 1e20, so a search of these weights raises;
    # is_connected and hop_distance search the hop graph and never meet it
    g = Digraph(range(3), {(0, 1): 1e20, (1, 2): 1.0})
    with pytest.raises(ValueError, match="does not lengthen"):
        shortest_path(g, 0, 2)
    assert is_connected(g)
    assert hop_distance(g, 0, 2) == 2


# -- properties --------------------------------------------------------------


@given(st.integers(min_value=2, max_value=12), st.integers())
@settings(max_examples=30, deadline=None)
def test_symmetric_build_pairs_arcs(n, seed):
    rng = random.Random(seed)
    nodes = [
        NodePos(i, rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 40))
        for i in range(n)
    ]
    g = build_unit_disk_digraph(nodes, symmetric=True)
    for u, v, w in g.arcs():
        assert g.has_arc(v, u)
        assert g.weight(v, u) == w


@given(st.integers(min_value=1, max_value=25), st.integers())
@settings(max_examples=20, deadline=None)
def test_random_connected_generator(n, seed):
    nodes, g = random_connected_unit_disk(n, seed)
    assert len(g) == n
    assert is_connected(g)
    # symmetric by construction
    for u, v, _ in g.arcs():
        assert g.has_arc(v, u)
