"""Boundary cells, the dual graph, boundary routing and the tightness instance."""

import random

import pytest

from regionsim.graph import Digraph, NodePos, build_unit_disk_digraph
from regionsim.regions import (
    BoundaryDualGraph,
    DualArc,
    StretchBoundError,
    boundary_route,
    build_boundary_dual_graph,
    compute_boundary_cells,
    dual_route,
    verify_cell_containment,
    worst_case_construction,
)
from regionsim.scenario import ScenarioConfig


def path_graph(n, weight=1.0):
    arcs = {}
    for i in range(n - 1):
        arcs[(f"v{i}", f"v{i+1}")] = weight
        arcs[(f"v{i+1}", f"v{i}")] = weight
    return Digraph([f"v{i}" for i in range(n)], arcs)


def multi_source_hops(g, seeds):
    """Oracle: per node, (min hop distance to a seed, argmin seed set)."""
    per_seed = {}
    for s in seeds:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for nb in g.in_neighbors(v):  # distance node->seed
                    if nb not in dist:
                        dist[nb] = dist[v] + 1
                        nxt.append(nb)
            frontier = nxt
        per_seed[s] = dist
    out = {}
    for v in g.vertices:
        pairs = [(per_seed[s][v], s) for s in seeds if v in per_seed[s]]
        if pairs:
            best = min(d for d, _ in pairs)
            out[v] = (best, {s for d, s in pairs if d == best})
    return out


# -- cells -------------------------------------------------------------------


def test_single_seed_owns_everything():
    g = path_graph(5)
    cells = compute_boundary_cells(g, ["v2"])
    assert cells.members["v2"] == frozenset(g.vertices)
    assert not cells.tie_nodes


def test_six_node_path_cells():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    oracle = multi_source_hops(g, ["v0", "v5"])
    for v in g.vertices:
        assert set(cells.owners[v]) == oracle[v][1]
        assert cells.dist_to_seed[v] == oracle[v][0]
    assert cells.members["v0"] == frozenset({"v0", "v1", "v2"})
    assert cells.members["v5"] == frozenset({"v3", "v4", "v5"})
    assert not cells.tie_nodes


def test_five_node_path_tie():
    g = path_graph(5)
    cells = compute_boundary_cells(g, ["v0", "v4"])
    assert cells.tie_nodes == frozenset({"v2"})
    assert set(cells.owners["v2"]) == {"v0", "v4"}
    assert cells.cell_of["v2"] == "v0"  # canonical: smallest seed id
    assert "v2" in cells.members["v0"] and "v2" in cells.members["v4"]


def test_stranded_node_rejected():
    g = Digraph([0, 1, 2], {(0, 1): 1.0, (1, 0): 1.0})
    with pytest.raises(ValueError, match="node 2 cannot reach any seed"):
        compute_boundary_cells(g, [0])


def test_seed_must_be_vertex():
    g = path_graph(3)
    with pytest.raises(ValueError, match="not a vertex"):
        compute_boundary_cells(g, ["nope"])


def test_cell_membership_minimizes_distance():
    rng = random.Random(77)
    from regionsim.graph import random_connected_unit_disk, single_source_distances

    for _ in range(10):
        _, g = random_connected_unit_disk(rng.randint(8, 30), rng)
        seeds = sorted(rng.sample(range(len(g)), rng.randint(1, 3)))
        hops = g.with_weights([1.0] * g.arc_count)
        cells = compute_boundary_cells(hops, seeds)
        to_seed = {s: single_source_distances(hops, s, reverse=True) for s in seeds}
        for v in g.vertices:
            own = cells.cell_of[v]
            for w in seeds:
                if v in to_seed[w]:
                    assert to_seed[own][v] <= to_seed[w][v]


# -- containment -------------------------------------------------------------


def test_containment_seed_itself():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    check = verify_cell_containment(g, cells, "v0")
    assert check.ok and check.path.vertices == ("v0",)


def test_containment_path_enumeration():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    check = verify_cell_containment(g, cells, "v2")
    assert check.ok
    assert check.path.vertices == ("v2", "v1", "v0")
    assert all(v in cells.members["v0"] for v in check.path.vertices)


def test_containment_random_suite():
    rng = random.Random(101)
    from regionsim.graph import random_connected_unit_disk

    for _ in range(10):
        _, g = random_connected_unit_disk(30, rng)
        seeds = sorted(rng.sample(range(30), 3))
        hops = g.with_weights([1.0] * g.arc_count)
        cells = compute_boundary_cells(hops, seeds)
        for v in g.vertices:
            check = verify_cell_containment(hops, cells, v)
            assert check.ok, (v, check.witness)


# -- dual graph ----------------------------------------------------------------


def test_single_cell_dual_has_no_arcs():
    g = path_graph(4)
    cells = compute_boundary_cells(g, ["v0"])
    dual = build_boundary_dual_graph(g, cells)
    assert dual.cells == ("v0",)
    assert dual.arcs == {}


def test_six_node_path_dual_weight():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    dual = build_boundary_dual_graph(g, cells)
    arc = dual.arcs[("v0", "v5")]
    # d(v0,v2) + w(v2,v3) + d(v3,v5) = 2 + 1 + 2
    assert arc.weight == pytest.approx(5.0)
    assert arc.crossing == ("v2", "v3")


def test_lattice_quadrant_dual_arcs():
    # 4x4 grid, 4 quadrant seeds: dual arcs exactly between side-adjacent quadrants
    nodes = [NodePos(4 * r + c, 10.0 * c, 10.0 * r, 10.0) for r in range(4) for c in range(4)]
    g = build_unit_disk_digraph(nodes)
    seeds = [0, 3, 12, 15]  # corners anchor the quadrants
    cells = compute_boundary_cells(g.with_weights([1.0] * g.arc_count), seeds)
    dual = build_boundary_dual_graph(g, cells)
    pairs = set(dual.arcs)
    side_adjacent = {
        (0, 3), (3, 0), (0, 12), (12, 0), (3, 15), (15, 3), (12, 15), (15, 12)
    }
    assert pairs == side_adjacent


def test_dual_weight_never_exceeds_any_crossing_composition():
    rng = random.Random(33)
    from regionsim.graph import random_connected_unit_disk, single_source_distances

    _, g = random_connected_unit_disk(25, rng)
    seeds = sorted(rng.sample(range(25), 4))
    # hop cells on a euclidean graph, as a run builds them
    cells = compute_boundary_cells(g.with_weights([1.0] * g.arc_count), seeds)
    dual = build_boundary_dual_graph(g, cells)
    # oracle: recompute the three-term composition for every crossing arc
    for (su, sv), arc in dual.arcs.items():
        mu = cells.canonical_members(su)
        mv = cells.canonical_members(sv)
        sub_u = Digraph(mu, {(a, b): w for a, b, w in g.arcs() if a in set(mu) and b in set(mu)})
        sub_v = Digraph(mv, {(a, b): w for a, b, w in g.arcs() if a in set(mv) and b in set(mv)})
        du = single_source_distances(sub_u, su)
        dv = single_source_distances(sub_v, sv, reverse=True)
        for a, b, w in g.arcs():
            if cells.cell_of[a] == su and cells.cell_of[b] == sv:
                if a in du and b in dv:
                    assert arc.weight <= du[a] + w + dv[b] + 1e-9


def reference_dual_arcs(g, cells):
    """Dual arcs by a loop over ``g.arcs()``: a pair's first crossing arc
    creates it, and only a strictly smaller composition replaces it."""
    from regionsim.graph import single_source_distances

    inside = {s: {} for s in cells.seeds}
    for u, v, w in g.arcs():
        su = cells.cell_of.get(u)
        if su is not None and su == cells.cell_of.get(v):
            inside[su][(u, v)] = w
    subs = {s: Digraph(cells.canonical_members(s), inside[s]) for s in cells.seeds}
    from_seed = {s: single_source_distances(sub, s) for s, sub in subs.items()}
    to_seed = {s: single_source_distances(sub, s, reverse=True) for s, sub in subs.items()}
    arcs = {}
    for u, v, w in g.arcs():
        su, sv = cells.cell_of.get(u), cells.cell_of.get(v)
        if su is None or sv is None or su == sv:
            continue
        head, tail = from_seed[su].get(u), to_seed[sv].get(v)
        if head is None or tail is None:
            continue
        composed = head + w + tail
        if (su, sv) not in arcs or composed < arcs[(su, sv)].weight:
            arcs[(su, sv)] = DualArc(su, sv, composed, (u, v))
    return arcs


def assert_dual_matches_reference(g, cells):
    dual = build_boundary_dual_graph(g, cells)
    want = reference_dual_arcs(g, cells)
    assert all(type(arc.weight) is float for arc in dual.arcs.values())
    assert [(k, a.src, a.dst, a.weight.hex(), a.crossing) for k, a in dual.arcs.items()] == [
        (k, a.src, a.dst, a.weight.hex(), a.crossing) for k, a in want.items()
    ]
    # the graph laid out from the builder's arrays is the dict constructor's
    rebuilt = Digraph(cells.seeds, {k: a.weight for k, a in want.items()})
    assert dual.graph.vertices == rebuilt.vertices
    assert [(u, v, w.hex()) for u, v, w in dual.graph.arcs()] == [
        (u, v, w.hex()) for u, v, w in rebuilt.arcs()
    ]
    assert dual.graph.symmetric == rebuilt.symmetric
    return dual


@pytest.mark.parametrize("weighted", [False, True])
def test_dual_arcs_match_reference_loop_on_suite(weighted):
    from regionsim.checks import random_suite

    for item in random_suite(60, seed=17):
        g = item.g if weighted else item.g.with_weights([1.0] * item.g.arc_count)
        assert_dual_matches_reference(item.g, compute_boundary_cells(g, item.seeds))


def test_dual_arcs_match_reference_loop_on_asymmetric_digraphs():
    # flood cells leave the nodes no seed reaches without a cell
    from regionsim.flood import cells_from_flood, run_flood
    from test_flood import asymmetric_cases

    for g, seeds in asymmetric_cases():
        assert_dual_matches_reference(g, cells_from_flood(g, seeds, run_flood(g, seeds).states))


@pytest.mark.parametrize("field", ["default", "dense", "sparse"])
@pytest.mark.parametrize("seed", [1, 2])
def test_dual_arcs_match_reference_loop_on_fields(field, seed):
    # the benchmark's fields, 16 to 256 cells and 3,970 to 21,606 crossing arcs
    from regionsim.flood import cells_from_flood, run_flood
    from test_flood import SPARSE_FIELD, field_graph

    config = {
        "default": ScenarioConfig(),
        "dense": ScenarioConfig(node_count=280),
        "sparse": SPARSE_FIELD,
    }[field]
    g, seeds = field_graph(config, seed)
    assert_dual_matches_reference(g, cells_from_flood(g, seeds, run_flood(g, seeds).states))


def test_dual_arc_ties_go_to_the_smallest_crossing_arc():
    # two crossings of 1 + 1 + 1 each way: (1, 3) beats (2, 4), (3, 1) beats (4, 2)
    links = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
    g = Digraph(range(6), {arc: 1.0 for u, v in links for arc in ((u, v), (v, u))})
    cells = compute_boundary_cells(g, [0, 5])
    assert cells.canonical_members(0) == (0, 1, 2)
    dual = assert_dual_matches_reference(g, cells)
    assert {k: (a.weight, a.crossing) for k, a in dual.arcs.items()} == {
        (0, 5): (3.0, (1, 3)),
        (5, 0): (3.0, (3, 1)),
    }


def test_dual_skips_crossing_unreachable_inside_its_cell():
    # 1 reaches both seeds in one hop and joins cell 0, but 0 cannot reach 1
    g = Digraph([0, 1, 2], {(1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0})
    cells = compute_boundary_cells(g, [0, 2])
    assert cells.cell_of[1] == 0
    dual = assert_dual_matches_reference(g, cells)
    assert dual.arcs == {(2, 0): DualArc(2, 0, 2.0, (2, 1))}


# -- boundary routing ----------------------------------------------------------


def test_same_seed_route_is_trivial():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    dual = build_boundary_dual_graph(g, cells)
    result = boundary_route(g, cells, dual, "v0", "v0")
    assert result.ratio == 1.0


def test_six_node_path_boundary_route():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    dual = build_boundary_dual_graph(g, cells)
    result = boundary_route(g, cells, dual, "v0", "v5")
    assert result.bound == 5
    assert result.ratio <= 5.0
    assert result.direct.vertices == tuple(f"v{i}" for i in range(6))


def test_boundary_route_requires_seeds():
    g = path_graph(6)
    cells = compute_boundary_cells(g, ["v0", "v5"])
    dual = build_boundary_dual_graph(g, cells)
    with pytest.raises(ValueError, match="must be seeds"):
        boundary_route(g, cells, dual, "v1", "v5")


def test_dual_route_unreachable_cells():
    # two components, one seed each: no dual arcs between them
    g = Digraph([0, 1, 2, 3], {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0})
    cells = compute_boundary_cells(g, [0, 2])
    dual = build_boundary_dual_graph(g, cells)
    assert dual_route(dual, 0, 2) is None
    assert boundary_route(g, cells, dual, 0, 2) is None


def dual_of(weights):
    cells = sorted({c for key in weights for c in key})
    arcs = {(a, b): DualArc(a, b, w, (a, b)) for (a, b), w in weights.items()}
    return BoundaryDualGraph(tuple(cells), arcs, Digraph(cells, {}), Digraph(cells, weights))


def test_dual_route_ties_on_exact_float_sums_then_cell_sequence():
    # equal sums: the smaller cell sequence (0, 1, 3) wins over (0, 2, 3)
    dual = dual_of({(0, 2): 1.0, (2, 3): 1.0, (0, 1): 1.0, (1, 3): 1.0})
    assert [a.crossing for a in dual_route(dual, 0, 3)] == [(0, 1), (1, 3)]
    # 0.1 + 0.2 > 0.3 in floats: the direct arc wins although (0, 1, 3) < (0, 3)
    dual = dual_of({(0, 1): 0.1, (1, 3): 0.2, (0, 3): 0.3})
    assert [a.crossing for a in dual_route(dual, 0, 3)] == [(0, 3)]


def test_dual_digraph_carries_dual_arc_weights():
    dual = dual_of({(0, 1): 0.5, (1, 0): 0.25, (1, 2): 2.0})
    dg = dual.graph
    assert dg.vertices == (0, 1, 2)
    assert list(dg.arcs()) == [(0, 1, 0.5), (1, 0, 0.25), (1, 2, 2.0)]


# -- worst case construction -----------------------------------------------------


def closed_form_ratio(e, m, eps):
    lp = 2 * m + (e - 2) * eps
    return (lp + 2 * (e - 1) * (m - eps)) / lp


@pytest.mark.parametrize(
    "e,m,eps,want",
    [
        (2, 1.0, 0.5, 1.5),
        (4, 1.0, 0.01, 7.96 / 2.02),
    ],
)
def test_worst_case_known_ratios(e, m, eps, want):
    g, seeds, s, t = worst_case_construction(e, m, eps)
    cells = compute_boundary_cells(g, seeds)
    dual = build_boundary_dual_graph(g, cells)
    result = boundary_route(g, cells, dual, s, t)
    assert result.ratio == pytest.approx(want, rel=1e-12)
    assert result.ratio == pytest.approx(closed_form_ratio(e, m, eps), rel=1e-12)
    assert result.ratio < e


def test_worst_case_ratio_monotone_toward_bound():
    for e in (2, 4, 8):
        last = 0.0
        for eps in (0.1, 0.01, 0.001):
            g, seeds, s, t = worst_case_construction(e, 1.0, eps)
            cells = compute_boundary_cells(g, seeds)
            dual = build_boundary_dual_graph(g, cells)
            ratio = boundary_route(g, cells, dual, s, t).ratio
            assert ratio > last
            last = ratio
        assert e - last < 0.01 * e  # approaching the bound as eps -> 0


def test_worst_case_rejects_bad_eps():
    with pytest.raises(ValueError, match="m > eps > 0"):
        worst_case_construction(4, 1.0, 1.0)
    with pytest.raises(ValueError, match="m > eps > 0"):
        worst_case_construction(4, 1.0, -0.5)
    with pytest.raises(ValueError, match="at least 2"):
        worst_case_construction(1, 1.0, 0.5)


def test_stretch_bound_violation_raises():
    # hop cells on a weighted graph break the bound's precondition; misuse
    # must surface as StretchBoundError, not silent nonsense
    g, seeds, s, t = worst_case_construction(6, 1.0, 0.001)
    hop_cells = compute_boundary_cells(g.with_weights([1.0] * g.arc_count), seeds)
    dual = build_boundary_dual_graph(g, hop_cells)
    try:
        result = boundary_route(g, hop_cells, dual, s, t)
    except StretchBoundError:
        return  # expected failure mode
    # if it happens to hold, the ratio must still respect the bound
    assert result is None or result.ratio <= result.bound


def test_random_seed_pairs_respect_bound():
    rng = random.Random(7)
    from regionsim.graph import random_connected_unit_disk

    checked = 0
    for _ in range(15):
        _, g = random_connected_unit_disk(rng.randint(10, 30), rng)
        seeds = sorted(rng.sample(range(len(g)), 3))
        cells = compute_boundary_cells(g, seeds)
        dual = build_boundary_dual_graph(g, cells)
        for s in seeds:
            for t in seeds:
                if s == t:
                    continue
                result = boundary_route(g, cells, dual, s, t)  # raises on violation
                if result is not None:
                    checked += 1
                    assert result.ratio <= result.bound
                    # the boundary walk is a real walk of the reported length
                    total = sum(
                        g.weight(a, b)
                        for a, b in zip(result.boundary.vertices,
                                        result.boundary.vertices[1:])
                    )
                    assert total == pytest.approx(result.boundary.length)
    assert checked > 20
