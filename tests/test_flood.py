"""Flooding protocol: condition table, oracle agreement, suppression, modes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim.checks import multi_source_bfs, random_suite, run_flood_oracle_suite
from regionsim.flood import (
    FloodAction,
    FloodMessage,
    FloodState,
    cells_from_flood,
    handle_message,
    init_flood,
    message_savings,
    naive_flood_count,
    run_flood,
)
from regionsim.graph import Digraph, NodePos, build_unit_disk_digraph
from regionsim.scenario import ScenarioConfig, deploy


def path_graph(n):
    arcs = {}
    for i in range(n - 1):
        arcs[(i, i + 1)] = 1.0
        arcs[(i + 1, i)] = 1.0
    return Digraph(range(n), arcs)


def lattice(rows, cols, spacing=10.0, reach=10.0):
    nodes = [
        NodePos(cols * r + c, spacing * c, spacing * r, reach)
        for r in range(rows)
        for c in range(cols)
    ]
    return build_unit_disk_digraph(nodes)


# -- message handling ----------------------------------------------------------


def test_condition_one_discards_late_message():
    st_ = FloodState(regions={"A"}, distance=2)
    assert handle_message(st_, FloodMessage("B", 3)) is FloodAction.DISCARD
    assert st_.regions == {"A"} and st_.distance == 2
    assert st_.discard_count == 1


def test_condition_two_merges_new_region():
    st_ = FloodState(regions={"A"}, distance=2)
    assert handle_message(st_, FloodMessage("B", 2)) is FloodAction.MERGE_REBROADCAST
    assert st_.regions == {"A", "B"} and st_.distance == 2


def test_condition_two_discards_known_region():
    st_ = FloodState(regions={"A"}, distance=2)
    assert handle_message(st_, FloodMessage("A", 2)) is FloodAction.DISCARD


def test_condition_three_replaces_state():
    st_ = FloodState(regions={"A"}, distance=2)
    assert handle_message(st_, FloodMessage("B", 1)) is FloodAction.REPLACE_REBROADCAST
    assert st_.regions == {"B"} and st_.distance == 1


def test_unset_state_always_replaces():
    st_ = FloodState()
    assert handle_message(st_, FloodMessage("A", 9)) is FloodAction.REPLACE_REBROADCAST
    assert st_.distance == 9


def test_message_requires_positive_hop():
    with pytest.raises(ValueError, match="hop_value"):
        FloodMessage("A", 0)


@given(
    st.sets(st.sampled_from("ABCDE"), max_size=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    st.sampled_from("ABCDE"),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_exactly_one_condition_fires(regions, distance, region, hop):
    if distance is None and regions:
        regions = set()  # unset distance implies empty region list
    st_ = FloodState(regions=set(regions), distance=distance)
    action = handle_message(st_, FloodMessage(region, hop))
    if distance is not None and hop > distance:
        assert action is FloodAction.DISCARD
    elif distance is not None and hop == distance:
        want = (
            FloodAction.DISCARD
            if region in regions
            else FloodAction.MERGE_REBROADCAST
        )
        assert action is want
    else:
        assert action is FloodAction.REPLACE_REBROADCAST


# -- initialization --------------------------------------------------------------


def test_init_isolated_node_stays_unset():
    g = Digraph([0, 1], {})
    states, pending = init_flood(g, [0])
    assert states[0].distance == 0 and states[0].regions == {0}
    assert states[1].distance is None and states[1].regions == set()
    assert pending == []


def test_init_enqueues_to_all_neighbors():
    g = Digraph(range(4), {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
    states, pending = init_flood(g, [0])
    assert len(pending) == 3
    assert all(hop == 1 for _, _, _, hop in pending)
    assert states[0].tx_count == 3


def test_init_two_seeds_tx_is_degree_sum():
    g = path_graph(6)
    states, pending = init_flood(g, [0, 5])
    assert states[0].tx_count + states[5].tx_count == len(pending) == 2


def test_init_empty_seed_set_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError, match="seed set is empty"):
        init_flood(g, [])


def test_non_vertex_seed_rejected():
    g = path_graph(3)
    states = run_flood(g, [0]).states
    with pytest.raises(ValueError, match="seed 99 is not a vertex"):
        cells_from_flood(g, [0, 99], states)
    with pytest.raises(ValueError, match="seed 99 is not a vertex"):
        naive_flood_count(g, [0, 99])


# -- full runs ---------------------------------------------------------------------


def test_single_seed_path_distances():
    g = path_graph(7)
    result = run_flood(g, [0])
    for v in g.vertices:
        assert result.states[v].distance == v
        assert result.states[v].regions == {0}


def test_lattice_opposite_corners_tie_on_antidiagonal():
    g = lattice(5, 5)
    result = run_flood(g, [0, 24])
    for v in g.vertices:
        r, c = divmod(v, 5)
        d0, d24 = r + c, (4 - r) + (4 - c)
        assert result.states[v].distance == min(d0, d24)
        want = {s for s, d in ((0, d0), (24, d24)) if d == min(d0, d24)}
        assert result.states[v].regions == want
    antidiagonal = [v for v in g.vertices if sum(divmod(v, 5)) == 4]
    assert all(len(result.states[v].regions) == 2 for v in antidiagonal)


def test_all_nodes_seeds_changes_nothing():
    g = path_graph(5)
    result = run_flood(g, list(range(5)))
    assert all(result.states[v].distance == 0 for v in g.vertices)
    assert all(result.states[v].regions == {v} for v in g.vertices)
    # every delivered message is discarded: no non-seed state changes
    assert result.totals.discard == result.totals.rx


def test_oracle_agreement_random_graphs():
    rng = random.Random(3)
    from regionsim.graph import random_connected_unit_disk

    for _ in range(25):
        n = rng.randint(5, 50)
        _, g = random_connected_unit_disk(n, rng)
        seeds = sorted(rng.sample(range(n), rng.randint(1, min(5, n))))
        result = run_flood(g, seeds)
        oracle = multi_source_bfs(g, seeds)
        for v in g.vertices:
            want_d, want_r = oracle[v]
            assert result.states[v].distance == want_d
            assert frozenset(result.states[v].regions) == want_r


def test_unreached_nodes_reported():
    g = Digraph([0, 1, 2], {(0, 1): 1.0, (1, 0): 1.0})
    result = run_flood(g, [0])
    assert result.unreached == (2,)
    assert result.states[2].distance is None


def test_message_bound():
    rng = random.Random(13)
    from regionsim.graph import random_connected_unit_disk

    for _ in range(10):
        n = rng.randint(5, 40)
        _, g = random_connected_unit_disk(n, rng)
        seeds = sorted(rng.sample(range(n), rng.randint(1, 5)))
        result = run_flood(g, seeds)
        max_deg = max(len(g.out_neighbors(v)) for v in g.vertices)
        assert result.totals.tx <= len(g) * len(seeds) * max_deg


def test_sync_run_deterministic():
    rng = random.Random(29)
    from regionsim.graph import random_connected_unit_disk

    _, g = random_connected_unit_disk(30, rng)
    r1 = run_flood(g, [0, 7, 19])
    r2 = run_flood(g, [0, 7, 19])
    assert r1.totals == r2.totals
    for v in g.vertices:
        assert r1.states[v].regions == r2.states[v].regions
        assert r1.states[v].distance == r2.states[v].distance


def test_async_converges_to_same_labels():
    rng = random.Random(57)
    from regionsim.graph import random_connected_unit_disk

    _, g = random_connected_unit_disk(25, rng)
    seeds = [2, 11, 17]
    sync = run_flood(g, seeds)
    for async_seed in (0, 1, 2):
        result = run_flood(g, seeds, mode="async", seed=async_seed)
        for v in g.vertices:
            assert result.states[v].distance == sync.states[v].distance
            assert result.states[v].regions == sync.states[v].regions


def test_async_requires_seed():
    g = path_graph(3)
    with pytest.raises(ValueError, match="needs a seed"):
        run_flood(g, [0], mode="async")


# -- suppression -----------------------------------------------------------------


def test_single_seed_has_zero_savings():
    g = path_graph(9)
    result = run_flood(g, [4])
    assert message_savings(result.totals, naive_flood_count(g, [4])) == pytest.approx(0.0)
    assert result.totals.tx == naive_flood_count(g, [4])


def test_two_far_seeds_save_messages():
    g = path_graph(50)
    result = run_flood(g, [0, 49])
    assert result.totals.tx < naive_flood_count(g, [0, 49])
    assert message_savings(result.totals, naive_flood_count(g, [0, 49])) > 0.0


def test_savings_grow_with_seed_count():
    g = lattice(6, 6)
    seeds_by_count = {1: [0], 2: [0, 35], 4: [0, 5, 30, 35]}
    savings = {}
    for k, seeds in seeds_by_count.items():
        result = run_flood(g, seeds)
        savings[k] = message_savings(result.totals, naive_flood_count(g, seeds))
    assert savings[1] == pytest.approx(0.0)
    assert savings[1] < savings[2] < savings[4]


# -- trace and cell extraction -------------------------------------------------


def test_trace_rows_have_schema():
    g = path_graph(4)
    rows = []
    run_flood(g, [0], trace=rows)
    assert rows
    for rnd, snd, rcv, region, hop, action in rows:
        assert rnd >= 1 and region == 0 and hop >= 1
        assert action in {a.value for a in FloodAction}
        assert g.has_arc(snd, rcv)


def test_cells_from_flood_match_direct_computation():
    rng = random.Random(99)
    from regionsim.graph import random_connected_unit_disk
    from regionsim.regions import compute_boundary_cells

    _, g = random_connected_unit_disk(30, rng)
    seeds = [1, 14, 27]
    result = run_flood(g, seeds)
    via_flood = cells_from_flood(g, seeds, result.states)
    direct = compute_boundary_cells(g.with_weights([1.0] * g.arc_count), seeds)
    assert via_flood.owners == direct.owners
    assert via_flood.dist_to_seed == direct.dist_to_seed
    assert via_flood.cell_of == direct.cell_of
    assert via_flood.tie_nodes == direct.tie_nodes


# -- the labelling against the message-level flood ------------------------------


def random_digraph(rng, n, p=None):
    """Asymmetric digraph, usually disconnected: each ordered pair is an arc
    with probability ``p``, drawn per graph when not given."""
    if p is None:
        p = rng.uniform(0.0, 0.3)
    arcs = {(u, v): 1.0 for u in range(n) for v in range(n) if u != v and rng.random() < p}
    return Digraph(range(n), arcs)


def asymmetric_cases(count=200, seed=71):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 30)
        g = random_digraph(rng, n)
        yield g, rng.sample(range(n), rng.randint(1, min(5, n)))
    # seed counts either side of the region masks' 64-bit word boundaries
    g = random_digraph(rng, 150, p=0.05)
    for k in (63, 64, 65, 129):
        yield g, rng.sample(range(150), k)


def field_graph(config, seed):
    d = deploy(config, seed)
    return build_unit_disk_digraph([d.nodes[v] for v in sorted(d.nodes)]), d.seeds


SPARSE_FIELD = ScenarioConfig(
    area_width=640.0, area_height=640.0, node_count=1120, radio_range=60.0
)


def assert_same_flood(g, seeds):
    got = run_flood(g, seeds)
    want = run_flood(g, seeds, trace=[])
    for v in g.vertices:
        a, b = got.states[v], want.states[v]
        assert (a.distance, a.regions, a.tx_count, a.rx_count, a.discard_count) == (
            b.distance, b.regions, b.tx_count, b.rx_count, b.discard_count
        ), v
    assert got.totals == want.totals
    assert got.rounds == want.rounds
    assert got.unreached == want.unreached


def test_labelling_equals_message_flood_on_suite(suite200):
    for item in suite200:
        assert_same_flood(item.g, item.seeds)


def test_labelling_equals_message_flood_on_asymmetric_digraphs():
    for g, seeds in asymmetric_cases():
        assert_same_flood(g, seeds)


@pytest.mark.parametrize(
    "config, seed",
    [
        (ScenarioConfig(), 1),
        (ScenarioConfig(), 2),
        (SPARSE_FIELD, 1),
        (SPARSE_FIELD, 2),
        (ScenarioConfig(node_count=280), 1),
    ],
    ids=["default-1", "default-2", "sparse-1", "sparse-2", "dense-1"],
)
def test_labelling_equals_message_flood_on_fields(config, seed):
    assert_same_flood(*field_graph(config, seed))


def test_flood_oracle_suite_reports_tally_mismatch(monkeypatch):
    import regionsim.flood as flood_module

    label_flood = flood_module._label_flood

    def off_by_one(g, seeds):
        result = label_flood(g, seeds)
        result.states[max(g.vertices)].rx_count += 1
        return result

    suite = list(random_suite(3, seed=5))
    assert run_flood_oracle_suite(suite).ok
    monkeypatch.setattr(flood_module, "_label_flood", off_by_one)
    report = run_flood_oracle_suite(suite)
    assert not report.ok
    assert [m[0] for m in report.mismatches] == [0, 1, 2]


# -- the naive count against a per-seed search -----------------------------------


def per_seed_naive_count(g, seeds):
    total = 0
    for s in set(seeds):
        reached = {s}
        frontier = [s]
        while frontier:
            frontier = [nb for v in frontier for nb in g.out_neighbors(v) if nb not in reached]
            reached.update(frontier)
        total += sum(len(g.out_neighbors(v)) for v in reached)
    return total


def test_naive_count_equals_per_seed_search_on_suite(suite200):
    for item in suite200:
        assert naive_flood_count(item.g, item.seeds) == per_seed_naive_count(item.g, item.seeds)


def test_naive_count_equals_per_seed_search_on_asymmetric_digraphs():
    for g, seeds in asymmetric_cases():
        assert naive_flood_count(g, seeds) == per_seed_naive_count(g, seeds)


def test_naive_count_on_disconnected_symmetric_graph():
    # components: a path 0-4, a lattice 10..18, an isolated node 30
    arcs = {}
    for i in range(4):
        arcs[(i, i + 1)] = arcs[(i + 1, i)] = 1.0
    for u, v, _ in lattice(3, 3).arcs():
        arcs[(u + 10, v + 10)] = 1.0
    g = Digraph([*range(5), *range(10, 19), 30], arcs)
    for seeds in ([0], [0, 4], [0, 12, 30], [1, 2, 10, 11, 18, 30], [30]):
        assert naive_flood_count(g, seeds) == per_seed_naive_count(g, seeds)
    assert naive_flood_count(g, [0, 4, 10, 30]) == 2 * 8 + 24
