"""Communication digraph: construction from node positions and distance queries.

Vertices are plain node ids (ints or strings, one type per graph).  Graphs are
immutable after construction, so concurrent read-only queries are safe.
Unreachable is always reported as ``None``, never a sentinel number.

A ``Digraph`` has one layout, sorted CSR: arc arrays in ascending (tail, head)
order over vertex indices, cut into per-vertex rows.  Arcs are put in that
order by one stable sort of the integer key ``tail * n + head``.  The public
constructors, ``Digraph(vertices, {(u, v): w})`` and
``Digraph.from_arrays(vertices, tails, heads, weights)``, sort and check every
arc on arrays, the first through the second's checks; the unit-disk builder,
``Digraph.within_parts`` and ``Digraph.with_weights`` hand arrays that are
already sorted and checked to the private ``_from_arcs``.  The builder lists
candidate pairs and weighs them with numpy, each weight the bits of
``math.hypot`` (``_hypot``): ``np.hypot`` rounds differently on about one pair
in 180.

Every search is one routine, ``shortest_path_tree``, run on vertex indices:
the lexicographic shortest-path tree from one source or a tuple of them,
where equal-weight paths break ties on the smallest source-first vertex-id
sequence.  It reads one cost per arc, the arc's weight; every other metric,
hops included, is a graph of its own, the same arcs priced by
``Digraph.with_weights``.  Ties are settled on parent pointers, which needs
every arc to lengthen the path it extends, as a float sum: a search raises
where one that could tie a length does not.
"""

import heapq
import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Hashable, Iterable, Iterator, Mapping

import numpy as np

NodeId = int | str


@dataclass(frozen=True)
class NodePos:
    """A deployed node: planar position in meters plus its radio reach."""

    id: NodeId
    x: float
    y: float
    radio_range: float
    is_boundary_node: bool = False
    region_id: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"node {self.id!r}: position must be finite")
        if not self.radio_range > 0:
            raise ValueError(f"node {self.id!r}: radio_range must be > 0")

    def distance_to(self, other: "NodePos") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class PathResult:
    """A directed walk with its total weight and arc count.

    Boundary walks may revisit vertices; ``vertices`` is the full sequence.
    """

    vertices: tuple[NodeId, ...]
    length: float
    hops: int


class Digraph:
    """Weighted digraph with positive arc weights and no self-loops.

    Its arcs are read-only arrays over vertex indices, in ascending (tail,
    head) order, also cut into per-vertex rows (a list of heads and a view of
    the weights).  The in-rows are the out-rows when it is ``symmetric``.
    """

    def __init__(self, vertices: Iterable[NodeId], arcs: Mapping[tuple[NodeId, NodeId], float]):
        vertices = tuple(sorted(set(vertices)))
        index = {v: k for k, v in enumerate(vertices)}
        tails, heads = (
            np.fromiter(map(index.get, map(operator.itemgetter(end), arcs), repeat(-1)),
                        np.intp, len(arcs))
            for end in (0, 1)
        )
        if (unknown := (tails < 0) | (heads < 0)).any():
            u, v = min(compress(arcs, unknown.tolist()))
            raise ValueError(f"arc ({u!r}, {v!r}) references unknown vertex")
        weights = np.fromiter(arcs.values(), float, len(arcs))
        self._lay_out(vertices, *_checked_arcs(vertices, tails, heads, weights))

    @classmethod
    def from_arrays(cls, vertices: Iterable[NodeId], tails, heads, weights) -> "Digraph":
        """Digraph over ``vertices``, distinct ids in ascending order, with an
        arc from ``vertices[tails[k]]`` to ``vertices[heads[k]]`` weighing
        ``weights[k]`` for each k, in any order.  The arcs are sorted by one
        key and checked as the dict constructor checks them, on arrays: the
        first bad arc in ascending (tail, head) order raises ``ValueError``,
        for an index outside ``vertices`` (named by the index), then for a
        self-loop, a repeated arc or a weight that is not ``> 0`` (NaN is
        rejected, ``inf`` allowed)."""
        vertices = tuple(vertices)
        if not all(map(operator.lt, vertices, vertices[1:])):
            raise ValueError("vertices must be distinct and in ascending order")
        tails, heads = (np.asarray(a) for a in (tails, heads))
        if any(a.size and a.dtype.kind not in "iu" for a in (tails, heads)):
            raise ValueError("tails and heads must be integer indices into vertices")
        tails, heads = tails.astype(np.intp), heads.astype(np.intp)
        weights = np.array(weights, dtype=float)
        if not (tails.ndim == 1 and tails.shape == heads.shape == weights.shape):
            raise ValueError("tails, heads and weights must be 1-D arrays of one length")
        n = len(vertices)
        if (outside := (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)).any():
            t, h = min(zip(tails[outside].tolist(), heads[outside].tolist()))
            u, v = (vertices[k] if 0 <= k < n else k for k in (t, h))
            raise ValueError(f"arc ({u!r}, {v!r}) references unknown vertex")
        return cls._from_arcs(vertices, *_checked_arcs(vertices, tails, heads, weights))

    @classmethod
    def _from_arcs(cls, vertices, tails, heads, weights, symmetric=False,
                   shape=None, back=None) -> "Digraph":
        """Digraph over arrays sorted and checked as ``__init__`` lays them out;
        ``symmetric`` promises an equal-weight reverse for every arc, and
        ``back``, if given, holds each arc's reverse by index.  ``shape`` is
        the ``_shape`` of a graph with the same vertices, tails and heads."""
        g = cls.__new__(cls)
        g._lay_out(vertices, tails, heads, weights, symmetric, shape, back)
        return g

    def _lay_out(self, vertices, tails, heads, weights, symmetric=False, shape=None,
                 back=None) -> None:
        """``_shape`` depends on the arcs only, not on their weights: per
        direction, the head list of each row and the rows' bounds, and
        ``back``, the arcs' indices in ascending (head, tail) order, the
        in-rows' order.  Where every arc's reverse is an arc, the in-rows'
        head lists are the out-rows' own, and ``back`` holds each arc's
        reverse; a graph laid out on a promise of symmetry works it out only
        when ``with_weights`` first needs it."""
        self._vertices = vertices
        self._index = {v: k for k, v in enumerate(vertices)}
        # int ids 0..n-1 are their own indices, and their rows hold the ids'
        # own objects, which dict lookups find by identity
        plain = all(type(v) is int and v == k for k, v in enumerate(vertices))
        self._ids = None if plain else vertices
        names = np.array(vertices, dtype=object) if plain else None
        self._arcs = tails, heads, weights
        for a in self._arcs:  # read-only, so the arc arrays stay the graph's own
            a.setflags(write=False)
        if shape is None:
            n = len(vertices)
            out = _head_rows(names, n, tails, heads)
            mirrored = symmetric
            if not symmetric:
                back = _arc_order(heads, tails, n)
                # the arcs reversed, in ascending (tail, head) order
                r_tails, r_heads = heads[back], tails[back]
                mirrored = np.array_equal(r_tails, tails) and np.array_equal(r_heads, heads)
            into = out if mirrored else _head_rows(names, n, r_tails, r_heads)
            shape = out, into, back
        self._shape = out, into, back = shape
        if not symmetric:
            symmetric = into is out and np.array_equal(weights[back], weights)
        self._out_rows = out[0], _weight_rows(weights, out[1])
        if symmetric:
            self._in_rows = self._out_rows
        else:
            self._in_rows = into[0], _weight_rows(weights[back], into[1])

    def __reduce__(self):
        return Digraph._from_arcs, (self._vertices, *self._arcs, self.symmetric)

    @property
    def vertices(self) -> tuple[NodeId, ...]:
        return self._vertices

    @property
    def symmetric(self) -> bool:
        """True when every arc has its reverse with the same weight."""
        return self._in_rows is self._out_rows

    def __contains__(self, v: NodeId) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._vertices)

    def _position(self, v: NodeId) -> int:
        k = self._index.get(v)
        if k is None:
            raise ValueError(f"unknown vertex {v!r}")
        return k

    def arcs(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Every arc as (tail, head, weight), in ascending (tail, head) order."""
        ids = self._vertices
        rows, row_weights = self._out_rows
        for u, heads, weights in zip(ids, rows, row_weights):
            for h, w in zip(heads, weights):
                yield u, ids[h], w

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every arc as ``(tails, heads, weights)`` arrays in ``arcs()`` order,
        tails and heads as indices into ``vertices``; read-only."""
        return self._arcs

    def with_weights(self, weights: Iterable[float]) -> "Digraph":
        """The same arcs with new weights, one per arc in ``arc_arrays()``
        order, each checked as the constructor checks it: ``> 0``, so NaN
        is rejected and ``inf`` allowed.  The rows' head lists and bounds
        and the in-rows' order are this graph's own, and it is ``symmetric``
        when every arc's reverse is an arc of the same new weight."""
        tails, heads, _ = self._arcs
        weights = np.array(weights, dtype=float)
        if weights.shape != tails.shape:
            raise ValueError(f"{weights.size} weights for {len(tails)} arcs")
        if not (positive := weights > 0).all():
            k = int(np.argmin(positive))
            arc = self._vertices[tails[k]], self._vertices[heads[k]]
            raise ValueError(f"arc {arc!r} has non-positive weight {weights[k]}")
        out, into, back = self._shape
        if back is None:  # laid out on a promise of symmetry
            self._shape = out, into, _arc_order(heads, tails, len(self._vertices))
        return Digraph._from_arcs(self._vertices, tails, heads, weights, shape=self._shape)

    @property
    def arc_count(self) -> int:
        return len(self._arcs[0])

    def has_arc(self, u: NodeId, v: NodeId) -> bool:
        return u in self._index and v in self.out_neighbors(u)

    def weight(self, u: NodeId, v: NodeId) -> float:
        heads, weights = self._out_rows
        k, j = self._position(u), self._index.get(v, -1)
        i = bisect_left(heads[k], j)
        if i == len(heads[k]) or heads[k][i] != j:
            raise ValueError(f"no arc ({u!r}, {v!r})")
        return weights[k][i]

    def out_neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        row = self._out_rows[0][self._position(v)]
        return tuple(row if self._ids is None else map(self._ids.__getitem__, row))

    def in_neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        row = self._in_rows[0][self._position(v)]
        return tuple(row if self._ids is None else map(self._ids.__getitem__, row))

    def within_parts(self, part: Mapping[NodeId, Hashable]) -> "Digraph":
        """Spanning subgraph keeping every arc whose two ends lie in the same
        part, ``part`` mapping vertices to their parts; a vertex it leaves
        out keeps no arcs.  One mask over the arc arrays, so each part's rows
        are its induced subgraph's rows, in the same order."""
        rows = np.fromiter(map(self._index.get, part, repeat(-1)), np.intp, len(part))
        if (rows < 0).any():
            v = next(compress(part, (rows < 0).tolist()))
            raise ValueError(f"unknown vertex {v!r}")
        parts = part.values()
        codes = dict(zip(dict.fromkeys(parts), range(len(part))))
        label = np.full(len(self._vertices), -1, np.intp)
        label[rows] = np.fromiter(map(codes.__getitem__, parts), np.intp, len(part))
        tails, heads, weights = self._arcs
        keep = label[tails] == label[heads]
        keep &= label[tails] >= 0
        # a part holds the reverse of each of its arcs when the graph does
        return Digraph._from_arcs(
            self._vertices, tails[keep], heads[keep], weights[keep], self.symmetric
        )


@dataclass(frozen=True)
class Neighborhood:
    """1-hop in/out neighbor sets of a vertex with their degrees."""

    in_nodes: frozenset
    out_nodes: frozenset

    @property
    def all_nodes(self) -> frozenset:
        return self.in_nodes | self.out_nodes

    @property
    def in_degree(self) -> int:
        return len(self.in_nodes)

    @property
    def out_degree(self) -> int:
        return len(self.out_nodes)


def neighborhoods(g: Digraph, v: NodeId) -> Neighborhood:
    """Incoming, outgoing and combined 1-hop neighbor sets of ``v``."""
    return Neighborhood(frozenset(g.in_neighbors(v)), frozenset(g.out_neighbors(v)))


# bucket offsets that, with the bucket itself, meet every adjacent bucket once
_HALF_NEIGHBOURHOOD = ((0, 1), (1, -1), (1, 0), (1, 1))


def _bucket_pairs(bucket_of: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node index pairs (i, j) of each bucket pair (b, c) in ``blocks``: every
    member of b with every member of c, and only i < j when b is c."""
    by_bucket = np.argsort(bucket_of, kind="stable")
    counts = np.bincount(bucket_of)
    starts = np.cumsum(counts) - counts
    b, c = blocks[:, 0], blocks[:, 1]
    sizes = counts[b] * counts[c]
    block = np.repeat(np.arange(len(blocks)), sizes)
    local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cols = counts[c][block]
    i = by_bucket[starts[b][block] + local // cols]
    j = by_bucket[starts[c][block] + local % cols]
    keep = (b[block] != c[block]) | (i < j)
    return i[keep], j[keep]


def _arc_order(frm: np.ndarray, to: np.ndarray, n: int) -> np.ndarray:
    """The indices of the arcs in ascending (frm, to) order, both indices
    below ``n``: one stable sort of the key ``frm * n + to``."""
    return np.argsort(frm * n + to, kind="stable")


def _checked_arcs(
    vertices: tuple, tails: np.ndarray, heads: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-range arcs in ascending (tail, head) order (``_arc_order``); the
    first bad one in that order raises, as a self-loop, a repeat of the arc
    before it, or a weight not ``> 0``, in that order of precedence."""
    by = _arc_order(tails, heads, len(vertices))
    tails, heads, weights = tails[by], heads[by], weights[by]
    loop = tails == heads
    again = np.zeros_like(loop)
    again[1:] = (tails[1:] == tails[:-1]) & (heads[1:] == heads[:-1])
    if (bad := loop | again | ~(weights > 0)).any():
        k = int(np.argmax(bad))
        u, v = vertices[tails[k]], vertices[heads[k]]
        if loop[k]:
            raise ValueError(f"self-loop on {u!r} not allowed")
        if again[k]:
            raise ValueError(f"duplicate arc ({u!r}, {v!r})")
        raise ValueError(f"arc ({u!r}, {v!r}) has non-positive weight {weights[k]}")
    return tails, heads, weights


def _exact_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * x`` and its rounding error, exactly (Dekker's product, with
    Veltkamp's split at 2**27 + 1), for ``x`` far from under- and overflow."""
    p = x * x
    c = x * 134217729.0
    hi = c - (c - x)
    lo = x - hi
    return p, lo * lo - (((p - hi * hi) - hi * lo) - lo * hi)


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot(dx[k], dy[k])`` for every k, bit for bit, on arrays.

    This is how CPython's ``math.hypot`` computes two coordinates: it scales
    both magnitudes by the power of two that puts the larger in [0.5, 1),
    adds their squares to 1 without error, keeping each square's and each
    sum's rounding error in two low-order terms, takes the square root of
    the sum less 1, and corrects it once by the residual, worked out the
    same way.  C takes a square's error from ``fma``, and ``_exact_square``
    takes the same exact value without it.  ``np.hypot`` rounds differently
    on about one pair in 180.  A pair whose larger magnitude is zero or
    subnormal, where the split loses bits, is measured by ``math.hypot``
    itself; ``tests/test_graph.py`` compares the whole with it.
    """
    a, b = np.abs(dx, dtype=float), np.abs(dy, dtype=float)
    top = np.maximum(a, b)
    total = np.ones_like(top)
    low_squares = np.zeros_like(top)
    low_sums = np.zeros_like(top)
    # the pairs that over- or underflow here are measured again below
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        for c in (a, b):
            square, low = _exact_square(c * scale)
            low_squares += low
            # total >= square, so this sum's error is exact as well
            low_sums += (total - (total + square)) + square
            total += square
        h = np.sqrt(total - 1.0 + (low_squares + low_sums))
        square, low = _exact_square(h)
        low_squares -= low
        low_sums += (total - (total - square)) - square
        total -= square
        h += (total - 1.0 + (low_squares + low_sums)) / (2.0 * h)
        h /= scale
    small = np.flatnonzero(top < 2.0**-1021)
    h[small] = list(map(math.hypot, dx[small].tolist(), dy[small].tolist()))
    return h


def _head_rows(names, n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[list, list]:
    """Arcs sorted by ``tails`` as CSR rows: per vertex index a list of its
    heads, as ``names[head]`` when ``names`` is given, and the n + 1 row
    bounds."""
    bounds = np.searchsorted(tails, np.arange(n + 1)).tolist()
    heads = (heads if names is None else names[heads]).tolist()
    return [heads[a:b] for a, b in zip(bounds, bounds[1:])], bounds


def _weight_rows(weights: np.ndarray, bounds: list) -> list:
    """A read-only view of each row's weights, the rows cut at ``bounds``."""
    weights = memoryview(weights).toreadonly()
    return [weights[a:b] for a, b in zip(bounds, bounds[1:])]


def build_unit_disk_digraph(
    nodes: Iterable[NodePos], symmetric: bool = True, unit_weight: bool = False
) -> Digraph:
    """Build the communication digraph from positions and radio ranges.

    An arc (u, v) exists iff v lies within u's radio range; with ``symmetric``
    both ranges must cover the distance, so arcs come in pairs.  Weights are
    euclidean meters, or exactly 1 with ``unit_weight``.

    Nodes are bucketed on a square grid strictly wider than the largest radio
    range, so two nodes in range share a bucket or lie in adjacent ones.  The
    pairs of each bucket with itself and its adjacent buckets are listed in
    numpy arrays, each unordered pair once; a squared-distance prefilter drops
    pairs clearly out of range, and the rest are measured as ``math.hypot``
    measures them (``_hypot``) and tested exactly.
    """
    node_list = list(nodes)
    if not node_list:
        raise ValueError("empty node list")
    seen: set[NodeId] = set()
    for n in node_list:
        if n.id in seen:
            raise ValueError(f"duplicate node id {n.id!r}")
        seen.add(n.id)
    # A pair in range is strictly less than one width apart, even where its
    # rounded distance equals the range, so the floors of the correctly
    # rounded x / width of the two differ by at most one, and so do the y's.
    width = max(n.radio_range for n in node_list) * (1 + 1e-9)
    buckets: dict[tuple[int, int], int] = {}
    bucket_of = [
        buckets.setdefault((math.floor(n.x / width), math.floor(n.y / width)), len(buckets))
        for n in node_list
    ]
    blocks = [(b, b) for b in buckets.values()] + [
        (b, c)
        for (bx, by), b in buckets.items()
        for dx, dy in _HALF_NEIGHBOURHOOD
        if (c := buckets.get((bx + dx, by + dy))) is not None
    ]
    i, j = _bucket_pairs(np.array(bucket_of), np.array(blocks))
    xs = np.array([n.x for n in node_list])
    ys = np.array([n.y for n in node_list])
    reach = np.array([n.radio_range for n in node_list])
    dx = xs[i] - xs[j]  # bit-equal to a.x - b.x in Python
    dy = ys[i] - ys[j]
    # Prefilter: keep a pair whose dx * dx + dy * dy is within a margin of
    # reach * reach, reach being the range its arcs are tested against (the
    # larger one when asymmetric).  math.hypot is within one ulp of the exact
    # distance, and each rounded square and sum within one ulp of its exact
    # value, so a pair with hypot(dx, dy) <= reach has a rounded squared sum
    # below reach * reach * (1 + 1e-15); gradual underflow adds a few 2**-1074
    # at most.  The margins 1e-9 and 2**-1000 exceed both, so the prefilter
    # drops only pairs that the exact test below would drop.
    pair_reach = np.minimum(reach[i], reach[j]) if symmetric else np.maximum(reach[i], reach[j])
    near = dx * dx + dy * dy <= pair_reach * pair_reach * (1 + 1e-9) + 2.0**-1000
    i, j = i[near], j[near]
    d = _hypot(dx[near], dy[near])
    del dx, dy, pair_reach, near
    if not unit_weight and (coincident := d == 0.0).any():
        a, b = min(sorted(p) for p in zip(i[coincident].tolist(), j[coincident].tolist()))
        raise ValueError(f"nodes {node_list[a].id!r} and {node_list[b].id!r} are coincident")
    if symmetric:
        fwd = bwd = d <= np.minimum(reach[i], reach[j])
    else:
        fwd, bwd = d <= reach[i], d <= reach[j]
    w = np.ones_like(d) if unit_weight else d
    order = sorted(range(len(node_list)), key=lambda k: node_list[k].id)
    vertices = tuple(node_list[k].id for k in order)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    tails = rank[np.concatenate((i[fwd], j[bwd]))]
    heads = rank[np.concatenate((j[fwd], i[bwd]))]
    weights = np.concatenate((w[fwd], w[bwd]))
    del i, j, d, w, fwd, bwd
    by = _arc_order(tails, heads, len(vertices))
    back = None
    if symmetric:
        # symmetric arcs come in pairs of equal weight, so both directions
        # read alike; before the sort, arc k's reverse is arc k + pairs
        pairs = len(by) // 2
        place = np.empty_like(by)
        place[by] = np.arange(len(by))
        back = place[np.where(by < pairs, by + pairs, by - pairs)]
    return Digraph._from_arcs(
        vertices, tails[by], heads[by], weights[by], symmetric, back=back
    )


def perturb_weights(g: Digraph, seed: int, scale: float = 1e-9) -> Digraph:
    """Copy of ``g`` with a seeded positive epsilon added to every arc weight.

    Makes shortest paths unique with probability one while moving every
    length by less than ``scale`` per arc.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    rng = random.Random(seed)
    return g.with_weights([w + rng.random() * scale for w in g.arc_arrays()[2].tolist()])


def hop_distance(g: Digraph, u: NodeId, v: NodeId) -> int | None:
    """Minimum number of arcs on any directed u->v path; None if unreachable."""
    path = shortest_path(g.with_weights([1.0] * g.arc_count), u, v)
    return None if path is None else path.hops


def shortest_path_tree(
    g: Digraph,
    source: NodeId | tuple[NodeId, ...],
    target: NodeId | None = None,
    reverse: bool = False,
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId | None]]:
    """The lexicographic shortest-path tree from ``source`` as ``(dist, parent)``.

    ``source`` is one vertex or a tuple of them, each at length 0 with no
    parent; over vertex-disjoint components, one source each, the result is
    each component's own tree.  ``dist`` maps every settled vertex to its
    length, in settle order; ``parent[v]`` is the vertex before v on its path
    (None for a source), for every settled v.  A vertex's length is the exact
    float sum of its path's costs from its source.  Among equal lengths its
    path is the one with the smallest source-first vertex-id sequence: an
    equal candidate replaces the parent only when its sequence, head
    included, is smaller.  Every path of equal length comes from a vertex
    settled strictly earlier, so the choice is final when v settles.  That
    needs every arc to lengthen the path it extends, so a relaxation whose
    float sum is not greater than the tail's length raises ``ValueError``: a
    positive cost lost to rounding, or one that is not positive, which only
    a graph built past the constructors' checks holds.  That is
    checked on every arc but those into a vertex already settled at a
    shorter length, which no arc can tie, and those from a vertex settled at
    ``inf`` at a positive cost, whose every extension is ``inf`` again, so
    that no finite length can tie there.  With a ``target`` the search stops
    once every vertex of the target's length has settled, so every arc that
    could tie that length is checked.  Each arc costs its weight; another
    metric, hops included, is searched on ``g.with_weights``.
    With ``reverse`` the arcs are followed backwards, so the path of ``v``
    runs source, ..., v against the arcs and read backwards is the
    v->source path: ``parent[v]`` is v's next hop.
    """
    sources = [g._position(s) for s in (source if isinstance(source, tuple) else (source,))]
    t = None if target is None else g._position(target)
    heads, costs = g._in_rows if reverse else g._out_rows
    ids = g.vertices
    # per vertex index: settled length, tentative length, parent index
    dist: list[float | None] = [None] * len(ids)
    best: list[float | None] = [None] * len(ids)
    parent: list[int | None] = [None] * len(ids)
    for s in sources:
        best[s] = 0.0
    order: list[int] = []
    heap: list[tuple[float, int]] = sorted((0.0, s) for s in sources)
    stop = math.inf
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        if d > stop:
            break
        dist[v] = d
        order.append(v)
        if v == t:
            stop = d
        for nb, cost in zip(heads[v], costs[v]):
            # a vertex settled shorter keeps its parent in the path-tuple
            # order too; one settled at d could still take a tie from v
            settled = dist[nb]
            if settled is not None and settled < d:
                continue
            nd = d + cost
            if not nd > d and not (d == math.inf and cost > 0):
                arc = (ids[nb], ids[v]) if reverse else (ids[v], ids[nb])
                raise ValueError(f"cost {cost} on arc {arc!r} does not lengthen length {d}")
            if settled is not None:
                continue
            old = best[nb]
            if old is None or nd < old:
                best[nb] = nd
                parent[nb] = v
                heapq.heappush(heap, (nd, nb))
            elif nd == old and _path(parent, v) + (nb,) < _path(parent, parent[nb]) + (nb,):
                parent[nb] = v
    parents = {ids[v]: None if parent[v] is None else ids[parent[v]] for v in order}
    return {ids[v]: dist[v] for v in order}, parents


def _path(parent, v):
    """The source-first vertex sequence of ``v`` in a ``parent`` tree, a dict
    of ids or a list of indices."""
    seq = []
    while v is not None:
        seq.append(v)
        v = parent[v]
    return tuple(reversed(seq))


def shortest_paths(
    g: Digraph,
    source: NodeId,
    target: NodeId | None = None,
    reverse: bool = False,
) -> dict[NodeId, PathResult]:
    """``shortest_path_tree`` with the path of every settled vertex, in settle order."""
    dist, parent = shortest_path_tree(g, source, target, reverse)
    paths = {v: _path(parent, v) for v in dist}
    return {v: PathResult(path, dist[v], len(path) - 1) for v, path in paths.items()}


def shortest_path(g: Digraph, x: NodeId, y: NodeId) -> PathResult | None:
    """Minimum-weight x->y path of the lexicographic tree, or None when unreachable."""
    dist, parent = shortest_path_tree(g, x, y)
    if y not in dist:
        return None
    path = _path(parent, y)
    return PathResult(path, dist[y], len(path) - 1)


def single_source_distances(
    g: Digraph,
    source: NodeId | tuple[NodeId, ...],
    reverse: bool = False,
) -> dict[NodeId, float]:
    """Distances from ``source`` (one vertex or a tuple of them, as in
    ``shortest_path_tree``) to every reachable vertex.

    With ``reverse`` the arcs are followed backwards, giving the distance
    *to* ``source`` from every vertex.  Missing keys mean unreachable.
    """
    return shortest_path_tree(g, source, reverse=reverse)[0]


def set_distance(
    g: Digraph,
    x: NodeId | Iterable[NodeId],
    target_set: Iterable[NodeId],
) -> float | None:
    """Shortest distance from a node (or node set) to the nearest target.

    Point-to-set takes the min over targets; set-to-set additionally takes
    the min over sources.  None when no target is reachable.
    """
    targets = set(target_set)
    if not targets:
        raise ValueError("empty target set")
    for t in targets:
        g._position(t)
    sources = (x,) if isinstance(x, (int, str)) else tuple(sorted(set(x)))
    if not sources:
        raise ValueError("empty source set")
    dist = single_source_distances(g, sources)
    return min((dist[t] for t in targets if t in dist), default=None)


def is_connected(g: Digraph) -> bool:
    """True when every vertex is reachable from the smallest-id vertex.

    For symmetric graphs this is ordinary connectivity.
    """
    if len(g) == 0:
        return False
    hops = g.with_weights([1.0] * g.arc_count)
    return len(single_source_distances(hops, g.vertices[0])) == len(g)


def random_connected_unit_disk(
    n: int,
    seed: int | random.Random,
    side: float = 100.0,
    radio_range: float = 40.0,
    unit_weight: bool = False,
    max_attempts: int = 200,
) -> tuple[list[NodePos], Digraph]:
    """Random connected symmetric unit-disk graph on ``n`` nodes.

    Positions are redrawn until the graph connects; after ``max_attempts``
    failures the range is widened by 25% and the attempt budget restarts.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    reach = radio_range
    while True:
        for _ in range(max_attempts):
            nodes = [
                NodePos(i, rng.uniform(0, side), rng.uniform(0, side), reach)
                for i in range(n)
            ]
            g = build_unit_disk_digraph(nodes, symmetric=True, unit_weight=unit_weight)
            if is_connected(g):
                return nodes, g
        reach *= 1.25
