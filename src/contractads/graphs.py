"""Simple graphs, tubes, graph partitions, contraction, and classical oracles.

Vertices are the fixed integers 0..n-1.  A tube is a vertex subset whose
induced subgraph is connected; a graph partition is a partition of the vertex
set into tubes.  Contraction collapses each block to a vertex, with two blocks
adjacent exactly when their union is a tube.

A graph is `n` plus one neighbour bitmask per vertex, and nothing else; the
edge set, the edge count and the degrees are read off the masks.  A graph is
validated only where it enters from outside: `Graph(n, edges)`, which the
families and the text and graph6 parsers call.  Everything the library
derives from a valid graph (contractions, induced subgraphs, relabellings,
edge deletions, canonical representatives) is built from masks by
`Graph._from_masks`, which checks nothing.

On the computational path a vertex set is a bitmask and a graph partition is
a tuple of block masks ordered by lowest vertex.  `graph_partitions` is the
one partition enumerator and `quotient` builds both the contraction G/I and
the induced subgraph G|_B by the one adjacency rule, `_joined`, with which
the convolution's walk over the partitions keys G/I block by block.
`contract`, `contract_tube` and `induced_subgraph` take vertex sets from
outside and validate them.

Canonical keys make isomorphic graphs share memo entries.  Complete
multipartite graphs, paths and cycles are recognised structurally and get
parametric keys; any other graph of at most CANONICAL_MAX_VERTICES vertices
gets the least adjacency mask over the orderings within its colour-refinement
classes, found by a search that keeps only the least partial orderings.

`chromatic_polynomial` is a frontier sweep over the labelled graph.  It takes
no canonical key and keeps no table, so the chromatic identity the
convolution certifies is checked independently of the keys of its memos.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .qpoly import QPoly

# Size guards.  The canonical search keeps every least partial ordering: at
# most 1,440 a level, in under 0.1 s, on the 12-vertex graphs tried (the crown
# graph among them).  Tree enumeration is brute force.
CANONICAL_MAX_VERTICES = 12
TREE_MAX_VERTICES = 8
# bounds the verify suites over the classes, not their enumeration: Koszul
# takes about 12 s at 7 vertices, and 8 vertices have 11,117 classes
CLASS_ENUMERATION_MAX_VERTICES = 7
# bounds the tube table over twin classes that are pairwise adjacent (see
# `Twins`).  On 2 cores, Python 3.11, the complex series of K103 (5.97e9
# steps) takes 23 s, of K[3,3,3,3,3,3] (5.83e9) 15 s; St150 (1.56e9) 5 s
TWIN_TABLE_MAX_STEPS = 6 * 10**9
# bound the series commands, closed form and recurrence alike: at order 24
# the complete family's complex closed form takes about 0.3 s and the cycles'
# complex recurrence about 6 s, the Young series of the complex
# compactification 0.5 s at degree 10
SERIES_MAX_ORDER = 24
YOUNG_MAX_DEGREE = 10


def _bits(mask: int) -> list[int]:
    """The vertices of a bitmask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Immutable simple graph on vertices 0..n-1; `adj_mask[v]` is the
    bitmask of the neighbours of v."""

    __slots__ = ("n", "adj_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        mask = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} rejected")
            if mask[u] >> v & 1:
                raise ValueError(f"duplicate edge {(min(u, v), max(u, v))} rejected")
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self.n = n
        self.adj_mask = tuple(mask)

    @classmethod
    def _from_masks(cls, n: int, adj_mask: tuple[int, ...]) -> Graph:
        """The graph with the given neighbour masks, unchecked: the caller
        guarantees n >= 1, len(adj_mask) == n, and masks that are symmetric,
        loop-free and inside range(n)."""
        g = object.__new__(cls)
        g.n = n
        g.adj_mask = adj_mask
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u < v."""
        return frozenset((u, v) for u, row in enumerate(self.adj_mask) for v in _bits(row) if u < v)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj_mask) >> 1

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def component(self, mask: int) -> int:
        """The vertices of the bitmask reachable inside it from its lowest vertex."""
        seen = frontier = mask & -mask
        while frontier:
            v = frontier & -frontier
            frontier &= frontier - 1
            reach = self.adj_mask[v.bit_length() - 1] & mask & ~seen
            seen |= reach
            frontier |= reach
        return seen

    def subset_connected(self, mask: int) -> bool:
        """Is the induced subgraph on the bitmask connected (and non-empty)?"""
        return mask != 0 and self.component(mask) == mask

    def is_connected(self) -> bool:
        return self.subset_connected(self.full_mask())

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self.adj_mask[u] >> v & 1 == 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj_mask == other.adj_mask

    def __hash__(self):
        return hash((self.n, self.adj_mask))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


# -- families -----------------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """St_n: n+1 vertices, vertex 0 is the core adjacent to everything."""
    if n < 0:
        raise ValueError("star graph needs n >= 0")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def multipartite_graph(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph K_lambda; blocks in the given order."""
    lam = list(parts)
    if not lam or any(p < 1 for p in lam):
        raise ValueError("independent partition must have positive parts")
    if len(lam) == 1 and lam[0] > 1:
        raise ValueError(f"K_{tuple(lam)} is disconnected; need at least two blocks")
    blocks = []
    start = 0
    for p in lam:
        blocks.append(range(start, start + p))
        start += p
    edges = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            edges.extend((u, v) for u in blocks[i] for v in blocks[j])
    return Graph(start, edges)


def family_graph(kind: str, params) -> Graph:
    kind = kind.lower()
    if kind == "path":
        return path_graph(int(params))
    if kind == "cycle":
        return cycle_graph(int(params))
    if kind == "complete":
        return complete_graph(int(params))
    if kind == "star":
        return star_graph(int(params))
    if kind == "multipartite":
        return multipartite_graph(tuple(params))
    raise ValueError(f"unknown family {kind!r}")


# -- tubes and partitions -------------------------------------------------------


def _set_to_mask(s: Iterable[int]) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def _neighbourhood(g: Graph, mask: int) -> int:
    """Every vertex adjacent to some vertex of the mask."""
    out = 0
    while mask:
        v = mask & -mask
        mask &= mask - 1
        out |= g.adj_mask[v.bit_length() - 1]
    return out


def connected_subset_masks(g: Graph, within: int, containing: int) -> list[int]:
    """All tubes (as masks) inside `within` that contain vertex `containing`.

    Each tube is reached once: a branch grows the tube by one neighbour and
    bars the neighbours its earlier siblings added."""
    start = 1 << containing
    found = []
    stack = [(start, g.adj_mask[containing] & within & ~start, start)]
    while stack:
        cur, grow, barred = stack.pop()
        found.append(cur)
        while grow:
            w = grow & -grow
            grow &= grow - 1
            barred |= w
            stack.append((cur | w, grow | g.adj_mask[w.bit_length() - 1] & within & ~barred, barred))
    return sorted(found)


def tube_masks(g: Graph, within: int | None = None) -> list[int]:
    """Every tube of g inside the vertex mask `within` (all of g by default)
    as a mask, each reached once, from its lowest vertex."""
    within = g.full_mask() if within is None else within
    return [t for v in _bits(within) for t in connected_subset_masks(g, within >> v << v, v)]


def _twin_classes(adj: Sequence[int]) -> list[int]:
    """The vertex masks of the twin classes of two or more members: false
    twins share their row of `adj`, true twins their row with themselves."""
    opened, closed = {}, {}
    for v, row in enumerate(adj):
        opened[row] = opened.get(row, 0) | 1 << v
        closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
    return [members for members in itertools.chain(opened.values(), closed.values()) if members & members - 1]


class Twins:
    """The twin classes of a graph, and the codes of vertex count vectors.

    Twins have the same neighbours besides each other: false twins are not
    adjacent, true twins are.  A class is a module, independent or a clique,
    its members in increasing order, and permuting it is an automorphism.  A
    count vector b is coded by the mask of the first b_i members of each
    class i: a vertex mask is worth its code, of the same size, and on a
    twin-free graph every mask is its own code.  The tube table recurses on
    codes alone.  When the classes are pairwise adjacent (K_n, St_n,
    K_lambda), a table estimated above TWIN_TABLE_MAX_STEPS steps is refused
    before it is built."""

    __slots__ = ("firsts", "cliques", "prefixes")

    def __init__(self, g: Graph):
        adj = g.adj_mask
        self.firsts, self.cliques = g.full_mask(), 0  # first members: all, of a clique
        self.prefixes: dict[int, list[int]] = {}  # first member of two or more -> codes of 0, 1, ... members
        for members in _twin_classes(adj):
            v = (members & -members).bit_length() - 1
            self.firsts &= ~members | 1 << v
            self.cliques |= bool(adj[v] & members) << v
            self.prefixes[v] = [0] + [members & (2 << w) - 1 for w in _bits(members)]
        if self.prefixes and all(adj[v] & self.firsts | 1 << v == self.firsts for v in _bits(self.firsts)):
            steps = g.n**3
            for v in _bits(self.firsts):
                c = len(self.prefixes.get(v, (0, v))) - 1
                # the leaves of a star share a block with the core alone
                leaves = adj[v].bit_count() == 1 and not self.cliques >> v & 1
                steps *= c + 1 if leaves else math.comb(c + 2, 2)
            if steps > TWIN_TABLE_MAX_STEPS:
                raise ValueError(
                    f"the tube table of this graph takes about {steps:,} steps (n^3 times the product of "
                    f"C(c + 2, 2) over its twin classes of c vertices, c + 1 over a star's leaves), "
                    f"over the cap of {TWIN_TABLE_MAX_STEPS:,}"
                )

    def canonical(self, tube: int) -> int:
        """The code of a vertex mask: one popcount per class of two or more."""
        for prefix in self.prefixes.values():
            tube = tube & ~prefix[-1] | prefix[(tube & prefix[-1]).bit_count()]
        return tube

    def blocks(self, supports: list[int], remaining: int, lowest: int = -1) -> dict[int, tuple[int, int]]:
        """{code: (code of the rest of `remaining`, count of such tubes holding
        `lowest`)} for the tubes within the code `remaining` that meet just the
        classes of a support, a connected set of first members (of a single
        class only if a clique or b = 1).  Each support starts as its own
        block, counted once, and each class with two members in `remaining`
        grows the blocks through its first member: on a twin-free graph none
        does, and the blocks are the supports."""
        out = {support: (remaining & ~support, 1) for support in supports}
        for v, prefix in self.prefixes.items():
            if remaining & prefix[2] == prefix[2]:
                r = (remaining & prefix[-1]).bit_count()
                d = v == lowest  # the tubes hold lowest, one of the class's r
                for block, (rest, count) in [item for item in out.items() if item[0] >> v & 1]:
                    most = 1 if block == 1 << v and not self.cliques >> v & 1 else r
                    for b in range(1, most + 1):
                        out[block | prefix[b]] = rest & ~prefix[-1] | prefix[r - b], count * math.comb(r - d, b - d)
        return out


def enumerate_tubes(g: Graph) -> list[frozenset[int]]:
    """Every non-empty vertex subset with connected induced subgraph."""
    return [frozenset(_bits(m)) for m in sorted(tube_masks(g))]


def _partition_masks(g: Graph, remaining: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    v = (remaining & -remaining).bit_length() - 1
    for block in connected_subset_masks(g, remaining, v):
        for rest in _partition_masks(g, remaining & ~block):
            yield (block,) + rest


def graph_partitions(g: Graph) -> Iterator[tuple[int, ...]]:
    """Duplicate-free enumeration of graph partitions, each a tuple of block
    masks ordered by lowest vertex.

    Recursion always peels off the tube containing the smallest uncovered
    vertex, so every partition is produced exactly once.
    """
    return _partition_masks(g, g.full_mask())


def quotient(g: Graph, blocks: Sequence[int]) -> Graph:
    """The graph on disjoint vertex masks B_0..B_{k-1}, with B_i and B_j
    adjacent when an edge of g joins them.

    On a graph partition ordered by lowest vertex, as `graph_partitions`
    yields it, this is the contraction G/I; on the singletons of a vertex set
    it is the induced subgraph.  The blocks are not validated.
    """
    return Graph._from_masks(len(blocks), tuple([_joined(_neighbourhood(g, b) & ~b, blocks) for b in blocks]))


def _joined(reach: int, blocks: Sequence[int]) -> int:
    """The adjacency rule of `quotient`: the indices, as a mask, of the
    blocks that meet `reach`, the neighbourhood of a block."""
    row = 0
    for i, b in enumerate(blocks):
        if reach & b:
            row |= 1 << i
    return row


def subgraph(g: Graph, mask: int) -> Graph:
    """Induced subgraph on a vertex mask, vertices relabelled 0..|S|-1 in
    increasing order.  The mask is not validated."""
    singletons = []
    while mask:
        v = mask & -mask
        mask &= mask - 1
        singletons.append(v)
    return quotient(g, singletons)


def induced_subgraph(g: Graph, subset: Iterable[int]) -> Graph:
    """Induced subgraph on a vertex set, vertices relabelled 0..|S|-1 in
    increasing order."""
    mask = _set_to_mask(subset)
    if not mask or mask >> g.n:
        raise ValueError(f"vertex subset {_bits(mask)} is empty or out of range for n={g.n}")
    return subgraph(g, mask)


def contract(g: Graph, partition: Iterable[Iterable[int]]) -> Graph:
    """Quotient by a graph partition given as vertex sets; blocks ordered by
    their minimum vertex."""
    blocks = sorted((_set_to_mask(b) for b in partition), key=lambda b: b & -b)
    seen = 0
    for b in blocks:
        if seen & b or b >> g.n or not g.subset_connected(b):
            raise ValueError(f"block {_bits(b)} is empty, overlaps another or is not a tube")
        seen |= b
    if seen != g.full_mask():
        raise ValueError("blocks do not cover the vertex set")
    return quotient(g, blocks)


def contract_tube(g: Graph, tube: Iterable[int]) -> Graph:
    """Quotient by one tube, every other vertex a singleton block."""
    t = _set_to_mask(tube)
    if t >> g.n or not g.subset_connected(t):
        raise ValueError(f"{_bits(t)} is not a tube of a graph with n={g.n}")
    blocks = [t] + [1 << v for v in range(g.n) if not t >> v & 1]
    blocks.sort(key=lambda b: b & -b)
    return quotient(g, blocks)


def relabel_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """The graph with vertex v renamed perm[v], perm a permutation of range(n)."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"{list(perm)} is not a permutation of range({g.n})")
    rows = [0] * g.n
    for u, row in enumerate(g.adj_mask):
        for v in _bits(row):
            rows[perm[u]] |= 1 << perm[v]
    return Graph._from_masks(g.n, tuple(rows))


# -- structural recognisers -----------------------------------------------------


def complete_multipartite_parts(g: Graph) -> tuple[int, ...] | None:
    """The sorted independent partition of a connected complete multipartite
    graph, or None.  Non-adjacency must be an equivalence relation, which for
    these graphs means equal vertices or equal neighbourhoods."""
    full = g.full_mask()
    groups: dict[int, int] = {}
    for v in range(g.n):
        groups[g.adj_mask[v]] = groups.get(g.adj_mask[v], 0) + 1
    # vertices sharing a neighbourhood are pairwise non-adjacent; the class is
    # a block exactly when it fills the whole complement of that neighbourhood
    for key, size in groups.items():
        if bin(full & ~key).count("1") != size:
            return None
    parts = tuple(sorted(groups.values(), reverse=True))
    if len(parts) == 1 and g.n > 1:
        return None  # disconnected K_(n)
    return parts


def _is_path(g: Graph) -> bool:
    # a tree with no vertex of degree 3 or more
    return g.m == g.n - 1 and g.is_connected() and all(g.degree(v) <= 2 for v in range(g.n))


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n)) and g.is_connected()


# -- canonical keys --------------------------------------------------------------


def _refine_colors(neighbours: list[list[int]]) -> list[int]:
    colors = [len(ns) for ns in neighbours]
    while True:
        signatures = [(colors[v], tuple(sorted(colors[w] for w in ns))) for v, ns in enumerate(neighbours)]
        palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = [palette[s] for s in signatures]
        if new == colors:
            return colors
        colors = new


_canonical_cache: dict[tuple[int, tuple[int, ...]], tuple] = {}


def canonical_key(g: Graph) -> tuple:
    """Relabelling-invariant key; identical for isomorphic graphs.  Memoised
    in `_canonical_cache` on the neighbour masks."""
    cached = _canonical_cache.get((g.n, g.adj_mask))
    if cached is not None:
        return cached
    key = _canonical_key_uncached(g)
    _canonical_cache[(g.n, g.adj_mask)] = key
    return key


def _canonical_key_uncached(g: Graph) -> tuple:
    parts = complete_multipartite_parts(g)
    if parts is not None:
        return ("K", parts)
    if _is_path(g):
        return ("P", g.n)
    if _is_cycle(g):
        return ("C", g.n)
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical form for generic graphs is capped at "
            f"{CANONICAL_MAX_VERTICES} vertices (got {g.n}); "
            f"use the family constructors for large graphs"
        )
    return ("g", g.n, _min_adjacency_mask(g))


def _from_pair_mask(n: int, mask: int) -> Graph:
    """The graph whose edges are the set bits of a pair mask: bit k stands for
    the k-th pair of combinations(range(n), 2), so the pair a < b is bit
    a*n - a*(a+1)/2 + b - a - 1."""
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if mask & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        mask >>= 1
    return Graph._from_masks(n, tuple(rows))


def _min_adjacency_mask(g: Graph) -> int:
    """The least pair mask (see `_from_pair_mask`) of g over the orderings of
    its vertices within colour-refinement classes.

    Positions are filled from the last to the first.  The row of position p,
    its adjacency to positions p+1..n-1, is fixed once p is filled, and the
    mask compares as the sequence of rows, last position first; so each level
    keeps only the partial orderings whose rows so far are least.  Within one
    partial ordering a candidate that is a twin of one already tried is
    skipped: swapping the two is an automorphism fixing the placed vertices."""
    n, adj = g.n, g.adj_mask
    members: dict[int, int] = {}
    for v, c in enumerate(_refine_colors([_bits(row) for row in adj])):
        members[c] = members.get(c, 0) | 1 << v
    slot_class = [members[c] for c in sorted(members) for _ in range(members[c].bit_count())]
    mask = 0
    level = [(0, [0] * n)]  # the placed vertices; each vertex's row over the placed positions
    for p in range(n - 1, -1, -1):
        best, kept = None, []
        for placed, rows in level:
            tried: list[int] = []
            for v in _bits(slot_class[p] & ~placed):
                if any(not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v) for u in tried):
                    continue
                tried.append(v)
                if best is None or rows[v] < best:
                    best, kept = rows[v], []
                if rows[v] == best:
                    kept.append((placed, rows, v))
        level = []
        for placed, rows, v in kept:
            rows = rows[:]
            for w in _bits(adj[v] & ~placed):
                rows[w] |= 1 << p
            level.append((placed | 1 << v, rows))
        mask |= best >> (p + 1) << (p * (2 * n - p - 1) // 2)  # row p starts at the bit of pair (p, p+1)
    return mask


def canonical_graph(g: Graph) -> Graph:
    """A fixed representative of the isomorphism class, reconstructed from the
    canonical key.  Connected graphs only."""
    if not g.is_connected():
        raise ValueError("canonical representative is only defined for connected graphs")
    key = canonical_key(g)
    kind = key[0]
    if kind == "K":
        return multipartite_graph(key[1])
    if kind == "P":
        return path_graph(key[1])
    if kind == "C":
        return cycle_graph(key[1])
    return _from_pair_mask(key[1], key[2])


def connected_graphs_upto(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on <= n
    vertices, by ascending vertex count.  A connected graph on k + 1 vertices
    is one on k plus a vertex joined to a non-empty subset (take away a leaf
    of a spanning tree), so each size grows from the classes of the one below."""
    if n > CLASS_ENUMERATION_MAX_VERTICES:
        raise ValueError(
            f"connected class enumeration is capped at {CLASS_ENUMERATION_MAX_VERTICES} vertices "
            f"(got {n}); the Koszul suite takes about 12 s at 7 vertices, and 8 vertices have 11,117 classes"
        )
    if n < 1:
        return []
    levels = [[Graph._from_masks(1, (0,))]]
    for k in range(1, n):
        reps: dict[tuple, Graph] = {}
        for h in levels[-1]:
            for s in range(1, 1 << k):
                rows = tuple(row | (s >> v & 1) << k for v, row in enumerate(h.adj_mask))
                g = Graph._from_masks(k + 1, rows + (s,))
                reps.setdefault(canonical_key(g), g)
        levels.append(list(reps.values()))
    return [g for level in levels for g in level]


# -- chromatic polynomial and acyclic orientations --------------------------------


def chromatic_polynomial(g: Graph) -> QPoly:
    """Exact chromatic polynomial by a frontier sweep, with no canonical key.

    The frontier is the placed vertices that still have an unplaced
    neighbour.  The next vertex placed is one with a placed twin (same
    neighbours besides each other) when there is one, so that a twin class
    is placed in one run and K[n,n] keeps the partitions of one side on the
    frontier rather than of both; then one with the most placed neighbours,
    as in maximum-cardinality search; then one of the highest degree, so
    that a star starts at its core.  A state is a partition of the frontier
    into colour classes, a sorted tuple of masks, and its value counts the
    colourings of the placed vertices that induce it.  A new vertex joins a
    class holding none of its neighbours, or takes one of the q - (number of
    classes) colours no class has.  Once every vertex is placed the frontier
    is empty and one state is left; its value is chi."""
    adj = g.adj_mask
    twins = [0] * g.n  # v -> its twin class, when that has two or more members
    for members in _twin_classes(adj):
        for v in _bits(members):
            twins[v] = members
    # new_colour[k] = q - k, the colours held by none of k classes
    new_colour = [QPoly({2: 1, 0: -k}) for k in range(g.n)]
    unplaced, ready = g.full_mask(), 0  # ready: the vertices with a placed twin
    states = {(): QPoly.one()}
    while unplaced:
        v = max(_bits(unplaced), key=lambda u: (ready >> u & 1, (adj[u] & ~unplaced).bit_count(), adj[u].bit_count()))
        bit = 1 << v
        unplaced ^= bit
        ready |= twins[v]
        alive = _neighbourhood(g, unplaced) & ~unplaced
        step: dict[tuple[int, ...], QPoly] = {}
        for classes, value in states.items():
            options = [(classes + (bit,), value * new_colour[len(classes)])]
            for i, c in enumerate(classes):
                if not c & adj[v]:
                    options.append((classes[:i] + (c | bit,) + classes[i + 1 :], value))
            for joined, count in options:
                key = tuple(sorted(c & alive for c in joined if c & alive))
                step[key] = step[key] + count if key in step else count
        states = step
    return states[()]


def count_acyclic_orientations(g: Graph) -> int:
    """Brute count of acyclic orientations with reachability pruning.

    Cross-checked against Stanley's (-1)^n * chi(-1) before returning.
    """
    edges = sorted(g.edges)
    n = g.n

    def rec(i: int, reach: list[int]) -> int:
        if i == len(edges):
            return 1
        u, v = edges[i]
        total = 0
        # orient u -> v unless v already reaches u
        if not (reach[v] >> u) & 1:
            total += rec(i + 1, _close(reach, u, v, n))
        if not (reach[u] >> v) & 1:
            total += rec(i + 1, _close(reach, v, u, n))
        return total

    count = rec(0, [1 << v for v in range(n)])
    expected = (-1) ** n * chromatic_polynomial(g).substitute(-1)
    if count != expected:
        raise AssertionError(
            f"acyclic orientation count {count} disagrees with (-1)^n chi(-1) = {expected}"
        )
    return int(count)


def _close(reach: list[int], u: int, v: int, n: int) -> list[int]:
    # add edge u -> v and retransitively close
    new = list(reach)
    gained = new[v] & ~new[u]
    if not gained and (new[u] >> v) & 1:
        return new
    for w in range(n):
        if (new[w] >> u) & 1:
            new[w] |= new[v] | (1 << v)
    return new


# -- external text formats ---------------------------------------------------------


def graph_from_text(text: str) -> Graph:
    """Parse the `n=<int>` + `u v` edge-line format; strict validation."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("first line must be n=<int>")
    n = int(lines[0][2:])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def graph_to_text(g: Graph) -> str:
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines)


def graph_from_graph6(s: str) -> Graph:
    """Decode a standard graph6 string (ASCII, n < 63 supported)."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        raise ValueError("graph6 strings with n >= 63 are not supported")
    n = data[0]
    if n == 0:
        raise ValueError("graph6 string encodes the graph with no vertices")
    bits = []
    for d in data[1:]:
        bits.extend((d >> shift) & 1 for shift in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise ValueError("graph6 string too short")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)
