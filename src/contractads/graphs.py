"""Simple graphs, tubes, graph partitions, contraction, and classical oracles.

Vertices are the fixed integers 0..n-1.  A tube is a vertex subset whose
induced subgraph is connected; a graph partition is a partition of the vertex
set into tubes.  Contraction collapses each block to a vertex, with two blocks
adjacent exactly when their union is a tube.

On the computational path a vertex set is a bitmask and a graph partition is
a tuple of block masks ordered by lowest vertex.  `graph_partitions` is the
one partition enumerator and `quotient` the one construction of both the
contraction G/I and the induced subgraph G|_B.  `contract`, `contract_tube`
and `induced_subgraph` take vertex sets from outside and validate them.

Canonical keys make isomorphic graphs share memo entries.  Complete
multipartite graphs, paths and cycles are recognised structurally and get
parametric keys; everything else goes through colour refinement plus a
minimum-adjacency search within refinement classes (hard-capped, families
should be used beyond the cap).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .qpoly import QPoly


@dataclass(frozen=True)
class EnumerationCaps:
    """Size guards for the brute-force components."""

    canonical_max_vertices: int = 12
    canonical_max_orderings: int = 4_000_000
    tree_max_vertices: int = 8


DEFAULT_CAPS = EnumerationCaps()


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "adj_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], require_connected: bool = False):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} rejected")
            e = (u, v) if u < v else (v, u)
            if e in norm:
                raise ValueError(f"duplicate edge {e} rejected")
            norm.add(e)
        self.n = n
        self.edges = frozenset(norm)
        adj = [set() for _ in range(n)]
        mask = [0] * n
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self.adj = tuple(frozenset(a) for a in adj)
        self.adj_mask = tuple(mask)
        if require_connected and not self.is_connected():
            raise ValueError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

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
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

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


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        v = mask & -mask
        out.append(v.bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


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


def enumerate_tubes(g: Graph) -> list[frozenset[int]]:
    """Every non-empty vertex subset with connected induced subgraph."""
    masks: set[int] = set()
    full = g.full_mask()
    for v in range(g.n):
        masks.update(connected_subset_masks(g, full, v))
    return [_mask_to_set(m) for m in sorted(masks)]


def _partition_masks(g: Graph, remaining: int, odd_only: bool) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    v = (remaining & -remaining).bit_length() - 1
    for block in connected_subset_masks(g, remaining, v):
        if odd_only and bin(block).count("1") % 2 == 0:
            continue
        for rest in _partition_masks(g, remaining & ~block, odd_only):
            yield (block,) + rest


def graph_partitions(g: Graph, odd_only: bool = False) -> Iterator[tuple[int, ...]]:
    """Duplicate-free enumeration of graph partitions (with `odd_only`, of
    those whose blocks all have odd size), each a tuple of block masks
    ordered by lowest vertex.

    Recursion always peels off the tube containing the smallest uncovered
    vertex, so every partition is produced exactly once.
    """
    return _partition_masks(g, g.full_mask(), odd_only)


def quotient(g: Graph, blocks: Sequence[int]) -> Graph:
    """The graph on disjoint vertex masks B_0..B_{k-1}, with B_i and B_j
    adjacent when an edge of g joins them.

    On a graph partition ordered by lowest vertex, as `graph_partitions`
    yields it, this is the contraction G/I; on the singletons of a vertex set
    it is the induced subgraph.  The blocks are not validated.
    """
    reach = [_neighbourhood(g, b) for b in blocks]
    k = len(blocks)
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k) if reach[i] & blocks[j]])


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
        raise ValueError(f"vertex subset {sorted(_mask_to_set(mask))} is empty or out of range for n={g.n}")
    return subgraph(g, mask)


def contract(g: Graph, partition: Iterable[Iterable[int]]) -> Graph:
    """Quotient by a graph partition given as vertex sets; blocks ordered by
    their minimum vertex."""
    blocks = sorted((_set_to_mask(b) for b in partition), key=lambda b: b & -b)
    seen = 0
    for b in blocks:
        if seen & b or b >> g.n or not g.subset_connected(b):
            raise ValueError(f"block {sorted(_mask_to_set(b))} is empty, overlaps another or is not a tube")
        seen |= b
    if seen != g.full_mask():
        raise ValueError("blocks do not cover the vertex set")
    return quotient(g, blocks)


def contract_tube(g: Graph, tube: Iterable[int]) -> Graph:
    """Quotient by one tube, every other vertex a singleton block."""
    t = _set_to_mask(tube)
    if t >> g.n or not g.subset_connected(t):
        raise ValueError(f"{sorted(_mask_to_set(t))} is not a tube of a graph with n={g.n}")
    blocks = [t] + [1 << v for v in range(g.n) if not t >> v & 1]
    blocks.sort(key=lambda b: b & -b)
    return quotient(g, blocks)


def relabel_graph(g: Graph, perm: Sequence[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


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
    if g.m != g.n - 1 or not g.is_connected():
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    if g.n == 1:
        return True
    return degs[0] == degs[1] == 1 and all(d == 2 for d in degs[2:])


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n)) and g.is_connected()


# -- canonical keys --------------------------------------------------------------


def _refine_colors(g: Graph) -> list[int]:
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in g.adj[v]))) for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = [palette[s] for s in signatures]
        if new == colors:
            return colors
        colors = new


def _orderings_by_class(classes: list[list[int]]) -> Iterator[list[int]]:
    pools = [list(itertools.permutations(c)) for c in classes]
    for combo in itertools.product(*pools):
        order: list[int] = []
        for part in combo:
            order.extend(part)
        yield order


_pair_index_cache: dict[int, dict[tuple[int, int], int]] = {}


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    table = _pair_index_cache.get(n)
    if table is None:
        table = {}
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                table[(i, j)] = k
                k += 1
        _pair_index_cache[n] = table
    return table


_canonical_cache: dict[tuple[int, frozenset], tuple] = {}


def canonical_key(g: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> tuple:
    """Relabelling-invariant key; identical for isomorphic graphs.

    Disconnected graphs get the sorted tuple of component keys (needed by
    deletion-contraction intermediates).
    """
    cached = _canonical_cache.get((g.n, g.edges))
    if cached is not None:
        return cached
    key = _canonical_key_uncached(g, caps)
    _canonical_cache[(g.n, g.edges)] = key
    return key


def _canonical_key_uncached(g: Graph, caps: EnumerationCaps) -> tuple:
    if not g.is_connected():
        comps = connected_components(g)
        return ("disc", tuple(sorted(canonical_key(subgraph(g, c), caps) for c in comps)))
    parts = complete_multipartite_parts(g)
    if parts is not None:
        return ("K", parts)
    if _is_path(g):
        return ("P", g.n)
    if _is_cycle(g):
        return ("C", g.n)
    if g.n > caps.canonical_max_vertices:
        raise ValueError(
            f"canonical form for generic graphs is capped at "
            f"{caps.canonical_max_vertices} vertices (got {g.n}); "
            f"use the family constructors for large graphs"
        )
    colors = _refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    classes = [by_color[c] for c in sorted(by_color)]
    total = 1
    for c in classes:
        for i in range(2, len(c) + 1):
            total *= i
    if total > caps.canonical_max_orderings:
        raise ValueError(
            f"graph is too symmetric for brute-force canonicalisation "
            f"({total} orderings); use the family constructors"
        )
    pair = _pair_index(g.n)
    best = None
    for order in _orderings_by_class(classes):
        pos = [0] * g.n
        for slot, v in enumerate(order):
            pos[v] = slot
        mask = 0
        for u, v in g.edges:
            a, b = pos[u], pos[v]
            mask |= 1 << pair[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return ("g", g.n, best)


def canonical_graph(g: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> Graph:
    """A fixed representative of the isomorphism class, reconstructed from the
    canonical key.  Connected graphs only."""
    key = canonical_key(g, caps)
    kind = key[0]
    if kind == "K":
        return multipartite_graph(key[1])
    if kind == "P":
        return path_graph(key[1])
    if kind == "C":
        return cycle_graph(key[1])
    if kind == "g":
        _, n, mask = key
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        return Graph(n, edges)
    raise ValueError("canonical representative is only defined for connected graphs")


def connected_components(g: Graph) -> list[int]:
    """The vertex masks of the connected components, by lowest vertex."""
    comps = []
    remaining = g.full_mask()
    while remaining:
        comps.append(g.component(remaining))
        remaining &= ~comps[-1]
    return comps


# connected_graphs_upto sweeps all 2^(k(k-1)/2) labelled graphs on k vertices:
# 2^21 at 7 vertices, 2^28 at 8
CLASS_ENUMERATION_MAX_VERTICES = 7


def connected_graphs_upto(n: int, caps: EnumerationCaps = DEFAULT_CAPS) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on <= n vertices."""
    if n > CLASS_ENUMERATION_MAX_VERTICES:
        raise ValueError(
            f"connected class enumeration is capped at {CLASS_ENUMERATION_MAX_VERTICES} vertices "
            f"(got {n}); it sweeps every labelled graph"
        )
    reps: dict[tuple, Graph] = {}
    for k in range(1, n + 1):
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph(k, edges)
            if not g.is_connected():
                continue
            key = canonical_key(g, caps)
            if key not in reps:
                reps[key] = g
    return list(reps.values())


# -- chromatic polynomial and acyclic orientations --------------------------------


_chromatic_cache: dict[tuple, QPoly] = {}


def chromatic_polynomial(g: Graph) -> QPoly:
    """Exact chromatic polynomial by deletion-contraction, memoised on the
    canonical key.  Disconnected graphs multiply over components."""
    key = canonical_key(g)
    cached = _chromatic_cache.get(key)
    if cached is not None:
        return cached
    if not g.edges:
        result = QPoly.q(1) ** g.n
    elif not g.is_connected():
        result = QPoly.one()
        for comp in connected_components(g):
            result = result * chromatic_polynomial(subgraph(g, comp))
    else:
        u, v = min(g.edges)
        deleted = Graph(g.n, g.edges - {(u, v)})
        contracted = contract_tube(g, {u, v})
        result = chromatic_polynomial(deleted) - chromatic_polynomial(contracted)
    _chromatic_cache[key] = result
    return result


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
