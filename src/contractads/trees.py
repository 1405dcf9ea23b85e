"""Admissible rooted trees and the Groebner normal-monomial oracles.

A rooted tree with leaves labelled by the vertices of a connected graph G is
admissible when the leaf set of every subtree is a tube of G; it is stable
when every internal vertex has at least two children.  Stable trees index the
boundary strata of the wonderful compactification, and the normal monomials
of the quadratic Groebner bases give brute-force dimension counts for the
contractads handled here.

Trees live in the shuffle presentation: children of every internal vertex are
ordered by their minimal leaf with respect to a vertex ordering.  The
quadratic normality conditions depend on that ordering and on which end of
each quadratic relation is declared leading.  Two coherent conventions are
supported: the forbidden inner pair of a 2-subtree pattern is the minimal
cell joined with its minimal neighbour ("min", the default for explicit
orderings) or with its maximal neighbour ("max").  Neither convention
realises a basis for every (graph, ordering) pair, but normal monomials
always span (rewriting by the relations), so any count is an overcount.
When no explicit ordering is passed, the counting operations evaluate a
deterministic ensemble of search orders under both conventions and keep the
smallest count, which is labelling-invariant and attains the true dimension
on every connected graph with at most 6 vertices.  `oracle_witness` names the
order and convention that attained it.

Every normality condition is local: it reads one internal vertex, the leaf
masks of its children and the leaf masks of its grandchildren.  So the
kernel stores each tree of a (graph, binary?) pair once, as the tuple of
ids of its interned internal vertices ("node patterns"), together with the
set of trees containing each pattern as a bitset (a Python int).  For one
ordering it checks every distinct pattern once, under both conventions,
against the per-graph table `tube[mask]` and the per-ordering table
`min_rank[mask]`, ORs together the tree sets of the failing patterns, and
reads each graded count off as a popcount.  The explicit-order path and the
ensemble share this kernel.  `AdmissibleTree` objects are built only on
demand.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import Callable, Iterator, Sequence

from .graphs import (
    TREE_MAX_VERTICES,
    Graph,
    _bits,
    _neighbourhood,
    _partition_masks,
    canonical_graph,
    connected_subset_masks,
    count_acyclic_orientations,
    tube_masks,
)
from .graphic_functions import gerst_total_dim


class AdmissibleTree:
    """Rooted tree with leaf labels.  Children are stored sorted by minimal
    leaf label; `mask` is the bitmask of the leaf set."""

    __slots__ = ("children", "leaf", "mask")

    def __init__(self, leaf: int | None = None, children: Sequence["AdmissibleTree"] = ()):
        if leaf is not None:
            self.leaf = leaf
            self.children = ()
            self.mask = 1 << leaf
        else:
            self.leaf = None
            self.children = tuple(sorted(children, key=lambda t: t.mask & -t.mask))
            mask = 0
            for t in self.children:
                mask |= t.mask
            self.mask = mask

    @property
    def leaves(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    def is_leaf(self) -> bool:
        return self.leaf is not None

    def internal_count(self) -> int:
        if self.is_leaf():
            return 0
        return 1 + sum(t.internal_count() for t in self.children)

    def internal_nodes(self) -> Iterator["AdmissibleTree"]:
        if not self.is_leaf():
            yield self
            for t in self.children:
                yield from t.internal_nodes()

    def arity(self) -> int:
        return len(self.children)

    def __repr__(self):
        if self.is_leaf():
            return str(self.leaf)
        return "(" + ",".join(repr(t) for t in self.children) + ")"


def _check_cap(g: Graph):
    if g.n > TREE_MAX_VERTICES:
        raise ValueError(f"tree enumeration is capped at {TREE_MAX_VERTICES} vertices (got {g.n})")
    if not g.is_connected():
        raise ValueError("admissible trees need a connected graph")


def _rank_array(g: Graph, order: Sequence[int]) -> list[int]:
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must list every vertex exactly once")
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    return rank


def _min_ranks(rank: list[int]) -> list[int]:
    """min_rank[mask] for every mask, by peeling off the lowest bit; entry 0
    is len(rank), above every rank."""
    table = [len(rank)] * (1 << len(rank))
    for mask in range(1, len(table)):
        low = mask & -mask
        r = rank[low.bit_length() - 1]
        rest = table[mask ^ low]
        table[mask] = r if r < rest else rest
    return table


# -- search orders -------------------------------------------------------------


def _bfs_order(g: Graph, start: int, reverse: bool) -> list[int]:
    seen = [start]
    found = {start}
    i = 0
    while len(seen) < g.n:
        v = seen[i]
        i += 1
        for w in _bits(g.adj_mask[v])[::-1 if reverse else 1]:
            if w not in found:
                found.add(w)
                seen.append(w)
    return seen

def _dfs_order(g: Graph, start: int, reverse: bool) -> list[int]:
    seen: list[int] = []
    found: set[int] = set()
    stack = [start]
    while stack:
        v = stack.pop()
        if v in found:
            continue
        found.add(v)
        seen.append(v)
        for w in _bits(g.adj_mask[v])[::1 if reverse else -1]:
            if w not in found:
                stack.append(w)
    return seen


def search_orders(g: Graph) -> list[list[int]]:
    """Deterministic ensemble of vertex orderings: the identity plus breadth-
    and depth-first orders from every start vertex, both neighbour
    directions."""
    seen = {tuple(range(g.n))}
    for v in range(g.n):
        for reverse in (False, True):
            seen.add(tuple(_bfs_order(g, v, reverse)))
            seen.add(tuple(_dfs_order(g, v, reverse)))
    return [list(o) for o in sorted(seen)]


# -- enumeration ------------------------------------------------------------------

# A node pattern is an internal vertex seen from its parent's side: the tuple
# of (child mask, tuple of that child's children masks), children sorted by
# minimal leaf label.  A leaf child has no children masks.
_Node = tuple[tuple[int, tuple[int, ...]], ...]


class _TreeStore:
    """All stable (or all binary) admissible trees of one graph, each stored
    once as the tuple of its node-pattern ids in preorder.

    `containing[p]` and `grades[r]` are bitsets over tree indices: the trees
    holding pattern p, and the trees with r internal vertices.  `tube[mask]`
    says whether the mask induces a connected subgraph."""

    __slots__ = ("full", "nodes", "trees", "containing", "grades", "tube")

    def __init__(self, g: Graph, binary: bool):
        ids: dict[_Node, int] = {}
        self.nodes: list[_Node] = []
        memo: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}

        def grow(blocks: tuple[int, ...], options) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
            for subs in product(*options):
                node = tuple((b, kids) for b, (kids, _) in zip(blocks, subs))
                p = ids.get(node)
                if p is None:
                    p = ids[node] = len(self.nodes)
                    self.nodes.append(node)
                below = (p,)
                for _, sub_ids in subs:
                    below += sub_ids
                yield blocks, below

        def subtrees(mask: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
            # each subtree is (its root's children masks, its pattern ids)
            found = memo.get(mask)
            if found is not None:
                return found
            found = []
            if mask & (mask - 1) == 0:
                found.append(((), ()))
            elif binary:
                v = (mask & -mask).bit_length() - 1
                for left in connected_subset_masks(g, mask, v):
                    right = mask & ~left
                    if right == 0 or not g.subset_connected(right):
                        continue
                    found.extend(grow((left, right), (subtrees(left), subtrees(right))))
            else:
                for blocks in _partition_masks(g, mask):
                    if len(blocks) > 1:  # the root needs at least two children
                        found.extend(grow(blocks, [subtrees(b) for b in blocks]))
            memo[mask] = found
            return found

        self.full = g.full_mask()
        self.trees = [tree_ids for _, tree_ids in subtrees(self.full)]
        members: list[list[int]] = [[] for _ in self.nodes]
        by_grade: list[list[int]] = [[] for _ in range(g.n)]
        for t, tree_ids in enumerate(self.trees):
            by_grade[len(tree_ids)].append(t)
            for p in tree_ids:
                members[p].append(t)
        self.containing = [self._bitset(ts) for ts in members]
        self.grades = [self._bitset(ts) for ts in by_grade]
        self.tube = [g.subset_connected(mask) for mask in range(self.full + 1)]

    def _bitset(self, indices: list[int]) -> int:
        bits = bytearray((len(self.trees) >> 3) + 1)
        for t in indices:
            bits[t >> 3] |= 1 << (t & 7)
        return int.from_bytes(bits, "little")

    def tree(self, t: int) -> AdmissibleTree:
        """Tree number t, rebuilt from its preorder pattern ids."""
        nodes = self.nodes
        it = iter(self.trees[t])

        def build(mask: int, internal: bool) -> AdmissibleTree:
            if not internal:
                return AdmissibleTree(leaf=mask.bit_length() - 1)
            return AdmissibleTree(children=[build(c, bool(kids)) for c, kids in nodes[next(it)]])

        return build(self.full, bool(self.trees[t]))


def _tree_store(g: Graph, binary: bool) -> _TreeStore:
    _check_cap(g)
    return _cached_tree_store(g, binary)


# a graph hashes and compares by its neighbour masks
_cached_tree_store = functools.cache(_TreeStore)


def enumerate_admissible_trees(g: Graph) -> list[AdmissibleTree]:
    """All stable admissible trees, by choosing the root partition and
    recursing into the blocks.

    Dropping stability would admit chains of single-child vertices and make
    the set infinite, so only the stable enumeration exists.
    """
    store = _tree_store(g, False)
    return [store.tree(t) for t in range(len(store.trees))]


def enumerate_binary_trees(g: Graph) -> list[AdmissibleTree]:
    store = _tree_store(g, True)
    return [store.tree(t) for t in range(len(store.trees))]


def stable_tree_count(g: Graph) -> int:
    return len(_tree_store(g, False).trees)


# -- normality rules ------------------------------------------------------------------
#
# Each rule reads one node pattern, the graph's tube table and an ordering's
# min_rank table, and returns which conventions the pattern breaks: bit 0 set
# when it breaks "min", bit 1 when it breaks "max".  A tree is normal under a
# convention when none of its patterns breaks it.  Distinct cells have
# distinct minimal ranks, so rank comparisons never tie.

_MIN_FAILS, _MAX_FAILS, _BOTH_FAIL = 1, 2, 3


def _lie_fails(node: _Node, tube: list[bool], rank: list[int]) -> int:
    """Binary bracket: in every sub-pattern b(b(L1, L2), L3) of the shuffle
    presentation, L1 u L3 must be a tube and min L2 > min L3 (the "min"
    convention; "max" reverses the inequality).  Equivalently, the inner
    pair must avoid the edge joining the minimal cell of the contracted
    pattern graph to its minimal (resp. maximal) neighbour."""
    (first, inner), (second, other) = node
    if rank[second] < rank[first]:
        first, inner, second = second, other, first
    if not inner:
        return 0
    l1, l2 = inner
    if rank[l2] < rank[l1]:
        l1, l2 = l2, l1
    if not tube[l1 | second]:
        return _BOTH_FAIL
    return _MIN_FAILS if rank[l2] < rank[second] else _MAX_FAILS


def _hyper_fails(node: _Node, tube: list[bool], rank: list[int]) -> int:
    """Monomial-basis condition: for every 2-subtree whose top vertex w is a
    binary internal child of v with child subtrees tau1, tau2 and siblings
    tau_i (i >= 3):

      (i)  min L(tau_i) > min L(tau_1) for i > 1, i.e. w is the first child;
      (ii) if L(tau_i) u L(tau_1) is a tube then min L(tau_i) > min L(tau_2)
           ("min" convention; "max" reverses the inequality in (ii)).
    """
    verdict = 0
    for w, kids in node:
        if len(kids) != 2:
            continue
        tau1, tau2 = kids
        r1, r2 = rank[tau1], rank[tau2]
        if r2 < r1:
            tau1, r1, r2 = tau2, r2, r1
        for sibling, _ in node:
            if sibling == w:
                continue
            rs = rank[sibling]
            if rs < r1:
                return _BOTH_FAIL
            if tube[sibling | tau1]:
                verdict |= _MIN_FAILS if rs < r2 else _MAX_FAILS
    return verdict


def _grav_fails(node: _Node, tube: list[bool], rank: list[int]) -> int:
    """Gravity normality: all non-root internal vertices binary, and every
    binary 2-subtree avoids the distinguished edge of its contracted pattern
    graph (minimal cell joined to its minimal or maximal neighbour, by
    convention).

    The cells of the pattern below a binary child w = (a, b), a ranked
    below b, are a, b and the siblings of w.  The distinguished edge can be {a, b}
    only when a is the minimal cell; b is then always a neighbour of a, and
    the edge is {a, b} when no sibling joined to a ranks below b ("min") or
    above b ("max")."""
    verdict = 0
    for w, kids in node:
        if not kids:
            continue
        if len(kids) != 2:
            return _BOTH_FAIL
        a, b = kids
        if rank[b] < rank[a]:
            a, b = b, a
        siblings = [c for c, _ in node if c != w]
        low = min(siblings, key=rank.__getitem__)
        if rank[low] < rank[a]:
            if not any(tube[c | low] for c in siblings + [a, b] if c != low):
                raise AssertionError("contracted pattern graph must be connected")
            continue
        rb = rank[b]
        fails = _BOTH_FAIL
        for c in siblings:
            if tube[c | a]:
                fails &= _MAX_FAILS if rank[c] < rb else _MIN_FAILS
        verdict |= fails
    return verdict


_Rule = Callable[[_Node, list, list], int]

# kind -> (binary trees?, rule)
_ORACLES: dict[str, tuple[bool, _Rule]] = {
    "lie": (True, _lie_fails),
    "hyper": (False, _hyper_fails),
    "grav": (False, _grav_fails),
}


# -- counting oracles ---------------------------------------------------------------


def _non_normal(store: _TreeStore, rank: list[int], rule: _Rule) -> tuple[int, int]:
    """Bitsets of the trees that are not normal under the "min" and under
    the "max" convention, for one min_rank table; each node pattern is
    checked once."""
    tube = store.tube
    by_verdict = [0, 0, 0, 0]
    for node, trees in zip(store.nodes, store.containing):
        verdict = rule(node, tube, rank)
        if verdict:
            by_verdict[verdict] |= trees
    both = by_verdict[_BOTH_FAIL]
    return by_verdict[_MIN_FAILS] | both, by_verdict[_MAX_FAILS] | both


def _graded_normal(store: _TreeStore, bad: int) -> list[int]:
    return [(grade & ~bad).bit_count() for grade in store.grades]


def _normal_counts(g: Graph, kind: str, order: Sequence[int] | None) -> tuple[list[int], list[int], str]:
    """(graded counts, order, convention).  An explicit order is evaluated
    literally on g under the "min" convention.  Otherwise the ensemble runs
    on the canonical representative and keeps the smallest total: each
    candidate is a spanning set, so the minimum is the tightest
    combinatorial upper bound for the dimensions.  Ties go to the first
    candidate, search orders in sorted order and "min" before "max"."""
    if kind not in _ORACLES:
        raise ValueError(f"unknown oracle {kind!r}; expected one of {sorted(_ORACLES)}")
    binary, rule = _ORACLES[kind]
    if order is not None:
        store = _tree_store(g, binary)
        bad_min, _ = _non_normal(store, _min_ranks(_rank_array(g, order)), rule)
        return _graded_normal(store, bad_min), list(order), "min"
    g = canonical_graph(g)
    store = _tree_store(g, binary)
    best = None
    for candidate in search_orders(g):
        bads = _non_normal(store, _min_ranks(_rank_array(g, candidate)), rule)
        for convention, bad in zip(("min", "max"), bads):
            counts = _graded_normal(store, bad)
            if best is None or sum(counts) < sum(best[0]):
                best = (counts, candidate, convention)
    return best


def oracle_witness(g: Graph, kind: str) -> tuple[list[int], str]:
    """The (search order, "min" | "max") at which the ensemble of `kind`
    ("lie", "hyper" or "grav") attains its reported count.  The order lists
    the vertices of `canonical_graph(g)`, where the ensemble runs; under the
    "min" convention, passing it as `order=` on that graph reproduces the
    counts."""
    _, order, convention = _normal_counts(g, kind, None)
    return order, convention


def gclie_normal_count(g: Graph, order: Sequence[int] | None = None) -> int:
    """Number of normal binary monomials; equals |mu(G)| whenever the
    quadratic rewriting terminates in a basis (checked downstream).

    With no explicit order the count is evaluated on the canonical
    representative over the search-order ensemble, making it independent of
    the input labelling."""
    return sum(_normal_counts(g, "lie", order)[0])


def gchyper_normal_counts(g: Graph, order: Sequence[int] | None = None) -> list[int]:
    """Counts of normal stable trees graded by the number of internal
    vertices r = 0 .. n-1; entry r matches the q^r coefficient of the
    weight-graded hypercommutative Hilbert series.  Only the one-vertex
    graph has a weight-0 monomial (the bare leaf, i.e. the unit)."""
    return _normal_counts(g, "hyper", order)[0]


def gcgrav_normal_counts(g: Graph, order: Sequence[int] | None = None) -> list[int]:
    """Counts of normal gravity monomials graded by internal vertices.

    For graphs with at least two vertices, twice the total count must equal
    the total little-disks dimension (the defining check, asserted here).
    """
    counts = _normal_counts(g, "grav", order)[0]
    if g.n >= 2:
        total = sum(counts)
        expected = gerst_total_dim(g)
        if 2 * total != expected:
            raise AssertionError(
                f"gravity normal count {total} does not satisfy 2*count = {expected} on {g!r}"
            )
    return counts


def gccom_normal(g: Graph, order: Sequence[int] | None = None) -> AdmissibleTree:
    """The unique normal monomial of the one-dimensional contractad: the left
    comb that at each step merges the grown tube with its minimal unvisited
    neighbour.  Existence needs connectivity; uniqueness is by construction
    and the result is asserted admissible."""
    _check_cap(g)
    rank = list(range(g.n)) if order is None else _rank_array(g, order)
    verts = sorted(range(g.n), key=lambda v: rank[v])
    grown_mask = 1 << verts[0]
    tree = AdmissibleTree(leaf=verts[0])
    while grown_mask != g.full_mask():
        neighbours = _bits(_neighbourhood(g, grown_mask) & ~grown_mask)
        if not neighbours:
            raise AssertionError("connected graph ran out of neighbours")
        nxt = min(neighbours, key=lambda v: rank[v])
        tree = AdmissibleTree(children=[tree, AdmissibleTree(leaf=nxt)])
        grown_mask |= 1 << nxt
        if not g.subset_connected(grown_mask):
            raise AssertionError("comb construction left the tube lattice")
    return tree


def gcass_dimension(g: Graph) -> int:
    """Dimension of the associative contractad component: vertex orderings up
    to swapping adjacent non-adjacent vertices.  Computed by orbit counting
    and cross-checked against the acyclic-orientation count."""
    _check_cap(g)
    from itertools import permutations

    seen: set[tuple[int, ...]] = set()
    classes = 0
    for perm in permutations(range(g.n)):
        if perm in seen:
            continue
        classes += 1
        stack = [perm]
        seen.add(perm)
        while stack:
            cur = stack.pop()
            for i in range(g.n - 1):
                if not g.has_edge(cur[i], cur[i + 1]):
                    nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    orientations = count_acyclic_orientations(g)
    if classes != orientations:
        raise AssertionError(
            f"ordering classes {classes} disagree with acyclic orientations {orientations}"
        )
    return classes


def nested_set_count(g: Graph) -> int:
    """Number of nested sets of proper non-trivial tubes (pairwise comparable
    or disjoint), the empty set included.  Independent cross-check for the
    stable tree count; exponential in the number of tubes, so only usable on
    small or sparse graphs."""
    full = g.full_mask()
    tubes = [t for t in tube_masks(g) if t.bit_count() >= 2 and t != full]
    if len(tubes) > 20:
        raise ValueError("too many tubes for the brute-force nested-set count")
    # two masks nest or are disjoint exactly when their meet is 0 or one of them
    compatible = [[a & b in (0, a, b) for b in tubes] for a in tubes]
    count = 0

    def rec(i: int, chosen: list[int]):
        nonlocal count
        if i == len(tubes):
            count += 1
            return
        rec(i + 1, chosen)
        if all(compatible[i][j] for j in chosen):
            chosen.append(i)
            rec(i + 1, chosen)
            chosen.pop()

    rec(0, [])
    return count
