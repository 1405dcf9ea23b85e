"""Seeded inputs for the four workloads.

Standard library only.  ``build(workload, seed)`` returns a JSON-able dict;
the worker turns it into calls on the program, and the checks read it back
to compute reference values.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

import references as R

WORKLOADS = ("hilbert_queries", "class_sweep", "tree_oracle", "series_young")

# Targets asked of each graph, in this order.  Values on one graph share
# memo entries (mobius and gerst both need mu), so the order is fixed.
WONDERFUL = ("complex", "hyper")
CHROMATIC_SIDE = ("gerst", "grav", "mobius", "chromatic")
# Complete multipartite graphs on <= 6 vertices with at least two parts,
# leaving out the ones that are K_n, St_n or C_4 under another name, and one
# on 7 vertices.
MULTIPARTITE = tuple(
    lam
    for n in range(4, 7)
    for lam in R.partitions_of_int(n)
    if len(lam) >= 2 and lam != (1,) * n and lam != (n - 1, 1) and lam != (2, 2)
) + ((3, 3, 1),)
# Generic slots: (vertices, edges, graph partitions) of one seeded random
# connected graph each.  The convolution walks the graph partitions, so
# holding their number within 5 % of the slot's value holds the work of a
# slot nearly the same for every seed.
GENERIC_SLOTS = ((7, 10, 200), (7, 13, 390), (8, 11, 450))
CUBE_Q3 = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]
CIRCULANT_C7_12 = sorted({tuple(sorted((i, (i + d) % 7))) for i in range(7) for d in (1, 2)})

# tree_oracle: every class with <= 5 vertices plus this fixed sample of
# 6-vertex classes (a tree, two triangles joined by an edge, a hexagon with
# two chords), which together cost about as much as the smaller classes.
TREE_SIX_VERTEX = (
    ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)),
    ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)),
)

CLASS_SWEEP_MAX_VERTICES = 6
SERIES_ORDER = 11
# The recurrences on K_n and St_n walk Bell(n) and 2^n partitions, so these
# two families are assembled to a lower order than the paths and cycles.
DENSE_FAMILY_ORDER = 8
YOUNG_DEGREE = 7
YOUNG_CLOSED_FORMS = ("chromatic", "modular_complex_G", "modular_real")


def in_size_order(rng: random.Random, items: list, size) -> list:
    """Ascending size, seeded order within a size.  Every quotient and block
    of a graph is smaller than the graph, so no operation computes a value
    that a later operation asks for, and the seed moves little work from one
    operation to another: the latency percentiles do not depend on it."""
    items = list(items)
    rng.shuffle(items)
    return sorted(items, key=size)


def relabel(rng: random.Random, n: int, edges) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(sorted((perm[u], perm[v])) for u, v in edges)


def _family_like(n: int, edges) -> bool:
    """Complete multipartite, path, cycle or star: those belong to the
    family share of the stream, not the generic one."""
    adj = R.adjacency(n, edges)
    degrees = sorted(bin(a).count("1") for a in adj)
    if len(edges) == n and degrees == [2] * n:
        return True
    if len(edges) == n - 1 and (degrees[-1] <= 2 or degrees[-1] == n - 1):
        return True
    full = (1 << n) - 1
    groups: dict[int, int] = {}
    for a in adj:
        groups[a] = groups.get(a, 0) + 1
    return all(bin(full & ~key).count("1") == size for key, size in groups.items())


def _generic_graph(rng: random.Random, n: int, m: int, partitions: int) -> list:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = sorted(rng.sample(pairs, m))
        if (
            R.is_connected(n, edges)
            and not _family_like(n, edges)
            and abs(R.count_graph_partitions(n, edges) - partitions) <= 0.05 * partitions
        ):
            return edges


def _hilbert_queries(rng: random.Random) -> dict:
    graphs = []  # (kind, params, n, edges)
    graphs += [("P", n, n, R.path_edges(n)) for n in range(1, 10)]
    graphs += [("K", n, n, R.complete_edges(n)) for n in range(3, 8)]
    graphs += [("C", n, n, R.cycle_edges(n)) for n in range(4, 10)]
    graphs += [("St", n, n + 1, R.star_edges(n)) for n in range(3, 9)]
    graphs += [("Klam", list(lam), sum(lam), R.multipartite_edges(lam)) for lam in MULTIPARTITE]
    generic = [(slot[0], _generic_graph(rng, *slot)) for slot in GENERIC_SLOTS]
    generic += [(8, CUBE_Q3), (7, CIRCULANT_C7_12)]
    graphs += [("g", None, n, edges) for n, edges in generic]

    graphs = [(kind, params, n, edges, CHROMATIC_SIDE) for kind, params, n, edges in graphs]
    # K_8 only for the wonderful targets: its chromatic-side values cost
    # about a second each and would dominate the stream.
    graphs.append(("K", 8, 8, R.complete_edges(8), ()))
    queries = []
    for kind, params, n, edges, chromatic_side in in_size_order(rng, graphs, lambda g: g[2]):
        edges = relabel(rng, n, edges)
        targets = list(WONDERFUL) + (["real"] if kind in ("K", "St") else []) + list(chromatic_side)
        for target in targets:
            queries.append({"target": target, "kind": kind, "params": params, "n": n, "edges": edges})
    return {"queries": queries}


def _class_sweep(rng: random.Random) -> dict:
    # connected_graphs_upto lists the classes by vertex count, A001349[k-1]
    # of them on k vertices; visit them by size, in seeded order within one.
    sizes = [k + 1 for k in range(CLASS_SWEEP_MAX_VERTICES) for _ in range(R.A001349[k])]
    order = in_size_order(rng, range(len(sizes)), lambda i: sizes[i])
    return {"max_vertices": CLASS_SWEEP_MAX_VERTICES, "order": order}


def _tree_oracle(rng: random.Random) -> dict:
    classes = [(n, edges) for n, edges in R.connected_classes(5)]
    classes += [(6, list(edges)) for edges in TREE_SIX_VERTEX]
    classes = in_size_order(rng, classes, lambda c: c[0])
    return {"graphs": [{"n": n, "edges": relabel(rng, n, edges)} for n, edges in classes]}


def _series_young(rng: random.Random) -> dict:
    # The closed forms share no cache, so the seed orders them.  The family
    # series share the recurrences' memo and the Young operations share the
    # symmetric-function structure constants: a seeded order would move that
    # work from one operation to another, so theirs is fixed.
    closed = [
        {"op": "closed_form", "target": target, "family": family, "order": SERIES_ORDER}
        for target in ("complex", "real")
        for family in ("P", "C", "K", "St")
    ]
    rng.shuffle(closed)
    recurrences = [
        {
            "op": "family_series",
            "target": target,
            "family": family,
            "order": DENSE_FAMILY_ORDER if family in ("K", "St") else SERIES_ORDER,
        }
        for target in ("complex", "real")
        for family in ("P", "C", "K", "St")
    ]
    young = [{"op": "young_closed_form", "target": t, "degree": YOUNG_DEGREE} for t in YOUNG_CLOSED_FORMS]
    young += [{"op": "young_of_graphic", "target": t, "degree": YOUNG_DEGREE} for t in ("complex", "real")]
    # G o F = z needs both factors, so the composition comes last.
    young.append({"op": "young_compose", "degree": YOUNG_DEGREE})
    return {"ops": closed + recurrences + young}


_BUILDERS = {
    "hilbert_queries": _hilbert_queries,
    "class_sweep": _class_sweep,
    "tree_oracle": _tree_oracle,
    "series_young": _series_young,
}


def build(workload: str, seed: int) -> dict:
    data = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    data["workload"] = workload
    data["seed"] = seed
    return data


def operation_count(inputs: dict) -> int:
    """Operations in one round of the workload."""
    workload = inputs["workload"]
    if workload == "hilbert_queries":
        return len(inputs["queries"])
    if workload == "class_sweep":
        return 1 + len(inputs["order"])
    if workload == "tree_oracle":
        return 4 * len(inputs["graphs"])
    return len(inputs["ops"])
