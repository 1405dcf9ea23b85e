"""Reference values computed apart from the contractads package.

Standard library only: nothing here imports the program under test, and no
formula here shares code with it.  Graphs are ``(n, edges)`` pairs with
vertices ``0..n-1``.  Polynomials in q are ``{power: int or Fraction}`` dicts
with zero coefficients dropped.

Sources of each reference:

- chromatic polynomials: closed forms for K_n, C_n and trees; Stirling
  numbers for complete multipartite K_lambda; for any other graph, partitions
  of the vertex set into independent sets (chi = sum_k a_k (q)_k), with
  brute-force proper-colouring counts as a second check;
- Moebius value: the linear coefficient of the chromatic polynomial (the
  Moebius function of the bond lattice);
- complex wonderful compactification: the Feichtner-Yuzvinsky basis of the
  cohomology, summed over nested sets of tubes (any graph); Narayana numbers
  for P_n, Eulerian numbers for St_n, Keel's recursion for the Poincare
  polynomial of M_{0,n+1}-bar for K_n;
- real locus of K_n: the Etingof-Henriques-Kamnitzer-Rains product;
- real locus of St_n: the binomial transform of the Euler (secant) numbers;
- connected graph classes: OEIS A001349 and a brute-force canonical form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

Poly = dict  # power of q -> coefficient

A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)  # connected graphs on 1, 2, ... vertices


# -- polynomial arithmetic ------------------------------------------------------


def p_clean(p: Poly) -> Poly:
    return {k: c for k, c in p.items() if c}


def p_add(a: Poly, b: Poly, scale=1) -> Poly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
    return p_clean(out)


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return p_clean(out)


def p_scale(a: Poly, c) -> Poly:
    return p_clean({k: v * c for k, v in a.items()})


def p_shift(a: Poly, k: int) -> Poly:
    return {e + k: c for e, c in a.items()}


def p_pow(a: Poly, n: int) -> Poly:
    out: Poly = {0: 1}
    for _ in range(n):
        out = p_mul(out, a)
    return out


def p_reverse(a: Poly, degree: int) -> Poly:
    """q^degree * a(1/q)."""
    return {degree - k: c for k, c in a.items()}


def p_div_q_minus_1(a: Poly) -> Poly:
    """Exact division by (q - 1); raises ValueError on a remainder."""
    out: Poly = {}
    rem = dict(a)
    while rem:
        top = max(rem)
        c = rem.pop(top)
        if top == 0:
            raise ValueError("not divisible by q - 1")
        out[top - 1] = c
        rem[top - 1] = rem.get(top - 1, 0) + c
        if not rem[top - 1]:
            del rem[top - 1]
    return out


def p_eval(a: Poly, x):
    return sum(c * x**k for k, c in a.items())


def falling(k: int) -> Poly:
    """(q)_k = q (q-1) ... (q-k+1)."""
    out: Poly = {0: 1}
    for i in range(k):
        out = p_mul(out, {1: 1, 0: -i} if i else {1: 1})
    return out


# -- graphs -----------------------------------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def is_connected_mask(adj: list[int], mask: int) -> bool:
    if not mask:
        return False
    seen = frontier = mask & -mask
    while frontier:
        v = frontier & -frontier
        frontier ^= v
        new = adj[v.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def is_connected(n: int, edges) -> bool:
    return is_connected_mask(adjacency(n, edges), (1 << n) - 1)


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int):
    return list(itertools.combinations(range(n), 2))


def star_edges(n: int):
    """St_n: centre 0 joined to n leaves."""
    return [(0, i) for i in range(1, n + 1)]


def multipartite_edges(parts):
    blocks, start = [], 0
    for p in parts:
        blocks.append(range(start, start + p))
        start += p
    return [(u, v) for a, b in itertools.combinations(blocks, 2) for u in a for v in b]


def count_graph_partitions(n: int, edges) -> int:
    """Partitions of the vertex set into tubes (connected blocks)."""
    adj = adjacency(n, edges)
    memo = {0: 1}

    def count(rem: int) -> int:
        if rem not in memo:
            low = rem & -rem
            rest = rem ^ low
            total = 0
            sub = rest
            while True:
                if is_connected_mask(adj, sub | low):
                    total += count(rem ^ (sub | low))
                if not sub:
                    break
                sub = (sub - 1) & rest
            memo[rem] = total
        return memo[rem]

    return count((1 << n) - 1)


def canonical_form(n: int, edges) -> tuple:
    """Smallest sorted edge list over all n! relabellings (small n only)."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or key < best:
            best = key
    return (n, best)


def connected_classes(max_n: int) -> list[tuple[int, list]]:
    """One representative per isomorphism class of connected graphs, built by
    adding a vertex to every class one size smaller (every connected graph
    has a vertex whose removal leaves it connected)."""
    classes = [(1, [])]
    layer = [(1, [])]
    for n in range(2, max_n + 1):
        found = {}
        for m, edges in layer:
            for nbrs in range(1, 1 << m):
                new = edges + [(v, m) for v in range(m) if nbrs >> v & 1]
                key = canonical_form(n, new)
                found.setdefault(key, (n, sorted(new)))
        layer = [found[k] for k in sorted(found)]
        classes.extend(layer)
    return classes


# -- chromatic polynomials -------------------------------------------------------------


def stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def chromatic_complete(n: int) -> Poly:
    return falling(n)


def chromatic_cycle(n: int) -> Poly:
    return p_add(p_pow({1: 1, 0: -1}, n), {1: (-1) ** n, 0: -((-1) ** n)})


def chromatic_tree(n: int) -> Poly:
    return p_mul({1: 1}, p_pow({1: 1, 0: -1}, n - 1))


def chromatic_multipartite(parts) -> Poly:
    """Each part splits into j_i non-empty colour classes; all classes of all
    parts get distinct colours."""
    total: Poly = {}
    for js in itertools.product(*(range(1, p + 1) for p in parts)):
        ways = 1
        for p, j in zip(parts, js):
            ways *= stirling2(p, j)
        total = p_add(total, falling(sum(js)), ways)
    return total


def chromatic_independent_partitions(n: int, edges) -> Poly:
    """chi = sum_k a_k (q)_k, a_k = number of partitions of the vertex set
    into k independent sets."""
    adj = adjacency(n, edges)
    independent = [True] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        independent[mask] = independent[rest] and not (adj[low] & rest)
    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def counts(mask: int) -> dict[int, int]:
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        rest = mask ^ low
        out: dict[int, int] = {}
        sub = rest
        while True:
            block = sub | low
            if independent[block]:
                for k, c in counts(mask ^ block).items():
                    out[k + 1] = out.get(k + 1, 0) + c
            if not sub:
                break
            sub = (sub - 1) & rest
        memo[mask] = out
        return out

    total: Poly = {}
    for k, a in counts((1 << n) - 1).items():
        total = p_add(total, falling(k), a)
    return total


def proper_colourings(n: int, edges, k: int) -> int:
    """Brute-force count of proper colourings with k colours."""
    adj = adjacency(n, edges)
    colour = [-1] * n

    def rec(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for c in range(k):
            if all(colour[w] != c for w in range(v) if adj[v] >> w & 1):
                colour[v] = c
                total += rec(v + 1)
        colour[v] = -1
        return total

    return rec(0)


def mobius_from_chromatic(chi: Poly) -> int:
    return chi.get(1, 0)


def gerst_from_chromatic(n: int, chi: Poly) -> Poly:
    """Little-disks Hilbert series q^n chi(1/q)."""
    return p_reverse(chi, n)


def grav_from_chromatic(n: int, chi: Poly) -> Poly:
    """(q * gerst - eps) / (q - 1)."""
    numerator = p_shift(gerst_from_chromatic(n, chi), 1)
    if n == 1:
        numerator = p_add(numerator, {0: 1}, -1)
    return p_div_q_minus_1(numerator)


# -- complex wonderful compactification ----------------------------------------------


def _q_range(lo: int, hi: int) -> Poly:
    return {k: 1 for k in range(lo, hi + 1)}


def complex_nested_sets(n: int, edges) -> Poly:
    """Poincare polynomial (q = degree-2 class) from the Feichtner-Yuzvinsky
    basis: a sum over nested sets S of tubes with at least two vertices of
    prod_{T in S} (q + ... + q^(d_T - 1)), where d_T = rank(T) minus the
    rank of the join of the elements of S below T, rank(T) = |T| - 1.  The
    elements of S directly below T are disjoint tubes, so they, together with
    the singletons of T they miss, form a graph partition of T with
    d_T = (number of blocks) - 1."""
    adj = adjacency(n, edges)
    tube_cache: dict[tuple[int, int], list[int]] = {}

    def tubes_containing_low(rem: int) -> list[int]:
        low = rem & -rem
        key = (rem, low)
        if key not in tube_cache:
            found = {low}
            stack = [low]
            while stack:
                cur = stack.pop()
                nbrs = 0
                sub = cur
                while sub:
                    v = sub & -sub
                    sub ^= v
                    nbrs |= adj[v.bit_length() - 1]
                nbrs &= rem & ~cur
                while nbrs:
                    w = nbrs & -nbrs
                    nbrs ^= w
                    if cur | w not in found:
                        found.add(cur | w)
                        stack.append(cur | w)
            tube_cache[key] = sorted(found)
        return tube_cache[key]

    nested: dict[int, Poly] = {}  # tube -> sum over nested sets within it containing it
    proper: dict[int, dict[int, Poly]] = {0: {0: {0: 1}}}  # partitions into >= 2 blocks

    def block_weight(block: int) -> Poly:
        if not block & (block - 1):
            return {0: 1}
        if block not in nested:
            total: Poly = {}
            for k, poly in partitions_of(block, proper_only=True).items():
                if k >= 3:
                    total = p_add(total, p_mul(_q_range(1, k - 2), poly))
            nested[block] = total
        return nested[block]

    def partitions_of(rem: int, proper_only: bool = False) -> dict[int, Poly]:
        """Blocks count -> sum over graph partitions of rem of the product of
        block weights; proper_only leaves out the one-block partition."""
        if rem not in proper:
            out: dict[int, Poly] = {}
            for block in tubes_containing_low(rem):
                if block == rem:
                    continue
                w = block_weight(block)
                if not w:
                    continue
                for k, poly in partitions_of(rem ^ block).items():
                    out[k + 1] = p_add(out.get(k + 1, {}), p_mul(w, poly))
            proper[rem] = out
        if proper_only or rem == 0:
            return proper[rem]
        full = dict(proper[rem])
        if is_connected_mask(adj, rem):
            whole = block_weight(rem)
            if whole:
                full[1] = p_add(full.get(1, {}), whole)
        return full

    total: Poly = {}
    for poly in partitions_of((1 << n) - 1).values():
        total = p_add(total, poly)
    return total


def narayana_path(n: int) -> Poly:
    """complex(P_n) = sum_k N(n-1, k) q^(k-1)."""
    if n == 1:
        return {0: 1}
    m = n - 1
    return {k - 1: comb(m, k) * comb(m, k - 1) // m for k in range(1, m + 1)}


def eulerian_star(n: int) -> Poly:
    """complex(St_n) = sum_k A(n, k) q^k (Eulerian numbers); St_0 = P_1."""
    row = [1]  # A(0, .)
    for m in range(1, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0) + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return p_clean(dict(enumerate(row)))


def keel_complete(n: int) -> Poly:
    """complex(K_n) = Poincare polynomial of M_{0,n+1}-bar, by Keel's
    recursion P_{m+1} = (1+q) P_m + q/2 sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}."""
    if n <= 2:
        return {0: 1}
    P = {3: {0: 1}}
    for m in range(3, n + 1):
        acc = p_mul({0: 1, 1: 1}, P[m])
        for j in range(2, m - 1):
            acc = p_add(acc, p_shift(p_mul(P[j + 1], P[m - j + 1]), 1), Fraction(comb(m, j), 2))
        P[m + 1] = {k: int(c) for k, c in acc.items()}
    return P[n + 1]


def hyper_from_complex(n: int, complex_poly: Poly) -> Poly:
    """q * complex + (1 - q) eps."""
    out = p_shift(complex_poly, 1)
    if n == 1:
        out = p_add(out, {0: 1, 1: -1})
    return out


# -- real loci --------------------------------------------------------------------------


def ehkr_complete(n: int) -> Poly:
    """real(K_n) = prod_{0 <= i < (n-2)/2} (1 - (n-2-2i)^2 q)."""
    out: Poly = {0: 1}
    i = 0
    while 2 * i < n - 2:
        out = p_mul(out, {0: 1, 1: -((n - 2 - 2 * i) ** 2)})
        i += 1
    return out


def euler_secant(count: int) -> list[int]:
    """E_0, E_2, ...: sech(x) = sum E_2k x^2k / (2k)!, from sum_j C(2k,2j) E_2j = 0."""
    out = [1]
    for k in range(1, count):
        out.append(-sum(comb(2 * k, 2 * j) * out[j] for j in range(k)))
    return out


def real_star(n: int) -> Poly:
    """real(St_n): n! [t^n] e^t sech(sqrt(q) t) = sum_k C(n, 2k) E_2k q^k."""
    e = euler_secant(n // 2 + 1)
    return p_clean({k: comb(n, 2 * k) * e[k] for k in range(n // 2 + 1)})


# -- Young series keys ---------------------------------------------------------------------


def partitions_of_int(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    cap = n if max_part is None else min(n, max_part)
    return [(f,) + rest for f in range(cap, 0, -1) for rest in partitions_of_int(n - f, f)]


def young_keys(degree: int):
    """(n, lambda) with n + |lambda| <= degree: the coefficient of
    z^n m_lambda is f(K_{(1^n) u lambda}) / (n! prod lambda_i!) when that
    graph is connected (n > 0 or at least two parts), and 0 otherwise."""
    for n in range(degree + 1):
        for size in range(degree - n + 1):
            for lam in partitions_of_int(size):
                yield n, lam


def young_weight(n: int, lam) -> int:
    w = factorial(n)
    for p in lam:
        w *= factorial(p)
    return w
