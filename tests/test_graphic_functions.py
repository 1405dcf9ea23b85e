import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from contractads import clear_caches
from contractads.family_series import closed_form
from contractads.qpoly import QPoly
from contractads.graphs import (
    Graph,
    canonical_key,
    chromatic_polynomial,
    complete_graph,
    count_acyclic_orientations,
    connected_graphs_upto,
    cycle_graph,
    path_graph,
    star_graph,
    tube_masks,
)
from contractads.cli import qpoly_from_json
from contractads.series import _coeff
from contractads.graphic_functions import (
    GraphicFunction,
    _complex_block_factor,
    chromatic_gf,
    chromatic_symfun_tree_gf,
    convolve,
    gerst_hilbert_gf,
    gerst_total_dim,
    grav_weighted_gf,
    hyper_weighted_gf,
    mobius_gf,
    one_gf,
    one_param_gf,
    one_q_gf,
    one_q_odd_gf,
    star_inverse,
    unit_gf,
    wonderful_complex_gf,
    wonderful_real_gf,
)
from contractads.symfunc import SymFunc

random.seed(1127)
q = QPoly.q()


def random_gf(name, seed, lo=-3, hi=3):
    """Deterministic pseudo-random integer-valued graphic function."""
    rng = random.Random(seed)
    cache = {}

    def evaluate(g):
        key = canonical_key(g)
        if key not in cache:
            cache[key] = rng.randint(lo, hi)
        return cache[key]

    return GraphicFunction(name, evaluate)


def connected_random_gf(name, seed):
    f = random_gf(name, seed)
    return GraphicFunction(name, lambda g: 1 if g.n == 1 else f(g))


# -- product structure ------------------------------------------------------------


def test_convolution_simple():
    assert convolve(one_gf(), one_gf())(path_graph(2)) == 2


def test_unit_laws(graphs_upto_6):
    eps = unit_gf()
    f = random_gf("f", 7)
    left = convolve(eps, f)
    right = convolve(f, eps)
    for g in graphs_upto_6:
        assert left(g) == f(g)
        assert right(g) == f(g)


def test_associativity_on_random_triples(graphs_upto_5):
    for seed in range(3):
        f = random_gf("f", 100 + seed)
        g = random_gf("g", 200 + seed)
        h = random_gf("h", 300 + seed)
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        for graph in graphs_upto_5:
            assert lhs(graph) == rhs(graph)


def test_pointwise_product_of_powers(graphs_upto_5):
    # 1_x . 1_y = 1_{xy}, instantiated with x = 3, y = q
    f = one_param_gf(Fraction(3)) * one_param_gf(q)
    target = one_param_gf(3 * q)
    for g in graphs_upto_5:
        assert f(g) == target(g)


def test_technical_identities(graphs_upto_5):
    # 1_q.(f*g) = (1_q.f)*(1_q.g)   and   f*(q.g) = q.((1_q.f)*g)
    for seed in range(2):
        f = random_gf("f", 400 + seed)
        g = random_gf("g", 500 + seed)
        oq = one_q_gf()
        lhs1 = oq * convolve(f, g)
        rhs1 = convolve(oq * f, oq * g)
        lhs2 = convolve(f, g.scale(q))
        rhs2 = convolve(oq * f, g).scale(q)
        for graph in graphs_upto_5:
            assert lhs1(graph) == rhs1(graph)
            assert lhs2(graph) == rhs2(graph)


# -- star inversion ------------------------------------------------------------------


def test_mobius_closed_forms_small():
    mu = mobius_gf()
    assert mu(path_graph(4)) == -1
    assert mu(complete_graph(4)) == -6
    assert mu(cycle_graph(4)) == -3
    assert mu(star_graph(3)) == -1


def test_star_inverse_is_two_sided(graphs_upto_5):
    f = connected_random_gf("f", 42)
    inv = star_inverse(f)
    eps = unit_gf()
    left = convolve(inv, f)
    right = convolve(f, inv)
    for g in graphs_upto_5:
        assert left(g) == eps(g)
        assert right(g) == eps(g)


def test_star_inverse_requires_unit_value():
    f = GraphicFunction("2", lambda g: 2)
    with pytest.raises(ValueError):
        star_inverse(f)


# -- named Hilbert series ----------------------------------------------------------------


def test_chromatic_gf_matches_delcon(graphs_upto_5):
    chrom = chromatic_gf()
    for g in graphs_upto_5:
        assert chrom(g) == chromatic_polynomial(g)


def test_chromatic_examples():
    chrom = chromatic_gf()
    assert chrom(path_graph(1)) == q
    assert chrom(path_graph(3)) == q * (q - 1) ** 2
    assert chrom(cycle_graph(4)) == (q - 1) ** 4 + (q - 1)


def test_gerst_values():
    gerst = gerst_hilbert_gf()
    assert gerst(path_graph(1)) == QPoly.one()
    assert gerst(path_graph(2)) == 1 - q
    assert gerst(complete_graph(3)) == 1 - 3 * q + 2 * q**2


def test_gerst_counts_acyclic_orientations(graphs_upto_5):
    for g in graphs_upto_5:
        assert gerst_total_dim(g) == count_acyclic_orientations(g)


def test_gerst_matches_the_hadamard_product_on_seven_vertices():
    # the product it replaced, 1 * (1_q . mu), through the library's kernel
    clear_caches()
    reference = convolve(one_gf(), one_q_gf() * mobius_gf())
    gerst = gerst_hilbert_gf()
    classes = connected_graphs_upto(7)
    assert len(classes) == 996
    for g in classes:
        got, want = gerst(g), _coeff(reference(g))
        assert got == want, g
        assert type(got) is type(want), g
        assert [type(c) for _, c in got.items()] == [type(c) for _, c in want.items()], g


def test_outside_input_is_checked_for_connectivity():
    two_components = Graph(4, [(0, 1), (2, 3)])
    for build in (mobius_gf, chromatic_gf, gerst_hilbert_gf):
        with pytest.raises(ValueError, match="connected"):
            build()(two_components)


def test_functions_of_the_vertex_count_past_the_canonical_cap():
    # a generic graph on 14 vertices has no canonical key; n is the key here
    g = Graph(14, [(i, i + 1) for i in range(13)] + [(0, 2), (1, 5), (3, 9), (7, 12)])
    with pytest.raises(ValueError, match="capped"):
        canonical_key(g)
    assert unit_gf()(g) == 0
    assert one_gf()(g) == 1
    assert one_q_gf()(g) == QPoly.q(13)


def test_wonderful_complex_values():
    wc = wonderful_complex_gf()
    assert wc(path_graph(1)) == QPoly.one()
    assert wc(path_graph(3)) == 1 + q
    assert wc(complete_graph(4)) == 1 + 5 * q + q**2


def test_wonderful_complex_palindromic(graphs_upto_5):
    wc = wonderful_complex_gf()
    for g in graphs_upto_5:
        value = wc(g)
        deg = max(g.n - 2, 0)
        for k in range(deg + 1):
            assert value.coeff_q(k) == value.coeff_q(deg - k)


def test_wonderful_real_values():
    wr = wonderful_real_gf()
    assert wr(path_graph(1)) == QPoly.one()
    assert wr(path_graph(2)) == QPoly.one()
    assert wr(complete_graph(3)) == 1 - q


def test_hyper_and_grav_values():
    assert hyper_weighted_gf()(complete_graph(4)) == q + 5 * q**2 + q**3
    assert hyper_weighted_gf()(path_graph(1)) == QPoly.one()
    assert grav_weighted_gf()(path_graph(2)) == -1 * q
    assert grav_weighted_gf()(path_graph(1)) == QPoly.one()


def test_koszul_pairings_small(graphs_upto_5):
    eps = unit_gf()
    com_lie = convolve(one_q_gf() * mobius_gf(), one_q_gf())
    hyper_grav = convolve(hyper_weighted_gf(), grav_weighted_gf())
    grav_hyper = convolve(grav_weighted_gf(), hyper_weighted_gf())
    for g in graphs_upto_5:
        assert com_lie(g) == eps(g)
        assert hyper_grav(g) == eps(g)
        assert grav_hyper(g) == eps(g)


def test_star_inverse_of_hyper_is_grav(graphs_upto_6):
    # the Koszul pairing as an inverse, solved with an outer factor that is
    # not a function of the vertex count
    inverse, grav = star_inverse(hyper_weighted_gf()), grav_weighted_gf()
    assert len(graphs_upto_6) == 143
    for g in graphs_upto_6:
        assert inverse(g) == grav(g), g


def test_real_recurrence_uses_odd_blocks(graphs_upto_5):
    # chi_R * 1_q^odd = 1 on every graph
    pairing = convolve(wonderful_real_gf(), one_q_odd_gf())
    for g in graphs_upto_5:
        assert pairing(g) == QPoly.one()


def test_complex_recurrence_uses_the_block_factor(graphs_upto_5):
    # chi_C * phi = 1 on every graph, phi(n) = (q - q^(n-1))/(q - 1)
    pairing = convolve(wonderful_complex_gf(), GraphicFunction.of_size("phi", _complex_block_factor))
    for g in graphs_upto_5:
        assert pairing(g) == QPoly.one()


def test_wonderful_series_on_k10_match_the_closed_forms():
    # through the partition loop this would walk Bell(10) = 115,975 partitions
    g = complete_graph(10)
    assert wonderful_complex_gf()(g) == factorial(10) * closed_form("complex", "K", 10).coefficient(10)
    assert wonderful_real_gf()(g) == factorial(10) * closed_form("real", "K", 10).coefficient(10)


# -- chromatic symmetric function on trees ---------------------------------------------------


def coloring_symfun(g, nvars):
    total = SymFunc.zero(nvars)
    for assignment in range(nvars**g.n):
        digits = []
        a = assignment
        for _ in range(g.n):
            digits.append(a % nvars)
            a //= nvars
        if all(digits[u] != digits[v] for u, v in g.edges):
            # the coloring contributes the monomial x_{c(0)} ... x_{c(n-1)}
            exps = [0] * nvars
            for v in range(g.n):
                exps[digits[v]] += 1
            lam = tuple(sorted((e for e in exps if e), reverse=True))
            # each sorted exponent vector appears once per coloring; m_lambda
            # collects them with multiplicity one per distinct arrangement
            total = total + SymFunc(nvars, {lam: Fraction(1, _arrangements(lam, nvars))})
    return total


def _arrangements(lam, nvars):
    from math import factorial

    counts = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    zeros = nvars - len(lam)
    denom = factorial(zeros)
    for c in counts.values():
        denom *= factorial(c)
    return factorial(nvars) // denom


def test_chromatic_symfun_small_trees():
    xsym = chromatic_symfun_tree_gf(nvars=4)
    p1 = xsym(path_graph(1))
    assert p1 == SymFunc.power_sum(1, 4)
    p2 = xsym(path_graph(2))
    expected = SymFunc.power_sum(1, 4) * SymFunc.power_sum(1, 4) - SymFunc.power_sum(2, 4)
    assert p2 == expected


def test_chromatic_symfun_matches_coloring_oracle():
    xsym = chromatic_symfun_tree_gf(nvars=4)
    for g in [path_graph(3), star_graph(3), path_graph(4)]:
        assert xsym(g) == coloring_symfun(g, 4)


def test_chromatic_symfun_rejects_non_trees():
    xsym = chromatic_symfun_tree_gf()
    with pytest.raises(ValueError):
        xsym(cycle_graph(3))


# -- functions of the vertex count ------------------------------------------------------


def _generic_graph(n, m, seed):
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph(n, sorted(edges))
    assert canonical_key(g)[0] == "g"
    return g


def test_size_functions_skip_the_quotient(monkeypatch):
    import contractads.graphic_functions as gf

    def refuse(*args):
        raise AssertionError("G/I or G|_B built for an outer factor of the vertex count")

    clear_caches()  # no value may come from an earlier memo
    # the walk over the partitions keys each G/I by its blocks' neighbourhoods
    for name in ("_neighbourhood", "_joined", "quotient"):
        monkeypatch.setattr(gf, name, refuse)
    g = complete_graph(6)
    assert convolve(one_gf(), unit_gf())(g) == 1
    assert convolve(one_param_gf(2), one_gf())(path_graph(4)) == 27  # (1 + 2)^3
    monkeypatch.setattr(gf, "subgraph", refuse)
    assert star_inverse(one_gf())(g) == -120
    # sum_k S(6, k) q^(k-1): the inner 1 is read off the popcount too
    assert convolve(one_q_gf(), one_gf())(g) == QPoly({0: 1, 2: 31, 4: 90, 6: 65, 8: 15, 10: 1})
    trees = [path_graph(6), star_graph(5), Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])]
    xsym = chromatic_symfun_tree_gf(nvars=6)
    tree_values = [xsym(t) for t in trees]
    # 1 * starinv(phi) and 1_q * mu: both factors are read off the tube table of G
    graphs = [g, star_graph(5), cycle_graph(6), _generic_graph(8, 13, seed=20261019)]
    chromatic_base = convolve(one_q_gf(), mobius_gf())
    values = [(wonderful_complex_gf()(h), wonderful_real_gf()(h), chromatic_base(h)) for h in graphs]
    monkeypatch.undo()
    # the functional equations, through the walk over the partitions
    complex_pairing = convolve(wonderful_complex_gf(), GraphicFunction.of_size("phi", _complex_block_factor))
    real_pairing = convolve(wonderful_real_gf(), one_q_odd_gf())
    for h, (complex_value, real_value, chromatic_value) in zip(graphs, values):
        assert complex_pairing(h) == QPoly.one() and real_pairing(h) == QPoly.one()
        assert wonderful_complex_gf()(h) == complex_value and wonderful_real_gf()(h) == real_value
        assert q * chromatic_value == chromatic_polynomial(h)
    for t, value in zip(trees, tree_values):
        assert value == coloring_symfun(t, 6)


def test_mobius_k12_through_the_cli(capsys):
    from contractads.cli import main

    assert main(["mobius", "--graph", "K12", "--json"]) == 0
    assert capsys.readouterr().out.strip() == '{"mobius": -39916800}'  # -11!


def test_cli_queries_of_one_graph_solve_mu_once(monkeypatch, capsys):
    # gerst, mobius and chromatic of one graph, in the order the CLI is asked:
    # all three read the one table of mu at G
    import contractads.graphic_functions as gf
    from contractads.cli import main

    g = _generic_graph(8, 13, seed=20261020)
    spec = f"n={g.n}: " + ", ".join(f"{u}-{v}" for u, v in sorted(g.edges))
    solved = []
    monkeypatch.setattr(gf, "tube_masks", lambda graph, *within: solved.append(graph) or tube_masks(graph, *within))
    clear_caches()
    for command in (["hilbert", "--target", "gerst"], ["mobius"], ["chromatic"]):
        assert main([*command, "--graph", spec, "--json"]) == 0
    outputs = capsys.readouterr().out.splitlines()
    assert len(solved) == 1 and solved[0].adj_mask == g.adj_mask
    chrom = chromatic_polynomial(g)
    assert qpoly_from_json(json.loads(outputs[0])) == chrom.reversed_q(g.n)
    assert json.loads(outputs[1]) == {"mobius": chrom.coeff_q(1)}
    assert qpoly_from_json(json.loads(outputs[2])) == chrom


def test_size_rule_values_are_computed_once():
    sizes = []
    phi = GraphicFunction.of_size("phi", lambda n: sizes.append(n) or _complex_block_factor(n))
    wonderful = convolve(one_gf(), star_inverse(phi))
    for h in (complete_graph(5), cycle_graph(6), star_graph(5)):
        assert wonderful(h) == wonderful_complex_gf()(h)
    assert sorted(sizes) == sorted(set(sizes))


def test_mobius_is_linear_chromatic_coefficient_on_twelve_vertices():
    g = _generic_graph(12, 18, seed=20261018)
    assert mobius_gf()(g) == chromatic_polynomial(g).coeff_q(1)


_WRONG_CHROMATIC = """
import sys
import contractads.graphic_functions as gf
from contractads.graphs import complete_graph
from contractads.qpoly import QPoly

print("optimize", sys.flags.optimize)
gf.chromatic_polynomial = lambda g: QPoly.zero()
for name, build in (("chromatic", gf.chromatic_gf), ("gerst", gf.gerst_hilbert_gf)):
    try:
        build()(complete_graph(3))
    except AssertionError:
        print(name, "raised")
    else:
        print(name, "returned")
"""


@pytest.mark.parametrize("optimize", [0, 1])
def test_identity_checks_survive_python_O(optimize):
    # A fresh process per run: the shared memo would answer K_3 from a value
    # checked earlier in the session instead of recomputing it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_CHROMATIC], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [f"optimize {optimize}", "chromatic raised", "gerst raised"]


def test_library_has_no_bare_assert():
    # `assert` statements vanish under `python -O`; every check in the library
    # raises explicitly instead
    package = Path(__file__).resolve().parents[1] / "src" / "contractads"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert statements: {found}"


def test_library_keeps_no_module_level_containers():
    # every memo of the library is a functools cache, emptied by
    # clear_caches(); only the canonical-key table, keyed by the graph, is a dict
    package = Path(__file__).resolve().parents[1] / "src" / "contractads"
    allowed = {"_canonical_cache"}

    def empty(value):
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, (ast.List, ast.Set)):
            return not value.elts
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
            and not value.args
            and not value.keywords
        )

    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if node.value is not None and empty(node.value):
                found.extend(f"{path.name}:{node.lineno}" for t in targets if getattr(t, "id", None) not in allowed)
    assert not found, f"module-level empty containers: {found}"
