"""The benchmark's references against hand-known small values, and its checks
against a deliberately wrong output.  Standard library and pytest only; runs
without the contractads package:

    python3 -m pytest -q bench/test_references.py
"""

import json
from fractions import Fraction
from math import factorial

import checks
import inputs
import references as R


def test_mobius_closed_forms():
    for n in range(1, 8):
        sign = (-1) ** (n - 1)
        assert R.mobius_from_chromatic(R.chromatic_complete(n)) == sign * factorial(n - 1)
        assert R.mobius_from_chromatic(R.chromatic_tree(n)) == sign
        assert R.mobius_from_chromatic(R.chromatic_independent_partitions(n, R.complete_edges(n))) == sign * factorial(
            n - 1
        )
    for n in range(3, 9):
        assert R.mobius_from_chromatic(R.chromatic_cycle(n)) == (-1) ** (n - 1) * (n - 1)


def test_chromatic_small_graphs():
    assert R.chromatic_complete(3) == {3: 1, 2: -3, 1: 2}
    assert R.chromatic_cycle(4) == {4: 1, 3: -4, 2: 6, 1: -3}
    assert R.chromatic_tree(3) == {3: 1, 2: -2, 1: 1}
    assert R.chromatic_multipartite((2, 2)) == R.chromatic_cycle(4)  # K_{2,2} = C_4
    assert R.chromatic_multipartite((1, 1, 1)) == R.chromatic_complete(3)
    assert R.chromatic_multipartite((3, 1)) == R.chromatic_tree(4)  # K_{3,1} = St_3
    for n in range(3, 8):
        assert R.chromatic_independent_partitions(n, R.cycle_edges(n)) == R.chromatic_cycle(n)
        assert R.chromatic_independent_partitions(n, R.star_edges(n - 1)) == R.chromatic_tree(n)
    parts = (3, 2, 1)
    assert R.chromatic_independent_partitions(6, R.multipartite_edges(parts)) == R.chromatic_multipartite(parts)


def test_proper_colourings():
    assert R.proper_colourings(3, R.complete_edges(3), 3) == 6
    assert R.proper_colourings(4, R.cycle_edges(4), 2) == 2
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert R.proper_colourings(10, petersen, 3) == 120
    chi = R.chromatic_independent_partitions(10, petersen)
    assert R.p_eval(chi, 3) == 120


def test_gerst_and_grav():
    assert R.gerst_from_chromatic(2, R.chromatic_complete(2)) == {0: 1, 1: -1}
    assert R.gerst_from_chromatic(1, R.chromatic_complete(1)) == {0: 1}
    assert R.grav_from_chromatic(1, R.chromatic_complete(1)) == {0: 1}
    assert R.grav_from_chromatic(2, R.chromatic_complete(2)) == {1: -1}
    # gerst at q = -1 is the total dimension, twice the gravity count
    for n in range(2, 7):
        chi = R.chromatic_complete(n)
        total = R.p_eval(R.gerst_from_chromatic(n, chi), -1)
        assert total == 2 * sum(abs(c) for c in R.grav_from_chromatic(n, chi).values())


def test_complex_closed_forms():
    assert R.narayana_path(4) == {0: 1, 1: 3, 2: 1}
    assert R.narayana_path(5) == {0: 1, 1: 6, 2: 6, 3: 1}
    assert R.eulerian_star(3) == {0: 1, 1: 4, 2: 1}
    assert R.eulerian_star(4) == {0: 1, 1: 11, 2: 11, 3: 1}
    assert R.keel_complete(4) == {0: 1, 1: 5, 2: 1}  # M_{0,5}-bar
    assert R.keel_complete(5) == {0: 1, 1: 16, 2: 16, 3: 1}  # M_{0,6}-bar
    assert R.hyper_from_complex(1, {0: 1}) == {0: 1}
    assert R.hyper_from_complex(3, {0: 1, 1: 1}) == {1: 1, 2: 1}


def test_nested_sets_match_closed_forms():
    for n in range(1, 8):
        assert R.complex_nested_sets(n, R.complete_edges(n)) == R.keel_complete(n)
        assert R.complex_nested_sets(n, R.path_edges(n)) == R.narayana_path(n)
        assert R.complex_nested_sets(n + 1, R.star_edges(n)) == R.eulerian_star(n)
    assert R.complex_nested_sets(4, R.cycle_edges(4)) == {0: 1, 1: 5, 2: 1}


def test_real_loci():
    assert R.ehkr_complete(3) == {0: 1, 1: -1}
    assert R.ehkr_complete(4) == {0: 1, 1: -4}  # M_{0,5}(R): b0 = 1, b1 = 4
    assert R.ehkr_complete(5) == {0: 1, 1: -10, 2: 9}
    assert R.euler_secant(4) == [1, -1, 5, -61]
    assert R.real_star(2) == {0: 1, 1: -1}  # St_2 = P_3, a circle
    assert R.real_star(4) == {0: 1, 1: -6, 2: 5}


def test_graph_partition_counts():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(1, 8):
        assert R.count_graph_partitions(n, R.complete_edges(n)) == bell[n]
        assert R.count_graph_partitions(n, R.path_edges(n)) == 2 ** (n - 1)


def test_connected_classes():
    classes = R.connected_classes(5)
    assert [sum(1 for n, _ in classes if n == k) for k in range(1, 6)] == list(R.A001349[:5])
    assert len({R.canonical_form(n, e) for n, e in classes}) == len(classes)


def _poly_json(poly) -> dict:
    return {str(2 * k): [Fraction(c).numerator, Fraction(c).denominator] for k, c in poly.items()}


def test_checks_reject_a_wrong_value():
    data = inputs.build("hilbert_queries", 0)
    outputs = []
    for q in data["queries"]:
        want = checks.expected_query(q)
        outputs.append(json.dumps({"mobius": want} if q["target"] == "mobius" else _poly_json(want)))
    assert checks.check(data, outputs) == []
    wrong = json.loads(outputs[0])
    if "mobius" in wrong:
        wrong["mobius"] += 1
    else:
        wrong["0"] = [wrong.get("0", [0, 1])[0] + 1, 1]
    outputs[0] = json.dumps(wrong)
    assert len(checks.check(data, outputs)) == 1
    outputs[0] = None  # a failed operation is counted apart, not checked
    assert checks.check(data, outputs) == []


def test_tree_checks_reject_a_wrong_count():
    data = inputs.build("tree_oracle", 0)
    outputs = []
    for spec in data["graphs"]:
        n, edges = spec["n"], spec["edges"]
        chi = R.chromatic_independent_partitions(n, edges)
        hyper = R.hyper_from_complex(n, R.complex_nested_sets(n, edges))
        grav = R.grav_from_chromatic(n, chi)
        outputs += [
            [hyper.get(r, 0) for r in range(n)],
            abs(R.mobius_from_chromatic(chi)),
            [abs(grav.get(r, 0)) for r in range(n)],
            (-1) ** n * R.p_eval(chi, -1),
        ]
    assert checks.check(data, outputs) == []
    outputs[1] += 1
    assert len(checks.check(data, outputs)) == 1


def test_inputs_depend_only_on_the_seed():
    for workload in inputs.WORKLOADS:
        assert inputs.build(workload, 7) == inputs.build(workload, 7)
    assert inputs.build("hilbert_queries", 1) != inputs.build("hilbert_queries", 2)
