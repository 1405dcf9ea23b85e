import itertools
import json
import math
import time
from pathlib import Path

import pytest

from contractads import clear_caches
from contractads.qpoly import QPoly
from contractads.series import PowerSeries
from contractads.cli import (
    main,
    parse_graph_spec,
    qpoly_from_json,
    qpoly_to_json,
    series_from_json,
    series_to_json,
)
from contractads.graphs import (
    SERIES_MAX_ORDER,
    YOUNG_MAX_DEGREE,
    canonical_key,
    complete_graph,
    cycle_graph,
    multipartite_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_spec_parsing():
    assert canonical_key(parse_graph_spec("K4")) == canonical_key(complete_graph(4))
    assert canonical_key(parse_graph_spec("C6")) == canonical_key(cycle_graph(6))
    assert canonical_key(parse_graph_spec("K[2,2,1]")) == canonical_key(
        multipartite_graph((2, 2, 1))
    )
    inline = parse_graph_spec("n=3: 0-1, 1-2")
    assert inline.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        parse_graph_spec("Q7")


def test_hilbert_complex_k4(capsys):
    code, out, _ = run(capsys, "hilbert", "--target", "complex", "--graph", "K4")
    assert code == 0
    assert out.strip() == "1 + 5*q + q^2"


def test_hilbert_json_roundtrip(capsys):
    code, out, _ = run(capsys, "hilbert", "--target", "real", "--graph", "K3", "--json")
    assert code == 0
    assert qpoly_from_json(json.loads(out)) == QPoly.one() - QPoly.q()


def test_mobius_c5(capsys):
    code, out, _ = run(capsys, "mobius", "--graph", "C5")
    assert code == 0
    assert out.strip() == "4"


def test_chromatic(capsys):
    code, out, _ = run(capsys, "chromatic", "--graph", "P3")
    assert code == 0
    assert out.strip() == "q - 2*q^2 + q^3"


def test_identity_failures_exit_one(capsys, monkeypatch):
    # a chi that disagrees with the convolution fails every command that
    # certifies it: exit 1 and a message, not a traceback
    import contractads.graphic_functions as gf

    monkeypatch.setattr(gf, "chromatic_polynomial", lambda g: QPoly.zero())
    clear_caches()
    for argv in (
        ["chromatic", "--graph", "K3"],
        ["hilbert", "--target", "gerst", "--graph", "K3"],
        ["verify", "--suite", "chromatic", "--max-vertices", "3"],
        ["verify", "--suite", "koszul", "--max-vertices", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("FAIL: contractad chromatic disagrees with the frontier sweep on Graph("), err


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _multipartite_chromatic(parts):
    """chi of K_parts: each block splits into k_i non-empty colour classes, in
    S(p_i, k_i) ways, and the k_1 + ... + k_r classes take distinct colours."""
    q = QPoly.q()
    total = QPoly.zero()
    for ks in itertools.product(*(range(1, p + 1) for p in parts)):
        term = QPoly.one()
        for j in range(sum(ks)):
            term = term * (q - j)
        total = total + math.prod(_stirling2(p, k) for p, k in zip(parts, ks)) * term
    return total


def test_chromatic_and_gerst_past_the_canonical_cap(capsys):
    # K[4,4,5] has 13 vertices: its chi is checked without a canonical key
    chi = _multipartite_chromatic((4, 4, 5))
    code, out, err = run(capsys, "chromatic", "--graph", "K[4,4,5]", "--json")
    assert code == 0, err
    assert qpoly_from_json(json.loads(out)) == chi
    code, out, err = run(capsys, "hilbert", "--target", "gerst", "--graph", "K[4,4,5]", "--json")
    assert code == 0, err
    assert qpoly_from_json(json.loads(out)) == chi.reversed_q(13)


def test_series_closed_vs_recurrence(capsys):
    code1, out1, _ = run(
        capsys, "series", "--family", "path", "--target", "complex", "--order", "6", "--json"
    )
    code2, out2, _ = run(
        capsys,
        "series", "--family", "path", "--target", "complex", "--order", "6",
        "--from-recurrence", "--json",
    )
    assert code1 == code2 == 0
    assert series_from_json(json.loads(out1)) == series_from_json(json.loads(out2))


def test_series_closed_vs_recurrence_at_the_order_cap(capsys):
    # both paths share one cap; the cycles' complex recurrence takes seconds
    # there and is left out (CI runs it).  The complete family's complex
    # closed form, a reversion by Newton iteration, takes about a second
    order = str(SERIES_MAX_ORDER)
    pairs = [
        ("path", "complex"), ("path", "real"), ("cycle", "real"),
        ("complete", "complex"), ("complete", "real"), ("star", "complex"), ("star", "real"),
    ]
    for family, target in pairs:
        outs = []
        for extra in ((), ("--from-recurrence",)):
            argv = ("series", "--family", family, "--target", target, "--order", order, "--json", *extra)
            code, out, _ = run(capsys, *argv)
            assert code == 0, (family, target, extra)
            outs.append(series_from_json(json.loads(out)))
        assert outs[0] == outs[1], (family, target)


def test_young_command(capsys):
    code, out, _ = run(capsys, "young", "--target", "chromatic", "--degree", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    terms = {(t["z"], tuple(t["partition"])): qpoly_from_json(t["coefficient"]) for t in payload["terms"]}
    assert terms[(1, ())] == QPoly.q()  # chi(K_1) = q


def test_verify_suites_pass(capsys):
    for suite in ("koszul", "chromatic", "oracle", "composition"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-vertices", "4")
        assert code == 0, (suite, err)
        assert "PASS" in out


def test_verify_chromatic_on_seven_vertices(capsys):
    # every connected class up to 7 vertices: 1 + 1 + 2 + 6 + 21 + 112 + 853
    code, out, err = run(capsys, "verify", "--suite", "chromatic", "--max-vertices", "7")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 996 and all(line.startswith("PASS chromatic ") for line in lines)


def test_verify_chromatic_keys_are_pinned(capsys):
    # the printed keys and the class order, as recorded in tests/data
    code, out, err = run(capsys, "verify", "--suite", "chromatic", "--max-vertices", "6")
    assert code == 0, err
    assert out == (Path(__file__).parent / "data" / "verify_chromatic_max6.txt").read_text()


def test_hilbert_on_a_symmetric_circulant(capsys):
    # C11(1,2): one refinement class of 11 vertices
    spec = "n=11: " + ", ".join(f"{i}-{(i + d) % 11}" for i in range(11) for d in (1, 2))
    code, out, err = run(capsys, "hilbert", "--target", "complex", "--graph", spec)
    assert code == 0, err
    assert out.startswith("1 + 1134*q + ")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "hilbert", "--target", "complex")
    assert code == 2
    assert "graph source" in err
    code, _, err = run(capsys, "hilbert", "--target", "complex", "--graph", "K4", "--graph6", "Bw")
    assert code == 2
    code, _, _ = run(capsys, "mobius", "--graph", "n=4: 0-1, 2-3")
    assert code == 2  # disconnected


def test_graph_file_source(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("n=3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "mobius", "--graph-file", str(path))
    assert code == 0
    assert out.strip() == "1"


def test_graph6_source(capsys):
    code, out, _ = run(capsys, "mobius", "--graph6", "Bw")
    assert code == 0
    assert out.strip() == "2"  # mu(K_3) = 2 in absolute value... sign included


def test_graph6_without_vertices_is_rejected(capsys):
    code, out, err = run(capsys, "hilbert", "--target", "complex", "--graph6", "?")
    assert code == 2
    assert out == ""
    assert "no vertices" in err


def test_verify_rejects_non_positive_max_vertices(capsys):
    for bound in ("-3", "0"):
        code, out, err = run(capsys, "verify", "--suite", "koszul", "--max-vertices", bound)
        assert code == 2
        assert out == ""
        assert "--max-vertices" in err


def test_series_rejects_non_positive_order(capsys):
    # the closed form and the recurrence refuse the same orders
    for order in ("-1", "0"):
        for extra in ((), ("--from-recurrence",)):
            code, out, err = run(
                capsys, "series", "--family", "path", "--target", "complex", "--order", order, *extra
            )
            assert code == 2
            assert out == ""
            assert "--order" in err


def test_series_and_young_refuse_sizes_above_their_caps(capsys):
    # the caps admit the acceptance bounds (order 8, degree 6) and the bench's
    # series_young sizes (order 11, degree 7)
    assert SERIES_MAX_ORDER >= 11 and YOUNG_MAX_DEGREE >= 7
    over_order, over_degree = str(SERIES_MAX_ORDER + 1), str(YOUNG_MAX_DEGREE + 1)
    cases = [
        (("series", "--family", "complete", "--target", "complex", "--order", "40"), "--order"),
        (("series", "--family", "star", "--target", "real", "--order", over_order), "--order"),
        (
            ("series", "--family", "complete", "--target", "complex", "--order", over_order, "--from-recurrence"),
            "--order",
        ),
        (
            ("series", "--family", "cycle", "--target", "complex", "--order", over_order, "--from-recurrence"),
            "--order",
        ),
        (
            ("series", "--family", "star", "--target", "real", "--order", over_order, "--from-recurrence"),
            "--order",
        ),
        (("young", "--target", "complex", "--degree", "12"), "--degree"),
        (("young", "--target", "chromatic", "--degree", "30"), "--degree"),
        (("young", "--target", "real", "--degree", over_degree), "--degree"),
        (("young", "--target", "chromatic", "--degree", "0"), "--degree"),
    ]
    for argv, option in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        # refused before any work: each of these runs for minutes or more
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == ""
        assert option in err


def test_verify_oracle_refuses_bound_above_tree_cap(capsys):
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-vertices", "9")
    assert code == 2
    assert out == ""
    assert "capped at --max-vertices 8" in err


def test_verify_refuses_class_enumeration_above_seven_vertices(capsys):
    for suite in ("koszul", "chromatic", "oracle"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-vertices", "8")
        assert code == 2
        assert out == ""
        assert "capped at 7 vertices" in err


def test_json_polynomial_roundtrip():
    p = QPoly({0: 1, 2: -5, 4: 7})
    assert qpoly_from_json(json.loads(json.dumps(qpoly_to_json(p)))) == p
    with pytest.raises(ValueError):
        qpoly_from_json({"3": [7, 1]})
    s = PowerSeries("t", 3, [QPoly.one(), QPoly.q(), QPoly.zero(), p])
    assert series_from_json(json.loads(json.dumps(series_to_json(s)))) == s
