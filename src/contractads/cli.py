"""Command-line surface.

Subcommands:

    hilbert   --target {complex,real,gerst,hyper,grav} --graph ...
    mobius    --graph ...
    chromatic --graph ...
    series    --family {path,cycle,complete,star} --target {complex,real}
              --order N [--from-recurrence]
    young     --target {chromatic,complex,real} --degree D
    verify    --suite {koszul,chromatic,oracle,composition} --max-vertices K

Graphs are given by exactly one of: --graph (family shorthand like K4, P7,
C6, St5, K[2,2,1], or an inline edge list "n=4: 0-1, 1-2, 2-3"), --graph-file
(text format: first line n=<int>, then one "u v" pair per line), or --graph6.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .qpoly import QPoly
from .series import PowerSeries
from .graphs import (
    SERIES_MAX_ORDER,
    TREE_MAX_VERTICES,
    YOUNG_MAX_DEGREE,
    Graph,
    canonical_key,
    connected_graphs_upto,
    graph_from_graph6,
    graph_from_text,
    graph_to_text,
    family_graph,
)
from .graphic_functions import (
    GraphicFunction,
    chromatic_gf,
    convolve,
    gerst_hilbert_gf,
    grav_weighted_gf,
    hyper_weighted_gf,
    mobius_gf,
    one_gf,
    one_q_gf,
    unit_gf,
    wonderful_complex_gf,
    wonderful_real_gf,
)
from .family_series import check_family_composition, closed_form, family_series
from .trees import gcass_dimension, gchyper_normal_counts, gclie_normal_count, gcgrav_normal_counts
from .young import young_closed_form, young_compose, young_of_graphic


# -- JSON round-trip formats --------------------------------------------------


def qpoly_to_json(p: QPoly) -> dict:
    """Exponent (an even count of q^(1/2) units) -> [numerator, denominator]."""
    return {str(k): [c.numerator, c.denominator] for k, c in p.items()}


def qpoly_from_json(data: dict) -> QPoly:
    return QPoly({int(k): Fraction(v[0], v[1]) for k, v in data.items()})


def series_to_json(s: PowerSeries) -> dict:
    return {
        "variable": s.var,
        "order": s.order,
        "coefficients": [qpoly_to_json(c) for c in s.coeffs],
    }


def series_from_json(data: dict) -> PowerSeries:
    return PowerSeries(
        data["variable"], data["order"], [qpoly_from_json(c) for c in data["coefficients"]]
    )


# -- graph source parsing -------------------------------------------------------


_FAMILY_RE = re.compile(r"^(P|C|K|St)(\d+)$")
_MULTI_RE = re.compile(r"^K\[(\d+(?:,\d+)*)\]$")


def parse_graph_spec(spec: str) -> Graph:
    spec = spec.strip()
    m = _FAMILY_RE.match(spec)
    if m:
        kind, n = m.group(1), int(m.group(2))
        return family_graph(
            {"P": "path", "C": "cycle", "K": "complete", "St": "star"}[kind], n
        )
    m = _MULTI_RE.match(spec.replace(" ", ""))
    if m:
        parts = tuple(int(x) for x in m.group(1).split(","))
        return family_graph("multipartite", parts)
    if spec.startswith("n="):
        # inline edge list: "n=4: 0-1, 1-2, 2-3" or newline separated
        inline = spec.replace(":", "\n").replace(",", "\n").replace("-", " ")
        return graph_from_text(inline)
    raise ValueError(f"cannot parse graph spec {spec!r}")


def _graph_from_args(args) -> Graph:
    sources = [s for s in (args.graph, args.graph_file, args.graph6) if s]
    if len(sources) != 1:
        raise UsageError("exactly one graph source is required")
    if args.graph:
        g = parse_graph_spec(args.graph)
    elif args.graph_file:
        with open(args.graph_file) as fh:
            g = graph_from_text(fh.read())
    else:
        g = graph_from_graph6(args.graph6)
    if not g.is_connected():
        raise UsageError("the graph must be connected")
    return g


class UsageError(Exception):
    pass


def _add_graph_arguments(sub):
    sub.add_argument("--graph", help="family shorthand (K4, P7, C6, St5, K[2,2,1]) or inline n=..: u-v,..")
    sub.add_argument("--graph-file", help="path to a graph in the text format")
    sub.add_argument("--graph6", help="graph6 string")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


_HILBERT_TARGETS = {
    "complex": wonderful_complex_gf,
    "real": wonderful_real_gf,
    "gerst": gerst_hilbert_gf,
    "hyper": hyper_weighted_gf,
    "grav": grav_weighted_gf,
}


def _emit_poly(p: QPoly, as_json: bool):
    if as_json:
        print(json.dumps(qpoly_to_json(p)))
    else:
        print(str(p))


def cmd_hilbert(args) -> int:
    g = _graph_from_args(args)
    value = _HILBERT_TARGETS[args.target]()(g)
    if not isinstance(value, QPoly):
        value = QPoly.const(value)
    _emit_poly(value, args.json)
    return 0


def cmd_mobius(args) -> int:
    g = _graph_from_args(args)
    value = mobius_gf()(g)
    if args.json:
        print(json.dumps({"mobius": int(value)}))
    else:
        print(int(value))
    return 0


def cmd_chromatic(args) -> int:
    g = _graph_from_args(args)
    _emit_poly(chromatic_gf()(g), args.json)
    return 0


def cmd_series(args) -> int:
    if not 1 <= args.order <= SERIES_MAX_ORDER:
        raise UsageError(f"--order must be between 1 and {SERIES_MAX_ORDER}, got {args.order}")
    if args.from_recurrence:
        fn = wonderful_complex_gf() if args.target == "complex" else wonderful_real_gf()
        s = family_series(fn, args.family, args.order).series
    else:
        s = closed_form(args.target, args.family, args.order)
    if args.json:
        print(json.dumps(series_to_json(s)))
    else:
        print(str(s))
    return 0


def cmd_young(args) -> int:
    if not 1 <= args.degree <= YOUNG_MAX_DEGREE:
        raise UsageError(f"--degree must be between 1 and {YOUNG_MAX_DEGREE}, got {args.degree}")
    if args.target == "chromatic":
        series = young_closed_form("chromatic", args.degree)
    elif args.target == "complex":
        series = young_of_graphic(wonderful_complex_gf(), args.degree)
    else:
        series = young_closed_form("modular_real", args.degree)
    if args.json:
        payload = {
            "degree": series.degree,
            "terms": [
                {"z": n, "partition": list(lam), "coefficient": qpoly_to_json(c)}
                for (n, lam), c in sorted(series.terms.items())
            ],
        }
        print(json.dumps(payload))
    else:
        print(str(series))
    return 0


# -- verification suites -----------------------------------------------------------


def _fail(g: Graph, message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    print("offending graph:", file=sys.stderr)
    print(graph_to_text(g), file=sys.stderr)
    return 1


def _suite_koszul(max_vertices: int) -> int:
    eps = unit_gf()
    lie_side = one_q_gf() * mobius_gf()
    com_lie = convolve(lie_side, one_q_gf())
    hyper_grav = convolve(hyper_weighted_gf(), grav_weighted_gf())
    for g in connected_graphs_upto(max_vertices):
        expected = QPoly.one() if g.n == 1 else QPoly.zero()
        if com_lie(g) != expected:
            return _fail(g, "Com/Lie pairing is not the unit")
        if hyper_grav(g) != expected:
            return _fail(g, "hyper/grav pairing is not the unit")
        print(f"PASS koszul {canonical_key(g)}")
    return 0


def _suite_chromatic(max_vertices: int) -> int:
    chrom = chromatic_gf()
    for g in connected_graphs_upto(max_vertices):
        chrom(g)  # asserts q * (1_q * mu) = the frontier sweep's chi
        print(f"PASS chromatic {canonical_key(g)}")
    return 0


def _suite_oracle(max_vertices: int) -> int:
    # above the tree cap, name that cap rather than the class-enumeration one
    if max_vertices > TREE_MAX_VERTICES:
        raise UsageError(
            f"the oracle suite is capped at --max-vertices {TREE_MAX_VERTICES} (tree enumeration), got {max_vertices}"
        )
    hyper = hyper_weighted_gf()
    grav = grav_weighted_gf()
    mob = mobius_gf()
    for g in connected_graphs_upto(max_vertices):
        counts = gchyper_normal_counts(g)
        poly = hyper(g)
        for r, count in enumerate(counts):
            if poly.coeff_q(r) != count:
                return _fail(g, f"hyper normal count at weight {r}: {count} != {poly.coeff_q(r)}")
        if gclie_normal_count(g) != abs(mob(g)):
            return _fail(g, "Lie normal count != |mu|")
        gcass_dimension(g)  # internally cross-checked
        try:
            grav_counts = gcgrav_normal_counts(g)  # asserts 2*total = gerst dim
        except AssertionError as exc:
            return _fail(g, str(exc))
        gpoly = grav(g)
        for r, count in enumerate(grav_counts):
            if abs(gpoly.coeff_q(r)) != count:
                return _fail(g, f"gravity normal count at weight {r} mismatch")
        print(f"PASS oracle {canonical_key(g)}")
    return 0


def _suite_composition(max_vertices: int) -> int:
    del max_vertices
    order = 8
    functions = {
        "1": one_gf(),
        "1_q": one_q_gf(),
        "mu": mobius_gf(),
        "X": chromatic_gf(),
    }
    for fname, f in functions.items():
        for gname, g in functions.items():
            for family in ("P", "C", "K", "St"):
                if family == "St" and gname == "X":
                    continue  # rule (iv) needs g(P_1) = 1
                report = check_family_composition(f, g, family, order)
                if not report.ok:
                    print(
                        f"FAIL: composition rule {family} for ({fname},{gname})",
                        file=sys.stderr,
                    )
                    return 1
                print(f"PASS composition {family} ({fname},{gname})")
    wc = young_of_graphic(wonderful_complex_gf(), 5)
    G = young_closed_form("modular_complex_G", 5)
    from .young import YoungSeries

    if young_compose(G, wc) != YoungSeries.z(5) or young_compose(wc, G) != YoungSeries.z(5):
        print("FAIL: modular functional equation", file=sys.stderr)
        return 1
    print("PASS composition young-functional-equation")
    return 0


_SUITES = {
    "koszul": _suite_koszul,
    "chromatic": _suite_chromatic,
    "oracle": _suite_oracle,
    "composition": _suite_composition,
}


def cmd_verify(args) -> int:
    if args.max_vertices < 1:
        raise UsageError(f"--max-vertices must be a positive integer, got {args.max_vertices}")
    return _SUITES[args.suite](args.max_vertices)


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractads",
        description="Exact Hilbert-series calculus for graph-indexed operadic structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert series value on a graph")
    p.add_argument("--target", choices=sorted(_HILBERT_TARGETS), required=True)
    _add_graph_arguments(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("mobius", help="Moebius value mu(G)")
    _add_graph_arguments(p)
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("chromatic", help="chromatic polynomial via the convolution identity")
    _add_graph_arguments(p)
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("series", help="one-parameter family series")
    p.add_argument("--family", choices=["path", "cycle", "complete", "star"], required=True)
    p.add_argument("--target", choices=["complex", "real"], required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument(
        "--from-recurrence",
        action="store_true",
        help="assemble from per-graph values instead of the closed form",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("young", help="Young generating series")
    p.add_argument("--target", choices=["chromatic", "complex", "real"], required=True)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_young)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--max-vertices", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a certified identity failed
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
