"""One round of a workload in a fresh process: import contractads, build the
program's inputs, run every operation once in order, report.

Usage (run.py starts it; the inputs file comes from inputs.build):

    python3 bench/worker.py --inputs FILE [--outputs FILE] [--trace] [--spans FILE]

The last line of standard output is a JSON object: the monotonic time of the
first timed operation, each operation's latency, the wall time of the timed
phase, the peak resident set, the number of failed operations (those that
raised; their output is null) and a digest of the outputs.  With --outputs
the outputs themselves are written there for the checks; with --trace the
per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def poly_json(p) -> dict:
    """QPoly (or a plain rational) in the CLI's JSON format."""
    from contractads.qpoly import QPoly

    if not isinstance(p, QPoly):
        p = QPoly.const(p)
    return {str(k): [c.numerator, c.denominator] for k, c in p.items()}


def graph_json(g) -> list:
    return [g.n, sorted(list(e) for e in g.edges)]


def young_json(s) -> dict:
    return {
        "degree": s.degree,
        "terms": [[n, list(lam), poly_json(c)] for (n, lam), c in sorted(s.terms.items())],
    }


# -- workloads: (label, operation) lists and output serialisation -------------------


def hilbert_queries(inputs, modules):
    cli = modules["cli"]
    ops = []
    for q in inputs["queries"]:
        spec = f"n={q['n']}: " + ", ".join(f"{u}-{v}" for u, v in q["edges"])
        if q["target"] in ("mobius", "chromatic"):
            argv = [q["target"], "--graph", spec, "--json"]
        else:
            argv = ["hilbert", "--target", q["target"], "--graph", spec, "--json"]

        def op(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"contractads {' '.join(argv[:3])} exited with code {code}")
            return buf.getvalue()

        ops.append((q["target"], op))

    return ops, lambda out: out


def class_sweep(inputs, modules):
    graphs, gf = modules["graphs"], modules["graphic_functions"]
    # The per-class bodies of `contractads verify --suite koszul` and
    # `--suite chromatic`.
    com_lie = gf.convolve(gf.one_q_gf() * gf.mobius_gf(), gf.one_q_gf())
    hyper_grav = gf.convolve(gf.hyper_weighted_gf(), gf.grav_weighted_gf())
    chrom = gf.chromatic_gf()
    state = {}

    def enumerate_classes():
        state["classes"] = graphs.connected_graphs_upto(inputs["max_vertices"])
        return state["classes"]

    ops = [("enumerate", enumerate_classes)]
    for index in inputs["order"]:

        def op(index=index):
            g = state["classes"][index]
            return [com_lie(g), hyper_grav(g), chrom(g), graphs.chromatic_polynomial(g)]

        ops.append(("class", op))

    def serialise(out):
        if isinstance(out[0], graphs.Graph):
            return [graph_json(g) for g in out]
        return [poly_json(p) for p in out]

    return ops, serialise


def tree_oracle(inputs, modules):
    graphs, trees = modules["graphs"], modules["trees"]
    ops = []
    for spec in inputs["graphs"]:
        g = graphs.Graph(spec["n"], [tuple(e) for e in spec["edges"]])
        for name in ("gchyper_normal_counts", "gclie_normal_count", "gcgrav_normal_counts", "gcass_dimension"):
            ops.append((name, lambda name=name, g=g: getattr(trees, name)(g)))

    return ops, lambda out: out


def series_young(inputs, modules):
    fs, gf, young = modules["family_series"], modules["graphic_functions"], modules["young"]
    state = {}
    ops = []
    for spec in inputs["ops"]:
        kind = spec["op"]
        if kind == "closed_form":
            fn = lambda s=spec: fs.closed_form(s["target"], s["family"], s["order"])
        elif kind == "family_series":

            def fn(s=spec):
                recurrence = gf.wonderful_complex_gf() if s["target"] == "complex" else gf.wonderful_real_gf()
                return fs.family_series(recurrence, s["family"], s["order"]).series

        elif kind == "young_closed_form":
            fn = lambda s=spec: young.young_closed_form(s["target"], s["degree"])
        elif kind == "young_of_graphic":

            def fn(s=spec):
                recurrence = gf.wonderful_complex_gf() if s["target"] == "complex" else gf.wonderful_real_gf()
                return young.young_of_graphic(recurrence, s["degree"])

        else:  # young_compose: G o F with F the complex Young series

            def fn():
                return young.young_compose(
                    state[("young_closed_form", "modular_complex_G")], state[("young_of_graphic", "complex")]
                )

        def op(fn=fn, spec=spec):
            out = fn()
            state[(spec["op"], spec.get("target"))] = out
            return out

        ops.append((kind, op))

    def serialise(out):
        if hasattr(out, "coeffs"):
            return {"order": out.order, "coefficients": [poly_json(c) for c in out.coeffs]}
        return young_json(out)

    return ops, serialise


WORKLOADS = {
    "hilbert_queries": hilbert_queries,
    "class_sweep": class_sweep,
    "tree_oracle": tree_oracle,
    "series_young": series_young,
}
LAYER_MODULES = ("cli", "graphs", "graphic_functions", "family_series", "trees", "young")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--outputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(keep_spans=200_000 if args.spans else 0)
        tracer.install()
    sys.path.insert(0, SRC)
    import importlib

    modules = {name: importlib.import_module(f"contractads.{name}") for name in LAYER_MODULES}
    if tracer is not None:
        tracer.wrap_package()
        tracer.enabled = False
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    ops, serialise = WORKLOADS[inputs["workload"]](inputs, modules)

    if tracer is not None:
        tracer.enabled = True
    latencies = []
    outs = []
    errors = []
    first = time.monotonic()
    start = time.perf_counter()
    for label, op in ops:
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            errors.append(f"{label}: {exc!r}")
        latencies.append(time.perf_counter() - t0)
        outs.append(out)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for message in errors[:5]:
        print(f"failed operation {message}", file=sys.stderr)
    payload = json.dumps([None if out is None else serialise(out) for out in outs], sort_keys=True)
    report = {
        "first_op": first,
        "latencies": latencies,
        "wall_s": wall,
        "peak_rss_kib": peak_kib,
        "failed": len(errors),
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
    }
    if args.outputs:
        with open(args.outputs, "w") as fh:
            fh.write(payload)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(tracer.tree_counts())
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
