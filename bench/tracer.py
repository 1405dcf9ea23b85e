"""Span tracing of the contractads layers, installed from outside the package.

``Tracer.install()`` must run before ``contractads`` is imported: it times
each submodule's import as a span of that layer, so a layer that a workload
never calls still reports its import time.  ``Tracer.wrap_package()`` then
replaces every public function of each layer module, in its defining module
and wherever another contractads module bound it by name, plus the methods
in ``METHODS``, with a wrapper that records a span.  A generator's
resumptions are spans too, and the items it yields are counted.

Spans (name, start, end, parent) stay in memory and are written by
``write_spans``; layer totals are kept as the spans close:

- ``self`` time: span time minus all child spans;
- ``local`` time: span time minus child spans of other layers, taken at the
  outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import inspect
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = (
    "cli",
    "graphs",
    "graphic_functions",
    "qpoly",
    "series",
    "family_series",
    "symfunc",
    "young",
    "trees",
)
METHODS = {
    ("graphs", "Graph"): ("__init__",),
    ("graphic_functions", "GraphicFunction"): ("__call__",),
    ("qpoly", "QPoly"): ("__mul__", "__rmul__", "divexact"),
    ("series", "PowerSeries"): ("__mul__",),
    ("symfunc", "SymFunc"): ("__mul__", "__rmul__"),
    ("young", "YoungSeries"): ("__mul__",),
}
ORACLES = ("gchyper_normal_counts", "gcgrav_normal_counts", "gclie_normal_count")


class Tracer:
    def __init__(self, keep_spans: int):
        self.enabled = True
        self.names: list[str] = []
        self.layer: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.items: list[int] = []
        self.depth: list[int] = []
        self.self_ns: list[int] = []
        self.local_ns: list[int] = []
        self.stack: list[list] = []  # [child_ns, foreign_ns, layer, span index]
        self.spans = array("q")  # name id, start, end, parent; four per span
        self.keep = keep_spans
        self.dropped = 0
        self.oracle_calls: list[tuple[str, object, object]] = []
        self.memo_misses = 0
        self.canonical_misses = 0

    def _id(self, name: str, layer: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
            for table in (self.calls, self.items, self.depth, self.self_ns, self.local_ns):
                table.append(0)
        return nid

    def _run(self, nid: int, fn, args, kwargs):
        layer = self.layer[nid]
        stack = self.stack
        if len(self.spans) < 4 * self.keep:
            idx = len(self.spans) // 4
            self.spans.extend((nid, 0, 0, stack[-1][3] if stack else -1))
        else:
            idx = -1
            self.dropped += 1
        frame = [0, 0, layer, idx]
        stack.append(frame)
        self.depth[nid] += 1
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.depth[nid] -= 1
            dur = t1 - t0
            self.self_ns[nid] += dur - frame[0]
            if not self.depth[nid]:
                self.local_ns[nid] += dur - frame[1]
            if idx >= 0:
                self.spans[4 * idx + 1] = t0
                self.spans[4 * idx + 2] = t1
            if stack:
                parent = stack[-1]
                parent[0] += dur
                parent[1] += dur if parent[2] != layer else frame[1]

    def _counted(self, nid: int, gen):
        step = self._id(self.names[nid] + ":next", self.layer[nid])
        while True:
            try:
                item = self._run(step, next, (gen,), {})
            except StopIteration:
                return
            self.items[nid] += 1
            yield item

    def wrap(self, name: str, layer: str, fn, count_call: bool = True):
        nid = self._id(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count_call:
                tracer.calls[nid] += 1
            result = tracer._run(nid, fn, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return tracer._counted(nid, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        sys.meta_path.insert(0, _ImportSpans(self))

    def wrap_package(self) -> None:
        package = sys.modules["contractads"]
        modules = [package] + [sys.modules[f"contractads.{layer}"] for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"contractads.{layer}"]
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    replaced[id(obj)] = self._wrap_public(layer, name, obj)
            for (owner, cls_name), methods in METHODS.items():
                if owner == layer:
                    cls = getattr(module, cls_name)
                    for meth in methods:
                        setattr(cls, meth, self._wrap_method(layer, cls_name, meth, vars(cls)[meth]))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    def _wrap_public(self, layer: str, name: str, fn):
        wrapped = self.wrap(f"{layer}.{name}", layer, fn)
        if layer == "trees" and name in ORACLES:
            calls = self.oracle_calls

            def oracle(g, order=None, *rest, **kwargs):
                if self.enabled:
                    calls.append((name, g, order))
                return wrapped(g, order, *rest, **kwargs)

            return oracle
        if (layer, name) == ("graphs", "canonical_key"):
            cache = sys.modules["contractads.graphs"]._canonical_cache

            def canonical_key(*args, **kwargs):
                before = len(cache)
                out = wrapped(*args, **kwargs)
                self.canonical_misses += len(cache) > before and self.enabled
                return out

            return canonical_key
        return wrapped

    def _wrap_method(self, layer: str, cls_name: str, meth: str, fn):
        wrapped = self.wrap(f"{layer}.{cls_name}.{meth}", layer, fn)
        if meth != "__call__":
            return wrapped

        def call(gf, g):
            before = len(gf._memo)
            out = wrapped(gf, g)
            self.memo_misses += len(gf._memo) > before and self.enabled
            return out

        return call

    # -- results ----------------------------------------------------------------

    def _sum(self, table: list[int], names) -> int:
        return sum(table[self.ids[n]] for n in names if n in self.ids)

    def layer_metrics(self, tree_counts: tuple[int, int]) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, owner in enumerate(self.layer) if owner == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self.self_ns[i] for i in ids) / 1e9
        out["graphs.partitions"] = self._sum(self.items, ("graphs.graph_partitions", "graphs.graph_partition_masks"))
        out["graphs.contract.calls"] = self._sum(self.calls, ("graphs.contract",))
        out["graphs.induced_subgraph.calls"] = self._sum(self.calls, ("graphs.induced_subgraph",))
        out["graphs.graphs_built"] = self._sum(self.calls, ("graphs.Graph.__init__",))
        out["graphs.canonical_key.calls"] = self._sum(self.calls, ("graphs.canonical_key",))
        out["graphs.canonical_key.misses"] = self.canonical_misses
        out["graphs.canonical_key.self_s"] = self._sum(self.local_ns, ("graphs.canonical_key",)) / 1e9
        out["graphs.connected_graphs_upto.self_s"] = (
            self._sum(self.local_ns, ("graphs.connected_graphs_upto",)) / 1e9
        )
        out["graphic_functions.lookups"] = self._sum(self.calls, ("graphic_functions.GraphicFunction.__call__",))
        out["graphic_functions.memo_misses"] = self.memo_misses
        out["qpoly.mul"] = self._sum(self.calls, ("qpoly.QPoly.__mul__", "qpoly.QPoly.__rmul__"))
        out["qpoly.divexact"] = self._sum(self.calls, ("qpoly.QPoly.divexact",))
        out["series.mul"] = self._sum(self.calls, ("series.PowerSeries.__mul__",))
        out["series.compose"] = self._sum(self.calls, ("series.series_compose",))
        out["series.reverse.self_s"] = self._sum(self.local_ns, ("series.series_reverse",)) / 1e9
        out["symfunc.monomial_product.calls"] = self._sum(self.calls, ("symfunc.monomial_product",))
        out["young.mul"] = self._sum(self.calls, ("young.YoungSeries.__mul__",))
        out["young.compose"] = self._sum(self.calls, ("young.young_compose",))
        out["trees.trees"], out["trees.normality_checks"] = tree_counts
        return out

    def tree_counts(self) -> tuple[int, int]:
        """Trees enumerated and normality checks made by the recorded oracle
        calls, worked out afterwards from public entry points: each distinct
        (canonical graph, tree kind) is enumerated once and cached; a call
        without an explicit order checks every tree under every search order
        and both leading conventions."""
        trees = sys.modules["contractads.trees"]
        graphs = sys.modules["contractads.graphs"]
        was, self.enabled = self.enabled, False
        try:
            enumerated: dict[tuple, int] = {}
            checks = 0
            for name, g, order in self.oracle_calls:
                binary = name == "gclie_normal_count"
                if order is None:
                    g = graphs.canonical_graph(g)
                enumerate_trees = trees.enumerate_binary_trees if binary else trees.enumerate_admissible_trees
                count = len(enumerate_trees(g))
                enumerated[(g.n, g.edges, binary)] = count
                checks += count if order is not None else count * len(trees.search_orders(g)) * 2
            return sum(enumerated.values()), checks
        finally:
            self.enabled = was

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"# spans kept {len(self.spans) // 4}, dropped {self.dropped}\n")
            fh.write("name,start_ns,end_ns,parent\n")
            spans = self.spans
            for i in range(0, len(spans), 4):
                fh.write(f"{self.names[spans[i]]},{spans[i + 1]},{spans[i + 2]},{spans[i + 3]}\n")


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Times the import of each contractads layer module as a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        parts = fullname.split(".")
        if len(parts) != 2 or parts[0] != "contractads" or parts[1] not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            layer = parts[1]
            spec.loader.exec_module = self.tracer.wrap(
                f"{layer}.<import>", layer, spec.loader.exec_module, count_call=False
            )
        return spec
