"""`clear_caches()` empties every memo of the library and gives its memory back.

Run as a script, this file prints the traced sizes that
`test_clear_caches_releases_memory` compares.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import contractads
from contractads import cli, clear_caches, graphs
from contractads.graphic_functions import chromatic_gf, convolve, mobius_gf, one_q_gf
from contractads.graphs import complete_graph, path_graph
from contractads.symfunc import SymFunc
from contractads.trees import stable_tree_count


def _cached_functions() -> dict[str, object]:
    return {
        f"{module_name}.{name}": obj
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith("contractads.")
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }


def _suite_work():
    """What `verify --suite koszul` and `--suite chromatic` evaluate on the
    classes with at most 5 vertices."""
    with contextlib.redirect_stdout(io.StringIO()):
        # outside the assert: run as a script under python -O, the assert
        # and its calls vanish
        codes = cli._suite_koszul(5), cli._suite_chromatic(5)
    assert codes == (0, 0), codes


def test_clear_caches_empties_every_cache():
    _suite_work()
    SymFunc.power_sum(1, 3) * SymFunc.power_sum(2, 3)
    stable_tree_count(path_graph(4))
    mu = mobius_gf()
    cached = _cached_functions()
    used = {
        "contractads.graphic_functions.mobius_gf",
        "contractads.graphic_functions.chromatic_gf",
        "contractads.graphic_functions.hyper_weighted_gf",
        "contractads.graphic_functions.grav_weighted_gf",
        "contractads.symfunc._monomial_product",
        "contractads.trees._cached_tree_store",
    }
    assert all(cached[name].cache_info().currsize for name in used)
    assert graphs._canonical_cache

    clear_caches()
    assert not graphs._canonical_cache
    assert {name: fn.cache_info().currsize for name, fn in cached.items() if fn.cache_info().currsize} == {}
    assert mobius_gf() is not mu


def test_clear_caches_empties_held_graphic_functions():
    # functions the caller holds, and the 1_q * mu that chromatic_gf's
    # evaluation captured in its closure
    chrom = chromatic_gf()
    lie_side = convolve(one_q_gf(), mobius_gf())
    chrom(complete_graph(4))
    lie_side(complete_graph(4))
    (captured,) = [cell.cell_contents for cell in chrom._evaluate.__closure__ if hasattr(cell.cell_contents, "_memo")]
    assert len(chrom._memo) == 1 and lie_side._memo and captured._memo

    clear_caches()
    assert chrom._memo == {} and lie_side._memo == {} and captured._memo == {}


def test_clear_caches_empties_what_functions_keep(monkeypatch):
    # mu keeps its last solved table: a second query at the same graph reads
    # it, and after clear_caches() the next query solves mu again
    from contractads import graphic_functions as gf

    solved = []
    monkeypatch.setattr(gf, "tube_masks", lambda graph, *within: solved.append(graph) or graphs.tube_masks(graph, *within))
    clear_caches()
    mu, one_q, g = mobius_gf(), one_q_gf(), complete_graph(5)
    mu.tube_table(g)
    assert mu(g) == 24 and len(solved) == 1
    one_q.size_rule(3)
    assert mu._kept and one_q._kept

    clear_caches()
    assert not mu._kept and not one_q._kept
    assert mu(g) == 24 and len(solved) == 2


def _traced_bytes() -> int:
    """Bytes held by live allocations, leaving out those of tracemalloc and
    of this file (the measurements themselves)."""
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, __file__)]
    return sum(stat.size for stat in tracemalloc.take_snapshot().filter_traces(ignore).statistics("filename"))


def _memory_after_rounds() -> list[int]:
    """Traced bytes after each of two rounds of suite work and clear_caches()."""
    # one untraced round first: the standard library fills lazy caches of its
    # own (abc registries, compiled patterns) on first use
    _suite_work()
    clear_caches()
    tracemalloc.start()
    try:
        _traced_bytes()
        sizes = []
        for _ in range(2):
            _suite_work()
            clear_caches()
            gc.collect()
            sizes.append(_traced_bytes())
    finally:
        tracemalloc.stop()
    return sizes


def test_clear_caches_releases_memory():
    # measured in a fresh interpreter that imports only the library: a test
    # runner's plugins allocate in gc callbacks of their own while this
    # process is traced (hypothesis does, once any of its tests has run)
    src = os.path.dirname(os.path.dirname(contractads.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] * sys.flags.optimize
    run = subprocess.run([sys.executable, *flags, __file__], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    sizes = json.loads(run.stdout)
    assert sizes[1] <= sizes[0], sizes


if __name__ == "__main__":
    print(json.dumps(_memory_after_rounds()))
