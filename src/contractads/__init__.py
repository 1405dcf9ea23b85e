"""Exact Hilbert-series calculus for graph-indexed operadic structures.

The building blocks: exact polynomials in q (:mod:`.qpoly`), one
sparse core for every truncated series and the series engine on it
(:mod:`.series`), graphs with tubes / partitions / contraction
(:mod:`.graphs`), the convolution algebra of graphic functions
(:mod:`.graphic_functions`), one-parameter family series and closed forms
(:mod:`.family_series`), symmetric functions and the symmetric-function
valued Young series, both rings of the same core (:mod:`.symfunc`,
:mod:`.young`), and the admissible-tree counting oracles
(:mod:`.trees`).
"""

from .qpoly import QPoly, ExactDivisionError
from .series import PowerSeries, series_compose, series_reverse, series_transcendental
from .graphs import (
    Graph,
    canonical_graph,
    canonical_key,
    chromatic_polynomial,
    complete_graph,
    connected_graphs_upto,
    contract,
    contract_tube,
    count_acyclic_orientations,
    cycle_graph,
    enumerate_tubes,
    family_graph,
    graph_partitions,
    induced_subgraph,
    multipartite_graph,
    path_graph,
    star_graph,
)
from .graphic_functions import (
    GraphicFunction,
    chromatic_gf,
    chromatic_symfun_tree_gf,
    convolve,
    gerst_hilbert_gf,
    gerst_total_dim,
    grav_weighted_gf,
    hyper_weighted_gf,
    mobius_gf,
    one_gf,
    one_q_gf,
    one_q_odd_gf,
    star_inverse,
    unit_gf,
    wonderful_complex_gf,
    wonderful_real_gf,
)
from .family_series import FamilySeries, check_family_composition, closed_form, family_series
from .symfunc import SymFunc
from .young import (
    BiSeries,
    YoungSeries,
    two_color_specialize,
    young_closed_form,
    young_compose,
    young_of_graphic,
    young_reverse,
)
from .trees import (
    AdmissibleTree,
    enumerate_admissible_trees,
    enumerate_binary_trees,
    gcass_dimension,
    gccom_normal,
    gcgrav_normal_counts,
    gchyper_normal_counts,
    gclie_normal_count,
    nested_set_count,
    oracle_witness,
    stable_tree_count,
)

import sys as _sys

from . import graphs as _graphs


def clear_caches() -> None:
    """Empty every memo of the library, to bound the memory of a long-lived
    process: the canonical-key table of `graphs`, and every `functools.cache`
    of a loaded contractads module (among them the named graphic functions,
    the Young structure constants and the tree stores).
    The memo of every live graphic function, and what it keeps beside it, is
    emptied in place, so one the caller still holds recomputes its values."""
    _graphs._canonical_cache.clear()
    for fn in list(GraphicFunction._instances):
        fn._memo.clear()
        fn._kept.clear()
    for name, module in list(_sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
