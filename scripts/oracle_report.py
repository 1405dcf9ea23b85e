#!/usr/bin/env python3
"""Compare the tree-counting oracles with the Hilbert series data.

Usage:
    python scripts/oracle_report.py [--max-vertices 6]

For every isomorphism class of connected graphs up to the bound, reports the
gcLie / gcHyper / gcGrav / gcAss counts next to the convolution-algebra
dimensions, and flags any class where the normal-monomial counts miss the
dimensions; the count of flagged classes ends the report (0 up to 6
vertices) and sets the exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contractads.graphs import canonical_key, connected_graphs_upto
from contractads.graphic_functions import (
    gerst_total_dim,
    grav_weighted_gf,
    hyper_weighted_gf,
    mobius_gf,
)
from contractads.trees import (
    gcass_dimension,
    gcgrav_normal_counts,
    gchyper_normal_counts,
    gclie_normal_count,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=6)
    args = parser.parse_args()

    hyper = hyper_weighted_gf()
    grav = grav_weighted_gf()
    mu = mobius_gf()
    mismatches = 0
    for g in connected_graphs_upto(args.max_vertices):
        key = canonical_key(g)
        lie = gclie_normal_count(g)
        lie_dim = abs(mu(g))
        hc = gchyper_normal_counts(g)
        hdims = [int(hyper(g).coeff_q(r)) for r in range(g.n)]
        ass = gcass_dimension(g)
        try:
            gc = sum(gcgrav_normal_counts(g))
            grav_ok = "ok"
        except AssertionError:
            gc = -1
            grav_ok = "MISMATCH"
        flags = []
        if lie != lie_dim:
            flags.append("lie")
        if hc != hdims:
            flags.append("hyper")
        if grav_ok != "ok":
            flags.append("grav")
        if flags:
            mismatches += 1
        note = f"   <-- {','.join(flags)}" if flags else ""
        print(
            f"{str(key):24s} lie {lie}/{lie_dim}  hyper {hc}/{hdims}  "
            f"ass {ass}  grav_total {gc} ({grav_ok}){note}"
        )
    print(f"\nclasses with mismatching quadratic counts: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
