#!/usr/bin/env python3
"""Exhaustive graph-criterion sweep.

For every loop-free graph on n labelled vertices, compare the combinatorial
Koszulity verdicts (triangle-free / acyclic) with bar-complex homology of the
quotient algebra and of its augmentation ideal over the exterior cover, and
report any disagreement.

Usage: python scripts/sweep_graphs.py [--vertices 4] [--bound 5]
"""

import argparse
import sys
import time

from koszulity.algebra import SymmetryMode, augmentation_module, free_algebra
from koszulity.gf import PrimeField
from koszulity.graphs import (algebra_verdict, all_graphs, graph_algebra,
                              module_verdict)
from koszulity.homology import koszul_scan, tor_algebra, tor_module
from koszulity.monomials import GeneratorOrder


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, default=4)
    ap.add_argument("--bound", type=int, default=5,
                    help="homology bound for i and j, at least 2 (the relations are quadratic)")
    args = ap.parse_args()
    if args.vertices < 0:
        ap.error(f"--vertices must be at least 0, not {args.vertices}")
    if args.bound < 2:
        ap.error(f"--bound must be at least 2, not {args.bound}")

    fld = PrimeField(2)
    n, bound = args.vertices, args.bound
    order = GeneratorOrder(tuple(f"x{i}" for i in range(n)))
    lam = free_algebra(fld, SymmetryMode.SUPERCOMMUTATIVE, order, bound)
    start = time.time()
    total = mismatches = 0
    for t in all_graphs(n):
        a = graph_algebra(t, fld, n_max=bound)
        alg_graph = algebra_verdict(t)
        alg_hom = koszul_scan(tor_algebra(a, bound, bound)).koszul_through_bound
        mod_graph = module_verdict(t)
        m = augmentation_module(a, lam)
        mod_hom = koszul_scan(tor_module(lam, m, bound, bound)).koszul_through_bound
        if alg_graph != alg_hom or mod_graph != mod_hom:
            mismatches += 1
            print(f"MISMATCH edges={sorted(sorted(e) for e in t.edges)} "
                  f"algebra {alg_graph}/{alg_hom} module {mod_graph}/{mod_hom}")
        total += 1
        if total % 64 == 0:
            print(f"  ...{total} graphs, {time.time() - start:.1f}s",
                  file=sys.stderr)
    print(f"{total} graphs on {n} vertices, bound {bound}: "
          f"{mismatches} mismatches in {time.time() - start:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
