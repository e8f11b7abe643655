#!/usr/bin/env python3
"""Generate every synthetic symbol-algebra model and print its verdict trail.

For each local case and each global builder the script prints the surviving
quadratic monomials, the graph shape of the associated graded algebra, and the
homology verdicts for the algebra and for the relevant module.

Usage: python scripts/run_models.py [--seed 0] [--bound 4]
"""

import argparse
import sys

import numpy as np

from koszulity.algebra import (SymmetryMode, augmentation_module,
                               degreewise_expand, free_algebra, ideal_module)
from koszulity.graded import associated_graded, surviving_monomials
from koszulity.graphs import graph_from_truncation
from koszulity.homology import koszul_scan, tor_algebra, tor_module
from koszulity.models import (MINIMAL_DIMS, LocalCase, build_annihilator,
                              build_global_general, build_global_symplectic,
                              build_local, build_noroot, datum_to_algebra,
                              local_presentation, validate_reciprocity)


def describe(label, a, module=None, cover=None, bound=4):
    surv = surviving_monomials(a, 2)
    names = ", ".join(m.to_string(a.order) for m in surv) or "(none)"
    t = graph_from_truncation(associated_graded(a))
    alg = koszul_scan(tor_algebra(a, bound, bound))
    line = [f"{label}:",
            f"  survivors(2) = {names}",
            f"  graph: {len(t.edges)} edges, {len(t.loops)} loops",
            f"  algebra scan: {'clean' if alg.koszul_through_bound else alg.offenders}"]
    if module is not None:
        over = cover if cover is not None else a
        mod = koszul_scan(tor_module(over, module, bound, bound))
        line.append(f"  module scan: "
                    f"{'clean' if mod.koszul_through_bound else mod.offenders}")
    print("\n".join(line))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bound", type=int, default=4)
    args = ap.parse_args()
    if args.bound < 0:
        ap.error(f"--bound must be at least 0, not {args.bound}")
    seed, bound = args.seed, args.bound
    n_max = max(bound, 2)

    print("== local models ==")
    for case_name, (dim, _) in MINIMAL_DIMS.items():
        l = 2 if case_name.startswith("two") else 3
        case = LocalCase(case_name, dim, l)
        a = degreewise_expand(local_presentation(case), n_max)
        _, lam_pres, _ = build_local(case)
        lam = degreewise_expand(lam_pres, n_max)
        describe(f"local {case_name} dim {dim} l {l}", a,
                 module=augmentation_module(a, lam), cover=lam, bound=bound)

    print("\n== global models ==")
    d, order = build_global_symplectic(2, (1, 1), l=3, seed=seed)
    a = datum_to_algebra(d, n_max)
    lam = free_algebra(d.fld, SymmetryMode.SUPERCOMMUTATIVE, order, n_max)
    print(f"symplectic reciprocity: {validate_reciprocity(d)[0]}")
    describe("global symplectic #S=2 l=3", a,
             module=augmentation_module(a, lam), cover=lam, bound=bound)

    d, order = build_global_general(2, 1, (1, 1), seed=seed)
    a = datum_to_algebra(d, n_max)
    print(f"general reciprocity: {validate_reciprocity(d)[0]}")
    describe("global general #S=2 r=1 l=2", a, bound=bound)

    d, order = build_annihilator(3, 1, 1, (1, 1), seed=seed)
    a = datum_to_algebra(d, n_max)
    c = np.eye(a.dims[1], dtype=np.int64)[0]
    describe("annihilator #S=3 r=1 l=2", a, module=ideal_module(a, c),
             bound=bound)

    for variant in (1, 2):
        d, order = build_noroot(2, 1, l=3, seed=seed, variant=variant)
        a = datum_to_algebra(d, n_max)
        lam = free_algebra(d.fld, SymmetryMode.SUPERCOMMUTATIVE, order, n_max)
        describe(f"noroot variant {variant} u=2 r=1 l=3", a,
                 module=augmentation_module(a, lam), cover=lam, bound=bound)
    return 0


if __name__ == "__main__":
    sys.exit(main())
