#!/usr/bin/env python3
"""Rerun the reference measurements the ROADMAP baseline records.

Usage, from the root of a source checkout:

    python3 benchmark/baseline.py

It prints one JSON object with the wall time of

* the 4-vertex graph sweep (64 graphs, l = 2, bound 5, `auto`);
* the dense 4-generator, 3-relation, l = 3 commutative presentation at
  bound 5, once with `auto` (the dense bar) and once with the resolution
  engine, and whether the two tables agree;
* the 9-generator global symplectic module (3 places, outside (2,2), l = 3,
  bound (5, 6)) under `auto`.

The resolution engine on that module is left out: it has been killed for
lack of memory.
"""

import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main() -> int:
    kz = run.import_koszulity(os.path.join(os.getcwd(), "src"))
    sweep = wl.GraphSweep()
    four = [i for i in sweep.setup(kz, 0) if i.label.startswith("4v:")]
    sweep_s, _ = timed(lambda: [sweep.run(kz, wl.fresh(i)) for i in four])

    rng = np.random.default_rng(0)
    while True:
        pres = wl.random_presentation(kz, 4, 3, "comm", 3, rng)
        a = kz.algebra.degreewise_expand(pres, 5)
        if list(a.dims) == [1, 4, 7, 8, 8, 8]:
            break
    auto_s, t_auto = timed(lambda: kz.homology.tor_algebra(a, 5, 5))
    res_s, t_res = timed(lambda: kz.homology.tor_algebra(a, 5, 5, engine="resolution"))

    d, order = kz.models.build_global_symplectic(3, (2, 2), l=3, seed=0)
    g = kz.models.datum_to_algebra(d, 6)
    lam = kz.algebra.free_algebra(d.fld, kz.algebra.SymmetryMode.SUPERCOMMUTATIVE, order, 6)
    m = kz.algebra.augmentation_module(g, lam)
    module_s, _ = timed(lambda: kz.homology.tor_module(lam, m, 5, 6))

    print(json.dumps({
        "graph_sweep_4v_s": sweep_s,
        "dense_4gen_auto_s": auto_s,
        "dense_4gen_resolution_s": res_s,
        "dense_4gen_tables_agree": t_auto.dims == t_res.dims,
        "global_symplectic_9gen_module_auto_s": module_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
