"""The benchmark's per-layer tracer still finds the names it wraps.

`benchmark/layertrace.py` looks its targets up by name, so a rename in
`koszulity` would break `benchmark/run.py --trace 1`.  Only that module is
imported from `benchmark/`: `run.py` sets thread environment variables when
imported.
"""

import importlib
import importlib.util
import os
import sys
from types import SimpleNamespace

from koszulity.gf import PrimeField
from koszulity.graphs import cycle_graph, graph_algebra

from conftest import exterior_algebra, presentation_from_strings

LAYERS = ("gf", "monomials", "algebra", "graded", "graphs", "homology",
          "symplectic", "models", "cli")
LAYERTRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "benchmark", "layertrace.py")


def _layertrace():
    spec = importlib.util.spec_from_file_location("_benchmark_layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    # registered first: its dataclass looks its module up by name
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def _traced(run) -> dict:
    """The tracer's metrics over run(kz), with every layer wrapped."""
    kz = SimpleNamespace(**{layer: importlib.import_module(f"koszulity.{layer}")
                            for layer in LAYERS})
    sparse_rank = kz.gf.sparse_rank
    tracer = _layertrace().Tracer(kz)
    try:
        tracer.install()
        tracer.on = True
        run(kz)
    finally:
        tracer.uninstall()
    assert kz.gf.sparse_rank is sparse_rank
    return tracer.metrics()


def test_tracer_counts_koszul_and_split_bar():
    def run(kz):
        lam = exterior_algebra(3, l=3, n_max=3)
        kz.homology.tor_module(lam, kz.algebra.augmentation_module(lam, lam),
                               3, 3, engine="koszul")
        a = graph_algebra(cycle_graph(4), PrimeField(2), n_max=3)
        kz.homology.tor_algebra(a, 3, 3, engine="bar")

    metrics = _traced(run)
    assert metrics["homology.koszul_tor_module.calls"][0] == 1
    assert metrics["homology.bar_tor_module.calls"][0] == 1


def test_non_monomial_bar_has_no_dense_rank():
    # y*y = x^2 + x*y: the bar complex is one block per degree, ranked by
    # sparse elimination like every other block
    def run(kz):
        a = kz.algebra.degreewise_expand(presentation_from_strings(
            3, kz.algebra.SymmetryMode.COMMUTATIVE, ["x", "y"],
            [[(1, "y^2"), (-1, "x^2"), (-1, "x*y")]]), 4)
        kz.homology.tor_algebra(a, 4, 4, engine="bar")

    metrics = _traced(run)
    assert metrics["gf.rank.calls"][0] == 0
    assert metrics["homology.bar_tor_module.calls"][0] == 1
