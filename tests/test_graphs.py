"""Graph criteria for exterior quotients with everything in degrees <= 2."""

import hashlib
import itertools
import json

import pytest

from koszulity.algebra import SymmetryMode, augmentation_module, free_algebra
from koszulity.gf import PrimeField
from koszulity.graded import associated_graded
from koszulity.graphs import (QuadGraph, algebra_verdict, all_graphs,
                              cycle_graph, edge_list_json, graph_algebra,
                              graph_from_truncation, has_triangle, is_acyclic,
                              module_verdict)
from koszulity.homology import koszul_scan, tor_algebra, tor_module
from koszulity.monomials import GeneratorOrder

from conftest import exterior_algebra, gen_order


def path_graph(n):
    return QuadGraph.build(tuple(f"x{i}" for i in range(n)),
                           [(i, i + 1) for i in range(n - 1)])


class TestQuadGraph:
    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            QuadGraph.build(("a", "b"), [(0, 2)])

    def test_loop_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuadGraph.build(("a",), [], loops=[1])

    def test_edge_list_json_sorted(self):
        t = QuadGraph.build(("a", "b", "c"), [(2, 0), (0, 1)], loops=[1])
        obj = edge_list_json(t)
        assert obj["edges"] == [[0, 1], [0, 2]]
        assert obj["loops"] == [1]


class TestGraphFromTruncation:
    def test_single_edge(self):
        g = associated_graded(exterior_algebra(2, n_max=2))
        t = graph_from_truncation(g)
        assert t.edges == frozenset({frozenset({0, 1})})
        assert t.loops == frozenset()

    def test_single_loop(self):
        from koszulity.graded import MonomialTruncation
        from koszulity.monomials import Monomial
        g = MonomialTruncation(
            gen_order(1), SymmetryMode.COMMUTATIVE, 2,
            [[Monomial.unit()], [Monomial.generator(0)],
             [Monomial.from_dict({0: 2})]])
        t = graph_from_truncation(g)
        assert t.edges == frozenset() and t.loops == frozenset({0})


class TestAlgebraVerdict:
    def test_path(self):
        assert algebra_verdict(path_graph(3))

    def test_triangle(self):
        assert not algebra_verdict(cycle_graph(3))

    def test_empty(self):
        assert algebra_verdict(QuadGraph.build(("a", "b"), []))

    def test_loops_withhold_verdict(self):
        with pytest.raises(ValueError):
            algebra_verdict(QuadGraph.build(("a",), [], loops=[0]))


class TestModuleVerdict:
    def test_tree(self):
        t = QuadGraph.build(tuple("abcde"),
                            [(0, 1), (0, 2), (2, 3), (2, 4)])
        assert module_verdict(t)

    def test_four_cycle(self):
        assert not module_verdict(cycle_graph(4))

    def test_disjoint_edges(self):
        t = QuadGraph.build(tuple("abcd"), [(0, 1), (2, 3)])
        assert module_verdict(t)

    def test_loops_withhold_verdict(self):
        with pytest.raises(ValueError):
            module_verdict(QuadGraph.build(("a",), [], loops=[0]))


class TestGraphAlgebra:
    def test_dims(self):
        a = graph_algebra(path_graph(3), PrimeField(2))
        assert a.dims == [1, 3, 2, 0, 0, 0]

    def test_loops_supported(self):
        t = QuadGraph.build(("a", "b"), [(0, 1)], loops=[0])
        a = graph_algebra(t, PrimeField(2), mode=SymmetryMode.COMMUTATIVE)
        assert a.dims[2] == 2


def free_cover(t, fld, n_max=5):
    order = GeneratorOrder(t.vertices)
    return free_algebra(fld, SymmetryMode.SUPERCOMMUTATIVE, order, n_max)


@pytest.mark.parametrize("edges,expect", [
    ([(0, 1), (1, 2)], True),            # path: triangle-free
    ([(0, 1), (1, 2), (0, 2)], False),   # triangle
    ([(0, 1), (1, 2), (2, 3), (0, 3)], True),  # 4-cycle: no triangle
])
def test_algebra_criterion_against_homology(edges, expect):
    n = 1 + max(max(e) for e in edges)
    t = QuadGraph.build(tuple(f"x{i}" for i in range(n)), edges)
    assert algebra_verdict(t) is expect
    fld = PrimeField(2)
    scan = koszul_scan(tor_algebra(graph_algebra(t, fld, n_max=5), 5, 5))
    assert scan.koszul_through_bound is expect


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cycle_module_homology_dimension(n):
    """For the n-gon, H_{n-2,n}(Lambda, A_+) is one-dimensional."""
    t = cycle_graph(n)
    assert not module_verdict(t)
    fld = PrimeField(2)
    a = graph_algebra(t, fld, n_max=n)
    lam = free_cover(t, fld, n_max=n)
    m = augmentation_module(a, lam)
    table = tor_module(lam, m, n, n)
    offenders = {(i, j): d for (i, j), d in table.dims.items()
                 if d and i != j - 1}
    assert offenders == {(n - 2, n): 1}


def test_forest_module_homology_clean():
    t = QuadGraph.build(tuple(f"x{i}" for i in range(5)),
                        [(0, 1), (1, 2), (3, 4)])
    assert module_verdict(t)
    fld = PrimeField(2)
    a = graph_algebra(t, fld, n_max=5)
    lam = free_cover(t, fld)
    scan = koszul_scan(tor_module(lam, augmentation_module(a, lam), 5, 5))
    assert scan.koszul_through_bound


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(4)) == 2 ** 6


def test_full_subgraph_heredity():
    """Module Koszulity is inherited by full subgraphs (vertex deletion)."""
    t = QuadGraph.build(tuple(f"x{i}" for i in range(5)),
                        [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert module_verdict(t)
    for drop in range(5):
        keep = [v for v in range(5) if v != drop]
        relab = {v: i for i, v in enumerate(keep)}
        sub_edges = [(relab[a], relab[b]) for e in t.edges
                     for a, b in [sorted(e)] if drop not in e]
        sub = QuadGraph.build(tuple(f"x{v}" for v in keep), sub_edges)
        assert module_verdict(sub)


def test_triangle_and_acyclicity_exhaustive_small():
    """Cross-check detection helpers against brute force on <= 4 vertices."""
    for t in all_graphs(4):
        edges = {tuple(sorted(e)) for e in t.edges}
        brute_tri = any({(a, b), (a, c), (b, c)} <= edges
                        for a, b, c in itertools.combinations(range(4), 3))
        assert has_triangle(t) == brute_tri
        # a graph is a forest iff #edges = #vertices - #components
        parent = list(range(4))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        comps = len({find(v) for v in range(4)})
        assert is_acyclic(t) == (len(edges) == 4 - comps)


# sha256 of the canonical JSON below, recorded before the split bar reused
# blocks across multidegrees
GRAPH_TABLES_SHA256 = "a7944ff17c26a955ffc4c0b093c01113659b8513f1641f075e23dc935009f4c5"


def test_graph_tables_pinned():
    """Both Tor tables at bound 5 of all 64 graphs on 4 vertices and of
    every 32nd graph on 5 vertices, from the 31st, hashed as canonical
    JSON."""
    fld = PrimeField(2)
    tables = []
    for n, graphs in ((4, list(all_graphs(4))), (5, list(all_graphs(5))[31::32])):
        lam = free_algebra(fld, SymmetryMode.SUPERCOMMUTATIVE, gen_order(n), 5)
        for t in graphs:
            a = graph_algebra(t, fld, n_max=5)
            tables.append([tor_algebra(a, 5, 5).to_json(),
                           tor_module(lam, augmentation_module(a, lam), 5, 5).to_json()])
    assert len(tables) == 96
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GRAPH_TABLES_SHA256
