"""Graph criteria for exterior quotients with A_n = 0 in degrees >= 3.

The degree-2 part of a monomial truncation is read as a graph T on the
generators: edges are the surviving squarefree quadratics, loops the
surviving squares.  For loop-free T, the algebra is Koszul iff T has no
triangle, and the augmentation module A_+ over the exterior cover is Koszul
iff T is acyclic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .gf import PrimeField
from .monomials import GeneratorOrder, Monomial
from .algebra import DegreewiseAlgebra, SymmetryMode
from .graded import MonomialTruncation, monomial_algebra


@dataclass
class QuadGraph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[int]] = field(default_factory=frozenset)
    loops: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        n = len(self.vertices)
        for e in self.edges:
            if len(e) != 2 or any(not 0 <= v < n for v in e):
                raise ValueError(f"bad edge {set(e)}")
        if any(not 0 <= v < n for v in self.loops):
            raise ValueError("loop vertex out of range")

    @classmethod
    def build(cls, vertices, edges, loops=()) -> "QuadGraph":
        return cls(tuple(vertices),
                   frozenset(frozenset(e) for e in edges),
                   frozenset(loops))


def graph_from_truncation(g: MonomialTruncation) -> QuadGraph:
    edges, loops = [], []
    for m in g.surviving[2]:
        r = m.ranks()
        if m.is_squarefree():
            edges.append(r)
        else:
            loops.append(r[0])
    return QuadGraph.build(g.order.names, edges, loops)


def has_triangle(t: QuadGraph) -> bool:
    adj: dict[int, set[int]] = {}
    for e in t.edges:
        a, b = sorted(e)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for e in t.edges:
        a, b = sorted(e)
        if adj.get(a, set()) & adj.get(b, set()):
            return True
    return False


def is_acyclic(t: QuadGraph) -> bool:
    parent = list(range(len(t.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in t.edges:
        a, b = (find(v) for v in sorted(e))
        if a == b:
            return False
        parent[a] = b
    return True


def max_degree(t: QuadGraph) -> int:
    deg = [0] * len(t.vertices)
    for e in t.edges:
        for v in e:
            deg[v] += 1
    return max(deg, default=0)


def _require_loop_free(t: QuadGraph) -> None:
    if t.loops:
        raise ValueError("graph criteria require a loop-free graph; "
                         "use the PBW verdict and homology instead")


def algebra_verdict(t: QuadGraph) -> bool:
    """Koszulity of the quotient algebra: no triangles."""
    _require_loop_free(t)
    return not has_triangle(t)


def module_verdict(t: QuadGraph) -> bool:
    """Koszulity of A_+ over the exterior cover: no cycles."""
    _require_loop_free(t)
    return is_acyclic(t)


def graph_algebra(t: QuadGraph, fld: PrimeField, n_max: int = 5,
                  mode: SymmetryMode = SymmetryMode.SUPERCOMMUTATIVE) -> DegreewiseAlgebra:
    """The quotient algebra of T: A_1 = vertices, A_2 = edges (+ loops),
    A_n = 0 for n >= 3, as an explicit monomial algebra."""
    order = GeneratorOrder(t.vertices)
    quad = sorted(
        [Monomial.from_dict({v: 1 for v in e}) for e in t.edges]
        + [Monomial.from_dict({v: 2}) for v in t.loops],
        key=Monomial.sort_key,
    )
    surv = [[Monomial.unit()],
            [Monomial.generator(i) for i in range(len(order))],
            quad] + [[] for _ in range(3, n_max + 1)]
    g = MonomialTruncation(order, mode, n_max, surv)
    return monomial_algebra(g, fld)


def cycle_graph(n: int) -> QuadGraph:
    verts = tuple(f"x{i}" for i in range(n))
    return QuadGraph.build(verts, [(i, (i + 1) % n) for i in range(n)])


def all_graphs(num_vertices: int):
    """All loop-free graphs on the labelled vertex set, as QuadGraphs."""
    pairs = list(itertools.combinations(range(num_vertices), 2))
    verts = tuple(f"x{i}" for i in range(num_vertices))
    for mask in range(1 << len(pairs)):
        yield QuadGraph.build(verts, [p for k, p in enumerate(pairs) if mask >> k & 1])


def edge_list_json(t: QuadGraph) -> dict:
    return {
        "vertices": list(t.vertices),
        "edges": sorted(sorted(e) for e in t.edges),
        "loops": sorted(t.loops),
    }
