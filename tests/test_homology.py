"""Bar-complex Tor tables, Koszul scans, and engine cross-audits."""

import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koszulity.algebra import (ModuleTruncation, SymmetryMode,
                               augmentation_module, degreewise_expand,
                               free_algebra, ideal_module, normal_monomials)
from koszulity import gf, homology
from koszulity.gf import PrimeField
from koszulity.graded import (MonomialTruncation, associated_graded,
                              monomial_algebra, pbw_verdict)
from koszulity.graphs import QuadGraph, all_graphs, cycle_graph, graph_algebra
from koszulity.homology import (TorKind, TorTable, bar_tor_algebra,
                                bar_tor_module, is_free_exterior, koszul_scan,
                                koszul_tor_module, resolution_tor_algebra,
                                resolution_tor_module, tor_algebra, tor_module)
from koszulity.monomials import GeneratorOrder, Monomial, divisors_degree

from conftest import (exterior_algebra, gen_order, polynomial_algebra,
                      presentation_from_strings, random_presentation)


def diag_table(kind, entries, i_max=4, j_max=4):
    return TorTable(kind, i_max, j_max, dict(entries))


class TestKoszulScan:
    def test_diagonal_clean(self):
        t = diag_table(TorKind.ALGEBRA, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
        v = koszul_scan(t)
        assert v.koszul_through_bound and v.offenders == []

    def test_offender_reported(self):
        t = diag_table(TorKind.ALGEBRA, {(0, 0): 1, (2, 3): 1})
        v = koszul_scan(t)
        assert not v.koszul_through_bound
        assert v.offenders == [(2, 3, 1)]

    def test_module_strand(self):
        t = diag_table(TorKind.MODULE, {(0, 1): 3, (1, 2): 2})
        assert koszul_scan(t).koszul_through_bound


class TestBarAlgebra:
    def test_polynomial_one_generator(self):
        a = polynomial_algebra(1, n_max=4)
        t = bar_tor_algebra(a, 4, 4)
        expect = {(0, 0): 1, (1, 1): 1}
        assert {k: v for k, v in t.dims.items() if v} == expect

    def test_exterior_two_generators(self):
        a = exterior_algebra(2, n_max=4)
        t = bar_tor_algebra(a, 4, 4)
        for i in range(5):
            assert t.entry(i, i) == i + 1
        assert koszul_scan(t).koszul_through_bound

    def test_triangle_quotient_h23(self):
        a = graph_algebra(cycle_graph(3), PrimeField(2), n_max=4)
        t = bar_tor_algebra(a, 4, 4)
        assert t.entry(2, 3) != 0

    def test_h11_and_h22(self):
        rng = random.Random(41)
        for _ in range(5):
            p = random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE, 3, 2)
            a = degreewise_expand(p, 3)
            t = bar_tor_algebra(a, 3, 3)
            assert t.entry(1, 1) == a.dims[1]
            assert t.entry(1, 2) == 0 and t.entry(1, 3) == 0
            # H_{2,2} counts the full space of associative quadratic
            # relations: the complement of A_2 inside A_1 (x) A_1
            assert t.entry(2, 2) == a.dims[1] ** 2 - a.dims[2]

    def test_bound_exceeds_truncation(self):
        a = exterior_algebra(2, n_max=3)
        with pytest.raises(ValueError):
            bar_tor_algebra(a, 4, 4)
        for engine in homology.ENGINES:
            for i_max in (0, 1, 4):
                with pytest.raises(ValueError, match="truncation"):
                    tor_algebra(a, i_max, 4, engine)

    def test_window_i_max_zero(self):
        a = exterior_algebra(3, l=3, n_max=4)
        for engine in homology.ENGINES:
            for j in range(5):
                assert tor_algebra(a, 0, j, engine).dims == {(0, 0): 1}

    def test_narrow_window_is_restriction(self):
        rng = random.Random(113)
        dense = degreewise_expand(
            random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE, 3, 2), 4)
        cases = [(dense, ("auto", "bar", "resolution")),
                 (exterior_algebra(3, l=3, n_max=4), homology.ENGINES)]
        for a, engines in cases:
            for engine in engines:
                full = tor_algebra(a, 4, 4, engine).dims
                for i_max in range(4):
                    t = tor_algebra(a, i_max, 4, engine)
                    assert t.dims == {k: v for k, v in full.items() if k[0] <= i_max}


class TestBarModule:
    def test_augmentation_ideal_of_exterior(self):
        lam = exterior_algebra(2, n_max=5)
        m = augmentation_module(lam, lam)
        t = bar_tor_module(lam, m, 5, 5)
        assert t.entry(0, 1) == 2
        assert koszul_scan(t).koszul_through_bound

    def test_trivial_module(self):
        # one generator, zero action: Tor of k itself, shifted to degree 1
        lam = exterior_algebra(2, n_max=4)
        dims = [0, 1, 0, 0, 0]
        zero_action = [None] + [
            [np.zeros((dims[n + 1], dims[n]), dtype=np.int64) for _ in range(2)]
            for n in range(1, 4)]
        m = ModuleTruncation(lam, dims, zero_action)
        t = bar_tor_module(lam, m, 4, 4)
        alg = bar_tor_algebra(lam, 3, 3)
        for i in range(4):
            for j in range(4):
                assert t.entry(i, j + 1) == alg.entry(i, j)

    def test_cycle_table(self):
        n = 4
        fld = PrimeField(2)
        t_graph = cycle_graph(n)
        a = graph_algebra(t_graph, fld, n_max=n)
        lam = free_algebra(fld, SymmetryMode.SUPERCOMMUTATIVE,
                           GeneratorOrder(t_graph.vertices), n)
        table = bar_tor_module(lam, augmentation_module(a, lam), n, n)
        assert table.entry(n - 2, n) == 1


class TestEngineAgreement:
    def test_algebra_resolution_vs_bar(self):
        rng = random.Random(57)
        for l, mode in ((2, SymmetryMode.COMMUTATIVE),
                        (3, SymmetryMode.SUPERCOMMUTATIVE),
                        (5, SymmetryMode.SUPERCOMMUTATIVE)):
            for _ in range(3):
                a = degreewise_expand(
                    random_presentation(rng, l, mode, 3, rng.randrange(4)), 4)
                bar = bar_tor_algebra(a, 4, 4)
                res = resolution_tor_algebra(a, 4, 4)
                assert bar.dims == res.dims

    def test_module_resolution_vs_bar(self):
        rng = random.Random(91)
        for _ in range(4):
            a = degreewise_expand(
                random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE,
                                    3, rng.randrange(3)), 4)
            m = augmentation_module(a, a)
            bar = bar_tor_module(a, m, 4, 4)
            res = resolution_tor_module(a, m, 4, 4)
            assert bar.dims == res.dims

    def test_koszul_complex_vs_bar(self):
        for n, l in ((3, 2), (3, 3), (4, 5)):
            lam = exterior_algebra(n, l=l, n_max=4)
            assert is_free_exterior(lam)
            for c in (np.eye(n, dtype=np.int64)[0],
                      np.ones(n, dtype=np.int64)):
                m = ideal_module(lam, c)
                bar = bar_tor_module(lam, m, 4, 4)
                kz = koszul_tor_module(lam, m, 4, 4)
                assert bar.dims == kz.dims
        # A_+ of non-monomial quotients over their free exterior cover, the
        # path of the global models, with differentials beyond 64 x 64
        rng = random.Random(131)
        for l in (3, 5, 7):
            for n in (4, 5):
                a = degreewise_expand(random_presentation(
                    rng, l, SymmetryMode.SUPERCOMMUTATIVE, n, rng.randrange(1, 3)), 4)
                assert not a.monomial
                lam = exterior_algebra(n, l=l, n_max=4)
                m = augmentation_module(a, lam)
                assert any(max(d.rows, d.cols) > 64
                           for j in range(1, 5) for i in range(1, j + 1)
                           for d in [homology._koszul_complex_diff(
                               lam, m, i, j, homology._contractions(lam, i))])
                assert bar_tor_module(lam, m, 4, 4).dims == \
                    koszul_tor_module(lam, m, 4, 4).dims, (l, n)

    def test_driver_engines_consistent(self):
        lam = exterior_algebra(3, l=3, n_max=4)
        m = augmentation_module(lam, lam)
        auto = tor_module(lam, m, 4, 4)
        forced = tor_module(lam, m, 4, 4, engine="koszul")
        assert auto.dims == forced.dims

    def test_unknown_engine_rejected(self):
        a = exterior_algebra(2, n_max=3)
        with pytest.raises(ValueError, match="unknown engine 'barr'"):
            tor_module(a, augmentation_module(a, a), 3, 3, engine="barr")
        for i_max in (0, 3):
            with pytest.raises(ValueError, match="unknown engine 'barr'"):
                tor_algebra(a, i_max, 3, engine="barr")


def _dense_bar_table(a, m, i_max, j_max):
    """The bar table from dense differentials, each summand's map the
    Kronecker product I (x) mult (x) I, ranked by dense elimination: a
    reference that shares no code with the engines' bar complex."""
    p = a.fld.l

    def terms(i, j):
        # summands (algebra degrees, module degree) of the i-th term in degree j
        return [(c, md) for md in range(1, j + 1) if m.dims[md]
                for c in itertools.product(range(1, j + 1), repeat=i)
                if sum(c) + md == j and all(a.dims[n] for n in c)]

    def size(c, md):
        return math.prod(a.dims[n] for n in c) * m.dims[md]

    def differential(i, j):
        src, tgt = terms(i, j), terms(i - 1, j)
        offsets = dict(zip(tgt, itertools.accumulate([size(*t) for t in tgt], initial=0)))
        d = np.zeros((sum(size(*t) for t in tgt), sum(size(*t) for t in src)), dtype=np.int64)
        col = 0
        for c, md in src:
            factors = [a.dims[n] for n in c] + [m.dims[md]]
            for s in range(i):
                if s < i - 1:
                    mult = a.mult_matrix(c[s], c[s + 1])
                    key = (c[:s] + (c[s] + c[s + 1],) + c[s + 2:], md)
                else:
                    mult, key = m.action_matrix(c[s], md), (c[:s], md + c[s])
                if key in offsets:
                    block = np.kron(np.eye(math.prod(factors[:s]), dtype=np.int64),
                                    np.kron(mult, np.eye(math.prod(factors[s + 2:]),
                                                         dtype=np.int64)))
                    r = offsets[key]
                    d[r:r + block.shape[0], col:col + block.shape[1]] += (-1) ** s * block
            col += size(c, md)
        return d % p

    dims = {}
    for j in range(1, j_max + 1):
        diffs = [differential(i, j) for i in range(1, min(i_max + 1, j) + 1)]
        for lo, hi in zip(diffs, diffs[1:]):
            assert not ((lo @ hi) % p).any()
        ranks = [0] + [gf.rank(d, p) for d in diffs]
        for i, d in enumerate(diffs):
            h = d.shape[0] - ranks[i] - ranks[i + 1]
            if h:
                dims[(i, j)] = h
    return dims


class TestSplitBar:
    """The bar complex, split by multidegree or one block per degree,
    against a dense reference built from Kronecker products."""

    @staticmethod
    def _same(a, m, i_max, j_max):
        assert homology._bar_split_table(a, m, i_max, j_max) == \
            _dense_bar_table(a, m, i_max, j_max), (a.fld.l, a.mode, i_max, j_max)

    def test_free_algebras_odd_l(self):
        for l in (3, 5, 7):
            for mode in SymmetryMode:
                a = free_algebra(PrimeField(l), mode, gen_order(3), 4)
                self._same(a, augmentation_module(a, a), 3, 4)
                self._same(a, augmentation_module(a, a), 2, 3)

    def test_over_exterior_cover_odd_l(self):
        for l in (3, 5, 7):
            lam = exterior_algebra(4, l=l, n_max=4)
            a = graph_algebra(cycle_graph(4), PrimeField(l), n_max=4)
            self._same(a, augmentation_module(a, a), 3, 4)
            self._same(lam, augmentation_module(a, lam), 3, 4)
            self._same(lam, augmentation_module(a, lam), 1, 2)

    def test_graph_sample(self):
        fld = PrimeField(2)
        lam = exterior_algebra(5, l=2, n_max=4)
        graphs = list(all_graphs(5))
        for t in random.Random(113).sample(graphs, 6):
            a = graph_algebra(t, fld, n_max=4)
            self._same(a, augmentation_module(a, a), 3, 4)
            self._same(lam, augmentation_module(a, lam), 3, 4)

    def test_non_monomial_random(self):
        # generic quadratic relations: products are not monomial, so each
        # degree is one block; the algebra, A_+ and an ideal module
        rng = random.Random(137)
        for l in (2, 3, 5):
            for mode, n in ((SymmetryMode.COMMUTATIVE, 3), (SymmetryMode.SUPERCOMMUTATIVE, 4)):
                a = degreewise_expand(random_presentation(rng, l, mode, n, 2), 4)
                plus = augmentation_module(a, a)
                assert any(len(terms) > 1 for products in homology._SplitBasis(a, plus, 4).prod
                           for terms in products.values()), (l, mode)
                c = np.array([rng.randrange(l) for _ in range(n - 1)] + [1], dtype=np.int64)
                for i_max, j_max in ((4, 4), (2, 4)):
                    alg = {(i + 1, j): h for (i, j), h in
                           _dense_bar_table(a, plus, i_max - 1, j_max).items()}
                    assert tor_algebra(a, i_max, j_max, engine="bar").dims == \
                        {(0, 0): 1, **alg}, (l, mode, i_max)
                    for m in (plus, ideal_module(a, c)):
                        assert tor_module(a, m, i_max, j_max, engine="bar").dims == \
                            _dense_bar_table(a, m, i_max, j_max), (l, mode, i_max)

    def test_structure_constants_in_block_key(self):
        # two triangles, on x0 x1 x2 and on x2 x3 x4, at l = 5; then x0 * x1
        # alone is rescaled by 2 (generator 0's matrix A_1 -> A_2 times a
        # diagonal matrix), so x1 * x0 = -x0 * x1 / 2 on the first triangle
        # and -x2 * x3 on the second.  The triangles keep one support
        # pattern, but over the exterior cover the ratio changes the
        # homology of the x0 x1 x2 blocks: a block key without the structure
        # constants would give both triangles one homology.
        l, fld = 5, PrimeField(5)
        t = QuadGraph.build([f"x{i}" for i in range(5)],
                            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        tables = []
        for scale in (1, 2):
            a = graph_algebra(t, fld, n_max=4)
            row = [mo.ranks() for mo in a.basis_monomials[2]].index((0, 1))
            rescale = np.eye(a.dims[2], dtype=np.int64)
            rescale[row, row] = scale
            a.gen_action[1][0] = (rescale @ a.gen_action[1][0]) % l
            lam = free_algebra(fld, SymmetryMode.SUPERCOMMUTATIVE, a.order, 4)
            self._same(a, augmentation_module(a, a), 3, 4)
            m = augmentation_module(a, lam)
            self._same(lam, m, 3, 4)
            tables.append(_dense_bar_table(lam, m, 3, 4))
        assert tables[0] != tables[1]

    def test_repeated_monomials_turn_reuse_off(self):
        # a module over the exterior algebra on x0..x3 with two basis vectors
        # for each of x0, x0x1, x2, x2x3: x1 maps the two on x0 onto the two
        # on x0x1, x3 maps both on x2 onto the first on x2x3.  The blocks at
        # x0x1 and x2x3 differ, but names alone cannot tell them apart, so
        # the table must come without reuse
        lam = exterior_algebra(4, l=3, n_max=2)
        x = [Monomial.from_dict(e) for e in ({0: 1}, {2: 1}, {0: 1, 1: 1}, {2: 1, 3: 1})]
        action = [np.zeros((4, 4), dtype=np.int64) for _ in range(4)]
        action[1][0, 0] = action[1][1, 1] = 1
        action[3][2, 2] = action[3][2, 3] = 1
        m = ModuleTruncation(lam, [0, 4, 4], [None, action],
                             basis_monomials=[[], [x[0], x[0], x[1], x[1]],
                                              [x[2], x[2], x[3], x[3]]], monomial=True)
        assert not homology._BlockKeys(homology._SplitBasis(lam, m, 2)).exact()
        self._same(lam, m, 1, 2)

    def test_monomials_above_their_degree_turn_reuse_off(self):
        # M_1 on 1 and x1^3, M_2 on x0, with x0 * 1 = x0 the only nonzero
        # product, over the exterior algebra on x0, x1 (keys in base 3).
        # The tuples (x0, 1) and (x0, x1^3) have the keys 1 and 10, whose
        # low digits agree: read as multidegrees, both blocks would be the
        # x0-block, though the first is exact and the second is not
        lam = exterior_algebra(2, l=3, n_max=2)
        action = [np.array([[1, 0]], dtype=np.int64), np.zeros((1, 2), dtype=np.int64)]
        m = ModuleTruncation(lam, [0, 2, 1], [None, action],
                             basis_monomials=[[], [Monomial.unit(), Monomial.from_dict({1: 3})],
                                              [Monomial.generator(0)]], monomial=True)
        assert not homology._BlockKeys(homology._SplitBasis(lam, m, 2)).exact()
        self._same(lam, m, 1, 2)

    def test_non_monomial_product_rejected(self):
        # y*y = x^2 + x*y: the algebra is flagged monomial, but is not
        a = degreewise_expand(presentation_from_strings(
            3, SymmetryMode.COMMUTATIVE, ["x", "y"],
            [[(1, "y^2"), (-1, "x^2"), (-1, "x*y")]]), 3)
        a.monomial = True
        with pytest.raises(ValueError, match="product is not monomial"):
            homology._bar_split_table(a, augmentation_module(a, a), 2, 2)
        with pytest.raises(ValueError, match="product is not monomial"):
            tor_algebra(a, 3, 3, engine="bar")


def test_bar_term_dims_count_the_summands():
    # the term sizes by recursion on the degree, against the sum over
    # compositions of the products of the factors' dimensions
    rng = random.Random(5)
    for _ in range(200):
        n_max = rng.randint(0, 5)
        a = SimpleNamespace(dims=[1] + [rng.choice((0, 1, 2, 3)) for _ in range(n_max)])
        m = SimpleNamespace(dims=[rng.choice((0, 1))] + [rng.choice((0, 1, 4)) for _ in range(n_max)])
        for j in range(n_max + 1):
            want = [sum(math.prod(a.dims[n] for n in c) * m.dims[j - sum(c)]
                        for c in itertools.product(range(1, j + 1), repeat=i) if sum(c) < j)
                    if i < j else 0 for i in range(j + 2)]
            assert homology._bar_term_dims(a, m, j) == want, (a.dims, m.dims, j)


@st.composite
def monomial_algebras(draw):
    """A random monomial algebra: n <= 4 generators, n_max <= 4, survivors
    drawn degree by degree among the monomials whose divisors all survive,
    so a graph with loops (in the commutative mode) in degree 2 and random
    survivor sets above.  Every basis vector is then rescaled by a random
    unit, the generators with them: an isomorphic algebra whose structure
    constants are not all 1 or -1."""
    l = draw(st.sampled_from((2, 3, 5, 7)))
    mode = draw(st.sampled_from(list(SymmetryMode)))
    n, n_max = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    order = gen_order(n)
    surv = [[Monomial.unit()], [Monomial.generator(g) for g in range(n)]]
    for d in range(2, n_max + 1):
        below = set(surv[-1])
        candidates = [mo for mo in normal_monomials(order, d, mode)
                      if all(div in below for div in divisors_degree(mo, d - 1))]
        keep = draw(st.lists(st.booleans(), min_size=len(candidates),
                             max_size=len(candidates)))
        surv.append(sorted((mo for mo, k in zip(candidates, keep) if k),
                           key=Monomial.sort_key))
    a = monomial_algebra(MonomialTruncation(order, mode, n_max, surv), PrimeField(l))
    # the new basis vector k of A_d is scale[d][k] times the old one, so
    # generator g acts by scale[1][g] * D_(d+1)^-1 @ G @ D_d
    scale = [[1]] + [draw(st.lists(st.integers(1, l - 1), min_size=dim, max_size=dim))
                     for dim in a.dims[1:]]
    for d, mats in enumerate(a.gen_action):
        inverse = np.array([pow(c, -1, l) for c in scale[d + 1]], dtype=np.int64)
        for g, mat in enumerate(mats):
            mats[g] = scale[1][g] * inverse.reshape(-1, 1) * mat * np.array(scale[d]) % l
    return a


class TestSplitBarAudit:
    """Property-based audit of the split bar, with its reuse of blocks,
    against the dense reference."""

    @settings(max_examples=300, deadline=None)
    @given(monomial_algebras(), st.data())
    def test_monomial_algebras(self, a, data):
        j_max = data.draw(st.integers(1, a.n_max))
        i_max = data.draw(st.integers(0, j_max))
        pairs = [(a, augmentation_module(a, a))]
        if a.mode is SymmetryMode.SUPERCOMMUTATIVE:
            lam = free_algebra(a.fld, a.mode, a.order, a.n_max)
            pairs.append((lam, augmentation_module(a, lam)))
        for b, m in pairs:
            assert homology._bar_split_table(b, m, i_max, j_max) == \
                _dense_bar_table(b, m, i_max, j_max)


class TestInvariants:
    def test_pbw_soundness(self):
        """Quadratic presentations certified by the PBW criterion must have a
        clean homology diagonal."""
        rng = random.Random(101)
        checked = 0
        for _ in range(20):
            a = degreewise_expand(
                random_presentation(rng, 2, SymmetryMode.SUPERCOMMUTATIVE,
                                    4, rng.randrange(1, 4)), 4)
            if not pbw_verdict(a).koszul:
                continue
            checked += 1
            assert koszul_scan(bar_tor_algebra(a, 4, 4)).koszul_through_bound
        assert checked >= 3

    def test_filtration_comparison(self):
        """dim H_{i,j}(A) <= dim H_{i,j}(gr^F A) entrywise."""
        rng = random.Random(103)
        for _ in range(5):
            a = degreewise_expand(
                random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE,
                                    3, rng.randrange(1, 3)), 4)
            gr = monomial_algebra(associated_graded(a), a.fld)
            ta = bar_tor_algebra(a, 4, 4)
            tg = bar_tor_algebra(gr, 4, 4)
            for i in range(5):
                for j in range(5):
                    assert ta.entry(i, j) <= tg.entry(i, j)

    def test_euler_characteristic_engine_independent(self):
        """sum_i (-1)^i dim H_{i,j} = [t^j] h_M(t) / h_A(t), from the Hilbert
        functions alone (h_M = 1 for the algebra): the alternating sum of the
        ranks of a minimal free resolution of M."""
        rng = random.Random(107)
        for l in (2, 3, 5):
            for mode in SymmetryMode:
                a = degreewise_expand(
                    random_presentation(rng, l, mode, 3, rng.randrange(1, 4)), 4)
                modules = [augmentation_module(a, a),
                           ideal_module(a, np.eye(3, dtype=np.int64)[rng.randrange(3)])]
                for engine in ("bar", "resolution", "auto"):
                    tables = [(tor_algebra(a, 4, 4, engine), [1])]
                    tables += [(tor_module(a, m, 4, 4, engine), m.dims) for m in modules]
                    for t, h_m in tables:
                        expect = _series_quotient(h_m, a.dims, 4)
                        for j in range(5):
                            chi = sum((-1) ** i * t.entry(i, j) for i in range(5))
                            assert chi == expect[j], (l, mode, engine, t.kind, j)

    def test_internal_degree_bound(self):
        rng = random.Random(109)
        a = degreewise_expand(
            random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE, 3, 1), 4)
        t = bar_tor_algebra(a, 4, 4)
        for (i, j), d in t.dims.items():
            if d:
                assert i <= j
        assert t.entry(0, 0) == 1


def _series_quotient(num, den, n):
    """Coefficients of num(t) / den(t) through t^n, for den[0] = 1."""
    q = []
    for j in range(n + 1):
        c = num[j] if j < len(num) else 0
        q.append(c - sum(q[k] * den[j - k] for k in range(j)))
    return q


class TestCorruptedDifferential:
    """Every d^2=0 check is a full exact product, so one wrong entry in one
    differential is always caught."""

    def test_dense_bar(self, monkeypatch):
        # y*y = x^2 + x*y is not monomial, so degree 3 is one unsplit block
        a = degreewise_expand(presentation_from_strings(
            3, SymmetryMode.COMMUTATIVE, ["x", "y"],
            [[(1, "y^2"), (-1, "x^2"), (-1, "x*y")]]), 3)
        m = augmentation_module(a, a)
        assert not homology._monomial(a, m)
        build = homology._split_block_diff
        previous = {}

        def corrupted(st, src, tgt):
            # change entry (r, 0) of d_2 in degree 3, for r a row of d_2
            # that indexes a nonzero column of d_1, the block built just
            # before d_2 (blocks of one degree come in order of i, and d_2
            # is empty below degree 3)
            d = build(st, src, tgt)
            if src and len(src[0]) == 3:
                r = next(k for k, col in enumerate(previous["d"]) if col)
                d = [dict(col) for col in d]
                d[0][r] = (d[0].get(r, 0) + 1) % st.p
                if not d[0][r]:
                    del d[0][r]
            previous["d"] = d
            return d

        homology._bar_split_table(a, m, 2, 3)
        monkeypatch.setattr(homology, "_split_block_diff", corrupted)
        with pytest.raises(AssertionError, match=r"d\^2=0 at \(i=2, j=3\)"):
            homology._bar_split_table(a, m, 2, 3)

    def test_split_bar(self, monkeypatch):
        a = polynomial_algebra(2, l=3, n_max=3)
        build = homology._split_block_diff
        previous = {}

        def corrupted(st, src, tgt):
            # blocks of one multidegree come in order of i, so the block
            # built just before d_2 is d_1 of the same multidegree; its
            # columns are indexed by the rows of d_2
            d = build(st, src, tgt)
            lower = previous.get("d", [])
            if src and len(src[0]) == 3 and any(lower):
                r = next(k for k, col in enumerate(lower) if col)
                d = [dict(col) for col in d]
                d[0][r] = (d[0].get(r, 0) + 1) % st.p
                if not d[0][r]:
                    del d[0][r]
            previous["d"] = d
            return d

        bar_tor_algebra(a, 3, 3)
        monkeypatch.setattr(homology, "_split_block_diff", corrupted)
        with pytest.raises(AssertionError, match=r"d\^2=0"):
            bar_tor_algebra(a, 3, 3)

    def test_koszul_complex(self, monkeypatch):
        lam = exterior_algebra(3, l=3, n_max=3)
        m = augmentation_module(lam, lam)
        build = homology._koszul_complex_diff

        def corrupted(lam, m, i, j, gamma):
            # change entry (r, 0) of d_2 in degree 3, for r a row of d_2
            # that indexes a nonzero column of d_1
            d = build(lam, m, i, j, gamma)
            if i == 2 and j == 3:
                d_1 = build(lam, m, 1, j, homology._contractions(lam, 1))
                r = next(k for k, col in enumerate(d_1.columns()) if col)
                p = d.field.l
                v = (d.columns()[0].get(r, 0) + 1) % p
                entries = [e for e in d.entries if e[:2] != (r, 0)]
                entries += [(r, 0, v)] if v else []
                d = gf.SparseMatrixGF(d.field, d.rows, d.cols, tuple(entries))
            return d

        koszul_tor_module(lam, m, 3, 3)
        monkeypatch.setattr(homology, "_koszul_complex_diff", corrupted)
        with pytest.raises(AssertionError, match=r"d\^2=0 at \(i=2, j=3\)"):
            koszul_tor_module(lam, m, 3, 3)


class TestTableFormats:
    def test_json_matrix(self):
        t = diag_table(TorKind.ALGEBRA, {(0, 0): 1, (1, 1): 2}, 1, 1)
        obj = t.to_json()
        assert obj["dims"] == [[1, 0], [0, 2]]
        assert obj["kind"] == "algebra"

    def test_text_header(self):
        t = diag_table(TorKind.ALGEBRA, {(0, 0): 1}, 1, 1)
        text = t.to_text()
        assert text.splitlines()[0].startswith("i\\j")
        assert len(text.splitlines()) == 3
