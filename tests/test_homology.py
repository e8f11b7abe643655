"""Bar-complex Tor tables, Koszul scans, and engine cross-audits."""

import collections
import hashlib
import itertools
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulity.algebra import (ModuleTruncation, QuadraticPresentation,
                               SymmetryMode, augmentation_module,
                               degreewise_expand, free_algebra, ideal_module,
                               normal_monomials)
from koszulity import gf, homology
from koszulity.gf import PrimeField
from koszulity.graded import (MonomialTruncation, associated_graded,
                              monomial_algebra, pbw_verdict)
from koszulity.graphs import QuadGraph, all_graphs, cycle_graph, graph_algebra
from koszulity.homology import (TorKind, TorTable, _series_quotient,
                                bar_tor_algebra, bar_tor_module, is_free_exterior,
                                koszul_scan, koszul_tor_module,
                                resolution_tor_algebra, resolution_tor_module,
                                tor_algebra, tor_module)
from koszulity.models import build_global_symplectic, datum_to_algebra
from koszulity.monomials import GeneratorOrder, Monomial

from conftest import (divisors_degree, exterior_algebra, gen_order,
                      polynomial_algebra, presentation_from_strings,
                      random_presentation, run_capped)


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

    def test_huge_i_max_is_bounded_by_j_max(self):
        # bar terms with i > j vanish, so no engine's work grows with i_max
        a = degreewise_expand(random_presentation(
            random.Random(3), 3, SymmetryMode.SUPERCOMMUTATIVE, 3, 1), 4)
        lam = exterior_algebra(3, l=3, n_max=4)
        for b, engines in ((a, ("auto", "bar", "resolution")), (lam, homology.ENGINES)):
            for engine in engines:
                assert tor_algebra(b, 10 ** 12, 4, engine).dims == \
                    tor_algebra(b, 4, 4, engine).dims, engine

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

    def test_zero_module(self):
        lam = exterior_algebra(2, n_max=3)
        zero = [None] + [[np.zeros((0, 0), dtype=np.int64)] * 2 for _ in range(1, 3)]
        m = ModuleTruncation(lam, [0, 0, 0, 0], zero)
        for engine in homology.ENGINES:
            assert tor_module(lam, m, 3, 3, engine).dims == {}, engine

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
                assert any(max(len(d[0]) - 1, d[1].max(initial=-1) + 1) > 64
                           for i in range(1, 5)
                           for d in [homology._koszul_diff(
                               lam, m, i, 4, homology._contractions(lam, i))])
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
                # some pair of basis vectors has a product of several terms
                assert (np.diff(homology._SplitBasis(a, plus, 4).code) == 0).any(), (l, mode)
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


def _reachable(st, i_max: int, j_max: int) -> dict:
    """The keys of the bar basis tuples of each tier i <= i_max + 1 and
    degree j <= j_max, as sums of their factors' keys."""
    akeys = [{st.key[g] for g in basis} for basis in st.alg]
    reach = {(0, e): {st.key[g] for g in st.mod[e]} for e in range(1, j_max + 1)}
    for i in range(1, min(i_max, j_max) + 2):
        for j in range(i + 1, j_max + 1):
            reach[(i, j)] = {k + nu for d in range(1, j - i + 1) for k in akeys[d]
                             for nu in reach[(i - 1, j - d)]}
    return reach


def _tuples(st, reach, memo: dict, i: int, j: int, mu: int) -> dict:
    """The bar basis tuples (i algebra indices, then a module index) of
    degree j and key mu, listed by the degree of their module factor: each a
    in A_+ before the tuples of degree j - deg a and key mu - key a.  Each
    list is in lexicographic order.  memo holds the lists already built."""
    got = memo.get((i, j, mu))
    if got is None:
        if i == 0:
            got = {j: [(g,) for g in st.mod[j] if st.key[g] == mu]}
        else:
            got = {}
            for d in range(1, j - i + 1):
                for g in st.alg[d]:
                    if mu - st.key[g] in reach[(i - 1, j - d)]:
                        for e, ts in _tuples(st, reach, memo, i - 1, j - d, mu - st.key[g]).items():
                            got.setdefault(e, []).extend((g,) + t for t in ts)
        memo[(i, j, mu)] = got
    return got


class TestBarTiers:
    """`_bar_tiers` against the recursion it replaced: Python sets of keys
    per tier and degree, and tuples built key by key with a memo.  Block by
    block, in the order the tiers give: each block is one run of tuples
    with one (degree, key), equal to the recursion's tuples of that key, and
    weighs the number of reachable keys with its block key; each block key
    has one representative, present in every tier that reaches it."""

    @staticmethod
    def _same(a, m, i_max: int, j_max: int, keyed: bool) -> None:
        st = homology._SplitBasis(a, m, j_max)
        keys = homology._BlockKeys(st) if st.mono is not None else None
        keys = keys if keys and keys.exact() else None
        assert (keys is not None) == keyed
        top = min(i_max + 1, j_max)
        tiers, degree, weight = homology._bar_tiers(st, keys, top, j_max)
        # the keys of the recursion: exponent vectors read in base n_max + 1
        n = st.exps.shape[1]
        ref = SimpleNamespace(alg=st.alg, mod=st.mod, key=[
            sum(e * st.base ** r for r, e in enumerate(row)) for row in st.exps.tolist()])
        deg = {g: d for ranges in (st.alg, st.mod) for d, basis in enumerate(ranges) for g in basis}
        reach = _reachable(ref, i_max, j_max)
        mus = sorted({(j, mu) for (i, j), got in reach.items() if i <= top for mu in got})
        rows = np.array([[j] + [mu // st.base ** r % st.base for r in reversed(range(n))]
                         for j, mu in mus], dtype=np.int64).reshape(-1, 1 + n)
        key = dict(zip(mus, keys(rows).tolist() if keys else mus))
        stands = collections.Counter(key.values())
        memo, reps, blocks = {}, {}, []
        for i in range(top + 1):
            assert len(tiers[i]) == len(degree[i]) == len(weight[i])
            code = [(sum(deg[g] for g in t), sum(ref.key[g] for g in t)) for t in tiers[i].tolist()]
            assert [j for j, _ in code] == degree[i].tolist()
            cuts = [k for k in range(len(code)) if k == 0 or code[k] != code[k - 1]]
            blocks.append([code[k] for k in cuts])
            assert len(set(blocks[-1])) == len(cuts), i
            for start, end in zip(cuts, cuts[1:] + [len(code)]):
                j, mu = code[start]
                assert reps.setdefault(key[(j, mu)], (j, mu)) == (j, mu), (i, j, mu)
                got = _tuples(ref, reach, memo, i, j, mu)
                want = [list(t) for e in sorted(got) for t in got[e]]
                assert tiers[i][start:end].tolist() == want, (i, j, mu)
                assert (weight[i][start:end] == stands[key[(j, mu)]]).all(), (i, j, mu)
        assert len(reps) == len(stands)
        for i, got in enumerate(blocks):
            assert set(got) == {(j, mu) for j, mu in reps.values() if mu in reach.get((i, j), ())}

    def test_four_vertex_graphs(self):
        fld = PrimeField(2)
        lam = exterior_algebra(4, n_max=5)
        for t in all_graphs(4):
            a = graph_algebra(t, fld, n_max=5)
            self._same(a, augmentation_module(a, a), 4, 5, True)
            self._same(lam, augmentation_module(a, lam), 5, 5, True)

    def test_exterior_covers_odd_l(self):
        for l in (3, 5):
            lam = exterior_algebra(5, l=l, n_max=4)
            self._same(lam, augmentation_module(lam, lam), 3, 4, True)
            for t in random.Random(l).sample(list(all_graphs(5)), 4):
                a = graph_algebra(t, PrimeField(l), n_max=4)
                self._same(lam, augmentation_module(a, lam), 3, 4, True)
                self._same(lam, augmentation_module(a, lam), 1, 3, True)

    def test_keys_off(self):
        # the modules of `TestSplitBar`'s two tests that turn reuse off: two
        # basis vectors on each of x0, x0x1, x2, x2x3, and M_1 on 1 and x1^3
        lam = exterior_algebra(4, l=3, n_max=2)
        x = [Monomial.from_dict(e) for e in ({0: 1}, {2: 1}, {0: 1, 1: 1}, {2: 1, 3: 1})]
        action = [np.zeros((4, 4), dtype=np.int64) for _ in range(4)]
        action[1][0, 0] = action[1][1, 1] = 1
        action[3][2, 2] = action[3][2, 3] = 1
        m = ModuleTruncation(lam, [0, 4, 4], [None, action],
                             basis_monomials=[[], [x[0], x[0], x[1], x[1]],
                                              [x[2], x[2], x[3], x[3]]], monomial=True)
        self._same(lam, m, 1, 2, False)
        lam = exterior_algebra(2, l=3, n_max=2)
        action = [np.array([[1, 0]], dtype=np.int64), np.zeros((1, 2), dtype=np.int64)]
        m = ModuleTruncation(lam, [0, 2, 1], [None, action],
                             basis_monomials=[[], [Monomial.unit(), Monomial.from_dict({1: 3})],
                                              [Monomial.generator(0)]], monomial=True)
        self._same(lam, m, 1, 2, False)

    def test_unsplit_bar(self):
        rng = random.Random(29)
        for l in (2, 3, 5):
            for mode, n in ((SymmetryMode.COMMUTATIVE, 3), (SymmetryMode.SUPERCOMMUTATIVE, 4)):
                a = degreewise_expand(random_presentation(rng, l, mode, n, 2), 4)
                c = np.array([rng.randrange(l) for _ in range(n - 1)] + [1], dtype=np.int64)
                for m in (augmentation_module(a, a), ideal_module(a, c)):
                    self._same(a, m, 4, 4, False)
                    self._same(a, m, 1, 4, False)

    def test_exact_past_int64_keys(self):
        # on 40 variables the keys, in base 3, reach 5.4e18, and sums of two
        # pass 2^63: an int64 code of degree and key would wrap
        a = exterior_algebra(40, l=3, n_max=2)
        m = augmentation_module(a, a)
        key = max(sum(e * 3 ** r for r, e in mo.exps) for mo in homology._SplitBasis(a, m, 2).mono)
        assert key > 5 * 10 ** 18 and 2 * key >= 2 ** 63
        self._same(a, m, 2, 2, True)
        assert homology._bar_split_table(a, m, 2, 2) == _dense_bar_table(a, m, 2, 2)

    def test_exact_past_int64_rows(self):
        # 70 variables at degree 1: a radix code of the rows (degree, then
        # exponents 0 or 1, base 2) would wrap past 2^63, and x68 and x69
        # would share a code
        lam = exterior_algebra(70, l=2, n_max=2)
        zero = [None, [np.zeros((0, 3), dtype=np.int64)] * 70]
        m = ModuleTruncation(lam, [0, 3, 0], zero, basis_monomials=[
            [], [Monomial.generator(g) for g in (0, 68, 69)], []], monomial=True)
        self._same(lam, m, 1, 1, True)


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
def monomial_algebras(draw, primes=(2, 3, 5, 7), modes=tuple(SymmetryMode),
                      gens=(1, 4), tops=(2, 4)):
    """A random monomial algebra: l in primes, a mode in modes, n generators
    and n_max in the ranges gens and tops, survivors drawn degree by degree
    among the monomials whose divisors all survive, so a graph with loops
    (in the commutative mode) in degree 2 and random survivor sets above.
    Every basis vector is then rescaled by a random unit, the generators
    with them: an isomorphic algebra whose structure constants are not all
    1 or -1.  Last, one product term of one generator's matrix is
    multiplied by a random unit u != 1 (for l > 2).  That may change the
    homology, or break associativity: the audit keeps only the draws whose
    bar complexes still have d^2 = 0."""
    l = draw(st.sampled_from(primes))
    mode = draw(st.sampled_from(modes))
    n, n_max = draw(st.integers(*gens)), draw(st.integers(*tops))
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
    terms = [(d, g, r, c) for d, mats in enumerate(a.gen_action) for g, mat in enumerate(mats)
             for r, c in zip(*np.nonzero(mat))]
    if l > 2 and terms:
        d, g, r, c = draw(st.sampled_from(terms))
        a.gen_action[d][g][r, c] = a.gen_action[d][g][r, c] * draw(st.integers(2, l - 1)) % l
    return a


class TestSplitBarAudit:
    """Property-based audit of the split bar, with its reuse of blocks,
    against the dense reference."""

    @staticmethod
    def _audit(a, i_max, j_max):
        pairs = [(a, augmentation_module(a, a))]
        if a.mode is SymmetryMode.SUPERCOMMUTATIVE:
            lam = free_algebra(a.fld, a.mode, a.order, a.n_max)
            pairs.append((lam, augmentation_module(a, lam)))
        for b, m in pairs:
            try:
                want = _dense_bar_table(b, m, i_max, j_max)
            except AssertionError:  # the dense reference's d^2 = 0 check
                assume(False)
            assert homology._bar_split_table(b, m, i_max, j_max) == want

    @settings(max_examples=300, deadline=None)
    @given(monomial_algebras(), st.data())
    def test_monomial_algebras(self, a, data):
        j_max = data.draw(st.integers(1, a.n_max))
        self._audit(a, data.draw(st.integers(0, j_max)), j_max)

    @settings(max_examples=150, deadline=None)
    @given(monomial_algebras((3, 5, 7), (SymmetryMode.SUPERCOMMUTATIVE,), (5, 5), (3, 3)))
    def test_structure_constants(self, a):
        # on five generators A_2 often has two triangles alike but for the
        # perturbed term; over the exterior cover the blocks at their
        # products then differ in homology, as in
        # `test_structure_constants_in_block_key`.  With the structure
        # constants left out of the block key, this fails within its draws
        self._audit(a, 3, 3)


@st.composite
def presented_modules(draw):
    """A random quadratic presentation, n <= 5 generators with uniformly
    random relations; c, a random nonzero element of A_1 for the module
    M = (c), or None for M = A_+; and a window i_max >= j_max - 1, so that
    the resolution fills the entry (j_max - 1, j_max) from the Euler
    characteristic."""
    l = draw(st.sampled_from((2, 3, 5, 7)))
    mode = draw(st.sampled_from(list(SymmetryMode)))
    n = draw(st.integers(1, 5))
    j_max = draw(st.integers(2, 5 if n <= 3 else 4))
    order = gen_order(n)
    nq = len(normal_monomials(order, 2, mode))
    relations = draw(st.lists(st.lists(st.integers(0, l - 1), min_size=nq, max_size=nq),
                              max_size=nq))
    pres = QuadraticPresentation(PrimeField(l), mode, order,
                                 np.array(relations, dtype=np.int64))
    c = draw(st.none() | st.lists(st.integers(0, l - 1), min_size=n, max_size=n)
             .filter(any).map(np.array))
    return pres, c, draw(st.integers(j_max - 1, j_max + 1)), j_max


class TestResolutionAudit:
    """Property-based audit of the minimal resolution, its Euler-filled
    entry included, against the bar complex."""

    @settings(max_examples=300, deadline=None)
    @given(presented_modules())
    def test_presented_modules(self, case):
        pres, c, i_max, j_max = case
        a = degreewise_expand(pres, j_max)
        m = augmentation_module(a, a) if c is None else ideal_module(a, c)
        assert resolution_tor_module(a, m, i_max, j_max).dims == \
            bar_tor_module(a, m, i_max, j_max).dims


@st.composite
def exterior_cover_modules(draw):
    """A module over the free exterior algebra on n <= 5 generators, mod
    l in {2, 3, 5, 7}, and a window (i_max, j_max) <= (4, 4): A_+ of a
    non-monomial supercommutative quotient, A_+ of the cover itself, or the
    ideal (c) of the cover for a random nonzero c in degree 1."""
    l = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, 5))
    j_max = draw(st.integers(1, 4))
    lam = exterior_algebra(n, l=l, n_max=4)
    kind = draw(st.sampled_from(("quotient", "cover", "ideal")))
    if kind == "quotient":
        order = gen_order(n)
        nq = len(normal_monomials(order, 2, SymmetryMode.SUPERCOMMUTATIVE))
        relations = draw(st.lists(st.lists(st.integers(0, l - 1), min_size=nq, max_size=nq),
                                  min_size=1, max_size=nq))
        a = degreewise_expand(QuadraticPresentation(
            PrimeField(l), SymmetryMode.SUPERCOMMUTATIVE, order,
            np.array(relations, dtype=np.int64)), 4)
        assume(not a.monomial)
        m = augmentation_module(a, lam)
    elif kind == "cover":
        m = augmentation_module(lam, lam)
    else:
        m = ideal_module(lam, draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n)
                                   .filter(any).map(np.array)))
    return lam, m, draw(st.integers(0, 4)), j_max


class TestKoszulAudit:
    """Property-based audit of the Koszul complex, and of the engine `auto`
    picks, against the bar complex over a free exterior cover."""

    @settings(max_examples=300, deadline=None)
    @given(exterior_cover_modules())
    def test_exterior_cover_modules(self, case):
        lam, m, i_max, j_max = case
        bar = bar_tor_module(lam, m, i_max, j_max).dims
        assert koszul_tor_module(lam, m, i_max, j_max).dims == bar
        assert tor_module(lam, m, i_max, j_max, engine="auto").dims == bar

    def test_no_contractions_for_the_empty_top_tier(self, monkeypatch):
        """Tier j_max is empty, so Gamma_(j_max) is never built; W3 (the
        9-generator global symplectic module at (5, 6)) keeps its table."""
        calls, contractions = [], homology._contractions
        monkeypatch.setattr(homology, "_contractions",
                            lambda lam, i: calls.append(i) or contractions(lam, i))
        d, order = build_global_symplectic(3, (2, 2), l=3, seed=0)
        lam = free_algebra(d.fld, SymmetryMode.SUPERCOMMUTATIVE, order, 6)
        m = augmentation_module(datum_to_algebra(d, 6), lam)
        assert koszul_tor_module(lam, m, 5, 6).dims == {
            (0, 1): 9, (1, 2): 73, (2, 3): 333, (3, 4): 1125, (4, 5): 3135, (5, 6): 7623}
        assert calls == [1, 2, 3, 4, 5]
        lam = exterior_algebra(3, l=5, n_max=4)
        m = augmentation_module(lam, lam)
        for j_max in range(5):
            for i_max in range(5):
                calls.clear()
                assert koszul_tor_module(lam, m, i_max, j_max).dims == \
                    bar_tor_module(lam, m, i_max, j_max).dims
                assert calls == list(range(1, min(i_max + 1, j_max - 1) + 1))


class TestEulerCertificate:
    """`tor_module` certifies sum_i (-1)^i dim Tor_{i,j} = [t^j] h_M / h_A
    in every degree j <= min(i_max + 1, j_max)."""

    @staticmethod
    def _off_by_one(monkeypatch, engine: str, i: int, j: int) -> None:
        run = getattr(homology, f"{engine}_tor_module")

        def patched(*args):
            t = run(*args)
            t.dims[(i, j)] = t.entry(i, j) + 1
            return t

        monkeypatch.setattr(homology, f"{engine}_tor_module", patched)

    @pytest.mark.parametrize("engine", ["bar", "resolution", "koszul"])
    def test_entry_off_by_one_raises_naming_j(self, monkeypatch, engine):
        lam = exterior_algebra(3, l=3, n_max=4)
        m = augmentation_module(lam, lam)
        for j in range(1, 5):
            with monkeypatch.context() as mp:
                self._off_by_one(mp, engine, j - 1, j)
                with pytest.raises(AssertionError,
                                   match=f"fails the Euler characteristic at j={j}$"):
                    tor_module(lam, m, 4, 4, engine=engine)
        assert tor_module(lam, m, 4, 4, engine=engine).entry(3, 4) == 15

    def test_degrees_the_window_cuts_are_not_checked(self, monkeypatch):
        lam = exterior_algebra(3, l=3, n_max=4)
        m = augmentation_module(lam, lam)
        self._off_by_one(monkeypatch, "bar", 1, 4)  # j = 4 > i_max + 1
        assert tor_module(lam, m, 1, 4, engine="bar").entry(1, 4) == 1
        self._off_by_one(monkeypatch, "bar", 1, 2)
        with pytest.raises(AssertionError, match="at j=2$"):
            tor_module(lam, m, 1, 4, engine="bar")


def _dense_action(dims, product, vblocks, d: int, u: int, j: int) -> np.ndarray:
    """Basis vector u of A_d from degree j to degree j + d of B (x) V, for B
    with dims and product: the blocks of `product(d, j - e)` that u picks,
    each tensored with the identity of V_e, placed at the summands'
    offsets."""
    def offsets(deg):
        out, off = {}, 0
        for e, vd in vblocks:
            size = dims[deg - e] * vd if 0 <= deg - e < len(dims) else 0
            out[e], off = (off, size), off + size
        return out, off

    (src, n_src), (tgt, n_tgt) = offsets(j), offsets(j + d)
    out = np.zeros((n_tgt, n_src), dtype=np.int64)
    for e, vd in vblocks:
        (s0, s1), (t0, t1) = src[e], tgt[e]
        if s1 and t1:
            k = dims[j - e]
            block = product(d, j - e)[:, u * k:(u + 1) * k]
            out[t0:t0 + t1, s0:s0 + s1] = np.kron(block, np.eye(vd, dtype=np.int64))
    return out


class TestResolutionActionTable:
    """The resolution's action tables: sparse images of random vectors equal
    the dense images built from `mult_matrix`/`action_matrix` blocks."""

    @pytest.mark.parametrize("slice_terms", [None, 1, 7])
    def test_images_match_dense_reference(self, monkeypatch, slice_terms):
        if slice_terms is not None:
            monkeypatch.setattr(homology, "PRODUCT_SLICE", slice_terms)
        rng, nrng = random.Random(211), np.random.default_rng(211)
        checked = 0
        for l in (2, 3, 5, 7):
            for _ in range(3):
                n = rng.randrange(1, 4)
                a = degreewise_expand(random_presentation(
                    rng, l, rng.choice(list(SymmetryMode)), n, rng.randrange(3)), 4)
                vblocks = [(e, rng.randrange(1, 4)) for e in sorted(rng.sample(range(3), 2))]
                m = ideal_module(a, np.eye(n, dtype=np.int64)[0])
                for dims, product, vb in ((a.dims, a.mult_matrix, vblocks),
                                          (m.dims, m.action_matrix, [(0, 1)])):
                    layout = homology._Layout(dims, product, vb)
                    for d in range(4):
                        for j in range(5 - d):
                            dense = [_dense_action(dims, product, vb, d, u, j)
                                     for u in range(a.dims[d])]
                            assert all(x.shape == (layout.dim(j + d), layout.dim(j))
                                       for x in dense)
                            vecs = nrng.integers(0, l, (rng.randrange(1, 6), layout.dim(j)))
                            vecs *= nrng.random(vecs.shape) < 0.5
                            code, k, vals = homology._product(
                                layout.table(d, j), _cols(vecs.T), l)
                            got = np.zeros((len(vecs), a.dims[d] * layout.dim(j + d)), np.int64)
                            got[k, code] = vals
                            want = np.concatenate([vecs @ x.T % l for x in dense]
                                                  + [got[:, :0]], axis=1)
                            assert (got == want).all(), (l, d, j)
                            checked += bool(vals.size)
        assert checked >= 100


class TestResolutionKernel:
    """The resolution's kernels, streamed from the columns of each map, and
    its bounded elimination of A_1 K_(j-1)."""

    def test_kernel_is_nullspace_byte_for_byte(self):
        rng, checked = np.random.default_rng(223), 0
        for l in (2, 3, 5, 7, 65521):
            for k in range(100):
                rows, cols = int(rng.integers(1, 10)) * (k % 10 > 0), int(rng.integers(0, 12))
                a = rng.integers(0, l, (rows, cols)) * (rng.random((rows, cols)) < rng.random())
                if cols >= 4:  # an all-zero column, and one dependent on two others
                    z, c0, c1, c2 = rng.choice(cols, 4, replace=False)
                    a[:, z] = 0
                    a[:, c2] = (rng.integers(1, l) * a[:, c0] + rng.integers(l) * a[:, c1]) % l
                r, c = np.nonzero(a)
                last, (ptr, idx, vals) = homology._kernel(r, c, a[r, c], cols, l)
                got = np.zeros((len(last), cols), dtype=np.int64)
                got[np.repeat(np.arange(len(last)), np.diff(ptr)), idx] = vals
                want = gf.nullspace(a, l)
                assert got.reshape(want.shape).tobytes() == want.tobytes(), (l, k)
                assert last.tolist() == [np.flatnonzero(row)[-1] for row in want]
                checked += 1
        assert checked >= 480

    def test_bounded_elimination_keeps_the_pivots(self, monkeypatch):
        # stopped at dim K_j pivots, the elimination of A_1 K_(j-1) has the
        # keys of the unbounded one, whether or not it reaches the bound
        pivots, reached = gf.dict_pivots, []

        def both(vectors, p, bound=None):
            if bound is None:
                return pivots(vectors, p)
            vectors = list(vectors)
            got = pivots(vectors, p, bound)
            assert got.keys() == pivots(vectors, p).keys()
            reached.append(len(got) == bound)
            return got

        monkeypatch.setattr(gf, "dict_pivots", both)
        rng = random.Random(227)
        for _ in range(100):
            n, l = rng.randrange(3, 5), rng.choice((2, 3, 5, 7))
            a = degreewise_expand(random_presentation(
                rng, l, rng.choice(list(SymmetryMode)), n, rng.randrange(1, n + 1)), 4)
            resolution_tor_algebra(a, 4, 4)
        assert reached.count(True) >= 100 and reached.count(False) >= 5


def test_w3_resolution_matches_koszul():
    # the 9-generator global symplectic module (3 places, outside (2, 2),
    # l = 3) over its exterior cover at bound (5, 6), under a 2 GB cap: the
    # resolution did not finish here while its maps were dense
    code = ("from koszulity import algebra, homology, models\n"
            "d, order = models.build_global_symplectic(3, (2, 2), l=3, seed=0)\n"
            "g = models.datum_to_algebra(d, 6)\n"
            "lam = algebra.free_algebra(d.fld, algebra.SymmetryMode.SUPERCOMMUTATIVE, order, 6)\n"
            "m = algebra.augmentation_module(g, lam)\n"
            "tables = [homology.tor_module(lam, m, 5, 6, engine).dims\n"
            "          for engine in ('resolution', 'koszul')]\n"
            "print(tables[0] == tables[1], sum(tables[0].values()))\n")
    exit_code, out, err, _ = run_capped("-c", code)
    assert exit_code == 0, err[-400:]
    assert out.split()[0] == "True"


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


def _cols(dense: np.ndarray):
    """A dense matrix by compressed columns."""
    cols, rows = np.nonzero(dense.T)
    return homology._compress(rows, cols, dense[rows, cols], dense.shape[1])


def _random_complex(rng: np.random.Generator, p: int) -> list[np.ndarray]:
    """Dense d_1, ..., d_k mod p with d_i d_(i+1) = 0, built from the top:
    the rows of each d_i are random sparse combinations of the left kernel
    of d_(i+1)."""
    sizes = rng.integers(0, 12, size=rng.integers(2, 6)).tolist()
    sparse = lambda shape: rng.integers(0, p, size=shape) * (rng.random(shape) < 0.4)
    diffs = [sparse((sizes[-2], sizes[-1])) % p]
    for i in range(len(sizes) - 2, 0, -1):
        left = gf.nullspace(diffs[0].T, p)
        diffs.insert(0, (sparse((sizes[i - 1], left.shape[0])) @ left) % p)
    return diffs


class TestBarArrays:
    """The array kernels of the bar against loop references."""

    def test_bottom_up_pivots_match_independent_elimination(self):
        # exact on complexes with d^2 = 0: the pivots of every d_i equal the
        # greatest-index pivots of all its rows, so the ranks agree too
        rng = np.random.default_rng(17)
        for p in (2, 3, 5, 7) * 50:
            diffs = _random_complex(rng, p)
            assert not any(((lo @ hi) % p).any() for lo, hi in zip(diffs, diffs[1:]))
            got = homology._bottom_up_pivots([_cols(d.T) for d in diffs], p)
            for d, piv in zip(diffs, got):
                rows = [{c: int(d[r, c]) for c in np.flatnonzero(d[r])}
                        for r in range(d.shape[0])]
                assert piv == gf.dict_pivots(rows, p).keys()
                assert len(piv) == gf.rank(d, p)

    def test_zero_reductions_count_the_off_diagonal(self, monkeypatch):
        # the bar's call i of dict_pivots streams rows of tier i - 1 that are
        # not pivots at once, and for a module generated in degree 1 the rows
        # that reduce to zero number the off-diagonal entries H_{i-1,j},
        # j >= i + 1, of the table: the streamed rows less the new pivots,
        # the keys outside the table of pivots taken at once
        calls = []
        eliminate = gf.dict_pivots

        def counted(vectors, p, bound=None, pivots=None):
            vectors, at_once = list(vectors), set() if pivots is None else set(pivots.row)
            got = eliminate(vectors, p, bound, pivots)
            calls.append(len(vectors) - len(got.keys() - at_once))
            return got

        monkeypatch.setattr(gf, "dict_pivots", counted)
        rng = np.random.default_rng(37)
        off = 0
        for k in range(300):
            n, l = int(rng.integers(2, 5)), int(rng.choice((2, 3, 5, 7)))
            mode = (SymmetryMode.COMMUTATIVE, SymmetryMode.SUPERCOMMUTATIVE)[k % 2]
            a = degreewise_expand(random_presentation(random.Random(f"zero:{k}"), l, mode, n,
                                                      int(rng.integers(1, n + 1))), 4)
            c = rng.integers(0, l, size=n)
            c[rng.integers(n)] = 1
            for m in (augmentation_module(a, a), ideal_module(a, c)):
                assert not homology._monomial(a, m)
                calls.clear()
                dims = bar_tor_module(a, m, 4, 4).dims
                assert len(calls) == 4
                for i, zero in enumerate(calls, 1):
                    assert zero == sum(h for (t, j), h in dims.items() if t == i - 1 and j > i)
                off += any(calls)
        assert off >= 60  # of the 600 tables, some with off-diagonal homology

    def test_at_once_pivots_keep_the_ranks(self, monkeypatch):
        # every tier's bottom-up pivots, the first row with each lead taken at
        # once and the other rows reduced against them, are the pivots of all
        # of d_i's rows in one plain elimination, so count its rank; some rows
        # reduce through two or more at-once pivots before they end
        eliminate, ranked = gf.dict_pivots, homology._bottom_up_pivots
        complexes, chained = [], 0

        class Watched(dict):
            # every lookup of a lead outside the new pivots, by streamed row
            def __init__(self, table, hits):
                super().__init__()
                self.table, self.hits = table, hits

            def __missing__(self, lead):
                self.hits[-1].append(lead)
                return self.table[lead]

        def watched(vectors, p, bound=None, pivots=None):
            nonlocal chained
            if pivots is None:
                return eliminate(vectors, p, bound)
            hits = []
            marked = (hits.append([]) or v for v in vectors)
            got = eliminate(marked, p, bound, Watched(pivots, hits))
            chained += sum(len(set(row) & pivots.row.keys()) >= 2 for row in hits)
            return got

        def recorded(diffs, p):
            got = ranked(diffs, p)
            complexes.append((diffs, got, p))
            return got

        monkeypatch.setattr(gf, "dict_pivots", watched)
        monkeypatch.setattr(homology, "_bottom_up_pivots", recorded)
        rng = np.random.default_rng(41)
        for k in range(88):
            n, l = int(rng.integers(2, 5)), (2, 3, 5, 7)[k % 4]
            mode = (SymmetryMode.COMMUTATIVE, SymmetryMode.SUPERCOMMUTATIVE)[k // 4 % 2]
            a = degreewise_expand(random_presentation(random.Random(f"at-once:{k}"), l, mode, n,
                                                      int(rng.integers(1, n + 1))), 4)
            c = rng.integers(0, l, size=n)
            c[rng.integers(n)] = 1
            for m in (augmentation_module(a, a), ideal_module(a, c)):
                assert not homology._monomial(a, m)
                bar_tor_module(a, m, 4, 4)
        lam = exterior_algebra(4, n_max=4)
        for t in all_graphs(4):
            a = graph_algebra(t, PrimeField(2), n_max=4)
            bar_tor_module(a, augmentation_module(a, a), 4, 4)
            bar_tor_module(lam, augmentation_module(a, lam), 4, 4)
        for l in (2, 3, 5):
            lam = exterior_algebra(4, l=l, n_max=4)
            for m in (augmentation_module(lam, lam), ideal_module(lam, np.arange(1, 5) % l)):
                koszul_tor_module(lam, m, 4, 4)
        assert len(complexes) >= 300 and chained >= 500
        for diffs, got, p in complexes:
            for diff, piv in zip(diffs, got):
                assert piv == eliminate(homology._stream(*diff), p).keys()

    def test_few_rows_stream_into_reduction(self, monkeypatch):
        # the cost of the bar's ranks: on generic commutative algebras with 4
        # generators and 3 relations at l = 3, through (5, 5), the rows that
        # are not pivots at once number 53 to 81 per table at seeds 0-11; with
        # the tiers in the order `_bar_tiers` builds them they number 1155 to
        # 1910, and all 2375 rows outside the lower pivots streamed before
        # any row was taken at once
        eliminate, streamed, per_table = gf.dict_pivots, [0], []

        def counted(vectors, *args, **kwargs):
            vectors = list(vectors)
            streamed[0] += len(vectors)
            return eliminate(vectors, *args, **kwargs)

        monkeypatch.setattr(gf, "dict_pivots", counted)
        order = gen_order(4)
        nq = len(normal_monomials(order, 2, SymmetryMode.COMMUTATIVE))
        for seed in range(12):
            rng = np.random.default_rng([seed, 5])
            while True:
                a = degreewise_expand(QuadraticPresentation(
                    PrimeField(3), SymmetryMode.COMMUTATIVE, order,
                    rng.integers(0, 3, size=(3, nq))), 5)
                if list(a.dims) == [1, 4, 7, 8, 8, 8]:
                    break
            before = streamed[0]
            bar_tor_algebra(a, 5, 5)
            per_table.append(streamed[0] - before)
        assert max(per_table) <= 150, per_table

    def test_differentials_have_ascending_columns_in_each_row(self, monkeypatch):
        # the order `_bottom_up_pivots` counts on for its cost: rows streamed
        # by ascending last column, the first with each is a pivot at once
        built = []
        for name in ("_bar_diff", "_koszul_diff"):
            monkeypatch.setattr(homology, name, lambda *args, build=getattr(homology, name):
                                built.append(build(*args)) or built[-1])
        for l in (2, 3, 5):
            lam = exterior_algebra(4, l=l, n_max=4)
            a = degreewise_expand(random_presentation(
                random.Random(f"rows:{l}"), l, SymmetryMode.SUPERCOMMUTATIVE, 4, 2), 4)
            assert not a.monomial
            for m in (augmentation_module(a, lam), augmentation_module(lam, lam),
                      ideal_module(lam, np.arange(1, 5) % l)):
                bar_tor_module(lam, m, 4, 4)
                koszul_tor_module(lam, m, 4, 4)
            bar_tor_algebra(graph_algebra(cycle_graph(4), PrimeField(l), n_max=4), 4, 4)
        assert len(built) == 3 * (3 * 8 + 4)
        for ptr, cols, _ in built:
            assert all((np.diff(cols[a:b]) > 0).all() for a, b in zip(ptr[:-1], ptr[1:]))

    def test_product_matches_dict_reference(self):
        rng = np.random.default_rng(23)
        for p in (2, 3, 5, 65521) * 25:
            n0, n1, n2 = rng.integers(0, 15, size=3)
            lo, hi = (rng.integers(0, p, size=shape) * (rng.random(shape) < 0.3)
                      for shape in ((n0, n1), (n1, n2)))
            want: dict[tuple[int, int], int] = {}
            for c in range(n2):
                for k in np.flatnonzero(hi[:, c]):
                    for r in np.flatnonzero(lo[:, k]):
                        want[(r, c)] = (want.get((r, c), 0) + int(lo[r, k]) * int(hi[k, c])) % p
            rows, cols, vals = homology._product(_cols(lo), _cols(hi), p)
            assert dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())) == \
                {k: v for k, v in want.items() if v}

    def test_product_slices_give_the_whole_product(self, monkeypatch):
        # a slice below one column's terms makes every column its own slice
        rng = np.random.default_rng(41)
        for p in (2, 3, 5, 65521) * 10:
            n0, n1, n2 = rng.integers(0, 30, size=3)
            lo, hi = (rng.integers(0, p, size=shape) * (rng.random(shape) < 0.3)
                      for shape in ((n0, n1), (n1, n2)))
            whole = homology._product(_cols(lo), _cols(hi), p)
            for cap in (1, 5, 40):
                monkeypatch.setattr(homology, "PRODUCT_SLICE", cap)
                got = homology._product(_cols(lo), _cols(hi), p)
                assert all((x == y).all() for x, y in zip(got, whole))

    def test_product_catches_one_corrupted_entry(self):
        # adding 1 at (k, c) of d_(i+1) adds column k of d_i to column c of
        # the product, which was 0
        rng = np.random.default_rng(29)
        caught = 0
        for p in (2, 3, 5) * 40:
            diffs = _random_complex(rng, p)
            for lo, hi in zip(diffs, diffs[1:]):
                assert not homology._product(_cols(lo), _cols(hi), p)[2].size
                nonzero = np.flatnonzero(lo.any(axis=0))
                if not (nonzero.size and hi.shape[1]):
                    continue
                k, c = int(rng.choice(nonzero)), int(rng.integers(hi.shape[1]))
                bad = hi.copy()
                bad[k, c] = (bad[k, c] + 1) % p
                rows, cols, vals = homology._product(_cols(lo), _cols(bad), p)
                assert set(cols.tolist()) == {c}
                assert dict(zip(rows.tolist(), vals.tolist())) == \
                    {r: int(lo[r, k]) for r in np.flatnonzero(lo[:, k])}
                caught += 1
        assert caught > 100

    def test_find_is_exact_past_int64_codes(self):
        # four factors of a basis of 2^21 vectors: size**4 = 2^84, and read
        # in base 2^21 mod 2^64 the first factor keeps its parity alone, so
        # every miss below, a row of the tier with its first factor moved by
        # 2, would wrap onto the code of that row
        rng = np.random.default_rng(31)
        size = 2 ** 21
        tier = np.unique(rng.integers(size - 9, size, size=(2000, 4)), axis=0)
        tier = tier[rng.permutation(len(tier))]
        moved = tier.copy()
        moved[:, 0] -= 2 * rng.integers(5, 100, size=len(tier))
        queries = np.concatenate([tier[rng.permutation(len(tier))], moved,
                                  rng.integers(size - 9, size, size=(500, 4))])
        index = {t: k for k, t in enumerate(map(tuple, tier.tolist()))}
        got = homology._find(tier, queries, size)
        assert got.tolist() == [index.get(t, -1) for t in map(tuple, queries.tolist())]
        assert (got[len(tier):2 * len(tier)] == -1).all()


def _dense(d, nrows: int) -> np.ndarray:
    """A matrix given by compressed columns, as a dense array."""
    ptr, rows, vals = d
    out = np.zeros((nrows, len(ptr) - 1), dtype=np.int64)
    out[rows, np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))] = vals
    return out


def _plus_one(d, r: int, ncols: int, p: int):
    """d, given by compressed rows, with 1 added to its entry (r, 0) mod p."""
    dense = _dense(d, ncols).T
    dense[r, 0] = (dense[r, 0] + 1) % p
    return _cols(dense.T)


def _live_row(d, lower) -> int:
    """A row r of column 0 of d whose column of lower is nonzero, both given
    by compressed rows: 1 added at (r, 0) makes lower @ d nonzero in column
    0, within column 0's block."""
    ptr, cols, _ = d
    live = set(lower[1].tolist())
    return next(r for r in range(len(ptr) - 1) if r in live and 0 in cols[ptr[r]:ptr[r + 1]])


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
        build = homology._bar_diff
        previous = {}

        def corrupted(st, src, tgt):
            # change entry (r, 0) of d_2, for r a row of its column 0 that
            # indexes a nonzero column of d_1, the differential built just
            # before d_2 (they come in order of i).  Degree 3 comes first and
            # d_2 is empty below it, so column 0 and row r have degree 3
            d = build(st, src, tgt)
            if len(src) and src.shape[1] == 3:
                d = _plus_one(d, _live_row(d, previous["d"]), len(src), st.p)
            previous["d"] = d
            return d

        homology._bar_split_table(a, m, 2, 3)
        monkeypatch.setattr(homology, "_bar_diff", corrupted)
        with pytest.raises(AssertionError, match=r"d\^2=0 at \(i=2, j=3\)"):
            homology._bar_split_table(a, m, 2, 3)

    def test_split_bar(self, monkeypatch):
        a = polynomial_algebra(2, l=3, n_max=3)
        build = homology._bar_diff
        previous = {}

        def corrupted(st, src, tgt):
            # the differentials, every multidegree stacked, come in order of
            # i, so the one built just before d_2 is d_1, whose columns are
            # indexed by the rows of d_2; the entry changed lies in the block
            # of column 0 of d_2
            d = build(st, src, tgt)
            if len(src) and src.shape[1] == 3:
                d = _plus_one(d, _live_row(d, previous["d"]), len(src), st.p)
            previous["d"] = d
            return d

        bar_tor_algebra(a, 3, 3)
        monkeypatch.setattr(homology, "_bar_diff", corrupted)
        with pytest.raises(AssertionError, match=r"d\^2=0"):
            bar_tor_algebra(a, 3, 3)

    def test_koszul_complex(self, monkeypatch):
        lam = exterior_algebra(3, l=3, n_max=3)
        m = augmentation_module(lam, lam)
        build = homology._koszul_diff
        previous = {}

        def corrupted(lam, m, i, j_max, gamma):
            # change entry (r, 0) of d_2, column 0 being M_1 (x) Gamma_2's
            # first, of degree 3, for r the last row of d_2 that indexes a
            # nonzero column of d_1, the differential built just before d_2:
            # that row lies in the last block of tier 1, of degree 3 too
            d = build(lam, m, i, j_max, gamma)
            if i == 2:
                d = _plus_one(d, int(previous["d"][1].max()),
                              gamma[0] * sum(m.dims[1:j_max - 1]), lam.fld.l)
            previous["d"] = d
            return d

        koszul_tor_module(lam, m, 3, 3)
        monkeypatch.setattr(homology, "_koszul_diff", corrupted)
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


# The six presentation shapes (generators, relations, mode, l) of the
# `dense-tor` benchmark workload: generic non-monomial quadratic algebras,
# whose bar complex is one block per degree.
DENSE_SHAPES = ((3, 1, SymmetryMode.SUPERCOMMUTATIVE, 3), (3, 2, SymmetryMode.COMMUTATIVE, 2),
                (3, 1, SymmetryMode.COMMUTATIVE, 5), (4, 3, SymmetryMode.SUPERCOMMUTATIVE, 2),
                (5, 8, SymmetryMode.SUPERCOMMUTATIVE, 5), (4, 3, SymmetryMode.COMMUTATIVE, 3))

# sha256 of pinned_bar_tables(), recorded before the bar was built as
# per-degree arrays and ranked top-down
BAR_TABLES_SHA256 = "4fd6b24b408932b52865711ff098b5f23d1cf1b8f0135519110f3e2e9f918c42"


def pinned_bar_tables() -> list:
    """The bar's tables on 488 seeded cases: the algebra and the A_+ module
    over the exterior cover of all 64 graphs on 4 vertices at bound 5, and
    60 seeded presentations of each dense shape, at bound 5 for every 12th
    seed and 4 otherwise."""
    fld = PrimeField(2)
    lam = free_algebra(fld, SymmetryMode.SUPERCOMMUTATIVE, gen_order(4), 5)
    tables = []
    for t in all_graphs(4):
        a = graph_algebra(t, fld, n_max=5)
        tables.append(tor_algebra(a, 5, 5, engine="bar").to_json())
        tables.append(tor_module(lam, augmentation_module(a, lam), 5, 5, engine="bar").to_json())
    for k, (n, r, mode, l) in enumerate(DENSE_SHAPES):
        for seed in range(60):
            bound = 5 if seed % 12 == 0 else 4
            rng = random.Random(f"dense:{k}:{seed}")
            a = degreewise_expand(random_presentation(rng, l, mode, n, r), bound)
            tables.append(tor_algebra(a, bound, bound, engine="bar").to_json())
    return tables


def test_bar_tables_pinned():
    tables = pinned_bar_tables()
    assert len(tables) == 488
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == BAR_TABLES_SHA256


# sha256 of pinned_resolution_tables(), recorded before the resolution's
# products were taken as sparse products of action tables
RESOLUTION_TABLES_SHA256 = "7e6655ee3967324a2326c0df018650cca381049a6598667207631152667b0499"


def pinned_resolution_tables() -> list:
    """The resolution's tables on 362 seeded cases: the 360 dense-shape
    presentations of `pinned_bar_tables`, and the 9-generator global
    symplectic algebra (3 places, outside (2, 2), l = 3) of seeds 0 and 1
    at bound 4."""
    tables = []
    for k, (n, r, mode, l) in enumerate(DENSE_SHAPES):
        for seed in range(60):
            bound = 5 if seed % 12 == 0 else 4
            rng = random.Random(f"dense:{k}:{seed}")
            a = degreewise_expand(random_presentation(rng, l, mode, n, r), bound)
            tables.append(tor_algebra(a, bound, bound, engine="resolution").to_json())
    for seed in (0, 1):
        d, _ = build_global_symplectic(3, (2, 2), l=3, seed=seed)
        tables.append(tor_algebra(datum_to_algebra(d, 4), 4, 4, engine="resolution").to_json())
    return tables


def test_resolution_tables_pinned():
    tables = pinned_resolution_tables()
    assert len(tables) == 362
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == RESOLUTION_TABLES_SHA256
