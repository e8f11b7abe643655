"""Commutative monomials and the degreewise inverse-lex order."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koszulity.monomials import (GeneratorOrder, Monomial, exponent_rows, invlex_words,
                                 monomial_count, monomial_rows, mono_mul, row_monomials,
                                 times_generators)

from conftest import (EQ, GT, LT, divisors_degree, gen_order, invlex_compare,
                      mono_enumerate)


def mono(*ranks) -> Monomial:
    d = {}
    for r in ranks:
        d[r] = d.get(r, 0) + 1
    return Monomial.from_dict(d)


class TestGeneratorOrder:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GeneratorOrder(("x", "x"))

    def test_rank_lookup(self):
        order = gen_order(3)
        assert order.rank("x2") == 2
        assert len(order) == 3


class TestMonomial:
    def test_zero_exponents_rejected(self):
        with pytest.raises(ValueError):
            Monomial(((0, 0),))

    def test_unit(self):
        assert Monomial.unit().degree == 0

    def test_degree_sums_exponents(self):
        assert mono(0, 0, 3).degree == 3

    def test_squarefree(self):
        assert mono(0, 1).is_squarefree()
        assert not mono(0, 0).is_squarefree()

    def test_string_round_trip(self):
        order = gen_order(4)
        for m in (Monomial.unit(), mono(0), mono(0, 0, 3), mono(1, 2)):
            assert Monomial.parse(m.to_string(order), order) == m

    def test_parse_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            Monomial.parse("y0", gen_order(2))


class TestMul:
    def test_square(self):
        assert mono_mul(mono(0), mono(0)) == mono(0, 0)

    def test_distinct(self):
        assert mono_mul(mono(0), mono(1)) == mono(0, 1)

    def test_accumulate(self):
        assert mono_mul(mono(0, 1), mono(1)) == mono(0, 1, 1)

    def test_degree_adds(self):
        a, b = mono(0, 2), mono(1, 1, 3)
        assert mono_mul(a, b).degree == a.degree + b.degree


class TestInvlexCompare:
    def test_frozen_example(self):
        # with x0 < x1 < x2 < x3: x0*x3 < x1*x2
        assert invlex_compare(mono(0, 3), mono(1, 2)) == LT

    def test_square_before_mixed(self):
        assert invlex_compare(mono(0, 0), mono(0, 1)) == LT

    def test_reflexive(self):
        assert invlex_compare(mono(0, 2), mono(0, 2)) == EQ

    def test_antisymmetric(self):
        assert invlex_compare(mono(1, 2), mono(0, 3)) == GT

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            invlex_compare(mono(0), mono(0, 1))


class TestEnumerate:
    def test_squarefree_three_gens(self):
        order = gen_order(3)
        got = [m.to_string(order) for m in mono_enumerate(order, 2, True)]
        assert got == ["x0*x1", "x0*x2", "x1*x2"]

    def test_count_with_repetition(self):
        assert len(mono_enumerate(gen_order(2), 2, False)) == 3

    def test_degree_zero(self):
        assert mono_enumerate(gen_order(3), 0, True) == [Monomial.unit()]

    @pytest.mark.parametrize("n,d", [(3, 3), (4, 2), (5, 4)])
    def test_counts_match_binomials(self, n, d):
        assert len(mono_enumerate(gen_order(n), d, True)) == math.comb(n, d)
        assert len(mono_enumerate(gen_order(n), d, False)) == math.comb(n + d - 1, d)

    @pytest.mark.parametrize("squarefree", [True, False])
    def test_sorted_ascending(self, squarefree):
        monos = mono_enumerate(gen_order(4), 3, squarefree)
        for a, b in zip(monos, monos[1:]):
            assert invlex_compare(a, b) == LT


class TestDivisors:
    def test_squarefree_pair(self):
        assert divisors_degree(mono(0, 1), 1) == [mono(0), mono(1)]

    def test_square(self):
        assert divisors_degree(mono(0, 0), 1) == [mono(0)]

    def test_full_degree(self):
        m = mono(0, 1, 1)
        assert divisors_degree(m, m.degree) == [m]

    def test_divides_consistent(self):
        m = mono(0, 1, 2, 2)
        for d in range(m.degree + 1):
            for q in divisors_degree(m, d):
                assert all(dict(m.exps).get(r, 0) >= e for r, e in q.exps)


def test_multiplicativity_exhaustive():
    # strict compatibility of invlex with multiplication, <=4 generators
    order = gen_order(4)
    for deg in (1, 2):
        monos = mono_enumerate(order, deg, False)
        factors = mono_enumerate(order, 2, False)
        for a, b in itertools.combinations(monos, 2):
            cmp = invlex_compare(a, b)
            for c in factors:
                assert invlex_compare(mono_mul(c, a), mono_mul(c, b)) == cmp


def test_total_order_transitive():
    monos = mono_enumerate(gen_order(4), 3, False)
    for i, j in itertools.combinations(range(len(monos)), 2):
        assert invlex_compare(monos[i], monos[j]) == LT
        assert invlex_compare(monos[j], monos[i]) == GT


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=6),
       st.lists(st.integers(0, 3), min_size=0, max_size=6))
def test_mul_commutes(xs, ys):
    assert mono_mul(mono(*xs), mono(*ys)) == mono_mul(mono(*ys), mono(*xs))


@pytest.mark.parametrize("squarefree", [True, False])
def test_exponent_rows_match_mono_enumerate(squarefree):
    # the array enumerator against the object route, past the generator
    # count in super mode (no monomials there)
    for num in range(8):
        for degree in range(7):
            want = mono_enumerate(gen_order(num), degree, squarefree)
            rows = exponent_rows(num, degree, squarefree)
            assert rows.shape == (len(want), num) == (monomial_count(num, degree, squarefree), num)
            assert row_monomials(rows) == want
            assert (monomial_rows(want, num) == rows).all()
            assert [tuple(w) for w in invlex_words(num, degree, squarefree).tolist()] == \
                [m.word() for m in want]


@pytest.mark.parametrize("squarefree", [True, False])
def test_times_generators_match_mono_mul(squarefree):
    # rows of mixed degrees in one call, each placed within its own degree
    for num in range(1, 7):
        degrees = range(6)
        lists = [mono_enumerate(gen_order(num), d, squarefree) for d in range(7)]
        rows = np.concatenate([exponent_rows(num, d, squarefree) for d in degrees])
        up, below, index = times_generators(rows, squarefree)
        monos = [m for d in degrees for m in lists[d]]
        assert index.tolist() == [lists[m.degree].index(m) for m in monos]
        for k, m in enumerate(monos):
            for g in range(num):
                prod = mono_mul(Monomial.generator(g), m)
                if squarefree and not prod.is_squarefree():
                    assert up[k, g] == -1
                else:
                    assert up[k, g] == lists[prod.degree].index(prod)
                assert below[k, g] == sum(e for r, e in m.exps if r < g)


@pytest.mark.parametrize("term", ["x^2^3", "x^a", "x^", "x**y", "*y", "x^^2"])
def test_parse_names_the_bad_factor(term):
    with pytest.raises(ValueError, match="is not a generator or generator\\^exponent"):
        Monomial.parse(term, GeneratorOrder(("x", "y")))
