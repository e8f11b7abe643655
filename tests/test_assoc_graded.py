"""Inverse-lex filtration: surviving monomials, PBW checks, gr^F as algebra."""

import itertools
import random

import numpy as np
import pytest

from koszulity.algebra import (SymmetryMode, degreewise_expand, ideal_module,
                               normal_monomials)
from koszulity.gf import PrimeField, rank
from koszulity.graded import (MonomialTruncation, _divisor_closure_failures, associated_graded,
                              check_generated_degree1,
                              check_module_generated_degree1,
                              check_quadratic_through3, module_surviving_monomials,
                              monomial_algebra, pbw_verdict, surviving_monomials)
from koszulity.monomials import GeneratorOrder, Monomial

from conftest import (divisors_degree, exterior_algebra, gen_order, mono_enumerate,
                      monomial_value, polynomial_algebra,
                      presentation_from_strings, random_presentation)


def strs(monos, order):
    return [m.to_string(order) for m in monos]


def local_minus1_algebra(relation_terms, names, l=2, n_max=4):
    """A small commutative model with designated relations over F_l."""
    p = presentation_from_strings(l, SymmetryMode.COMMUTATIVE, names,
                                  relation_terms)
    return degreewise_expand(p, n_max)


class TestSurvivingMonomials:
    def test_free_exterior_pair(self):
        a = exterior_algebra(2)
        assert strs(surviving_monomials(a, 2), a.order) == ["x0*x1"]

    def test_minus1_square_zero_model(self):
        # x0 is a distinguished square-zero generator; relations follow from
        # expanding the symbol identity with x0*x0 = 0.
        a = local_minus1_algebra(
            [[(1, "x0^2")], [(1, "x0*x1"), (1, "x1^2")]], ["x0", "x1"])
        assert strs(surviving_monomials(a, 2), a.order) == ["x0*x1"]

    def test_zero_component_empty(self):
        a = exterior_algebra(2, n_max=4)
        assert surviving_monomials(a, 3) == []

    def test_count_equals_dimension(self):
        rng = random.Random(23)
        for l, mode in ((2, SymmetryMode.COMMUTATIVE),
                        (3, SymmetryMode.SUPERCOMMUTATIVE)):
            a = degreewise_expand(random_presentation(rng, l, mode, 3, 2), 4)
            for n in range(5):
                assert len(surviving_monomials(a, n)) == a.dims[n]


class TestAssociatedGraded:
    def test_free_exterior_all_squarefree(self):
        a = exterior_algebra(3, n_max=3)
        g = associated_graded(a)
        for n in range(4):
            assert g.surviving[n] == mono_enumerate(a.order, n, True)

    def test_polynomial_all_powers(self):
        a = polynomial_algebra(1, n_max=4)
        g = associated_graded(a)
        for n in range(5):
            assert g.surviving[n] == [Monomial.from_dict({0: n})]

    def test_minus1_nonzero_square_model(self):
        # l=2, no sqrt(-1), nonzero {-1,-1}: with the generator order
        # x0, x1 (the class of -1), x2, ... the sole degree-2 survivor is x0*x2
        from koszulity.models import LocalCase, local_presentation
        a = degreewise_expand(
            local_presentation(LocalCase("two_nonzero", 3, 2)), 4)
        g = associated_graded(a)
        assert strs(g.surviving[2], a.order) == ["x0*x2"]

    def test_divisor_closure(self):
        rng = random.Random(5)
        for _ in range(5):
            a = degreewise_expand(
                random_presentation(rng, 2, SymmetryMode.COMMUTATIVE, 3, 2), 4)
            g = associated_graded(a)
            for n in range(2, 5):
                surv = set(g.surviving[n - 1])
                for m in g.surviving[n]:
                    assert all(d in surv for d in divisors_degree(m, n - 1))

    def test_order_change_preserves_cardinalities(self):
        base = presentation_from_strings(
            3, SymmetryMode.SUPERCOMMUTATIVE, ["x0", "x1", "x2"],
            [[(1, "x0*x1"), (2, "x1*x2")]])
        flipped = presentation_from_strings(
            3, SymmetryMode.SUPERCOMMUTATIVE, ["x2", "x1", "x0"],
            [[(1, "x0*x1"), (2, "x1*x2")]])
        ga = associated_graded(degreewise_expand(base, 4))
        gb = associated_graded(degreewise_expand(flipped, 4))
        assert [len(s) for s in ga.surviving] == [len(s) for s in gb.surviving]


class TestDegree1Generation:
    def test_free_exterior(self):
        g = associated_graded(exterior_algebra(3, n_max=3))
        ok, witnesses = check_generated_degree1(g)
        assert ok and witnesses == []

    def test_stripped_set_fails(self):
        order = gen_order(2)
        bad = MonomialTruncation(
            order, SymmetryMode.SUPERCOMMUTATIVE, 2,
            [[Monomial.unit()], [],
             [Monomial.parse("x0*x1", order)]])
        ok, witnesses = check_generated_degree1(bad)
        assert not ok
        assert strs(witnesses, order) == ["x0*x1"]


class TestQuadraticThrough3:
    def test_triangle_witness(self):
        order = gen_order(3)
        tri = MonomialTruncation(
            order, SymmetryMode.SUPERCOMMUTATIVE, 3,
            [[Monomial.unit()],
             [Monomial.generator(i) for i in range(3)],
             mono_enumerate(order, 2, True), []])
        ok, witnesses = check_quadratic_through3(tri)
        assert not ok
        assert strs(witnesses, order) == ["x0*x1*x2"]

    def test_free_exterior(self):
        g = associated_graded(exterior_algebra(3, n_max=3))
        ok, _ = check_quadratic_through3(g)
        assert ok


class TestPBWVerdict:
    def test_free_exterior_koszul(self):
        v = pbw_verdict(exterior_algebra(4, n_max=4))
        assert v.koszul and v.generated_in_degree_1 and v.quadratic_through_3
        assert v.failures == []

    def test_certificate_lists_survivors(self):
        a = exterior_algebra(2, n_max=3)
        v = pbw_verdict(a)
        assert strs(v.certificate[2], a.order) == ["x0*x1"]

    def test_koszul_conjunction(self):
        rng = random.Random(31)
        for _ in range(8):
            a = degreewise_expand(
                random_presentation(rng, 2, SymmetryMode.SUPERCOMMUTATIVE, 4, 2), 4)
            v = pbw_verdict(a)
            assert v.koszul == (v.generated_in_degree_1 and v.quadratic_through_3)


class TestMonomialAlgebra:
    def test_reproduces_dims(self):
        rng = random.Random(13)
        a = degreewise_expand(
            random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE, 3, 1), 4)
        gr = monomial_algebra(associated_graded(a), a.fld)
        assert gr.dims == a.dims

    def test_gr_is_monomial(self):
        a = exterior_algebra(3, n_max=3)
        gr = monomial_algebra(associated_graded(a), a.fld)
        # product of two basis monomials is again +/- a basis monomial or zero
        for m in mono_enumerate(a.order, 2, True):
            v = monomial_value(gr, m)
            assert (v != 0).sum() <= 1


class TestModuleFiltration:
    def test_ideal_survivors_free_exterior(self):
        a = exterior_algebra(3, n_max=3)
        m = ideal_module(a, np.eye(3, dtype=np.int64)[0])
        surv1 = module_surviving_monomials(a, m.subspace_bases, 1)
        assert strs(surv1, a.order) == ["x0"]
        surv2 = module_surviving_monomials(a, m.subspace_bases, 2)
        assert strs(surv2, a.order) == ["x0*x1", "x0*x2"]

    def test_ideal_generated_degree1(self):
        a = exterior_algebra(3, n_max=3)
        m = ideal_module(a, np.eye(3, dtype=np.int64)[0])
        ok, witnesses = check_module_generated_degree1(a, m.subspace_bases)
        assert ok and witnesses == []

    def test_survivors_follow_the_definition(self):
        # m survives where dim(M cap F_m) = dim M + dim F_m - rank [M; F_m]
        # grows, F_m spanned by the values of all monomials <= m; and each
        # action matrix writes the generator's image in the basis of M_(n+1)
        rng = random.Random(41)
        for case in range(32):
            l = (2, 3, 5, 7)[case % 4]
            mode = (SymmetryMode.COMMUTATIVE, SymmetryMode.SUPERCOMMUTATIVE)[case // 4 % 2]
            ngen = rng.randint(2, 5)
            a = degreewise_expand(random_presentation(rng, l, mode, ngen, rng.randint(0, 3)), 4)
            c = np.zeros(ngen, dtype=np.int64)
            while not c.any():
                c = np.array([rng.randrange(l) for _ in range(ngen)], dtype=np.int64)
            m = ideal_module(a, c)
            bases = m.subspace_bases
            for n in range(1, a.n_max + 1):
                expected, values, prev = [], [], 0
                for mono in normal_monomials(a.order, n, a.mode):
                    values.append(monomial_value(a, mono))
                    filt = np.array(values).reshape(len(values), a.dims[n])
                    cap = bases[n].shape[0] + rank(filt, l) \
                        - rank(np.vstack([bases[n], filt]), l)
                    if cap > prev:
                        expected.append(mono)
                        prev = cap
                assert module_surviving_monomials(a, bases, n) == expected, (case, n)
            for n in range(1, a.n_max):
                for g in range(ngen):
                    assert not ((bases[n + 1].T @ m.action[n][g]
                                 - a.gen_action[n][g] @ bases[n].T) % l).any(), (case, n, g)

    def test_counts_match_dims(self):
        a = exterior_algebra(4, l=3, n_max=4)
        c = np.array([1, 2, 0, 1])
        m = ideal_module(a, c)
        for n in range(1, 5):
            assert len(module_surviving_monomials(a, m.subspace_bases, n)) \
                == m.dims[n]


def reference_pbw_checks(g):
    """The divisor closure failures, degree-1 witnesses and
    quadratic-through-3 witnesses of a truncation by the object route: the
    divisors of each monomial, looked up in sets of survivors."""
    sets = [set(ms) for ms in g.surviving]

    def survives(m):
        return m.degree <= g.n_max and m in sets[m.degree]

    closure = [m for n in range(2, g.n_max + 1) for m in g.surviving[n]
               if any(not survives(d) for d in divisors_degree(m, n - 1))]
    degree1 = [m for n in range(2, g.n_max + 1) for m in g.surviving[n]
               if sets[n - 1].isdisjoint(divisors_degree(m, n - 1))]
    quad3 = [] if g.n_max < 3 else [
        m for m in mono_enumerate(g.order, 3, g.mode is SymmetryMode.SUPERCOMMUTATIVE)
        if m not in sets[3] and all(survives(d) for d in divisors_degree(m, 2))]
    return closure, degree1, quad3


def test_pbw_checks_match_reference():
    # 224 seeded presentations, and random subsets of their survivors, which
    # break divisor closure and degree-1 generation in many places
    cases = 0
    for mode in SymmetryMode:
        for l in (2, 3, 5, 7):
            for seed in range(28):
                rng = random.Random(f"pbw:{mode.value}:{l}:{seed}")
                pres = random_presentation(rng, l, mode, rng.randint(2, 5), rng.randint(1, 5))
                a = degreewise_expand(pres, rng.randint(3, 4))
                cases += 1
                g = associated_graded(a)
                closure, degree1, quad3 = reference_pbw_checks(g)
                assert closure == []
                got = pbw_verdict(a)
                assert got.certificate == g.surviving
                assert (got.generated_in_degree_1, got.quadratic_through_3, got.koszul) == \
                    (not degree1, not quad3, not degree1 and not quad3)
                assert got.failures == (degree1[:16] + quad3[:16])[:16]
                thin = MonomialTruncation(g.order, g.mode, g.n_max,
                                          [[m for m in ms if rng.random() < 0.7]
                                           for ms in g.surviving])
                closure, degree1, quad3 = reference_pbw_checks(thin)
                assert _divisor_closure_failures(thin) == closure
                assert check_generated_degree1(thin) == (not degree1, degree1[:16])
                assert check_quadratic_through3(thin) == (not quad3, quad3[:16])
    assert cases >= 200
