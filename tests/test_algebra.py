"""Quadratic presentations, degreewise expansion, and module truncations."""

import hashlib
import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koszulity.algebra import (QuadraticPresentation, SymmetryMode,
                               augmentation_module, degreewise_expand,
                               free_algebra, ideal_module,
                               normal_monomials, presentation_from_json,
                               presentation_to_json)
from koszulity import gf
from koszulity.gf import PrimeField, RowSpan
from koszulity.monomials import Monomial, row_monomials
from koszulity.graphs import all_graphs, graph_algebra
from koszulity.models import (MINIMAL_DIMS, LocalCase, build_annihilator,
                              build_global_general, build_global_symplectic,
                              build_local, build_noroot, datum_to_algebra)

from conftest import (exterior_algebra, free_product, gen_order, mono_enumerate,
                      monomial_value, polynomial_algebra, presentation_from_strings,
                      random_presentation, run_capped)


class DenseComponent(NamedTuple):
    """The dense reference for `QuadraticPresentation.component`."""

    monomials: list[Monomial]  # all normal monomials of the degree
    basis: list[int]           # indices of the standard monomials
    projection: np.ndarray     # shape (len(monomials), dim): each monomial in A_n

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def basis_monomials(self) -> list[Monomial]:
        return [self.monomials[i] for i in self.basis]


def relation_span(pres, n):
    """Dense Macaulay matrix of I_n: a row m * r over the normal monomials for
    each monomial m of degree n - 2 and relation r, zero rows dropped."""
    monos = normal_monomials(pres.order, n, pres.mode)
    idx = {m: i for i, m in enumerate(monos)}
    rows = []
    if n >= 2:
        for m in normal_monomials(pres.order, n - 2, pres.mode):
            for rel in pres.relations:
                row = np.zeros(len(monos), dtype=np.int64)
                for j in np.flatnonzero(rel):
                    sign, prod = free_product(m, pres.quadratic_monomials[j], pres.mode, pres.fld.l)
                    if prod is not None:
                        row[idx[prod]] = (row[idx[prod]] + sign * rel[j]) % pres.fld.l
                if row.any():
                    rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(monos))


def echelon_descending(rows, l):
    """Dense rref with pivots on the greatest columns: rref of the reversed columns."""
    return gf.rref(rows[:, ::-1], l)[0][:, ::-1] if len(rows) else rows


def dense_component(pres, n) -> DenseComponent:
    """Basis of A_n and the projection of every normal monomial, from the
    dense elimination of the relation span.  Each echelon row is reduced
    with its pivot on the invlex-largest monomial, so a pivot monomial is
    minus the rest of its row, in basis coordinates."""
    l, monos = pres.fld.l, normal_monomials(pres.order, n, pres.mode)
    echelon = echelon_descending(relation_span(pres, n), l)
    pivots = [int(np.flatnonzero(row)[-1]) for row in echelon]
    basis = [i for i in range(len(monos)) if i not in pivots]
    proj = np.zeros((len(monos), len(basis)), dtype=np.int64)
    proj[basis, range(len(basis))] = 1
    proj[pivots] = (-echelon[:, basis]) % l
    return DenseComponent(monos, basis, proj)


def component_dim(pres, n) -> int:
    """dim A_n by the dense reference, after checking that the sparse
    component has the same standard monomials."""
    ref = dense_component(pres, n)
    assert pres.components(n)[n][1] == ref.basis
    return ref.dim


def free_presentation(n, l, mode):
    return QuadraticPresentation.from_combos(
        PrimeField(l), mode, gen_order(n), [])


class TestPresentation:
    def test_relations_reduced(self):
        # two proportional relations collapse to one stored relation
        p = presentation_from_strings(
            3, SymmetryMode.SUPERCOMMUTATIVE, ["x0", "x1"],
            [[(1, "x0*x1")], [(2, "x0*x1")]])
        assert len(p.relations) == 1

    def test_non_normal_monomial_rejected(self):
        with pytest.raises(ValueError):
            presentation_from_strings(
                2, SymmetryMode.SUPERCOMMUTATIVE, ["x0", "x1"],
                [[(1, "x0^2")]])

    def test_json_round_trip(self):
        p = presentation_from_strings(
            5, SymmetryMode.COMMUTATIVE, ["x0", "x1", "x2"],
            [[(1, "x0*x1"), (4, "x2^2")], [(2, "x1*x2")]])
        q = presentation_from_json(presentation_to_json(p))
        assert q.fld == p.fld and q.mode is p.mode and q.order == p.order
        assert (q.relations == p.relations).all()

    def test_json_schema_fields(self):
        obj = presentation_to_json(
            free_presentation(2, 2, SymmetryMode.COMMUTATIVE))
        assert set(obj) == {"l", "mode", "generators", "relations"}
        assert obj["mode"] == "comm"
        assert obj["generators"] == ["x0", "x1"]


class TestComponent:
    def test_free_exterior_dim2(self):
        p = free_presentation(3, 2, SymmetryMode.SUPERCOMMUTATIVE)
        assert component_dim(p, 2) == 3

    def test_milnor_two_generators(self):
        # x0 plays {-1}; the relation x0*x1 + x1^2 = 0 comes from {x,-x}=0
        p = presentation_from_strings(
            2, SymmetryMode.COMMUTATIVE, ["x0", "x1"],
            [[(1, "x0*x1"), (1, "x1^2")], [(1, "x0^2")]])
        # degree-2 normal monomials: x0^2, x0*x1, x1^2; two independent relations
        assert component_dim(p, 2) == 1

    def test_polynomial_one_generator(self):
        p = free_presentation(1, 2, SymmetryMode.COMMUTATIVE)
        assert component_dim(p, 5) == 1

    def test_normal_forms_match_dense_reference(self):
        # the sparse normal forms are the rows of the dense projection, and
        # the stored relations are their own dense reduced echelon form
        for pres in product_core_cases():
            l = pres.fld.l
            assert (echelon_descending(pres.relations, l) == pres.relations).all()
            for n, (rows, basis, forms) in enumerate(pres.components(4)):
                ref = dense_component(pres, n)
                assert (row_monomials(rows), basis) == (ref.monomials, ref.basis)
                proj = np.zeros_like(ref.projection)
                proj[basis, range(len(basis))] = 1
                for i, form in forms.items():
                    for j, y in form.items():
                        proj[i, basis.index(j)] = y
                assert (proj == ref.projection).all(), (pres.relations, n)


class TestDegreewiseExpand:
    def test_exterior_two(self):
        a = exterior_algebra(2, n_max=3)
        assert a.dims == [1, 2, 1, 0]

    def test_symmetric_one(self):
        a = polynomial_algebra(1, n_max=4)
        assert a.dims == [1, 1, 1, 1, 1]

    def test_exterior_four(self):
        a = exterior_algebra(4, n_max=4)
        assert a.dims == [1, 4, 6, 4, 1]

    def test_dims_match_component(self):
        rng = random.Random(7)
        for l, mode in ((2, SymmetryMode.COMMUTATIVE),
                        (3, SymmetryMode.SUPERCOMMUTATIVE),
                        (5, SymmetryMode.SUPERCOMMUTATIVE)):
            p = random_presentation(rng, l, mode, 3, 2)
            a = degreewise_expand(p, 4)
            for n in range(5):
                assert a.dims[n] == dense_component(p, n).dim

    def test_dims_match_bruteforce_products(self):
        # independent check: span of all products of generator sequences
        rng = random.Random(11)
        p = random_presentation(rng, 3, SymmetryMode.COMMUTATIVE, 3, 2)
        a = degreewise_expand(p, 4)
        for n in range(1, 5):
            span = RowSpan(a.dims[n], 3)
            for m in mono_enumerate(a.order, n, False):
                span.add(monomial_value(a, m))
            assert span.dim == a.dims[n]


class TestElementProduct:
    def test_unit(self):
        a = exterior_algebra(3)
        u = np.array([1, 0, 1])
        one = np.array([1])
        assert (a.element_product(one, 0, u, 1) == u).all()

    def test_anticommute(self, f3):
        a = exterior_algebra(3, l=3)
        x = np.eye(3, dtype=np.int64)
        xy = a.element_product(x[0], 1, x[1], 1)
        yx = a.element_product(x[1], 1, x[0], 1)
        assert ((xy + yx) % 3 == 0).all()

    def test_odd_squares_vanish(self):
        a = exterior_algebra(4, l=5)
        for g in range(4):
            v = np.eye(4, dtype=np.int64)[g]
            assert not a.element_product(v, 1, v, 1).any()

    def test_bilinear(self):
        a = exterior_algebra(3, l=5)
        u, v, w = np.array([1, 2, 0]), np.array([0, 1, 3]), np.array([4, 0, 1])
        lhs = a.element_product((u + v) % 5, 1, w, 1)
        rhs = (a.element_product(u, 1, w, 1) + a.element_product(v, 1, w, 1)) % 5
        assert (lhs % 5 == rhs).all()

    def test_associative(self):
        rng = random.Random(3)
        p = random_presentation(rng, 3, SymmetryMode.SUPERCOMMUTATIVE, 3, 1)
        a = degreewise_expand(p, 3)
        for _ in range(10):
            u = np.array([rng.randrange(3) for _ in range(a.dims[1])])
            v = np.array([rng.randrange(3) for _ in range(a.dims[1])])
            w = np.array([rng.randrange(3) for _ in range(a.dims[1])])
            uv_w = a.element_product(a.element_product(u, 1, v, 1), 2, w, 1)
            u_vw = a.element_product(u, 1, a.element_product(v, 1, w, 1), 2)
            assert (uv_w % 3 == u_vw % 3).all()


def product_core_cases():
    """60 reproducible random presentations: both modes, l in {2, 3, 5}."""
    rng = random.Random(2024)
    cases = []
    for l in (2, 3, 5):
        for mode in SymmetryMode:
            for _ in range(10):
                cases.append(random_presentation(
                    rng, l, mode, rng.randint(2, 4), rng.randint(0, 3)))
    return cases


class TestProductCore:
    """The product tables against the free-product normal form."""

    N_MAX = 4

    @pytest.fixture(scope="class")
    def expanded(self):
        return [(p, degreewise_expand(p, self.N_MAX)) for p in product_core_cases()]

    def test_mult_matrix_matches_normal_form(self, expanded):
        for pres, a in expanded:
            l = pres.fld.l
            comps = [dense_component(pres, n) for n in range(self.N_MAX + 1)]
            for d in range(self.N_MAX + 1):
                for e in range(self.N_MAX + 1 - d):
                    hi = comps[d + e]
                    idx = {m: k for k, m in enumerate(hi.monomials)}
                    want = np.zeros((a.dims[d + e], a.dims[d] * a.dims[e]), dtype=np.int64)
                    for i, x in enumerate(comps[d].basis_monomials):
                        for j, y in enumerate(comps[e].basis_monomials):
                            sign, prod = free_product(x, y, pres.mode, l)
                            if prod is not None:
                                want[:, i * a.dims[e] + j] = \
                                    (sign * hi.projection[idx[prod]]) % l
                    assert (a.mult_matrix(d, e) == want).all(), (pres.relations, d, e)

    def test_word_coordinates_invert_values(self, expanded):
        for pres, a in expanded:
            l = pres.fld.l
            for n in range(self.N_MAX + 1):
                words, coords = a.word_basis(n)
                values = np.array([monomial_value(a, w) for w in words],
                                  dtype=np.int64).reshape(len(words), a.dims[n])
                assert ((coords @ values) % l == np.eye(a.dims[n], dtype=np.int64)).all()
                # the survivors are the expansion's standard monomials, and
                # their values are the unit vectors: a monomial leads an
                # element of I_n exactly when its value lies in the span of
                # the values of the smaller monomials
                assert words == a.basis_monomials[n]
                assert (coords == np.eye(a.dims[n], dtype=np.int64)).all()

    def test_augmentation_action_is_multiplication(self, expanded):
        for _, a in expanded:
            m = augmentation_module(a, a)
            for n in range(1, self.N_MAX + 1):
                for d in range(self.N_MAX + 1 - n):
                    assert (m.action_matrix(d, n) == a.mult_matrix(d, n)).all()

    def test_augmentation_action_reads_the_product_only_over_a(self, expanded):
        # over A the action on A_+ is A's own product array, built once; over
        # the free cover it is built apart, and is A's product after the
        # projection of each cover basis vector to A_d
        for _, a in expanded:
            lam = free_algebra(a.fld, a.mode, a.order, self.N_MAX)
            over_a, over_lam = augmentation_module(a, a), augmentation_module(a, lam)
            l = a.fld.l
            for n in range(1, self.N_MAX + 1):
                for d in range(1, self.N_MAX + 1 - n):
                    assert over_a.action_matrix(d, n) is a.mult_matrix(d, n)
                    got = over_lam.action_matrix(d, n)
                    assert got is not a.mult_matrix(d, n) and got is not lam.mult_matrix(d, n)
                    words, coords = lam.word_basis(d)
                    proj = (coords @ np.array([monomial_value(a, w) for w in words],
                                              dtype=np.int64).reshape(len(words), a.dims[d])) % l
                    mult = a.mult_matrix(d, n).reshape(a.dims[n + d], a.dims[d], a.dims[n])
                    want = np.einsum("rue,iu->rie", mult, proj) % l
                    assert (got == want.reshape(got.shape)).all()


class TestAugmentationModule:
    def test_self_cover(self):
        a = exterior_algebra(3, n_max=4)
        m = augmentation_module(a, a)
        assert [m.dims[n] for n in range(1, 5)] == [3, 3, 1, 0]

    def test_truncated_algebra(self):
        # quotient killing all of degree >= 3
        p = presentation_from_strings(
            2, SymmetryMode.SUPERCOMMUTATIVE, ["x0", "x1", "x2"], [])
        b = degreewise_expand(p, 4)
        q = presentation_from_strings(
            2, SymmetryMode.SUPERCOMMUTATIVE, ["x0", "x1", "x2"],
            [[(1, "x0*x1")], [(1, "x0*x2")], [(1, "x1*x2")]])
        a = degreewise_expand(q, 4)
        m = augmentation_module(a, b)
        assert [m.dims[n] for n in range(1, 5)] == [3, 0, 0, 0]

    def test_generator_lists_must_match(self):
        a = exterior_algebra(2)
        b = exterior_algebra(3)
        with pytest.raises(ValueError):
            augmentation_module(a, b)


class TestIdealModule:
    def test_exterior_generator_ideal(self):
        a = exterior_algebra(2, n_max=3)
        m = ideal_module(a, np.array([1, 0]))
        assert [m.dims[n] for n in range(1, 4)] == [1, 1, 0]

    def test_nonzerodivisor_shift(self):
        a = polynomial_algebra(2, l=3, n_max=4)
        m = ideal_module(a, np.array([1, 0]))
        for n in range(1, 5):
            assert m.dims[n] == a.dims[n - 1]

    def test_zero_rejected(self):
        a = exterior_algebra(2)
        with pytest.raises(ValueError):
            ideal_module(a, np.zeros(2, dtype=np.int64))

    def test_annihilated_generator(self):
        # c with c*A_1 = 0: exterior on one generator
        a = exterior_algebra(1, n_max=3)
        m = ideal_module(a, np.array([1]))
        assert [m.dims[n] for n in range(1, 4)] == [1, 0, 0]


def test_symmetry_audit_super():
    rng = random.Random(19)
    for l in (2, 3, 5):
        p = random_presentation(rng, l, SymmetryMode.SUPERCOMMUTATIVE, 4, 2)
        a = degreewise_expand(p, 2)
        eye = np.eye(4, dtype=np.int64)
        for i in range(4):
            assert not (a.element_product(eye[i], 1, eye[i], 1) % l).any()
            for j in range(i + 1, 4):
                s = a.element_product(eye[i], 1, eye[j], 1) \
                    + a.element_product(eye[j], 1, eye[i], 1)
                assert not (s % l).any()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
       st.sampled_from(list(SymmetryMode)), st.integers(2, 4), st.integers(0, 3))
def test_expand_dims_monotone_under_relations(seed, l, mode, n_gens, n_rels):
    """Adding relations never increases any graded dimension."""
    rng = random.Random(seed)
    p = random_presentation(rng, l, mode, n_gens, n_rels)
    free = degreewise_expand(free_presentation(n_gens, l, mode), 4)
    a = degreewise_expand(p, 4)
    assert all(a.dims[n] <= free.dims[n] for n in range(5))


# sha256 of pinned_expansions(), recorded before the expansion moved from a
# dense Macaulay matrix to the sparse elimination
EXPANSION_SHA256 = "427daffab1289d286b8ef6f52f9ccb41e75097842c231ea50e22621b46e8f2f7"


def pinned_presentations():
    """480 seeded presentations: both modes, l in {2, 3, 5, 7} and n_max
    2..5, 15 seeds each, with 2 to 5 generators (2 to 4 at n_max 5), 1 to
    nq / 2 + 1 relations for nq normal quadratics, and about half of the
    coefficients zero."""
    for mode in SymmetryMode:
        for l in (2, 3, 5, 7):
            for n_max in range(2, 6):
                for seed in range(15):
                    rng = random.Random(f"expand:{mode.value}:{l}:{n_max}:{seed}")
                    order = gen_order(rng.randint(2, 4 if n_max == 5 else 5))
                    nq = len(normal_monomials(order, 2, mode))
                    rows = [[rng.randrange(1, l) if rng.random() < 0.5 else 0 for _ in range(nq)]
                            for _ in range(rng.randint(1, nq // 2 + 1))]
                    rel = np.array(rows, dtype=np.int64).reshape(len(rows), nq)
                    yield QuadraticPresentation(PrimeField(l), mode, order, rel), n_max


def pinned_expansions() -> str:
    """One sha256 over the dims, the reduced relations, every generator
    action matrix and the basis monomials of each pinned presentation."""
    h = hashlib.sha256()
    for pres, n_max in pinned_presentations():
        a = degreewise_expand(pres, n_max)
        names = [[m.to_string(a.order) for m in ms] for ms in a.basis_monomials]
        h.update(json.dumps([a.dims, pres.relations.shape, names]).encode())
        h.update(pres.relations.astype(np.int64).tobytes())
        for mats in a.gen_action:
            for mat in mats:
                h.update(mat.astype(np.int64).tobytes())
    return h.hexdigest()


def test_expansion_pinned():
    assert sum(1 for _ in pinned_presentations()) == 480
    assert pinned_expansions() == EXPANSION_SHA256


def test_expansion_fits_in_one_gib():
    # local symplectic D = 20 (h_A = 1 + 20t + t^2) through degree 4: the
    # nonzero rows m*r of I_4 over its squarefree monomials make a dense
    # 29214 x 4845 matrix, 1.05 GiB in int64, before an elimination copies it
    code = ("from koszulity.algebra import degreewise_expand\n"
            "from koszulity.models import LocalCase, local_presentation\n"
            "pres = local_presentation(LocalCase('symplectic', 20, 3))\n"
            "print(degreewise_expand(pres, 4).dims)\n")
    exit_code, out, err, _ = run_capped("-c", code, cap=1 << 30)
    assert exit_code == 0, err[-400:]
    assert out.split("\n")[0] == "[1, 20, 1, 0, 0]"


@pytest.mark.parametrize("mode", list(SymmetryMode), ids=lambda m: m.value)
@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_free_algebra_matches_empty_presentation(mode, l):
    # the route free_algebra took before the shared monomial-basis builder:
    # the expansion of a presentation without relations, flagged monomial
    for n in range(1, 7):
        for n_max in range(2, 6):
            fld, order = PrimeField(l), gen_order(n)
            want = degreewise_expand(QuadraticPresentation(fld, mode, order), n_max)
            want.monomial = True
            got = free_algebra(fld, mode, order, n_max)
            assert got.dims == want.dims and got.monomial
            assert got.basis_monomials == want.basis_monomials
            assert [[m.tobytes() for m in mats] for mats in got.gen_action] == \
                [[m.tobytes() for m in mats] for mats in want.gen_action]


def greedy_word_basis(a, n):
    """The survivor scan before it became one rref: each normal monomial in
    invlex order is kept when its value grows an incremental `RowSpan`."""
    span = RowSpan(a.dims[n], a.fld.l)
    words, vals = [], []
    for mono in normal_monomials(a.order, n, a.mode):
        if span.dim == a.dims[n]:
            break
        v = monomial_value(a, mono)
        if span.add(v):
            words.append(mono)
            vals.append(v)
    values = np.array(vals, dtype=np.int64).reshape(len(vals), a.dims[n])
    return words, gf.inverse(values, a.fld.l)


def symbol_algebras():
    """Algebras with no presentation, whose word coordinates are not all the
    identity: every global kind at seeds 0-2 and every local case."""
    builds = [
        (build_global_symplectic, (2, (1, 1)), dict(l=3)),
        (build_global_symplectic, (3, (2, 1)), dict(l=5)),
        (build_global_symplectic, (2, (1, 1)), dict(l=2, sqrt_minus1=True)),
        (build_global_general, (3, 2, (2, 1)), {}),
        (build_annihilator, (4, 1, 2, (1, 1)), {}),
        (build_noroot, (2, 2), dict(l=3)),
        (build_noroot, (3, 1), dict(l=5, variant=2, num_c_places=2)),
    ]
    for build, args, kwargs in builds:
        for seed in range(3):
            yield datum_to_algebra(build(*args, seed=seed, **kwargs)[0], 4)
    for case, dims in MINIMAL_DIMS.items():
        for dim in dims:
            for l in ((2,) if case.startswith("two") else (3, 5)):
                yield build_local(LocalCase(case, dim, l), 4)[0]
    yield build_local(LocalCase("symplectic", 4, 2, sqrt_minus1=True), 4)[0]


def test_word_basis_matches_greedy_scan():
    identity = True
    for a in symbol_algebras():
        for n in range(a.n_max + 1):
            words, coords = a.word_basis(n)
            want_words, want_coords = greedy_word_basis(a, n)
            assert words == want_words
            assert coords.shape == want_coords.shape and (coords == want_coords).all()
            identity &= (coords == np.eye(a.dims[n], dtype=np.int64)).all()
    assert not identity


def reference_word_basis(a, n):
    """`word_basis` before the value recurrence: every normal monomial
    valued word by word, one `rref` for the pivots and `gf.inverse` for the
    coordinates."""
    d, sq = a.dims[n], a.mode is SymmetryMode.SUPERCOMMUTATIVE
    monos = mono_enumerate(a.order, n, sq) if d else []
    values = np.array([monomial_value(a, m) for m in monos],
                      dtype=np.int64).reshape(len(monos), d)
    pivots = gf.rref(values.T, a.fld.l)[1]
    return [monos[k] for k in pivots], gf.inverse(values[pivots], a.fld.l)


def word_basis_cases():
    """Expanded presentations (both modes, l in {2, 3, 5, 7}), the symbol
    algebras, free algebras on 0 to 2 generators, and graph algebras on 4
    and 5 vertices."""
    for mode in SymmetryMode:
        for l in (2, 3, 5, 7):
            for seed in range(4):
                rng = random.Random(f"words:{mode.value}:{l}:{seed}")
                pres = random_presentation(rng, l, mode, rng.randint(2, 5), rng.randint(1, 4))
                yield degreewise_expand(pres, 4)
    yield from symbol_algebras()
    for mode in SymmetryMode:
        for n in range(3):
            yield free_algebra(PrimeField(3), mode, gen_order(n), 4)
    for n in (4, 5):
        for t in list(all_graphs(n))[::7]:
            yield graph_algebra(t, PrimeField(2), n_max=5)


def test_word_basis_matches_reference():
    for a in word_basis_cases():
        for n in range(a.n_max + 1):
            words, coords = a.word_basis(n)
            want_words, want_coords = reference_word_basis(a, n)
            assert words == want_words
            assert coords.shape == want_coords.shape and coords.dtype == want_coords.dtype
            assert coords.tobytes() == want_coords.tobytes()


def reference_monomial_basis_algebra(a):
    """The generator actions of a monomial algebra with a's bases, by the
    object route: x_g times each basis monomial through `free_product`."""
    p = a.fld.l
    index = [{m: i for i, m in enumerate(b)} for b in a.basis_monomials]
    out = []
    for n in range(a.n_max):
        mats = []
        for g in range(a.num_generators):
            mat = np.zeros((a.dims[n + 1], a.dims[n]), dtype=np.int64)
            for col, mono in enumerate(a.basis_monomials[n]):
                sign, prod = free_product(Monomial.generator(g), mono, a.mode, p)
                if prod in index[n + 1]:
                    mat[index[n + 1][prod], col] = sign
            mats.append(mat)
        out.append(mats)
    return out


def test_monomial_algebras_match_reference():
    # free algebras (both modes, 0-6 generators) and graph algebras
    cases = [free_algebra(PrimeField(l), mode, gen_order(n), n_max)
             for mode in SymmetryMode for l in (2, 3, 5) for n in range(7)
             for n_max in (2, 5)]
    cases += [graph_algebra(t, PrimeField(3), n_max=4) for t in list(all_graphs(5))[::9]]
    for a in cases:
        want = reference_monomial_basis_algebra(a)
        assert [[m.tobytes() for m in mats] for mats in a.gen_action] == \
            [[m.tobytes() for m in mats] for mats in want]
