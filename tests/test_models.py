"""Synthetic local and global symbol-algebra models."""

import copy
import hashlib
import itertools
import json

import numpy as np
import pytest

from koszulity.algebra import (SymmetryMode, augmentation_module,
                               degreewise_expand, free_algebra, ideal_module,
                               presentation_to_json)
from koszulity.gf import PrimeField
from koszulity.graded import (associated_graded, check_module_generated_degree1,
                              check_quadratic_through3, pbw_verdict,
                              surviving_monomials)
from koszulity.graphs import (algebra_verdict, graph_from_truncation,
                              is_acyclic, max_degree, module_verdict)
from koszulity.homology import koszul_scan, tor_algebra, tor_module
from koszulity.models import (LOCAL_CASES, MINIMAL_DIMS, LocalCase, build_annihilator,
                              build_global_general, build_global_symplectic,
                              build_local, build_noroot, datum_from_json,
                              datum_to_algebra, datum_to_json, local_gram,
                              local_annihilator_choices,
                              local_expected_survivors, local_presentation,
                              predict_survivors, support, validate_reciprocity)

from conftest import reference_build_local, reference_datum_to_algebra


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def all_local_cases():
    out = []
    for case, (d_min, d_more) in MINIMAL_DIMS.items():
        for dim in (d_min, d_more):
            l = 2 if case.startswith("two") else 3
            out.append(LocalCase(case, dim, l))
    out.append(LocalCase("symplectic", 2, 2, sqrt_minus1=True))
    out.append(LocalCase("symplectic", 4, 5))
    out.append(LocalCase("noroot", 2, 5))
    return out


class TestLocalCase:
    def test_symplectic_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            LocalCase("symplectic", 3, 3)

    def test_symplectic_l2_needs_sqrt(self):
        with pytest.raises(ValueError):
            LocalCase("symplectic", 2, 2)

    def test_two_cases_pin_l(self):
        with pytest.raises(ValueError):
            LocalCase("two_zero", 2, 3)
        with pytest.raises(ValueError):
            LocalCase("two_nonzero", 3, 2, sqrt_minus1=True)

    def test_parity(self):
        with pytest.raises(ValueError):
            LocalCase("two_zero", 3, 2)
        with pytest.raises(ValueError):
            LocalCase("two_nonzero", 4, 2)

    def test_noroot_needs_odd_l(self):
        with pytest.raises(ValueError):
            LocalCase("noroot", 2, 2)

    def test_mode(self):
        assert LocalCase("two_zero", 2, 2).mode is SymmetryMode.COMMUTATIVE
        assert LocalCase("symplectic", 2, 3).mode is SymmetryMode.SUPERCOMMUTATIVE
        sq = LocalCase("symplectic", 2, 2, sqrt_minus1=True)
        assert sq.mode is SymmetryMode.SUPERCOMMUTATIVE


class TestBuildLocal:
    @pytest.mark.parametrize("case", all_local_cases(),
                             ids=lambda c: f"{c.case}-d{c.dim}-l{c.l}")
    def test_shape(self, case):
        a, lam, order = build_local(case)
        assert a.dims[0] == 1 and a.dims[1] == case.dim
        assert a.dims[2] == (0 if case.case == "noroot" else 1)
        assert all(d == 0 for d in a.dims[3:])

    @pytest.mark.parametrize("case", all_local_cases(),
                             ids=lambda c: f"{c.case}-d{c.dim}-l{c.l}")
    def test_pairing_nondegenerate(self, case):
        gram, _ = local_gram(case)
        if gram is None:
            return
        from koszulity.gf import rank
        assert rank(gram, case.l) == case.dim

    @pytest.mark.parametrize("case", all_local_cases(),
                             ids=lambda c: f"{c.case}-d{c.dim}-l{c.l}")
    def test_expected_survivors(self, case):
        a = degreewise_expand(local_presentation(case), 4)
        got = [m.to_string(a.order) for m in surviving_monomials(a, 2)]
        assert got == local_expected_survivors(case)

    @pytest.mark.parametrize("case", all_local_cases(),
                             ids=lambda c: f"{c.case}-d{c.dim}-l{c.l}")
    def test_pbw_koszul(self, case):
        a = degreewise_expand(local_presentation(case), 4)
        assert pbw_verdict(a).koszul
        assert koszul_scan(tor_algebra(a, 4, 4)).koszul_through_bound

    @pytest.mark.parametrize("case", all_local_cases(),
                             ids=lambda c: f"{c.case}-d{c.dim}-l{c.l}")
    def test_annihilator_choices(self, case):
        gram, t = local_gram(case)
        for desc, c in local_annihilator_choices(case):
            assert c.any()
            if gram is None:
                continue
            cc = int(c @ gram @ c) % case.l
            assert (cc == 0) == ("{c,c} = 0" in desc)


class TestGlobalSymplectic:
    @pytest.mark.parametrize("args", [
        dict(num_s_places=2, num_outside=(1, 1), l=3, seed=0),
        dict(num_s_places=3, num_outside=(2, 1), l=3, seed=1),
        dict(num_s_places=2, num_outside=(1, 2), l=5, seed=2),
        dict(num_s_places=2, num_outside=(1, 1), l=2, sqrt_minus1=True, seed=0),
    ])
    def test_builder_invariants(self, args):
        d, order = build_global_symplectic(**args)
        assert d.validate() == []
        ok, bad = validate_reciprocity(d)
        assert ok and bad == []
        # S-block dimension identity: dim W_S = 2 #S
        assert sum(sp.dim for sp in d.s_places) == 2 * args["num_s_places"]
        a = datum_to_algebra(d, 4)
        pred = predict_survivors(d)
        assert pred == surviving_monomials(a, 2)
        g = associated_graded(a)
        t = graph_from_truncation(g)
        assert not t.loops and is_acyclic(t)
        assert pbw_verdict(a).koszul
        assert koszul_scan(tor_algebra(a, 4, 4)).koszul_through_bound

    def test_l2_without_sqrt_rejected(self):
        with pytest.raises(ValueError):
            build_global_symplectic(2, (1, 1), l=2)

    def test_deterministic(self):
        a = build_global_symplectic(2, (1, 1), l=3, seed=9)[0]
        b = build_global_symplectic(2, (1, 1), l=3, seed=9)[0]
        assert canonical(datum_to_json(a)) == canonical(datum_to_json(b))

    def test_survivor_pattern(self):
        # #S=2, outside {p1, q, r}: both b0-edges to the divisor generators
        # survive, then exactly one more b-edge and one more a_r-edge
        d, order = build_global_symplectic(2, (1, 1), l=3, seed=0)
        surv = {m.to_string(order) for m in
                surviving_monomials(datum_to_algebra(d, 3), 2)}
        names = order.names
        b0 = names[0]
        assert f"{b0}*a_p1" in surv or f"a_p1*{b0}" in surv \
            or any(b0 in s and "a_p1" in s for s in surv)
        assert any(b0 in s and "a_q1" in s for s in surv)


class TestGlobalGeneral:
    @pytest.mark.parametrize("s,r,seed", [(2, 1, 0), (3, 2, 0), (2, 1, 5)])
    def test_builder_invariants(self, s, r, seed):
        d, order = build_global_general(s, r, (1, 1), seed=seed)
        assert d.validate() == []
        assert validate_reciprocity(d)[0]
        assert sum(sp.dim for sp in d.s_places) == 2 * s
        a = datum_to_algebra(d, 5)
        # real places carry the stable high-degree part
        for n in range(3, 6):
            assert a.dims[n] == r
        g = associated_graded(a)
        assert check_quadratic_through3(g)[0]
        t = graph_from_truncation(g)
        # loops exactly at the real-place generators a_v
        assert {t.vertices[v] for v in t.loops} \
            == {f"a_v{k}" for k in range(1, r + 1)}
        assert predict_survivors(d) == surviving_monomials(a, 2)
        assert koszul_scan(tor_algebra(a, 4, 4)).koszul_through_bound

    def test_l_must_be_two(self):
        with pytest.raises(ValueError):
            build_global_general(2, 1, (1, 1), l=3)

    def test_support_of_sum(self):
        d, _ = build_global_general(2, 1, (1, 1), seed=0)
        ncoords = len(d.coord_labels())
        assert support(d, np.zeros(ncoords, dtype=np.int64)) == set()
        e = np.eye(ncoords, dtype=np.int64)
        assert support(d, (e[0] + e[-1]) % 2) \
            == support(d, e[0]) | support(d, e[-1])


class TestAnnihilator:
    @pytest.mark.parametrize("s,r,c,seed", [(3, 1, 1, 0), (3, 1, 1, 2), (4, 1, 2, 1)])
    def test_c_annihilator_module(self, s, r, c, seed):
        d, order = build_annihilator(s, r, c, (1, 1), seed=seed)
        assert d.validate() == []
        assert order.names[0] == "c"
        a = datum_to_algebra(d, 5)
        cvec = np.eye(a.dims[1], dtype=np.int64)[0]
        # {c,c} = 0 by construction
        assert not a.element_product(cvec, 1, cvec, 1).any()
        m = ideal_module(a, cvec)
        assert check_module_generated_degree1(a, m.subspace_bases)[0]
        scan = koszul_scan(tor_module(a, m, 4, 5))
        assert scan.koszul_through_bound

    def test_insufficient_places_rejected(self):
        with pytest.raises(ValueError):
            build_annihilator(2, 1, 1, (1, 1))


class TestNoroot:
    def test_variant1_disjoint_edges(self):
        # one matched divisor pair per flagged place plus one edge per
        # flagged divisor/Frobenius pair: 2 + 1 disjoint edges here
        d, order = build_noroot(2, 1, l=3, seed=0)
        assert not d.reciprocity
        a = datum_to_algebra(d, 4)
        t = graph_from_truncation(associated_graded(a))
        assert len(t.edges) == 3 and not t.loops
        assert max_degree(t) <= 1
        assert module_verdict(t) and algebra_verdict(t)

    @pytest.mark.parametrize("u,r,variant", [(2, 2, 1), (3, 1, 1), (2, 2, 2), (3, 1, 2)])
    def test_koszul_end_to_end(self, u, r, variant):
        d, order = build_noroot(u, r, l=3, seed=1, variant=variant)
        assert d.validate() == []
        a = datum_to_algebra(d, 4)
        t = graph_from_truncation(associated_graded(a))
        assert not t.loops
        if variant == 2:
            assert max_degree(t) <= 2 and algebra_verdict(t)
        assert koszul_scan(tor_algebra(a, 4, 4)).koszul_through_bound
        lam = free_algebra(a.fld, SymmetryMode.SUPERCOMMUTATIVE, a.order, 4)
        scan = koszul_scan(tor_module(lam, augmentation_module(a, lam), 3, 4))
        assert scan.koszul_through_bound

    def test_l2_rejected(self):
        with pytest.raises(ValueError):
            build_noroot(2, 1, l=2)


class TestReciprocityValidator:
    def test_perturbed_frob_detected(self):
        d, _ = build_global_symplectic(2, (1, 1), l=3, seed=0)
        assert validate_reciprocity(d)[0]
        bad = copy.deepcopy(d)
        # find a generator with a frobenius value at a place where another
        # generator has a divisor, and shift it
        target = None
        with_ord = {t for g in bad.generators for t in g.ord}
        for g in bad.generators:
            for t, v in g.frob.items():
                if t in with_ord and not g.ord.get(t):
                    target = (g, t)
                    break
            if target:
                break
        assert target is not None
        g, t = target
        g.frob[t] = (g.frob[t] + 1) % 3
        ok, offenders = validate_reciprocity(bad)
        assert not ok and offenders


def reference_symbol(d, gi, hi):
    """{x_g, x_h} over coord_labels(), one place at a time in Python ints."""
    p = d.fld.l
    g, h = d.generators[gi], d.generators[hi]
    out = []
    for i, sp in enumerate(d.s_places):
        if sp.kind == "complex" or not sp.flagged:
            continue
        out.append(sum(int(g.images[i][r]) * int(sp.gram[r, c]) * int(h.images[i][c])
                       for r in range(sp.dim) for c in range(sp.dim)) % p)
    square = gi == hi and d.mode is SymmetryMode.COMMUTATIVE
    for op in d.outside_places:
        if not op.flagged:
            continue
        t = op.label
        if square:
            # {x,x} = {-1,x}: the tame symbol picks up ord * frob(-1)
            frob_minus1 = 0 if d.minus1_coeffs is None else sum(
                int(c) * x.frob.get(t, 0) for c, x in zip(d.minus1_coeffs, d.generators))
            val = g.ord.get(t, 0) * frob_minus1
        else:
            val = g.ord.get(t, 0) * h.frob.get(t, 0) - h.ord.get(t, 0) * g.frob.get(t, 0)
        out.append(val % p)
    return out


def assert_symbols_match_reference(d):
    sym = d.symbols()
    n = len(d.generators)
    assert sym.dtype == np.int64 and sym.shape == (n, n, len(d.coord_labels()))
    assert sym.tolist() == [[reference_symbol(d, g, h) for h in range(n)] for g in range(n)]
    return sym


def first_outside_pair(d, frob=None):
    """(g, h, t): an outside place t where frob_t(h) is `frob` (any nonzero
    value when None) and g != h carries no divisor, or None."""
    for t in (op.label for op in d.outside_places):
        for hi, h in enumerate(d.generators):
            f = h.frob.get(t, 0) % d.fld.l
            if f and frob in (None, f):
                for gi, g in enumerate(d.generators):
                    if gi != hi and not g.ord.get(t, 0):
                        return gi, hi, t
    return None


def symbols_datum():
    """A JSON datum with a complex S-place, an unflagged S-place and an
    unflagged outside place among flagged ones."""
    return {
        "l": 3, "sqrt_minus1": False, "reciprocity": False,
        "s_places": [
            {"label": "v0", "kind": "nonarch", "gram": [[0, 1], [2, 0]], "minus1": [0, 0]},
            {"label": "c0", "kind": "complex", "gram": [], "minus1": []},
            {"label": "v1", "kind": "nonarch", "flagged": False,
             "gram": [[0, 1], [2, 0]], "minus1": [0, 0]},
        ],
        "outside_places": [{"label": "t0"}, {"label": "t1", "flagged": False},
                           {"label": "t2"}],
        "generators": [
            {"label": "x", "images": [[1, 2], [], [1, 1]], "ord": {"t0": 1},
             "frob": {"t1": 2, "t2": 1}},
            {"label": "y", "images": [[2, 1], [], [0, 1]], "ord": {"t1": 1, "t2": 1},
             "frob": {"t0": 2}},
            {"label": "z", "images": [[0, 1], [], [1, 0]], "ord": {},
             "frob": {"t0": 1, "t1": 1, "t2": 2}},
        ],
    }


class TestSymbols:
    """`symbols()` against the per-pair formula in Python ints."""

    @pytest.mark.parametrize("build,args,kwargs", [
        (build_global_symplectic, (2, (1, 1)), dict(l=3)),
        (build_global_symplectic, (3, (2, 1)), dict(l=5)),
        (build_global_symplectic, (2, (1, 1)), dict(l=2, sqrt_minus1=True)),
        (build_global_general, (3, 2, (2, 1)), {}),
        (build_annihilator, (4, 1, 2, (1, 1)), {}),
        (build_noroot, (2, 2), dict(l=3)),
        (build_noroot, (3, 1), dict(l=5, variant=2, num_c_places=2)),
    ], ids=["symplectic-3", "symplectic-5", "symplectic-sqrt", "general",
            "annihilator", "noroot-1", "noroot-2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_builders(self, build, args, kwargs, seed):
        d, _ = build(*args, seed=seed, **kwargs)
        assert_symbols_match_reference(d)

    def test_unflagged_and_complex_places(self):
        d = datum_from_json(symbols_datum())
        assert d.coord_labels() == ["v0", "t0", "t2"]
        sym = assert_symbols_match_reference(d)
        assert sym[:, :, 1:].any()

    def test_commutative_diagonal(self):
        # the general builders give l = 2 without sqrt(-1) and minus1_coeffs
        for seed in range(3):
            d, _ = build_global_general(3, 1, (2, 1), seed=seed)
            assert d.mode is SymmetryMode.COMMUTATIVE and d.minus1_coeffs is not None
            sym = assert_symbols_match_reference(d)
        n = len(d.generators)
        assert sym[range(n), range(n), len(d.s_places):].any()
        d.minus1_coeffs = None
        assert_symbols_match_reference(d)

    def test_frob_beyond_int64(self):
        d, _ = build_global_general(2, 1, (1, 1), seed=3)
        want = d.symbols()
        _, hi, t = first_outside_pair(d)
        d.generators[hi].frob[t] += 2 * 10 ** 30
        assert d.validate() == []
        assert (assert_symbols_match_reference(d) == want).all()

    def test_ord_product_beyond_int64(self):
        # 3 * 2^61 fits in int64 and is 0 mod 3, so the validator accepts it;
        # times a Frobenius value of 2 it wraps unless reduced first
        d = next(d for d, _ in (build_global_symplectic(2, (1, 1), l=3, seed=s)
                                for s in range(10)) if first_outside_pair(d, 2))
        want = d.symbols()
        obj = datum_to_json(d)
        gi, _, t = first_outside_pair(d, 2)
        obj["generators"][gi]["ord"][t] = 3 * 2 ** 61
        d = datum_from_json(obj)
        assert d.validate() == []
        assert (assert_symbols_match_reference(d) == want).all()


VALUE_BUILDS = [
    (build_global_symplectic, (2, (1, 1)), dict(l=3)),
    (build_global_symplectic, (2, (1, 1)), dict(l=5)),
    (build_global_symplectic, (3, (2, 1)), dict(l=5)),
    (build_global_symplectic, (2, (1, 2)), dict(l=2, sqrt_minus1=True)),
    (build_global_general, (2, 1, (1, 1)), {}),
    (build_global_general, (3, 1, (1, 2)), {}),
    (build_global_general, (3, 2, (2, 1)), {}),
    (build_annihilator, (3, 1, 1, (1, 1)), {}),
    (build_annihilator, (4, 1, 2, (1, 1)), {}),
    (build_noroot, (2, 2), dict(l=3)),
    (build_noroot, (2, 1), dict(l=5)),
    (build_noroot, (3, 1), dict(l=5, variant=2, num_c_places=2)),
]


def assert_same_algebra(a, ref):
    # ref sits on the survivors of its own word-by-word scan
    assert a.dims == ref.dims
    assert a.basis_monomials == ref.basis_monomials
    assert tor_algebra(a, 3, a.n_max).dims == tor_algebra(ref, 3, ref.n_max).dims


class TestValueBuilds:
    """The symbol and local algebras, built from the values of their normal
    monomials, against the hand-built actions they replaced."""

    @pytest.mark.parametrize("build,args,kwargs", VALUE_BUILDS)
    def test_datum_matches_hand_built(self, build, args, kwargs):
        for seed in range(18):
            d, _ = build(*args, seed=seed, **kwargs)
            n_max = 2 + seed % 4
            assert_same_algebra(datum_to_algebra(d, n_max), reference_datum_to_algebra(d, n_max))

    def test_local_matches_hand_built(self):
        compared = 0
        for case, dim in itertools.product(LOCAL_CASES, range(1, 8)):
            for l, sqrt_minus1 in ((2, False), (2, True), (3, False), (5, False)):
                try:
                    c = LocalCase(case, dim, l, sqrt_minus1)
                except ValueError:
                    continue
                for n_max in range(2, 6):
                    assert_same_algebra(build_local(c, n_max)[0], reference_build_local(c, n_max))
                    compared += 1
        assert compared == 116

    @pytest.mark.parametrize("build,args,kwargs,word", [
        (build_global_general, (3, 1, (1, 2)), {}, "symmetric"),
        (build_global_symplectic, (2, (1, 1)), dict(l=3), "alternating"),
    ])
    def test_symbols_must_obey_the_mode(self, build, args, kwargs, word):
        # the values of the normal monomials stand for every product only
        # when {x,y} and {y,x} agree up to the mode's sign
        d, _ = build(*args, seed=0, **kwargs)
        sp = next(sp for sp in d.s_places if sp.kind == "nonarch")
        sp.gram = sp.gram.copy()
        sp.gram[0, -1] += 1
        with pytest.raises(ValueError, match=f"are not {word}"):
            datum_to_algebra(d, 3)


class TestDatumJson:
    def test_round_trip(self):
        for d, _ in (build_global_symplectic(2, (1, 1), l=3, seed=0),
                     build_global_general(2, 1, (1, 1), seed=0),
                     build_noroot(2, 1, l=3, seed=0)):
            obj = datum_to_json(d)
            back = datum_from_json(json.loads(canonical(obj)))
            assert canonical(datum_to_json(back)) == canonical(obj)

    def test_schema_fields(self):
        d, _ = build_global_symplectic(2, (1, 1), l=3, seed=0)
        obj = datum_to_json(d)
        for key in ("l", "sqrt_minus1", "s_places", "outside_places",
                    "generators"):
            assert key in obj
        for g in obj["generators"]:
            assert {"label", "images", "ord", "frob"} <= set(g)


# Builder shapes for the pinned digest: every kind, with sqrt(-1), the
# noroot variant 2 and outside counts (n, 0) among them.
PINNED_BUILDS = [
    (build_global_symplectic, (2, (1, 1)), dict(l=3)),
    (build_global_symplectic, (3, (2, 2)), dict(l=3)),
    (build_global_symplectic, (2, (1, 2)), dict(l=5)),
    (build_global_symplectic, (2, (1, 1)), dict(l=2, sqrt_minus1=True)),
    (build_global_symplectic, (3, (1, 0)), dict(l=3)),
    (build_global_general, (2, 1, (1, 1)), {}),
    (build_global_general, (3, 2, (1, 1)), {}),
    (build_global_general, (3, 1, (2, 0)), {}),
    (build_global_general, (4, 1, (0, 0)), {}),
    (build_annihilator, (3, 1, 1, (1, 1)), {}),
    (build_annihilator, (4, 1, 2, (1, 1)), {}),
    (build_annihilator, (4, 2, 1, (2, 0)), {}),
    (build_noroot, (2, 1), dict(l=3)),
    (build_noroot, (3, 2), dict(l=5)),
    (build_noroot, (2, 2), dict(l=3, variant=2, num_c_places=1)),
    (build_noroot, (3, 1), dict(l=3, variant=2, num_c_places=2)),
    (build_noroot, (2, 0), dict(l=3, variant=2, num_c_places=0)),
]

# sha256 of pinned_digest(), recorded before the generators were refactored:
# a reordered random draw or a changed block changes it
PINNED_DIGEST = "7d08789c8cb23ae11d26609fe2861a4d1d549a522c286ad37700667b93a56eee"


def pinned_digest():
    lines = []
    for build, args, kwargs in PINNED_BUILDS:
        for seed in range(10):
            try:
                d, _ = build(*args, seed=seed, **kwargs)
                text = canonical(datum_to_json(d))
            except (ValueError, RuntimeError) as e:
                text = f"{type(e).__name__}: {e}"
            lines.append(f"{build.__name__}{args}{kwargs} seed={seed}: {text}")
    for case in all_local_cases():
        a, cover, _ = build_local(case, 4)
        gram, t = local_gram(case)
        lines.append(canonical({
            "case": [case.case, case.dim, case.l, case.sqrt_minus1],
            "gram": None if gram is None else gram.tolist(), "minus1": t,
            "presentation": presentation_to_json(local_presentation(case)),
            "cover": presentation_to_json(cover), "dims": a.dims,
            "gen_action": [[m.tolist() for m in mats] for mats in a.gen_action],
        }))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pinned_generator_output():
    """The builders' output for a fixed grid of shapes and seeds 0-9, and
    the local presentations and covers, hashed across commits."""
    assert pinned_digest() == PINNED_DIGEST
