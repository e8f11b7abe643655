"""Shared fixtures and small construction helpers for the test suite, and
the routes that the package replaced, kept as references: the monomial
object routes that exponent rows replaced, and the hand-built symbol and
local algebras that their value builds replaced."""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koszulity import gf
from koszulity.algebra import (DegreewiseAlgebra, QuadraticPresentation, SymmetryMode,
                               degreewise_expand, free_algebra, normal_monomials)
from koszulity.gf import PrimeField, RowSpan
from koszulity.models import local_gram
from koszulity.monomials import GeneratorOrder, Monomial, invlex_words, mono_mul


LT, EQ, GT = -1, 0, 1

ROOT = Path(__file__).resolve().parent.parent


def run_capped(*args: str, cap: int = 2 * 10 ** 9, stdin: str | None = None):
    """`python *args` with this checkout's package, under an address-space cap
    of `cap` bytes, started by a wrapper whose only child it is, so that the
    wrapper's RUSAGE_CHILDREN is the child's own: (exit code, stdout,
    stderr, peak RSS in MB) of the child."""
    wrapper = ("import resource, subprocess, sys\n"
               f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
               "r = subprocess.run([sys.executable, *sys.argv[1:]])\n"
               "print(r.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r = subprocess.run([sys.executable, "-c", wrapper, *args], input=stdin, text=True,
                       capture_output=True, env=env, timeout=300)
    *out, last = r.stdout.splitlines(keepends=True)
    code, kb = map(int, last.split())
    return code, "".join(out), r.stderr, kb / 1024


def invlex_compare(a: Monomial, b: Monomial) -> int:
    """Inverse-lex comparison of equal-degree monomials: LT(-1), EQ(0), GT(1)."""
    if a.degree != b.degree:
        raise ValueError("invlex_compare requires equal degrees")
    da, db = dict(a.exps), dict(b.exps)
    for r in sorted(set(da) | set(db)):
        ea, eb = da.get(r, 0), db.get(r, 0)
        if ea != eb:
            # larger exponent on the earlier generator means smaller monomial
            return LT if ea > eb else GT
    return EQ


def mono_enumerate(order: GeneratorOrder, degree: int, squarefree: bool) -> list[Monomial]:
    """All degree-n monomials (squarefree only if flagged), ascending invlex:
    the reference for `monomials.exponent_rows`."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    m = len(order)
    out: list[Monomial] = []
    if squarefree:
        for ranks in itertools.combinations(range(m), degree):
            out.append(Monomial(tuple((r, 1) for r in ranks)))
    else:
        for ranks in itertools.combinations_with_replacement(range(m), degree):
            d: dict[int, int] = {}
            for r in ranks:
                d[r] = d.get(r, 0) + 1
            out.append(Monomial.from_dict(d))
    out.sort(key=Monomial.sort_key)
    return out


def divisors_degree(m: Monomial, d: int) -> list[Monomial]:
    """All degree-d monomials dividing m, ascending invlex: the reference for
    the divisor counts of the PBW checks."""
    if not 0 <= d <= m.degree:
        raise ValueError("divisor degree out of range")
    ranks = [r for r, _ in m.exps]
    choices = [range(min(e, d) + 1) for _, e in m.exps]
    out = []
    for combo in itertools.product(*choices):
        if sum(combo) == d:
            out.append(Monomial.from_dict({r: e for r, e in zip(ranks, combo) if e}))
    out.sort(key=Monomial.sort_key)
    return out


def free_product(a: Monomial, b: Monomial, mode: SymmetryMode, p: int):
    """Product a*b in the free (super)commutative algebra as (sign, monomial),
    or (0, None) when it vanishes: the object route that the expansion took
    before exponent rows, kept as the reference for their products."""
    if mode is SymmetryMode.SUPERCOMMUTATIVE:
        if set(a.ranks()) & set(b.ranks()):
            return 0, None
        # count transpositions needed to merge the two ascending words
        bw = b.word()
        inversions = sum(1 for ra in a.word() for rb in bw if ra > rb)
        return (-1) ** inversions % p, mono_mul(a, b)
    return 1, mono_mul(a, b)


def monomial_value(a, mono: Monomial) -> np.ndarray:
    """Value of a generator-word monomial in A_(deg mono), word by word,
    through a's generator actions: the reference for the values that the
    survivor scans read."""
    word = mono.word()
    if not word:
        return np.ones(1, dtype=np.int64)
    v = np.zeros(a.dims[1], dtype=np.int64)
    v[word[-1]] = 1
    for d, g in enumerate(reversed(word[:-1]), 1):
        v = (a.gen_action[d][g] @ v) % a.fld.l
    return v


def greedy_word_basis(a, n):
    """The survivor scan word by word: each normal monomial in invlex order
    is kept when its value grows an incremental `RowSpan`.  Returns the
    survivors and the coordinates of A_n's basis in their values (the
    inverse of the values)."""
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


def on_greedy_survivors(fld, mode, order, dims, gen_action) -> DegreewiseAlgebra:
    """A hand-built algebra moved onto the values of its greedy survivors as
    basis: with C_n the coordinates and V_n the values of `greedy_word_basis`
    (C_n V_n = I), x_g acts on A_n by C_(n+1)^T gen_action[n][g] V_n^T."""
    p, a = fld.l, SimpleNamespace(fld=fld, mode=mode, order=order, dims=dims,
                                  gen_action=gen_action)
    words, coords = zip(*(greedy_word_basis(a, n) for n in range(len(dims))))
    values = [gf.inverse(c, p) for c in coords]
    action = [[(coords[n + 1].T @ ((mat @ values[n].T) % p)) % p for mat in mats]
              for n, mats in enumerate(gen_action)]
    return DegreewiseAlgebra(fld, mode, order, len(dims) - 1, dims, action, list(words))


def reference_datum_to_algebra(d, n_max: int) -> DegreewiseAlgebra:
    """`models.datum_to_algebra` as it was hand-built, moved onto its greedy
    survivors.  A_2 is the span of the pairwise symbol vectors inside the
    coordinate space, with the reduced echelon basis of the normal-monomial
    symbols; for l = 2 without sqrt(-1) the higher components are one copy
    of F_2 per real place, with generators acting through their local signs.
    Signs that miss a real place leave A_3 outside A_1 A_2: a ValueError."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    fld, p = d.fld, d.fld.l
    order = d.order()
    ngen = len(order)
    labels = d.coord_labels()
    sym = d.symbols()
    words = invlex_words(ngen, 2, d.mode is SymmetryMode.SUPERCOMMUTATIVE)
    basis, pivots = gf.rref(sym[words[:, 0], words[:, 1]], p)
    dim2 = basis.shape[0]
    # the basis is in reduced echelon form: a vector of its span has its
    # coordinates at the pivot columns
    coords = sym[:, :, pivots]
    if ((coords @ basis - sym) % p).any():
        raise ValueError("a symbol lies outside the span of the normal-monomial symbols")

    # x_g acts on degree n >= 2 through its sign at each real place
    real = [i for i, sp in enumerate(d.s_places) if sp.kind == "real"] \
        if d.mode is SymmetryMode.COMMUTATIVE else []
    r = len(real)
    sign = np.array([[g.images[i][0] for i in real] for g in d.generators],
                    dtype=np.int64).reshape(ngen, r) % p
    real_coord = [labels.index(d.s_places[i].label) for i in real]
    act2 = (sign[:, :, None] * basis[:, real_coord].T[None]) % p
    if n_max >= 3:
        reached = gf.rank(act2.transpose(1, 0, 2).reshape(r, ngen * dim2), p)
        if reached < r:
            raise ValueError(f"A_1 A_2 spans {reached} of the {r} dimensions of A_3, "
                             "one per real place: the generators miss a real place")

    dims = [1, ngen, dim2] + [r] * (n_max - 2)
    eye = np.eye(ngen, dtype=np.int64)
    gen_action = [[eye[:, g:g + 1] for g in range(ngen)],
                  [c.T.copy() for c in coords]]
    if n_max >= 3:
        gen_action.append(list(act2))
    gen_action += [[np.diag(s) for s in sign] for _ in range(3, n_max)]
    return on_greedy_survivors(fld, d.mode, order, dims, gen_action)


def reference_build_local(case, n_max: int = 5) -> DegreewiseAlgebra:
    """The algebra of `models.build_local` as it was hand-built, moved onto
    its greedy survivors: A_2 = F_l via the pairing (zero in the noroot
    case), A_n = 0 for n >= 3."""
    m = case.dim
    gram, _ = local_gram(case)
    dims = [1, m, 0 if gram is None else 1] + [0] * (n_max - 2)
    gen_action: list[list[np.ndarray]] = []
    eye = np.eye(m, dtype=np.int64)
    gen_action.append([eye[:, g:g + 1] for g in range(m)])
    gen_action.append([
        (gram[g:g + 1, :] % case.l if gram is not None
         else np.zeros((0, m), dtype=np.int64))
        for g in range(m)
    ])
    for n in range(2, n_max):
        gen_action.append([np.zeros((0, dims[n]), dtype=np.int64) for _ in range(m)])
    order = GeneratorOrder(tuple(f"x{i}" for i in range(m)))
    return on_greedy_survivors(PrimeField(case.l), case.mode, order, dims, gen_action)


def gen_order(n: int) -> GeneratorOrder:
    return GeneratorOrder(tuple(f"x{i}" for i in range(n)))


def exterior_algebra(n: int, l: int = 2, n_max: int = 5):
    """The free exterior (supercommutative) algebra on n generators."""
    return free_algebra(PrimeField(l), SymmetryMode.SUPERCOMMUTATIVE,
                        gen_order(n), n_max)


def polynomial_algebra(n: int, l: int = 2, n_max: int = 5):
    return free_algebra(PrimeField(l), SymmetryMode.COMMUTATIVE,
                        gen_order(n), n_max)


def presentation_from_strings(l, mode, names, relation_strings):
    """Build a quadratic presentation from e.g. ["x0*x1 + x1*x1"] shorthand:
    each relation string is a list of (coefficient, monomial) pairs."""
    order = GeneratorOrder(tuple(names))
    combos = []
    for terms in relation_strings:
        combo = {}
        for coef, mono_str in terms:
            m = Monomial.parse(mono_str, order)
            combo[m] = (combo.get(m, 0) + coef) % l
        combos.append(combo)
    return QuadraticPresentation.from_combos(
        PrimeField(l), mode, order, combos)


def random_presentation(rng, l, mode, num_gens, num_relations):
    """A reproducible random quadratic presentation."""
    order = GeneratorOrder(tuple(f"x{i}" for i in range(num_gens)))
    monos = normal_monomials(order, 2, mode)
    combos = []
    for _ in range(num_relations):
        combo = {m: rng.randrange(l) for m in monos}
        combos.append({m: c for m, c in combo.items() if c})
    combos = [c for c in combos if c]
    return QuadraticPresentation.from_combos(PrimeField(l), mode, order, combos)


@pytest.fixture
def f2():
    return PrimeField(2)


@pytest.fixture
def f3():
    return PrimeField(3)


@pytest.fixture
def f5():
    return PrimeField(5)
