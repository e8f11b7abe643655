"""Shared fixtures and small construction helpers for the test suite, and
the monomial object routes that the package replaced with exponent rows,
kept as references."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koszulity.algebra import (QuadraticPresentation, SymmetryMode,
                               degreewise_expand, free_algebra, normal_monomials)
from koszulity.gf import PrimeField
from koszulity.monomials import GeneratorOrder, Monomial, mono_mul


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
    """Value of a generator-word monomial in A_(deg mono), word by word: the
    reference for the values of `DegreewiseAlgebra.word_basis`."""
    word = mono.word()
    if not word:
        return np.ones(1, dtype=np.int64)
    v = np.zeros(a.dims[1], dtype=np.int64)
    v[word[-1]] = 1
    for d, g in enumerate(reversed(word[:-1]), 1):
        v = (a.gen_action[d][g] @ v) % a.fld.l
    return v


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
