"""Associated-graded monomial algebras under the inverse-lex filtration.

The filtration of A_n by monomials is the canonical degree-1-generated
extension of the generator filtration: F_m A_n = span of the values of all
monomials <= m.  A monomial survives when its value leaves the span of the
values of all strictly smaller monomials (a pivot column of one `rref`, in
`word_basis`); the survivors are a basis of A and of gr^F A.  The PBW
checks count each monomial's surviving divisors on exponent rows: x_g * m
for every survivor m of one degree less, by `times_generators`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import DegreewiseAlgebra, SymmetryMode, _monomial_basis_algebra
from .monomials import (GeneratorOrder, Monomial, exponent_rows, monomial_count, monomial_rows,
                        row_monomials, times_generators)


@dataclass
class MonomialTruncation:
    """Surviving monomial sets per degree: the basis of gr^F A."""

    order: GeneratorOrder
    mode: SymmetryMode
    n_max: int
    surviving: list[list[Monomial]]  # index = degree, ascending invlex


@dataclass
class PBWVerdict:
    generated_in_degree_1: bool
    quadratic_through_3: bool
    koszul: bool
    certificate: list[list[Monomial]]
    failures: list[Monomial]


def surviving_monomials(a: DegreewiseAlgebra, n: int) -> list[Monomial]:
    """Greedy ascending-invlex scan for the degree-n commutative PBW basis."""
    return a.word_basis(n)[0]


def associated_graded(a: DegreewiseAlgebra) -> MonomialTruncation:
    surv = [surviving_monomials(a, n) for n in range(a.n_max + 1)]
    g = MonomialTruncation(a.order, a.mode, a.n_max, surv)
    bad = _divisor_closure_failures(g)
    if bad:
        raise AssertionError(f"divisor closure violated at {bad[0]}")
    return g


def _surviving_divisors(surviving: list[list[Monomial]], order: GeneratorOrder,
                        mode: SymmetryMode):
    """How many divisors of one degree less survive, as products x_g * m of
    survivors m (surviving[n] of degree n), for each normal monomial of degree
    n at place start[n] + its invlex index; with start, and the survivors in
    one list, their exponent rows and their places."""
    sq, top = mode is SymmetryMode.SUPERCOMMUTATIVE, len(surviving) - 1
    start = np.cumsum([0] + [monomial_count(len(order), n, sq) for n in range(top + 2)])
    monos = [m for ms in surviving for m in ms]
    rows = monomial_rows(monos, len(order))
    degree = np.repeat(np.arange(top + 1), [len(ms) for ms in surviving])
    up, _, index = times_generators(rows, sq)
    keep = (up >= 0) & (degree < top)[:, None]
    found = np.bincount((start[degree + 1, None] + up)[keep], minlength=start[top + 1])
    return found, start, monos, rows, start[degree] + index


def _divisor_closure_failures(g: MonomialTruncation) -> list[Monomial]:
    """The survivors of degree n >= 2 with a divisor of degree n - 1 that does not."""
    found, _, monos, rows, place = _surviving_divisors(g.surviving, g.order, g.mode)
    return [m for m, f, t in zip(monos, found[place], (rows > 0).sum(axis=1))
            if m.degree >= 2 and f < t]


def _degree1_witnesses(surviving: list[list[Monomial]], order: GeneratorOrder,
                       mode: SymmetryMode) -> list[Monomial]:
    """The survivors of degree n >= 2, by degree, that are no generator times
    a survivor of degree n - 1; surviving[n] holds the degree-n survivors."""
    found, _, monos, _, place = _surviving_divisors(surviving, order, mode)
    return [m for m, f in zip(monos, found[place]) if m.degree >= 2 and not f]


def check_generated_degree1(g: MonomialTruncation) -> tuple[bool, list[Monomial]]:
    """Every degree >= 2 survivor must be generator * (degree n-1 survivor)."""
    witnesses = _degree1_witnesses(g.surviving, g.order, g.mode)
    return not witnesses, witnesses[:16]


def check_quadratic_through3(g: MonomialTruncation) -> tuple[bool, list[Monomial]]:
    """Non-surviving cubics must be divisible by a non-surviving quadratic."""
    if g.n_max < 3:
        return True, []
    found, start, _, _, place = _surviving_divisors(g.surviving[:4], g.order, g.mode)
    cubics = exponent_rows(len(g.order), 3, g.mode is SymmetryMode.SUPERCOMMUTATIVE)
    witness = found[start[3]:] == (cubics > 0).sum(axis=1)
    witness[place[place >= start[3]] - start[3]] = False
    return not witness.any(), row_monomials(cubics[witness][:16])


def pbw_verdict(a: DegreewiseAlgebra) -> PBWVerdict:
    """Combine the two PBW hypotheses; both passing certifies Koszulity of a
    quadratically presented algebra, with the survivors as PBW basis."""
    g = associated_graded(a)
    gen1, w1 = check_generated_degree1(g)
    quad3, w2 = check_quadratic_through3(g)
    return PBWVerdict(gen1, quad3, gen1 and quad3, g.surviving, (w1 + w2)[:16])


def monomial_algebra(g: MonomialTruncation, fld) -> DegreewiseAlgebra:
    """gr^F A as an explicit degreewise algebra with the survivors as basis."""
    return _monomial_basis_algebra(fld, g.mode, g.order,
                                   [monomial_rows(s, len(g.order)) for s in g.surviving])


def module_surviving_monomials(a: DegreewiseAlgebra, subspace_bases: list[np.ndarray],
                               n: int) -> list[Monomial]:
    """Surviving monomials of a graded subspace M_n <= A_n under the induced
    filtration: m survives iff dim(M cap F_m) > dim(M cap F_(m-)).

    subspace_bases[n] has the basis rows of M_n in A_n coordinates.  F_m is
    spanned by the values of the survivor words of `word_basis` up to m, so
    written in word coordinates dim(M cap F_m) counts the greatest-index
    pivots of M_n at or below m's word: the survivors are the words at the
    pivots.
    """
    words, coords = a.word_basis(n)
    rows = (subspace_bases[n] @ coords) % a.fld.l
    pivots = gf.dict_pivots((dict(zip(np.flatnonzero(row).tolist(), row[row != 0].tolist()))
                             for row in rows), a.fld.l)
    return [words[k] for k in sorted(pivots)]


def check_module_generated_degree1(a: DegreewiseAlgebra,
                                   subspace_bases: list[np.ndarray]) -> tuple[bool, list[Monomial]]:
    """Is gr^F M generated over gr^F A by its degree-1 survivors?

    Each degree >= 2 module survivor must be a generator times a degree n-1
    module survivor.  The witnesses come in ascending invlex order.
    """
    surv = [[]] + [module_surviving_monomials(a, subspace_bases, n)
                   for n in range(1, len(subspace_bases))]
    witnesses = sorted(_degree1_witnesses(surv, a.order, a.mode), key=Monomial.sort_key)
    return not witnesses, witnesses[:16]
