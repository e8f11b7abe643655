"""Commutative monomials over a finite ordered generator list.

The generator list is totally ordered by position.  Monomials of a fixed
degree are compared by the degreewise inverse lexicographical order: the
first generator (by rank) whose exponents differ decides, and the *larger*
exponent wins as the *smaller* monomial.  So x0*x3 < x1*x2 on four
generators, and x0^2 < x0*x1.

The package computes on exponent rows, one int64 row per monomial:
`exponent_rows` lists a degree in ascending invlex order, and
`times_generators` places m and every x_g * m in those lists in closed form.
`Monomial` objects are made only for the lists that callers keep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GeneratorOrder:
    """Ordered generator labels; list position is the rank in the ordering."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator labels must be distinct")

    def __len__(self) -> int:
        return len(self.names)

    def rank(self, name: str) -> int:
        if name not in self.names:
            raise ValueError(f"unknown generator {name!r}")
        return self.names.index(name)


@dataclass(frozen=True, order=False)
class Monomial:
    """Exponent vector, stored as sorted (rank, exponent>0) pairs."""

    exps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = None
        for r, e in self.exps:
            if last is not None and r <= last:
                raise ValueError("exponents must be sorted by rank, without repeats")
            if e <= 0:
                raise ValueError("zero exponents must not be stored")
            last = r

    @classmethod
    def unit(cls) -> "Monomial":
        return cls(())

    @classmethod
    def generator(cls, rank: int) -> "Monomial":
        return cls(((rank, 1),))

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "Monomial":
        return cls(tuple(sorted((r, e) for r, e in d.items() if e)))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def ranks(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.exps)

    def word(self) -> tuple[int, ...]:
        """Generator ranks with multiplicity, ascending."""
        return tuple(r for r, e in self.exps for _ in range(e))

    def sort_key(self) -> tuple:
        """Ascending sort by this key = ascending inverse-lex order."""
        return tuple(sorted((r, -e) for r, e in self.exps))

    def to_string(self, order: GeneratorOrder) -> str:
        if not self.exps:
            return "1"
        parts = []
        for r, e in self.exps:
            name = order.names[r]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    @classmethod
    def parse(cls, s: str, order: GeneratorOrder) -> "Monomial":
        s = s.strip()
        if s in ("1", ""):
            return cls.unit()
        d: dict[int, int] = {}
        for part in s.split("*"):
            name, caret, exp = (x.strip() for x in part.partition("^"))
            try:
                e = int(exp) if caret else 1
            except ValueError:
                e = None
            if not name or e is None:
                raise ValueError(f"factor {part!r} of {s!r} is not a generator "
                                 "or generator^exponent")
            if e <= 0:
                raise ValueError(f"exponent {exp} of {name} in {s!r} is not positive")
            r = order.rank(name)
            d[r] = d.get(r, 0) + e
        return cls.from_dict(d)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for r, e in b.exps:
        d[r] = d.get(r, 0) + e
    return Monomial.from_dict(d)


def monomial_count(num: int, degree: int, squarefree: bool) -> int:
    """The number of degree-n monomials on num generators."""
    return math.comb(num, degree) if squarefree else math.comb(max(num + degree - 1, 0), degree)


def invlex_words(num: int, degree: int, squarefree: bool) -> np.ndarray:
    """The words (ranks with multiplicity, ascending) of all degree-n monomials
    on num generators (squarefree only if flagged), ascending invlex, which
    is the order of itertools' combinations."""
    pick = itertools.combinations if squarefree else itertools.combinations_with_replacement
    count = monomial_count(num, degree, squarefree)
    return np.fromiter(itertools.chain.from_iterable(pick(range(num), degree)),
                       dtype=np.int64, count=count * degree).reshape(count, degree)


def exponent_rows(num: int, degree: int, squarefree: bool) -> np.ndarray:
    """The exponent rows of `invlex_words`, in the same order."""
    words = invlex_words(num, degree, squarefree)
    rows = np.zeros((len(words), num), dtype=np.int64)
    for column in words.T:
        rows[np.arange(len(words)), column] += 1
    return rows


def _index_terms(rows: np.ndarray, tail: np.ndarray, squarefree: bool) -> np.ndarray:
    """Term r of the invlex index of each row, given its degree after rank r
    (tail): the monomials of its degree that agree with it before r and exceed
    it at r, C(tail + num - r - 2, tail - 1); squarefree, those with a 1 for
    its 0 at r and tail - 1 later ranks, C(num - r - 1, tail - 1)."""
    num, rank = rows.shape[1], np.arange(rows.shape[1])
    if squarefree:
        live, top = (tail > 0) & (rows == 0), num - 1 - rank
    else:
        live, top = tail > 0, tail + (num - 2) - rank
    # dead terms may index -1, valid in a table of at least one row and column
    comb = np.array([[math.comb(a, b) for b in range(max(int(tail.max(initial=0)), 1))]
                     for a in range(max(int(np.max(top, initial=0)), 0) + 1)], dtype=np.int64)
    return comb[top, tail - 1] * live


def times_generators(rows: np.ndarray,
                     squarefree: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each exponent row m (of any degree) and generator g: the invlex
    index of x_g * m, its place in `exponent_rows`, or -1 where it vanishes
    (squarefree, g divides m); m's factors below g, whose parity is the merge
    sign of x_g * m in the free supercommutative algebra; and m's own index.
    An index sums its terms over the ranks, and x_g raises the tail of the
    ranks before g by one."""
    below = np.cumsum(rows, axis=1) - rows
    tail = rows.sum(axis=1, keepdims=True) - below - rows
    same, more = _index_terms(rows, np.stack([tail, tail + 1]), squarefree)
    after = np.cumsum(same[:, ::-1], axis=1)[:, ::-1]
    up = np.cumsum(more, axis=1) - more + after
    if squarefree:  # rank g now holds exponent 1: no term
        up -= same
        up[rows > 0] = -1
    return up, below, after[:, 0] if rows.shape[1] else np.zeros(len(rows), dtype=np.int64)


def monomial_rows(monos: list[Monomial], num: int) -> np.ndarray:
    """The exponent rows of a list of monomials on num generators."""
    exps = [dict(m.exps) for m in monos]
    return np.array([[e.get(r, 0) for r in range(num)] for e in exps],
                    dtype=np.int64).reshape(len(monos), num)


def row_monomials(rows: np.ndarray) -> list[Monomial]:
    """The monomials of exponent rows."""
    return [Monomial(tuple((r, e) for r, e in enumerate(row) if e)) for row in rows.tolist()]
