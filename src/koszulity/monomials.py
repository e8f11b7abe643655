"""Commutative monomials over a finite ordered generator list.

The generator list is totally ordered by position.  Monomials of a fixed
degree are compared by the degreewise inverse lexicographical order: the
first generator (by rank) whose exponents differ decides, and the *larger*
exponent wins as the *smaller* monomial.  So x0*x3 < x1*x2 on four
generators, and x0^2 < x0*x1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

LT, EQ, GT = -1, 0, 1


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
        ranks = [r for r, _ in self.exps]
        if ranks != sorted(set(ranks)):
            raise ValueError("exponents must be sorted by rank, without repeats")
        if any(e <= 0 for _, e in self.exps):
            raise ValueError("zero exponents must not be stored")

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

    def exponent(self, rank: int) -> int:
        for r, e in self.exps:
            if r == rank:
                return e
        return 0

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def ranks(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.exps)

    def word(self) -> tuple[int, ...]:
        """Generator ranks with multiplicity, ascending."""
        return tuple(r for r, e in self.exps for _ in range(e))

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(r) >= e for r, e in self.exps)

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
            if "^" in part:
                name, exp = part.split("^")
                e = int(exp)
                if e <= 0:
                    raise ValueError(f"exponent {exp.strip()} of {name.strip()} in {s!r} "
                                     "is not positive")
            else:
                name, e = part, 1
            r = order.rank(name.strip())
            d[r] = d.get(r, 0) + e
        return cls.from_dict(d)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for r, e in b.exps:
        d[r] = d.get(r, 0) + e
    return Monomial.from_dict(d)


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
    """All degree-n monomials (squarefree only if flagged), ascending invlex."""
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
    """All degree-d monomials dividing m, ascending invlex."""
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
