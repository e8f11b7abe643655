"""Quadratic (super)commutative algebras over F_l and their degreewise form.

A presentation holds quadratic relations in the free commutative or free
supercommutative algebra on an ordered generator list.  Its expansion has
as degree-n basis the standard monomials (the PBW basis), and one builder
reads the generator actions off merge signs for it, for free algebras and
for monomial algebras (gr^F A).  Degreewise algebras can also be built
directly, e.g. from symbol data.  Monomial products are lookups in
`monomials.times_generators` tables of exponent rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import gf
from .gf import PrimeField
from .monomials import (GeneratorOrder, Monomial, exponent_rows, invlex_words, monomial_count,
                        row_monomials, times_generators)


class SymmetryMode(enum.Enum):
    COMMUTATIVE = "comm"
    SUPERCOMMUTATIVE = "super"


def normal_monomials(order: GeneratorOrder, degree: int, mode: SymmetryMode) -> list[Monomial]:
    """Normal-form monomial basis of the free algebra in the given degree."""
    return row_monomials(exponent_rows(len(order), degree, mode is SymmetryMode.SUPERCOMMUTATIVE))


def _normal_forms(rows, p: int) -> dict[int, dict[int, int]]:
    """Normal forms modulo the span of rows, {index: value} dicts over
    monomials indexed in invlex order: {lead: form} for every greatest-index
    pivot of the span (`gf.dict_pivots`), the form over the standard
    indices, those that lead nothing.  Leads are taken in ascending order,
    and each pivot vector rewrites its lower entries through the forms
    already found, so e_lead = form mod the span.  Exact in Python ints."""
    forms: dict[int, dict[int, int]] = {}
    for lead, (inv, vec) in sorted(gf.dict_pivots(rows, p).items()):
        form: dict[int, int] = {}
        for k, x in vec.items():
            if k != lead:
                for j, y in forms.get(k, {k: 1}).items():
                    form[j] = (form.get(j, 0) - inv * x * y) % p
        forms[lead] = {j: y for j, y in form.items() if y}
    return forms


@dataclass
class QuadraticPresentation:
    """Quadratic algebra: generators plus degree-2 relations.

    Relations are linear combinations of normal quadratic monomials, kept
    reduced: row r is e_lead minus the normal form of its lead monomial,
    greatest lead first, with leads on the invlex-largest monomials.
    `components(n_max)` takes I_n's rows m * r sparsely into `gf.dict_pivots`,
    as F4 does: the standard monomials, those that lead no element of I_n,
    are the basis of A_n, and the others are rewritten by their normal forms.
    """

    fld: PrimeField
    mode: SymmetryMode
    order: GeneratorOrder
    relations: np.ndarray = None  # shape (num_relations, num_quadratics)

    def __post_init__(self) -> None:
        self._quad = normal_monomials(self.order, 2, self.mode)
        nq = len(self._quad)
        rel = np.zeros((0, nq), dtype=np.int64) if self.relations is None or \
            not np.size(self.relations) else gf.as_array(self.relations, self.fld.l)
        if rel.shape[0] and rel.shape[1] != nq:
            raise ValueError("relation vectors must be indexed by normal quadratics")
        forms = _normal_forms(({j: int(row[j]) for j in np.flatnonzero(row)} for row in rel),
                              self.fld.l)
        self.relations = np.zeros((len(forms), nq), dtype=np.int64)
        for row, lead in zip(self.relations, sorted(forms, reverse=True)):
            row[lead] = 1
            for j, y in forms[lead].items():
                row[j] = -y % self.fld.l

    @property
    def quadratic_monomials(self) -> list[Monomial]:
        return self._quad

    @classmethod
    def from_combos(cls, fld, mode, order, combos: list[dict[Monomial, int]]):
        quad = normal_monomials(order, 2, mode)
        idx = {m: i for i, m in enumerate(quad)}
        rel = np.zeros((len(combos), len(quad)), dtype=np.int64)
        for r, combo in enumerate(combos):
            for m, c in combo.items():
                if m not in idx:
                    raise ValueError(f"{m} is not a normal quadratic monomial")
                rel[r, idx[m]] = c % fld.l
        return cls(fld, mode, order, rel)

    def components(self, n_max: int) -> list[tuple[np.ndarray, list[int], dict]]:
        """For each degree n through n_max: the exponent rows of the normal
        monomials, the invlex indices of the standard ones (the basis of A_n),
        and the normal forms of the others.  A term c * x_a * x_b (a <= b) of
        a relation gives row m * r of I_n the term c * x_a * (x_b * m): two
        lookups in one `times_generators` table, signed in super mode by the
        parity of m's factors below a and below b."""
        p, num = self.fld.l, len(self.order)
        sq = self.mode is SymmetryMode.SUPERCOMMUTATIVE
        rows = [exponent_rows(num, n, sq) for n in range(n_max + 1)]
        start = np.cumsum([0] + [len(r) for r in rows]).tolist()
        up, below, _ = times_generators(np.concatenate(rows[:max(n_max, 1)]), sq)
        rel, col = np.nonzero(self.relations)
        a, b = invlex_words(num, 2, sq)[col].T
        coef = self.relations[rel, col]
        ends = np.searchsorted(rel, np.arange(len(self.relations) + 1)).tolist()
        out = []
        for n, monos in enumerate(rows):
            forms = {}
            if n >= 2:
                lower = slice(start[n - 2], start[n - 1])
                mid = up[lower, b]  # x_b * m in degree n - 1
                at = start[n - 1] + mid
                key = np.where(mid >= 0, up[at, a], -1)
                odd = (below[lower, b] + below[at, a]) % 2 if sq else 0
                value = np.where(key >= 0, np.where(odd, p - coef, coef), 0)
                forms = _normal_forms(({k: v for k, v in zip(ks[s:e], vs[s:e]) if v}
                                       for ks, vs in zip(key.tolist(), value.tolist())
                                       for s, e in zip(ends, ends[1:])), p)
            out.append((monos, [i for i in range(len(monos)) if i not in forms], forms))
        return out


def presentation_to_json(pres: QuadraticPresentation) -> dict:
    """Presentation as a plain dict: generators plus relation term lists."""
    rels = []
    for row in pres.relations:
        rels.append([
            {"mono": pres.quadratic_monomials[j].to_string(pres.order),
             "coef": int(c)}
            for j, c in enumerate(row) if c
        ])
    return {
        "l": pres.fld.l,
        "mode": pres.mode.value,
        "generators": list(pres.order.names),
        "relations": rels,
    }


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def presentation_from_json(obj: dict) -> QuadraticPresentation:
    fld = PrimeField(_json_int(obj["l"], "l"))
    mode = SymmetryMode(obj["mode"])
    names, rels = obj["generators"], obj["relations"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise TypeError("generators must be a list of strings")
    for name in names:  # Monomial.parse must read each name back as itself
        if name in ("", "1") or name != name.strip() or "*" in name or "^" in name:
            raise ValueError(f"generator name {name!r} cannot be read in a relation term")
    if not isinstance(rels, list) or not all(
            isinstance(rel, list) and all(isinstance(t, dict) for t in rel) for rel in rels):
        raise TypeError("relations must be a list of lists of objects")
    order = GeneratorOrder(tuple(names))
    combos: list[dict[Monomial, int]] = []
    for rel in rels:
        combo: dict[Monomial, int] = {}
        for term in rel:
            if not isinstance(term["mono"], str):
                raise TypeError(f"relation term {term['mono']!r} is not a string")
            m = Monomial.parse(term["mono"], order)
            if m.degree != 2:
                raise ValueError(f"relation term {term['mono']!r} is not quadratic")
            combo[m] = (combo.get(m, 0) + _json_int(term["coef"], "coef")) % fld.l
        combos.append(combo)
    return QuadraticPresentation.from_combos(fld, mode, order, combos)


@dataclass
class DegreewiseAlgebra:
    """Graded algebra given degree by degree through a truncation bound.

    dims[n] is dim A_n; gen_action[n][g] is the matrix of left multiplication
    by generator g from A_n to A_{n+1}.  A_0 = k and A_1 has the generators
    as its basis, in order.  When the algebra is genuinely monomial (products
    of basis monomials are +-monomial or zero) monomial_basis carries the
    basis monomial of each basis vector, which enables the multigraded
    homology fast path.
    """

    fld: PrimeField
    mode: SymmetryMode
    order: GeneratorOrder
    n_max: int
    dims: list[int]
    gen_action: list[list[np.ndarray]]  # [n][g] -> (dims[n+1], dims[n])
    basis_monomials: list[list[Monomial]] | None = None
    monomial: bool = False
    _word_cache: dict = field(default_factory=dict, repr=False)
    _mult_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.dims[0] != 1:
            raise ValueError("dim A_0 must be 1")
        if self.dims[1] != len(self.order):
            raise ValueError("A_1 must have the generators as a basis")

    @property
    def num_generators(self) -> int:
        return len(self.order)

    def word_basis(self, n: int) -> tuple[list[Monomial], np.ndarray]:
        """Invlex-least monomial words whose values form a basis of A_n, and
        the coordinates of the basis of A_n in them.

        This is also the PBW survivor scan: a word is kept exactly when its
        value leaves the span of the values of all smaller words, so the words
        are the basis of gr^F A_n: the pivot columns of one `rref` of the
        values of the normal monomials, stacked as columns.  Row i of the
        coordinate matrix writes the basis vector e_i as a combination of the
        word values (coordinates @ values = I mod l), in an identity block
        beside the values.  The monomials of degree k with least generator g
        are an invlex block, x_g times the last ones of degree k - 1 (on the
        generators from g on, after g if squarefree): their values are
        gen_action[k - 1][g] @ those values mod l, each word's product chain.
        """
        if n in self._word_cache:
            return self._word_cache[n]
        p, num = self.fld.l, self.num_generators
        sq = self.mode is SymmetryMode.SUPERCOMMUTATIVE
        values = np.ones((1, 1), dtype=np.int64)
        for k in range(n + 1):
            if k == 1:
                values = np.eye(num, dtype=np.int64)
            elif k > 1:
                end = monomial_count(num, k - 1, sq)
                starts = [end - monomial_count(num - g - sq, k - 1, sq) for g in range(num)]
                values = np.concatenate([np.zeros((self.dims[k], 0), dtype=np.int64)] +
                                        [(self.gen_action[k - 1][g] @ values[:, s:]) % p
                                         for g, s in enumerate(starts)], axis=1)
            if k not in self._word_cache:
                d, size = self.dims[k], values.shape[1]
                red, pivots = gf.rref(np.hstack([values, np.eye(d, dtype=np.int64)]), p)
                if pivots and pivots[-1] >= size:
                    raise ValueError(f"A_{k} is not spanned by monomials in the generators")
                self._word_cache[k] = (row_monomials(exponent_rows(num, k, sq)[pivots]),
                                       np.ascontiguousarray(red[:, size:].T))
        return self._word_cache[n]

    def element_product(self, u: np.ndarray, n: int, v: np.ndarray, m: int) -> np.ndarray:
        """Product of u in A_n and v in A_m, landing in A_(n+m)."""
        if n + m > self.n_max:
            raise ValueError("degree overflow past the truncation bound")
        p = self.fld.l
        mult = self.mult_matrix(n, m).reshape(self.dims[n + m], self.dims[n], self.dims[m])
        return (((mult @ (np.asarray(v, dtype=np.int64) % p)) % p)
                @ (np.asarray(u, dtype=np.int64) % p)) % p

    def mult_matrix(self, d: int, e: int) -> np.ndarray:
        """Matrix of A_d x A_e -> A_(d+e); column index = i_d * dims[e] + i_e."""
        key = (d, e)
        if key not in self._mult_cache:
            self._mult_cache[key] = word_action(self, self.gen_action, self.dims, d, e)
        return self._mult_cache[key]


def word_action(a: DegreewiseAlgebra, action, dims: list[int], d: int, n: int) -> np.ndarray:
    """Matrix of A_d x X_n -> X_(n+d) for a graded space X on which the
    generators act by action[n][g]: X_n -> X_(n+1).  Column index =
    i_d * dims[n] + i_n.

    Each word of a.word_basis(d) acts as the composite of its generator
    matrices, and basis vector i of A_d as the combination of these composites
    given by row i of the word coordinates.  When X is A itself, associativity
    makes this the product e_i * f_j, so no supercommutative sign enters.
    """
    p = a.fld.l
    words, coords = a.word_basis(d)
    composites = np.zeros((len(words), dims[n + d], dims[n]), dtype=np.int64)
    for k, w in enumerate(words):
        # left action of the word g1 g2 ... gd: apply gd first
        m = np.eye(dims[n], dtype=np.int64)
        deg = n
        for g in reversed(w.word()):
            m = (action[deg][g] @ m) % p
            deg += 1
        composites[k] = m
    blocks = np.tensordot(coords, composites, axes=(1, 0)) % p
    return blocks.transpose(1, 0, 2).reshape(dims[n + d], a.dims[d] * dims[n])


def _monomial_basis_algebra(fld: PrimeField, mode: SymmetryMode, order: GeneratorOrder,
                            bases: list[np.ndarray], forms=None) -> DegreewiseAlgebra:
    """The algebra whose degree-n basis is the normal monomials of the
    exponent rows bases[n].  x_g * m, with its merge sign, is looked up in one
    `times_generators` table; outside the basis it is read through its normal
    form forms[n + 1][index] over invlex indices, and without forms (a
    monomial algebra) it is 0."""
    if len(bases) < 3:
        raise ValueError("n_max must be >= 2")
    p, num, sq = fld.l, len(order), mode is SymmetryMode.SUPERCOMMUTATIVE
    rows = np.concatenate(bases)
    if sq and (rows > 1).any():
        raise ValueError("a supercommutative basis monomial must be squarefree")
    start = np.cumsum([0] + [len(b) for b in bases]).tolist()
    up, below, index = times_generators(rows, sq)
    gen_action: list[list[np.ndarray]] = []
    for n in range(len(bases) - 1):
        pos = np.full(monomial_count(num, n + 1, sq), -1)
        pos[index[start[n + 1]:start[n + 2]]] = np.arange(len(bases[n + 1]))
        col, g = np.nonzero(up[start[n]:start[n + 1]] >= 0)
        prod = up[start[n] + col, g]
        sign = np.where(below[start[n] + col, g] % 2, p - 1, 1) if sq else np.ones_like(col)
        mats = np.zeros((num, len(bases[n + 1]), len(bases[n])), dtype=np.int64)
        hit = pos[prod] >= 0
        mats[g[hit], pos[prod[hit]], col[hit]] = sign[hit]
        for c, h, i, s in zip(*(x[~hit].tolist() for x in (col, g, prod, sign))) if forms else ():
            for j, y in forms[n + 1][i].items():
                mats[h, pos[j], c] = s * y % p
        gen_action.append(list(mats))
    return DegreewiseAlgebra(fld, mode, order, len(bases) - 1, [len(b) for b in bases],
                             gen_action, basis_monomials=[row_monomials(b) for b in bases],
                             monomial=forms is None)


def degreewise_expand(p: QuadraticPresentation, n_max: int) -> DegreewiseAlgebra:
    """Expand a presentation into explicit bases and generator actions."""
    comps = p.components(n_max)
    return _monomial_basis_algebra(p.fld, p.mode, p.order,
                                   [rows[basis] for rows, basis, _ in comps],
                                   [forms for _, _, forms in comps])


def free_algebra(fld: PrimeField, mode: SymmetryMode, order: GeneratorOrder,
                 n_max: int) -> DegreewiseAlgebra:
    """The free (super)commutative algebra through n_max, a monomial algebra."""
    sq = mode is SymmetryMode.SUPERCOMMUTATIVE
    return _monomial_basis_algebra(fld, mode, order,
                                   [exponent_rows(len(order), n, sq) for n in range(n_max + 1)])


@dataclass
class ModuleTruncation:
    """Positively graded module truncation with generator action matrices.

    dims[n] is dim M_n for 1 <= n <= n_max (dims[0] = 0); action[n][g] maps
    M_n to M_(n+1).  The acting algebra is `algebra`.
    """

    algebra: DegreewiseAlgebra
    dims: list[int]
    action: list[list[np.ndarray]]
    basis_monomials: list[list[Monomial]] | None = None
    monomial: bool = False
    _act_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_max(self) -> int:
        return len(self.dims) - 1

    def action_matrix(self, d: int, n: int) -> np.ndarray:
        """Matrix of A_d x M_n -> M_(n+d); column index = i_d * dims[n] + i_n."""
        key, a = (d, n), self.algebra
        if key not in self._act_cache:  # A_+ over A, n, d >= 1: the same as a.mult_matrix
            same = n * d and all(self.action[k] is a.gen_action[k] for k in range(n, n + d))
            self._act_cache[key] = a.mult_matrix(d, n) if same else \
                word_action(a, self.action, self.dims, d, n)
        return self._act_cache[key]


def augmentation_module(a: DegreewiseAlgebra, b: DegreewiseAlgebra) -> ModuleTruncation:
    """A_+ as a module over b, acting through the shared generator list."""
    if a.order.names != b.order.names:
        raise ValueError("generator lists differ")
    n_max = min(a.n_max, b.n_max)
    dims = [0] + [a.dims[n] for n in range(1, n_max + 1)]
    action = [None] + [a.gen_action[n] for n in range(1, n_max)]
    mono = a.basis_monomials
    return ModuleTruncation(
        b, dims, action,
        basis_monomials=[[]] + [mono[n] for n in range(1, n_max + 1)] if mono else None,
        monomial=a.monomial and b.monomial,
    )


def ideal_module(a: DegreewiseAlgebra, c: np.ndarray) -> ModuleTruncation:
    """The principal ideal c*A as a graded module over a, with M_1 = span(c).

    M_n = c*A_(n-1) is the column space of sum_g c_g gen_action[n-1][g], kept
    as the rows of its reduced echelon form.
    """
    p = a.fld.l
    c = np.asarray(c, dtype=np.int64) % p
    if not c.any():
        raise ValueError("c must be a nonzero degree-1 element")
    bases: list[np.ndarray] = [np.zeros((0, 1), dtype=np.int64)]
    pivots: list[list[int]] = [[]]
    for n in range(1, a.n_max + 1):
        times_c = sum(int(c[g]) * a.gen_action[n - 1][g] for g in np.flatnonzero(c)) % p
        basis, piv = gf.rref(times_c.T, p)
        bases.append(basis)
        pivots.append(piv)
    dims = [0] + [b.shape[0] for b in bases[1:]]
    action: list[list[np.ndarray] | None] = [None]
    for n in range(1, a.n_max):
        # bases[n + 1] is in reduced echelon form: coordinates of a vector
        # of its span sit at the pivot columns
        imgs = np.concatenate([(mat @ bases[n].T) % p for mat in a.gen_action[n]], axis=1)
        coords = imgs[pivots[n + 1]]
        if ((bases[n + 1].T @ coords - imgs) % p).any():
            raise ValueError("ideal not closed under the generator action")
        action.append(np.split(coords, a.num_generators, axis=1))
    m = ModuleTruncation(a, dims, action)
    m.subspace_bases = bases
    return m
