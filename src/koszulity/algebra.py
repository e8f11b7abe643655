"""Quadratic (super)commutative algebras over F_l and their degreewise form.

A presentation holds quadratic relations in the free commutative or free
supercommutative algebra on an ordered generator list.  Every degreewise
algebra has as degree-n basis its invlex survivors (the PBW basis), and one
constructor reads the generator actions off merge signs and normal forms
for it: for expansions, whose survivors are the standard monomials, for free
and monomial algebras (gr^F A), and for algebras given by the values of
their normal monomials (the symbol and local models), whose survivors and
normal forms come from one `gf.rref` per degree.  Monomial products are
lookups in `monomials.times_generators` tables of exponent rows.
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


def _normal_forms(rows, p: int, count: int) -> tuple[list[int], np.ndarray]:
    """Normal forms modulo the span of rows, over the `count` monomials
    indexed in invlex order: the standard indices, those that lead no
    greatest-index pivot of the span (`gf.dict_pivots`), and the matrix whose
    column k holds the coordinates over them of the normal form of monomial
    k.  Leads are taken in ascending order, and each pivot vector rewrites
    its lower entries through the columns already found, so e_lead = form
    mod the span."""
    pivots = sorted(gf.dict_pivots(rows, p).items())
    basis = sorted(set(range(count)).difference(lead for lead, _ in pivots))
    forms = np.zeros((len(basis), count), dtype=np.int64)
    forms[range(len(basis)), basis] = 1
    for lead, (inv, vec) in pivots:
        lower = [k for k in vec if k != lead]
        forms[:, lead] = (forms[:, lower] @ np.array([vec[k] for k in lower], dtype=np.int64)
                          % p) * (p - inv) % p
    return basis, forms


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
        basis, forms = _normal_forms(({j: int(row[j]) for j in np.flatnonzero(row)}
                                      for row in rel), self.fld.l, nq)
        leads = sorted(set(range(nq)).difference(basis), reverse=True)
        self.relations = np.zeros((len(leads), nq), dtype=np.int64)
        self.relations[range(len(leads)), leads] = 1
        self.relations[:, basis] = -forms[:, leads].T % self.fld.l

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

    def components(self, n_max: int) -> list[tuple[np.ndarray, list[int], np.ndarray]]:
        """For each degree n through n_max: the exponent rows of the normal
        monomials, the invlex indices of the standard ones (the basis of A_n),
        and the normal forms of all, column k over the standard monomials for
        the monomial of index k (`_normal_forms`).  A term c * x_a * x_b
        (a <= b) of a relation gives row m * r of I_n the term
        c * x_a * (x_b * m): two lookups in one `times_generators` table,
        signed in super mode by the parity of m's factors below a and below b."""
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
            vectors = ()
            if n >= 2:
                lower = slice(start[n - 2], start[n - 1])
                mid = up[lower, b]  # x_b * m in degree n - 1
                at = start[n - 1] + mid
                key = np.where(mid >= 0, up[at, a], -1)
                odd = (below[lower, b] + below[at, a]) % 2 if sq else 0
                value = np.where(key >= 0, np.where(odd, p - coef, coef), 0)
                vectors = ({k: v for k, v in zip(ks[s:e], vs[s:e]) if v}
                           for ks, vs in zip(key.tolist(), value.tolist())
                           for s, e in zip(ends, ends[1:]))
            out.append((monos, *_normal_forms(vectors, p, len(monos))))
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
    by generator g from A_n to A_{n+1}.  basis_monomials[n] lists the basis
    of A_n: the invlex survivors among the degree-n normal monomials (the PBW
    basis of gr^F A), basis vector i being the value of basis_monomials[n][i];
    so A_0 = k and A_1 has the generators as its basis, in order.  Only
    `_monomial_basis_algebra` builds one.  When the algebra is genuinely
    monomial (products of basis monomials are +-monomial or zero) the flag
    `monomial` enables the multigraded homology fast path.
    """

    fld: PrimeField
    mode: SymmetryMode
    order: GeneratorOrder
    n_max: int
    dims: list[int]
    gen_action: list[list[np.ndarray]]  # [n][g] -> (dims[n+1], dims[n])
    basis_monomials: list[list[Monomial]]
    monomial: bool = False
    _mult_cache: dict = field(default_factory=dict, repr=False)

    @property
    def num_generators(self) -> int:
        return len(self.order)

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

    Basis vector i of A_d is the value of its basis monomial, so it acts as
    the composite of the generator matrices along that monomial's word.
    When X is A itself, associativity makes this the product e_i * f_j, so
    no supercommutative sign enters.
    """
    p = a.fld.l
    out = np.zeros((dims[n + d], a.dims[d], dims[n]), dtype=np.int64)
    for k, w in enumerate(a.basis_monomials[d]):
        # left action of the word g1 g2 ... gd: apply gd first
        m = np.eye(dims[n], dtype=np.int64)
        deg = n
        for g in reversed(w.word()):
            m = (action[deg][g] @ m) % p
            deg += 1
        out[:, k] = m
    return out.reshape(dims[n + d], a.dims[d] * dims[n])


def _monomial_basis_algebra(fld: PrimeField, mode: SymmetryMode, order: GeneratorOrder,
                            bases: list[np.ndarray], forms=None) -> DegreewiseAlgebra:
    """The algebra whose degree-n basis is the normal monomials of the
    exponent rows bases[n].  x_g * m, with its merge sign, is looked up in one
    `times_generators` table and read through forms[n + 1], whose column k
    holds the coordinates in the basis of the normal monomial of invlex index
    k.  Without forms (a monomial algebra) a monomial outside the basis is 0."""
    if len(bases) < 3:
        raise ValueError("n_max must be >= 2")
    p, num, sq = fld.l, len(order), mode is SymmetryMode.SUPERCOMMUTATIVE
    rows = np.concatenate(bases)
    if sq and (rows > 1).any():
        raise ValueError("a supercommutative basis monomial must be squarefree")
    start = np.cumsum([0] + [len(b) for b in bases]).tolist()
    up, below, index = times_generators(rows, sq)
    monomial = forms is None
    if monomial:
        forms = [np.zeros((len(b), monomial_count(num, n, sq)), dtype=np.int64)
                 for n, b in enumerate(bases)]
        for n, f in enumerate(forms):
            f[np.arange(len(f)), index[start[n]:start[n + 1]]] = 1
    gen_action: list[list[np.ndarray]] = []
    for n in range(len(bases) - 1):
        col, g = np.nonzero(up[start[n]:start[n + 1]] >= 0)
        prod = up[start[n] + col, g]
        sign = np.where(below[start[n] + col, g] % 2, p - 1, 1) if sq else np.ones_like(col)
        mats = np.zeros((num, len(bases[n + 1]), len(bases[n])), dtype=np.int64)
        mats[g, :, col] = forms[n + 1][:, prod].T * sign[:, None] % p
        gen_action.append(list(mats))
    return DegreewiseAlgebra(fld, mode, order, len(bases) - 1, [len(b) for b in bases],
                             gen_action, [row_monomials(b) for b in bases], monomial)


def degreewise_expand(p: QuadraticPresentation, n_max: int) -> DegreewiseAlgebra:
    """Expand a presentation into explicit bases and generator actions."""
    comps = p.components(n_max)
    return _monomial_basis_algebra(p.fld, p.mode, p.order,
                                   [rows[basis] for rows, basis, _ in comps],
                                   [forms for _, _, forms in comps])


def value_algebra(fld: PrimeField, mode: SymmetryMode, order: GeneratorOrder, n_max: int,
                  value) -> DegreewiseAlgebra:
    """The algebra spanned in each degree n >= 2 by the values of the normal
    monomials: value(n, rows) holds as its columns the values, in some
    coordinate space, of the monomials with exponent rows `rows`, and x_g *
    m times its merge sign must take a value linear in m's.  One `gf.rref`
    per degree puts the invlex survivors, the basis of A_n, at its pivot
    columns, and in column k the coordinates of monomial k over them: the
    forms of `_monomial_basis_algebra`.  Past a degree with no survivor,
    A_n = A_1 A_(n-1) is 0 and no value is taken."""
    p, num, sq = fld.l, len(order), mode is SymmetryMode.SUPERCOMMUTATIVE
    bases = [exponent_rows(num, n, sq) for n in (0, 1)]
    forms = [np.eye(len(b), dtype=np.int64) for b in bases]
    for n in range(2, n_max + 1):
        if len(bases[-1]):
            rows = exponent_rows(num, n, sq)
            red, pivots = gf.rref(value(n, rows), p)
        else:  # no product reads these forms
            rows, red, pivots = bases[-1], forms[-1], []
        bases.append(rows[pivots])
        forms.append(red)
    return _monomial_basis_algebra(fld, mode, order, bases, forms)


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
    return ModuleTruncation(b, dims, action, [[]] + a.basis_monomials[1:n_max + 1],
                            a.monomial and b.monomial)


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
