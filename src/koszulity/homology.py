"""Bidegree homology H_{i,j} = Tor_{i,j} over F_l, with Koszulity diagnosis.

Every table is a module table Tor_{i,j}(k, M).  The algebra table is the
module table of M = A_+ shifted up by one in i: A is free, so the sequence
0 -> A_+ -> A -> k -> 0 gives Tor_{i,j}(k,k) = Tor_{i-1,j}(k,A_+) for i >= 1,
and Tor_{0,0}(k,k) = 1.  Term for term, the bar complex of A_+ in homological
degree i is the reduced bar complex of k in degree i+1.

Three engines compute the same module table:

* the bar complex on integer indices, as blocks of sparse columns, each
  checked for d^2=0 by its full exact product and ranked by sparse
  elimination on its own.  When the algebra and module have a monomial
  basis the differential preserves the total exponent vector, so the
  complex splits by multidegree into many tiny blocks; otherwise each
  internal degree is one block, the unsplit bar.  Monomial blocks repeat:
  every factor of a tuple in the mu-block divides mu, so the block is that
  of the restriction of A and M to the support of mu (the restriction
  behind Hochster's formula).  Its key, `_BlockKeys`, names that
  restriction exactly, structure constants included, up to an order of
  the support; within one call each key's block is built, checked and
  ranked once, and later multidegrees with the key add its homology.  An
  input whose monomials could not make the key exact builds every block;
* a minimal free resolution built degree by degree, where Tor_{i,j} is read
  off as the number of degree-j generators of the i-th syzygy module (valid
  because the algebras here are generated in degree 1, so minimal
  generators are computed by the graded Nakayama rule (A_+ K)_j = A_1 K_{j-1});
* the Koszul complex M (x) Gamma, for modules over a free exterior algebra.

`tor_module`'s `auto` rule, the only one, picks the bar complex when A and M
are monomial or the largest unsplit bar term has at most DENSE_BAR_LIMIT
basis vectors, else the Koszul complex over a free exterior algebra, else
the resolution.  The bar complex is the ground truth; the others are
optimizations audited against it in the test suite.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import gf
from .algebra import DegreewiseAlgebra, ModuleTruncation, augmentation_module
from .monomials import mono_enumerate


class TorKind(enum.Enum):
    ALGEBRA = "algebra"
    MODULE = "module"


@dataclass
class TorTable:
    kind: TorKind
    i_max: int
    j_max: int
    dims: dict[tuple[int, int], int]

    def entry(self, i: int, j: int) -> int:
        return self.dims.get((i, j), 0)

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "i_max": self.i_max,
            "j_max": self.j_max,
            "dims": [[self.entry(i, j) for j in range(self.j_max + 1)]
                     for i in range(self.i_max + 1)],
        }

    def to_text(self) -> str:
        width = max(2, *(len(str(v)) for v in self.dims.values())) if self.dims else 2
        head = "i\\j " + " ".join(f"{j:>{width}}" for j in range(self.j_max + 1))
        lines = [head]
        for i in range(self.i_max + 1):
            row = " ".join(f"{self.entry(i, j):>{width}}" for j in range(self.j_max + 1))
            lines.append(f"{i:>3} " + row)
        return "\n".join(lines)


@dataclass
class KoszulVerdict:
    koszul_through_bound: bool
    offenders: list[tuple[int, int, int]]


def koszul_scan(t: TorTable) -> KoszulVerdict:
    """Off-strand entries: i != j for algebras, i != j-1 for modules."""
    offenders = []
    for (i, j), d in sorted(t.dims.items()):
        if d == 0:
            continue
        strand = j if t.kind is TorKind.ALGEBRA else j - 1
        if i != strand:
            offenders.append((i, j, d))
    return KoszulVerdict(not offenders, offenders)


# ------------------------------------------------------------- bar complex


def _bar_term_dims(a: DegreewiseAlgebra, m: ModuleTruncation, j: int) -> list[int]:
    """The sizes of the terms i = 0, ..., j + 1 of the bar complex of M in
    internal degree j: the i-th is A_+^(x i) (x) M_+, every factor of
    positive degree."""
    t = [m.dims[e] if e else 0 for e in range(j + 1)]
    sizes = [t[j]]
    for _ in range(j + 1):
        t = [sum(a.dims[d] * t[e - d] for d in range(1, e + 1)) for e in range(j + 1)]
        sizes.append(t[j])
    return sizes


class _SplitBasis:
    """The algebra and module in integers: the basis vectors of A_d and M_e,
    d, e <= j_max, are the global indices in alg[d] and mod[e], and
    prod[g1][g2] lists the terms (coef, g) of g1 * g2 != 0.  When A and M are
    monomial, mono[g] is g's basis monomial and key[g] its exponent vector
    read in base n_max + 1, so keys add under products; otherwise mono is
    None and every key is 0."""

    def __init__(self, a: DegreewiseAlgebra, m: ModuleTruncation, j_max: int):
        self.p, self.alg, self.mod = a.fld.l, [], []
        size = 0
        for ranges, dims in ((self.alg, a.dims), (self.mod, m.dims)):
            for d in dims[:j_max + 1]:
                ranges.append(range(size, size + d))
                size += d
        self.base = a.n_max + 1
        self.mono = [mo for bases in (a.basis_monomials, m.basis_monomials)
                     for monos in bases[:j_max + 1] for mo in monos] \
            if _monomial(a, m) else None
        self.key = [sum(e * self.base ** r for r, e in mo.exps) for mo in self.mono] \
            if self.mono is not None else [0] * size
        self.prod: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(size)]
        for d in range(1, j_max + 1):
            for e in range(1, j_max + 1 - d):
                for product, right in ((a.mult_matrix, self.alg), (m.action_matrix, self.mod)):
                    if self.alg[d] and right[e] and right[d + e]:
                        self._record(product(d, e), self.alg[d], right[e], right[d + e])

    def _record(self, mat: np.ndarray, left: range, src: range, tgt: range) -> None:
        """Enter the terms read off mat, whose column i * len(src) + k is
        left[i] * src[k] in the basis tgt.  A term whose key is not the sum of
        its factors' keys fails: the product is then not monomial."""
        key, prod, n = self.key, self.prod, len(src)
        rows, cols = np.nonzero(mat)
        for r, c, v in zip((tgt.start + rows).tolist(), cols.tolist(),
                           mat[rows, cols].tolist()):
            g1, g2 = left.start + c // n, src.start + c % n
            if key[r] != key[g1] + key[g2]:
                raise ValueError("product is not monomial")
            prod[g1].setdefault(g2, []).append((v, r))


class _BlockKeys:
    """Complete invariants of the blocks of a monomial bar complex.

    Every factor of a tuple in the mu-block divides mu, so the block is the
    mu-block of the restriction of A and M to S = supp mu: the basis vectors
    of positive degree whose monomials live on S, each named by (A or M, its
    degree, its exponent vector on S), with every product term among them,
    structure constants included.  An order of S that carries the
    restriction to S onto the restriction to T, names and terms alike,
    carries the tuples of the mu-block onto those of the relabelled mu and
    every coefficient of d with them, so the two blocks have the same
    homology.  The key of mu is therefore the id of its restriction, interned
    once per support and order, and mu read on S in that order.  Supports of
    at most three variables take the least id over all their orders, then
    the least mu among the orders that reach it; larger ones keep the order
    of the variables, where trying every order costs more than it saves."""

    def __init__(self, st: _SplitBasis):
        n = 1 + max((r for mo in st.mono for r, _ in mo.exps), default=-1)
        self.base, self.powers = st.base, [st.base ** r for r in range(n)]
        # (A or M, degree, exponent vector) and the support, as a bit mask
        self.label: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        self.mask: dict[int, int] = {}
        for kind, ranges in enumerate((st.alg, st.mod)):
            for d, basis in enumerate(ranges[1:], 1):
                for g in basis:
                    exps = [0] * n
                    for r, e in st.mono[g].exps:
                        exps[r] = e
                    self.label[g] = (kind, d, tuple(exps))
                    self.mask[g] = sum(1 << r for r, _ in st.mono[g].exps)
        # a product term lives on the support of its value
        self.terms = [(self.mask[g], g1, g2, coef, g) for g1 in self.label
                      for g2, products in st.prod[g1].items() for coef, g in products]
        self.ids: dict[tuple, int] = {}
        self.supports: dict[tuple[int, ...], tuple[int, list[tuple[int, ...]]]] = {}

    def exact(self) -> bool:
        """Do the keys tell blocks apart?  The names must tell the basis
        vectors apart: two vectors with one name would make two different
        restrictions look alike.  And no monomial may have a degree above its
        vector's, so that every exponent of mu, at most j <= n_max, is one
        digit and mu reads back exactly."""
        return len(set(self.label.values())) == len(self.label) and \
            all(sum(exps) <= d for _, d, exps in self.label.values())

    def __call__(self, mu: int) -> tuple[int, tuple[int, ...]]:
        exps = [mu // q % self.base for q in self.powers]
        s = tuple(r for r, e in enumerate(exps) if e)
        if s not in self.supports:
            self.supports[s] = self._restriction(s)
        sid, orders = self.supports[s]
        return sid, min(tuple(exps[r] for r in o) for o in orders)

    def _restriction(self, s: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
        """The least id of the restriction to s over the orders of s tried,
        and the orders that reach it."""
        off = ~sum(1 << r for r in s)
        inside = [(g, lab) for g, lab in self.label.items() if not self.mask[g] & off]
        terms = [t[1:] for t in self.terms if not t[0] & off]
        found = []
        for order in itertools.permutations(s) if len(s) <= 3 else [s]:
            name = {g: (kind, d, tuple(exps[r] for r in order)) for g, (kind, d, exps) in inside}
            restriction = (frozenset(name.values()),
                           frozenset((name[g1], name[g2], coef, name[g])
                                     for g1, g2, coef, g in terms))
            found.append((self.ids.setdefault(restriction, len(self.ids)), order))
        least = min(sid for sid, _ in found)
        return least, [order for sid, order in found if sid == least]


def _reachable(st: _SplitBasis, i_max: int, j_max: int) -> dict[tuple[int, int], set[int]]:
    """The keys of the bar basis tuples of each tier i <= i_max + 1 and
    degree j <= j_max, as sums of their factors' keys."""
    akeys = [{st.key[g] for g in basis} for basis in st.alg]
    reach = {(0, e): {st.key[g] for g in st.mod[e]} for e in range(1, j_max + 1)}
    for i in range(1, i_max + 2):
        for j in range(i + 1, j_max + 1):
            reach[(i, j)] = {k + nu for d in range(1, j - i + 1) for k in akeys[d]
                             for nu in reach[(i - 1, j - d)]}
    return reach


def _tuples(st: _SplitBasis, reach, memo: dict, i: int, j: int, mu: int) -> dict[int, list[tuple]]:
    """The bar basis tuples (i algebra indices, then a module index) of
    degree j and key mu, listed by the degree of their module factor: each a
    in A_+ before the tuples of degree j - deg a and key mu - key a.  Each
    list is in lexicographic order.  memo holds the lists already built."""
    got = memo.get((i, j, mu))
    if got is None:
        if i == 0:
            got = {j: [(g,) for g in st.mod[j] if st.key[g] == mu]}
        else:
            got = {}
            for d in range(1, j - i + 1):
                for g in st.alg[d]:
                    if mu - st.key[g] in reach[(i - 1, j - d)]:
                        for e, ts in _tuples(st, reach, memo, i - 1, j - d, mu - st.key[g]).items():
                            got.setdefault(e, []).extend((g,) + t for t in ts)
        memo[(i, j, mu)] = got
    return got


def _split_block_diff(st: _SplitBasis, src: list[tuple],
                      tgt: list[tuple]) -> list[dict[int, int]]:
    """The block of d from the tuples src to the tuples tgt, as one
    {row: coef} column per source tuple.  The terms of one column differ in
    the degree of the factor at the merged position, or in that factor
    itself, so no row is hit twice."""
    p, prod = st.p, st.prod
    pos = {t: k for k, t in enumerate(tgt)}
    cols = []
    for t in src:
        # t = (a_1, ..., a_i, b): products of neighbours, the last one acting
        col: dict[int, int] = {}
        for s in range(len(t) - 1):
            for coef, g in prod[t[s]].get(t[s + 1], ()):
                row = pos.get(t[:s] + (g,) + t[s + 2:])
                if row is not None:
                    col[row] = coef if s % 2 == 0 else p - coef
        cols.append(col)
    return cols


def _columns_product_nonzero(lo: list[dict[int, int]], hi: list[dict[int, int]], p) -> bool:
    """Is lo @ hi nonzero mod p, for matrices given as lists of {row: coef}
    columns?  The full product, exactly."""
    for col in hi:
        acc: dict[int, int] = {}
        for mid, v in col.items():
            for r, w in lo[mid].items():
                acc[r] = (acc.get(r, 0) + v * w) % p
        if any(acc.values()):
            return True
    return False


def _block_homology(st: _SplitBasis, tiers: list[list[tuple]], j: int) -> list[tuple[int, int]]:
    """(i, dim H_i) for each nonzero homology of one block of degree j, given
    its tuples tier by tier: d checked for d^2=0 and ranked."""
    diffs = [_split_block_diff(st, tiers[i], tiers[i - 1]) for i in range(1, len(tiers))]
    for i, (lo, hi) in enumerate(zip(diffs, diffs[1:]), 1):
        if _columns_product_nonzero(lo, hi, st.p):
            raise AssertionError(f"bar differential fails d^2=0 at (i={i + 1}, j={j})")
    ranks = [0] + [gf.dict_rank(d, st.p) for d in diffs]
    return [(i, h) for i in range(len(diffs))
            if (h := len(tiers[i]) - ranks[i] - ranks[i + 1])]


def _bar_split_table(a, m, i_max, j_max) -> dict[tuple[int, int], int]:
    """The bar table block by block: d keeps a tuple's total key, so each
    key's blocks form a complex, checked and ranked on its own.  Keys are
    multidegrees when A and M are monomial; otherwise all are 0, and each
    internal degree j is one block.  A monomial block whose `_BlockKeys` key
    was seen before in the call is not built: it adds the homology stored
    under that key."""
    st = _SplitBasis(a, m, j_max)
    keys = _BlockKeys(st) if st.mono is not None else None
    if keys and not keys.exact():
        keys = None
    reach = _reachable(st, i_max, j_max)
    memo: dict[tuple[int, int, int], dict[int, list[tuple]]] = {}
    seen: dict[tuple, list[tuple[int, int]]] = {}
    dims: dict[tuple[int, int], int] = {}
    for j in range(1, j_max + 1):
        top = min(i_max + 1, j)
        for mu in set().union(*(reach.get((i, j), ()) for i in range(top + 1))):
            key = (j, keys(mu)) if keys else None
            homology = seen.get(key)
            if homology is None:
                tiers = [_tuples(st, reach, memo, i, j, mu) for i in range(top + 1)]
                # module degree first: in lexicographic order alone the
                # unsplit bar of a non-monomial input takes ~7% longer to rank
                homology = _block_homology(
                    st, [[t for e in sorted(ts) for t in ts[e]] for ts in tiers], j)
                if key:
                    seen[key] = homology
            for i, h in homology:
                dims[(i, j)] = dims.get((i, j), 0) + h
    return dims


# ------------------------------------------------------- minimal resolution


class _Layout:
    """Degree-j coordinates of A tensor V, for V a graded space given as
    (internal degree e, dimension) blocks."""

    def __init__(self, a: DegreewiseAlgebra, vblocks: list[tuple[int, int]]):
        self.a = a
        self.vblocks = vblocks

    def blocks(self, j: int) -> list[tuple[int, int, int]]:
        """(e, vdim, offset) for each summand A_(j-e) (x) V_e."""
        out, off = [], 0
        for e, vd in self.vblocks:
            d = j - e
            if 0 <= d <= self.a.n_max and self.a.dims[d] and vd:
                out.append((e, vd, off))
                off += self.a.dims[d] * vd
        return out

    def dim(self, j: int) -> int:
        return sum(self.a.dims[j - e] * vd for e, vd, _ in self.blocks(j))

    def act(self, d: int, u: int, j: int, vecs: np.ndarray) -> np.ndarray:
        """(basis vector u of A_d) * each column of vecs, degree j to j+d."""
        a = self.a
        p = a.fld.l
        if d == 0:
            return vecs % p
        k = vecs.shape[1]
        out = np.zeros((self.dim(j + d), k), dtype=np.int64)
        tgt = {e: off for e, _, off in self.blocks(j + d)}
        for e, vd, off in self.blocks(j):
            dp = j - e
            if e not in tgt:
                continue
            # rows of a block are (A_dp basis, V_e basis) pairs
            sub = vecs[off:off + a.dims[dp] * vd].reshape(a.dims[dp], vd * k)
            mult = a.mult_matrix(d, dp)[:, u * a.dims[dp]:(u + 1) * a.dims[dp]]
            res = ((mult @ sub) % p).reshape(-1, k)
            out[tgt[e]:tgt[e] + res.shape[0]] = res
        return out


class _ModuleLayout:
    """M itself, with the interface of _Layout: stage 0 of a resolution of M,
    whose "kernel" is all of M."""

    def __init__(self, m: ModuleTruncation):
        self.m = m

    def dim(self, j: int) -> int:
        return self.m.dims[j]

    def act(self, d: int, u: int, j: int, vecs: np.ndarray) -> np.ndarray:
        p = self.m.algebra.fld.l
        if d == 0:
            return vecs % p
        n = self.m.dims[j]
        return (self.m.action_matrix(d, j)[:, u * n:(u + 1) * n] @ vecs) % p


def _resolution_table(a: DegreewiseAlgebra, m: ModuleTruncation,
                      i_max: int, j_max: int) -> dict[tuple[int, int], int]:
    """dim V_i in each degree j <= j_max for i <= i_max, V_i the minimal
    generators K_i / A_1 K_i of the i-th kernel K_i in F_(i-1) = A (x) V_(i-1),
    with K_0 = M, by the graded Nakayama rule (A_+ K)_j = A_1 K_(j-1)."""
    p = a.fld.l
    dims: dict[tuple[int, int], int] = {}
    layout = _ModuleLayout(m)
    kernels = {j: np.eye(m.dims[j], dtype=np.int64)
               for j in range(1, j_max + 1) if m.dims[j]}
    for i in range(i_max + 1):
        vblocks, reps = [], {}
        for j in sorted(kernels):
            # an echelon basis of A_1 K_(j-1), one generator at a time so
            # that no matrix holds all of A_1 K_(j-1) at once
            span = np.zeros((0, kernels[j].shape[1]), dtype=np.int64)
            for g in range(a.num_generators if j - 1 in kernels else 0):
                block = layout.act(1, g, j - 1, kernels[j - 1].T).T
                span = gf.rref(np.vstack([span, block]), p)[0]
            # the pivot columns of [span; K_j]^T past span are the rows of K_j
            # that leave the span of everything before them
            _, pivots = gf.rref(np.vstack([span, kernels[j]]).T, p)
            rep = kernels[j][[c - len(span) for c in pivots if c >= len(span)]]
            if len(rep):
                vblocks.append((j, len(rep)))
                reps[j] = rep
                dims[(i, j)] = len(rep)
        if i == i_max or not vblocks:
            break
        # K_(i+1) = kernel of F_i = A (x) V_i -> F_(i-1), degree by degree
        new_layout = _Layout(a, vblocks)
        kernels = {}
        for j in range(1, j_max + 1):
            cols = new_layout.dim(j)
            if cols == 0:
                continue
            phi = np.zeros((layout.dim(j), cols), dtype=np.int64)
            for e, vd, off in new_layout.blocks(j):
                d = j - e
                for u in range(a.dims[d]):
                    phi[:, off + u * vd:off + (u + 1) * vd] = layout.act(d, u, e, reps[e].T)
            ker = gf.nullspace(phi, p)
            if ker.shape[0]:
                kernels[j] = ker
        layout = new_layout
        if not kernels:
            break
    return dims


# ------------------------------------------- Koszul complex, exterior cover


def is_free_exterior(a: DegreewiseAlgebra) -> bool:
    """Does a have the dimensions (and mode) of the free exterior algebra?"""
    n = a.num_generators
    return a.mode.value == "super" and \
        all(a.dims[d] == comb(n, d) for d in range(a.n_max + 1))


def _contractions(lam: DegreewiseAlgebra, i: int) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Gamma_i and Gamma_(i-1), with the degree-i and degree-(i-1) monomials
    in the dual variables as bases: their sizes, and a triple (column, g,
    row) for each monomial of Gamma_i and each variable g in it, the row
    being the monomial's contraction by g in Gamma_(i-1)."""
    src_b = mono_enumerate(lam.order, i, squarefree=False)
    tgt_pos = {mo.word(): k for k, mo in
               enumerate(mono_enumerate(lam.order, i - 1, squarefree=False))}
    triples = []
    for bcol, mono in enumerate(src_b):
        w = mono.word()
        for g, _ in mono.exps:
            k = w.index(g)
            triples.append((bcol, g, tgt_pos[w[:k] + w[k + 1:]]))
    return len(src_b), len(tgt_pos), triples


def _koszul_complex_diff(lam: DegreewiseAlgebra, m: ModuleTruncation, i: int, j: int,
                         gamma: tuple[int, int, list[tuple[int, int, int]]]) -> gf.SparseMatrixGF:
    """d: M_{j-i} (x) Gamma_i  ->  M_{j-i+1} (x) Gamma_{i-1} for the Cartan
    resolution of k over the free exterior algebra; gamma is
    `_contractions(lam, i)`.  d contracts one variable of the Gamma_i factor,
    multiplying the module element by the matching generator."""
    p = lam.fld.l
    n_src, n_tgt, triples = gamma
    src_md, tgt_md = j - i, j - i + 1
    sd = m.dims[src_md] if 0 <= src_md <= m.n_max else 0
    td = m.dims[tgt_md] if 0 <= tgt_md <= m.n_max else 0
    entries = []
    if sd and td:
        acted = []
        for g in range(lam.num_generators):
            mat = m.action[src_md][g] % p
            ti, si = np.nonzero(mat)
            acted.append(list(zip(ti.tolist(), si.tolist(), mat[ti, si].tolist())))
        for bcol, g, lower in triples:
            entries += [(ti * n_tgt + lower, si * n_src + bcol, v) for ti, si, v in acted[g]]
    return gf.SparseMatrixGF(lam.fld, td * n_tgt, sd * n_src, tuple(entries))


def koszul_tor_module(lam: DegreewiseAlgebra, m: ModuleTruncation,
                      i_max: int, j_max: int) -> TorTable:
    """Tor over a free exterior cover from the Cartan (Koszul) resolution."""
    if not is_free_exterior(lam):
        raise ValueError("the Koszul-complex engine needs a free exterior cover")
    if j_max > lam.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    p = lam.fld.l
    gammas = {i: _contractions(lam, i) for i in range(1, min(i_max, j_max - 1) + 2)}
    dims: dict[tuple[int, int], int] = {}
    for j in range(1, j_max + 1):
        top = min(i_max, j - 1)
        diffs = [_koszul_complex_diff(lam, m, i, j, gammas[i]) for i in range(1, top + 2)]
        cols = [d.columns() for d in diffs]
        for i, (lo, hi) in enumerate(zip(cols, cols[1:]), 1):
            if _columns_product_nonzero(lo, hi, p):
                raise AssertionError(f"Koszul complex fails d^2=0 at (i={i + 1}, j={j})")
        ranks = [0] + [gf.sparse_rank(dmat) for dmat in diffs]
        for i in range(top + 1):
            # diffs[i] = d_(i+1) has the i-th term M_(j-i) (x) Gamma_i as target
            h = diffs[i].rows - ranks[i] - ranks[i + 1]
            if h:
                dims[(i, j)] = h
    return TorTable(TorKind.MODULE, i_max, j_max, dims)


# ----------------------------------------------------------------- drivers


def _dense_cost(a, m, i_max, j_max) -> int:
    """Basis vectors in the largest unsplit bar term of the window."""
    return max(max(_bar_term_dims(a, m, j)[:min(i_max, j) + 2]) for j in range(j_max + 1))


def _monomial(a: DegreewiseAlgebra, m: ModuleTruncation) -> bool:
    return a.monomial and m.monomial and a.basis_monomials is not None \
        and m.basis_monomials is not None


def bar_tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int) -> TorTable:
    """H_{i,j}(A) = Tor_{i,j}(k,k) from the bar complex of A_+."""
    return tor_algebra(a, i_max, j_max, engine="bar")


def bar_tor_module(a: DegreewiseAlgebra, m: ModuleTruncation,
                   i_max: int, j_max: int) -> TorTable:
    """H_{i,j}(A, M) = Tor_{i,j}(k,M) from the reduced bar complex."""
    if j_max > a.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    return TorTable(TorKind.MODULE, i_max, j_max, _bar_split_table(a, m, i_max, j_max))


def _euler_fill(a: DegreewiseAlgebra, m: ModuleTruncation,
                i_top: int, j_max: int, dims: dict[tuple[int, int], int]) -> None:
    """Fill the single missing entry (i_top, j_max) from the per-degree Euler
    characteristic of the reduced bar complex: the alternating sums of term
    dimensions (combinatorial) and of homology dimensions agree in each
    internal degree, and every other entry in degree j_max is known.  The
    entry is defined by that identity, so the identity certifies nothing
    there; only the bar complex can audit it."""
    sizes = _bar_term_dims(a, m, j_max)
    chi = sum((-1) ** i * sizes[i] for i in range(i_top + 1))
    known = sum((-1) ** i * dims.get((i, j_max), 0) for i in range(i_top))
    h = (-1) ** i_top * (chi - known)
    if h < 0:
        raise AssertionError("negative homology dimension from Euler fill")
    if h:
        dims[(i_top, j_max)] = h


def resolution_tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int) -> TorTable:
    """Same table via a minimal free resolution of A_+."""
    return tor_algebra(a, i_max, j_max, engine="resolution")


def resolution_tor_module(a: DegreewiseAlgebra, m: ModuleTruncation,
                          i_max: int, j_max: int) -> TorTable:
    """Same table via a minimal free resolution of M.

    The final homological stage is the expensive one and only ever carries the
    entry (j_max - 1, j_max) within the window, so when the window reaches it
    the resolution is stopped one stage short and that entry is recovered from
    the bar complex Euler characteristic in degree j_max.  An Euler check of
    the table is then no check of that entry.
    """
    if j_max > a.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    i_top = j_max - 1  # bar terms need i algebra factors plus a module factor
    if i_max >= i_top >= 1:
        dims = _resolution_table(a, m, i_top - 1, j_max)
        _euler_fill(a, m, i_top, j_max, dims)
    else:
        dims = _resolution_table(a, m, i_max, j_max)
    return TorTable(TorKind.MODULE, i_max, j_max, dims)


DENSE_BAR_LIMIT = 4000
ENGINES = ("auto", "bar", "resolution", "koszul")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}: expected one of {', '.join(ENGINES)}")


def tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int,
                engine: str = "auto") -> TorTable:
    """Tor_{i,j}(k,k) over A: 1 at (0, 0), and Tor_{i-1,j}(k, A_+) from
    `tor_module` (with its engine rule) at (i, j) for i >= 1."""
    _check_engine(engine)
    if j_max > a.n_max:
        raise ValueError("j_max exceeds the algebra truncation")
    dims = {(0, 0): 1}
    if i_max >= 1:
        plus = tor_module(a, augmentation_module(a, a), i_max - 1, j_max, engine)
        dims.update({(i + 1, j): h for (i, j), h in plus.dims.items()})
    return TorTable(TorKind.ALGEBRA, i_max, j_max, dims)


def tor_module(a: DegreewiseAlgebra, m: ModuleTruncation, i_max: int, j_max: int,
               engine: str = "auto") -> TorTable:
    """Tor_{i,j}(k,M) over A by `engine`: "bar", "resolution", "koszul" or
    "auto".  The `auto` rule: the bar complex when A and M are monomial (the
    multidegree split) or the largest unsplit bar term in the window has at
    most DENSE_BAR_LIMIT basis vectors; else the Koszul complex when A is a
    free exterior algebra; else the resolution."""
    _check_engine(engine)
    if j_max > a.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    if engine == "auto":
        if _monomial(a, m) or _dense_cost(a, m, i_max, j_max) <= DENSE_BAR_LIMIT:
            engine = "bar"
        elif is_free_exterior(a):
            engine = "koszul"
        else:
            engine = "resolution"
    run = {"bar": bar_tor_module, "resolution": resolution_tor_module,
           "koszul": koszul_tor_module}[engine]
    return run(a, m, i_max, j_max)
