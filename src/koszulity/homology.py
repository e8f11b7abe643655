"""Bidegree homology H_{i,j} = Tor_{i,j} over F_l, with Koszulity diagnosis.

Every table is a module table Tor_{i,j}(k, M).  The algebra table is the
module table of M = A_+ shifted up by one in i: A is free, so the sequence
0 -> A_+ -> A -> k -> 0 gives Tor_{i,j}(k,k) = Tor_{i-1,j}(k,A_+) for i >= 1,
and Tor_{0,0}(k,k) = 1.  Term for term, the bar complex of A_+ in homological
degree i is the reduced bar complex of k in degree i+1.

Three engines compute the same module table:

* the bar complex on integer indices.  For monomial A and M, d keeps the
  multidegree, so the complex splits into tiny blocks, and blocks with one
  `_BlockKeys` key are alike; otherwise each degree is one block.  A tuple's
  code, (degree, exponent vector) as an int64 row, adds over its factors.
  `_bar_tiers` finds the codes each tier reaches, bottom up, and those it
  needs, top down, then builds the needed tuples as arrays, each a in A_+
  before its child code's tuples by a ragged join, in order of module
  degree, then lexicographic.  Codes are exact at any number of variables:
  `_find` tells rows apart, as it finds d's tuples, by codes it ranks before
  they could reach 2^63.  Each tier is one int64 array, each d is read off
  a table of product terms by compressed rows, and each d^2=0 check is one
  exact sparse product, before any rank.  Ranks go bottom-up:
  `gf.dict_pivots` gets d_i's nonempty rows outside the pivots L of
  d_(i-1)'s rows, by ascending last column.  As d_i^T d_(i-1)^T = 0, each l
  in L ends some w in im d_(i-1)^T in ker d_i^T: row l is a combination of
  rows k < l, so of those outside L.  The first row per last column is a
  pivot at once; H_{i-1,j} less the empty rows outside L reduce to 0, for M
  generated in degree 1 only off-diagonal ones.  Blocks share no rows;
* a minimal free resolution built degree by degree: Tor_{i,j} is the number
  of degree-j minimal generators of the i-th syzygy module K, by the graded
  Nakayama rule (A_+ K)_j = A_1 K_{j-1} (A is generated in degree 1): the
  kernel vectors that end outside the greatest-index pivots of A_1 K_{j-1}.
  Its products are `_product`s of action tables, its kernels `_kernel`s;
* the Koszul complex M (x) Gamma, for modules over a free exterior algebra:
  tier i is M_e (x) Gamma_i for every e >= 1, each basis vector tagged with
  its degree e + i, and each d is built for all degrees at once by
  compressed rows.  `_complex_table` checks and ranks it as it does the bar.

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
from operator import itemgetter

import numpy as np

from . import gf
from .algebra import DegreewiseAlgebra, ModuleTruncation, augmentation_module


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
    d, e <= j_max, are the global indices in alg[d] and mod[e], size in all,
    and the terms coef * g of each g1 * g2 != 0 (g1 in A_+) are coefs and gs,
    sorted by code = g1 * size + g2.  When A and M are monomial, mono[g] is
    g's basis monomial and exps[g] its exponent vector, which adds under
    products; otherwise mono is None and exps has no columns."""

    def __init__(self, a: DegreewiseAlgebra, m: ModuleTruncation, j_max: int):
        self.p, self.alg, self.mod = a.fld.l, [], []
        size = 0
        for ranges, dims in ((self.alg, a.dims), (self.mod, m.dims)):
            for d in dims[:j_max + 1]:
                ranges.append(range(size, size + d))
                size += d
        self.size, self.base = size, a.n_max + 1
        self.mono = [mo for bases in (a.basis_monomials, m.basis_monomials)
                     for monos in bases[:j_max + 1] for mo in monos] \
            if _monomial(a, m) else None
        n = 1 + max((r for mo in self.mono or () for r, _ in mo.exps), default=-1)
        self.exps = exps = np.array([[dict(mo.exps).get(r, 0) for r in range(n)]
                                     for mo in self.mono or ()], dtype=np.int64).reshape(size, n)
        terms = [np.zeros((3, 0), dtype=np.int64)]
        for d in range(1, j_max + 1):
            for e in range(1, j_max + 1 - d):
                for product, right in ((a.mult_matrix, self.alg), (m.action_matrix, self.mod)):
                    if self.alg[d] and right[e] and right[d + e]:
                        mat = product(d, e)
                        rows, cols = np.nonzero(mat)
                        g1, g2 = np.divmod(cols, len(right[e]))
                        terms.append(np.array([(self.alg[d].start + g1) * size + right[e].start
                                               + g2, right[d + e].start + rows, mat[rows, cols]]))
        terms = np.concatenate(terms, axis=1)
        self.code, self.gs, self.coefs = terms[:, np.argsort(terms[0], kind="stable")]
        if (exps[self.gs] != exps[self.code // size] + exps[self.code % size]).any():
            raise ValueError("product is not monomial")


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
    of the variables, where trying every order costs more than it saves.  A
    call keys all mu of a bar at once: their digits, supports and readings
    are arrays, and only the restriction of each support is built in Python."""

    ORDERS = list(itertools.permutations(range(3)))  # of the first three variables of a support

    def __init__(self, st: _SplitBasis):
        self.base, exps = st.base, st.exps.tolist()
        # (A or M, degree, exponent vector) and the support, as a bit mask
        self.label = {g: (kind, d, tuple(exps[g])) for kind, ranges in enumerate((st.alg, st.mod))
                      for d, basis in enumerate(ranges[1:], 1) for g in basis}
        self.mask = {g: sum(1 << r for r, e in enumerate(exps[g]) if e) for g in self.label}
        # a product term lives on the support of its value
        self.terms = [(self.mask[g], c // st.size, c % st.size, coef, g) for c, coef, g
                      in zip(st.code.tolist(), st.coefs.tolist(), st.gs.tolist())]
        self.ids: dict[tuple, int] = {}

    def exact(self) -> bool:
        """Do the keys tell blocks apart?  The names must tell the basis
        vectors apart: two vectors with one name would make two different
        restrictions look alike.  And no monomial may have a degree above its
        vector's, so that every exponent of mu, at most j <= n_max, is one
        digit and mu reads back exactly."""
        return len(set(self.label.values())) == len(self.label) and \
            all(sum(exps) <= d for _, d, exps in self.label.values())

    def __call__(self, mu: np.ndarray) -> np.ndarray:
        """The keys of multidegrees, rows (degree, exponents from the last
        variable down), as the first row with each key: all at once, from
        each mu's digits and its support's restriction."""
        digits = np.hstack([mu[:, :0:-1], np.zeros((len(mu), 3), dtype=np.int64)])
        on = digits > 0
        first, support = np.unique(_find(on, on, 2), return_inverse=True)
        sid = np.array([self._restriction(tuple(np.flatnonzero(on[f]).tolist())) for f in first],
                       dtype=np.int64).reshape(-1, 7)[support]
        # each mu's nonzero digits in order of the variables, the first three
        # read in the least way among the ORDERS that reach its support's id
        read = np.take_along_axis(digits, np.argsort(~on, axis=1, kind="stable"), 1)
        cand = read[:, self.ORDERS]
        rank = np.where(sid[:, 1:] > 0, cand @ self.base ** np.arange(2, -1, -1), self.base ** 3)
        read[:, :3] = cand[np.arange(len(mu)), rank.argmin(1)]
        keys = np.column_stack([mu[:, 0], sid[:, 0], read])
        return _find(keys, keys, max(self.base, len(self.ids)))

    def _restriction(self, s: tuple[int, ...]) -> list[int]:
        """The least id of the restriction to s over the orders of s tried,
        then for each of ORDERS whether it is tried and reaches that id."""
        off = ~sum(1 << r for r in s)
        inside = [g for g in self.label if not self.mask[g] & off]
        at = {g: k for k, g in enumerate(inside)}
        terms = [(at[g1], at[g2], coef, at[g]) for mask, g1, g2, coef, g in self.terms
                 if not mask & off]
        labels, found, k = [self.label[g] for g in inside], {}, min(len(s), 3)
        for o in itertools.permutations(range(k)) if len(s) <= 3 else [(0, 1, 2)]:
            order = tuple(s[v] for v in o) + s[3:]
            read = itemgetter(*order) if len(order) > 1 else lambda e: tuple(e[r] for r in order)
            names = [(kind, d, read(exps)) for kind, d, exps in labels]
            restriction = (frozenset(names), frozenset([(names[g1], names[g2], coef, names[g])
                                                        for g1, g2, coef, g in terms]))
            found[o + tuple(range(k, 3))] = self.ids.setdefault(restriction, len(self.ids))
        least = min(found.values())
        return [least] + [found.get(o) == least for o in self.ORDERS]


def _bar_tiers(st: _SplitBasis, keys, top: int, j_max: int) -> tuple[list, list, list]:
    """The tuples (i algebra indices, then a module index) of one mu per
    block key, the first found, stacked for i <= top block by block, with
    each one's degree and weight, the multidegrees its block stands for.  An
    edge (a, child, parent) joins a code of tier i - 1 and a in A_+ (a in
    M_+ and the empty tuple's code 0 for tier 0) to the code they reach."""
    deg = np.repeat(np.r_[0:len(st.alg), 0:len(st.mod)], [len(r) for r in st.alg + st.mod])
    rows, size = np.column_stack([deg, st.exps[:, ::-1]]), 1 + j_max * int(st.exps.max(initial=1))
    alg, mod = np.arange(len(st.alg[0]), st.alg[-1].stop), np.arange(st.mod[0].stop, st.size)
    codes, edges = [np.zeros((1, rows.shape[1]), dtype=np.int64)], []  # below tier 0: code 0
    for vecs in [mod] + [alg] * top:
        a, child = np.nonzero(deg[vecs][:, None] + codes[-1][:, 0] <= j_max)
        sums = rows[vecs[a]] + codes[-1][child]
        first, parent = np.unique(_find(sums, sums, size), return_inverse=True)
        codes.append(sums[first])
        edges.append((vecs[a], child, parent))
    del codes[0]
    # every code is a multidegree mu; a block's weight sits on its first mu, 0 elsewhere
    every = np.concatenate(codes)
    first, mu = np.unique(_find(every, every, size), return_inverse=True)
    _, rep, stands = np.unique(keys(every[first]) if keys else np.arange(len(first)),
                               return_index=True, return_counts=True)
    per_mu = np.bincount(rep, stands, len(first)).astype(np.int64)
    weights = np.split(per_mu[mu], np.cumsum([len(c) for c in codes])[:-1])
    need = [w > 0 for w in weights]
    for i in range(top, 0, -1):
        _, child, parent = edges[i]
        need[i - 1][child[need[i][parent]]] = True
    # a before the tuples of its child, listed by code in the tier below
    tiers, degree, weight, t = [], [], [], np.zeros((1, 0), dtype=np.int64)
    start, count = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for i, (a, child, parent) in enumerate(edges):
        keep = need[i][parent]
        n = count[child[keep]]
        t = np.column_stack([np.repeat(a[keep], n), t[_ragged(start[child[keep]], n)]])
        parent = np.repeat(parent[keep], n)
        order = np.argsort(parent * (j_max + 1) + deg[t[:, -1]], kind="stable")
        t, parent = t[order], parent[order]
        count = np.bincount(parent, minlength=len(codes[i]))
        start, out = np.cumsum(count) - count, weights[i][parent] > 0
        tiers.append(t[out])
        degree.append(codes[i][parent[out], 0])
        weight.append(weights[i][parent[out]])
    return tiers, degree, weight


def _compress(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int) -> tuple:
    """Compressed columns (ptr, rows, vals): column c has the nonzero values
    vals[ptr[c]:ptr[c + 1]] in the rows rows[ptr[c]:ptr[c + 1]], kept in input order."""
    order = np.argsort(cols, kind="stable")
    return (np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ncols)))),
            rows[order], vals[order])


def _stream(ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray, which=None):
    """The vectors of compressed arrays, all or those in `which`, as (index, value) pairs."""
    ptr, pairs = ptr.tolist(), list(zip(idx.tolist(), vals.tolist()))
    return (pairs[ptr[k]:ptr[k + 1]] for k in (range(len(ptr) - 1) if which is None else which))


def _ragged(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """start[k], start[k] + 1, ..., start[k] + counts[k] - 1 for each k in turn."""
    return np.arange(counts.sum()) + np.repeat(start + counts - np.cumsum(counts), counts)


def _product(lo: tuple, hi: tuple, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the nonzero entries of lo @ hi mod p, the full product, exactly,
    over slices of hi's columns of at most PRODUCT_SLICE terms (or one column; one if all fit):
    keyed by col * (rows of lo) + row, and summed in float64 from terms reduced mod p (< 2^37)."""
    (lptr, lrows, lvals), (hptr, hrows, hvals) = lo, hi
    per = lptr[hrows + 1] - lptr[hrows]
    n, ncols, cut = int(lrows.max()) + 1 if lrows.size else 1, len(hptr) - 1, 0
    out = [(np.zeros(0, np.int64),) * 3]  # then one (rows, cols, values) per slice
    before = np.concatenate(([0], np.cumsum(per)))[hptr] if per.sum() > PRODUCT_SLICE else None
    while cut < ncols:
        end = ncols if before is None else \
            max(cut + 1, int(np.searchsorted(before, before[cut] + PRODUCT_SLICE, "right")) - 1)
        s = slice(hptr[cut], hptr[end])
        at = _ragged(lptr[hrows[s]], per[s])
        col = np.repeat(np.arange(cut, end), np.diff(hptr[cut:end + 1]))
        key, inv = np.unique(np.repeat(col, per[s]) * n + lrows[at], return_inverse=True)
        sums = np.bincount(inv, np.repeat(hvals[s], per[s]) * lvals[at] % p).astype(np.int64) % p
        out.append((key[sums != 0] % n, key[sums != 0] // n, sums[sums != 0]))
        cut = end
    return out[1] if len(out) == 2 else tuple(map(np.concatenate, zip(*out)))


def _find(tier: np.ndarray, queries: np.ndarray, size: int) -> np.ndarray:
    """The row of tier equal to each row of queries, or -1; entries lie in [0, size).  Rows
    are coded factor by factor as code * size + factor, the codes replaced by their ranks
    (below len(tier) + 1) before any step that could reach 2^63, and at the end."""
    code, qcode, bound, found = tier[:, 0], queries[:, 0], size, np.ones(len(queries), dtype=bool)
    for c in range(1, tier.shape[1] + 1):
        if c == tier.shape[1] or bound * size >= 2 ** 63:
            order = np.argsort(code, kind="stable")
            ranked = np.append(code[order], 2 ** 63 - 1)
            at = np.searchsorted(ranked, qcode)
            found &= ranked[at] == qcode
            if c == tier.shape[1]:
                return np.where(found, np.append(order, -1)[at], -1)
            code, qcode, bound = np.searchsorted(ranked, code), at, len(code) + 1
        code, qcode, bound = code * size + tier[:, c], qcode * size + queries[:, c], bound * size


def _bar_diff(st: _SplitBasis, src: np.ndarray, tgt: np.ndarray) -> tuple:
    """d from the tuples src (i algebra indices, then a module index) to the
    tuples tgt by compressed rows, columns ascending: each term, in column
    col, is (-1)^s times a term of the product of neighbours s, s + 1.  The
    terms of one column differ in the merged factor: no row repeats."""
    code = (src[:, :-1] * st.size + src[:, 1:]).ravel()
    first, end = (np.searchsorted(st.code, code, side) for side in ("left", "right"))
    terms = _ragged(first, end - first)
    col, s = np.divmod(np.repeat(np.arange(code.size), end - first), src.shape[1] - 1)
    k = np.arange(src.shape[1] - 1)
    merged = src[col[:, None], k + (k > s[:, None])]
    merged[np.arange(len(s)), s] = st.gs[terms]
    rows = _find(tgt, merged, st.size)
    vals = st.coefs[terms] * (1 - 2 * (s % 2)) % st.p
    return _compress(col[rows >= 0], rows[rows >= 0], vals[rows >= 0], len(tgt))


def _bottom_up_pivots(diffs: list[tuple], p: int) -> list[set[int]]:
    """The pivots of d_i = diffs[i - 1]'s rows, bottom-up: exact given d^2=0 (module docstring)."""
    out = [set()]
    for ptr, cols, vals in diffs:
        keep = np.diff(ptr) > 0
        keep[list(out[-1])] = False
        rows = np.flatnonzero(keep)
        lead = np.argsort(cols[ptr[rows + 1] - 1], kind="stable")
        # the keys alone, so that no tier's pivot vectors outlive its elimination
        out.append(set(gf.dict_pivots(_stream(ptr, cols, vals, rows[lead].tolist()), p)))
    return out[1:]


def _bar_split_table(a, m, i_max, j_max) -> dict[tuple[int, int], int]:
    """The bar table in one pass: d keeps a tuple's code, so each block of
    `_bar_tiers` is a complex, counted for the multidegrees it stands for."""
    st = _SplitBasis(a, m, j_max)
    keys = _BlockKeys(st) if st.mono is not None else None
    top = min(i_max + 1, j_max)
    tiers, degree, weight = _bar_tiers(st, keys if keys and keys.exact() else None, top, j_max)
    diffs = [_bar_diff(st, tiers[i], tiers[i - 1]) for i in range(1, top + 1)]
    return _complex_table("bar differential", diffs, degree, weight, st.p, j_max)


def _complex_table(what: str, diffs: list[tuple], degree: list[np.ndarray],
                   weight: list[np.ndarray], p: int, j_max: int) -> dict[tuple[int, int], int]:
    """The homology of a complex stacked by tiers: diffs[i - 1] is d_i by
    compressed rows, from tier i to tier i - 1, and degree[i] and weight[i]
    tag each basis vector of tier i with its degree j <= j_max and the
    number of basis vectors it stands for.  Every d^2=0 check runs before
    any rank; a failure names what, the least i, then the least j."""
    for i, (lo, hi) in enumerate(zip(diffs, diffs[1:]), 1):
        if (rows := _product(hi, lo, p)[0]).size:  # (d_i d_(i+1))^T, rows in tier i + 1
            raise AssertionError(f"{what} fails d^2=0 at (i={i + 1}, "
                                 f"j={degree[i + 1][rows].min()})")
    ranks = [0] + [np.bincount(degree[i][list(piv)], weight[i][list(piv)], minlength=j_max + 1)
                   for i, piv in enumerate(_bottom_up_pivots(diffs, p), 1)]
    dims = {}
    for i in range(len(diffs)):
        h = np.bincount(degree[i], weight[i], minlength=j_max + 1) - ranks[i] - ranks[i + 1]
        dims.update({(i, j): int(h[j]) for j in np.flatnonzero(h).tolist()})
    return dims


# ------------------------------------------------------- minimal resolution


class _Layout:
    """Degree-j coordinates of B (x) V, for V a graded space given as
    (internal degree e, dimension) blocks and B = A, or B = M with V = k:
    dims are B's, and product is `mult_matrix` or `action_matrix`."""

    def __init__(self, dims: list[int], product, vblocks: list[tuple[int, int]]):
        self.dims, self.product, self.vblocks, self.tables = dims, product, vblocks, {}

    def blocks(self, j: int) -> list[tuple[int, int, int]]:
        """(e, vdim, offset) for each summand B_(j-e) (x) V_e."""
        out, off = [], 0
        for e, vd in self.vblocks:
            if 0 <= j - e < len(self.dims) and self.dims[j - e] and vd:
                out.append((e, vd, off))
                off += self.dims[j - e] * vd
        return out

    def dim(self, j: int) -> int:
        return sum(self.dims[j - e] * vd for e, vd, _ in self.blocks(j))

    def table(self, d: int, j: int) -> tuple:
        """A_d on degree j by compressed rows, built once: row x = b (x) v holds
        u x = (u b) (x) v for each basis vector u of A_d, at u * dim(j + d) + its index."""
        if (d, j) not in self.tables:
            size, tgt = self.dim(j + d), {e: off for e, _, off in self.blocks(j + d)}
            terms = [np.zeros((3, 0), dtype=np.int64)]
            for e, vd, off in (block for block in self.blocks(j) if block[0] in tgt):
                mat, v = self.product(d, j - e), np.arange(vd)
                rows, cols = np.nonzero(mat)
                u, b = np.divmod(cols, self.dims[j - e])
                terms.append(np.array([np.add.outer(u * size + tgt[e] + rows * vd, v).ravel(),
                                       np.add.outer(off + b * vd, v).ravel(),
                                       np.repeat(mat[rows, cols], vd)]))
            self.tables[(d, j)] = _compress(*np.concatenate(terms, axis=1), self.dim(j))
        return self.tables[(d, j)]


def _kernel(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int, p: int) -> tuple:
    """`gf.nullspace` of the map with entries (rows, cols, vals) and ncols columns: the free
    column each basis vector ends at, and the vectors by compressed columns.  Column c, with a
    1 at c - ncols below every row, streams into `gf.dict_pivots` in ascending order; if its row
    part reduces to 0, its pivot read at index + ncols is 1 at c, else on earlier pivot columns."""
    stream = (col + [(c - ncols, 1)]
              for c, col in enumerate(_stream(*_compress(rows, cols, vals, ncols))))
    ker = [(lead, vec) for lead, (_, vec) in gf.dict_pivots(stream, p).items() if lead < 0]
    ptr = np.cumsum([0] + [len(vec) for _, vec in ker])
    idx, vals = (np.fromiter(itertools.chain.from_iterable(part), np.int64, ptr[-1])
                 for part in ((vec.keys() for _, vec in ker), (vec.values() for _, vec in ker)))
    return np.array([lead for lead, _ in ker], dtype=np.int64) + ncols, (ptr, idx + ncols, vals)


def _resolution_table(a: DegreewiseAlgebra, m: ModuleTruncation,
                      i_max: int, j_max: int) -> dict[tuple[int, int], int]:
    """dim V_i in each degree j <= j_max for i <= i_max, V_i the minimal
    generators K_i / A_1 K_i of the i-th kernel K_i in F_(i-1) = A (x) V_(i-1),
    with K_0 = M, by the graded Nakayama rule (A_+ K)_j = A_1 K_(j-1).

    The basis vectors of K_j (`_kernel`s, K_0 that of M -> 0) end at distinct
    columns, so every vector of A_1 K_(j-1) ends at one of them, and those
    ending outside its greatest-index pivots, found by dim K_j at most, lift a
    basis of K_j / A_1 K_(j-1): they are taken as V_(i,j)."""
    p = a.fld.l
    dims: dict[tuple[int, int], int] = {}
    layout, empty = _Layout(m.dims, m.action_matrix, [(0, 1)]), np.zeros((3, 0), dtype=np.int64)
    kernels = {j: _kernel(*empty, m.dims[j], p) for j in range(1, j_max + 1) if m.dims[j]}
    for i in range(i_max + 1):
        reps = {}
        for j in sorted(kernels):
            (last, (ptr, idx, vals)), taken = kernels[j], ()
            if j - 1 in kernels:  # A_1 K_(j-1), one vector per (generator, kernel vector)
                n = len(kernels[j - 1][0])
                code, k, v = _product(layout.table(1, j - 1), kernels[j - 1][1], p)
                g, y = np.divmod(code, layout.dim(j))
                taken = gf.dict_pivots(_stream(*_compress(y, g * n + k, v, a.dims[1] * n)),
                                       p, len(last))
            keep = np.flatnonzero(~np.isin(last, list(taken)))
            if keep.size:
                at = _ragged(ptr[keep], count := np.diff(ptr)[keep])
                reps[j] = np.r_[0, np.cumsum(count)], idx[at], vals[at]
                dims[(i, j)] = keep.size
        if i == i_max or not reps:
            break
        # K_(i+1) = ker F_i -> F_(i-1) by degrees, F_i = A (x) V_i with u (x) v at off + u * vd + v
        new_layout = _Layout(a.dims, a.mult_matrix, [(j, dims[(i, j)]) for j in reps])
        kernels = {}
        for j in range(1, j_max + 1):
            phi = [empty]  # (row, column, value) of the map in degree j
            for e, vd, off in new_layout.blocks(j):
                code, v, vals = _product(layout.table(j - e, e), reps[e], p)
                u, y = np.divmod(code, layout.dim(j))
                phi.append(np.array([y, off + u * vd + v, vals]))
            if len((ker := _kernel(*np.concatenate(phi, axis=1), new_layout.dim(j), p))[0]):
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


def _contractions(lam: DegreewiseAlgebra, i: int) -> tuple[int, int, np.ndarray]:
    """Gamma_i and Gamma_(i-1), with the degree-i and degree-(i-1) monomials
    in the dual variables as bases, each an ascending tuple of variables:
    their sizes, and a triple (g, column, row) for each monomial of Gamma_i
    (the column) and each variable g in it, the row being the monomial's
    contraction by g in Gamma_(i-1), as the rows of an array in order of g."""
    gens = range(lam.num_generators)
    src = list(itertools.combinations_with_replacement(gens, i))
    tgt_pos = {w: k for k, w in enumerate(itertools.combinations_with_replacement(gens, i - 1))}
    triples = sorted((g, col, tgt_pos[w[:k] + w[k + 1:]])
                     for col, w in enumerate(src) for k, g in enumerate(w)
                     if k == 0 or w[k - 1] != g)
    return len(src), len(tgt_pos), np.array(triples, dtype=np.int64).reshape(-1, 3)


def _koszul_diff(lam: DegreewiseAlgebra, m: ModuleTruncation, i: int, j_max: int,
                 gamma: tuple) -> tuple:
    """d_i of M (x) Gamma by compressed rows, columns ascending: tier i is M_e (x) Gamma_i for
    e = 1, ..., j_max - i in turn, x (x) w at x * |Gamma_i| + w in its block, and d_i takes
    x (x) w to the sum over the variables g of w of (g x) (x) (w / g), contracting one variable
    of the Gamma_i factor; gamma is `_contractions(lam, i)`."""
    n_src, n_tgt, triples = gamma
    p, gens = lam.fld.l, lam.num_generators
    first = np.searchsorted(triples[:, 0], np.arange(gens))
    count = np.bincount(triples[:, 0], minlength=gens)
    terms = [np.zeros((3, 0), dtype=np.int64)]
    for e in range(1, j_max - i + 1):
        act = np.reshape(m.action[e], (gens, m.dims[e + 1], m.dims[e])) % p
        g, y, x = np.nonzero(act)
        at, k = _ragged(first[g], count[g]), count[g]
        terms.append(np.array([(sum(m.dims[1:e]) + np.repeat(x, k)) * n_src + triples[at, 1],
                               (sum(m.dims[1:e + 1]) + np.repeat(y, k)) * n_tgt + triples[at, 2],
                               np.repeat(act[g, y, x], k)]))
    src, tgt, vals = np.concatenate(terms, axis=1)
    order = np.argsort(src, kind="stable")
    return _compress(src[order], tgt[order], vals[order], sum(m.dims[1:j_max - i + 2]) * n_tgt)


def koszul_tor_module(lam: DegreewiseAlgebra, m: ModuleTruncation,
                      i_max: int, j_max: int) -> TorTable:
    """Tor over a free exterior cover from the Cartan (Koszul) resolution."""
    if not is_free_exterior(lam):
        raise ValueError("the Koszul-complex engine needs a free exterior cover")
    if j_max > lam.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    top = min(i_max + 1, j_max)
    gammas = [_contractions(lam, i) for i in range(1, min(top, j_max - 1) + 1)]
    if top == j_max > 0:  # tier j_max is empty: d_(j_max) needs only |Gamma_(j_max - 1)|
        gammas.append((0, gammas[-1][0] if gammas else 1, np.zeros((0, 3), dtype=np.int64)))
    degree = [np.repeat(np.arange(i, j_max + 1), np.array(m.dims[:j_max + 1 - i]) * size)
              for i, size in enumerate([1] + [gamma[0] for gamma in gammas])]
    diffs = [_koszul_diff(lam, m, i, j_max, gammas[i - 1]) for i in range(1, top + 1)]
    return TorTable(TorKind.MODULE, i_max, j_max, _complex_table(
        "Koszul complex", diffs, degree, [np.ones_like(d) for d in degree], lam.fld.l, j_max))


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
    """Fill the single missing entry (i_top, j_max) from the Euler
    characteristic in degree j_max, [t^j] h_M(t) / h_A(t) (that of the
    reduced bar complex's terms, by the alternating sum of their
    dimensions), as every other entry in degree j_max is known.  The
    entry is defined by that identity, so the identity certifies nothing
    there; only the bar complex can audit it."""
    chi = _series_quotient(m.dims, a.dims, j_max)[j_max]
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
PRODUCT_SLICE = 2 ** 15  # terms of a d^2=0 product held at once, a bound on its memory
ENGINES = ("auto", "bar", "resolution", "koszul")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}: expected one of {', '.join(ENGINES)}")


def tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int,
                engine: str = "auto") -> TorTable:
    """Tor_{i,j}(k,k) over A: 1 at (0, 0), and Tor_{i-1,j}(k, A_+) from
    `tor_module` (with its engine rule) at (i, j) for i >= 1.  Rows with
    i > j_max are zero by degree, so the table stops at min(i_max, j_max)."""
    _check_engine(engine)
    if j_max > a.n_max:
        raise ValueError("j_max exceeds the algebra truncation")
    i_max = min(i_max, j_max)
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
    free exterior algebra; else the resolution.  Rows with i > j_max are zero
    by degree, so the table stops at min(i_max, j_max).

    Every table is certified at run time: sum_i (-1)^i dim Tor_{i,j} =
    [t^j] h_M(t) / h_A(t), the alternating ranks of a minimal free resolution
    (Polishchuk, Positselski, "Quadratic Algebras", 2005), for every
    j <= min(i_max + 1, j_max); a violation raises AssertionError naming j."""
    _check_engine(engine)
    if j_max > a.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    i_max = min(i_max, j_max)
    if engine == "auto":
        if _monomial(a, m) or _dense_cost(a, m, i_max, j_max) <= DENSE_BAR_LIMIT:
            engine = "bar"
        elif is_free_exterior(a):
            engine = "koszul"
        else:
            engine = "resolution"
    run = {"bar": bar_tor_module, "resolution": resolution_tor_module,
           "koszul": koszul_tor_module}[engine]
    table = run(a, m, i_max, j_max)
    # the Euler certificate, in every degree j whose i the window holds all of
    # (Tor_{i,j} = 0 for i >= j, M_0 being 0); it says nothing about the
    # resolution's Euler-filled entry, which the identity defines
    expect = _series_quotient(m.dims, a.dims, j_max)
    for j in range(min(i_max + 1, j_max) + 1):
        if sum((-1) ** i * table.entry(i, j) for i in range(j + 1)) != expect[j]:
            raise AssertionError(f"Tor table fails the Euler characteristic at j={j}")
    return table


def _series_quotient(num: list[int], den: list[int], n: int) -> list[int]:
    """Coefficients of num(t) / den(t) through t^n, for den[0] = 1."""
    q = []
    for j in range(n + 1):
        c = num[j] if j < len(num) else 0
        q.append(c - sum(q[k] * den[j - k] for k in range(j)))
    return q
