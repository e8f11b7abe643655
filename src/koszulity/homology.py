"""Bidegree homology H_{i,j} = Tor_{i,j} over F_l, with Koszulity diagnosis.

Three interchangeable engines compute the same table:

* a dense bar complex, component by component, for small instances;
* the same bar complex split by monomial multidegree when the algebra (and
  module) have a monomial basis — the differential preserves the total
  exponent vector, so the complex decomposes into many tiny blocks;
* a minimal free resolution built degree by degree, where Tor_{i,j} is read
  off as the number of degree-j generators of the i-th syzygy module (valid
  because the algebras here are generated in degree 1, so minimal
  generators are computed by the graded Nakayama rule (A_+ K)_j = A_1 K_{j-1}).

The bar engines are the ground truth; the resolution engine is an
optimization audited against them in the test suite.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import DegreewiseAlgebra, ModuleTruncation
from .monomials import Monomial, mono_mul


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


# ---------------------------------------------------------------- dense bar


def _compositions(total: int, parts: int, dims) -> list[tuple[int, ...]]:
    """Compositions of `total` into `parts` positive parts with dims[part] > 0."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(1, total - parts + 2):
        if first >= len(dims) or dims[first] == 0:
            continue
        for rest in _compositions(total - first, parts - 1, dims):
            out.append((first,) + rest)
    return out


class _DenseBar:
    """Bar complex of k (or of a module) restricted to one internal degree j."""

    def __init__(self, a: DegreewiseAlgebra, m: ModuleTruncation | None, j: int):
        self.a, self.m, self.j = a, m, j
        self.p = a.fld.l

    def components(self, i: int) -> list[tuple]:
        """Direct summands of the i-th term: algebra-degree compositions,
        plus a trailing module degree in the module case."""
        if self.m is None:
            return [(c, None) for c in _compositions(self.j, i, self.a.dims)]
        out = []
        for md in range(1, self.j - i + 1):
            if self.m.dims[md] == 0:
                continue
            for c in _compositions(self.j - md, i, self.a.dims):
                out.append((c, md))
        return out

    def comp_dim(self, comp) -> int:
        c, md = comp
        d = 1
        for n in c:
            d *= self.a.dims[n]
        if md is not None:
            d *= self.m.dims[md]
        return d

    def term_dim(self, i: int) -> int:
        if self.m is None and i == 0:
            return 1 if self.j == 0 else 0
        return sum(self.comp_dim(c) for c in self.components(i))

    def differential(self, i: int) -> np.ndarray:
        """Matrix of d_i: C_i -> C_(i-1)."""
        src = self.components(i)
        tgt = self.components(i - 1)
        if self.m is None and i == 1:
            tgt = []  # C_0 = k in degree 0 only; d_1 = 0
        tgt_off, off = {}, 0
        for c in tgt:
            tgt_off[c] = off
            off += self.comp_dim(c)
        rows = off
        cols = sum(self.comp_dim(c) for c in src)
        d = np.zeros((rows, cols), dtype=np.int64)
        col_off = 0
        for c, md in src:
            w = self.comp_dim((c, md))
            factor_dims = [self.a.dims[n] for n in c]
            if md is not None:
                factor_dims.append(self.m.dims[md])
            nterms = len(c) - 1 if self.m is None else len(c)
            for s in range(nterms):
                if s < len(c) - 1:
                    mult = self.a.mult_matrix(c[s], c[s + 1])
                    newc = c[:s] + (c[s] + c[s + 1],) + c[s + 2:]
                    key = (newc, md)
                else:
                    mult = self.m.action_matrix(c[s], md)
                    key = (c[:s], md + c[s])
                if key not in tgt_off:
                    continue
                left = int(np.prod(factor_dims[:s], dtype=np.int64))
                right = int(np.prod(factor_dims[s + 2:], dtype=np.int64))
                block = np.kron(np.eye(left, dtype=np.int64),
                                np.kron(mult, np.eye(right, dtype=np.int64)))
                sign = 1 if s % 2 == 0 else -1
                r0 = tgt_off[key]
                d[r0:r0 + block.shape[0], col_off:col_off + w] = \
                    (d[r0:r0 + block.shape[0], col_off:col_off + w] + sign * block) % self.p
            col_off += w
        return d


def _bar_dense_table(a, m, i_max, j_max) -> dict[tuple[int, int], int]:
    dims: dict[tuple[int, int], int] = {}
    p = a.fld.l
    for j in range(0, j_max + 1):
        bar = _DenseBar(a, m, j)
        top = min(i_max + 1, j if m is None else j)
        tdims = [bar.term_dim(i) for i in range(top + 1)]
        diffs = [None] + [bar.differential(i) for i in range(1, top + 1)]
        for i in range(1, top):
            if diffs[i].size and diffs[i + 1].size and gf.matmul(diffs[i], diffs[i + 1], p).any():
                raise AssertionError(f"bar differential fails d^2=0 at (i={i + 1}, j={j})")
        ranks = [0] * (top + 2)
        for i in range(1, top + 1):
            ranks[i] = gf.rank(diffs[i], p) if diffs[i].size else 0
        for i in range(0, min(i_max, top) + 1):
            h = tdims[i] - ranks[i] - (ranks[i + 1] if i + 1 <= top else 0)
            if h:
                dims[(i, j)] = h
    if m is None:
        dims[(0, 0)] = 1
    return dims


# --------------------------------------------------- multidegree-split bar


class _MonomialStructure:
    """Structure constants of a monomial algebra/module on basis monomials."""

    def __init__(self, a: DegreewiseAlgebra, m: ModuleTruncation | None):
        if not a.monomial or a.basis_monomials is None:
            raise ValueError("multidegree split needs a monomial basis")
        self.a, self.m = a, m
        self.p = a.fld.l
        self.aindex = [{mo: k for k, mo in enumerate(bs)} for bs in a.basis_monomials]
        if m is not None:
            if not m.monomial or m.basis_monomials is None:
                raise ValueError("multidegree split needs a monomial module basis")
            self.mindex = [{mo: k for k, mo in enumerate(bs)} for bs in m.basis_monomials]
        self._pair: dict = {}
        self._act: dict = {}

    def pair(self, x: Monomial, y: Monomial):
        """x*y in the algebra: (coef, basis monomial) or (0, None)."""
        key = (x, y)
        if key not in self._pair:
            d = x.degree + y.degree
            v = self.a.element_product(
                _unit_vec(self.a.dims[x.degree], self.aindex[x.degree][x]), x.degree,
                _unit_vec(self.a.dims[y.degree], self.aindex[y.degree][y]), y.degree)
            self._pair[key] = _single_term(v, self.a.basis_monomials[d])
        return self._pair[key]

    def act(self, x: Monomial, b: Monomial):
        """x*b in the module: (coef, module basis monomial) or (0, None)."""
        key = (x, b)
        if key not in self._act:
            n = b.degree
            v = _unit_vec(self.m.dims[n], self.mindex[n][b])
            deg = n
            for g in reversed(x.word()):
                v = self.m.apply_generator(g, deg, v)
                deg += 1
            self._act[key] = _single_term(v, self.m.basis_monomials[deg])
        return self._act[key]


def _unit_vec(n: int, k: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    v[k] = 1
    return v


def _single_term(v: np.ndarray, basis: list[Monomial]):
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        return 0, None
    if nz.size > 1:
        raise ValueError("product is not monomial")
    k = int(nz[0])
    return int(v[k]), basis[k]


def _split_tuples(st: _MonomialStructure, i: int, j: int):
    """All bar basis tuples at (i, j), grouped by total multidegree."""
    a, m = st.a, st.m
    groups: dict[Monomial, list[tuple]] = {}

    def rec(pos: int, remaining: int, prefix: tuple, multi: Monomial):
        if pos == i:
            if m is None:
                if remaining == 0:
                    groups.setdefault(multi, []).append(prefix)
            else:
                if 1 <= remaining <= m.n_max and m.dims[remaining]:
                    for b in m.basis_monomials[remaining]:
                        groups.setdefault(mono_mul(multi, b), []).append(prefix + (b,))
            return
        low = 1
        high = remaining - (i - pos - 1) - (1 if m is not None else 0)
        for d in range(low, min(high, a.n_max) + 1):
            for mo in a.basis_monomials[d]:
                rec(pos + 1, remaining - d, prefix + (mo,), mono_mul(multi, mo))

    rec(0, j, (), Monomial.unit())
    return groups


def _split_block_diff(st: _MonomialStructure, src: list[tuple], tgt: list[tuple],
                      module: bool) -> np.ndarray:
    p = st.p
    pos = {t: k for k, t in enumerate(tgt)}
    d = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for col, t in enumerate(src):
        nfac = len(t) - 1 if module else len(t)
        for s in range(nfac - 1):
            coef, prod = st.pair(t[s], t[s + 1])
            if prod is None:
                continue
            new = t[:s] + (prod,) + t[s + 2:]
            if new in pos:
                sign = coef if s % 2 == 0 else -coef
                d[pos[new], col] = (d[pos[new], col] + sign) % p
        if module and nfac >= 1:
            s = nfac - 1
            coef, prod = st.act(t[s], t[s + 1])
            if prod is not None:
                new = t[:s] + (prod,)
                if new in pos:
                    sign = coef if s % 2 == 0 else -coef
                    d[pos[new], col] = (d[pos[new], col] + sign) % p
    return d


def _bar_split_table(a, m, i_max, j_max) -> dict[tuple[int, int], int]:
    st = _MonomialStructure(a, m)
    p = a.fld.l
    dims: dict[tuple[int, int], int] = {}
    module = m is not None
    for j in range(1 if module else 0, j_max + 1):
        top = min(i_max + 1, j)
        tiers = [_split_tuples(st, i, j) for i in range(top + 1)]
        if not module:
            # C_0 = k lives only at j = 0
            tiers[0] = {} if j > 0 else {Monomial.unit(): [()]}
        multis = set().union(*(t.keys() for t in tiers))
        for mu in multis:
            blocks = [t.get(mu, []) for t in tiers]
            ranks = [0] * (top + 2)
            prev = None
            for i in range(1, top + 1):
                dmat = _split_block_diff(st, blocks[i], blocks[i - 1], module)
                if prev is not None and prev.size and dmat.size:
                    if gf.matmul(prev, dmat, p).any():
                        raise AssertionError(f"bar differential fails d^2=0 at j={j}")
                ranks[i] = gf.rank(dmat, p) if dmat.size else 0
                prev = dmat
            for i in range(0, min(i_max, top) + 1):
                h = len(blocks[i]) - ranks[i] - (ranks[i + 1] if i + 1 <= top else 0)
                if h:
                    dims[(i, j)] = dims.get((i, j), 0) + h
    if not module:
        dims[(0, 0)] = 1
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
        b = self.blocks(j)
        if not b:
            return 0
        e, vd, off = b[-1]
        return off + self.a.dims[j - e] * vd

    def gen_mul(self, g: int, j: int, vec: np.ndarray) -> np.ndarray:
        """x_g * vec, mapping degree j to degree j+1 coordinates."""
        a = self.a
        p = a.fld.l
        out = np.zeros(self.dim(j + 1), dtype=np.int64)
        tgt = {e: off for e, _, off in self.blocks(j + 1)}
        for e, vd, off in self.blocks(j):
            d = j - e
            sub = vec[off:off + a.dims[d] * vd].reshape(a.dims[d], vd)
            if not sub.any() or e not in tgt:
                continue
            if d == 0:
                res = np.zeros((a.dims[1], vd), dtype=np.int64)
                res[g] = sub[0]
            else:
                res = (a.gen_action[d][g] @ sub) % p
            o2 = tgt[e]
            out[o2:o2 + res.size] = (out[o2:o2 + res.size] + res.reshape(-1)) % p
        return out

    def elem_mul(self, d: int, u_idx: int, j: int, vec: np.ndarray) -> np.ndarray:
        """(basis vector u_idx of A_d) * vec, degree j to degree j+d."""
        a = self.a
        p = a.fld.l
        if d == 0:
            return vec % p
        out = np.zeros(self.dim(j + d), dtype=np.int64)
        tgt = {e: off for e, _, off in self.blocks(j + d)}
        for e, vd, off in self.blocks(j):
            dp = j - e
            sub = vec[off:off + a.dims[dp] * vd].reshape(a.dims[dp], vd)
            if not sub.any() or e not in tgt:
                continue
            mult = a.mult_matrix(d, dp)
            t = mult[:, u_idx * a.dims[dp]:(u_idx + 1) * a.dims[dp]]
            res = (t @ sub) % p
            o2 = tgt[e]
            out[o2:o2 + res.size] = (out[o2:o2 + res.size] + res.reshape(-1)) % p
        return out


def _resolution_table(a: DegreewiseAlgebra, m: ModuleTruncation | None,
                      i_max: int, j_max: int) -> dict[tuple[int, int], int]:
    p = a.fld.l
    dims: dict[tuple[int, int], int] = {}

    if m is None:
        # resolve k: F_0 = A, first syzygy K = A_+ inside F_0
        layout = _Layout(a, [(0, 1)])
        kernels = {j: np.eye(a.dims[j], dtype=np.int64) for j in range(1, j_max + 1)}
        dims[(0, 0)] = 1
    else:
        # V_0 = M / A_1 M, represented inside M degreewise
        vblocks, reps = [], {}
        for j in range(1, j_max + 1):
            span = gf.RowSpan(m.dims[j], p)
            if j > 1 and m.dims[j - 1]:
                for g in range(a.num_generators):
                    for col in np.eye(m.dims[j - 1], dtype=np.int64):
                        span.add(m.apply_generator(g, j - 1, col))
            rep = []
            for v in np.eye(m.dims[j], dtype=np.int64):
                if span.add(v):
                    rep.append(v)
            if rep:
                vblocks.append((j, len(rep)))
                reps[j] = np.array(rep, dtype=np.int64)
                dims[(0, j)] = len(rep)
        layout = _Layout(a, vblocks)
        # kernel of F_0 -> M, degree by degree
        kernels = {}
        for j in range(1, j_max + 1):
            cols = layout.dim(j)
            if cols == 0:
                continue
            phi = np.zeros((m.dims[j], cols), dtype=np.int64)
            for e, vd, off in layout.blocks(j):
                d = j - e
                if d == 0:
                    block = reps[e].T % p
                else:
                    # columns of the action matrix are (u, w) pairs over the
                    # M_e basis; compose with the chosen representatives
                    act = m.action_matrix(d, e)
                    block = np.zeros((m.dims[j], a.dims[d] * vd), dtype=np.int64)
                    for u in range(a.dims[d]):
                        sub = act[:, u * m.dims[e]:(u + 1) * m.dims[e]]
                        block[:, u * vd:(u + 1) * vd] = (sub @ reps[e].T) % p
                phi[:, off:off + block.shape[1]] = block
            ker = gf.nullspace(phi, p)
            if ker.shape[0]:
                kernels[j] = ker

    for i in range(1, i_max + 1):
        vblocks, reps = [], {}
        for j in sorted(kernels):
            if j > j_max:
                continue
            span = gf.RowSpan(kernels[j].shape[1], p)
            if j - 1 in kernels:
                for row in kernels[j - 1]:
                    for g in range(a.num_generators):
                        span.add(layout.gen_mul(g, j - 1, row))
            rep = []
            for row in kernels[j]:
                if span.add(row):
                    rep.append(row)
            if rep:
                vblocks.append((j, len(rep)))
                reps[j] = np.array(rep, dtype=np.int64)
                dims[(i, j)] = len(rep)
        if i == i_max or not vblocks:
            break
        new_layout = _Layout(a, vblocks)
        new_kernels = {}
        for j in range(1, j_max + 1):
            cols = new_layout.dim(j)
            if cols == 0:
                continue
            phi = np.zeros((layout.dim(j), cols), dtype=np.int64)
            for e, vd, off in new_layout.blocks(j):
                d = j - e
                for u in range(a.dims[d]):
                    for v in range(vd):
                        phi[:, off + u * vd + v] = layout.elem_mul(d, u, e, reps[e][v])
            ker = gf.nullspace(phi, p)
            if ker.shape[0]:
                new_kernels[j] = ker
        layout, kernels = new_layout, new_kernels
        if not kernels:
            break
    return dims


# ------------------------------------------- Koszul complex, exterior cover


def is_free_exterior(a: DegreewiseAlgebra) -> bool:
    """Does a have the dimensions (and mode) of the free exterior algebra?"""
    from math import comb
    n = a.num_generators
    return a.mode.value == "super" and \
        all(a.dims[d] == comb(n, d) for d in range(a.n_max + 1))


def _koszul_complex_diff(lam: DegreewiseAlgebra, m: ModuleTruncation,
                         i: int, j: int) -> gf.SparseMatrixGF:
    """d: M_{j-i} (x) Gamma_i  ->  M_{j-i+1} (x) Gamma_{i-1} for the Cartan
    resolution of k over the free exterior algebra; Gamma_i has the degree-i
    monomials in the dual variables as basis and d contracts one variable,
    multiplying the module element by the matching generator."""
    from .monomials import mono_enumerate
    p = lam.fld.l
    src_md, tgt_md = j - i, j - i + 1
    src_b = mono_enumerate(lam.order, i, squarefree=False)
    tgt_b = mono_enumerate(lam.order, i - 1, squarefree=False)
    tgt_pos = {mo: k for k, mo in enumerate(tgt_b)}
    sd = m.dims[src_md] if 0 <= src_md <= m.n_max else 0
    td = m.dims[tgt_md] if 0 <= tgt_md <= m.n_max else 0
    rows, cols = td * len(tgt_b), sd * len(src_b)
    entries = []
    if sd and td:
        acted = {}
        for g in range(lam.num_generators):
            acted[g] = m.action[src_md][g] % p
        for bcol, mono in enumerate(src_b):
            for g, e in mono.exps:
                lower = tgt_pos[Monomial.from_dict(
                    {r: x - (1 if r == g else 0) for r, x in mono.exps})]
                mat = acted[g]
                for ti, si in zip(*np.nonzero(mat)):
                    entries.append((int(ti) * len(tgt_b) + lower,
                                    int(si) * len(src_b) + bcol,
                                    int(mat[ti, si])))
    return gf.SparseMatrixGF(lam.fld, rows, cols, tuple(entries))


def _sparse_product_nonzero(lo: gf.SparseMatrixGF, hi: gf.SparseMatrixGF, p: int) -> bool:
    """Is lo @ hi nonzero mod p?  The full sparse product, exactly."""
    lo_col: dict[int, list[tuple[int, int]]] = {}
    for r, c, val in lo.entries:
        lo_col.setdefault(c, []).append((r, val))
    prod: dict[tuple[int, int], int] = {}
    for mid, c, val in hi.entries:
        for r, lval in lo_col.get(mid, ()):
            prod[r, c] = (prod.get((r, c), 0) + lval * val) % p
    return any(prod.values())


def koszul_tor_module(lam: DegreewiseAlgebra, m: ModuleTruncation,
                      i_max: int, j_max: int) -> TorTable:
    """Tor over a free exterior cover from the Cartan (Koszul) resolution."""
    if not is_free_exterior(lam):
        raise ValueError("the Koszul-complex engine needs a free exterior cover")
    if j_max > lam.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    from math import comb
    p = lam.fld.l
    dims: dict[tuple[int, int], int] = {}
    for j in range(1, j_max + 1):
        top = min(i_max, j - 1)
        diffs = []
        for i in range(1, top + 2):
            diffs.append(_koszul_complex_diff(lam, m, i, j))
        for k in range(len(diffs) - 1):
            if _sparse_product_nonzero(diffs[k], diffs[k + 1], p):
                raise AssertionError(f"Koszul complex fails d^2=0 at j={j}")
        ranks = [0] + [gf.sparse_rank(dmat) for dmat in diffs]
        for i in range(0, top + 1):
            md = j - i
            cdim = (m.dims[md] if 1 <= md <= m.n_max else 0) * comb(
                lam.num_generators + i - 1, i)
            h = cdim - ranks[i] - ranks[i + 1]
            if h:
                dims[(i, j)] = h
    return TorTable(TorKind.MODULE, i_max, j_max, dims)


# ----------------------------------------------------------------- drivers


def _dense_cost(a, m, i_max, j_max) -> int:
    worst = 0
    for j in range(j_max + 1):
        bar = _DenseBar(a, m, j)
        for i in range(min(i_max, j) + 2):
            worst = max(worst, bar.term_dim(i))
    return worst


def bar_tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int) -> TorTable:
    """H_{i,j}(A) = Tor_{i,j}(k,k) from the reduced bar complex."""
    if j_max > a.n_max:
        raise ValueError("j_max exceeds the algebra truncation")
    if a.monomial and a.basis_monomials is not None:
        dims = _bar_split_table(a, None, i_max, j_max)
    else:
        dims = _bar_dense_table(a, None, i_max, j_max)
    return TorTable(TorKind.ALGEBRA, i_max, j_max, dims)


def bar_tor_module(a: DegreewiseAlgebra, m: ModuleTruncation,
                   i_max: int, j_max: int) -> TorTable:
    """H_{i,j}(A, M) = Tor_{i,j}(k,M) from the reduced bar complex."""
    if j_max > a.n_max or j_max > m.n_max:
        raise ValueError("j_max exceeds the truncation")
    if a.monomial and a.basis_monomials is not None and m.monomial \
            and m.basis_monomials is not None:
        dims = _bar_split_table(a, m, i_max, j_max)
    else:
        dims = _bar_dense_table(a, m, i_max, j_max)
    return TorTable(TorKind.MODULE, i_max, j_max, dims)


def _euler_fill(a: DegreewiseAlgebra, m: ModuleTruncation | None,
                i_top: int, j_max: int, dims: dict[tuple[int, int], int]) -> None:
    """Fill the single missing entry (i_top, j_max) from the per-degree Euler
    characteristic of the reduced bar complex: the alternating sums of term
    dimensions (combinatorial) and of homology dimensions agree in each
    internal degree, and every other entry in degree j_max is known."""
    bar = _DenseBar(a, m, j_max)
    chi = sum((-1) ** i * bar.term_dim(i) for i in range(i_top + 1))
    known = sum((-1) ** i * dims.get((i, j_max), 0) for i in range(i_top))
    h = (-1) ** i_top * (chi - known)
    if h < 0:
        raise AssertionError("negative homology dimension from Euler fill")
    if h:
        dims[(i_top, j_max)] = h


def resolution_tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int) -> TorTable:
    """Same table via a minimal free resolution of k.

    The final homological stage is the expensive one and only ever carries the
    entry (j_max, j_max) within the window, so when the window reaches it the
    resolution is stopped one stage short and that entry is recovered from the
    bar complex Euler characteristic in degree j_max.
    """
    if j_max > a.n_max:
        raise ValueError("j_max exceeds the algebra truncation")
    i_top = j_max  # beyond this, entries in the window vanish (i > j)
    if i_max >= i_top >= 1:
        dims = _resolution_table(a, None, i_top - 1, j_max)
        _euler_fill(a, None, i_top, j_max, dims)
    else:
        dims = _resolution_table(a, None, i_max, j_max)
    return TorTable(TorKind.ALGEBRA, i_max, j_max, dims)


def resolution_tor_module(a: DegreewiseAlgebra, m: ModuleTruncation,
                          i_max: int, j_max: int) -> TorTable:
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


def tor_algebra(a: DegreewiseAlgebra, i_max: int, j_max: int,
                engine: str = "auto") -> TorTable:
    if engine == "bar" or (engine == "auto" and (
            (a.monomial and a.basis_monomials is not None)
            or _dense_cost(a, None, i_max, j_max) <= DENSE_BAR_LIMIT)):
        return bar_tor_algebra(a, i_max, j_max)
    return resolution_tor_algebra(a, i_max, j_max)


def tor_module(a: DegreewiseAlgebra, m: ModuleTruncation, i_max: int, j_max: int,
               engine: str = "auto") -> TorTable:
    monomial = a.monomial and a.basis_monomials is not None \
        and m.monomial and m.basis_monomials is not None
    if engine == "koszul":
        return koszul_tor_module(a, m, i_max, j_max)
    if engine == "bar" or (engine == "auto" and (
            monomial or _dense_cost(a, m, i_max, j_max) <= DENSE_BAR_LIMIT)):
        return bar_tor_module(a, m, i_max, j_max)
    if engine == "auto" and is_free_exterior(a):
        return koszul_tor_module(a, m, i_max, j_max)
    return resolution_tor_module(a, m, i_max, j_max)
