"""Bilinear and symplectic spaces over F_l, Lagrangians, and transversals.

Pairings valued in roots of unity are computed additively in F_l throughout
(fixed generator convention).  The transversal routine follows the greedy
proof: split every symplectic summand into hyperbolic planes, then pick one
line per plane avoiding the at-most-one forbidden line, so the direct sum
of the per-summand Lagrangians is complementary to the given one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import PrimeField, RowSpan


@dataclass
class BilinearSpace:
    fld: PrimeField
    dim: int
    gram: np.ndarray
    symplectic: bool = False
    summands: list[list[int]] | None = None

    def __post_init__(self) -> None:
        self.gram = np.asarray(self.gram, dtype=np.int64) % self.fld.l
        if self.gram.shape != (self.dim, self.dim):
            raise ValueError("gram matrix shape mismatch")
        if self.symplectic:
            if ((self.gram + self.gram.T) % self.fld.l).any() and self.fld.l != 2:
                raise ValueError("symplectic gram must be skew-symmetric")
            if self.gram.diagonal().any():
                raise ValueError("symplectic gram must have zero diagonal")
        if self.summands is not None:
            seen: set[int] = set()
            for block in self.summands:
                if seen & set(block):
                    raise ValueError("summands overlap")
                seen |= set(block)
            if seen != set(range(self.dim)):
                raise ValueError("summands must partition the basis")
            for i, a in enumerate(self.summands):
                for b in self.summands[i + 1:]:
                    if self.gram[np.ix_(a, b)].any():
                        raise ValueError("summands are not orthogonal")

    def pair(self, u: np.ndarray, v: np.ndarray) -> int:
        return int(gf.bilinear(np.asarray(u), self.gram, np.asarray(v), self.fld.l))

    def is_nondegenerate(self) -> bool:
        return gf.rank(self.gram, self.fld.l) == self.dim

    def orthogonal_complement(self, rows: np.ndarray) -> np.ndarray:
        """Basis rows of the subspace pairing to zero with every given row."""
        if rows.shape[0] == 0:
            return np.eye(self.dim, dtype=np.int64)
        return gf.nullspace((rows @ self.gram) % self.fld.l, self.fld.l)


def orthogonal_sum(spaces: list[BilinearSpace]) -> BilinearSpace:
    fld = spaces[0].fld
    dims = [s.dim for s in spaces]
    total = sum(dims)
    gram = np.zeros((total, total), dtype=np.int64)
    summands, off = [], 0
    for s in spaces:
        gram[off:off + s.dim, off:off + s.dim] = s.gram
        summands.append(list(range(off, off + s.dim)))
        off += s.dim
    return BilinearSpace(fld, total, gram,
                         symplectic=all(s.symplectic for s in spaces),
                         summands=summands)


def hyperbolic_plane(fld: PrimeField) -> BilinearSpace:
    gram = np.array([[0, 1], [-1 % fld.l, 0]], dtype=np.int64)
    return BilinearSpace(fld, 2, gram, symplectic=True)


@dataclass
class Subspace:
    ambient: BilinearSpace
    basis: np.ndarray  # rows

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=np.int64).reshape(-1, self.ambient.dim) \
            % self.ambient.fld.l
        if gf.rank(self.basis, self.ambient.fld.l) != self.basis.shape[0]:
            raise ValueError("basis rows are dependent")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_isotropic(self) -> bool:
        w = self.ambient
        return not gf.bilinear(self.basis, w.gram, self.basis.T, w.fld.l).any()

    def contains(self, v: np.ndarray) -> bool:
        return gf.solve_combination(self.basis, v, self.ambient.fld.l) is not None


def is_lagrangian(s: Subspace) -> bool:
    w = s.ambient
    if not w.is_nondegenerate():
        raise ValueError("ambient pairing is degenerate")
    if w.dim % 2:
        return False
    return s.dim == w.dim // 2 and s.is_isotropic()


def hyperbolic_decomposition(w: BilinearSpace, indices: list[int]) -> list[np.ndarray]:
    """Split the symplectic block on the given basis indices into hyperbolic
    planes: returns 2-row arrays (e, f) in ambient coordinates, <e,f> = 1."""
    p = w.fld.l
    vecs = [np.eye(w.dim, dtype=np.int64)[i] for i in indices]
    planes = []
    while vecs:
        e = vecs.pop(0)
        fi = next((k for k, v in enumerate(vecs) if w.pair(e, v)), None)
        if fi is None:
            raise ValueError("block is degenerate")
        f = vecs.pop(fi)
        f = (f * w.fld.inv(w.pair(e, f))) % p
        vecs = [(v - w.pair(v, f) * e + w.pair(v, e) * f) % p for v in vecs]
        planes.append(np.array([e, f], dtype=np.int64))
    return planes


def lagrangian_transversal(w: BilinearSpace, lagr: Subspace) -> list[Subspace]:
    """One Lagrangian M_v per declared summand with sum(M_v) complementary to L."""
    if w.summands is None:
        raise ValueError("summand decomposition required")
    if not is_lagrangian(lagr):
        raise ValueError("input subspace is not Lagrangian")
    p = w.fld.l
    plane_groups = [hyperbolic_decomposition(w, block) for block in w.summands]
    flat = [(k, pl) for k, group in enumerate(plane_groups) for pl in group]
    chosen: list[list[np.ndarray]] = [[] for _ in w.summands]
    picked: list[np.ndarray] = []
    # invariant before step t: L + chosen lines + planes[t:] spans everything
    for t, (k, pl) in enumerate(flat):
        rest = np.vstack([lagr.basis, *picked, *(q for _, q in flat[t + 1:])])
        dim = gf.rank(rest, p)
        if dim < w.dim - 1:
            raise AssertionError("transversal invariant broken: codimension > 1")
        e, f = pl
        for a, b in _line_reps(p):
            line = (a * e + b * f) % p
            if dim == w.dim or gf.rank(np.vstack([rest, line]), p) > dim:
                chosen[k].append(line)
                picked.append(line)
                break
        else:
            raise AssertionError("no admissible line; transversal construction failed")
    return [Subspace(w, np.array(chosen[k], dtype=np.int64))
            for k in range(len(w.summands))]


def _line_reps(p: int):
    """Representatives of the lines in a plane: (1, b) and (0, 1)."""
    for b in range(p):
        yield 1, b
    yield 0, 1


def random_lagrangian(w: BilinearSpace, seed: int) -> Subspace:
    if not w.symplectic or not w.is_nondegenerate() or w.dim % 2:
        raise ValueError("nondegenerate symplectic space required")
    rng = random.Random(seed)
    p = w.fld.l
    span = RowSpan(w.dim, p)
    while span.dim < w.dim // 2:
        perp = w.orthogonal_complement(span.matrix())
        for _ in range(1000):
            if span.add(gf.random_combination(perp, rng, p)):
                break
        else:
            raise AssertionError("failed to extend isotropic subspace")
    return Subspace(w, span.matrix())
