"""Exact linear algebra over prime fields F_l.

Everything here is deterministic integer arithmetic mod l.  Dense work is
done on numpy int64 arrays, and `rref` is the one dense elimination: rank,
kernels, solving, inverses and the PBW survivor scan read its result.  The
one sparse elimination, `dict_pivots`, on {index: value} vectors of Python
ints, returns its greatest-index pivots with their echelon vectors: the
pivots give the bottom-up ranks of the bar and Koszul complexes and the
resolution's generators, the vectors the expansion's standard monomials and
normal forms and the resolution's kernels.  Nothing in the package calls
`sparse_rank`.  `RowSpan` serves only the two random isotropic extensions,
drawn by `random_combination`, whose insertion-order rows `gen` writes.

The modulus is bounded by MAX_MODULUS = 2^16.  An entry reduced mod l is at
most l - 1 < 2^16 in absolute value, so a single product of two entries
fits in 32 bits and an int64 contraction (a dot product, `@`, or the
np.outer update of an elimination step) of up to 2^31 terms is exact.
Chained products are reduced mod l between their factors, so that every
contraction starts from reduced operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# (MAX_MODULUS - 1)^2 < 2^32, so 2^31 products of reduced entries sum to
# less than 2^63: int64 contractions are exact without any cap on dimensions.
MAX_MODULUS = 2 ** 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The coefficient field Z/l for a prime l."""

    l: int

    def __post_init__(self) -> None:
        if self.l >= MAX_MODULUS:
            raise ValueError(f"modulus {self.l} is too large: l must be below {MAX_MODULUS}")
        if not _is_prime(self.l):
            raise ValueError(f"modulus {self.l} is not prime")

    def inv(self, a: int) -> int:
        a %= self.l
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_l")
        return pow(a, self.l - 2, self.l)


def as_array(data, p: int) -> np.ndarray:
    a = np.asarray(data, dtype=np.int64) % p
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.  Returns (rref matrix, pivot columns).

    Zero rows are dropped from the result.
    """
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(a: np.ndarray, p: int) -> int:
    """Rank mod p: the number of pivots of `rref`."""
    return len(rref(a, p)[1])


def random_combination(rows: np.ndarray, rng, p: int) -> np.ndarray:
    """A random element of the span of reduced rows: one `rng.randrange(p)`
    draw per row, in row order, and one int64 product mod p."""
    coeffs = np.array([rng.randrange(p) for _ in range(rows.shape[0])], dtype=np.int64)
    return (coeffs @ rows) % p


def bilinear(u: np.ndarray, gram: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """u @ gram @ v mod p, reduced between the factors so that each int64
    contraction starts from entries reduced mod p."""
    return (((u @ gram) % p) @ v) % p


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Right kernel of a: rows of the result v satisfy a @ v = 0 mod p.  Row k
    ends at the k-th free column with a 1, where the other rows are 0."""
    n = np.shape(a)[1]
    red, pivots = rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-red[:, free].T) % p
    return basis


def solve_combination(rows: np.ndarray, v: np.ndarray, p: int) -> np.ndarray | None:
    """Coefficients x with x @ rows = v mod p, or None if v is not in the span."""
    rows = np.asarray(rows, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64) % p
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64) if not v.any() else None
    aug = np.concatenate([rows.T, v.reshape(-1, 1)], axis=1)
    red, pivots = rref(aug, p)
    k = rows.shape[0]
    if k in pivots:
        return None
    x = np.zeros(k, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = int(red[r, k])
    return x


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises on singular input."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return red[:, n:]


class RowSpan:
    """Incremental row space mod p, kept in reduced echelon form."""

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.rows: list[np.ndarray] = []
        self.pivot_of_row: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, v: np.ndarray) -> np.ndarray:
        p = self.p
        v = np.asarray(v, dtype=np.int64) % p
        for row, pc in zip(self.rows, self.pivot_of_row):
            if v[pc]:
                v = (v - int(v[pc]) * row) % p
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not self.residual(v).any()

    def add(self, v: np.ndarray) -> bool:
        """Add v to the span; True iff the dimension grew."""
        p = self.p
        res = self.residual(v)
        nz = np.nonzero(res)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        res = (res * pow(int(res[pc]), p - 2, p)) % p
        for i, row in enumerate(self.rows):
            if row[pc]:
                self.rows[i] = (row - int(row[pc]) * res) % p
        self.rows.append(res)
        self.pivot_of_row.append(pc)
        return True

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.ncols), dtype=np.int64)
        return np.array(self.rows, dtype=np.int64)


@dataclass(frozen=True)
class SparseMatrixGF:
    """Sparse matrix over F_l as a list of (row, col, value) triples.

    No duplicate positions and no explicit zeros are stored.
    """

    field: PrimeField
    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        seen = set()
        for i, j, v in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({i},{j})")
            if v % self.field.l == 0:
                raise ValueError(f"stored zero at ({i},{j})")
            seen.add((i, j))

    @classmethod
    def from_dense(cls, data, fld: PrimeField) -> "SparseMatrixGF":
        a = as_array(data, fld.l)
        entries = tuple(
            (int(i), int(j), int(a[i, j]))
            for i, j in zip(*np.nonzero(a))
        )
        return cls(fld, a.shape[0], a.shape[1], entries)

    def columns(self) -> list[dict[int, int]]:
        cols: list[dict[int, int]] = [dict() for _ in range(self.cols)]
        for i, j, v in self.entries:
            cols[j][i] = v % self.field.l
        return cols


def dict_pivots(vectors, p: int, bound=None) -> dict[int, tuple[int, dict[int, int]]]:
    """The greatest-index pivots mod p of an iterable of vectors, {index:
    value} dicts or (index, value) pairs with no zeros stored: the last
    indices of an echelon basis of their span, where every nonzero vector of
    the span ends.  Returned as {lead: (inverse of the lead value, vector)},
    the vectors forming an echelon basis of the span.  Callers that count or
    test membership read the keys: `_bottom_up_pivots`, which ranks the bar
    and Koszul complexes, `sparse_rank`, and the resolution's generators.
    The degreewise expansion reads the vectors, for normal forms mod I_n.

    Each vector is reduced against the pivots so far, keyed by their
    greatest index, until it is zero or a new pivot (at once for the first
    with its greatest index when these ascend, as the bar's rows do).  The
    vectors, unchanged, may be streamed in any order: only pivots are held.

    The key decides the fill-in.  On the 3960 rows that the largest
    Koszul differential of the 9-generator symplectic module at (5, 6)
    streams, the least column of a row is shared by more rows than its
    greatest (3.5 against 1.5 on average), so least-index pivots there take
    4.9 times the reduction steps and store 2.1 times the entries.  Indices
    may be negative: `homology._kernel` marks each column of a map below its
    rows, and reads its kernel off the pivots with negative leads.  With
    `bound` it stops at that many pivots, exact when the span lies in a space
    of dimension `bound` (A_1 K_(j-1) in K_j): the rest reduce to 0.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for v in map(dict, vectors):
        while v:
            lead = max(v)
            if lead not in pivots:
                pivots[lead] = (pow(v[lead], p - 2, p), v)
                if len(pivots) == bound:
                    return pivots
                break
            inv, piv = pivots[lead]
            f = v[lead] * inv % p
            for k, x in piv.items():
                w = (v.get(k, 0) - f * x) % p
                if w:
                    v[k] = w
                else:
                    del v[k]
    return pivots


def sparse_rank(m: SparseMatrixGF) -> int:
    """Rank of m over F_l: the number of `dict_pivots` of its columns."""
    return len(dict_pivots(m.columns(), m.field.l))
