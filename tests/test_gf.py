"""Exact linear algebra over F_l: rank, kernels, membership, sparse audit."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koszulity import gf
from koszulity.gf import PrimeField, RowSpan, SparseMatrixGF


def sparse(data, l):
    return SparseMatrixGF.from_dense(np.array(data, dtype=np.int64), PrimeField(l))


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            PrimeField(1)

    @pytest.mark.parametrize("l", [gf.MAX_MODULUS, 65537, 4294967311,
                                   18446744073709551557])
    def test_rejects_modulus_above_bound(self, l):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(l)

    def test_largest_prime_below_bound(self):
        assert PrimeField(65521).inv(2) == 32761

    @pytest.mark.parametrize("l", [2, 3, 5, 7])
    def test_inverses(self, l):
        fld = PrimeField(l)
        for a in range(1, l):
            assert (a * fld.inv(a)) % l == 1


class TestRank:
    def test_empty(self):
        assert gf.sparse_rank(sparse(np.zeros((0, 0)), 2)) == 0

    def test_equal_rows_f2(self):
        assert gf.sparse_rank(sparse([[1, 1], [1, 1]], 2)) == 1

    def test_proportional_rows_f5(self):
        assert gf.sparse_rank(sparse([[1, 2], [2, 4]], 5)) == 1

    def test_identity(self):
        assert gf.sparse_rank(sparse(np.eye(4), 3)) == 4


class TestKernelBasis:
    def test_identity_trivial_kernel(self):
        assert gf.nullspace(np.eye(3, dtype=np.int64), 3).shape[0] == 0

    def test_zero_matrix_full_kernel(self):
        ker = gf.nullspace(np.zeros((2, 3), dtype=np.int64), 2)
        assert ker.shape[0] == 3

    def test_single_row_f2(self):
        ker = gf.nullspace(np.array([[1, 1]]), 2)
        assert ker.shape[0] == 1
        assert list(ker[0]) == [1, 1]

    def test_kernel_vectors_annihilate(self):
        a = np.array([[1, 2, 0], [0, 1, 1]])
        for v in gf.nullspace(a, 3):
            assert not ((a @ v) % 3).any()


def in_row_space(rows, v, l):
    return gf.solve_combination(np.array(rows), np.array(v), l) is not None


class TestRowSpaceMembership:
    def test_zero_vector_always_in(self):
        assert in_row_space([[1, 0]], [0, 0], 2)

    def test_outside(self):
        assert not in_row_space([[1, 0]], [0, 1], 2)

    def test_sum_of_rows(self):
        assert in_row_space([[1, 1], [0, 1]], [1, 0], 2)


class TestSparseMatrixValidation:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrixGF(PrimeField(2), 2, 2, ((0, 0, 1), (0, 0, 1)))

    def test_stored_zero_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrixGF(PrimeField(3), 1, 1, ((0, 0, 3),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrixGF(PrimeField(2), 1, 1, ((1, 0, 1),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from([2, 3, 5]),
       st.integers(1, 30), st.integers(1, 30))
def test_sparse_rank_matches_dense(seed, l, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, l, size=(rows, cols))
    m = SparseMatrixGF.from_dense(a, PrimeField(l))
    # the sparse elimination, at every size, against dense elimination
    assert gf.sparse_rank(m) == gf.rank(a, l)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from([2, 3, 5]),
       st.integers(1, 12), st.integers(1, 12))
def test_rank_plus_kernel_of_transpose(seed, l, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, l, size=(rows, cols))
    m = SparseMatrixGF.from_dense(a, PrimeField(l))
    assert gf.sparse_rank(m) == rows - gf.nullspace(a.T, l).shape[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from([2, 3, 5]), st.integers(1, 10))
def test_inverse_and_solve(seed, l, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, l, size=(n, n))
    if gf.rank(a, l) < n:
        with pytest.raises(ValueError):
            gf.inverse(a, l)
        return
    inv = gf.inverse(a, l)
    assert ((a @ inv) % l == np.eye(n, dtype=np.int64)).all()
    b = rng.integers(0, l, size=n)
    x = gf.solve_combination(a.T, b, l)
    assert ((a @ x) % l == b % l).all()


def test_rowspan_incremental():
    span = RowSpan(3, 2)
    assert span.add(np.array([1, 1, 0]))
    assert not span.add(np.array([1, 1, 0]))
    assert span.add(np.array([0, 1, 1]))
    assert span.contains(np.array([1, 0, 1]))
    assert span.dim == 2


KERNEL_PRIMES = [2, 3, 5, 7, 65521]


def reference_product(a, b, p):
    """a @ b mod p in Python integers, which cannot overflow."""
    return (a.astype(object) @ b.astype(object)) % p


def _low_rank(seed, p, rows, cols, inner, zeros):
    """A random rows x cols product of rank at most inner, with a share of
    its entries zeroed."""
    rng = np.random.default_rng(seed)
    a = reference_product(rng.integers(0, p, size=(rows, inner)),
                          rng.integers(0, p, size=(inner, cols)), p)
    return a.astype(np.int64) * (rng.random((rows, cols)) >= zeros)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from(KERNEL_PRIMES),
       st.integers(1, 40), st.integers(1, 40), st.integers(0, 40),
       st.floats(0.0, 0.9))
def test_rank_matches_rref(seed, p, rows, cols, inner, zeros):
    # a low-rank product with a share of entries zeroed, so that
    # elimination meets rank deficiency, zero columns and row swaps
    a = _low_rank(seed, p, rows, cols, inner, zeros)
    assert gf.rank(a, p) == len(gf.rref(a, p)[1])


def _dicts(a):
    return [{k: int(x) for k, x in enumerate(v) if x} for v in a]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from(KERNEL_PRIMES),
       st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
       st.floats(0.0, 0.95))
def test_dict_rank_matches_dense(seed, p, rows, cols, inner, zeros):
    # a low-rank product with a share of entries zeroed, from dense to
    # sparse fills; rank A = rank A^T, so its columns and its rows both
    # give the rank of dense elimination
    a = _low_rank(seed, p, rows, cols, inner, zeros)
    expect = gf.rank(a, p)
    for vectors in (_dicts(a.T), _dicts(a)):
        kept = [dict(v) for v in vectors]
        assert len(gf.dict_pivots(vectors, p)) == expect
        assert vectors == kept


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from(KERNEL_PRIMES),
       st.integers(0, 30), st.integers(1, 30), st.integers(0, 30),
       st.floats(0.0, 0.95))
def test_dict_pivots_are_last_columns_of_reduced_basis(seed, p, rows, cols, inner, zeros):
    # the pivots of rref on reversed columns are the columns at which the
    # rows of a reduced basis of the row space end
    a = _low_rank(seed, p, rows, cols, inner, zeros)
    expect = {cols - 1 - c for c in gf.rref(a[:, ::-1], p)[1]}
    pivots = gf.dict_pivots(iter(_dicts(a)), p)
    assert pivots.keys() == expect
    # each pivot vector ends at its key, with the inverse of its last value,
    # and together they span the rows
    basis = np.zeros((len(pivots), cols), dtype=np.int64)
    for r, (lead, (inv, vec)) in enumerate(pivots.items()):
        assert max(vec) == lead and inv * vec[lead] % p == 1
        basis[r, list(vec)] = list(vec.values())
    assert gf.rank(np.concatenate([basis, a]), p) == len(pivots)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from(KERNEL_PRIMES),
       st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
       st.floats(0.0, 0.95))
def test_nullspace_rows_end_at_distinct_columns(seed, p, rows, cols, inner, zeros):
    # each kernel row is 1 at its own last nonzero column, and every other
    # row is 0 there: the resolution's choice of generators rests on this
    a = _low_rank(seed, p, rows, cols, inner, zeros)
    ker = gf.nullspace(a, p)
    assert ker.shape == (cols - gf.rank(a, p), cols)
    assert all(ker.any(axis=1))
    last = [int(np.flatnonzero(row)[-1]) for row in ker]
    assert len(set(last)) == len(last)
    assert np.array_equal(ker[:, last], np.eye(len(last), dtype=np.int64))
    assert not reference_product(a, ker.T, p).any()


def test_rank_of_empty_shapes():
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert gf.rank(np.zeros(shape, dtype=np.int64), 3) == 0


@pytest.mark.parametrize("p,shape", [(2, (3, 5)), (65521, (4, 4)), (3, (0, 3))])
def test_random_combination_draws_one_coefficient_per_row(p, shape):
    rows = np.random.default_rng(p).integers(0, p, size=shape)
    drawn, rng = random.Random(7), random.Random(7)
    got = gf.random_combination(rows, drawn, p)
    want = np.zeros(shape[1], dtype=np.int64)
    for row in rows:
        want = (want + rng.randrange(p) * row) % p
    assert np.array_equal(got, want)
    assert drawn.random() == rng.random()  # the streams stay in step
