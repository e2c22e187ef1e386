"""The GF(p) kernel against a naive elimination oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exttate import gfp

PRIMES = [2, 3, 101, 32003]


def naive_rref(a, p):
    arr = np.atleast_2d(np.asarray(a))
    m, n = arr.shape
    rows = [[int(x) % p for x in row] for row in arr]
    piv = []
    pr = 0
    for c in range(n):
        r = next((r for r in range(pr, m) if rows[r][c] % p), None)
        if r is None:
            continue
        rows[pr], rows[r] = rows[r], rows[pr]
        inv = pow(rows[pr][c], -1, p)
        rows[pr] = [(x * inv) % p for x in rows[pr]]
        for r2 in range(m):
            if r2 != pr and rows[r2][c]:
                f = rows[r2][c]
                rows[r2] = [(x - f * y) % p for x, y in zip(rows[r2], rows[pr])]
        piv.append(c)
        pr += 1
        if pr == m:
            break
    return np.array(rows, dtype=float).reshape(m, n), piv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_matches_naive(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.integers(0, 7))
    n = data.draw(st.integers(0, 7))
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n))
    A = np.array(flat, dtype=float).reshape(m, n)
    R1, piv1 = gfp.rref(A, p)
    R2, piv2 = naive_rref(A, p)
    assert piv1 == piv2
    assert np.array_equal(R1, R2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nullspace_basis(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.integers(0, 6))
    n = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    A = gfp.random_matrix(m, n, p, rng)
    N, free = gfp.nullspace(A, p)
    assert N.shape[1] == n - gfp.rank(A, p)
    assert np.array_equal(N[free], gfp.eye(len(free)))
    if N.shape[1]:
        assert not gfp.matmul(A, N, p).any()


def test_rref_of_low_rank_product():
    p = 32003
    rng = np.random.default_rng(11)
    A = gfp.matmul(gfp.random_matrix(200, 37, p, rng),
                   gfp.random_matrix(37, 310, p, rng), p)
    assert gfp.rank(A, p) == 37
    N, free = gfp.nullspace(A, p)
    assert N.shape[1] == 310 - 37
    assert np.array_equal(N[free], gfp.eye(310 - 37))
    assert not gfp.matmul(A, N, p).any()
    R, piv = gfp.rref(A, p)
    R2, piv2 = naive_rref(A, p)
    assert piv == piv2 and np.array_equal(R, R2)


def block_matrix(p, rng):
    """A shuffled block-diagonal matrix of half-filled random blocks up to
    8 x 8, with some zero rows and columns; each side is at most 60, and
    the matrix is transposed half of the time."""
    blocks = []
    rows = cols = 0
    target = int(rng.integers(1, 46))
    while max(rows, cols) < target:
        r, c = (int(v) for v in rng.integers(1, 9, size=2))
        blocks.append(gfp.random_matrix(r, c, p, rng) * (rng.random((r, c)) < 0.5))
        rows, cols = rows + r, cols + c
    pad_rows, pad_cols = (int(v) for v in rng.integers(0, 8, size=2))
    A = gfp.zeros(rows + pad_rows, cols + pad_cols)
    r0 = c0 = 0
    for b in blocks:
        A[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    A = A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]
    return A.T.copy() if rng.random() < 0.5 else A


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 101, 94906249]),
       shape=st.tuples(st.integers(0, 52), st.integers(0, 60)),
       density=st.sampled_from([0.02, 0.1, 0.5, 1.0]),
       blocks=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(p=101, shape=(0, 9), density=1.0, blocks=False, seed=0)
@example(p=101, shape=(9, 0), density=1.0, blocks=False, seed=0)
def test_kernel_matches_naive_oracle(p, shape, density, blocks, seed):
    """echelon, rref, rank, nullspace and extend_column_basis against
    naive_rref: sparse to dense matrices up to about 60 x 60, with zero and
    duplicate rows shuffled in, empty shapes, and block-diagonal matrices."""
    rng = np.random.default_rng(seed)
    if blocks:
        A = block_matrix(p, rng)
    else:
        A = gfp.random_matrix(*shape, p, rng) * (rng.random(shape) < density)
    if A.shape[0]:
        extra = rng.integers(-1, A.shape[0], size=int(rng.integers(0, 9)))  # -1: a zero row
        A = np.vstack([A] + [A[[i]] if i >= 0 else gfp.zeros(1, A.shape[1]) for i in extra])
        A = A[rng.permutation(A.shape[0])]
    n = A.shape[1]
    R, piv = naive_rref(A, p)
    for reduce in (gfp.echelon, gfp.rref):
        got, got_piv = reduce(A, p)
        assert got_piv == piv and np.array_equal(got, R)
    assert gfp.rank(A, p) == len(piv)
    free = [c for c in range(n) if c not in piv]
    want = gfp.zeros(n, len(free))
    want[free, range(len(free))] = 1.0
    want[piv] = (-R[:len(piv)][:, free]) % p
    N, got_free = gfp.nullspace(A, p)
    assert got_free.tolist() == free and np.array_equal(N, want)
    w = int(rng.integers(0, n + 1))
    assert gfp.extend_column_basis(A[:, :w], A[:, w:], p) == [c - w for c in piv if c >= w]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_results_ignore_row_order_and_redundant_rows(data):
    """rref, echelon, rank, nullspace and extend_column_basis depend only on
    the row space: permuting the rows, or adding zero or duplicate rows,
    changes none of them.  The kernel's free choice of pivot row rests on
    this."""
    p = data.draw(st.sampled_from([2, 3, 101, 94906249]))
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    density = data.draw(st.sampled_from([0.3, 0.6, 1.0]))
    A = gfp.random_matrix(m, n, p, rng) * (rng.random((m, n)) < density)
    extra = data.draw(st.lists(st.integers(-1, m - 1), max_size=4))  # -1: a zero row
    B = np.vstack([A] + [A[[i]] if i >= 0 else gfp.zeros(1, n) for i in extra])
    B = B[data.draw(st.permutations(range(B.shape[0])))]
    w = data.draw(st.integers(0, n))
    R, piv = gfp.rref(A, p)
    for reduce in (gfp.rref, gfp.echelon):
        R2, piv2 = reduce(B, p)
        assert piv2 == piv
        assert np.array_equal(R2[:len(piv)], R[:len(piv)]) and not R2[len(piv):].any()
    assert gfp.rank(B, p) == len(piv)
    for got, want in zip(gfp.nullspace(B, p), gfp.nullspace(A, p)):
        assert np.array_equal(got, want)
    assert (gfp.extend_column_basis(B[:, :w], B[:, w:], p)
            == gfp.extend_column_basis(A[:, :w], A[:, w:], p))


def test_extend_column_basis_greedy():
    p = 101
    base = np.array([[1.0], [0.0], [0.0]])
    cand = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    # first candidate is in span(base); second adds rank; third is then dependent
    assert gfp.extend_column_basis(base, cand, p) == [1]


def test_matmul_chunking_exact():
    p = 32003
    # force the chunked path with a tiny synthetic kmax by a long inner dim
    rng = np.random.default_rng(5)
    a = gfp.random_matrix(2, 9000, p, rng)
    b = gfp.random_matrix(9000, 2, p, rng)
    got = gfp.matmul(a, b, p)
    want = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(got, want.astype(float))


def test_rank_matches_sympy_at_largest_accepted_prime():
    """At the largest prime the float64 bound of `check_prime` accepts,
    products of residues come within 2^32 of 2^53.  Elimination works in
    Python ints, so it does not rest on that bound; its ranks must agree
    with exact GF(p) arithmetic on rank-5 products built in exact
    integers."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    p = 94906249
    gfp.check_prime(p)
    field = GF(p)
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = rng.integers(0, p, size=(6, 5)).astype(object)
        b = rng.integers(0, p, size=(5, 6)).astype(object)
        A = (a @ b) % p
        exact = DomainMatrix([[field(int(v)) for v in row] for row in A], (6, 6), field)
        assert gfp.rank(A.astype(np.float64), p) == exact.rank()


def test_mod_exact_over_its_range_at_largest_accepted_prime():
    """_mod is exact for -(2^53 - 2p) <= a < 2^53: the range ends, the
    residue-product extremes, and random x - c*y against Python ints.
    Around multiples of p the float quotient is off by one either way, so
    they exercise both fixups."""
    p = 94906249
    gfp.check_prime(p)
    lo, hi = -(2 ** 53 - 2 * p), 2 ** 53 - 1
    rng = np.random.default_rng(53)
    near = rng.integers(0, 3 * p, size=20_000)
    mult = rng.integers(lo // p + 1, hi // p, size=20_000) * p
    edges = np.concatenate([np.arange(lo, lo + 2000), np.arange(hi - 1999, hi + 1),
                            lo + near, hi - near, mult - 1, mult, mult + 1,
                            [-(p - 1) ** 2, (p - 1) ** 2, -p, -1, 0, 1, p - 1, p]])
    x, c, y = (rng.integers(0, p, size=200_000) for _ in range(3))
    for ints in (edges, x - c * y):
        got = gfp._mod(ints.astype(np.float64), p)
        want = np.array([int(v) % p for v in ints], dtype=np.float64)
        assert np.array_equal(got, want)
