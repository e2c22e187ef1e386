"""The GF(p) kernel against a naive elimination oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dense_extend_column_basis, dense_rank
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
    assert N.shape[1] == n - dense_rank(A, p)
    assert np.array_equal(N[free], gfp.eye(len(free)))
    if N.shape[1]:
        assert not gfp.matmul(A, N, p).any()
    # nullspace is kernel_nonzeros written densely; readers slice its
    # nonzeros by vector, so they come sorted by vec with no zero value
    length, nz_free, vec, coord, val = gfp.kernel_nonzeros(A, p)
    assert length == n and np.array_equal(nz_free, free)
    assert np.all(np.diff(vec) >= 0) and np.all((val > 0) & (val < p))


def test_rref_of_low_rank_product():
    p = 32003
    rng = np.random.default_rng(11)
    A = gfp.matmul(gfp.random_matrix(200, 37, p, rng),
                   gfp.random_matrix(37, 310, p, rng), p)
    assert dense_rank(A, p) == 37
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
    """echelon, rref, rank, nullspace, extend_column_basis and the triplet
    paths `_insert_rows` and `triplet_kernel` against naive_rref: sparse to
    dense matrices up to about 60 x 60, with zero and duplicate rows
    shuffled in, empty shapes, and block-diagonal matrices."""
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
    assert dense_rank(A, p) == len(piv)
    free = [c for c in range(n) if c not in piv]
    want = gfp.zeros(n, len(free))
    want[free, range(len(free))] = 1.0
    want[piv] = (-R[:len(piv)][:, free]) % p
    N, got_free = gfp.nullspace(A, p)
    assert got_free.tolist() == free and np.array_equal(N, want)
    # the triplet path: row labels spread apart, columns shuffled within rows
    r, c = np.nonzero(A)
    order = np.lexsort((rng.random(r.size), r))
    r, c = r[order], c[order]
    tails = gfp._insert_rows(3 * r + 1, c.tolist(), A[r, c].astype(np.int64).tolist(), p)
    assert sorted(tails) == piv
    exact = R.astype(np.int64)
    for lead, tail in tails.items():
        assert all(j > lead for j in tail)
        row = np.zeros(n, dtype=np.int64)
        row[lead] = 1
        row[list(tail)] = list(tail.values())
        assert np.array_equal(row, sum(row[j] * exact[k] % p for k, j in enumerate(piv)) % p)
    # rank counts the pivots of the same triplets in any order, with
    # entries that are 0 mod p left in
    shuffle = rng.permutation(r.size)
    zr, zc = rng.integers(0, max(A.shape[0], 1), size=3), rng.integers(0, max(n, 1), size=3)
    keep = A[zr, zc] == 0 if A.size else np.zeros(3, dtype=bool)
    assert gfp.rank(np.concatenate([(3 * r + 1)[shuffle], 3 * zr[keep] + 1]),
                    np.concatenate([c[shuffle], zc[keep]]),
                    np.concatenate([A[r, c][shuffle] + p, np.full(keep.sum(), p)]), p) == len(piv)
    # the kernel of the same triplets is the dense path's, field for field
    got = gfp.triplet_kernel(3 * r + 1, c, A[r, c].astype(np.int64), n, p)
    assert got[0] == n and all(np.array_equal(x, y)
                               for x, y in zip(got[1:], gfp.kernel_nonzeros(A, p)[1:]))
    N = gfp.zeros(n, len(free))
    N[got[3], got[2]] = got[4]
    assert np.array_equal(N, want)
    # the rows as vectors: e_j extends them when j is no last nonzero of their span
    last = {n - 1 - j for j in naive_rref(A[:, ::-1], p)[1]}
    want_units = [j for j in range(n) if j not in last]
    assert gfp.extend_column_basis(r, c, A[r, c].astype(np.int64), n, p) == want_units


def row_triplets(A):
    """The rows of A as the (vector, coordinate, value) arrays of
    `gfp.extend_column_basis`."""
    r, c = np.nonzero(A)
    return r, c, A[r, c].astype(np.int64)


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
    R, piv = gfp.rref(A, p)
    for reduce in (gfp.rref, gfp.echelon):
        R2, piv2 = reduce(B, p)
        assert piv2 == piv
        assert np.array_equal(R2[:len(piv)], R[:len(piv)]) and not R2[len(piv):].any()
    assert dense_rank(B, p) == len(piv)
    for got, want in zip(gfp.nullspace(B, p), gfp.nullspace(A, p)):
        assert np.array_equal(got, want)
    assert gfp.extend_column_basis(*row_triplets(B), n, p) == gfp.extend_column_basis(
        *row_triplets(A), n, p)


def test_extend_column_basis_greedy():
    p = 101
    # e0 + e1 spans e1 once e0 is taken; without 2*e2, e2 would extend too
    assert gfp.extend_column_basis([0, 0], [0, 1], [1, 1], 3, p) == [0, 2]
    assert gfp.extend_column_basis([0, 0, 5], [0, 1, 2], [1, 1, 2], 3, p) == [0]
    # entries at one (vector, coordinate) add up: e0 + (50 + 51) e1 = e0
    assert gfp.extend_column_basis([0, 0, 0], [0, 1, 1], [1, 50, 51], 3, p) == [1, 2]
    assert gfp.extend_column_basis([], [], [], 2, p) == [0, 1]


@st.composite
def radical_stacks(draw):
    """(p, nk, vectors as the columns of an nk x m matrix) for the generator
    choice: random vectors, zero vectors, repeated vectors, all-singleton
    stacks, and chains e_{j0}, e_{j1} + e_{j0}, e_{j2} + e_{j1}, ... that
    the singleton step takes apart one vector per round."""
    p = draw(st.sampled_from([2, 3, 101, 94906249]))
    nk = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "singletons", "chain"]))
    cols = []
    if nk and kind == "singletons":
        for _ in range(draw(st.integers(1, 14))):
            v = gfp.zeros(nk, 1)
            v[int(rng.integers(nk))] = int(rng.integers(1, p))
            cols.append(v)
    elif nk and kind == "chain":
        order = rng.permutation(nk)[:draw(st.integers(1, nk))]
        for k, j in enumerate(order):
            v = gfp.zeros(nk, 1)
            v[j] = int(rng.integers(1, p))
            if k:
                v[order[k - 1]] = int(rng.integers(1, p))
            cols.append(v)
    density = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    for _ in range(draw(st.integers(0, 6))):
        cols.append(gfp.random_matrix(nk, 1, p, rng) * (rng.random((nk, 1)) < density))
    cols += [gfp.zeros(nk, 1)] * draw(st.integers(0, 2))
    if cols:
        cols += [cols[int(k)] for k in rng.integers(0, len(cols), size=draw(st.integers(0, 3)))]
        cols = [cols[int(k)] for k in rng.permutation(len(cols))]
    return p, nk, np.hstack(cols) if cols else gfp.zeros(nk, 0), rng


@settings(max_examples=200, deadline=None)
@given(radical_stacks())
def test_extend_column_basis_matches_dense_greedy_property(case):
    """The sparse generator choice picks the unit vectors that the dense
    greedy rule picks from [radical | I], whatever the order of the
    nonzeros, the labels of the vectors, and entries split into summands
    (some adding up to zero) or left unreduced."""
    p, nk, rad, rng = case
    want = dense_extend_column_basis(rad, gfp.eye(nk), p)
    c, t = np.nonzero(rad)
    vecs, coords = 7 * t + 2, c
    vals = rad[c, t].astype(np.int64)
    part = np.where(rng.random(vals.size) < 0.3, rng.integers(0, p, size=vals.size), 0)
    vecs, coords, vals = np.tile(vecs, 2), np.tile(coords, 2), np.concatenate([vals + part, -part])
    if rad.shape[1] and nk:
        extra = int(rng.integers(0, 4))
        zv, zc = 7 * rng.integers(0, rad.shape[1], size=extra) + 2, rng.integers(0, nk, size=extra)
        zx = rng.integers(1, p, size=extra)
        vecs, coords = np.concatenate([vecs, zv, zv]), np.concatenate([coords, zc, zc])
        vals = np.concatenate([vals, zx, p - zx])
    vals = vals + p * rng.integers(0, 3, size=vals.size)
    order = rng.permutation(vals.size)
    got = gfp.extend_column_basis(vecs[order], coords[order], vals[order], nk, p)
    assert got == want


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
    products of residues come within 2^32 of 2^53.  `rank` counts pivots of
    int64 triplets eliminated in Python ints, so it does not rest on that
    bound; its ranks must agree with exact GF(p) arithmetic on rank-5
    products built in exact integers."""
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
        assert dense_rank(A.astype(np.int64), p) == exact.rank()


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
