"""The GF(p) kernel against a naive elimination oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    A = gfp.random_matrix(m, n, p, rng)
    N = gfp.nullspace(A, p)
    assert N.shape[1] == n - gfp.rank(A, p)
    if N.shape[1]:
        assert not gfp.matmul(A, N, p).any()


def test_blocked_path_crosses_panels():
    p = 32003
    rng = np.random.default_rng(11)
    A = gfp.matmul(gfp.random_matrix(200, 37, p, rng),
                   gfp.random_matrix(37, 310, p, rng), p)
    assert gfp.rank(A, p) == 37
    N = gfp.nullspace(A, p)
    assert N.shape[1] == 310 - 37
    assert not gfp.matmul(A, N, p).any()
    R, piv = gfp.rref(A, p)
    R2, piv2 = naive_rref(A, p)
    assert piv == piv2 and np.array_equal(R, R2)


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
    """At the float64 bound, products of residues come within 2^32 of 2^53;
    elimination must still agree with exact GF(p) arithmetic on rank-5
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
        assert gfp.rank(A.astype(np.float64), p) == exact.rank()
