"""Exact dense linear algebra over the prime field GF(p).

Matrices are numpy float64 arrays whose entries are integers in [0, p).
All arithmetic is exact as long as (p-1)^2 < 2^53: every product of two
residues is then an integer that float64 represents exactly, and matmul
chunks its inner dimension so accumulated dot products stay below 2^53
as well (Dumas-Giorgi-Pernet, ACM TOMS 2008).  `check_prime` enforces the
bound; the largest accepted prime is 94,906,249.  Elimination uses
deterministic first-nonzero pivoting (fixed panel size), so echelon
forms, kernels and chosen generators are reproducible run to run.
"""

import numpy as np

_PANEL = 64


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p):
    """Raise ValueError unless p is a prime this module computes with exactly."""
    if not _is_prime(p):
        raise ValueError("modulus %r is not prime" % (p,))
    if (p - 1) ** 2 >= 1 << 53:
        raise ValueError("modulus %d is too large: (p-1)^2 must stay below 2^53 "
                         "for exact float64 elimination" % p)


def _mod(a, p):
    """Exact reduction into [0, p) for integer-valued float64 data < 2^53.

    floor(a/p) computed through the float reciprocal can be off by one, so
    a two-sided fixup follows; much faster than np.mod on float64.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.floor(a * (1.0 / p))
    r = a - q * p
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def _mod_pm(a, p):
    """Reduction for values already in (-p, p): one-sided fixup."""
    np.add(a, p, out=a, where=a < 0)
    return a


def as_gf(a, p):
    """Coerce to a float64 matrix reduced mod p."""
    arr = np.atleast_2d(np.asarray(a, dtype=np.float64))
    return _mod(arr, p)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.float64)


def eye(n):
    return np.eye(n, dtype=np.float64)


def inv_scalar(v, p):
    return pow(int(v) % p, -1, p)


def matmul(a, b, p):
    """Exact a @ b mod p; the inner dimension is chunked so sums stay < 2^53."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = a.shape[1]
    if k == 0:
        return zeros(a.shape[0], b.shape[1])
    kmax = max(1, (1 << 53) // ((p - 1) ** 2 + 1))
    if k <= kmax:
        return _mod(a @ b, p)
    out = zeros(a.shape[0], b.shape[1])
    for lo in range(0, k, kmax):
        out += _mod(a[:, lo:lo + kmax] @ b[lo:lo + kmax, :], p)
    return _mod(out, p)


def _invert_lower_unit(l, diag, p):
    """Invert a small lower-triangular matrix with the given nonzero diagonal."""
    k = l.shape[0]
    out = eye(k)
    for t in range(k):
        dinv = inv_scalar(diag[t], p)
        out[t, :t + 1] = _mod(out[t, :t + 1] * dinv, p)
        if t + 1 < k:
            col = l[t + 1:, t:t + 1]
            out[t + 1:, :t + 1] = _mod(out[t + 1:, :t + 1] - col * out[t, :t + 1], p)
    return out


def echelon(a, p):
    """Forward row echelon form mod p.

    Returns (E, pivot_cols): E has the normalized pivot rows first (leading
    entry 1), zero rows after; pivot_cols is the ordered list of pivot
    column indices.  Elimination runs on column panels; within a panel the
    row operations touch only the panel, and the recorded multipliers are
    replayed on the trailing columns as two BLAS matmuls.
    """
    A = as_gf(a, p).copy()
    m, n = A.shape
    pivcols = []
    pr = 0
    c0 = 0
    while pr < m and c0 < n:
        b = min(_PANEL, n - c0)
        panel = A[pr:, c0:c0 + b]  # view; row swaps applied to full rows
        mrows = panel.shape[0]
        mu = zeros(mrows, b)
        diag = []
        k = 0
        for j in range(b):
            if k >= mrows:
                break
            nz = np.nonzero(panel[k:, j])[0]
            if nz.size == 0:
                continue
            r = k + int(nz[0])
            if r != k:
                A[[pr + k, pr + r]] = A[[pr + r, pr + k]]
                mu[[k, r]] = mu[[r, k]]
            v = panel[k, j]
            diag.append(v)
            panel[k] = _mod(panel[k] * inv_scalar(v, p), p)
            if k + 1 < mrows:
                below = panel[k + 1:, j].copy()
                mu[k + 1:, k] = below
                hit = np.nonzero(below)[0]
                if hit.size:
                    panel[k + 1 + hit] = _mod(
                        panel[k + 1 + hit] - np.outer(below[hit], panel[k]), p)
            pivcols.append(c0 + j)
            k += 1
        if k and c0 + b < n:
            linv = _invert_lower_unit(mu[:k, :k], diag, p)
            utr = matmul(linv, A[pr:pr + k, c0 + b:], p)
            A[pr:pr + k, c0 + b:] = utr
            if pr + k < m:
                A[pr + k:, c0 + b:] = _mod_pm(
                    A[pr + k:, c0 + b:] - matmul(mu[k:, :k], utr, p), p)
        pr += k
        c0 += b
    return A, pivcols


def rref(a, p):
    """Reduced row echelon form mod p; returns (R, pivot_cols).

    The backward pass clears the entries above the pivots one pivot panel
    at a time (right to left): a small unit-triangular inversion inside
    the panel, then one matmul against all earlier rows.
    """
    E, piv = echelon(a, p)
    r = len(piv)
    if r <= 1:
        return E, piv
    pivarr = np.array(piv, dtype=np.intp)
    b0 = r
    while b0 > 0:
        a0 = max(0, b0 - _PANEL)
        rows = slice(a0, b0)
        k = b0 - a0
        if k > 1:
            v = E[rows, :][:, pivarr[a0:b0]]  # unit upper triangular
            vinv = _invert_lower_unit(v.T, np.ones(k), p).T
            E[rows] = matmul(vinv, E[rows], p)
        if a0 > 0:
            mults = E[:a0, :][:, pivarr[a0:b0]]
            if mults.any():
                E[:a0] = _mod_pm(E[:a0] - matmul(mults, E[rows], p), p)
        b0 = a0
    return E, piv


def rank(a, p):
    return len(echelon(a, p)[1])


def nullspace(a, p):
    """Basis of the right kernel as columns, deterministic from the rref."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    R, piv = rref(a, p)
    pivset = set(piv)
    free = np.array([c for c in range(n) if c not in pivset], dtype=np.intp)
    N = zeros(n, len(free))
    if len(free):
        N[free, np.arange(len(free))] = 1.0
        if piv:
            N[np.array(piv, dtype=np.intp), :] = _mod(-R[:len(piv)][:, free], p)
    return N


def extend_column_basis(base, cand, p):
    """Indices of candidate columns that extend the column space of `base`.

    Greedy left to right over `cand`; deterministic.
    """
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    cand = np.atleast_2d(np.asarray(cand, dtype=np.float64))
    w = base.shape[1]
    piv = echelon(np.hstack([base, cand]), p)[1]
    return [c - w for c in piv if c >= w]


def random_matrix(rows, cols, p, rng):
    return np.asarray(rng.integers(0, p, size=(rows, cols)), dtype=np.float64)
