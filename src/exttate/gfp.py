"""Exact linear algebra over the prime field GF(p).

Matrices are numpy float64 arrays whose entries are integers in [0, p).
All arithmetic is exact as long as (p-1)^2 < 2^53: every product of two
residues is then an integer that float64 represents exactly, and matmul
chunks its inner dimension so accumulated dot products stay below 2^53
as well (Dumas-Giorgi-Pernet, ACM TOMS 2008).  `check_prime` enforces the
bound; the largest accepted prime is 94,906,249.  Elimination uses
deterministic first-nonzero pivoting (fixed panel size), so echelon
forms, kernels and chosen generators are reproducible run to run.

Callers read only canonical results, which do not depend on how the
elimination ran: `rank`; the reduced row echelon form from `rref`, which
is unique; `nullspace`, built from that form; and the pivot columns from
`echelon` and `extend_column_basis`, the lexicographically first column
basis.  No caller reads the rows of a non-reduced `echelon` form.

That is what makes block-wise elimination safe.  Rows and columns are the
two sides of a bipartite graph whose edges are the nonzero entries; its
connected components are independent blocks (the lever of structured
Gaussian elimination, Faugere-Lachartre, PASCO 2010).  The pivot columns
of the matrix are the union of the blocks' pivot columns, and its rref is
the rows of the blocks' rrefs sorted by pivot column, so a split `echelon`
returns that rref and `rref` finds it already reduced.  The input decides
the path, with no option: `echelon` splits a matrix when its larger side
is at least 512 and no block holds half of its rows plus columns, and
otherwise runs the dense panel kernel on the whole.  Below 512 the search
costs about what it saves (at a threshold of 64 the mid-size cohomology
eliminations took 3.27 s as blocks against 3.38 s dense, and the search
added 0.38 s), while the Resolver slices of the ell=3 quadric, 0.1-0.6%
dense and of up to 8,106 columns, split into blocks of at most 174 rows
plus columns.  Components come from numpy alone, the package's only
dependency: importing a sparse-graph library for them more than doubled
the start-up time of a census process and added 30 MB to its resident
memory.
"""

import numpy as np

_PANEL = 64
_SPLIT_MIN = 512


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
    """Exact reduction into [0, p) of integer-valued float64 data a with
    -(2^53 - 2p) <= a < 2^53.

    floor(a/p) computed through the float reciprocal can be off by one, so
    a two-sided fixup follows; much faster than np.mod on float64.  The
    quotient q is then within one of the true one, so |q*p| <= |a| + 2p
    must stay exactly representable: below the range a product rounds (at
    p = 94,906,249, -(2^53 - 1) reduces to 71321477, not 71321476).  Every
    caller stays inside it: x - c*y with residues x, c, y lies in
    [-(p-1)^2, p), and matmul reduces non-negative sums below 2^53.
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
    """A new float64 matrix holding a reduced mod p.

    Data already in [0, p) is only copied, which saves _mod's full-size
    temporaries; adding 0.0 turns -0.0 into 0.0 as _mod does.
    """
    arr = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if arr.size == 0 or (arr.min() >= 0 and arr.max() < p):
        return arr + 0.0
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


def _eliminate(A, p):
    """Forward elimination of A in place; returns the pivot columns.

    Afterwards A has the normalized pivot rows first (leading entry 1),
    zero rows after.  Elimination runs on column panels; within a panel
    the row operations touch only the panel, and the recorded multipliers
    are replayed on the trailing columns as two BLAS matmuls.
    """
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
    return pivcols


def _reduce(E, piv, p):
    """Backward pass in place: clear the entries above the pivots of an
    echelon form, one pivot panel at a time (right to left).

    A panel whose pivot block is already the identity skips its inversion,
    and earlier rows with no entries in the panel's pivot columns skip the
    update, so an already reduced E costs one scan.
    """
    r = len(piv)
    if r <= 1:
        return
    pivarr = np.array(piv, dtype=np.intp)
    b0 = r
    while b0 > 0:
        a0 = max(0, b0 - _PANEL)
        rows = slice(a0, b0)
        k = b0 - a0
        v = E[rows, :][:, pivarr[a0:b0]]  # unit upper triangular
        if np.count_nonzero(v) > k:
            vinv = _invert_lower_unit(v.T, np.ones(k), p).T
            E[rows] = matmul(vinv, E[rows], p)
        if a0 > 0:
            mults = E[:a0, :][:, pivarr[a0:b0]]
            if mults.any():
                E[:a0] = _mod_pm(E[:a0] - matmul(mults, E[rows], p), p)
        b0 = a0


def _components(A):
    """Connected components of the nonzero pattern of A, rows and columns
    being the two sides of a bipartite graph.

    Returns one (rows, cols) pair of sorted index arrays per component
    that holds a nonzero entry.  Every vertex starts labelled by its own
    index; each round gives every row and column the least label among
    its neighbours, then jumps labels to their roots, until both ends of
    every edge agree.
    """
    m = A.shape[0]
    r, c = np.nonzero(A)
    if r.size == 0:
        return []
    c += m
    lab = np.arange(m + A.shape[1])
    rstart = np.flatnonzero(np.diff(r, prepend=-1))
    corder = np.argsort(c, kind="stable")
    cs, rc = c[corder], r[corder]
    cstart = np.flatnonzero(np.diff(cs, prepend=-1))
    urows, ucols = r[rstart], cs[cstart]
    while True:
        lab[urows] = np.minimum(lab[urows], np.minimum.reduceat(lab[c], rstart))
        lab[ucols] = np.minimum(lab[ucols], np.minimum.reduceat(lab[rc], cstart))
        while True:
            root = lab[lab]
            if np.array_equal(root, lab):
                break
            lab = root
        if np.array_equal(lab[r], lab[c]):
            break
    # the row and column groups list the same labels in the same order
    groups = []
    for verts in (urows, ucols):
        vl = lab[verts]
        order = np.argsort(vl, kind="stable")
        groups.append(np.split(verts[order], np.flatnonzero(np.diff(vl[order])) + 1))
    return [(rows, cols - m) for rows, cols in zip(*groups)]


def _blocks(A):
    """The independent blocks of A, or None where the dense kernel runs:
    below _SPLIT_MIN rows or columns, or when one block holds half of the
    rows plus columns."""
    m, n = A.shape
    if max(m, n) < _SPLIT_MIN:
        return None
    comps = _components(A)
    if not comps or max(len(rows) + len(cols) for rows, cols in comps) * 2 >= m + n:
        return None
    return comps


def echelon(a, p):
    """Row echelon form mod p; returns (E, pivot_cols).

    E has the normalized pivot rows first (leading entry 1), zero rows
    after; pivot_cols is the ordered list of pivot column indices.  A
    matrix that splits into independent blocks is eliminated block by
    block, and E is then its reduced row echelon form.
    """
    A = as_gf(a, p)
    blocks = _blocks(A)
    if blocks is None:
        return A, _eliminate(A, p)
    reduced = []
    for rows, cols in blocks:
        B = A[np.ix_(rows, cols)]
        piv = _eliminate(B, p)
        _reduce(B, piv, p)
        reduced.append((cols, B[:len(piv)], cols[piv]))
    pivcols = np.concatenate([pc for _, _, pc in reduced])
    order = np.argsort(pivcols)
    dest = np.argsort(order)  # the row of each pivot in the assembled form
    A.fill(0.0)
    k = 0
    for cols, R, pc in reduced:
        A[np.ix_(dest[k:k + len(pc)], cols)] = R
        k += len(pc)
    return A, pivcols[order].tolist()


def rref(a, p):
    """Reduced row echelon form mod p; returns (R, pivot_cols)."""
    E, piv = echelon(a, p)
    _reduce(E, piv, p)
    return E, piv


def rank(a, p):
    """Rank mod p; a matrix with no rows or no columns has rank 0."""
    if np.size(a) == 0:
        return 0
    return len(echelon(a, p)[1])


def nullspace(a, p):
    """Basis of the right kernel as columns, deterministic from the rref."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    if m == 0:
        return eye(n)
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
