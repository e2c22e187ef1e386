"""Exact linear algebra over the prime field GF(p).

Matrices are numpy float64 arrays whose entries are integers in [0, p).
All arithmetic is exact as long as (p-1)^2 < 2^53: every product of two
residues is then an integer that float64 represents exactly, and matmul
chunks its inner dimension so accumulated dot products stay below 2^53
as well (Dumas-Giorgi-Pernet, ACM TOMS 2008).  `check_prime` enforces the
bound; the largest accepted prime is 94,906,249.

Elimination is one Gauss-Jordan pass that leaves A in reduced row echelon
form.  Columns are taken left to right, one pivot at a time: the pivot
row is scaled to a leading 1, and only the rows with a nonzero in the
pivot column, above and below, are updated, from the pivot column on.
Each update x - c*y of residues x, c, y lies in [-(p-1)^2, p), inside the
range where `_mod` is exact, so no step rounds.

Callers read only canonical results, which do not depend on how the
elimination ran: `rank`; the reduced row echelon form from `rref` and
`echelon`, which is unique; `nullspace`, built from that form; and the
pivot columns from `echelon` and `extend_column_basis`, the
lexicographically first column basis.  All of them are determined by the
row space, so the choice of pivot row is free.  The kernel takes the
candidate with the fewest nonzeros from the pivot column on, the lowest
index on a tie, to keep fill-in down: in alternating runs a (1; 2)
census trial at n=7 took 3.6-3.8 s and 82 MB with it, against 6.1-6.2 s
and 97 MB taking the first nonzero row (one thread, 2-core VM).  Dense
input pays for it: the updates are rank-one, with no BLAS matmul, so a
random dense 1000x1000 matrix at p = 32003 takes 5.3 s, against 0.62 s
with the earlier panel kernel, which replayed its multipliers as
matmuls.  No command of the package produces one; its slice matrices
are sparse.

The same fact makes block-wise elimination safe.  Rows and columns are the
two sides of a bipartite graph whose edges are the nonzero entries; its
connected components are independent blocks (the lever of structured
Gaussian elimination, Faugere-Lachartre, PASCO 2010).  The pivot columns
of the matrix are the union of the blocks' pivot columns, and its rref is
the rows of the blocks' rrefs sorted by pivot column.  The input decides
the path, with no option: `echelon` splits a matrix when its larger side
is at least 512 and no block holds half of its rows plus columns, and
otherwise eliminates the whole.  The 512 was measured with the panel
kernel: below it the search cost about what it saved (at a threshold of
64 the mid-size cohomology eliminations took 3.27 s as blocks against
3.38 s dense, and the search added 0.38 s), while the Resolver slices of
the ell=3 quadric, 0.1-0.6% dense and of up to 8,106 columns, split into
blocks of at most 174 rows plus columns.  Under this kernel the split
saves memory more than time: without it, ell=3 `betti --direct --imax 4`
peaks at 318 MB instead of 247 MB, in about the same 1.4 s.  Components
come from numpy alone, the package's only dependency: importing a
sparse-graph library for them more than doubled the start-up time of a
census process and added 30 MB to its resident memory.
"""

import numpy as np

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
    caller stays inside it: `_eliminate` reduces x - c*y with residues x,
    c, y, in [-(p-1)^2, p), and a pivot row times an inverse, in
    [0, (p-1)^2]; matmul reduces non-negative sums below 2^53; `nullspace`
    negates residues; `as_gf` reduces caller data, which must lie in the
    same range.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.floor(a * (1.0 / p))
    r = a - q * p
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


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


def _eliminate(A, p):
    """Gauss-Jordan elimination of A in place; returns the pivot columns.

    Afterwards A is in reduced row echelon form, its pivot rows first and
    zero rows after.  The pivot row is the candidate with the fewest
    nonzeros from the pivot column on, the first on a tie.
    """
    m, n = A.shape
    pivcols = []
    pr = 0
    for c in range(n):
        if pr == m:
            break
        cand = np.flatnonzero(A[pr:, c])
        if cand.size == 0:
            continue
        r = pr + int(cand[0])
        if cand.size > 1:
            r = pr + int(cand[np.argmin(np.count_nonzero(A[pr + cand, c:], axis=1))])
        if r != pr:
            A[[pr, r]] = A[[r, pr]]
        v = A[pr, c]
        if v != 1.0:
            A[pr, c:] = _mod(A[pr, c:] * inv_scalar(v, p), p)
        hit = np.flatnonzero(A[:, c])
        hit = hit[hit != pr]
        if hit.size:
            A[hit, c:] = _mod(A[hit, c:] - np.outer(A[hit, c], A[pr, c:]), p)
        pivcols.append(c)
        pr += 1
    return pivcols


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
    """The independent blocks of A, or None where A is eliminated whole:
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
    """Reduced row echelon form mod p; returns (E, pivot_cols).

    E has the normalized pivot rows first (leading entry 1, zeros above
    and below it), zero rows after; pivot_cols is the ordered list of
    pivot column indices.  A matrix that splits into independent blocks
    is eliminated block by block.
    """
    A = as_gf(a, p)
    blocks = _blocks(A)
    if blocks is None:
        return A, _eliminate(A, p)
    reduced = []
    for rows, cols in blocks:
        B = A[np.ix_(rows, cols)]
        piv = _eliminate(B, p)
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
    """Reduced row echelon form mod p; returns (R, pivot_cols), the same
    as `echelon`."""
    return echelon(a, p)


def rank(a, p):
    """Rank mod p; a matrix with no rows or no columns has rank 0."""
    if np.size(a) == 0:
        return 0
    return len(echelon(a, p)[1])


def nullspace(a, p):
    """Basis N of the right kernel as columns, and its free columns.

    Returns (N, free): `free` are the non-pivot columns of the rref, in
    increasing order, and N[free] is the identity, so a kernel vector v has
    the coordinates v[free] over N.  Deterministic from the rref.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    if m == 0:
        return eye(n), np.arange(n)
    R, piv = rref(a, p)
    pivset = set(piv)
    free = np.array([c for c in range(n) if c not in pivset], dtype=np.intp)
    N = zeros(n, len(free))
    if len(free):
        N[free, np.arange(len(free))] = 1.0
        if piv:
            N[np.array(piv, dtype=np.intp), :] = _mod(-R[:len(piv)][:, free], p)
    return N, free


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
