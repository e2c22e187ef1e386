"""Exact linear algebra over the prime field GF(p).

Matrices are held as their nonzeros: integer arrays (rows, cols, vals)
with residues in [0, p).  The module actions are held so
(`smod.SlicedModule`, `efree.VectorizedModule`), and four functions
serve them.  `product` multiplies two such matrices by a join on the
inner index.  `quotient` takes a quotient slice as the kernel of the
transposed image, and `project` maps unit vectors into it, which gives
the actions on the quotient.  `noncommuting` checks that actions commute,
or anticommute, with one `product` per degree.

The dense float64 form is left in `matmul`, `nullspace` and in what
`echelon` and `rref` return: numpy float64 arrays whose entries are
integers in [0, p).  `matmul` is exact as long as (p-1)^2 < 2^53: every
product of two residues is then an integer that float64 represents
exactly, and matmul chunks its inner dimension so accumulated dot
products stay below 2^53 as well (Dumas-Giorgi-Pernet, ACM TOMS 2008).
`check_prime` enforces that bound for every prime, since any of them may
meet these functions; the largest accepted prime is 94,906,249.  The
package calls only `rref`, on the small int64 unit matrix of
`eres._kept_columns` and in `tate.descent`, and reads only pivots and
integer rows off it.  `echelon`, `rref`, `nullspace`, `matmul` and
`random_matrix` keep their dense forms because the `TRACED` list of
`bench/tracer.py` or `bench/tests` look them up, as they do
`efree.GradedMap.slice_matrix`.

Elimination is Gauss-Jordan on sparse rows: the lever of structured
Gaussian elimination (Faugere-Lachartre, PASCO 2010), taken to single
rows.  There is one elimination kernel, `_insert_rows`, fed (row,
column, value) triplets.  Each row becomes a dict {column: residue} of
Python ints, so every step is exact for every prime and does not rest on
the float64 bound; an entry that reduces to 0 is dropped.  Rows are
inserted fewest nonzeros first and reduced at their leading column until
they are zero or lead in a new pivot column.  One back-substitution,
`_reduce`, gives the reduced form.  `echelon` writes it back into A;
`triplet_kernel` reads a kernel basis off it, for triplet input (the
Resolver's slice images, the transposed images of `quotient`) and for
dense input through `kernel_nonzeros` alike.  Slice matrices stay sparse
through this: the largest image of ell=3 `betti --direct --imax 6` has
7,875 columns and 16,020 nonzeros (0.05%), and over the eliminations of
a (1; 2) census at n=7, the cohomology of the twisted cubic and the
elliptic quartic, two (1,1; 1,1) and (1; 2) censuses at n=4,
`mccullough --ell 2` and ell=3 `betti --direct --imax 4`, none with both
sides at least 32 ended more than 13.6% dense.

`rank` needs neither the back-substitution nor a dense form: it takes
triplets and counts the pivots of `_insert_rows`, which are those of the
reduced form.  Every matrix the package ranks is assembled as triplets:
the slices of a `GradedMap` (`slice_nonzeros`), which
`bgg.graded_map_homology` ranks for every Tate exactness check, the
Koszul differentials of `smod.koszul_rank` and the Cartan differentials
of `eres.CartanScanner`, both from `smod.strand_nonzeros`.
Ranking them through `echelon`, which wrote the reduced form back into a
float64 copy, `cohomology --format json --window -4..6` took 17-18, 43-47,
29-31 and 10 ms on the plane cubic, elliptic quartic, twisted cubic and
coker diag(x0, x1) inputs of the benchmark; from triplets it takes 13-14,
29-30, 21-22 and 8-9 ms (in-process medians of 10 runs, three alternated
rounds, one thread, shared 2-core VM).  The smooth quadric in P^5
(`cohomology --window -1..3`), whose dense Koszul differentials took the
run past 7 GB, took about 5 s at 455 MB with dense actions and
commutativity checks, and takes about 2.3 s at 50 MB with them as
nonzeros.  The quadric in P^6, which ran out of memory under a 3 GB cap
in `slice_presentation`, takes about 23 s at 210 MB.

Callers read only canonical results, which do not depend on how the
elimination ran: `rank`; the reduced row echelon form from `rref` and
`echelon`, which is unique; the kernel basis of `triplet_kernel`, built
from that form, with its dense front end `kernel_nonzeros` and dense
form `nullspace`; the pivot columns from `echelon`, the lexicographically
first column basis; and the unit vectors from `extend_column_basis`.
All of them are determined by the row space, so the order in which rows
are inserted and the choice of pivot row are free; both are chosen to
keep fill-in down.  In alternating runs of `census --b 1 --bprime 2 -n 7
--trials 2 --seed 0 --window -3..6` (one thread, 2-core VM) this kernel
took 2.60 / 2.55 s, against 2.82 / 3.08 s when a sparser row does not
displace the pivot row it meets, 3.75 / 4.36 s inserting rows in their
given order, and 4.73 / 4.84 s with the earlier float64 kernel, which
took one pivot column at a time over dense rows.  That kernel was 2-5x
slower on every size of matrix the package makes.  Dense input pays for
the rows being dicts: at p = 32003 a random dense 400 x 400 matrix takes
6.4-7.0 s (0.73 s with the float64 kernel), and a 1000 x 1000 matrix at
1% density fills in and takes 18-20 s (2.2 s).  No command of the
package makes such a matrix.

`extend_column_basis` is the generator choice of a resolution step.  It
takes the nonzeros of some vectors of length nk, spanning S, and returns
the j for which e_j is not in span(S, e_0, ..., e_{j-1}).  That is the
case exactly when j is the last nonzero coordinate of no vector of S, so
the answer is the complement of the pivots of S once its coordinates
are reversed, j -> nk-1-j; no identity block is stacked beside S.
Before eliminating, every vector with a single nonzero is taken as the
unit vector e_u and coordinate u is deleted from the other vectors,
until no such vector is left: the singleton step of structured Gaussian
elimination (LaMacchia-Odlyzko, CRYPTO '90).  It is exact, since for
e_u in S the pivots of S are u and the pivots of S with coordinate u
zeroed.  On the ell=3 quadric to step 4 it leaves nothing to eliminate:
the 20 choices of one resolution took 1.2 ms with the step and 23 ms
without it (best of 5, one thread, shared 2-core VM).
"""

import numpy as np

# The nonzeros (rows, cols, vals) of a zero matrix.
NO_ENTRIES = tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
for _a in NO_ENTRIES:
    _a.flags.writeable = False


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
        raise ValueError("modulus %d is too large: (p-1)^2 must stay below 2^53, "
                         "where the dense float64 forms of gfp are exact" % p)


def _mod(a, p):
    """Exact reduction into [0, p) of integer-valued float64 data a with
    -(2^53 - 2p) <= a < 2^53.

    floor(a/p) computed through the float reciprocal can be off by one, so
    a two-sided fixup follows; much faster than np.mod on float64.  The
    quotient q is then within one of the true one, so |q*p| <= |a| + 2p
    must stay exactly representable: below the range a product rounds (at
    p = 94,906,249, -(2^53 - 1) reduces to 71321477, not 71321476).  Every
    caller stays inside it: matmul reduces non-negative sums below 2^53;
    `as_gf` reduces caller data, which must lie in the same range.
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


def _reduce(rows, cols, vals, p):
    """The reduced row echelon form of the triplets of `_insert_rows`, given
    as numpy arrays: its pivot columns in increasing order, and the
    nonzeros right of the pivots as lists (pivot index, column, value).
    One back-substitution over the pivots of `_insert_rows`, right to
    left, clears the pivot columns from every tail."""
    tails = _insert_rows(rows, cols.tolist(), vals.tolist(), p)
    piv = sorted(tails)
    for lead in reversed(piv):
        # the tails of the pivots right of lead are free of pivot columns
        row = tails[lead]
        for j in [j for j in row if j in tails]:
            _axpy(row, p - row.pop(j), tails[j], p)
    ks, cs, vs = [], [], []
    for k, lead in enumerate(piv):
        row = tails[lead]
        ks += [k] * len(row)
        cs += row.keys()
        vs += row.values()
    return piv, ks, cs, vs


def _insert_rows(rows, cols, vals, p):
    """Row echelon form of the rows given by (row, column, value) triplets,
    as {pivot column: tail}; a tail is the rest of its pivot row right of
    the leading 1, a dict {column: residue}.

    `rows` is a numpy array of row labels in nondecreasing order, `cols`
    and `vals` the lists of the columns and nonzero residues (Python ints)
    beside them; a (row, column) pair occurs once.  A row is a dict of
    Python ints.  Rows go in fewest nonzeros first, the lowest label on a
    tie.  Each step takes the leading entry x off a row.  Where no pivot
    leads in that column yet, the rest of the row times x^-1 is stored as
    a tail; otherwise x times that pivot's tail is subtracted from the
    rest.  A row with fewer entries than the tail it meets becomes the
    pivot instead, and the displaced tail is reduced on.  The leading
    column grows at every step, so each row is done within n steps.
    """
    if not len(rows):
        return {}
    bounds = [0] + (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist() + [len(rows)]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    tails = {}  # pivot column -> the tail of its pivot row
    for k in sorted(range(len(sizes)), key=sizes.__getitem__):
        row = dict(zip(cols[bounds[k]:bounds[k + 1]], vals[bounds[k]:bounds[k + 1]]))
        while row:
            lead = min(row)
            x = row.pop(lead)
            tail = tails.get(lead)
            if tail is None or len(row) < len(tail):
                if x != 1:
                    x = pow(x, -1, p)
                    row = {j: v * x % p for j, v in row.items()}
                tails[lead] = row
                if tail is None:
                    break
                row, tail, x = tail, row, 1
            _axpy(row, p - x, tail, p)
    return tails


def _axpy(row, f, tail, p):
    """row += f * tail mod p in place, dropping the entries that become 0."""
    get = row.get
    for j, v in tail.items():
        x = get(j)
        if x is None:
            row[j] = f * v % p
        else:
            x = (x + f * v) % p
            if x:
                row[j] = x
            else:
                del row[j]


def echelon(a, p):
    """Reduced row echelon form mod p; returns (E, pivot_cols).

    E has the normalized pivot rows first (leading entry 1, zeros above
    and below it), zero rows after; pivot_cols is the ordered list of
    pivot column indices.  The nonzeros of a go through `_reduce`, and
    its form is written back as float64.
    """
    A = as_gf(a, p)
    r, c = np.nonzero(A)
    piv, ks, cs, vs = _reduce(r, c, A[r, c].astype(np.int64), p)
    A.fill(0.0)
    A[range(len(piv)), piv] = 1.0
    A[ks, cs] = vs
    return A, piv


def rref(a, p):
    """Reduced row echelon form mod p; returns (R, pivot_cols), the same
    as `echelon`."""
    return echelon(a, p)


def rank(rows, cols, vals, p):
    """Rank mod p of the matrix whose nonzeros are the integer arrays
    (rows, cols, vals), each (row, column) pair at most once: the number
    of pivots of `_insert_rows`, with no back-substitution and no dense
    form.  Entries that are 0 mod p are dropped, and no triplets give 0.
    A dense matrix a passes `np.nonzero(a)` and the values there."""
    vals = np.asarray(vals, dtype=np.int64) % p
    rows = np.asarray(rows)
    keep = np.flatnonzero(vals)
    order = keep[np.argsort(rows[keep], kind="stable")]
    return len(_insert_rows(rows[order], np.asarray(cols)[order].tolist(),
                            vals[order].tolist(), p))


def kernel_nonzeros(a, p):
    """`triplet_kernel` of the nonzeros of a dense matrix."""
    A = as_gf(a, p)
    r, c = np.nonzero(A)
    return triplet_kernel(r, c, A[r, c].astype(np.int64), A.shape[1], p)


def triplet_kernel(rows, cols, vals, n, p):
    """A basis of the right kernel of the matrix with n columns whose
    nonzeros are the triplets of `_insert_rows`, given as numpy arrays, as
    its own nonzeros: (n, free, vec, coord, val).  With no triplets the
    basis is the unit vectors.

    `free` are the non-pivot columns of the reduced row echelon form R of
    `_reduce`, in increasing order.  Kernel vector k, for k < len(free),
    has 1 at its free column free[k], p - R[r, free[k]] at the pivot
    column piv[r] of each row r, and 0 elsewhere: the pivot block, with
    the identity on `free` implied, so a kernel vector v has the
    coordinates v[free] over the basis.  Its nonzeros are val at coord
    where vec == k, sorted by vec, then free column first and pivots in
    increasing order.  Deterministic from R.
    """
    piv, ks, cs, vs = _reduce(rows, cols, vals, p)
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    vec = np.concatenate([np.arange(len(free)),
                          np.cumsum(is_free)[np.array(cs, dtype=np.intp)] - 1])
    coord = np.concatenate([free, np.array(piv, dtype=np.intp)[ks]])
    val = np.concatenate([np.ones(len(free), dtype=np.int64), p - np.array(vs, dtype=np.int64)])
    order = np.argsort(vec, kind="stable")
    return n, free, vec[order], coord[order], val[order]


def nullspace(a, p):
    """Basis N of the right kernel as columns, and its free columns.

    Returns (N, free), the basis of `kernel_nonzeros` written densely:
    column k of N is kernel vector k, so N[free] is the identity.
    """
    n, free, vec, coord, val = kernel_nonzeros(a, p)
    N = zeros(n, len(free))
    N[coord, vec] = val
    return N, free


def sum_nonzeros(key, vals, p):
    """Entries given by integer keys and residues, summed mod p where keys
    repeat: the distinct keys in increasing order and their sums, with
    the keys whose sum is 0 dropped."""
    order = np.argsort(key, kind="stable")
    key, vals = key[order], np.asarray(vals, dtype=np.int64)[order] % p
    repeat = key[1:] == key[:-1]
    if repeat.any():
        first = np.flatnonzero(np.concatenate([[True], ~repeat]))
        key, vals = key[first], np.add.reduceat(vals, first) % p
    nonzero = vals != 0
    return key[nonzero], vals[nonzero]


def product(a, b, n, p):
    """The nonzeros (rows, cols, vals) of a @ b mod p, for matrices given
    by their nonzeros (rows, cols, vals), b with n columns: each nonzero
    of b at (s, c) meets every nonzero of a in column s, and the products
    that meet at one (row, column) are summed (`sum_nonzeros`).  The
    result is in row-major order, with no zero value."""
    ar, ac, av = a
    br, bc, bv = b
    order = np.argsort(ac, kind="stable")
    ac = np.asarray(ac)[order]
    lo = np.searchsorted(ac, br)
    cnt = np.searchsorted(ac, br, side="right") - lo
    at = order[np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
    key, vals = sum_nonzeros(np.asarray(ar, dtype=np.int64)[at] * n + np.repeat(bc, cnt),
                             np.asarray(av, dtype=np.int64)[at] * np.repeat(bv, cnt), p)
    return (*np.divmod(key, max(n, 1)), vals)


def quotient(rows, cols, vals, n, p):
    """The quotient of GF(p)^n by the column span of the matrix with n rows
    whose nonzeros are (rows, cols, vals), entries that meet at one (row,
    column) summed: `triplet_kernel` of its transpose, (n, free, vec,
    coord, val).  The unit vectors at the coordinates `free` map to the
    quotient basis, and the projection onto it sends the unit vector e_s to
    the entries at s of the kernel vectors (`project`): they are the rows
    of the projection, which kills the columns and is the identity on
    `free`."""
    key, vals = sum_nonzeros(np.asarray(cols, dtype=np.int64) * n + rows, vals, p)
    return triplet_kernel(*np.divmod(key, max(n, 1)), vals, n, p)


def project(kernel, coords, vals, p):
    """The nonzeros of the matrix whose column k is vals[k] times the unit
    vector coords[k] of the ambient of a `quotient` (a zero column where
    coords[k] < 0), projected onto its basis: one `product` with the
    kernel vectors as rows."""
    _, _, vec, coord, val = kernel
    cols = np.flatnonzero(coords >= 0)
    return product((vec, coord, val), (coords[cols], cols, vals[cols]), len(coords), p)


def noncommuting(inner, outer, na, nc, sign, p):
    """The first pair i <= j, in lexicographic order, with
    outer[j] @ inner[i] != sign * outer[i] @ inner[j] mod p, or None.

    inner[i] maps a space of dimension na to a middle one and outer[i] the
    middle one to a space of dimension nc, both as nonzeros (rows, cols,
    vals).  Every product comes from one `product`: the outer maps stacked
    by rows times the inner maps stacked by columns, whose block (j, i) is
    outer[j] @ inner[i].  A block counts +1 towards the pair (i, j) if
    i <= j and -sign towards (j, i) if j <= i, so the pair i = j asks
    (1 - sign) outer[i] @ inner[i] = 0, which always holds for sign = 1.
    """
    nv = len(inner)

    def stack(maps, k, width):
        """The maps' nonzeros with field k of map j moved by j * width."""
        return tuple(np.concatenate([np.asarray(m[t], dtype=np.int64) + j * width * (t == k)
                                     for j, m in enumerate(maps)]) for t in range(3))

    rows, cols, vals = product(stack(outer, 0, nc), stack(inner, 1, na), nv * na, p)
    j, r = np.divmod(rows, max(nc, 1))
    i, c = np.divmod(cols, max(na, 1))
    key, _ = sum_nonzeros(((np.minimum(i, j) * nv + np.maximum(i, j)) * nc + r) * na + c,
                          vals * ((i <= j).astype(np.int64) - sign * (j <= i)), p)
    return divmod(int(key[0]) // (nc * na), nv) if key.size else None


def extend_column_basis(vecs, coords, vals, nk, p):
    """The unit vectors that extend the span S of some vectors of length nk,
    chosen greedily: the j, in increasing order, with e_j not in
    span(S, e_0, ..., e_{j-1}).

    The vectors are given by their nonzeros as integer arrays: vector
    vecs[t] has vals[t] at coordinate coords[t], and entries that meet at
    one (vector, coordinate) add up.  The answer is the complement of the
    reversed pivots of S, after the singleton step (see the module notes).
    """
    key, vals = sum_nonzeros(np.asarray(vecs, dtype=np.int64) * nk
                             + np.asarray(coords, dtype=np.int64), vals, p)
    vecs, coords = np.divmod(key, max(nk, 1))
    spanned = np.zeros(nk, dtype=bool)
    while vecs.size:
        single = np.bincount(vecs)[vecs] == 1
        if not single.any():
            break
        spanned[coords[single]] = True
        keep = ~spanned[coords]
        vecs, coords, vals = vecs[keep], coords[keep], vals[keep]
    tails = _insert_rows(vecs, (nk - 1 - coords).tolist(), vals.tolist(), p)
    spanned[[nk - 1 - c for c in tails]] = True
    return np.flatnonzero(~spanned).tolist()


def random_matrix(rows, cols, p, rng):
    return np.asarray(rng.integers(0, p, size=(rows, cols)), dtype=np.float64)
