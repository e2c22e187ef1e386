"""Shared helpers: small seeded module corpus used across the test suite."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from exttate import gfp, paramspace
from exttate.errors import DomainError
from exttate.extalg import Algebra, ExtElement, random_element
from exttate.efree import FreeEModule, GradedMap, VectorizedModule, vectorize_coker
from exttate.eres import Resolver, regularity
from exttate.smod import (PolyRing, SPresentation, SlicedModule, exponent_vectors, parse_poly,
                          slice_presentation)


class ModuleAmbient(VectorizedModule):
    """A VectorizedModule that a Resolver can act on: it adds `act`, which
    is all the Resolver reads of its ambient."""

    def act(self, i, d, vec, coord, val):
        """The nonzeros (vector, row, value) in slice d-1 of the e_i images
        of the vectors of slice d with val[t] at coord[t] in vector vec[t],
        as a join with the column-sorted nonzeros of the action: a nonzero
        at coordinate s meets each nonzero in column s, so a column can
        give several and (vector, row) pairs repeat."""
        rows, cols, vals = self.action_nonzeros(i, d)
        order = np.argsort(cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        lo = np.searchsorted(cols, coord)
        cnt = np.searchsorted(cols, coord, side="right") - lo
        at = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        return np.repeat(vec, cnt), rows[at], np.repeat(val, cnt) * vals[at] % self.alg.p


def nonzeros(a):
    """The nonzeros (rows, cols, int64 vals) of a dense matrix."""
    r, c = np.nonzero(a)
    return r, c, np.asarray(a)[r, c].astype(np.int64)


def dense_action(m, i, d):
    """Action i out of slice d as a dense matrix, the form the modules held
    before their nonzeros: e_i to slice d-1 of a FreeEModule (from its
    `action_table`) or a VectorizedModule, x_i to slice d+1 of a
    SlicedModule."""
    if isinstance(m, FreeEModule):
        rows, signs = m.action_table(d)
        return np.mod(table_matrix(rows, signs, i, m.slice_dim(d - 1)), m.alg.p)
    r, c, v = m.action_nonzeros(i, d)
    out = gfp.zeros(m.dim(d + 1 if isinstance(m, SlicedModule) else d - 1), m.dim(d))
    out[r, c] = v
    return out


def bumped(m, key, data, p):
    """m's actions with one entry of action `key`, drawn from `data`, raised
    by a drawn nonzero amount mod p."""
    a = dense_action(m, *key)
    r = data.draw(st.integers(0, a.shape[0] - 1))
    c = data.draw(st.integers(0, a.shape[1] - 1))
    a[r, c] = (a[r, c] + data.draw(st.integers(1, p - 1))) % p
    return {**m.actions, key: nonzeros(a)}


def dense_first_noncommuting(m):
    """The pairwise dense matmul loops that `gfp.noncommuting` replaced, kept
    as its oracle: the DomainError message the module's check raises, or
    None if its actions commute (S) or anticommute (E)."""
    if isinstance(m, SlicedModule):
        p, nv = m.ring.p, m.ring.nvars
        for d in range(m.lo, m.hi - 1):
            for i in range(nv):
                for j in range(i + 1, nv):
                    ij = gfp.matmul(dense_action(m, j, d + 1), dense_action(m, i, d), p)
                    ji = gfp.matmul(dense_action(m, i, d + 1), dense_action(m, j, d), p)
                    if not np.array_equal(ij, ji):
                        return "x_%d and x_%d fail to commute from degree %d" % (i, j, d)
        return None
    p, nv = m.alg.p, m.alg.nvars
    lo, hi = m.support()
    for d in range(hi, lo, -1):
        for i in range(nv):
            for j in range(i, nv):
                ab = gfp.matmul(dense_action(m, i, d - 1), dense_action(m, j, d), p)
                ba = gfp.matmul(dense_action(m, j, d - 1), dense_action(m, i, d), p)
                if np.mod(ab + ba, p).any():
                    return "actions e_%d, e_%d fail to anticommute at degree %d" % (i, j, d)
    return None


def dense_cartan_differential(m, i, d):
    """M_d (x) D_i -> M_{d-1} (x) D_{i-1}, one block per divided monomial:
    the dense builder that the Cartan strand's nonzeros replaced, kept as
    their oracle."""
    nv = m.alg.nvars
    src_g = exponent_vectors(nv, i)
    tgt_pos = {a: k for k, a in enumerate(exponent_vectors(nv, i - 1))}
    md, md1 = m.dim(d), m.dim(d - 1)
    D = gfp.zeros(md1 * len(tgt_pos), md * len(src_g))
    if md == 0 or md1 == 0:
        return D
    for col, alpha in enumerate(src_g):
        for t in range(nv):
            if alpha[t]:
                beta = list(alpha)
                beta[t] -= 1
                row = tgt_pos[tuple(beta)]
                D[row * md1:(row + 1) * md1, col * md:(col + 1) * md] = dense_action(m, t, d)
    return D


def dense_coker(f):
    """coker(f) as (dims, dense actions) by the dense `gfp.nullspace` and
    `gfp.matmul` form that `vectorize_coker` replaced, kept as its oracle:
    slice d is the pair (N, free) of the nullspace of the transposed
    image, and e_i acts as N_{d-1}.T times the columns `free` of the
    target's action."""
    p = f.alg.p
    tgt = f.target
    lo, hi = tgt.degree_range()
    quot = {d: gfp.nullspace(f.slice_matrix(d).T, p)
            for d in range(lo, hi + 1) if tgt.slice_dim(d)}
    dims = {d: len(free) for d, (_, free) in quot.items() if len(free)}
    actions = {}
    for d in range(lo + 1, hi + 1):
        if dims.get(d) and dims.get(d - 1):
            for i in range(f.alg.nvars):
                actions[(i, d)] = gfp.matmul(quot[d - 1][0].T,
                                             dense_action(tgt, i, d)[:, quot[d][1]], p)
    return dims, actions


def left_mul_matrix(alg, mask, d):
    """Matrix of x -> m*x (m the monomial `mask`, of |m| variables) from
    E_d to E_{d-|m|}, from `Algebra.left_mul_nonzeros`."""
    rows, cols, vals = alg.left_mul_nonzeros(mask, d)
    mat = gfp.zeros(alg.dim(d - bin(mask).count("1")), alg.dim(d))
    mat[rows, cols] = vals
    return mat


def right_mul_matrix(alg, i, d):
    """Right multiplication by e_i from E_d to E_{d-1}, built column by
    column from ExtElement products: the oracle of `Algebra.right_mul_table`."""
    out = gfp.zeros(alg.dim(d - 1), alg.dim(d))
    for c, m in enumerate(alg.basis(d)):
        prod = ExtElement(alg, {m: 1}) * ExtElement.variable(alg, i)
        for mask, coeff in prod.terms.items():
            out[alg.index(d - 1)[mask], c] = coeff
    return out


def table_matrix(rows, signs, i, n_rows):
    """Row i of a right multiplication table (`Algebra.right_mul_table`,
    `FreeEModule.action_table`) as a dense matrix with n_rows rows, its
    signs reduced mod p only by the caller: -1 is 1 at p = 2."""
    out = gfp.zeros(n_rows, rows.shape[1])
    cols = np.flatnonzero(rows[i] >= 0)
    out[rows[i, cols], cols] = signs[i, cols]
    return out


def free_as_vectorized(f):
    """A free module's own slice data, with the nonzeros of its action read
    off `action_table`."""
    lo, hi = f.degree_range()
    dims = {d: f.slice_dim(d) for d in range(lo, hi + 1)}
    actions = {}
    for d in range(lo + 1, hi + 1):
        rows, signs = f.action_table(d)
        for i in range(f.alg.nvars):
            cols = np.flatnonzero(rows[i] >= 0)
            actions[(i, d)] = (rows[i, cols].astype(np.int64), cols,
                               signs[i, cols].astype(np.int64) % f.alg.p)
    return ModuleAmbient(f.alg, dims, actions)


def module_resolver(m):
    """The module path, the oracle that resolutions from a presentation are
    checked against: a Resolver of the VectorizedModule m itself, whose
    step 0 minimally covers the whole of each slice (the kernel of no
    equations), so F_0 is the cover of m and not a presentation's target."""
    if m.is_zero:
        raise DomainError("cannot resolve the zero module")
    amb = ModuleAmbient(m.alg, m.dims, m.actions)
    return Resolver([], amb, lambda: {d: gfp.kernel_nonzeros(gfp.zeros(0, n), m.alg.p)
                                      for d, n in m.dims.items()})


def module_resolution(m, i_max):
    """The module path through homological step i_max (F_0 .. F_{i_max})."""
    return module_resolver(m).extend(i_max + 1)


def module_regularity(m, **kwargs):
    """`regularity` of the module path of m."""
    return regularity(module_resolver(m), **kwargs)


def free_presentation(ring):
    """S itself, as a presentation with one generator and no relations."""
    return SPresentation(ring, (0,), (), {})


def quotient_by(alg, elems):
    """E/(elems) as a VectorizedModule."""
    tgt = FreeEModule(alg, (0,))
    src = FreeEModule(alg, tuple(e.degree for e in elems))
    ent = {(0, c): e for c, e in enumerate(elems)}
    return vectorize_coker(GradedMap(src, tgt, ent))


def residue_field(alg):
    return quotient_by(alg, [ExtElement.variable(alg, i) for i in range(alg.nvars)])


def random_presentation_module(rng, n, p=32003, max_rels=3):
    """coker of a small random homogeneous matrix with generators in
    degrees 0 (and sometimes 1), relations in degrees -1..-(n+1)."""
    alg = Algebra(n, p)
    tgt_degs = (0,) if rng.random() < 0.7 else (0, 1)
    nrel = int(rng.integers(1, max_rels + 1))
    src_degs = []
    entries = {}
    for c in range(nrel):
        r = int(rng.integers(0, len(tgt_degs)))
        d = -int(rng.integers(1, n + 2))
        src_degs.append(d + tgt_degs[r])
        el = random_element(alg, d, rng)
        if not el.is_zero:
            entries[(r, c)] = el
    f = GradedMap(FreeEModule(alg, tuple(src_degs)), FreeEModule(alg, tgt_degs), entries)
    return vectorize_coker(f)


def random_typed_module(rng, n, p=32003):
    pool = [((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,)), ((1, 1), (1, 1))]
    b, bp = pool[int(rng.integers(0, len(pool)))]
    tvec = paramspace.TypeVectors(b, bp)
    x = paramspace.sample(tvec, n, rng, p=p)
    return vectorize_coker(x.phi.dual())


@st.composite
def small_graded_maps(draw):
    """Random homogeneous maps over n <= 2 and p in {2, 3, 101}, unit entries
    included, so both minimal and non-minimal presentations occur."""
    n = draw(st.integers(0, 2))
    p = draw(st.sampled_from([2, 3, 101]))
    alg = Algebra(n, p)
    tgt = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    src = draw(st.lists(st.integers(-alg.nvars, 1), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_graded_map(FreeEModule(alg, tuple(src)), FreeEModule(alg, tuple(tgt)), rng)


def random_graded_map(source, target, rng, fill=1.0):
    """A random homogeneous map: each slot of a possible degree holds, with
    probability `fill`, a uniform element of E of that degree."""
    alg = source.alg
    entries = {}
    for r, gt in enumerate(target.gen_degrees):
        for c, gs in enumerate(source.gen_degrees):
            if -alg.nvars <= gs - gt <= 0 and (fill == 1.0 or rng.random() < fill):
                entries[(r, c)] = random_element(alg, gs - gt, rng)
    return GradedMap(source, target, entries)


@st.composite
def mixed_graded_maps(draw):
    """Random homogeneous maps over n <= 3 and p in {2, 3, 101} with up to
    four source and three target generators of mixed degrees, so that
    entries of several terms and of several degrees meet in one slice."""
    alg = Algebra(draw(st.integers(0, 3)), draw(st.sampled_from([2, 3, 101])))
    degrees = st.lists(st.integers(-2, 2), min_size=1, max_size=4)
    src = FreeEModule(alg, tuple(draw(degrees)))
    tgt = FreeEModule(alg, tuple(draw(degrees))[:3])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_graded_map(src, tgt, rng, fill=draw(st.sampled_from([0.5, 1.0])))


def quotient_slice_oracle(image_cols, amb_dim, p):
    """Quotient of k^amb by the column space as (projection, section)
    matrices, built from rref(image.T) as the slice builders once did: the
    projection is I at the non-pivot coordinates and -R[:, free].T at the
    pivots, the section is the inclusion of the non-pivot coordinates."""
    if image_cols.shape[1] == 0:
        return gfp.eye(amb_dim), gfp.eye(amb_dim)
    R, piv = gfp.rref(image_cols.T, p)
    pivset = set(piv)
    free = np.array([c for c in range(amb_dim) if c not in pivset], dtype=np.intp)
    proj = gfp.zeros(len(free), amb_dim)
    section = gfp.zeros(amb_dim, len(free))
    if len(free):
        proj[np.arange(len(free)), free] = 1.0
        section[free, np.arange(len(free))] = 1.0
        if piv:
            proj[:, np.array(piv, dtype=np.intp)] = np.mod(-R[:len(piv)][:, free].T, p)
    return proj, section


def dense_extend_column_basis(base, cand, p):
    """The dense greedy rule that `gfp.extend_column_basis` replaced, kept as
    its oracle: the candidate columns that extend the column space of
    `base`, left to right, as pivots of one elimination of [base | cand]."""
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    cand = np.atleast_2d(np.asarray(cand, dtype=np.float64))
    w = base.shape[1]
    piv = gfp.echelon(np.hstack([base, cand]), p)[1]
    return [c - w for c in piv if c >= w]


def dense_rank(a, p):
    """`gfp.rank` of a dense matrix, through its nonzeros."""
    r, c = np.nonzero(a)
    return gfp.rank(r, c, np.asarray(a)[r, c], p)


def dense_slice_matrix(f, d):
    """The block-by-block dense assembly that `GradedMap.slice_nonzeros`
    replaced, kept as its oracle: each entry's block is the sum of its
    terms' `left_mul_matrix` times the coefficient."""
    alg = f.alg
    out = gfp.zeros(f.target.slice_dim(d), f.source.slice_dim(d))
    ro = f.target.offsets(d)
    co = f.source.offsets(d)
    for (r, c), e in f.entries.items():
        sd = d - f.source.gen_degrees[c]
        td = d - f.target.gen_degrees[r]
        if alg.dim(sd) == 0 or alg.dim(td) == 0:
            continue
        block = gfp.zeros(alg.dim(td), alg.dim(sd))
        for mask, coeff in e.terms.items():
            block += left_mul_matrix(alg, mask, sd) * coeff
        out[ro[r]:ro[r] + block.shape[0], co[c]:co[c] + block.shape[1]] = np.mod(block, alg.p)
    return out


def dense_koszul_differential(m, i, d):
    """wedge^i V (x) M_d -> wedge^{i-1} V (x) M_{d+1}, filled densely block by
    block: the builder that `smod._koszul_nonzeros` replaced, kept as its
    oracle."""
    nv = m.ring.nvars
    src = tuple(combinations(range(nv), i))
    tgt_pos = {s: k for k, s in enumerate(combinations(range(nv), i - 1))}
    md, md1 = m.dim(d), m.dim(d + 1)
    D = gfp.zeros(md1 * len(tgt_pos), md * len(src))
    if md == 0 or md1 == 0:
        return D
    p = m.ring.p
    for col, subset in enumerate(src):
        for k, t in enumerate(subset):
            row = tgt_pos[subset[:k] + subset[k + 1:]]
            sgn = 1 if k % 2 == 0 else p - 1
            D[row * md1:(row + 1) * md1, col * md:(col + 1) * md] = \
                np.mod(dense_action(m, t, d) * sgn, p)
    return D


def sorted_nonzeros(rows, cols, vals):
    """Triplets in (row, column) order, for comparing two assemblies."""
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.asarray(vals)[order]


def dense_generators(amb, gens):
    """Resolver generators, kept as (degree, coords, vals) nonzeros, as
    (degree, dense ambient vector) pairs."""
    dim = amb.slice_dim if isinstance(amb, FreeEModule) else amb.dim
    out = []
    for g, coords, vals in gens:
        v = np.zeros(dim(g))
        v[coords] = vals
        out.append((g, v))
    return out


def dense_kernel(kernel):
    """A Resolver kernel, kept as its nonzeros (n, free, vec, coord, val),
    as the dense pair (N, free) of `gfp.nullspace`."""
    n, free, vec, coord, val = kernel
    N = gfp.zeros(n, len(free))
    N[coord, vec] = val
    return N, free


def module_corpus(count, seed, nmax=4, p=32003):
    """Deterministic list of small nonzero modules over varied n <= nmax."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    while len(out) < count:
        n = int(rng.integers(1, nmax + 1))
        if n == nmax and rng.random() < 0.5:
            n -= 1
        if rng.random() < 0.5:
            m = random_presentation_module(rng, n, p=p)
        else:
            m = random_typed_module(rng, n, p=p)
        if not m.is_zero:
            out.append(m)
    return out


def random_sliced_module(rng, n, p):
    """coker of `random_s_presentation` sliced over [0, 5].  Every relation
    lies in degree <= 3, so the slice holds all of them and at least two
    degrees above; a wider slice only makes the examples slower."""
    return slice_presentation(random_s_presentation(rng, n, p), (0, 5))


def random_s_presentation(rng, n, p):
    """A random homogeneous presentation over GF(p)[x_0..x_n]: generators
    in degree 0 (sometimes also 1), one or two relations of degree 1 or 2
    above their row, random coefficients (zero ones included)."""
    ring = PolyRing(n, p)
    rows = (0,) if rng.random() < 0.6 else (0, 1)
    cols = [int(rng.choice(rows)) + int(rng.integers(1, 3))
            for _ in range(int(rng.integers(1, 3)))]
    entries = {}
    for r, rd in enumerate(rows):
        for c, cd in enumerate(cols):
            if cd < rd:
                continue
            poly = {e: int(rng.integers(0, p)) for e in ring.basis(cd - rd)}
            entries[(r, c)] = {e: v for e, v in poly.items() if v}
    return SPresentation(ring, rows, cols, entries)


def sliced_corpus(p=32003):
    """Named S-side modules wide enough for the Tate windows in the tests."""
    out = []
    r1 = PolyRing(1, p)
    r2 = PolyRing(2, p)
    r3 = PolyRing(3, p)
    out.append(("P1 structure", slice_presentation(free_presentation(r1), (0, 7))))
    out.append(("P2 structure", slice_presentation(free_presentation(r2), (0, 7))))
    out.append(("plane conic", slice_presentation(
        SPresentation.quotient(r2, [parse_poly(r2, "x0*x1 - x2^2")]), (0, 8))))
    out.append(("plane cubic", slice_presentation(
        SPresentation.quotient(r2, [parse_poly(r2, "x0^3 + x1^3 + x2^3")]), (0, 8))))
    out.append(("two points P1", slice_presentation(
        SPresentation.quotient(r1, [parse_poly(r1, "x0^2 - x1^2")]), (0, 7))))
    out.append(("quadric P3", slice_presentation(
        SPresentation.quotient(r3, [parse_poly(r3, "x0*x1 - x2*x3")]), (0, 8))))
    out.append(("twisted line", slice_presentation(
        SPresentation.quotient(r2, [parse_poly(r2, "x0"), parse_poly(r2, "x1^2")]), (0, 8))))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return module_corpus(30, seed=2024)
