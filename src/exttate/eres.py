"""Minimal free resolutions over E, Betti tables, regularity, alpha invariants.

Two independent engines compute graded Betti numbers:

* the resolution engine `Resolver`.  Its one step covers a submodule of
  an ambient free module by minimal generators, kept as (ambient,
  generator vectors) with each vector as its nonzeros, and the next step
  covers the kernel of that cover, built slice by slice (`_cover_kernel`).
  All it reads of an ambient is `amb.act(i, d, vec, coord, val)`, the
  nonzeros in slice d-1 of the e_i images of slice-d vectors given as
  nonzeros, in input order: 0 or 1 per input nonzero on a free module
  (`FreeEModule.act`), maybe more elsewhere.  It resolves the kernel of
  a GradedMap (`resolve_kernel_steps` turns the steps into maps spliced
  onto its source) and the cokernel, from the map as a presentation
  (`Resolver.of_presentation`): unit entries are pruned by Schur
  complements and source columns that the others generate are dropped.
  beta_{i,j} = number of generators of F_i in degree j.  No step builds
  a dense image, kernel basis, radical or generator vector: a kernel is
  kept as the nonzeros of its basis (`gfp.triplet_kernel`), the pivot
  block with the identity on the free columns implied.  Generators are
  chosen in kernel coordinates, among dim ker_d unit vectors instead of
  dim F_d: each e_i maps ker_{d+1} into ker_d, greedy choices do not
  change under an injective linear map, and the nonzeros of the radical
  come straight from those of ker_{d+1} through `amb.act` (see
  `_kernel_generators`);
* the Koszul-type oracle `CartanScanner`: the dimension of the middle
  homology of  G_{i+1} (x) M_{j+i+1} -> G_i (x) M_{j+i} -> G_{i-1} (x) M_{j+i-1}
  where G_i is the i-th divided power of the variable space (dimensions
  match symmetric powers; the divided-power basis keeps the differential
  correct in small characteristic).  Its monomials are indexed by the
  exponent vectors of S_i, `smod.exponent_vectors`.

Regularity of a graded E-module is the stable top row max(i+j) of its
Betti table.  Top rows never increase along a minimal resolution (entries
have degree <= -1), so the sequence of per-step top rows is non-increasing
and the reported value is its limit; `certified` means the top row was
constant for a full stabilization window of consecutive steps (default
n+2), or the resolution terminated (free module).
"""

import math

import numpy as np

from . import gfp
from .errors import DomainError, ZeroModuleError
from .extalg import Algebra, ExtElement
from .efree import FreeEModule, GradedMap, VectorizedModule
from .smod import exponent_vectors


class BettiTable:
    """Graded Betti numbers beta_{i,j}, displayed with row = i + j."""

    def __init__(self, entries):
        self.entries = {k: int(v) for k, v in entries.items() if v}

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def max_step(self):
        return max((i for i, _ in self.entries), default=-1)

    def rows(self):
        return sorted({i + j for i, j in self.entries})

    def records(self):
        """(i, j, row, value) tuples sorted by (i, j)."""
        return [(i, j, i + j, self.entries[(i, j)])
                for (i, j) in sorted(self.entries)]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def format_text(self):
        """Aligned text, top row first, columns are homological steps."""
        if not self.entries:
            return "(zero table)"
        rows = self.rows()
        imax = self.max_step()
        grid = []
        header = ["row\\i"] + [str(i) for i in range(imax + 1)]
        grid.append(header)
        for r in sorted(rows, reverse=True):
            line = [str(r)]
            for i in range(imax + 1):
                v = self.get(i, r - i)
                line.append(str(v) if v else ".")
            grid.append(line)
        widths = [max(len(row[c]) for row in grid) for c in range(len(header))]
        return "\n".join(" ".join(cell.rjust(w) for cell, w in zip(row, widths))
                         for row in grid)


def _cover_kernel(amb, f, gens):
    """Per-degree kernels, in the form of `gfp.kernel_nonzeros`, of the map
    f -> amb sending the generators of the free module f to the vectors of
    `gens`, (degree, coords, vals) nonzeros in f's generator order.

    The image of a slice, `above`, is kept as (f column, ambient row,
    value) arrays and built top down.  Below its generator's degree, a
    basis vector gen * m of slice d of f is b * e_i for the basis vector
    b = gen * m' of slice d+1, where e_i is the last factor of m = m' e_i,
    so the sign is +1 and the largest i reaching gen * m in f's
    `action_table(d+1)` is that factor; its image is amb.act of b's.
    Entries meeting at one (row, column), as the action of an ambient that
    is not free can make them, are summed before `gfp.triplet_kernel`.
    """
    p = amb.alg.p
    ker = {}
    lo, hi = f.degree_range()
    above = None
    for d in range(hi, lo - 1, -1):
        n = f.slice_dim(d)
        if n == 0:
            above = None
            continue
        parts = []
        for c, (g, coords, vals) in enumerate(gens):
            if g == d:
                parts.append((np.full(coords.size, f.offsets(d)[c]), coords, vals))
        if above is not None:
            col, row, val = above
            done = np.zeros(n, dtype=bool)
            rows = f.action_table(d + 1)[0]
            for i in reversed(range(f.alg.nvars)):
                fresh = (rows[i] >= 0) & ~done[rows[i]]
                if fresh.any():
                    done[rows[i, fresh]] = True
                    t = np.where(fresh, rows[i], -1)[col]
                    keep = t >= 0
                    parts.append(amb.act(i, d + 1, t[keep], row[keep], val[keep]))
        col, row, val = (np.concatenate(x) for x in zip(*parts))
        key, val = gfp.sum_nonzeros(row * n + col, val, p)
        row, col = np.divmod(key, n)
        above = col, row, val
        kernel = gfp.triplet_kernel(row, col, val, n, p)
        if len(kernel[1]):
            ker[d] = kernel
    return ker


def _kernel_generators(alg, amb, ker):
    """Minimal generators of a graded submodule K of `amb`.

    `ker` maps each degree d to the nonzeros of a basis of K_d in ambient
    coordinates (`gfp.kernel_nonzeros`): basis vector k has 1 at free[k] and
    0 at the other free coordinates.  In each degree (top down) the basis
    vectors extending the radical, the span of the e_i images of K_{d+1},
    are the generators; each is returned as its nonzeros (degree, coords,
    vals), int64 arrays with coords increasing.  The chosen vectors of a
    degree are sorted once, by vector and then coordinate, and cut into
    copies, so a kept generator holds no view of the kernel basis.

    The choice is made in kernel coordinates.  Every e_i maps K_{d+1} into
    K_d, so a radical vector v lies in K_d and has coordinates v[free]
    over its basis.  Restricted to K_d, v -> v[free] is injective, and a
    greedy choice only asks whether a vector lies in the span of the
    radical and the basis vectors before it, which an injective linear map
    preserves.  So extending the radical's v[free] by the unit vectors
    (`gfp.extend_column_basis`) picks the same basis vectors as extending
    the radical by the basis in ambient coordinates.  The radical's
    nonzeros come from those of K_{d+1} through the ambient's `act`:
    image i of basis vector k of K_{d+1} is vector i * dim K_{d+1} + k,
    and its coordinates outside `free` are dropped, as the others
    determine them.  No dense basis or radical is built.
    """
    gens = []
    for d in sorted(ker, reverse=True):
        n, free, vec, coord, val = ker[d]
        up = ker.get(d + 1)
        if up is None:
            chosen = range(len(free))
        else:
            pos = np.full(n, -1)
            pos[free] = np.arange(len(free))
            _, up_free, up_vec, up_coord, up_val = up
            images = (amb.act(i, d + 1, up_vec + i * len(up_free), up_coord, up_val)
                      for i in range(alg.nvars))
            vecs, rows, vals = (np.concatenate(x) for x in zip(*images))
            keep = pos[rows] >= 0
            chosen = gfp.extend_column_basis(vecs[keep], pos[rows[keep]], vals[keep],
                                             len(free), alg.p)
        chosen = list(chosen)
        is_chosen = np.zeros(len(free), dtype=bool)
        is_chosen[chosen] = True
        take = np.flatnonzero(is_chosen[vec])
        take = take[np.lexsort((coord[take], vec[take]))]
        coords, vals = coord[take], val[take].astype(np.int64)
        ends = np.searchsorted(vec[take], chosen, side="right").tolist()
        gens.extend((d, coords[a:b].copy(), vals[a:b].copy())
                    for a, b in zip([0] + ends, ends))
    return gens


def _generator_vectors(phi):
    """The image of each source generator of phi, as (degree, coords, vals)
    nonzeros in generator order: generator c of degree g goes to column
    offsets(g)[c] of phi.slice_nonzeros(g), one slice per distinct degree."""
    src = phi.source
    slices = {g: phi.slice_nonzeros(g) for g in set(src.gen_degrees)}
    out = []
    for c, g in enumerate(src.gen_degrees):
        rows, cols, vals = slices[g]
        at = np.flatnonzero(cols == src.offsets(g)[c])
        at = at[np.argsort(rows[at])]
        out.append((g, rows[at], vals[at]))
    return out


def _unit_parts(amb, gens):
    """The unit entries of the map into amb of each generator vector of a degree
    that amb's generators have: (those generators, its E_0 coordinates on them)."""
    at = {h: [r for r, g in enumerate(amb.gen_degrees) if g == h] for h in set(amb.gen_degrees)}
    out = []
    for g, coords, vals in gens:
        if g in at:
            offsets = np.array([amb.offsets(g)[r] for r in at[g]])
            units = np.zeros(len(offsets), dtype=np.int64)
            k = np.searchsorted(offsets, coords)
            hit = offsets[np.minimum(k, len(offsets) - 1)] == coords
            units[k[hit]] = vals[hit]
            out.append((at[g], units))
    return out


def _has_unit(amb, gens):
    """True iff the map into amb of some generator vector has a unit entry."""
    return any(units.any() for _, units in _unit_parts(amb, gens))


def _restrict(phi, entries, rows, cols):
    """The map on target generators `rows` and source generators `cols` of
    phi, with the entries there of `entries` (keyed as phi's)."""
    return GradedMap(FreeEModule(phi.alg, [phi.source.gen_degrees[c] for c in cols]),
                     FreeEModule(phi.alg, [phi.target.gen_degrees[r] for r in rows]),
                     {(i, k): entries[r, c] for i, r in enumerate(rows)
                      for k, c in enumerate(cols) if (r, c) in entries})


def _prune(phi):
    """phi without unit entries, as Macaulay2's `prune` (Decker-Eisenbud):
    while one is left, the first unit lambda, at (r0, c0), drops row r0 and
    column c0, and entry(r, c) -= entry(r, c0) * lambda^-1 * entry(r0, c),
    which keeps coker(phi)."""
    while not phi.is_minimal():
        r0, c0 = min(k for k, e in phi.entries.items() if e.degree == 0)
        inv = pow(phi.entries[r0, c0].terms[0], -1, phi.alg.p)
        ent = {(r, c): phi.entry(r, c) - phi.entry(r, c0) * phi.entry(r0, c).scale(inv)
               for r in range(phi.target.rank) for c in range(phi.source.rank)}
        phi = _restrict(phi, ent, [r for r in range(phi.target.rank) if r != r0],
                        [c for c in range(phi.source.rank) if c != c0])
    return phi


def _kept_columns(src, gens):
    """The generators of src that the others do not generate, given minimal
    generators `gens` of the kernel of a map out of src: all but the pivots
    of the rref of their `_unit_parts`."""
    parts = _unit_parts(src, gens)
    units = gfp.zeros(len(parts), src.rank)
    for k, (cols, vals) in enumerate(parts):
        units[k, cols] = vals
    dropped = gfp.rref(units, src.alg.p)[1] if units.any() else []
    return [c for c in range(src.rank) if c not in dropped]


def _map_from_ambient_vectors(amb, gens):
    """The GradedMap sending new generators to the given ambient vectors,
    (degree, coords, vals) nonzeros."""
    entries = {}
    for c, (g, coords, vals) in enumerate(gens):
        offsets = np.array(amb.offsets(g))
        owner = np.searchsorted(offsets, coords, side="right") - 1
        for r, x, v in zip(owner.tolist(), (coords - offsets[owner]).tolist(), vals.tolist()):
            entries.setdefault((r, c), {})[amb.alg.basis(g - amb.gen_degrees[r])[x]] = v
    return GradedMap(FreeEModule(amb.alg, tuple(g for g, *_ in gens)), amb,
                     {rc: ExtElement(amb.alg, terms) for rc, terms in entries.items()})


class Resolver:
    """Incremental minimal free resolution, one kernel cover per step.

    Every step is the same: it picks minimal generators of a submodule of
    its ambient module `amb` (`_kernel_generators`) and is kept as the pair
    (ambient, generator vectors).  The next step covers the kernel of the
    free module on those generators -> ambient, built from the nonzeros of
    the ambient's action (`_cover_kernel`).  The first covers `kernel()`.
    `Resolver.of_kernel(phi)` starts from frees = [source of phi] and the
    kernel of phi's generator vectors, so its steps resolve ker(phi).
    `Resolver.of_presentation(phi)` puts the target in front of such a
    resolver of a minimal presentation, so it resolves coker(phi).
    Choices run through the deterministic pivoting in gfp, so reruns
    reproduce the same vectors.  A step builds the kernel it covers on
    entry, so the last step of a run builds no kernel that nothing reads.
    """

    def __init__(self, frees, amb, kernel):
        self.alg = amb.alg
        self.frees = frees
        self.steps = []
        self.terminated = False
        # the next step covers the submodule kernel() of amb, by degree
        self._amb = amb
        self._kernel = kernel

    @classmethod
    def of_kernel(cls, phi):
        """Resolver of ker(phi), seeded with F_0 = source(phi)."""
        return cls([phi.source], phi.source,
                   lambda: _cover_kernel(phi.target, phi.source, _generator_vectors(phi)))

    @classmethod
    def of_presentation(cls, phi, res=None):
        """Minimal free resolution of coker(phi).  F_0 is the target of phi
        `_prune`d (ZeroModuleError if that is 0).  The first cover of the
        kernel is taken on `res`, a `Resolver.of_kernel(phi)` with no step
        taken that the caller keeps (fresh if none or pruning changed phi);
        if `_kept_columns` keeps every column, `res` is returned with F_0 in
        front (F_{k+2} is its step k), else `of_kernel` of the kept ones is."""
        psi = _prune(phi)
        if not psi.target.rank:
            raise ZeroModuleError("cannot resolve the zero module")
        if res is None or psi is not phi:
            res = cls.of_kernel(psi)
        res.step()
        kept = _kept_columns(psi.source, res.steps[0][1] if res.steps else [])
        if len(kept) < psi.source.rank:
            res = cls.of_kernel(_restrict(psi, psi.entries, range(psi.target.rank), kept))
        res.frees.insert(0, psi.target)
        return res

    def step(self):
        """Extend the resolution by one free module; returns its gen degrees."""
        if self.terminated:
            return ()
        amb = self._amb
        gens = _kernel_generators(amb.alg, amb, self._kernel())
        if not gens:
            self.terminated = True
            return ()
        # Past the first cover (of_presentation drops its units) every syzygy
        # lies in m*F, so a unit is a bug.
        if self.steps and _has_unit(amb, gens):
            raise DomainError("internal: non-minimal syzygy step")
        f = FreeEModule(amb.alg, tuple(g for g, *_ in gens))
        self.steps.append((amb, gens))
        self.frees.append(f)
        self._amb = f
        self._kernel = lambda: _cover_kernel(amb, f, gens)
        return f.gen_degrees

    def extend(self, steps):
        """Run up to `steps` more steps, stopping once the resolution ends."""
        for _ in range(steps):
            self.step()
            if self.terminated:
                break
        return self

    def betti_table(self):
        return BettiTable({(i, -a): m for i, f in enumerate(self.frees)
                           for a, m in f.twist_summands()})


def minimal_free_resolution(phi, i_max):
    """`Resolver.of_presentation(phi)` extended to hold F_0 .. F_{i_max} of
    coker(phi); it may hold more, as it starts with up to three."""
    if i_max < 0:
        raise DomainError("need i_max >= 0")
    res = Resolver.of_presentation(phi)
    return res.extend(i_max + 1 - len(res.frees))


def resolve_kernel_steps(phi, steps, resolver=None):
    """Minimal free resolution of ker(phi), as maps spliced onto phi's source.

    Returns [g_1, g_2, ...] where g_1 : G_1 -> source(phi) covers ker(phi)
    minimally and each later map covers the kernel of the previous one.
    `resolver`, if given, is one whose steps resolve ker(phi) (`of_kernel`,
    or `of_presentation` of a minimal phi): its first `steps` steps are
    read, and it is extended if it has fewer.
    """
    res = resolver if resolver is not None else Resolver.of_kernel(phi)
    res.extend(steps - len(res.steps))
    return [_map_from_ambient_vectors(amb, gens) for amb, gens in res.steps[:steps]]


# ---------------------------------------------------------------------------
# Cartan-complex Betti oracle


def _cartan_differential(m, i, d):
    """Map M_d (x) G_i -> M_{d-1} (x) G_{i-1}; block per divided monomial."""
    nv = m.alg.nvars
    src_g = exponent_vectors(nv, i)
    tgt_g = exponent_vectors(nv, i - 1)
    tgt_pos = {a: k for k, a in enumerate(tgt_g)}
    md, md1 = m.dim(d), m.dim(d - 1)
    D = gfp.zeros(md1 * len(tgt_g), md * len(src_g))
    if md == 0 or md1 == 0:
        return D
    acts = [m.action(t, d) for t in range(nv)]
    for col, alpha in enumerate(src_g):
        for t in range(nv):
            if alpha[t] == 0:
                continue
            beta = list(alpha)
            beta[t] -= 1
            row = tgt_pos[tuple(beta)]
            D[row * md1:(row + 1) * md1, col * md:(col + 1) * md] = acts[t]
    return D


class CartanScanner:
    """Cartan-strand Betti computation with differential ranks cached.

    rank(D at level (i, d)) feeds both beta_{i, d-i} and beta_{i-1, d-i},
    so scanning a grid through one scanner does half the eliminations.
    """

    def __init__(self, m):
        self.m = m
        self._ranks = {}

    def _rank(self, i, d):
        key = (i, d)
        if key not in self._ranks:
            if i <= 0 or self.m.dim(d) == 0 or self.m.dim(d - 1) == 0:
                self._ranks[key] = 0
            else:
                D = _cartan_differential(self.m, i, d)
                r, c = np.nonzero(D)
                self._ranks[key] = gfp.rank(r, c, D[r, c], self.m.alg.p)
        return self._ranks[key]

    def betti(self, i, j):
        if i < 0:
            raise DomainError("need i >= 0")
        nv = self.m.alg.nvars
        mid = self.m.dim(j + i) * math.comb(nv + i - 1, i)
        if mid == 0:
            return 0
        return mid - self._rank(i, j + i) - self._rank(i + 1, j + i + 1)


# ---------------------------------------------------------------------------
# Regularity


class RegularityResult:
    """Outcome of the top-row stabilization scan."""

    def __init__(self, value, certified, steps, top_rows, truncated_below=False):
        self.value = value
        self.certified = certified
        self.steps = steps
        self.top_rows = top_rows
        self.truncated_below = truncated_below

    def __repr__(self):
        tag = "certified" if self.certified else "uncertified"
        return "Regularity(%d, %s, %d steps)" % (self.value, tag, self.steps)


def regularity(m, stab_window=None, max_steps=200, stop_below=None):
    """Stable top row of the Betti table of the nonzero module that m, a
    Resolver of a minimal free resolution or a GradedMap, resolves or presents.

    Walks the minimal free resolution, tracking the top row i + max(gen
    degree of F_i); steps the Resolver already holds are read, not
    recomputed, and the steps taken stay on it.  The sequence is
    non-increasing; once it has stayed constant for `stab_window`
    consecutive steps (default n+2) the value is reported as certified.
    A terminated resolution (free module) certifies immediately.  With
    `stop_below` set, the scan stops early once the top row drops below
    it: the bound is then proven (top rows cannot come back up) and the
    result carries truncated_below=True.
    """
    try:
        res = m if isinstance(m, Resolver) else Resolver.of_presentation(m)
    except ZeroModuleError:
        raise DomainError("regularity of the zero module is undefined") from None
    w = stab_window if stab_window is not None else res.alg.nvars + 1
    if w < 1:
        raise DomainError("stabilization window must be at least 1 step, got %d" % w)
    if max_steps < 0:
        raise DomainError("max_steps must be at least 0, got %d" % max_steps)
    tops = []
    for i in range(max_steps + 1):
        gens = res.frees[i].gen_degrees if i < len(res.frees) else res.step()
        if not gens:
            return RegularityResult(tops[-1], True, i, tops)
        top = max(g + i for g in gens)
        if tops and top > tops[-1]:
            raise DomainError("internal: top Betti row increased")
        tops.append(top)
        if stop_below is not None and top < stop_below:
            return RegularityResult(top, True, i, tops, truncated_below=True)
        if len(tops) > w and all(t == tops[-1] for t in tops[-w - 1:]):
            return RegularityResult(top, True, i, tops)
    return RegularityResult(tops[-1], False, max_steps, tops)


# ---------------------------------------------------------------------------
# Alpha invariants (alternating column sums of the Betti table)


def alpha(scanner, k, reg):
    """alpha_k(m) = sum_i (-1)^i beta_{i,k}(m), m = scanner.m; reg certified.

    beta_{i,k} != 0 forces the row i+k to lie at or below the top row of
    homological step i; top rows are non-increasing with certified limit
    reg.value, so scanning i until i+k exceeds that per-step bound covers
    every possibly-nonzero term (the stable bound alone would miss
    transient rows above the limit).
    """
    if not reg.certified:
        raise DomainError("alpha needs a certified regularity")
    tops = reg.top_rows
    total = 0
    i = 0
    while True:
        bound = tops[i] if i < len(tops) else reg.value
        if i + k > bound:
            break
        total += (-1) ** i * scanner.betti(i, k)
        i += 1
    return total


def alpha_hilbert_rhs(scanner, e, reg):
    """sum_{j >= e} alpha_j(m) * C(n+1, j-e), m = scanner.m; equals dim m_e."""
    if not reg.certified:
        raise DomainError("alpha_hilbert_rhs needs a certified regularity")
    _, hi = scanner.m.support()
    nv = scanner.m.alg.nvars
    total = 0
    for j in range(e, hi + 1):
        a = alpha(scanner, j, reg)
        if a:
            total += a * math.comb(nv, j - e)
    return total


# ---------------------------------------------------------------------------
# Cone extension (tensor with the one-generator exterior algebra)


def cone_extend(m):
    """m (x) k[eps]/(eps^2) as a module over the (n+2)-variable algebra.

    Slice d is m_d (+) m_{d+1}; old variables act diagonally with a sign
    twist on the eps component, the new variable shifts the first
    component into the second.
    """
    alg2 = Algebra(m.alg.n + 1, m.alg.p)
    lo, hi = m.support()
    dims = {}
    for d in range(lo - 1, hi + 1):
        dims[d] = m.dim(d) + m.dim(d + 1)
    actions = {}
    p = alg2.p
    for d in range(lo, hi + 1):
        a, b = m.dim(d), m.dim(d + 1)       # slice d components
        a1, b1 = m.dim(d - 1), m.dim(d)     # slice d-1 components
        if dims.get(d, 0) == 0 or dims.get(d - 1, 0) == 0:
            continue
        for i in range(m.alg.nvars):
            blk = gfp.zeros(a1 + b1, a + b)
            blk[:a1, :a] = m.action(i, d)
            blk[a1:, a:] = np.mod(-m.action(i, d + 1), p)
            actions[(i, d)] = blk
        eps = gfp.zeros(a1 + b1, a + b)
        eps[a1:, :a] = gfp.eye(a)
        actions[(m.alg.nvars, d)] = eps
    return VectorizedModule(alg2, dims, actions)
