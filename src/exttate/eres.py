"""Minimal free resolutions over E, Betti tables, regularity, alpha invariants.

Two independent engines compute graded Betti numbers:

* the resolution engine `Resolver`, the one loop that covers a kernel by
  minimal generators, step by step, from slice-wise nullspaces.  It
  resolves a VectorizedModule (step 0 is a minimal cover of the module)
  or the kernel of a GradedMap (`resolve_kernel_steps`, which splices the
  resolution onto the map's source); beta_{i,j} = number of generators of
  F_i in degree j;
* the Koszul-type oracle `betti_cartan`: the dimension of the middle
  homology of  G_{i+1} (x) M_{j+i+1} -> G_i (x) M_{j+i} -> G_{i-1} (x) M_{j+i-1}
  where G_i is the i-th divided power of the variable space (dimensions
  match symmetric powers; the divided-power basis keeps the differential
  correct in small characteristic).

Regularity of a graded E-module is the stable top row max(i+j) of its
Betti table.  Top rows never increase along a minimal resolution (entries
have degree <= -1), so the sequence of per-step top rows is non-increasing
and the reported value is its limit; `certified` means the top row was
constant for a full stabilization window of consecutive steps (default
n+2), or the resolution terminated (free module).
"""

import math
from itertools import combinations_with_replacement

import numpy as np

from . import gfp
from .errors import DomainError
from .efree import FreeEModule, GradedMap, VectorizedModule


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

    def row_profile(self, i):
        return frozenset(i + j for (ii, j) in self.entries if ii == i)

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


def _slice_kernel(phi):
    """Per-degree nullspace bases of a GradedMap's slice matrices."""
    ker = {}
    lo, hi = phi.source.degree_range()
    for d in range(hi, lo - 1, -1):
        if phi.source.slice_dim(d) == 0:
            continue
        N = gfp.nullspace(phi.slice_matrix(d), phi.alg.p)
        if N.shape[1]:
            ker[d] = N
    return ker


def _kernel_generators(alg, amb, ker):
    """Minimal generators of a graded submodule of `amb` given slice bases.

    In each degree (top down) the span of the e_i images of the slice
    above is computed; basis columns extending that span are the chosen
    generator representatives (ambient coordinates).
    """
    gens = []
    for d in sorted(ker, reverse=True):
        basis = ker[d]
        up = ker.get(d + 1)
        if up is not None:
            rad_cols = [gfp.matmul(amb.action(i, d + 1), up, alg.p)
                        for i in range(alg.nvars)]
            rad = np.hstack(rad_cols)
        else:
            rad = gfp.zeros(basis.shape[0], 0)
        idx = gfp.extend_column_basis(rad, basis, alg.p)
        for c in idx:
            gens.append((d, basis[:, c]))
    return gens


def _map_from_ambient_vectors(alg, amb, gens):
    """The GradedMap sending new generators to the given ambient vectors."""
    fnew = FreeEModule(alg, tuple(g for g, _ in gens))
    entries = {}
    for c, (g, w) in enumerate(gens):
        parts = amb.element_from_vector(g, w)
        for r, el in enumerate(parts):
            if not el.is_zero:
                entries[(r, c)] = el
    return GradedMap(fnew, amb, entries)


class Resolver:
    """Incremental minimal free resolution, covering one kernel per step.

    `Resolver(module)` resolves a VectorizedModule: step 0 picks minimal
    generators of the module (a basis of M modulo the span of all e_i
    images) and each later step covers the slice-wise kernel of the
    previous map.  `Resolver.of_kernel(phi)` starts from frees = [source of
    phi] and the kernel of phi, so its steps resolve ker(phi).  All choices
    run through the deterministic echelon pivoting in gfp, so reruns
    reproduce the same matrices.
    """

    def __init__(self, module):
        if module.is_zero:
            raise DomainError("cannot resolve the zero module")
        self.module = module
        self.alg = module.alg
        self.frees = []
        self.steps = []
        self.terminated = False
        self._ker = None  # dict degree -> basis columns in frees[-1] coords

    @classmethod
    def of_kernel(cls, phi):
        """Resolver of ker(phi), seeded with F_0 = source(phi)."""
        res = cls.__new__(cls)
        res.module = None
        res.alg = phi.alg
        res.frees = [phi.source]
        res.steps = []
        res.terminated = False
        res._ker = _slice_kernel(phi)
        return res

    def _cover_module(self):
        m = self.module
        lo, hi = m.support()
        units = {d: gfp.eye(m.dim(d)) for d in range(lo, hi + 1) if m.dim(d)}
        gens = _kernel_generators(self.alg, m, units)
        f0 = FreeEModule(self.alg, tuple(g for g, _ in gens))
        self.frees.append(f0)
        ker = {}
        flo, fhi = f0.degree_range()
        for d in range(fhi, flo - 1, -1):
            cols = []
            for (g, v) in gens:
                for mask in self.alg.basis(d - g):
                    act = m.monomial_action(mask, g)
                    cols.append(gfp.matmul(act, v.reshape(-1, 1), self.alg.p))
            if not cols:
                continue
            N = gfp.nullspace(np.hstack(cols), self.alg.p)
            if N.shape[1]:
                ker[d] = N
        self._ker = ker

    def step(self):
        """Extend the resolution by one free module; returns its gen degrees."""
        if self.terminated:
            return ()
        if not self.frees:
            self._cover_module()
            return self.frees[0].gen_degrees
        gens = _kernel_generators(self.alg, self.frees[-1], self._ker)
        if not gens:
            self.terminated = True
            return ()
        phi = _map_from_ambient_vectors(self.alg, self.frees[-1], gens)
        # Past a minimal cover every syzygy lies in m*F, so a unit entry is a
        # bug.  The first cover of a kernel seed may have units: its caller
        # reports them.
        if (self.module is not None or self.steps) and not phi.is_minimal():
            raise DomainError("internal: non-minimal syzygy step")
        self.steps.append(phi)
        self.frees.append(phi.source)
        self._ker = _slice_kernel(phi)
        return phi.source.gen_degrees

    def extend(self, steps):
        """Run up to `steps` more steps, stopping once the resolution ends."""
        for _ in range(steps):
            self.step()
            if self.terminated:
                break
        return self

    def betti_table(self):
        entries = {}
        for i, f in enumerate(self.frees):
            for g in f.gen_degrees:
                entries[(i, g)] = entries.get((i, g), 0) + 1
        return BettiTable(entries)


def minimal_free_resolution(m, i_max):
    """Resolve m through homological step i_max (F_0 .. F_{i_max})."""
    if i_max < 0:
        raise DomainError("need i_max >= 0")
    return Resolver(m).extend(i_max + 1)


def resolve_kernel_steps(phi, steps):
    """Minimal free resolution of ker(phi), as maps spliced onto phi's source.

    Returns [g_1, g_2, ...] where g_1 : G_1 -> source(phi) covers ker(phi)
    minimally and each later map covers the kernel of the previous one.
    """
    return Resolver.of_kernel(phi).extend(steps).steps


# ---------------------------------------------------------------------------
# Cartan-complex Betti oracle


def _divided_basis(nvars, i):
    """Exponent vectors of total degree i, graded-lex (deterministic)."""
    out = []
    for combo in combinations_with_replacement(range(nvars), i):
        alpha = [0] * nvars
        for t in combo:
            alpha[t] += 1
        out.append(tuple(alpha))
    return out


def _cartan_differential(m, i, d):
    """Map M_d (x) G_i -> M_{d-1} (x) G_{i-1}; block per divided monomial."""
    nv = m.alg.nvars
    src_g = _divided_basis(nv, i)
    tgt_g = _divided_basis(nv, i - 1)
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
                self._ranks[key] = gfp.rank(
                    _cartan_differential(self.m, i, d), self.m.alg.p)
        return self._ranks[key]

    def betti(self, i, j):
        if i < 0:
            raise DomainError("need i >= 0")
        nv = self.m.alg.nvars
        mid = self.m.dim(j + i) * math.comb(nv + i - 1, i)
        if mid == 0:
            return 0
        return mid - self._rank(i, j + i) - self._rank(i + 1, j + i + 1)


def betti_cartan(m, i, j, scanner=None):
    """beta_{i,j}(m) as the middle homology dimension of the Cartan strand."""
    if scanner is not None:
        return scanner.betti(i, j)
    return CartanScanner(m).betti(i, j)


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

    def __iter__(self):
        yield self.value
        yield self.certified

    def __repr__(self):
        tag = "certified" if self.certified else "uncertified"
        return "Regularity(%d, %s, %d steps)" % (self.value, tag, self.steps)


def default_stab_window(alg):
    return alg.nvars + 1


def regularity(m, stab_window=None, max_steps=200, stop_below=None):
    """Stable top row of the Betti table of m.

    Walks the minimal free resolution, tracking the top row i + max(gen
    degree of F_i).  The sequence is non-increasing; once it has stayed
    constant for `stab_window` consecutive steps (default n+2) the value
    is reported as certified.  A terminated resolution (free module)
    certifies immediately.  With `stop_below` set, the scan stops early
    once the top row drops below it: the bound is then proven (top rows
    cannot come back up) and the result carries truncated_below=True.
    """
    if m.is_zero:
        raise DomainError("regularity of the zero module is undefined")
    w = stab_window if stab_window is not None else default_stab_window(m.alg)
    if w < 1:
        raise DomainError("stabilization window must be at least 1 step, got %d" % w)
    res = Resolver(m)
    tops = []
    for i in range(max_steps + 1):
        gens = res.step()
        if res.terminated:
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


def alpha(m, k, reg=None, stab_window=None, scanner=None):
    """alpha_k(m) = sum_i (-1)^i beta_{i,k}(m); finite once reg is certified.

    beta_{i,k} != 0 forces the row i+k to lie at or below the top row of
    homological step i; top rows are non-increasing with certified limit
    reg.value, so scanning i until i+k exceeds that per-step bound covers
    every possibly-nonzero term (the stable bound alone would miss
    transient rows above the limit).
    """
    if reg is None:
        reg = regularity(m, stab_window=stab_window)
    if not reg.certified:
        raise DomainError("alpha needs a certified regularity")
    sc = scanner if scanner is not None else CartanScanner(m)
    tops = reg.top_rows
    total = 0
    i = 0
    while True:
        bound = tops[i] if i < len(tops) else reg.value
        if i + k > bound:
            break
        total += (-1) ** i * sc.betti(i, k)
        i += 1
    return total


def alpha_hilbert_rhs(m, e, reg=None, stab_window=None, scanner=None):
    """sum_{j >= e} alpha_j(m) * C(n+1, j-e); equals dim m_e."""
    if reg is None:
        reg = regularity(m, stab_window=stab_window)
    if not reg.certified:
        raise DomainError("alpha_hilbert_rhs needs a certified regularity")
    _, hi = m.support()
    nv = m.alg.nvars
    sc = scanner if scanner is not None else CartanScanner(m)
    total = 0
    for j in range(e, hi + 1):
        a = alpha(m, j, reg=reg, scanner=sc)
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
    from .extalg import Algebra

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
