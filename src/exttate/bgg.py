"""The BGG bridge between sliced S-modules and linear free E-complexes.

The forward functor sends a sliced module M to the complex with E(-i)^{dim M_i}
in position i and differential determined by the multiplication maps,
entry[r][c] = sum_t sign_t * X_t[r, c] * e_t with sign_t = (-1)^t.  It is a
complex exactly when the x_t actions commute: the e_s e_t coefficient
(s < t) of d o d is sign_s sign_t (X_s X_t - X_t X_s), since e_t e_s =
-e_s e_t and e_t e_t = 0.  So d o d = 0 is decided on the slices, by
`SlicedModule.check_commutativity`.  Both directions read and write the
actions as their nonzeros (rows, cols, vals): a nonzero v of X_t at
(r, c) is the term sign_t * v * e_t of entry (r, c).  The inverse reading
peels the multiplication maps back off a linear complex, and the same
check on the module it returns rejects a composition that does not
vanish; it is the round-trip oracle of the tests.
Linear complexes and Tate windows share the base `FreeComplex`, and
`graded_map_homology` reads the homology along a chain of its maps: the
dimension of each middle slice less the ranks of the two slices around
it, each ranked once from its nonzeros (`GradedMap.slice_nonzeros`,
`gfp.rank`), with no dense slice built.
"""

import functools

import numpy as np

from . import gfp
from .errors import DomainError
from .extalg import Algebra, ExtElement
from .efree import FreeEModule, GradedMap
from .smod import PolyRing, SlicedModule


class FreeComplex:
    """Free modules T^k and maps T^k -> T^{k+1} at positions [lo, hi]; a
    position with nothing stored holds the zero module and the zero map."""

    def __init__(self, alg, lo, hi, modules, diffs):
        self.alg = alg
        self.lo = lo
        self.hi = hi
        self.modules = dict(modules)   # position -> FreeEModule
        self.diffs = dict(diffs)       # position k -> GradedMap T^k -> T^{k+1}

    def module(self, k):
        f = self.modules.get(k)
        return f if f is not None else FreeEModule(self.alg, ())

    def diff(self, k):
        d = self.diffs.get(k)
        if d is None:
            return GradedMap(self.module(k), self.module(k + 1), {})
        return d


class LinearComplex(FreeComplex):
    """Free modules E(-i)^{rank_i} for i in [lo, hi], linear differentials."""

    def __init__(self, alg, lo, hi, modules, diffs):
        super().__init__(alg, lo, hi, modules, diffs)
        for i, f in self.modules.items():
            if any(g != i for g in f.gen_degrees):
                raise DomainError("position %d carries generators in degrees %s"
                                  % (i, sorted(set(f.gen_degrees))))
        for i, d in self.diffs.items():
            if not d.is_linear():
                raise DomainError("differential at %d has a nonlinear entry" % i)

    def rank(self, i):
        return self.module(i).rank


def bgg_R(m):
    """Linear complex of M: rank dim M_i in position i, entries from the
    multiplication maps, read off the nonzeros of the x_t actions with the
    sign (-1)^t.  d o d = 0 is asserted as the commutativity of
    those actions (see the module docstring), checked here unless m has
    passed that check already; DomainError if it fails."""
    if m.hi < m.lo:
        raise DomainError("empty window")
    if not m.checked:
        m.check_commutativity()
    alg = Algebra(m.ring.n, m.ring.p)
    modules = {}
    diffs = {}
    for i in range(m.lo, m.hi + 1):
        modules[i] = FreeEModule(alg, (i,) * m.dim(i))
    for i in range(m.lo, m.hi):
        terms = {}
        for t in range(alg.nvars):
            r, c, v = m.action_nonzeros(t, i)
            for rc, x in zip(zip(r.tolist(), c.tolist()), (alg.p - v if t % 2 else v).tolist()):
                terms.setdefault(rc, {})[1 << t] = x
        entries = {rc: ExtElement(alg, tt) for rc, tt in terms.items()}
        diffs[i] = GradedMap(modules[i], modules[i + 1], entries)
    return LinearComplex(alg, m.lo, m.hi, modules, diffs)


def bgg_L_read(cx):
    """Sliced S-module read back off a linear complex.

    The multiplication maps are the e_t coefficients of the differentials'
    entries (signs undone), as nonzeros; commutativity of the result is exactly
    the vanishing of the composition and is verified by the constructor.
    """
    ring = PolyRing(cx.alg.n, cx.alg.p)
    dims = {i: cx.rank(i) for i in range(cx.lo, cx.hi + 1)}
    actions = {}
    for i in range(cx.lo, cx.hi):
        for (r, c), e in cx.diff(i).entries.items():
            for mask, coeff in e.terms.items():
                t = mask.bit_length() - 1
                actions.setdefault((t, i), []).append((r, c, ring.p - coeff if t % 2 else coeff))
    return SlicedModule(ring, (cx.lo, cx.hi), dims,
                        {k: tuple(np.array(x, dtype=np.int64).T) for k, x in actions.items()})


def graded_map_homology(*maps):
    """Homology dimension at each junction of a chain of composable maps.

    Entry k of the returned list is the homology at the target of maps[k]
    (the source of maps[k+1]); each slice is ranked once from its
    nonzeros, though the interior maps take part in two junctions.
    """
    if len(maps) < 2:
        raise DomainError("homology needs at least two composable maps")

    @functools.cache
    def rank(k, d):
        return gfp.rank(*maps[k].slice_nonzeros(d), maps[k].alg.p)

    out = []
    for k in range(len(maps) - 1):
        mid = maps[k + 1].source
        if maps[k].target != mid:
            raise DomainError("maps do not share the middle module")
        total = 0
        lo, hi = mid.degree_range()
        for d in range(lo, hi + 1):
            dim_mid = mid.slice_dim(d)
            if dim_mid == 0:
                continue
            total += dim_mid - rank(k + 1, d) - rank(k, d)
        out.append(total)
    return out
