"""The BGG bridge between sliced S-modules and linear free E-complexes.

The forward functor sends a sliced module M to the complex with E(-i)^{dim M_i}
in position i and differential determined by the multiplication maps,
entry[r][c] = sum_t sign_t * X_t[r, c] * e_t with sign_t = (-1)^t.  The
inverse reading peels the multiplication maps back off a linear complex
with vanishing composition; it is the round-trip oracle of the tests.
"""

from . import gfp
from .errors import DomainError
from .extalg import Algebra, ExtElement
from .efree import FreeEModule, GradedMap
from .smod import PolyRing, SlicedModule


class LinearComplex:
    """Free modules E(-i)^{rank_i} for i in [lo, hi], linear differentials."""

    def __init__(self, alg, lo, hi, modules, diffs):
        self.alg = alg
        self.lo = lo
        self.hi = hi
        self.modules = dict(modules)   # position -> FreeEModule
        self.diffs = dict(diffs)       # position i -> GradedMap T^i -> T^{i+1}
        for i, f in self.modules.items():
            if any(g != i for g in f.gen_degrees):
                raise DomainError("position %d carries generators in degrees %s"
                                  % (i, sorted(set(f.gen_degrees))))
        for i, d in self.diffs.items():
            if not d.is_linear():
                raise DomainError("differential at %d has a nonlinear entry" % i)

    def rank(self, i):
        f = self.modules.get(i)
        return f.rank if f is not None else 0

    def module(self, i):
        f = self.modules.get(i)
        if f is None:
            return FreeEModule(self.alg, ())
        return f

    def diff(self, i):
        d = self.diffs.get(i)
        if d is None:
            return GradedMap(self.module(i), self.module(i + 1), {})
        return d

    def check_squares_zero(self):
        for i in range(self.lo, self.hi - 1):
            comp = self.diff(i + 1).compose(self.diff(i))
            if not comp.is_zero:
                raise DomainError("composition at position %d is nonzero" % i)
        return True


def bgg_R(m):
    """Linear complex of M: rank dim M_i in position i, entries from the
    multiplication maps; the vanishing of the composition is asserted."""
    if m.hi < m.lo:
        raise DomainError("empty window")
    alg = Algebra(m.ring.n, m.ring.p)
    modules = {}
    diffs = {}
    for i in range(m.lo, m.hi + 1):
        modules[i] = FreeEModule(alg, (i,) * m.dim(i))
    for i in range(m.lo, m.hi):
        entries = {}
        acts = [m.action(t, i) for t in range(alg.nvars)]
        for r in range(m.dim(i + 1)):
            for c in range(m.dim(i)):
                terms = {}
                for t in range(alg.nvars):
                    coeff = int(acts[t][r, c])
                    if coeff == 0:
                        continue
                    if t % 2 == 1:
                        coeff = (-coeff) % alg.p
                    terms[1 << t] = coeff
                if terms:
                    entries[(r, c)] = ExtElement(alg, terms)
        diffs[i] = GradedMap(modules[i], modules[i + 1], entries)
    cx = LinearComplex(alg, m.lo, m.hi, modules, diffs)
    cx.check_squares_zero()
    return cx


def bgg_L_read(cx):
    """Sliced S-module read back off a linear complex.

    The multiplication maps are the e_t-coefficient tensors of the
    differentials (signs undone); commutativity of the result is exactly
    the vanishing of the composition and is verified by the constructor.
    """
    cx.check_squares_zero()
    ring = PolyRing(cx.alg.n, cx.alg.p)
    dims = {i: cx.rank(i) for i in range(cx.lo, cx.hi + 1)}
    mult = {}
    for i in range(cx.lo, cx.hi):
        d = cx.diff(i)
        for t in range(cx.alg.nvars):
            mat = gfp.zeros(cx.rank(i + 1), cx.rank(i))
            for (r, c), e in d.entries.items():
                coeff = e.terms.get(1 << t, 0)
                if coeff and t % 2 == 1:
                    coeff = (-coeff) % cx.alg.p
                if coeff:
                    mat[r, c] = coeff
            mult[(t, i)] = mat
    return SlicedModule(ring, (cx.lo, cx.hi), dims, mult)


def graded_map_homology(din, dout):
    """Total homology dimension at the junction of two composable maps."""
    p = din.alg.p
    mid = dout.source
    if din.target != mid:
        raise DomainError("maps do not share the middle module")
    total = 0
    lo, hi = mid.degree_range()
    for d in range(lo, hi + 1):
        dim_mid = mid.slice_dim(d)
        if dim_mid == 0:
            continue
        r_out = gfp.rank(dout.slice_matrix(d), p)
        r_in = gfp.rank(din.slice_matrix(d), p)
        total += dim_mid - r_out - r_in
    return total
