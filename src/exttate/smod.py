"""Graded Sym(V)-modules as windows of degree slices.

A module over S = GF(p)[x_0..x_n] is held as dimensions M_d for d in a
finite window plus, for each variable, the multiplication matrices
M_d -> M_{d+1}.  That is all the downstream constructions need (the BGG
functor and Tate starts only look at slices above some degree), so no
Groebner machinery appears anywhere: ingestion from a polynomial
presentation is monomial-basis linear algebra degree by degree.
"""

import math
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import gfp
from .errors import DomainError, ParseError, WindowError
from .extalg import _signed_chunks
from .efree import _quotient_slice, parse_matrix_file


class PolyRing:
    """S = GF(p)[x_0..x_n], deg x_i = 1; caches monomial bases per degree."""

    def __init__(self, n, p):
        if n < 0:
            raise ValueError("need n >= 0")
        gfp.check_prime(p)
        self.n = n
        self.p = p
        self.nvars = n + 1
        self._basis = {}
        self._index = {}

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (self.n, self.p) == (other.n, other.p)

    def __repr__(self):
        return "Poly(n=%d, p=%d)" % (self.n, self.p)

    def dim(self, d):
        if d < 0:
            return 0
        return math.comb(self.n + d, self.n)

    def basis(self, d):
        """Exponent tuples of degree d in a fixed (lex-of-multiset) order."""
        if d not in self._basis:
            if d < 0:
                self._basis[d] = ()
            else:
                out = []
                for combo in combinations_with_replacement(range(self.nvars), d):
                    expo = [0] * self.nvars
                    for t in combo:
                        expo[t] += 1
                    out.append(tuple(expo))
                self._basis[d] = tuple(out)
            self._index[d] = {e: i for i, e in enumerate(self._basis[d])}
        return self._basis[d]

    def index(self, d):
        self.basis(d)
        return self._index[d]


def poly_degree(poly):
    degs = {sum(e) for e in poly}
    if len(degs) > 1:
        raise DomainError("non-homogeneous polynomial: degrees %s" % sorted(degs))
    return degs.pop() if degs else None


def poly_mul_monomial(poly, expo, p):
    out = {}
    for e, c in poly.items():
        key = tuple(a + b for a, b in zip(e, expo))
        out[key] = (out.get(key, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def format_poly(poly):
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly):
        c = poly[e]
        factors = []
        for i, a in enumerate(e):
            if a == 1:
                factors.append("x%d" % i)
            elif a > 1:
                factors.append("x%d^%d" % (i, a))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("%d*%s" % (c, "*".join(factors)))
    return " + ".join(parts)


def parse_poly(ring, text):
    """Parse 'x0^2*x1 + 5*x2' into an exponent-dict; ValueError on junk."""
    text = text.strip()
    if text == "0" or not text:
        return {}
    out = {}
    for sgn, chunk in _signed_chunks(text):
        coeff = sgn
        expo = [0] * ring.nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor in term %r" % chunk)
            if factor[0] in "xX":
                body = factor[1:]
                if "^" in body:
                    var, _, power = body.partition("^")
                else:
                    var, power = body, "1"
                try:
                    i, a = int(var), int(power)
                except ValueError:
                    raise ValueError("bad monomial %r" % factor)
                if not 0 <= i <= ring.n:
                    raise ValueError("variable %r out of range for n=%d" % (factor, ring.n))
                if a < 0:
                    raise ValueError("negative power in %r" % factor)
                expo[i] += a
            else:
                try:
                    coeff *= int(factor)
                except ValueError:
                    raise ValueError("bad factor %r" % factor)
        key = tuple(expo)
        out[key] = (out.get(key, 0) + coeff) % ring.p
    return {e: c for e, c in out.items() if c}


class SPresentation:
    """Matrix of homogeneous polynomials presenting coker: rows are target
    generators (degrees row_degrees), columns are relations."""

    def __init__(self, ring, row_degrees, col_degrees, entries):
        self.ring = ring
        self.row_degrees = tuple(int(d) for d in row_degrees)
        self.col_degrees = tuple(int(d) for d in col_degrees)
        self.entries = {}
        for (r, c), poly in entries.items():
            if not poly:
                continue
            need = self.col_degrees[c] - self.row_degrees[r]
            got = poly_degree(poly)
            if got != need:
                raise DomainError("entry (%d,%d) has degree %s, needs %d"
                                  % (r, c, got, need))
            self.entries[(r, c)] = poly

    @classmethod
    def free_module(cls, ring, gen_degrees=(0,)):
        return cls(ring, gen_degrees, (), {})

    @classmethod
    def quotient(cls, ring, polys):
        """S/(f_1..f_k) with the f_i homogeneous."""
        degs = []
        ent = {}
        for c, f in enumerate(polys):
            d = poly_degree(f)
            if d is None:
                continue
            ent[(0, len(degs))] = f
            degs.append(d)
        return cls(ring, (0,), tuple(degs), ent)


class SlicedModule:
    """Finite window of degree slices with the multiplication maps.

    mult[(i, d)] maps M_d to M_{d+1}; commutativity of the x_i actions is
    verified at construction and violations raise DomainError.
    """

    def __init__(self, ring, window, dims, mult, check=True, complete_below=False):
        self.ring = ring
        self.lo, self.hi = int(window[0]), int(window[1])
        self.complete_below = bool(complete_below)
        if self.lo > self.hi:
            raise DomainError("empty window %r" % (window,))
        self.dims = {d: int(dims.get(d, 0)) for d in range(self.lo, self.hi + 1)}
        self.mult = {}
        for d in range(self.lo, self.hi):
            for i in range(ring.nvars):
                mat = mult.get((i, d))
                if mat is None:
                    mat = gfp.zeros(self.dims[d + 1], self.dims[d])
                if mat.shape != (self.dims[d + 1], self.dims[d]):
                    raise DomainError("mult (x_%d, %d) has shape %s, wants %s"
                                      % (i, d, mat.shape, (self.dims[d + 1], self.dims[d])))
                self.mult[(i, d)] = mat
        if check:
            self.check_commutativity()

    def dim(self, d):
        return self.dims.get(d, 0)

    def window(self):
        return (self.lo, self.hi)

    def action(self, i, d):
        key = (i, d)
        if key in self.mult:
            return self.mult[key]
        return gfp.zeros(self.dim(d + 1), self.dim(d))

    def check_commutativity(self):
        p = self.ring.p
        for d in range(self.lo, self.hi - 1):
            for i in range(self.ring.nvars):
                for j in range(i + 1, self.ring.nvars):
                    ij = gfp.matmul(self.action(j, d + 1), self.action(i, d), p)
                    ji = gfp.matmul(self.action(i, d + 1), self.action(j, d), p)
                    if not np.array_equal(ij, ji):
                        raise DomainError(
                            "x_%d and x_%d fail to commute from degree %d" % (i, j, d))
        return True

    def hilbert(self):
        return [self.dim(d) for d in range(self.lo, self.hi + 1)]

    def require(self, lo, hi, what):
        low_bad = lo < self.lo and not self.complete_below
        if low_bad or hi > self.hi:
            raise WindowError(
                "%s needs slices [%d, %d]; module window is [%d, %d]"
                % (what, lo, hi, self.lo, self.hi), required=(lo, hi))


def slice_presentation(pres, window):
    """SlicedModule of coker(pres) over the window, by monomial linear algebra."""
    ring = pres.ring
    lo, hi = int(window[0]), int(window[1])
    p = ring.p
    quot = {}
    dims = {}
    for d in range(lo, hi + 1):
        amb = sum(ring.dim(d - g) for g in pres.row_degrees)
        offs = []
        pos = 0
        for g in pres.row_degrees:
            offs.append(pos)
            pos += ring.dim(d - g)
        cols = []
        for c, cg in enumerate(pres.col_degrees):
            for mono in ring.basis(d - cg):
                col = gfp.zeros(amb, 1)
                for (r, cc), poly in pres.entries.items():
                    if cc != c:
                        continue
                    shifted = poly_mul_monomial(poly, mono, p)
                    idx = ring.index(d - pres.row_degrees[r])
                    for e2, coeff in shifted.items():
                        col[offs[r] + idx[e2], 0] = coeff
                cols.append(col)
        image = np.hstack(cols) if cols else gfp.zeros(amb, 0)
        proj, section = _quotient_slice(image, amb, p)
        quot[d] = (proj, section, offs)
        dims[d] = proj.shape[0]
    mult = {}
    for d in range(lo, hi):
        _, section0, offs0 = quot[d]
        proj1, _, offs1 = quot[d + 1]
        amb0 = section0.shape[0]
        amb1 = proj1.shape[1]
        for i in range(ring.nvars):
            shift = gfp.zeros(amb1, amb0)
            for r, g in enumerate(pres.row_degrees):
                src_basis = ring.basis(d - g)
                tgt_index = ring.index(d + 1 - g)
                for cpos, e in enumerate(src_basis):
                    e2 = list(e)
                    e2[i] += 1
                    shift[offs1[r] + tgt_index[tuple(e2)], offs0[r] + cpos] = 1.0
            mult[(i, d)] = gfp.matmul(proj1, gfp.matmul(shift, section0, p), p)
    complete = (not pres.row_degrees) or lo <= min(pres.row_degrees)
    return SlicedModule(ring, (lo, hi), dims, mult, complete_below=complete)


def truncate(m, k):
    """Slices below k zeroed; multiplication maps restricted."""
    if k < m.lo or k > m.hi:
        m.require(min(k, m.lo), max(k, m.hi), "truncate at %d" % k)
    dims = {d: (m.dim(d) if d >= k else 0) for d in range(m.lo, m.hi + 1)}
    mult = {}
    for d in range(m.lo, m.hi):
        if d < k:
            continue
        for i in range(m.ring.nvars):
            mult[(i, d)] = m.action(i, d)
    return SlicedModule(m.ring, (m.lo, m.hi), dims, mult, check=False,
                        complete_below=True)


def extend_variable(m):
    """Same slices over one more variable; x_{n+1} acts by zero."""
    ring2 = PolyRing(m.ring.n + 1, m.ring.p)
    mult = {}
    for d in range(m.lo, m.hi):
        for i in range(m.ring.nvars):
            mult[(i, d)] = m.action(i, d)
        # the new variable's maps default to zero
    return SlicedModule(ring2, (m.lo, m.hi), dict(m.dims), mult, check=False,
                        complete_below=m.complete_below)


def shift_grading(m, t):
    """m(t) in the twist sense: slice d of the result is m_{d+t}."""
    dims = {d - t: m.dim(d) for d in range(m.lo, m.hi + 1)}
    mult = {}
    for d in range(m.lo, m.hi):
        for i in range(m.ring.nvars):
            mult[(i, d - t)] = m.action(i, d)
    return SlicedModule(m.ring, (m.lo - t, m.hi - t), dims, mult, check=False,
                        complete_below=m.complete_below)


# ---------------------------------------------------------------------------
# Koszul Betti numbers and regularity


def _wedge_basis(nvars, i):
    return list(combinations(range(nvars), i))


def _koszul_differential(m, i, d):
    """wedge^i V (x) M_d -> wedge^{i-1} V (x) M_{d+1}."""
    nv = m.ring.nvars
    src = _wedge_basis(nv, i)
    tgt = _wedge_basis(nv, i - 1)
    tgt_pos = {s: k for k, s in enumerate(tgt)}
    md, md1 = m.dim(d), m.dim(d + 1)
    D = gfp.zeros(md1 * len(tgt), md * len(src))
    if md == 0 or md1 == 0:
        return D
    p = m.ring.p
    for col, subset in enumerate(src):
        for k, t in enumerate(subset):
            rest = subset[:k] + subset[k + 1:]
            row = tgt_pos[rest]
            sgn = 1 if k % 2 == 0 else p - 1
            blk = m.action(t, d)
            D[row * md1:(row + 1) * md1, col * md:(col + 1) * md] = \
                np.mod(blk * sgn, p)
    return D


def koszul_betti(m, i, j):
    """beta^S_{i,j}(m) = dim Tor_i^S(m, k)_j via the Koszul strand."""
    if i < 0:
        return 0
    nv = m.ring.nvars
    if i > nv:
        return 0
    m.require(j - i - 1, j - i + 1, "koszul_betti(%d, %d)" % (i, j))
    mid = m.dim(j - i) * math.comb(nv, i)
    if mid == 0:
        return 0
    p = m.ring.p
    d0 = gfp.rank(_koszul_differential(m, i, j - i), p) if i > 0 else 0
    d1 = gfp.rank(_koszul_differential(m, i + 1, j - i - 1), p)
    return mid - d0 - d1


def _is_linear_from(m, r):
    """True iff no Koszul Betti number of M_{>=r} is visible above the
    linear strand anywhere in the window."""
    tr = truncate(m, r)
    nv = m.ring.nvars
    for i in range(0, nv + 1):
        for j in range(r + i + 1, m.hi + i):
            if koszul_betti(tr, i, j) != 0:
                return False
    return True


def reg_S(m):
    """Castelnuovo-Mumford regularity of the sliced module.

    Finds the largest visible diagonal j - i with a nonzero Koszul Betti
    number, then checks that the truncation at that degree shows a linear
    resolution across the whole window (an n+2-slice margin is required).
    The value upper-bounds the regularity of the associated sheaf; the
    Tate constructions downstream re-verify exactness independently, so a
    window that is too narrow fails loudly rather than silently.
    Raises WindowError when the window cannot support the check.
    """
    if all(v == 0 for v in m.dims.values()):
        raise DomainError("regularity of the zero module is undefined")
    nv = m.ring.nvars
    best = None
    start = m.lo if m.complete_below else m.lo + 1
    for r in range(start, m.hi):
        for i in range(0, nv + 1):
            if koszul_betti(m, i, r + i) != 0:
                best = r
                break
    if best is None:
        raise WindowError("no Betti entries visible in window [%d, %d]"
                          % (m.lo, m.hi), required=(m.lo, m.hi + nv + 2))
    if best + nv + 2 > m.hi:
        raise WindowError(
            "certifying reg=%d needs slices up to %d; window is [%d, %d]"
            % (best, best + nv + 2, m.lo, m.hi), required=(m.lo, best + nv + 2))
    if not _is_linear_from(m, best):
        raise WindowError(
            "truncation at %d not linear; regularity exceeds the window [%d, %d]"
            % (best, m.lo, m.hi), required=(m.lo, m.hi + nv + 2))
    return best


# ---------------------------------------------------------------------------
# S-module text format


def format_smod(pres):
    lines = ["ring n=%d p=%d" % (pres.ring.n, pres.ring.p)]
    lines.append("rowdegs=%s coldegs=%s" % (
        list(pres.row_degrees), list(pres.col_degrees)))
    for (r, c) in sorted(pres.entries):
        lines.append("entry %d %d : %s" % (r, c, format_poly(pres.entries[(r, c)])))
    return "\n".join(lines) + "\n"


def _parse_nonzero_poly(ring, text):
    return parse_poly(ring, text) or None


def parse_smod(text, p=None):
    """Parse the S-module format (header keyword `ring`)."""
    return parse_matrix_file(text, "ring", PolyRing, "polynomial", _parse_nonzero_poly,
                             SPresentation, p=p)
