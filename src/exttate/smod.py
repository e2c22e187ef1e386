"""Graded Sym(V)-modules as windows of degree slices.

A module over S = GF(p)[x_0..x_n] is held as dimensions M_d for d in a
finite window plus, for each variable, the multiplication matrices
M_d -> M_{d+1}.  That is all the downstream constructions need (the BGG
functor and Tate starts only look at slices above some degree), so no
Groebner machinery appears anywhere: ingestion from a polynomial
presentation is monomial-basis linear algebra degree by degree.  Monomial
multiplication is an index map (`PolyRing.mul_index`): x^a sends each
basis monomial of S_d to exactly one of S_{d+|a|}, so relation images and
the x_i actions are written and read by position, with no shift matrix.

Regularity (`reg_S`) comes from one scan of the Koszul Betti diagonals;
each module ranks every Koszul differential once, from its nonzeros: the
x_t actions' nonzeros, found once per module, placed by the wedge index
maps (`_wedge_faces`), with no dense differential built.  The monomial bases of
S and their index maps are cached per (n, p) and shared by every
PolyRing(n, p).
"""

import functools
import math
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import gfp
from .errors import DomainError, WindowError
from .extalg import _signed_chunks
from .efree import parse_matrix_file


@functools.cache
def exponent_vectors(nvars, d):
    """Exponent tuples of total degree d >= 0 in nvars variables, in a fixed
    (lex-of-multiset) order: the monomials of S_d, and the divided-power
    monomials of the Cartan complex."""
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        expo = [0] * nvars
        for t in combo:
            expo[t] += 1
        out.append(tuple(expo))
    return tuple(out)


class PolyRing:
    """S = GF(p)[x_0..x_n], deg x_i = 1.

    Rings compare and hash on (n, p), so the monomial bases are built once
    per (n, p) and shared by every PolyRing(n, p).
    """

    def __init__(self, n, p):
        if n < 0:
            raise ValueError("need n >= 0")
        gfp.check_prime(p)
        self.n = n
        self.p = p
        self.nvars = n + 1

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (self.n, self.p) == (other.n, other.p)

    def __hash__(self):
        return hash((self.n, self.p))

    def __repr__(self):
        return "Poly(n=%d, p=%d)" % (self.n, self.p)

    def dim(self, d):
        if d < 0:
            return 0
        return math.comb(self.n + d, self.n)

    def basis(self, d):
        """Exponent tuples of degree d (see `exponent_vectors`)."""
        return exponent_vectors(self.nvars, d) if d >= 0 else ()

    @functools.cache
    def index(self, d):
        return {e: i for i, e in enumerate(self.basis(d))}

    @functools.cache
    def mul_index(self, expo, d):
        """Position in basis(d + |expo|) of x^expo times each monomial of
        basis(d), as an index array (empty for d < 0)."""
        idx = self.index(d + sum(expo))
        out = np.array([idx[tuple(a + b for a, b in zip(e, expo))]
                        for e in self.basis(d)], dtype=np.intp)
        out.flags.writeable = False
        return out


def poly_degree(poly):
    degs = {sum(e) for e in poly}
    if len(degs) > 1:
        raise DomainError("non-homogeneous polynomial: degrees %s" % sorted(degs))
    return degs.pop() if degs else None


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
    verified at construction and violations raise DomainError.  `checked`
    records that the check passed; a module built with check=False is
    unchecked unless it is derived (`truncate`, `shift_grading`,
    `extend_variable`) from a checked one, whose record it carries.
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
        self.checked = False
        if check:
            self.check_commutativity()
        self._koszul_ranks = {}
        self._nonzeros = {}

    def dim(self, d):
        return self.dims.get(d, 0)

    def window(self):
        return (self.lo, self.hi)

    def action(self, i, d):
        key = (i, d)
        if key in self.mult:
            return self.mult[key]
        return gfp.zeros(self.dim(d + 1), self.dim(d))

    def action_nonzeros(self, i, d):
        """The nonzeros (rows, cols, int64 values) of action(i, d), found
        once: every Koszul differential out of slice d reads them."""
        key = (i, d)
        if key not in self._nonzeros:
            act = self.action(i, d)
            r, c = np.nonzero(act)
            self._nonzeros[key] = r, c, act[r, c].astype(np.int64)
        return self._nonzeros[key]

    def koszul_rank(self, i, d):
        """Rank of the Koszul differential out of wedge^i V (x) M_d, memoized."""
        key = (i, d)
        if key not in self._koszul_ranks:
            self._koszul_ranks[key] = gfp.rank(*_koszul_nonzeros(self, i, d), self.ring.p)
        return self._koszul_ranks[key]

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
        self.checked = True
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
    """SlicedModule of coker(pres) over the window, by monomial linear algebra.

    Slice d is the quotient of the free slice by the relations' image, held
    as the pair (N, free) of `gfp.nullspace` of the transposed image: the
    quotient basis is the coordinates `free` and N.T projects onto it.  The
    image is written through index maps: relation c times the monomials of
    S_{d - deg c} puts each term's coefficient of entry (r, c) at the rows
    of generator r's block that `mul_index` names.  Since x_i sends each
    free basis monomial to one free basis monomial, x_i acts as the columns
    of N_{d+1}.T at the images of the coordinates `free` of slice d.
    """
    ring = pres.ring
    lo, hi = int(window[0]), int(window[1])
    p = ring.p
    quot = {}
    dims = {}
    for d in range(lo, hi + 1):
        offs = np.cumsum([0] + [ring.dim(d - g) for g in pres.row_degrees])
        cstart = np.cumsum([0] + [ring.dim(d - cg) for cg in pres.col_degrees])
        image = gfp.zeros(offs[-1], cstart[-1])
        for (r, c), poly in pres.entries.items():
            k = d - pres.col_degrees[c]
            cols = cstart[c] + np.arange(ring.dim(k))
            for e, coeff in poly.items():
                image[offs[r] + ring.mul_index(e, k), cols] = coeff % p
        N, free = gfp.nullspace(image.T, p)
        quot[d] = (N.T, free, offs)
        dims[d] = len(free)
    units = [tuple(int(t == i) for t in range(ring.nvars)) for i in range(ring.nvars)]
    mult = {}
    for d in range(lo, hi):
        free0 = quot[d][1]
        proj1, _, offs1 = quot[d + 1]
        for i, unit in enumerate(units):
            rows = np.concatenate([np.zeros(0, dtype=np.intp)] + [
                offs1[r] + ring.mul_index(unit, d - g) for r, g in enumerate(pres.row_degrees)])
            mult[(i, d)] = proj1[:, rows[free0]]
    complete = (not pres.row_degrees) or lo <= min(pres.row_degrees)
    return SlicedModule(ring, (lo, hi), dims, mult, complete_below=complete)


def truncate(m, k):
    """Slices below k zeroed; multiplication maps restricted."""
    if k < m.lo or k > m.hi:
        m.require(min(k, m.lo), max(k, m.hi), "truncate at %d" % k)
    dims = {d: (m.dim(d) if d >= k else 0) for d in range(m.lo, m.hi + 1)}
    mult = {(i, d): a for (i, d), a in m.mult.items() if d >= k}
    return _derived(m, SlicedModule(m.ring, (m.lo, m.hi), dims, mult, check=False,
                                    complete_below=True))


def extend_variable(m):
    """Same slices over one more variable; x_{n+1} acts by zero."""
    ring2 = PolyRing(m.ring.n + 1, m.ring.p)
    return _derived(m, SlicedModule(ring2, (m.lo, m.hi), dict(m.dims), m.mult,
                                    check=False, complete_below=m.complete_below))


def shift_grading(m, t):
    """m(t) in the twist sense: slice d of the result is m_{d+t}."""
    dims = {d - t: m.dim(d) for d in range(m.lo, m.hi + 1)}
    mult = {(i, d - t): a for (i, d), a in m.mult.items()}
    return _derived(m, SlicedModule(m.ring, (m.lo - t, m.hi - t), dims, mult,
                                    check=False, complete_below=m.complete_below))


def _derived(m, out):
    """`out`, built from m's maps, carries m's commutativity record: zeroing
    slices, shifting degrees and a zero new variable keep actions commuting."""
    out.checked = m.checked
    return out


# ---------------------------------------------------------------------------
# Koszul Betti numbers and regularity


@functools.cache
def _wedge_faces(nv, i):
    """The faces of wedge^i V -> wedge^{i-1} V for each variable t: int64
    arrays of the i-subsets S holding t, the (i-1)-subset S minus t and
    whether t sits at an odd place of S (sign -1), as indices in
    `combinations` order."""
    tgt_pos = {s: k for k, s in enumerate(combinations(range(nv), i - 1))}
    faces = [([], [], []) for _ in range(nv)]
    for col, subset in enumerate(combinations(range(nv), i)):
        for k, t in enumerate(subset):
            cols, rows, odd = faces[t]
            cols.append(col)
            rows.append(tgt_pos[subset[:k] + subset[k + 1:]])
            odd.append(k % 2)
    return [tuple(np.array(x, dtype=np.int64) for x in face) for face in faces]


def _koszul_nonzeros(m, i, d):
    """The nonzeros (rows, cols, values) of the Koszul differential
    wedge^i V (x) M_d -> wedge^{i-1} V (x) M_{d+1}: the x_t action's
    nonzeros, signed, in the block (S minus t, S) of each face of
    `_wedge_faces`.  Blocks are disjoint, so no (row, column) repeats."""
    md, md1 = m.dim(d), m.dim(d + 1)
    p = m.ring.p
    parts = [(np.zeros(0, dtype=np.int64),) * 3]
    for t, (cols, rows, odd) in enumerate(_wedge_faces(m.ring.nvars, i)):
        r, c, v = m.action_nonzeros(t, d)
        if r.size and cols.size:
            parts.append(((rows[:, None] * md1 + r).ravel(), (cols[:, None] * md + c).ravel(),
                          np.where(odd[:, None] == 1, p - v, v).ravel()))
    return tuple(np.concatenate(x) for x in zip(*parts))


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
    d0 = m.koszul_rank(i, j - i) if i > 0 else 0
    return mid - d0 - m.koszul_rank(i + 1, j - i - 1)


def reg_S(m):
    """Castelnuovo-Mumford regularity of the sliced module.

    Returns best, the last diagonal r = j - i of the window with a nonzero
    Koszul Betti number beta_{i,j}.  It rests on that one scan: every
    diagonal from best+1 to hi-1 was scanned and is zero, and the margin
    best + nvars + 2 <= hi makes at least nvars + 1 of them.  Tate windows
    downstream re-verify exactness.  Raises WindowError when no diagonal
    is nonzero or the window lacks the margin.
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
    return best


# ---------------------------------------------------------------------------
# S-module text format


def _parse_nonzero_poly(ring, text):
    return parse_poly(ring, text) or None


def parse_smod(text, p=None):
    """Parse the S-module format (header keyword `ring`)."""
    return parse_matrix_file(text, "ring", PolyRing, "polynomial", _parse_nonzero_poly,
                             SPresentation, p=p)
