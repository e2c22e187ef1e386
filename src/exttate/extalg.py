"""The exterior algebra E on e_0..e_n over GF(p) and its elements.

Grading: deg(e_i) = -1, so the graded piece E_d is spanned by the
square-free monomials in -d of the variables.  Monomials are stored as
index bitmasks; the canonical sign comes from the sorted index order and
the canonical term order is lexicographic on the index sets.  The monomial
bases and the multiplication matrices of E are cached per (n, p): every
Algebra(n, p) shares one set of tables.
"""

import functools
import math
from itertools import combinations

import numpy as np

from . import gfp

DEFAULT_PRIME = 32003


class Algebra:
    """Exterior algebra on n+1 variables e_0..e_n over GF(p), deg e_i = -1.

    Algebras compare and hash on (n, p), so the cached monomial bases and
    multiplication matrices below are built once per (n, p) and shared by
    every Algebra(n, p).  The cached arrays are read-only.
    """

    def __init__(self, n, p=DEFAULT_PRIME):
        if n < 0:
            raise ValueError("need n >= 0")
        gfp.check_prime(p)
        self.n = n
        self.p = p
        self.nvars = n + 1

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.n == other.n and self.p == other.p

    def __hash__(self):
        return hash((self.n, self.p))

    def __repr__(self):
        return "Exterior(n=%d, p=%d)" % (self.n, self.p)

    def dim(self, d):
        """dim E_d = C(n+1, -d) for -(n+1) <= d <= 0."""
        if d > 0 or d < -self.nvars:
            return 0
        return math.comb(self.nvars, -d)

    @functools.cache
    def basis(self, d):
        """Masks of the degree-d monomials, in lex order on index sets."""
        if d > 0 or d < -self.nvars:
            return ()
        return tuple(sum(1 << i for i in combo)
                     for combo in combinations(range(self.nvars), -d))

    @functools.cache
    def index(self, d):
        return {m: i for i, m in enumerate(self.basis(d))}

    @functools.cache
    def right_mul_table(self, d):
        """Right multiplication by every e_i on E_d, as read-only arrays of
        shape (nvars, dim E_d): rows[i, c], int32, is the index in E_{d-1}
        of basis monomial c times e_i (-1 if that is 0), and signs[i, c],
        int8, its sign +-1."""
        rows = np.full((self.nvars, self.dim(d)), -1, dtype=np.int32)
        signs = np.ones_like(rows, dtype=np.int8)
        for c, m in enumerate(self.basis(d)):
            for i in range(self.nvars):
                res = mono_mul(m, 1 << i)
                if res is not None:
                    signs[i, c], rows[i, c] = res[0], self.index(d - 1)[res[1]]
        rows.flags.writeable = signs.flags.writeable = False
        return rows, signs

    @functools.cache
    def left_mul_nonzeros(self, mask, d):
        """The nonzeros of x -> m*x (m the monomial `mask`, of |m|
        variables) from E_d to E_{d-|m|}, as read-only int64 arrays (rows,
        cols, values), sorted by column: m times a basis monomial is 0 or
        plus or minus one basis monomial, distinct for distinct basis
        monomials."""
        tgt_index = self.index(d - bin(mask).count("1"))
        rows, cols, vals = [], [], []
        for c, m in enumerate(self.basis(d)):
            res = mono_mul(mask, m)
            if res is not None:
                rows.append(tgt_index[res[1]])
                cols.append(c)
                vals.append(res[0] % self.p)
        arrays = tuple(np.array(x, dtype=np.int64) for x in (rows, cols, vals))
        for a in arrays:
            a.flags.writeable = False
        return arrays


def mask_degree(mask):
    return -bin(mask).count("1")


def mask_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mono_mul(a, b):
    """Wedge product of monomial masks: None if they share an index,
    else (sign, merged_mask) with sign = (-1)^(inversions of the shuffle)."""
    if a & b:
        return None
    inv = 0
    for j in mask_indices(b):
        inv += bin(a >> (j + 1)).count("1")
    return (1 if inv % 2 == 0 else -1), a | b


class ExtElement:
    """Homogeneous element of E: a map monomial-mask -> nonzero scalar.

    The zero element has degree None; every stored coefficient lies in
    [1, p).  Addition requires matching degrees.
    """

    __slots__ = ("alg", "degree", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        clean = {}
        degs = set()
        for m, c in terms.items():
            c = int(c) % alg.p
            if c == 0:
                continue
            clean[m] = c
            degs.add(mask_degree(m))
        if len(degs) > 1:
            raise ValueError("non-homogeneous exterior element: degrees %s" % sorted(degs))
        self.terms = clean
        self.degree = degs.pop() if degs else None

    @classmethod
    def zero(cls, alg):
        return cls(alg, {})

    @classmethod
    def scalar(cls, alg, c):
        return cls(alg, {0: c})

    @classmethod
    def variable(cls, alg, i):
        if not 0 <= i <= alg.n:
            raise ValueError("no variable e_%d in %r" % (i, alg))
        return cls(alg, {1 << i: 1})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, ExtElement) and self.alg == other.alg
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alg, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("adding elements of degrees %s and %s"
                             % (self.degree, other.degree))
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = (terms.get(m, 0) + c) % self.alg.p
        return ExtElement(self.alg, terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = int(c) % self.alg.p
        return ExtElement(self.alg, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other):
        """Wedge product; bilinear extension of the monomial product."""
        if self.is_zero or other.is_zero:
            return ExtElement.zero(self.alg)
        p = self.alg.p
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                res = mono_mul(ma, mb)
                if res is None:
                    continue
                sgn, m = res
                terms[m] = (terms.get(m, 0) + sgn * ca * cb) % p
        return ExtElement(self.alg, terms)

    def linear_coeffs(self):
        """For a degree -1 element, its coefficient vector over e_0..e_n."""
        if self.degree not in (-1,):
            raise ValueError("not a linear form")
        out = np.zeros(self.alg.nvars, dtype=np.int64)
        for m, c in self.terms.items():
            out[mask_indices(m)[0]] = c
        return out

    def __repr__(self):
        return "ExtElement(%s)" % format_element(self)


def from_coeff_vector(alg, d, vec):
    basis = alg.basis(d)
    terms = {}
    for i, c in enumerate(vec):
        c = int(c) % alg.p
        if c:
            terms[basis[i]] = c
    return ExtElement(alg, terms)


def random_element(alg, degree, rng):
    """Uniform element of E_degree: each basis coefficient uniform in GF(p)."""
    if degree > 0 or degree < -alg.nvars:
        raise ValueError("degree %d outside [%d, 0]" % (degree, -alg.nvars))
    coeffs = rng.integers(0, alg.p, size=alg.dim(degree))
    return from_coeff_vector(alg, degree, coeffs)


def format_element(el):
    """Text form: terms joined by +, monomials e0*e3*e5, decimal scalars."""
    if el.is_zero:
        return "0"
    parts = []
    for m in sorted(el.terms, key=mask_indices):
        c = el.terms[m]
        if m == 0:
            parts.append(str(c))
            continue
        mono = "*".join("e%d" % i for i in mask_indices(m))
        parts.append(mono if c == 1 else "%d*%s" % (c, mono))
    return " + ".join(parts)


def _signed_chunks(text):
    """Split 'a + b - c' into [(1,'a'), (1,'b'), (-1,'c')]."""
    out = []
    sign = 1
    cur = []
    for ch in text:
        if ch in "+-":
            if "".join(cur).strip():
                out.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append((sign, tail))
    return out


def parse_element(alg, text):
    """Parse the +/- term syntax, e.g. '3*e0*e2 + e1*e3'."""
    text = text.strip()
    if text == "0" or not text:
        return ExtElement.zero(alg)
    chunks = _signed_chunks(text)
    if not chunks:
        raise ValueError("empty exterior element %r" % text)
    acc = ExtElement.zero(alg)
    for sgn, chunk in chunks:
        coeff = sgn
        mono = ExtElement.scalar(alg, 1)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor in term %r" % chunk)
            if factor[0] in "eE":
                try:
                    i = int(factor[1:])
                except ValueError:
                    raise ValueError("bad variable %r in term %r" % (factor, chunk))
                if not 0 <= i <= alg.n:
                    raise ValueError("variable %r out of range for n=%d" % (factor, alg.n))
                mono = mono * ExtElement.variable(alg, i)
            else:
                try:
                    coeff *= int(factor)
                except ValueError:
                    raise ValueError("bad factor %r in term %r" % (factor, chunk))
        term = mono.scale(coeff)
        if not acc.is_zero and not term.is_zero and acc.degree != term.degree:
            raise ValueError("mixed degrees in %r" % text)
        acc = acc + term
    return acc
