"""Graded free E-modules and homogeneous matrices between them.

A free module F = (+) E(a_i) is stored through its generator degrees
g_i = -a_i.  A GradedMap is a matrix of homogeneous exterior elements with
deg(entry[r][c]) = srcGenDeg[c] - tgtGenDeg[r]; slots whose required degree
is positive or below -(n+1) are identically zero.  Free modules are right
E-modules: a map sends gen_c to sum_r gen_r * entry[r][c], so composition
is the usual matrix product with entries multiplied on the left of module
coefficients.

Slice-level data (cokernels) is held in VectorizedModule: graded
dimensions plus one GF(p) matrix per variable mapping slice d to d-1.
Every subspace has one form, the pair (N, free) of `gfp.nullspace`: the
columns of N are a basis and N[free] is the identity.  A kernel slice is
N itself; a quotient slice k^amb / image is the nullspace of image.T, with
projection N.T and the coordinates `free` as its basis (`vectorize_coker`,
and `smod.slice_presentation` on the S-side).

FreeEModule and VectorizedModule both expose the e_i action as
`action(i, d)` and its product with slice vectors as `apply(i, d, x)`.
The resolution engine (`eres`) acts on either one through `apply` alone;
on a free module `apply` is a signed gather, since e_i sends each basis
vector to 0 or to plus or minus one basis vector.  Gathers are cached per
module, as a resolution asks for each (i, d) up to three times.  Whole
action matrices are read by `vectorize_coker` (FreeEModule.action) and by
the Cartan oracle and `cone_extend` in `eres` (VectorizedModule.action).

The `.emat` matrix format shares its parser skeleton, `parse_matrix_file`,
with the `.smod` format of the S-side.
"""

import numpy as np

from . import gfp
from .errors import DomainError, ParseError
from .extalg import (Algebra, ExtElement, format_element, from_coeff_vector,
                     parse_element)


class FreeEModule:

    def __init__(self, alg, gen_degrees):
        self.alg = alg
        self.gen_degrees = tuple(int(g) for g in gen_degrees)
        self._offsets = {}
        self._gathers = {}

    @property
    def rank(self):
        return len(self.gen_degrees)

    def twist_summands(self):
        """The module as a sorted list of (twist a, multiplicity): E(a)^m."""
        counts = {}
        for g in self.gen_degrees:
            counts[-g] = counts.get(-g, 0) + 1
        return sorted(counts.items(), reverse=True)

    def degree_range(self):
        if not self.gen_degrees:
            return (0, -1)
        return (min(self.gen_degrees) - self.alg.nvars, max(self.gen_degrees))

    def slice_dim(self, d):
        return sum(self.alg.dim(d - g) for g in self.gen_degrees)

    def offsets(self, d):
        """Start offset of each generator's block in the slice-d basis."""
        if d not in self._offsets:
            offs = []
            pos = 0
            for g in self.gen_degrees:
                offs.append(pos)
                pos += self.alg.dim(d - g)
            self._offsets[d] = tuple(offs)
        return self._offsets[d]

    def _gather(self, i, d):
        """Right multiplication by e_i from slice d to slice d-1, as the
        target rows it reaches, the source coordinate of each and its sign.

        A basis monomial times e_i is 0 or plus or minus one basis monomial,
        so the matrix of the action has at most one nonzero per row.  It is
        built once per distinct generator degree g: the nonzeros of e_i on
        E_{d-g} are read once and placed at the block offsets of every
        generator of degree g by broadcasting.  The triplets come grouped
        by degree, not in row order; every caller indexes by row.
        """
        if (i, d) not in self._gathers:
            ro = np.array(self.offsets(d - 1), dtype=np.intp)
            co = np.array(self.offsets(d), dtype=np.intp)
            degs = np.array(self.gen_degrees, dtype=np.intp)
            parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
            for g in sorted(set(self.gen_degrees)):
                b = self.alg.right_mul_matrix(i, d - g)
                rr, cc = np.nonzero(b)
                gens = np.flatnonzero(degs == g)
                parts.append(((ro[gens, None] + rr).ravel(), (co[gens, None] + cc).ravel(),
                              np.tile(b[rr, cc], len(gens))))
            self._gathers[i, d] = tuple(np.concatenate(v) for v in zip(*parts))
        return self._gathers[i, d]

    def action(self, i, d):
        """Matrix of right multiplication by e_i from slice d to slice d-1."""
        rows, cols, signs = self._gather(i, d)
        out = gfp.zeros(self.slice_dim(d - 1), self.slice_dim(d))
        out[rows, cols] = signs
        return out

    def apply(self, i, d, x):
        """action(i, d) @ x mod p for slice-d columns x, as a signed gather."""
        rows, cols, signs = self._gather(i, d)
        out = gfp.zeros(self.slice_dim(d - 1), x.shape[1])
        out[rows] = gfp.as_gf(x[cols] * signs[:, None], self.alg.p)
        return out

    def element_from_vector(self, d, vec):
        """Slice-d coordinate vector -> list of exterior entries per generator."""
        out = []
        for r, g in enumerate(self.gen_degrees):
            off = self.offsets(d)[r]
            w = self.alg.dim(d - g)
            out.append(from_coeff_vector(self.alg, d - g, vec[off:off + w]))
        return out

    def __eq__(self, other):
        return (isinstance(other, FreeEModule) and self.alg == other.alg
                and self.gen_degrees == other.gen_degrees)

    def __repr__(self):
        if not self.gen_degrees:
            return "0"
        return " + ".join("E(%d)^%d" % (a, m) for a, m in self.twist_summands())


def dual_module(f):
    return FreeEModule(f.alg, tuple(-g for g in f.gen_degrees))


class GradedMap:
    """Homogeneous matrix between graded free E-modules."""

    def __init__(self, source, target, entries):
        if source.alg != target.alg:
            raise DomainError("source and target over different algebras")
        self.alg = source.alg
        self.source = source
        self.target = target
        clean = {}
        for (r, c), e in entries.items():
            if e.is_zero:
                continue
            need = source.gen_degrees[c] - target.gen_degrees[r]
            if e.degree != need:
                raise DomainError(
                    "entry (%d,%d) has degree %s, slot requires %d"
                    % (r, c, e.degree, need))
            if need > 0 or need < -self.alg.nvars:
                raise DomainError(
                    "nonzero entry (%d,%d) in impossible degree %d" % (r, c, need))
            clean[(r, c)] = e
        self.entries = clean

    def entry(self, r, c):
        return self.entries.get((r, c), ExtElement.zero(self.alg))

    @property
    def is_zero(self):
        return not self.entries

    def slice_matrix(self, d):
        """The induced GF(p) map from source slice d to target slice d."""
        out = gfp.zeros(self.target.slice_dim(d), self.source.slice_dim(d))
        ro = self.target.offsets(d)
        co = self.source.offsets(d)
        for (r, c), e in self.entries.items():
            gs = self.source.gen_degrees[c]
            gt = self.target.gen_degrees[r]
            sd = d - gs
            if self.alg.dim(sd) == 0 or self.alg.dim(d - gt) == 0:
                continue
            block = gfp.zeros(self.alg.dim(d - gt), self.alg.dim(sd))
            for mask, coeff in e.terms.items():
                block += self.alg.left_mul_matrix(mask, sd) * coeff
            out[ro[r]:ro[r] + block.shape[0], co[c]:co[c] + block.shape[1]] = \
                np.mod(block, self.alg.p)
        return out

    def dual(self):
        """Transpose with generator degrees negated and swapped."""
        ent = {(c, r): e for (r, c), e in self.entries.items()}
        return GradedMap(dual_module(self.target), dual_module(self.source), ent)

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise DomainError("composition shape mismatch")
        ent = {}
        for (r, m), e1 in self.entries.items():
            for (m2, c), e2 in other.entries.items():
                if m2 != m:
                    continue
                prod = e1 * e2
                if prod.is_zero:
                    continue
                key = (r, c)
                ent[key] = ent[key] + prod if key in ent else prod
        return GradedMap(other.source, self.target, ent)

    def is_minimal(self):
        """True iff every degree-0 entry is zero (no units in the matrix)."""
        return all(e.degree != 0 for e in self.entries.values())

    def is_linear(self):
        """True iff every nonzero entry has degree exactly -1."""
        return all(e.degree == -1 for e in self.entries.values())

    def variable_support(self):
        """Mask of all e_i appearing in some entry."""
        mask = 0
        for e in self.entries.values():
            for m in e.terms:
                mask |= m
        return mask

    def __repr__(self):
        return "GradedMap(%r <- %r, %d entries)" % (
            self.target, self.source, len(self.entries))


class VectorizedModule:
    """A finite graded E-module: dims per degree plus e_i-action matrices.

    actions[(i, d)] maps slice d to slice d-1 (right multiplication by e_i).
    Degrees with dim 0 are dropped from `dims`.
    """

    def __init__(self, alg, dims, actions):
        self.alg = alg
        self.dims = {d: int(v) for d, v in dims.items() if v}
        self.actions = {}
        for (i, d), mat in actions.items():
            if self.dims.get(d) and self.dims.get(d - 1):
                self.actions[(i, d)] = mat

    @property
    def is_zero(self):
        return not self.dims

    def dim(self, d):
        return self.dims.get(d, 0)

    def support(self):
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def action(self, i, d):
        key = (i, d)
        if key in self.actions:
            return self.actions[key]
        return gfp.zeros(self.dim(d - 1), self.dim(d))

    def apply(self, i, d, x):
        """action(i, d) @ x mod p for slice-d columns x."""
        return gfp.matmul(self.action(i, d), x, self.alg.p)

    def check(self):
        """Verify the action maps anticommute and square to zero."""
        p = self.alg.p
        lo, hi = self.support()
        for d in range(hi, lo, -1):
            for i in range(self.alg.nvars):
                for j in range(i, self.alg.nvars):
                    ab = gfp.matmul(self.action(i, d - 1), self.action(j, d), p)
                    ba = gfp.matmul(self.action(j, d - 1), self.action(i, d), p)
                    if not np.array_equal(np.mod(ab + ba, p), np.zeros_like(ab)):
                        raise DomainError(
                            "actions e_%d, e_%d fail to anticommute at degree %d"
                            % (i, j, d))
        return True

    def hilbert(self):
        lo, hi = self.support()
        return [self.dim(d) for d in range(lo, hi + 1)]


def vectorize_coker(f):
    """coker(f) as a VectorizedModule, computed slice by slice.

    Slice d of the cokernel is the pair (N, free) of `gfp.nullspace` of the
    transposed image: N.T projects the target slice onto the quotient, and
    the non-pivot coordinates `free` of the image's row echelon form are
    the quotient basis, so generators are reproducible.  The e_i action is
    N_{d-1}.T times the columns `free` of the target's action matrix.
    """
    p = f.alg.p
    tgt = f.target
    lo, hi = tgt.degree_range()
    quot = {}
    for d in range(lo, hi + 1):
        if tgt.slice_dim(d):
            quot[d] = gfp.nullspace(f.slice_matrix(d).T, p)
    dims = {d: len(free) for d, (_, free) in quot.items()}
    actions = {}
    for d in range(lo + 1, hi + 1):
        if not dims.get(d) or not dims.get(d - 1):
            continue
        proj = quot[d - 1][0].T
        free = quot[d][1]
        for i in range(f.alg.nvars):
            actions[(i, d)] = gfp.matmul(proj, tgt.action(i, d)[:, free], p)
    return VectorizedModule(f.alg, dims, actions)


# ---------------------------------------------------------------------------
# E-matrix text format


def format_ematrix(f):
    lines = ["ealg n=%d p=%d" % (f.alg.n, f.alg.p)]
    lines.append("rowdegs=%s coldegs=%s" % (
        list(f.target.gen_degrees), list(f.source.gen_degrees)))
    for (r, c) in sorted(f.entries):
        lines.append("entry %d %d : %s" % (r, c, format_element(f.entries[(r, c)])))
    return "\n".join(lines) + "\n"


def _parse_int_list(text, lineno):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected [..] list, got %r" % text, line=lineno)
    inner = text[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(t.strip()) for t in inner.split(",")]
    except ValueError:
        raise ParseError("bad integer list %r" % text, line=lineno)


def parse_matrix_file(text, keyword, make_ring, noun, parse_entry, build, p=None):
    """Parser skeleton shared by the .emat and .smod matrix formats.

    Lines are a header `<keyword> n=N p=P`, one `rowdegs=[..] coldegs=[..]`
    line and `entry r c : <noun>` lines; `#` starts a comment and omitted
    entries are zero.  A given `p` overrides the header prime, which may
    then be omitted.  make_ring(n, p) builds the coefficient ring (ValueError
    on a bad n or p), parse_entry(ring, text) one entry (ValueError on junk,
    None for zero), and build(ring, rowdegs, coldegs, entries) the result
    (DomainError on inconsistent degrees).  Every error is a ParseError that
    cites its line.
    """
    lines = text.splitlines()
    ring = None
    rowdegs = coldegs = None
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(keyword):
            fields = dict(tok.split("=", 1) for tok in line.split()[1:] if "=" in tok)
            try:
                n = int(fields["n"])
                fp = int(fields.get("p", p))
            except (KeyError, ValueError, TypeError):
                raise ParseError("malformed header %r" % line, line=lineno)
            try:
                ring = make_ring(n, fp if p is None else p)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno)
        elif line.startswith("rowdegs="):
            try:
                rpart, cpart = line.split("coldegs=")
            except ValueError:
                raise ParseError("expected 'rowdegs=[..] coldegs=[..]'", line=lineno)
            rowdegs = _parse_int_list(rpart.split("=", 1)[1], lineno)
            coldegs = _parse_int_list(cpart, lineno)
        elif line.startswith("entry"):
            if ring is None or rowdegs is None:
                raise ParseError("entry before header", line=lineno)
            head, _, expr = line.partition(":")
            toks = head.split()
            if len(toks) != 3:
                raise ParseError("expected 'entry r c : <%s>'" % noun, line=lineno)
            try:
                r, c = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError("bad entry indices %r" % head, line=lineno)
            if not (0 <= r < len(rowdegs) and 0 <= c < len(coldegs)):
                raise ParseError("entry (%d,%d) outside %dx%d matrix"
                                 % (r, c, len(rowdegs), len(coldegs)), line=lineno)
            try:
                val = parse_entry(ring, expr)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno)
            if val is not None:
                entries[(r, c)] = val
        else:
            raise ParseError("unrecognized line %r" % line, line=lineno)
    if ring is None or rowdegs is None or coldegs is None:
        raise ParseError("missing %s header or degree lists" % keyword, line=len(lines))
    try:
        return build(ring, rowdegs, coldegs, entries)
    except DomainError as exc:
        raise ParseError(str(exc), line=len(lines))


def _parse_nonzero_element(alg, text):
    el = parse_element(alg, text)
    return None if el.is_zero else el


def parse_ematrix(text, p=None):
    """Parse the E-matrix format (header keyword `ealg`)."""
    return parse_matrix_file(
        text, "ealg", Algebra, "element", _parse_nonzero_element,
        lambda alg, rowdegs, coldegs, entries: GradedMap(
            FreeEModule(alg, coldegs), FreeEModule(alg, rowdegs), entries),
        p=p)
