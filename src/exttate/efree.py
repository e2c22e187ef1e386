"""Graded free E-modules and homogeneous matrices between them.

A free module F = (+) E(a_i) is stored through its generator degrees
g_i = -a_i.  A GradedMap is a matrix of homogeneous exterior elements with
deg(entry[r][c]) = srcGenDeg[c] - tgtGenDeg[r]; slots whose required degree
is positive or below -(n+1) are identically zero.  Free modules are right
E-modules: a map sends gen_c to sum_r gen_r * entry[r][c], so composition
is the usual matrix product with entries multiplied on the left of module
coefficients.

Right multiplication by e_i on a free module is one table per slice d
(`FreeEModule.action_table`): a basis vector times e_i is 0 or +-1 times
one basis vector of slice d-1, so each (i, basis vector) holds an index
and a sign.  `FreeEModule.act`, all a Resolver reads of its ambient (see
`eres`), is a lookup in it.

The slice of a GradedMap in degree d is assembled as its nonzeros
(`slice_nonzeros`).  The terms of the entries are grouped once per map
by (monomial, source generator degree), and a group's part of the slice
is one broadcast of its block offsets against the nonzeros of the
monomial's multiplication (`Algebra.left_mul_nonzeros`).  The Tate
exactness check ranks these triplets (`bgg.graded_map_homology`) and the
Resolver reads the generator images of a map off them
(`eres._generator_vectors`) and `vectorize_coker` takes its quotients by
them; `slice_matrix` is their dense form, which only the tests and
`bench/tracer.py` read.

Slice-level data (cokernels) is held in VectorizedModule: graded
dimensions plus, per variable, the map from slice d to d-1 as its
nonzeros (rows, cols, vals), as `smod.SlicedModule` holds the x_i.  A
quotient slice k^amb / image is the kernel of image.T kept as the
nonzeros of its basis (`gfp.quotient`): the coordinates `free` are the
quotient basis and the kernel vectors are the rows of the projection
(`vectorize_coker`, and `smod.slice_presentation` on the S-side).  The
Resolver's kernel slices are held in the same form (see `eres`).

The `.emat` matrix format shares its parser skeleton, `parse_matrix_file`,
with the `.smod` format of the S-side.
"""

import functools

import numpy as np

from . import gfp
from .errors import DomainError, ParseError
from .extalg import Algebra, ExtElement, format_element, parse_element


class FreeEModule:

    def __init__(self, alg, gen_degrees):
        self.alg = alg
        self.gen_degrees = tuple(int(g) for g in gen_degrees)
        self._offsets = {}
        self._tables = {}

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

    def action_table(self, d):
        """Right multiplication by every e_i from slice d to slice d-1 as
        arrays (rows, signs) of shape (nvars, slice_dim(d)): basis vector c
        times e_i is signs[i, c] times basis vector rows[i, c], or 0 if that
        is -1; each generator's `Algebra.right_mul_table`, at its offsets."""
        if d not in self._tables:
            nv = self.alg.nvars
            blocks = [(np.zeros((nv, 0), np.int32), np.zeros((nv, 0), np.int8))]
            blocks += [self.alg.right_mul_table(d - g) for g in self.gen_degrees]
            rows, signs = (np.hstack(x) for x in zip(*blocks))
            shift = np.repeat(np.array(self.offsets(d - 1), dtype=np.int32),
                              [r.shape[1] for r, _ in blocks[1:]])
            self._tables[d] = np.where(rows >= 0, rows + shift, -1), signs
        return self._tables[d]

    def act(self, i, d, vec, coord, val):
        """The nonzeros (vector, row, value) in slice d-1 of the e_i images
        of the vectors of slice d with val[t] at coord[t] in vector vec[t]:
        each nonzero gives at most one, in input order."""
        rows, signs = self.action_table(d)
        r = rows[i, coord]
        keep = r >= 0
        return (vec[keep], r[keep].astype(np.intp),
                val[keep] * signs[i, coord[keep]] % self.alg.p)

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

    @functools.cached_property
    def _term_groups(self):
        """The terms of the entries grouped by (monomial mask, source
        generator degree), each group as int64 arrays (row, column, coeff)."""
        groups = {}
        for (r, c), e in self.entries.items():
            g = self.source.gen_degrees[c]
            for mask, coeff in e.terms.items():
                groups.setdefault((mask, g), []).append((r, c, coeff))
        return [(mask, g, *np.array(terms, dtype=np.int64).T)
                for (mask, g), terms in groups.items()]

    def slice_nonzeros(self, d):
        """The induced GF(p) map from source slice d to target slice d, as
        its nonzeros: int64 arrays (rows, cols, values).

        A term coeff * m of entry (r, c), with gen c of degree g, sends the
        basis of E_{d-g} in c's block as m does (`Algebra.left_mul_nonzeros`)
        into r's block, so a group of `_term_groups` is one broadcast of
        the block offsets against m's nonzeros.  No (row, column) pair
        repeats: distinct entries fill disjoint blocks, and distinct masks
        send a basis monomial to distinct monomials.
        """
        ro = np.array(self.target.offsets(d), dtype=np.int64)
        co = np.array(self.source.offsets(d), dtype=np.int64)
        p = self.alg.p
        parts = [(np.zeros(0, dtype=np.int64),) * 3]
        for mask, g, r, c, coeff in self._term_groups:
            br, bc, bv = self.alg.left_mul_nonzeros(mask, d - g)
            if br.size:
                parts.append(((ro[r, None] + br).ravel(), (co[c, None] + bc).ravel(),
                              (coeff[:, None] * bv % p).ravel()))
        return tuple(np.concatenate(x) for x in zip(*parts))

    def slice_matrix(self, d):
        """`slice_nonzeros(d)` as a dense int64 matrix."""
        rows, cols, vals = self.slice_nonzeros(d)
        out = np.zeros((self.target.slice_dim(d), self.source.slice_dim(d)), dtype=np.int64)
        out[rows, cols] = vals
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
    """A finite graded E-module: dims per degree plus the e_i actions.

    actions[(i, d)] is right multiplication by e_i from slice d to slice
    d-1 as its nonzeros (rows, cols, vals), in the form of
    `smod.SlicedModule`; a missing key is the zero map.  Degrees with dim 0
    are dropped from `dims`, and the actions into or out of them.
    """

    def __init__(self, alg, dims, actions):
        self.alg = alg
        self.dims = {d: int(v) for d, v in dims.items() if v}
        self.actions = {(i, d): a for (i, d), a in actions.items()
                        if self.dims.get(d) and self.dims.get(d - 1)}

    @property
    def is_zero(self):
        return not self.dims

    def dim(self, d):
        return self.dims.get(d, 0)

    def support(self):
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def action_nonzeros(self, i, d):
        """The nonzeros (rows, cols, vals) of e_i from slice d to slice d-1."""
        return self.actions.get((i, d), gfp.NO_ENTRIES)

    def check(self):
        """Verify e_i e_j + e_j e_i = 0 for all i <= j: the actions
        anticommute, and for odd p square to zero (`gfp.noncommuting` with
        sign -1, one product per degree)."""
        lo, hi = self.support()
        nv = self.alg.nvars
        for d in range(hi, lo, -1):
            pair = gfp.noncommuting([self.action_nonzeros(i, d) for i in range(nv)],
                                    [self.action_nonzeros(j, d - 1) for j in range(nv)],
                                    self.dim(d), self.dim(d - 2), -1, self.alg.p)
            if pair:
                raise DomainError("actions e_%d, e_%d fail to anticommute at degree %d"
                                  % (*pair, d))
        return True

    def hilbert(self):
        lo, hi = self.support()
        return [self.dim(d) for d in range(lo, hi + 1)]


def vectorize_coker(f):
    """coker(f) as a VectorizedModule, computed slice by slice.

    Slice d of the cokernel is the `gfp.quotient` of the target slice by
    the image, its nonzeros `slice_nonzeros(d)`: the non-pivot coordinates
    `free` of the transposed image's reduced form are the quotient basis,
    so generators are reproducible.  Basis vector k is the unit vector at
    free[k], which e_i sends to 0 or +-1 times one unit vector of the
    slice below (`action_table`), projected onto its quotient
    (`gfp.project`).
    """
    p = f.alg.p
    tgt = f.target
    lo, hi = tgt.degree_range()
    quot = {d: gfp.quotient(*f.slice_nonzeros(d), tgt.slice_dim(d), p)
            for d in range(lo, hi + 1) if tgt.slice_dim(d)}
    dims = {d: len(kernel[1]) for d, kernel in quot.items()}
    actions = {}
    for d in range(lo + 1, hi + 1):
        if dims.get(d) and dims.get(d - 1):
            free = quot[d][1]
            rows, signs = tgt.action_table(d)
            for i in range(f.alg.nvars):
                actions[(i, d)] = gfp.project(quot[d - 1], rows[i, free], signs[i, free], p)
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
