"""Tate resolution windows and sheaf cohomology tables.

A window [lo, hi] of a Tate resolution holds free modules T^k and minimal
differentials T^k -> T^{k+1}, exact at every interior position.  The free
module in cohomological degree k decomposes as a direct sum of E(-j) to
the power gamma_{k-j, j}, so the table of twisted cohomology dimensions is
read straight off the generator degrees.

Construction from a sliced S-module starts at k0 (its S-regularity by
default): positions >= k0 come from the BGG complex of the truncation,
positions below k0 from a minimal free resolution of the kernel of the
first differential, spliced in step by step.  Construction from a single
matrix phi of type (b, b') resolves coker(phi-dual) to the right and
ker(phi) to the left, so phi sits as the 0th differential.
"""

import json

import numpy as np

from . import gfp
from .errors import DomainError
from .extalg import from_coeff_vector
from .efree import FreeEModule, dual_module
from .eres import resolve_kernel_steps
from .bgg import FreeComplex, bgg_R, graded_map_homology
from .smod import extend_variable, reg_S, truncate


class CohomologyTable:
    """Grid gamma_{i,j} = dim H^i(E(j)) over a column window.

    Column k lists (gamma_{0,k}, gamma_{1,k-1}, ..., gamma_{n,k-n}).
    Generator degrees outside rows 0..n are kept as anomalies: they mean
    the window does not encode a sheaf and are reported, never dropped.
    """

    def __init__(self, n, col_lo, col_hi, gamma, anomalies=()):
        self.n = n
        self.col_lo = col_lo
        self.col_hi = col_hi
        self.gamma = {k: int(v) for k, v in gamma.items() if v}
        self.anomalies = tuple(sorted(anomalies))

    def get(self, i, j):
        return self.gamma.get((i, j), 0)

    def column(self, k):
        return tuple(self.get(i, k - i) for i in range(self.n + 1))

    def row(self, i):
        """Entries gamma_{i, k-i} for k across the column window."""
        return tuple(self.get(i, k - i) for k in range(self.col_lo, self.col_hi + 1))

    def max_regularity(self):
        """max{i+j : i >= 1, gamma_{i,j} != 0} + 1 on the window, else None."""
        vals = [i + j for (i, j) in self.gamma if i >= 1]
        return max(vals) + 1 if vals else None

    def key(self):
        """Canonical hashable form (used for distinct-table counting)."""
        return (self.col_lo, self.col_hi,
                tuple(sorted(self.gamma.items())), self.anomalies)

    def equal_on_window(self, other):
        """Same entries on the shared column window, all rows."""
        lo = max(self.col_lo, other.col_lo)
        hi = min(self.col_hi, other.col_hi)
        nmax = max(self.n, other.n)
        for k in range(lo, hi + 1):
            for i in range(nmax + 1):
                if self.get(i, k - i) != other.get(i, k - i):
                    return False
        return True

    def records(self):
        out = []
        for (i, j), v in sorted(self.gamma.items()):
            out.append((i, j, i + j, v))
        return out

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "window": [self.col_lo, self.col_hi],
            "entries": [[i, j, v] for (i, j), v in sorted(self.gamma.items())],
            "anomalies": [list(a) for a in self.anomalies],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        gamma = {(int(i), int(j)): int(v) for i, j, v in data["entries"]}
        anomalies = tuple(tuple(a) for a in data.get("anomalies", []))
        return cls(int(data["n"]), int(data["window"][0]), int(data["window"][1]),
                   gamma, anomalies)

    def format_text(self):
        """Columns are gamma^k, row 0 printed at the bottom."""
        cols = list(range(self.col_lo, self.col_hi + 1))
        lines = []
        header = ["i\\k"] + ["g^%d" % k for k in cols]
        grid = [header]
        for i in range(self.n, -1, -1):
            row = [str(i)]
            for k in cols:
                v = self.get(i, k - i)
                row.append(str(v) if v else ".")
            grid.append(row)
        widths = [max(len(r[c]) for r in grid) for c in range(len(header))]
        for r in grid:
            lines.append(" ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        if self.anomalies:
            lines.append("anomalous generators (row outside 0..n): " +
                         ", ".join("k=%d deg=%d x%d" % a for a in self.anomalies))
        return "\n".join(lines)


class TateWindow(FreeComplex):
    """Positions [lo, hi] with modules T^k and differentials T^k -> T^{k+1}.

    Entries outside the window are dropped; construction verifies that the
    differentials are minimal and the window is exact (DomainError if not).
    """

    def __init__(self, alg, lo, hi, modules, diffs, start_index):
        super().__init__(alg, lo, hi,
                         {k: f for k, f in modules.items() if lo <= k <= hi},
                         {k: d for k, d in diffs.items() if lo <= k < hi})
        self.start_index = start_index
        self.check_minimal()
        self.check_exact()

    def check_minimal(self):
        for k in range(self.lo, self.hi):
            if not self.diff(k).is_minimal():
                raise DomainError("Tate differential at %d has a unit entry" % k)
        return True

    def check_exact(self):
        """Zero homology at every interior position."""
        if self.hi - self.lo < 2:
            return True
        defects = graded_map_homology(*(self.diff(k) for k in range(self.lo, self.hi)))
        for k, defect in enumerate(defects, self.lo + 1):
            if defect:
                raise DomainError(
                    "Tate window not exact at position %d (defect %d)" % (k, defect))
        return True


def cohomology_table(window):
    """Read gamma off the generator degrees: T^k gets E(-j)^gamma_{k-j,j}."""
    gamma = {}
    anomalies = []
    n = window.alg.n
    for k in range(window.lo, window.hi + 1):
        for j in window.module(k).gen_degrees:
            i = k - j
            if 0 <= i <= n:
                gamma[(i, j)] = gamma.get((i, j), 0) + 1
            else:
                anomalies.append((k, j, 1))
    return CohomologyTable(n, window.lo, window.hi, gamma, anomalies)


def _resolve_left(phi, pos, lo, resolver=None):
    """(modules, diffs) at positions lo .. pos-1 left of phi : T^pos -> T^{pos+1}:
    a minimal free resolution of ker(phi), then zero modules once it ends.
    `resolver`, if given, already resolves ker(phi): its steps are read
    first and it is extended to pos - lo steps if it has fewer."""
    modules = {}
    diffs = {}
    steps = resolve_kernel_steps(phi, pos - lo, resolver) if pos > lo else []
    for g in steps:
        pos -= 1
        modules[pos] = g.source
        diffs[pos] = g
    for k in range(lo, pos):
        modules[k] = FreeEModule(phi.alg, ())
    return modules, diffs


def tate_window(m, lo, hi, start=None):
    """Tate resolution window of the sheaf associated to a sliced module.

    Positions >= k0 are the BGG complex of the truncation at k0 (which is
    reg_S(m) unless `start` overrides); positions below come from minimal
    free resolution steps of ker of the first differential.  Exactness and
    minimality over the whole window are always verified.
    """
    if lo > hi:
        raise DomainError("empty window [%d, %d]" % (lo, hi))
    k0 = reg_S(m) if start is None else int(start)
    top = max(hi, k0) + 1
    m.require(k0, top, "tate window [%d, %d] starting at %d" % (lo, hi, k0))
    cx = bgg_R(truncate(m, k0))
    modules, diffs = _resolve_left(cx.diff(k0), k0, lo)
    modules.update((k, cx.module(k)) for k in range(k0, hi + 1))
    diffs.update((k, cx.diff(k)) for k in range(k0, hi))
    return TateWindow(cx.alg, lo, hi, modules, diffs, k0)


def tate_from_point(phi, lo, hi, resolver=None):
    """Tate window in which phi is the 0th differential.

    The right part dualizes a minimal free resolution of coker(phi-dual)
    built on phi-dual itself: it is the left part of phi-dual's window,
    reflected by k -> 1 - k.  `resolver`, if given, is a Resolver whose
    steps resolve ker(phi-dual) (`Resolver.of_kernel(phi-dual)`, as a
    census point holds it); its first hi - 1 steps are
    read and it is extended if it has fewer.  The left part resolves
    ker(phi).  Raises DomainError if phi has unit entries, if phi-dual is
    not a minimal presentation of its cokernel, or if the resulting
    generator degrees fall outside cohomology rows 0..n.
    """
    if lo > 0 or hi < 1:
        raise DomainError("window [%d, %d] must contain positions 0 and 1" % (lo, hi))
    if not phi.is_minimal():
        raise DomainError("phi has a unit entry; not a Tate differential")
    alg = phi.alg
    right_modules, right_diffs = _resolve_left(phi.dual(), 0, 1 - hi, resolver)
    if -1 in right_diffs and not right_diffs[-1].is_minimal():
        raise DomainError(
            "phi-dual is not a minimal presentation of its cokernel "
            "(a relation column is a combination of the others)")
    modules = {1 - k: dual_module(f) for k, f in right_modules.items()}
    diffs = {-k: g.dual() for k, g in right_diffs.items()}
    left_modules, left_diffs = _resolve_left(phi, 0, lo)
    modules.update({**left_modules, 0: phi.source, 1: phi.target})
    diffs.update({**left_diffs, 0: phi})
    win = TateWindow(alg, lo, hi, modules, diffs, 0)
    anomalies = cohomology_table(win).anomalies
    if anomalies:
        raise DomainError(
            "window has generators outside cohomology rows 0..%d: %s "
            "(phi is not in the zero-regularity locus)"
            % (alg.n, list(anomalies)[:4]))
    return win


def pushforward_check(m, lo, hi, start=None):
    """Tables of m and of its zero-action variable extension must agree,
    and no extended differential may involve the new variable."""
    t1 = tate_window(m, lo, hi, start=start)
    m2 = extend_variable(m)
    t2 = tate_window(m2, lo, hi, start=start)
    g1 = cohomology_table(t1)
    g2 = cohomology_table(t2)
    if not g1.equal_on_window(g2):
        return False
    newbit = 1 << (m2.ring.n)
    for k in range(lo, hi):
        if t2.diff(k).variable_support() & newbit:
            return False
    return True


def descent(window, reg_upper):
    """Span of the linear forms in the first linear differential beyond
    reg_upper: returns (n0, basis) with n0 = span dimension - 1.

    The sheaf the window encodes is the pushforward of a sheaf on a
    linearly embedded projective space of dimension n0.
    """
    alg = window.alg
    cand = None
    for k in range(max(window.lo, reg_upper + 1), window.hi):
        if window.diff(k).is_linear():
            cand = k
            break
    if cand is None:
        raise DomainError("no linear differential at positions >= %d in [%d, %d]"
                          % (reg_upper + 1, window.lo, window.hi))
    d = window.diff(cand)
    rows = []
    for e in d.entries.values():
        rows.append(e.linear_coeffs())
    if not rows:
        return -1, []
    R, piv = gfp.rref(np.array(rows), alg.p)
    basis = [from_coeff_vector(alg, -1, R[t]) for t in range(len(piv))]
    return len(piv) - 1, basis
