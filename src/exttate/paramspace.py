"""Type-(b, b') matrices at finite n: sampling, membership, reconstruction.

A pair of type vectors b, b' fixes free modules F = (+) E(i)^{b_i} and
F' = (+) E(i-1)^{b'_i}; a point is a homogeneous matrix phi : F -> F' with
the degree-0 slots identically zero.  Membership in the zero-regularity
locus asks for the stable top Betti row of coker(phi-dual) to be 0; member
points reconstruct to a Tate window with phi as the 0th differential,
whose generator degrees give the cohomology table of the encoded sheaf.

Each trial resolves coker(phi-dual) once, on the point (`MatrixPoint.resolver`).
For a minimal presentation phi-dual : F'-dual -> F-dual the resolution is
F-dual <- F'-dual <- (the steps resolving ker(phi-dual)); by BGG its dual is
the right half of the Tate window, so membership, the z-histogram and the
window read the same steps.  A phi-dual that is not a minimal presentation
is pruned to one for membership and the z-histogram, and fails reconstruction.

The census harness samples many points per seed, filters by membership,
and aggregates distinct tables, observed sheaf regularity, descent
dimensions and the above-row-zero loci; every tally is deterministic in
the seed (one spawned RNG stream per trial, order-independent merges).
"""

import json

import numpy as np

from .errors import DomainError, ZeroModuleError
from .extalg import DEFAULT_PRIME, Algebra, random_element
from .efree import FreeEModule, GradedMap
from .eres import Resolver, regularity
from .tate import cohomology_table, descent, tate_from_point

# Resolution steps the membership scan may take before it gives up uncertified.
MEMBERSHIP_MAX_STEPS = 60


class TypeVectors:
    """Finitely supported nonnegative b, b' with max support index s."""

    def __init__(self, b, bprime):
        self.b = _trim(b)
        self.bprime = _trim(bprime)
        if not self.b and not self.bprime:
            raise DomainError("type vectors must not both vanish")
        if any(v < 0 for v in self.b + self.bprime):
            raise DomainError("type vectors must be nonnegative")
        self.s = max(len(self.b), len(self.bprime)) - 1

    def source_degrees(self):
        """Generator degrees of F = (+) E(i)^{b_i} (ascending i)."""
        out = []
        for i, cnt in enumerate(self.b):
            out.extend([-i] * cnt)
        return tuple(out)

    def target_degrees(self):
        """Generator degrees of F' = (+) E(i-1)^{b'_i} (ascending i)."""
        out = []
        for i, cnt in enumerate(self.bprime):
            out.extend([1 - i] * cnt)
        return tuple(out)

    def __repr__(self):
        return "Type(b=%s, b'=%s)" % (list(self.b), list(self.bprime))


def _trim(seq):
    vals = [int(v) for v in seq]
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


def degree_sequence(tvec):
    """d_m = number of degree -m slots: sum_i b_i * b'_{i+1-m}."""
    b, bp = tvec.b, tvec.bprime
    out = []
    m = 1
    while True:
        total = 0
        for i, bi in enumerate(b):
            k = i + 1 - m
            if 0 <= k < len(bp):
                total += bi * bp[k]
        if total == 0 and m > len(b) + len(bp) + 1:
            break
        out.append(total)
        m += 1
    return _trim(out)


class MatrixPoint:
    """A sampled (or constructed) matrix of type (b, b') over n+1 variables."""

    def __init__(self, tvec, phi):
        self.tvec = tvec
        self.phi = phi
        self.n = phi.alg.n
        self._resolver = None
        self._kernel_resolver = None

    def kernel_resolver(self):
        """The resolver of ker(phi-dual), `Resolver.of_kernel(phi-dual)`,
        built once per point and extended by whoever reads it."""
        if self._kernel_resolver is None:
            self._kernel_resolver = Resolver.of_kernel(self.phi.dual())
        return self._kernel_resolver

    def resolver(self):
        """`Resolver.of_presentation(phi-dual, kernel_resolver())`, built once
        per point.  For a minimal presentation its steps resolve ker(phi-dual)
        and give the right half of the Tate window; otherwise it resolves the
        pruned presentation, and the window reads the first cover of
        ker(phi-dual) that `kernel_resolver()` keeps, and fails."""
        if self._resolver is None:
            try:
                self._resolver = Resolver.of_presentation(self.phi.dual(),
                                                          self.kernel_resolver())
            except ZeroModuleError:
                raise DomainError("cokernel of phi-dual is zero; degenerate point") from None
        return self._resolver

    def __repr__(self):
        return "MatrixPoint(%r, n=%d)" % (self.tvec, self.n)


def sample(tvec, n, rng, p=None):
    """Uniform matrix of type (b, b'): every allowed slot gets an
    independent uniform element of its slot degree; impossible slots
    (degree 0, positive, or below -(n+1)) stay zero.

    A type with support index s > n is rejected: on P^n, columns 0 and 1
    of a cohomology table have rows 0..n only, so no sheaf carries it."""
    if tvec.s > n:
        raise DomainError("%r has support index s=%d > n=%d: on P^n a "
                          "cohomology table has rows 0..n only" % (tvec, tvec.s, n))
    alg = Algebra(n, p if p is not None else DEFAULT_PRIME)
    src = FreeEModule(alg, tvec.source_degrees())
    tgt = FreeEModule(alg, tvec.target_degrees())
    entries = {}
    for r, gt in enumerate(tgt.gen_degrees):
        for c, gs in enumerate(src.gen_degrees):
            d = gs - gt
            if d >= 0 or d < -alg.nvars:
                continue
            el = random_element(alg, d, rng)
            if not el.is_zero:
                entries[(r, c)] = el
    return MatrixPoint(tvec, GradedMap(src, tgt, entries))


def membership_X0(point, stab_window=None):
    """(in X0, certified): is the stable top Betti row of coker(phi-dual) 0?

    The scan runs on `point.resolver()`: for a minimal presentation its top
    rows are max deg F-dual at step 0, 1 + max deg F'-dual at step 1, and
    then the steps resolving ker(phi-dual), which stay on the point for
    the z-histogram and the Tate window.  Top rows never increase, so once
    the scan dips below zero the point is certifiably outside; a plateau
    at any value certifies after the stabilization window.
    """
    reg = regularity(point.resolver(), stab_window=stab_window,
                     max_steps=MEMBERSHIP_MAX_STEPS, stop_below=0)
    if reg.truncated_below:
        return False, True
    return (reg.value == 0), reg.certified


def reconstruct(point, lo, hi):
    """Cohomology table of the sheaf encoded by the point.

    Builds the Tate window with phi as the 0th differential and reads the
    table; raises DomainError if the window is not exact/minimal or if the
    extracted columns 0 and 1 disagree with (b, b') -- that would be an
    internal inconsistency, never returned silently.  The right half of
    the window reads the point's resolution of ker(phi-dual),
    `point.kernel_resolver()`.
    """
    win = tate_from_point(point.phi, lo, hi, point.kernel_resolver())
    table = cohomology_table(win)
    b = list(point.tvec.b)
    bp = list(point.tvec.bprime)
    got0 = [table.get(i, -i) for i in range(point.n + 1)]
    got1 = [table.get(i, 1 - i) for i in range(point.n + 1)]
    want0 = b + [0] * (point.n + 1 - len(b))
    want1 = bp + [0] * (point.n + 1 - len(bp))
    if got0 != want0 or got1 != want1:
        raise DomainError(
            "reconstructed columns gamma^0=%s gamma^1=%s do not match type %r"
            % (got0, got1, point.tvec))
    return win, table


def z_membership(point, i):
    """True iff beta_{i,j}(coker phi-dual) != 0 for some j > -i (a Betti
    entry in column i strictly above the zeroth row; rows top out at s).

    The entries are read off `point.resolver()`, extended to step i if it
    is shorter.  Top rows never increase, so no step past one whose top
    row is at most 0 has such an entry, and the resolution is not
    extended past that step.
    """
    if i < 2:
        raise DomainError("z_membership is defined for i >= 2")
    res = point.resolver()
    while len(res.frees) <= i and not res.terminated:
        k = len(res.frees) - 1
        if k >= 0 and k + max(res.frees[k].gen_degrees, default=-k) <= 0:
            break
        res.step()
    table = res.betti_table()
    return any(table.get(i, j) for j in range(-i + 1, point.tvec.s - i + 1))


def census(tvec, n, trials, window, seed, p=None, stab_window=None):
    """Sample, filter by membership, reconstruct, aggregate; deterministic.

    Returns a dict with the sampled counts, the distinct cohomology tables
    over the window, the maximal observed sheaf regularity and descent
    dimension among members, and the above-zero-row frequencies.  A member
    whose window fails `reconstruct` or `descent` is a reconstructionFailure.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    lo, hi = int(window[0]), int(window[1])
    if lo > 0 or hi < 1:
        raise DomainError("window [%d, %d] must contain positions 0 and 1" % (lo, hi))
    prime = p if p is not None else DEFAULT_PRIME
    streams = np.random.SeedSequence(seed).spawn(trials)
    members = 0
    non_members = 0
    uncertified = 0
    failures = 0
    tables = {}
    max_reg = None
    max_descent = None
    zhist = {}
    zmax = tvec.s + 2
    for t in range(trials):
        rng = np.random.default_rng(streams[t])
        x = sample(tvec, n, rng, p=prime)
        member, certified = membership_X0(x, stab_window=stab_window)
        for i in range(2, zmax + 1):
            if z_membership(x, i):
                zhist[i] = zhist.get(i, 0) + 1
        if not certified:
            uncertified += 1
            continue
        if not member:
            non_members += 1
            continue
        members += 1
        try:
            win, table = reconstruct(x, lo, hi)
            reg_obs = table.max_regularity()
            if reg_obs is None:
                reg_obs = _h0_regularity_floor(table)
            n0, _ = descent(win, max(0, reg_obs))
        except DomainError:
            failures += 1
            continue
        tables[table.key()] = table
        max_reg = reg_obs if max_reg is None else max(max_reg, reg_obs)
        max_descent = n0 if max_descent is None else max(max_descent, n0)
    report = {
        "params": {
            "b": list(tvec.b), "bprime": list(tvec.bprime), "n": n, "p": prime,
            "trials": trials, "window": [lo, hi], "seed": seed,
        },
        "members": members,
        "nonMembers": non_members,
        "uncertified": uncertified,
        "reconstructionFailures": failures,
        "distinctTables": [json.loads(tables[k].to_json())
                           for k in sorted(tables)],
        "maxRegularity": max_reg,
        "maxDescentDim": max_descent,
        "zHistogram": {str(i): zhist.get(i, 0) for i in range(2, zmax + 1)},
    }
    return report


def _h0_regularity_floor(table):
    """Windowed stand-in when no higher cohomology appears: regularity is
    at most the first column where all rows above zero vanish (here: 0)."""
    return 0
