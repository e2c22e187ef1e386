"""Sliced S-modules: ingestion, Koszul Betti numbers, regularity, operations."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bumped, dense_action, dense_first_noncommuting, dense_koszul_differential,
                      free_presentation, nonzeros,
                      quotient_slice_oracle, random_s_presentation, random_sliced_module,
                      sliced_corpus, sorted_nonzeros)
from exttate.errors import DomainError, ParseError, WindowError
from exttate.smod import (PolyRing, SPresentation, SlicedModule, extend_variable,
                          koszul_betti, parse_poly, parse_smod, reg_S, shift_grading,
                          slice_presentation, truncate)
from exttate import gfp, smod

P = 32003


def format_poly(poly):
    """A polynomial in the term syntax parse_poly reads."""
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


def format_smod(pres):
    """The .smod text of a presentation, for round trips through parse_smod."""
    lines = ["ring n=%d p=%d" % (pres.ring.n, pres.ring.p)]
    lines.append("rowdegs=%s coldegs=%s" % (
        list(pres.row_degrees), list(pres.col_degrees)))
    for (r, c) in sorted(pres.entries):
        lines.append("entry %d %d : %s" % (r, c, format_poly(pres.entries[(r, c)])))
    return "\n".join(lines) + "\n"


def free_sliced(n, window):
    ring = PolyRing(n, P)
    return slice_presentation(free_presentation(ring), window)


def k_sliced(n, window):
    ring = PolyRing(n, P)
    gens = [parse_poly(ring, "x%d" % i) for i in range(n + 1)]
    return slice_presentation(SPresentation.quotient(ring, gens), window)


def test_hilbert_functions():
    assert free_sliced(1, (0, 3)).hilbert() == [1, 2, 3, 4]
    ring = PolyRing(2, P)
    cubic = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0^3 + x1^3 + x2^3")]), (0, 3))
    assert cubic.hilbert() == [1, 3, 6, 9]
    assert k_sliced(2, (0, 3)).hilbert() == [1, 0, 0, 0]


def test_hilbert_additivity():
    # dims of coker + rank of the relation slice = dims of the free target
    ring = PolyRing(2, P)
    pres = SPresentation.quotient(ring, [parse_poly(ring, "x0*x1 - x2^2")])
    m = slice_presentation(pres, (0, 5))
    free = slice_presentation(free_presentation(ring), (0, 5))
    for d in range(0, 6):
        image_rank = ring.dim(d - 2)  # one quadric: multiples are injective
        assert m.dim(d) + image_rank == free.dim(d)


def test_commutativity_validated():
    good = free_sliced(1, (0, 2))
    SlicedModule(good.ring, (0, 2), dict(good.dims), good.actions)  # passes the check
    corrupt = dense_action(good, 1, 1)
    corrupt[0, 0] = (corrupt[0, 0] + 1) % P
    with pytest.raises(DomainError, match="x_0 and x_1 fail to commute from degree 0"):
        SlicedModule(good.ring, (0, 2), dict(good.dims),
                     {**good.actions, (1, 1): nonzeros(corrupt)})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.sampled_from([2, 3, 101]), st.integers(0, 2 ** 32 - 1), st.data())
def test_commutation_check_matches_dense_loops_property(n, p, seed, data):
    """The batched sparse check accepts and rejects as the pairwise dense
    matmul loops do, naming the same first pair, on random modules as
    sliced and with one entry of one action changed."""
    m = random_sliced_module(np.random.default_rng(seed), n, p)
    keys = [(i, d) for d in range(m.lo, m.hi) if m.dim(d) and m.dim(d + 1)
            for i in range(m.ring.nvars)]
    actions = m.actions
    if keys and data.draw(st.booleans()):
        actions = bumped(m, data.draw(st.sampled_from(keys)), data, p)
    m = SlicedModule(m.ring, m.window(), m.dims, actions, check=False)
    want = dense_first_noncommuting(m)
    if want is None:
        assert m.check_commutativity() and m.checked
    else:
        with pytest.raises(DomainError, match="^%s$" % want):
            m.check_commutativity()


def test_koszul_betti_residue_field():
    m = k_sliced(2, (0, 5))
    for i in range(0, 4):
        assert koszul_betti(m, i, i) == math.comb(3, i)
        if i:
            assert koszul_betti(m, i, i + 1) == 0


def test_koszul_betti_free_vanishes():
    m = free_sliced(2, (0, 5))
    for i in range(1, 4):
        for j in range(i, i + 3):
            assert koszul_betti(m, i, j) == 0


def test_koszul_betti_remark_48():
    # S(n-1)/(x^n, x^{n-1} y) has beta_{1,1} = 2 and beta_{2,2} = 1
    ring = PolyRing(1, P)
    for n in (3, 5):
        pres = SPresentation(ring, (1 - n,), (1, 1), {
            (0, 0): parse_poly(ring, "x0^%d" % n),
            (0, 1): parse_poly(ring, "x0^%d*x1" % (n - 1)),
        })
        m = slice_presentation(pres, (1 - n, 6))
        assert koszul_betti(m, 1, 1) == 2
        assert koszul_betti(m, 2, 2) == 1


def test_reg_S_values():
    assert reg_S(free_sliced(1, (0, 5))) == 0
    assert reg_S(k_sliced(2, (0, 7))) == 0
    ring = PolyRing(2, P)
    cubic = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0^3 + x1^3 + x2^3")]), (0, 8))
    assert reg_S(cubic) == 2


def test_reg_S_builds_each_koszul_differential_once(monkeypatch):
    """The scan asks for the differential (i+1, r) again on the next
    diagonal; the module's rank memo answers it without a rebuild."""
    built = []
    build = smod._koszul_nonzeros

    def counting(m, i, d):
        built.append((i, d))
        return build(m, i, d)

    monkeypatch.setattr(smod, "_koszul_nonzeros", counting)
    ring = PolyRing(2, P)
    cubic = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0^3 + x1^3 + x2^3")]), (0, 8))
    assert reg_S(cubic) == 2
    assert built and len(built) == len(set(built))


corpus_at = functools.cache(sliced_corpus)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 101, 32003]), st.integers(0, len(sliced_corpus()) - 1))
def test_koszul_nonzeros_match_dense_differential_property(p, k):
    """Every Koszul differential of a corpus module, built from the nonzeros
    of the actions and the wedge faces, has the nonzeros of the dense
    block-by-block builder, field for field."""
    _, m = corpus_at(p)[k]
    for i in range(1, m.ring.nvars + 2):
        for d in range(m.lo - 1, m.hi + 1):
            want = dense_koszul_differential(m, i, d)
            r, c = np.nonzero(want)
            got = smod._koszul_nonzeros(m, i, d)
            assert all(x.dtype == np.int64 for x in got)
            rows, cols, vals = sorted_nonzeros(*got)
            assert np.array_equal(rows, r) and np.array_equal(cols, c), (i, d)
            assert np.array_equal(vals, want[r, c]), (i, d)


def test_reg_S_window_errors():
    with pytest.raises(WindowError):
        reg_S(k_sliced(2, (0, 4)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.sampled_from([2, 3, 101]), st.integers(0, 2 ** 32 - 1))
def test_truncation_keeps_betti_above_cut_property(n, p, seed):
    """On diagonals r+1 .. hi-1 the truncation at r has m's Koszul Betti
    numbers: every slice both Koszul differentials touch lies at degree >= r.
    reg_S relies on this to certify from one scan."""
    m = random_sliced_module(np.random.default_rng(seed), n, p)
    nv = m.ring.nvars
    betti = {(i, j): koszul_betti(m, i, j)
             for i in range(nv + 1) for j in range(m.lo + 1 + i, m.hi + i)}
    for r in range(m.lo, m.hi):
        tr = truncate(m, r)
        for (i, j), v in betti.items():
            if j - i >= r + 1:
                assert koszul_betti(tr, i, j) == v, (r, i, j)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(-1, 4), st.data())
def test_mul_index_property(n, d, data):
    """Entry k of mul_index(e, d) is the position of basis(d)[k] + e."""
    ring = PolyRing(n, 101)
    e = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1)))
    got = ring.mul_index(e, d)
    assert len(got) == ring.dim(d)
    up = ring.basis(d + sum(e))
    for k, mono in enumerate(ring.basis(d)):
        assert up[got[k]] == tuple(a + b for a, b in zip(mono, e))


def poly_mul_monomial(poly, expo, p):
    """poly times the monomial x^expo."""
    out = {}
    for e, c in poly.items():
        key = tuple(a + b for a, b in zip(e, expo))
        out[key] = (out.get(key, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def free_slice_offsets(pres, d):
    """Start of each generator's block in the free slice of degree d, and
    the slice's dimension."""
    ends = np.cumsum([0] + [pres.ring.dim(d - g) for g in pres.row_degrees])
    return ends[:-1], int(ends[-1])


def relation_image(pres, d):
    """The relations times every monomial, as columns in the free slice d."""
    ring = pres.ring
    offs, amb = free_slice_offsets(pres, d)
    cols = []
    for c, cg in enumerate(pres.col_degrees):
        for mono in ring.basis(d - cg):
            col = gfp.zeros(amb, 1)
            for (r, cc), poly in pres.entries.items():
                if cc == c:
                    idx = ring.index(d - pres.row_degrees[r])
                    for e, coeff in poly_mul_monomial(poly, mono, ring.p).items():
                        col[offs[r] + idx[e], 0] = coeff
            cols.append(col)
    return np.hstack(cols) if cols else gfp.zeros(amb, 0)


def shift_matrix(pres, d, i):
    """Multiplication by x_i from the free slice d to the free slice d+1."""
    ring = pres.ring
    offs0, amb0 = free_slice_offsets(pres, d)
    offs1, amb1 = free_slice_offsets(pres, d + 1)
    out = gfp.zeros(amb1, amb0)
    for r, g in enumerate(pres.row_degrees):
        idx = ring.index(d + 1 - g)
        for k, e in enumerate(ring.basis(d - g)):
            up = list(e)
            up[i] += 1
            out[offs1[r] + idx[tuple(up)], offs0[r] + k] = 1.0
    return out


def assert_slice_presentation_matches_oracle(pres, window):
    """Each x_i acts as proj_{d+1} @ shift @ section_d of the
    projection-section quotients over the window."""
    p = pres.ring.p
    lo, hi = window
    m = slice_presentation(pres, window)
    quot = {d: quotient_slice_oracle(relation_image(pres, d),
                                     free_slice_offsets(pres, d)[1], p)
            for d in range(lo, hi + 1)}
    assert m.hilbert() == [quot[d][0].shape[0] for d in range(lo, hi + 1)]
    for d in range(lo, hi):
        for i in range(pres.ring.nvars):
            want = gfp.matmul(quot[d + 1][0],
                              gfp.matmul(shift_matrix(pres, d, i), quot[d][1], p), p)
            assert np.array_equal(dense_action(m, i, d), want), (i, d)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.sampled_from([2, 3, 101]), st.integers(0, 2 ** 32 - 1))
def test_slice_presentation_matches_projection_section_rule_property(n, p, seed):
    """The oracle on random presentations, from an empty slice below the
    generators up."""
    pres = random_s_presentation(np.random.default_rng(seed), n, p)
    assert_slice_presentation_matches_oracle(pres, (-1, 5))


def _edge_presentations():
    r1, r2 = PolyRing(1, 101), PolyRing(2, 3)
    return {
        "no relations": (SPresentation(r2, (0, 1), (), {}), (-1, 4)),
        "no generators": (SPresentation(r1, (), (1,), {}), (0, 3)),
        "unit relation": (SPresentation(r2, (0, 1), (1, 2), {
            (1, 0): parse_poly(r2, "2"),
            (0, 1): parse_poly(r2, "x0*x1 + x2^2"),
            (1, 1): parse_poly(r2, "x1")}), (-1, 4)),
        "zero module": (SPresentation(r1, (0,), (0,), {(0, 0): parse_poly(r1, "1")}), (0, 3)),
        "row degrees -1, 0": (SPresentation(r2, (-1, 0), (1,), {
            (0, 0): parse_poly(r2, "x0^2"),
            (1, 0): parse_poly(r2, "x1")}), (-2, 4)),
    }


@pytest.mark.parametrize("name", sorted(_edge_presentations()))
def test_slice_presentation_matches_oracle_on_edge_cases(name):
    """Cases random_s_presentation never draws: no relations, no
    generators, unit relations and a generator below degree 0."""
    pres, window = _edge_presentations()[name]
    assert_slice_presentation_matches_oracle(pres, window)


def test_truncate_laws():
    m = free_sliced(1, (0, 4))
    assert truncate(m, 0).hilbert() == m.hilbert()
    t1 = truncate(m, 1)
    assert t1.hilbert() == [0, 2, 3, 4, 5]
    assert truncate(truncate(m, 1), 2).hilbert() == truncate(m, 2).hilbert()


def test_extend_variable():
    ring = PolyRing(2, P)
    cubic = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0^3 + x1^3 + x2^3")]), (0, 5))
    e = extend_variable(cubic)
    assert e.ring.n == 3
    assert e.hilbert() == cubic.hilbert()
    for d in range(0, 5):
        assert not e.action_nonzeros(3, d)[0].size
    e.check_commutativity()


def test_shift_grading():
    m = free_sliced(1, (0, 4))
    s = shift_grading(m, 1)
    assert s.window() == (-1, 3)
    assert s.hilbert() == m.hilbert()


def test_smod_round_trip_and_errors():
    ring = PolyRing(2, P)
    pres = SPresentation(ring, (0, 1), (2, 2), {
        (0, 0): parse_poly(ring, "x0^2 + 3*x1*x2"),
        (1, 1): parse_poly(ring, "x2"),
    })
    back = parse_smod(format_smod(pres))
    assert back.row_degrees == pres.row_degrees
    assert back.col_degrees == pres.col_degrees
    assert back.entries == pres.entries
    with pytest.raises(ParseError) as err:
        parse_smod("ring n=2 p=32003\nrowdegs=[0] coldegs=[2]\nentry 0 0 : y0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_smod("ring n=2 p=9\nrowdegs=[0] coldegs=[]\n")
    assert err.value.line == 1
    # as in .emat files, a given prime lets the header omit p=
    assert parse_smod("ring n=2\nrowdegs=[0] coldegs=[]\n", p=101).ring.p == 101
    with pytest.raises(ParseError):
        parse_smod("ring n=2\nrowdegs=[0] coldegs=[]\n")


def test_poly_parse_rejects():
    ring = PolyRing(1, P)
    for bad in ["x5", "x0^-1", "e0", "x0^"]:
        with pytest.raises(ValueError):
            parse_poly(ring, bad)
