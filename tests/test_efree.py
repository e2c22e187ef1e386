"""Free modules, graded maps, duals, cokernels, slice kernels, the .emat format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (dense_rank, dense_slice_matrix, free_as_vectorized, mixed_graded_maps,
                      quotient_slice_oracle, right_mul_matrix, small_graded_maps,
                      sorted_nonzeros, table_matrix)
from exttate.errors import DomainError, ParseError
from exttate.extalg import Algebra, ExtElement, parse_element, random_element
from exttate.efree import (FreeEModule, GradedMap, format_ematrix, parse_ematrix,
                           vectorize_coker)
from exttate.eres import _cover_kernel, _generator_vectors
from exttate import gfp

P = 32003


def slice_kernel(f):
    """ker(f) by degree, through the Resolver's seed path."""
    return _cover_kernel(f.target, f.source, _generator_vectors(f))


def emap(alg, src_degs, tgt_degs, ents):
    entries = {k: parse_element(alg, v) for k, v in ents.items()}
    return GradedMap(FreeEModule(alg, src_degs), FreeEModule(alg, tgt_degs), entries)


def test_homogeneity_enforced():
    alg = Algebra(2)
    with pytest.raises(DomainError):
        emap(alg, (0,), (1,), {(0, 0): "e0*e1"})  # slot wants degree -1
    with pytest.raises(DomainError):
        emap(alg, (-1,), (0,), {(0, 0): "e0*e1"})
    with pytest.raises(DomainError):
        emap(alg, (0,), (-1,), {(0, 0): "e0"})  # required degree +1: impossible


def test_degree_zero_entries_allowed_but_nonminimal():
    alg = Algebra(2)
    f = emap(alg, (0,), (0,), {(0, 0): "5"})
    assert not f.is_minimal()
    assert emap(alg, (0,), (0,), {}).is_minimal()


def test_dual_involution_and_one_by_one():
    alg = Algebra(2)
    f = emap(alg, (0,), (1,), {(0, 0): "e0"})
    fd = f.dual()
    assert fd.source.gen_degrees == (-1,)
    assert fd.target.gen_degrees == (0,)
    assert fd.entry(0, 0) == parse_element(alg, "e0")
    fdd = fd.dual()
    assert fdd.source.gen_degrees == f.source.gen_degrees
    assert fdd.entries == f.entries
    z = emap(alg, (0, -1), (1,), {})
    assert z.dual().is_zero


def test_dual_of_composition_up_to_sign():
    alg = Algebra(3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = emap(alg, (-1,), (0,), {(0, 0): "e0 + 2*e1"})
        g = emap(alg, (-3,), (-1,), {(0, 0): "e1*e2 + 5*e0*e3"})
        comp = f.compose(g)
        dcomp = comp.dual()
        rev = g.dual().compose(f.dual())
        # entries agree up to the graded commutation sign
        for (r, c), e in dcomp.entries.items():
            other = rev.entry(r, c)
            assert e == other or e == other.scale(-1)


def test_example_31_shape_dual():
    # 4x4 block matrix of type b=(1,3), b'=(3,1); transpose carries the
    # same exterior entries with negated, swapped generator degrees
    alg = Algebra(4)
    rng = np.random.default_rng(0)
    src = FreeEModule(alg, (0, -1, -1, -1))
    tgt = FreeEModule(alg, (1, 1, 1, 0))
    entries = {}
    for r, gt in enumerate(tgt.gen_degrees):
        for c, gs in enumerate(src.gen_degrees):
            d = gs - gt
            if d >= 0 or d < -alg.nvars:
                continue
            entries[(r, c)] = random_element(alg, d, rng)
    phi = GradedMap(src, tgt, entries)
    assert phi.is_minimal()
    phid = phi.dual()
    assert phid.source.gen_degrees == (-1, -1, -1, 0)
    assert phid.target.gen_degrees == (0, 1, 1, 1)
    for (r, c), e in phi.entries.items():
        assert phid.entry(c, r) == e


def test_is_minimal_flags_units():
    alg = Algebra(1)
    f = emap(alg, (0,), (0,), {(0, 0): "7"})
    assert not f.is_minimal()
    g = emap(alg, (-1,), (0,), {(0, 0): "e1"})
    assert g.is_minimal()


def test_vectorize_coker_of_zero_map():
    alg = Algebra(2)
    f = emap(alg, (-1,), (0,), {})
    m = vectorize_coker(f)
    assert m.hilbert() == [1, 3, 3, 1]  # degrees -3..0 of E


def test_vectorize_coker_quadric_n1():
    alg = Algebra(1)
    f = emap(alg, (-2,), (0,), {(0, 0): "e0*e1"})
    m = vectorize_coker(f)
    assert m.dim(0) == 1 and m.dim(-1) == 2 and m.dim(-2) == 0
    m.check()


def test_vectorize_coker_surjective_slice():
    alg = Algebra(1)
    # map E(1)^2 -> E hitting everything in degrees <= -1; coker = k
    f = emap(alg, (-1, -1), (0,), {(0, 0): "e0", (0, 1): "e1"})
    m = vectorize_coker(f)
    assert m.hilbert() == [1]


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_vectorize_coker_matches_projection_section_rule_property(f):
    """coker(f) has the dims of the projection-section quotients and e_i acts
    as proj_{d-1} @ action(i, d) @ section_d."""
    p = f.alg.p
    tgt = f.target
    lo, hi = tgt.degree_range()
    quot = {d: quotient_slice_oracle(f.slice_matrix(d), tgt.slice_dim(d), p)
            for d in range(lo, hi + 1) if tgt.slice_dim(d)}
    m = vectorize_coker(f)
    assert m.dims == {d: proj.shape[0] for d, (proj, _) in quot.items() if proj.shape[0]}
    for d in range(lo + 1, hi + 1):
        if not (m.dim(d) and m.dim(d - 1)):
            continue
        for i in range(f.alg.nvars):
            want = gfp.matmul(quot[d - 1][0], gfp.matmul(tgt.action(i, d), quot[d][1], p), p)
            assert np.array_equal(m.action(i, d), want), (i, d)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graded_maps(), mixed_graded_maps()))
def test_slice_nonzeros_match_dense_assembly_property(f):
    """Every slice's nonzeros are those of the block-by-block dense assembly,
    field for field: no (row, column) repeats, no zero value, int64 values
    reduced mod p; `slice_matrix` is their dense form."""
    lo = min(f.source.degree_range()[0], f.target.degree_range()[0])
    hi = max(f.source.degree_range()[1], f.target.degree_range()[1])
    for d in range(lo - 1, hi + 2):
        want = dense_slice_matrix(f, d)
        r, c = np.nonzero(want)
        got = f.slice_nonzeros(d)
        assert all(x.dtype == np.int64 for x in got)
        rows, cols, vals = sorted_nonzeros(*got)
        assert np.array_equal(rows, r) and np.array_equal(cols, c), d
        assert np.array_equal(vals, want[r, c]), d
        assert np.array_equal(f.slice_matrix(d), want), d


def test_rank_nullity_per_degree(small_corpus):
    alg = Algebra(2)
    f = emap(alg, (-1, -2), (0,), {(0, 0): "e0 + e2", (0, 1): "e0*e1"})
    ker = slice_kernel(f)
    lo, hi = f.source.degree_range()
    for d in range(lo, hi + 1):
        sl = f.slice_matrix(d)
        dim_ker = len(ker[d][1]) if d in ker else 0
        assert dim_ker + dense_rank(sl, P) == f.source.slice_dim(d)


def test_kernel_examples():
    alg = Algebra(0)
    # e0 : E -> E(-1); kernel is (e0), dims 0,1 in degrees 0,-1
    f = emap(alg, (0,), (1,), {(0, 0): "e0"})
    ker = slice_kernel(f)
    assert 0 not in ker and len(ker[-1][1]) == 1
    # zero map: kernel equals the source
    z = emap(alg, (0,), (1,), {})
    kz = slice_kernel(z)
    assert [len(kz[d][1]) for d in (-1, 0)] == [1, 1]
    # injective-in-every-degree map (an isomorphism) has zero kernel
    alg1 = Algebra(1)
    inj = emap(alg1, (0,), (0,), {(0, 0): "1"})
    assert slice_kernel(inj) == {}


def block_right_mul_matrix(f, i, d):
    """Right multiplication by e_i from slice d to slice d-1 of the free
    module f, as the block-diagonal matrix of `right_mul_matrix` over its
    generators."""
    want = gfp.zeros(f.slice_dim(d - 1), f.slice_dim(d))
    r0 = c0 = 0
    for g in f.gen_degrees:
        b = right_mul_matrix(f.alg, i, d - g)
        want[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    return want


def test_free_as_vectorized_checks():
    alg = Algebra(2)
    f = free_as_vectorized(FreeEModule(alg, (0, -1)))
    f.check()
    assert sum(f.hilbert()) == 16  # two shifted copies of E
    # with mixed generator degrees, action(i, d) is the block-diagonal right
    # multiplication by e_i, on the free module and on its vectorized form,
    # and row i of action_table(d) holds its one nonzero per nonzero column
    alg = Algebra(2, 3)
    f = FreeEModule(alg, (0, -1, 1, 0))
    lo, hi = f.degree_range()
    for d in range(lo, hi + 2):
        rows, signs = f.action_table(d)
        for i in range(alg.nvars):
            want = block_right_mul_matrix(f, i, d)
            assert np.array_equal(f.action(i, d), want)
            assert np.array_equal(free_as_vectorized(f).action(i, d), want), (i, d)
            cols = np.flatnonzero(rows[i] >= 0)
            assert len(cols) == np.count_nonzero(want)
            assert np.array_equal(want[rows[i, cols], cols] % alg.p, signs[i, cols] % alg.p)
    free_as_vectorized(f).check()


@st.composite
def free_modules(draw):
    """A free module with mixed generator degrees (maybe none) over
    GF(p), p in {2, 3, 101}."""
    alg = Algebra(draw(st.integers(0, 3)), draw(st.sampled_from([2, 3, 101])))
    return FreeEModule(alg, draw(st.lists(st.integers(-2, 2), max_size=4)))


@settings(max_examples=100, deadline=None)
@given(free_modules(), st.data())
def test_action_table_matches_right_mul_matrix_property(f, data):
    """action_table(d) is the block-diagonal right multiplication by each
    e_i, in every degree, empty slices and those outside the support
    included; the table's signs are reduced mod p after the multiply, as
    -1 is 1 at p = 2."""
    alg = f.alg
    lo, hi = f.degree_range() if f.rank else (0, 0)
    d = data.draw(st.integers(lo - 2, hi + 2))
    rows, signs = f.action_table(d)
    assert rows.shape == signs.shape == (alg.nvars, f.slice_dim(d))
    assert rows.dtype == np.int32 and signs.dtype == np.int8
    assert np.all((rows >= -1) & (rows < max(f.slice_dim(d - 1), 1)))
    assert np.all(np.abs(signs[rows >= 0]) == 1)
    for i in range(alg.nvars):
        got = np.mod(table_matrix(rows, signs, i, f.slice_dim(d - 1)), alg.p)
        assert np.array_equal(got, block_right_mul_matrix(f, i, d)), (i, d)


@settings(max_examples=100, deadline=None)
@given(free_modules(), st.data())
def test_free_act_matches_sorted_join_property(f, data):
    """A free module's `act`, a lookup in its table, gives the triplets of
    the sorted-join `act` of free_as_vectorized(f), field for field and in
    the same order, on random vectors of every slice."""
    alg = f.alg
    lo, hi = f.degree_range() if f.rank else (0, 0)
    d = data.draw(st.integers(lo - 1, hi + 1))
    size = f.slice_dim(d)
    t = data.draw(st.integers(0, 12)) if size else 0
    vec = np.array(data.draw(st.lists(st.integers(0, 3), min_size=t, max_size=t)), dtype=np.int64)
    coord = np.array(data.draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=t,
                                        max_size=t)), dtype=np.int64)
    val = np.array(data.draw(st.lists(st.integers(1, alg.p - 1), min_size=t, max_size=t)),
                   dtype=np.int64)
    for i in range(alg.nvars):
        got = f.act(i, d, vec, coord, val)
        want = free_as_vectorized(f).act(i, d, vec, coord, val)
        assert all(np.array_equal(x, y) for x, y in zip(got, want)), (i, d)


def test_ematrix_round_trip():
    alg = Algebra(3)
    phi = emap(alg, (0, -1), (1, 1), {(0, 0): "e0 + 3*e2", (1, 1): "e1*e3"})
    text = format_ematrix(phi)
    back = parse_ematrix(text)
    assert back.source.gen_degrees == phi.source.gen_degrees
    assert back.target.gen_degrees == phi.target.gen_degrees
    assert back.entries == phi.entries


def test_ematrix_parse_errors_cite_line():
    with pytest.raises(ParseError) as err:
        parse_ematrix("ealg n=2 p=32003\nrowdegs=[0] coldegs=[-1]\nentry 5 0 : e0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_ematrix("garbage\n")
