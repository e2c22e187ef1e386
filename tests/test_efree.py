"""Free modules, graded maps, duals, cokernels, slice kernels, the .emat format."""

import numpy as np
import pytest

from exttate.errors import DomainError, ParseError
from exttate.extalg import Algebra, ExtElement, parse_element, random_element
from exttate.efree import (FreeEModule, GradedMap, format_ematrix, parse_ematrix,
                           vectorize_coker, free_as_vectorized)
from exttate.eres import _slice_kernel
from exttate import gfp

P = 32003


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


def test_rank_nullity_per_degree(small_corpus):
    alg = Algebra(2)
    f = emap(alg, (-1, -2), (0,), {(0, 0): "e0 + e2", (0, 1): "e0*e1"})
    ker = _slice_kernel(f)
    lo, hi = f.source.degree_range()
    for d in range(lo, hi + 1):
        sl = f.slice_matrix(d)
        dim_ker = ker[d].shape[1] if d in ker else 0
        assert dim_ker + gfp.rank(sl, P) == f.source.slice_dim(d)


def test_kernel_examples():
    alg = Algebra(0)
    # e0 : E -> E(-1); kernel is (e0), dims 0,1 in degrees 0,-1
    f = emap(alg, (0,), (1,), {(0, 0): "e0"})
    ker = _slice_kernel(f)
    assert 0 not in ker and ker[-1].shape[1] == 1
    # zero map: kernel equals the source
    z = emap(alg, (0,), (1,), {})
    kz = _slice_kernel(z)
    assert [kz[d].shape[1] for d in (-1, 0)] == [1, 1]
    # injective-in-every-degree map (an isomorphism) has zero kernel
    alg1 = Algebra(1)
    inj = emap(alg1, (0,), (0,), {(0, 0): "1"})
    assert _slice_kernel(inj) == {}


def test_free_as_vectorized_checks():
    alg = Algebra(2)
    f = free_as_vectorized(FreeEModule(alg, (0, -1)))
    f.check()
    assert f.total_dim() == 16  # two shifted copies of E


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
