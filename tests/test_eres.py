"""Resolutions, Betti tables, the Cartan oracle, regularity, alpha, cones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import quotient_by, residue_field, module_corpus
from exttate.bgg import graded_map_homology
from exttate.errors import DomainError
from exttate.extalg import Algebra, ExtElement, parse_element, random_element
from exttate.efree import FreeEModule, GradedMap, free_as_vectorized, vectorize_coker
from exttate.eres import (CartanScanner, alpha, alpha_hilbert_rhs, betti_cartan,
                          cone_extend, minimal_free_resolution, regularity,
                          resolve_kernel_steps)

P = 32003


def test_free_module_resolution_terminates():
    alg = Algebra(2)
    f = free_as_vectorized(FreeEModule(alg, (0,)))
    win = minimal_free_resolution(f, 5)
    assert win.terminated
    assert win.betti_table().entries == {(0, 0): 1}


def test_residue_field_betti_n1():
    alg = Algebra(1)
    k = residue_field(alg)
    win = minimal_free_resolution(k, 6)
    bt = win.betti_table()
    for i in range(7):
        assert bt.get(i, -i) == i + 1
    assert set(j for (_, j) in bt.entries) == {-i for i in range(7)}


def test_quadric_quotient_rows_l3():
    """E/(e0e1 + e2e3 + e4e5): top Betti rows descend 0, -1, then sit at -3."""
    alg = Algebra(5)
    q = parse_element(alg, "e0*e1 + e2*e3 + e4*e5")
    m = quotient_by(alg, [q])
    win = minimal_free_resolution(m, 3)
    bt = win.betti_table()
    assert bt.row_profile(0) == {0}
    assert bt.row_profile(1) == {-1}
    assert bt.row_profile(2) == {-3}
    assert bt.row_profile(3) == {-3}


def test_betti_cartan_free_module():
    alg = Algebra(2)
    f = free_as_vectorized(FreeEModule(alg, (0,)))
    assert betti_cartan(f, 0, 0) == 1
    for j in range(-4, 1):
        assert betti_cartan(f, 1, j) == 0


def test_betti_cartan_small_characteristic():
    # divided-power basis keeps the oracle exact over GF(2)
    alg = Algebra(1, 2)
    k = residue_field(alg)
    win = minimal_free_resolution(k, 5)
    bt = win.betti_table()
    for i in range(6):
        assert betti_cartan(k, i, -i) == bt.get(i, -i) == i + 1


def test_cross_oracle_on_corpus(small_corpus):
    for m in small_corpus[:12]:
        win = minimal_free_resolution(m, 4)
        bt = win.betti_table()
        sc = CartanScanner(m)
        lo, hi = m.support()
        for i in range(5):
            for j in range(lo - i, hi - i + 1):
                assert sc.betti(i, j) == bt.get(i, j), (i, j)


def test_regularity_examples():
    alg1 = Algebra(1)
    m1 = quotient_by(alg1, [parse_element(alg1, "e0*e1")])
    r = regularity(m1)
    assert (r.value, r.certified) == (-1, True)
    f = free_as_vectorized(FreeEModule(alg1, (0,)))
    r = regularity(f)
    assert (r.value, r.certified) == (0, True)
    alg3 = Algebra(3)
    m2 = quotient_by(alg3, [parse_element(alg3, "e0*e1 + e2*e3")])
    r = regularity(m2)
    assert (r.value, r.certified) == (-2, True)


def test_regularity_top_rows_non_increasing(small_corpus):
    for m in small_corpus[:10]:
        r = regularity(m, max_steps=12)
        assert all(a >= b for a, b in zip(r.top_rows, r.top_rows[1:]))


def test_regularity_zero_module_rejected():
    alg = Algebra(1)
    from exttate.efree import VectorizedModule
    with pytest.raises(DomainError):
        regularity(VectorizedModule(alg, {}, {}))


def test_regularity_rejects_stab_window_below_one():
    alg = Algebra(1)
    m = quotient_by(alg, [parse_element(alg, "e0*e1")])
    for w in (0, -1):
        with pytest.raises(DomainError):
            regularity(m, stab_window=w)
    assert regularity(m, stab_window=1).certified


def test_regularity_stop_below():
    alg1 = Algebra(1)
    m1 = quotient_by(alg1, [parse_element(alg1, "e0*e1")])
    r = regularity(m1, stop_below=0)
    assert r.truncated_below and r.value < 0


def test_generator_degree_descent(small_corpus):
    for m in small_corpus[:8]:
        win = minimal_free_resolution(m, 5)
        for a, b in zip(win.frees, win.frees[1:]):
            if a.gen_degrees and b.gen_degrees:
                assert max(b.gen_degrees) <= max(a.gen_degrees) - 1


def test_alpha_free_and_residue_field():
    alg = Algebra(1)
    f = free_as_vectorized(FreeEModule(alg, (0,)))
    reg = regularity(f)
    assert alpha(f, 0, reg=reg) == 1
    for k in range(-3, 0):
        assert alpha(f, k, reg=reg) == 0
    k_mod = residue_field(alg)
    regk = regularity(k_mod)
    for i in range(0, 4):
        assert alpha(k_mod, -i, reg=regk) == (-1) ** i * (i + 1)


def test_alpha_hilbert_identity_hand_values():
    alg = Algebra(1)
    k_mod = residue_field(alg)
    reg = regularity(k_mod)
    assert alpha_hilbert_rhs(k_mod, 0, reg=reg) == 1
    assert alpha_hilbert_rhs(k_mod, -1, reg=reg) == 0
    f = free_as_vectorized(FreeEModule(Algebra(3), (0,)))
    regf = regularity(f)
    assert alpha_hilbert_rhs(f, -1, reg=regf) == 4  # n+1


def test_alpha_requires_certified_regularity():
    alg = Algebra(3)
    m = quotient_by(alg, [parse_element(alg, "e0*e1 + e2*e3")])
    weak = regularity(m, max_steps=1)
    assert not weak.certified
    with pytest.raises(DomainError):
        alpha(m, 0, reg=weak)


def test_alpha_hilbert_identity_on_corpus():
    for m in module_corpus(8, seed=77, nmax=3):
        reg = regularity(m)
        if not reg.certified:
            continue
        sc = CartanScanner(m)
        lo, hi = m.support()
        for e in range(lo, hi + 1):
            assert alpha_hilbert_rhs(m, e, reg=reg, scanner=sc) == m.dim(e)


def test_cone_extend_doubles_and_checks():
    alg = Algebra(2)
    m = quotient_by(alg, [parse_element(alg, "e0*e1")])
    c = cone_extend(m)
    assert c.alg.n == 3
    assert c.total_dim() == 2 * m.total_dim()
    c.check()


def test_cone_extend_preserves_betti_and_alpha():
    alg = Algebra(2)
    m = quotient_by(alg, [parse_element(alg, "e0*e1 + 2*e0*e2")])
    c = cone_extend(m)
    sm, sc = CartanScanner(m), CartanScanner(c)
    lo, hi = m.support()
    for i in range(0, 5):
        for j in range(lo - i, hi - i + 1):
            assert sm.betti(i, j) == sc.betti(i, j), (i, j)
    regm, regc = regularity(m), regularity(c)
    assert regm.certified and regc.certified and regm.value == regc.value
    for k in range(lo, hi + 1):
        assert alpha(m, k, reg=regm, scanner=sm) == alpha(c, k, reg=regc, scanner=sc)


@st.composite
def small_graded_maps(draw):
    """Random homogeneous maps over n <= 2 and p in {2, 3, 101}, unit entries
    included, so both minimal and non-minimal presentations occur."""
    n = draw(st.integers(0, 2))
    p = draw(st.sampled_from([2, 3, 101]))
    alg = Algebra(n, p)
    tgt = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    src = draw(st.lists(st.integers(-alg.nvars, 1), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entries = {}
    for r, gt in enumerate(tgt):
        for c, gs in enumerate(src):
            d = gs - gt
            if -alg.nvars <= d <= 0:
                entries[(r, c)] = random_element(alg, d, rng)
    return GradedMap(FreeEModule(alg, tuple(src)), FreeEModule(alg, tuple(tgt)), entries)


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_resolver_betti_matches_cartan_property(phi):
    m = vectorize_coker(phi)
    if m.is_zero:
        return
    bt = minimal_free_resolution(m, 3).betti_table()
    sc = CartanScanner(m)
    lo, hi = m.support()
    for i in range(4):
        for j in range(lo - i, hi - i + 1):
            assert sc.betti(i, j) == bt.get(i, j), (i, j)
    assert all(0 <= i <= 3 and lo - i <= j <= hi - i for i, j in bt.entries)


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_kernel_steps_splice_exactly_property(phi):
    maps = resolve_kernel_steps(phi, 3)
    chain = [phi] + maps
    for dout, din in zip(chain, chain[1:]):
        assert din.target == dout.source
        assert graded_map_homology(din, dout) == 0
