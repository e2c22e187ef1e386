"""Sliced S-modules: ingestion, Koszul Betti numbers, regularity, operations."""

import math

import numpy as np
import pytest

from exttate.errors import DomainError, ParseError, WindowError
from exttate.smod import (PolyRing, SPresentation, SlicedModule, extend_variable,
                          format_smod, koszul_betti, parse_poly, parse_smod,
                          reg_S, shift_grading, slice_presentation, truncate)
from exttate import gfp

P = 32003


def free_sliced(n, window):
    ring = PolyRing(n, P)
    return slice_presentation(SPresentation.free_module(ring), window)


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
    free = slice_presentation(SPresentation.free_module(ring), (0, 5))
    for d in range(0, 6):
        image_rank = ring.dim(d - 2)  # one quadric: multiples are injective
        assert m.dim(d) + image_rank == free.dim(d)


def test_commutativity_validated():
    good = free_sliced(1, (0, 2))
    mult = {(i, d): good.action(i, d) for i in range(2) for d in range(0, 2)}
    SlicedModule(good.ring, (0, 2), dict(good.dims), mult)  # passes the check
    bad = dict(mult)
    corrupt = bad[(1, 1)].copy()
    corrupt[0, 0] = (corrupt[0, 0] + 1) % P
    bad[(1, 1)] = corrupt
    with pytest.raises(DomainError):
        SlicedModule(good.ring, (0, 2), dict(good.dims), bad)


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


def test_reg_S_window_errors():
    with pytest.raises(WindowError):
        reg_S(k_sliced(2, (0, 4)))


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
        assert not e.action(3, d).any()
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
