"""BGG bridge: the forward complex, the inverse reading, linearity checks."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (dense_action, dense_rank, dense_slice_matrix, free_presentation,
                      nonzeros, random_graded_map, random_sliced_module)
from exttate.cli import main
from exttate.errors import DomainError
from exttate.bgg import bgg_L_read, bgg_R, graded_map_homology
from exttate.extalg import Algebra, parse_element
from exttate.efree import FreeEModule, GradedMap
from exttate.smod import (PolyRing, SPresentation, SlicedModule, parse_poly, reg_S,
                          slice_presentation, truncate)

P = 32003


def S_sliced(n, window):
    return slice_presentation(free_presentation(PolyRing(n, P)), window)


def cubic_sliced(window=(0, 8)):
    ring = PolyRing(2, P)
    return slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0^3 + x1^3 + x2^3")]), window)


def test_single_slice_module():
    ring = PolyRing(1, P)
    k = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0"), parse_poly(ring, "x1")]),
        (0, 2))
    cx = bgg_R(k)
    assert cx.rank(0) == 1 and cx.rank(1) == 0
    assert cx.diff(0).is_zero


def test_bgg_R_on_S_n1():
    m = S_sliced(1, (0, 2))
    cx = bgg_R(m)
    assert [cx.rank(i) for i in (0, 1, 2)] == [1, 2, 3]
    for i in (0, 1):
        assert cx.diff(i).is_linear()
    assert cx.diff(1).compose(cx.diff(0)).is_zero


def test_bgg_R_rejects_noncommuting_actions():
    """d o d = 0 is asserted as commuting x_i actions, so a module built
    without the constructor's check is caught here."""
    m = S_sliced(1, (0, 2))
    corrupt = dense_action(m, 1, 1)
    corrupt[0, 0] = (corrupt[0, 0] + 1) % P
    bad = SlicedModule(m.ring, (0, 2), dict(m.dims), {**m.actions, (1, 1): nonzeros(corrupt)},
                       check=False)
    assert not bad.checked and not truncate(bad, 0).checked
    for unchecked in (bad, truncate(bad, 0)):
        with pytest.raises(DomainError):
            bgg_R(unchecked)


def test_cohomology_cycle_checks_each_module_once(monkeypatch, capsys):
    """bgg_R skips the commutativity check that its input passed: a cycle
    over the four .smod inputs checks each parsed module once."""
    calls = []
    check = SlicedModule.check_commutativity

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(SlicedModule, "check_commutativity", counted)
    inputs = sorted((Path(__file__).parents[1] / "bench" / "inputs").glob("*.smod"))
    assert len(inputs) == 4
    for path in inputs:
        assert main(["cohomology", "--module", str(path), "--format", "json",
                     "--window", "-4..6"]) == 0
    capsys.readouterr()
    assert len(calls) == 4


def test_round_trip():
    m = S_sliced(1, (0, 3))
    back = bgg_L_read(bgg_R(m))
    assert back.hilbert() == m.hilbert()
    for d in range(0, 3):
        for t in range(2):
            assert np.array_equal(dense_action(back, t, d), dense_action(m, t, d))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.sampled_from([2, 3, 101]), st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(n, p, seed):
    m = random_sliced_module(np.random.default_rng(seed), n, p)
    back = bgg_L_read(bgg_R(m))
    assert back.window() == m.window()
    assert back.hilbert() == m.hilbert()
    for d in range(m.lo, m.hi):
        for t in range(m.ring.nvars):
            assert np.array_equal(dense_action(back, t, d), dense_action(m, t, d)), (t, d)


def test_broken_complex_rejected():
    alg = Algebra(1)
    f0 = FreeEModule(alg, (0,))
    f1 = FreeEModule(alg, (1,))
    f2 = FreeEModule(alg, (2,))
    d0 = GradedMap(f0, f1, {(0, 0): parse_element(alg, "e0")})
    d1 = GradedMap(f1, f2, {(0, 0): parse_element(alg, "e0 + e1")})
    from exttate.bgg import LinearComplex
    cx = LinearComplex(alg, 0, 2, {0: f0, 1: f1, 2: f2}, {0: d0, 1: d1})
    with pytest.raises(DomainError):
        bgg_L_read(cx)


def test_is_linear():
    alg = Algebra(2)
    lin = GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (1,)),
                    {(0, 0): parse_element(alg, "e0")})
    assert lin.is_linear()
    quad = GradedMap(FreeEModule(alg, (-1,)), FreeEModule(alg, (1,)),
                     {(0, 0): parse_element(alg, "e0*e1")})
    assert not quad.is_linear()
    assert GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (1,)), {}).is_linear()


def test_exactness_defect_cubic_beyond_regularity():
    m = cubic_sliced((0, 8))
    r = reg_S(m)
    cx = bgg_R(truncate(m, r))
    maps = [cx.diff(i) for i in range(r, 6)]
    assert graded_map_homology(*maps) == [0] * (len(maps) - 1)
    with pytest.raises(DomainError):
        graded_map_homology(maps[0])


def test_exactness_defect_zero_differentials():
    ring = PolyRing(1, P)
    # dims 1,1 with zero multiplication: both positions fully defective
    m = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0"), parse_poly(ring, "x1")]),
        (0, 2))
    dims = {0: 1, 1: 1, 2: 0}
    z = SlicedModule(ring, (0, 2), dims, {})
    cx = bgg_R(z)
    assert graded_map_homology(cx.diff(0), cx.diff(1))[0] > 0


def dense_homology(maps):
    """`graded_map_homology` read off the dense slice assembly and dense
    ranks: at each junction, the middle slice dimension less the ranks of
    the two maps' slices, summed over the degrees of the middle module."""
    p = maps[0].alg.p
    out = []
    for f, g in zip(maps, maps[1:]):
        lo, hi = g.source.degree_range()
        out.append(sum(g.source.slice_dim(d) - dense_rank(dense_slice_matrix(g, d), p)
                       - dense_rank(dense_slice_matrix(f, d), p) for d in range(lo, hi + 1)))
    return out


@st.composite
def composable_chains(draw):
    """Three or four random composable maps over n <= 2 and p in {2, 3, 101}
    between free modules of mixed generator degrees; they seldom compose
    to zero, so the defects are mostly nonzero."""
    alg = Algebra(draw(st.integers(0, 2)), draw(st.sampled_from([2, 3, 101])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mods = [FreeEModule(alg, tuple(draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))))
            for _ in range(draw(st.integers(4, 5)))]
    return [random_graded_map(f, g, rng, fill=0.7) for f, g in zip(mods, mods[1:])]


@settings(max_examples=100, deadline=None)
@given(composable_chains())
def test_homology_of_random_chains_matches_dense_ranks_property(maps):
    assert graded_map_homology(*maps) == dense_homology(maps)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.sampled_from([2, 3, 101]), st.integers(0, 2 ** 32 - 1))
def test_homology_of_bgg_complexes_matches_dense_ranks_property(n, p, seed):
    """The linear complex of a random sliced module is a complex; its
    defects sit at the low positions, below the module's regularity, and
    about 60% of these modules have one."""
    cx = bgg_R(random_sliced_module(np.random.default_rng(seed), n, p))
    maps = [cx.diff(i) for i in range(cx.lo, cx.hi)]
    got = graded_map_homology(*maps)
    assert got == dense_homology(maps)
    assert all(v >= 0 for v in got)
