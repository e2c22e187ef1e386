"""Tate windows: tables, exactness, point reconstruction, descent, pushforward."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import free_presentation, module_regularity, sliced_corpus
from exttate import gfp
from exttate.cli import main
from exttate.errors import DomainError
from exttate.extalg import Algebra, parse_element
from exttate.efree import FreeEModule, GradedMap, vectorize_coker
from exttate.eres import CartanScanner, Resolver
from exttate.smod import (PolyRing, SPresentation, extend_variable, parse_poly,
                          shift_grading, slice_presentation)
from exttate.tate import (CohomologyTable, TateWindow, cohomology_table, descent,
                          pushforward_check, tate_from_point, tate_window)

P = 32003


def cubic_sliced(window=(0, 8)):
    ring = PolyRing(2, P)
    return slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0^3 + x1^3 + x2^3")]), window)


def point_sheaf_phi(n=3):
    alg = Algebra(n, P)
    return GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (1,)),
                     {(0, 0): parse_element(alg, "e0")})


def test_cubic_curve_table():
    win = tate_window(cubic_sliced(), -2, 2)
    tab = cohomology_table(win)
    assert tab.row(1) == (9, 6, 3, 1, 0)
    assert tab.row(0) == (0, 0, 1, 3, 6)
    assert tab.row(2) == (0, 0, 0, 0, 0)
    assert tab.anomalies == ()
    # ranks of the displayed complex
    assert win.module(0).twist_summands() == [(1, 3), (0, 1)]
    assert win.module(1).twist_summands() == [(0, 1), (-1, 3)]
    assert win.module(-1).twist_summands() == [(2, 6)]
    assert win.module(2).twist_summands() == [(-2, 6)]


def test_structure_sheaf_tables():
    for n in (1, 2):
        ring = PolyRing(n, P)
        S = slice_presentation(free_presentation(ring), (0, 7))
        win = tate_window(S, -n - 3, 3)
        tab = cohomology_table(win)
        for j in range(0, 4):
            assert tab.get(0, j) == math.comb(n + j, n)
        for j in range(-n - 3, -n):
            assert tab.get(n, j) == math.comb(-j - 1, n)


def test_gamma0_matches_hilbert_beyond_start():
    m = cubic_sliced()
    win = tate_window(m, -1, 3)
    tab = cohomology_table(win)
    for j in range(win.start_index, 4):
        assert tab.get(0, j) == m.dim(j)


def test_window_exactness_and_minimality():
    """TateWindow verifies its input when it is built."""
    alg = Algebra(1, P)
    f0 = FreeEModule(alg, (0,))
    f1 = FreeEModule(alg, (1,))
    f2 = FreeEModule(alg, (2,))
    zero = {0: GradedMap(f0, f1, {}), 1: GradedMap(f1, f2, {})}
    with pytest.raises(DomainError, match="not exact at position 1"):
        TateWindow(alg, 0, 2, {0: f0, 1: f1, 2: f2}, zero, 0)
    unit = {0: GradedMap(FreeEModule(alg, (1,)), f1,
                         {(0, 0): parse_element(alg, "1")})}
    with pytest.raises(DomainError, match="unit entry"):
        TateWindow(alg, 0, 1, {0: FreeEModule(alg, (1,)), 1: f1}, unit, 0)


def test_cohomology_ranks_from_nonzeros(monkeypatch, capsys):
    """A `cohomology` op ranks every slice of `check_exact` and every Koszul
    differential of `reg_S` from its nonzeros: on the four bench inputs it
    assembles no dense slice matrix and calls no `gfp.echelon`, though it
    ranks dozens of matrices per input."""
    calls = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(GradedMap, "slice_matrix"), (gfp, "echelon"), (gfp, "rank")]:
        counted(owner, name)
    for path in sorted((Path(__file__).parents[1] / "bench" / "inputs").glob("*.smod")):
        calls.clear()
        assert main(["cohomology", "--module", str(path), "--format", "json",
                     "--window", "-4..6"]) == 0
        assert calls.count("slice_matrix") == calls.count("echelon") == 0, path.name
        assert calls.count("rank") > 30, path.name
    capsys.readouterr()


def test_module_actions_need_no_dense_arithmetic(monkeypatch, capsys):
    """Module actions are held as nonzeros from end to end: with the dense
    `gfp.matmul`, `gfp.nullspace` and `gfp.zeros` made to raise, `cohomology`
    of a bench input still runs, and so do the cokernel of a point and its
    Cartan strands, whose Betti numbers are the Resolver's."""
    def refuse(*args):
        raise AssertionError("dense arithmetic")

    for name in ("matmul", "nullspace", "zeros"):
        monkeypatch.setattr(gfp, name, refuse)
    path = Path(__file__).parents[1] / "bench" / "inputs" / "twisted_cubic.smod"
    assert main(["cohomology", "--module", str(path), "--format", "json",
                 "--window", "-4..6"]) == 0
    assert CohomologyTable.from_json(capsys.readouterr().out).get(0, 1) == 4
    phi = point_sheaf_phi().dual()
    scanner = CartanScanner(vectorize_coker(phi))
    betti = Resolver.of_presentation(phi).extend(3).betti_table()
    assert [scanner.betti(i, j) for i in range(4) for j in range(-5, 3)] == \
        [betti.get(i, j) for i in range(4) for j in range(-5, 3)]


def test_lemma_reg_bounds_on_window():
    win = tate_window(cubic_sliced(), -2, 2)
    for k in range(-2, 2):
        m = vectorize_coker(win.diff(k).dual())
        reg = module_regularity(m)
        assert reg.certified and reg.value == -k, (k, reg)


def test_twist_shifts_columns():
    m = cubic_sliced()
    t1 = cohomology_table(tate_window(m, -1, 2))
    shifted = shift_grading(m, 1)
    t2 = cohomology_table(tate_window(shifted, -2, 1))
    for k in range(-1, 3):
        assert t1.column(k) == t2.column(k - 1)


def test_euler_characteristic_polynomial():
    win = tate_window(cubic_sliced(), -4, 5)
    tab = cohomology_table(win)
    n = 2
    # gamma_{i,j} is visible iff lo <= i+j <= hi, so full twists need
    # j in [lo, hi-n]; the cubic has chi(j) = 3j, degree 1 <= n
    chi = [sum((-1) ** i * tab.get(i, j) for i in range(n + 1))
           for j in range(-4, 5 - n + 1)]
    assert chi[0] == -12  # chi(O_C(-4)) = 3 * (-4)
    diffs = chi
    for _ in range(n + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs and all(v == 0 for v in diffs)


def test_zero_module_empty_table():
    ring = PolyRing(1, P)
    z = slice_presentation(
        SPresentation.quotient(ring, [parse_poly(ring, "x0"), parse_poly(ring, "x1")]),
        (1, 6))
    win = tate_window(z, 1, 3, start=1)
    tab = cohomology_table(win)
    assert tab.gamma == {}


def test_tate_from_point_point_sheaf():
    phi = point_sheaf_phi()
    win = tate_from_point(phi, -3, 4)
    tab = cohomology_table(win)
    for j in range(-3, 5):
        assert tab.get(0, j) == 1
    assert sum(tab.gamma.values()) == 8


def test_tate_from_point_rejects_unit_entries():
    alg = Algebra(2, P)
    phi = GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (0,)),
                    {(0, 0): parse_element(alg, "3")})
    with pytest.raises(DomainError):
        tate_from_point(phi, -1, 2)


def test_tate_from_point_rejects_shifted_l2_quadric():
    # E(1) -> E(-1) with a 2-term quadric: coker(phi-dual) has regularity -1,
    # so the window grows generators outside rows 0..n
    alg = Algebra(3, P)
    phi = GradedMap(FreeEModule(alg, (-1,)), FreeEModule(alg, (1,)),
                    {(0, 0): parse_element(alg, "e0*e1 + e2*e3")})
    with pytest.raises(DomainError, match="generators outside cohomology rows 0..3: "
                       r"\[\(-?\d+, -?\d+, 1\)"):
        tate_from_point(phi, -2, 4)


def test_pushforward_checks():
    assert pushforward_check(cubic_sliced(), -1, 2)
    ring = PolyRing(1, P)
    S1 = slice_presentation(free_presentation(ring), (0, 7))
    assert pushforward_check(S1, -3, 2)


def test_descent_recovers_plane_cubic_inside_p4():
    m = extend_variable(extend_variable(cubic_sliced((0, 10))))
    assert m.ring.n == 4
    win = tate_window(m, -1, 4)
    n0, basis = descent(win, 2)
    assert n0 == 2
    support = 0
    for el in basis:
        for mask in el.terms:
            support |= mask
    assert support == 0b00111  # only e0, e1, e2


def test_descent_requires_linear_differential():
    win = tate_window(cubic_sliced(), -2, 2)
    with pytest.raises(DomainError):
        descent(win, 5)  # no position >= 6 in the window


def test_table_json_round_trip():
    win = tate_window(cubic_sliced(), -2, 2)
    tab = cohomology_table(win)
    back = CohomologyTable.from_json(tab.to_json())
    assert back.gamma == tab.gamma
    assert back.key() == tab.key()
    assert back.equal_on_window(tab)
