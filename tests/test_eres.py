"""Resolutions, Betti tables, the Cartan oracle, regularity, alpha, cones."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (dense_extend_column_basis, dense_generators, dense_kernel, free_as_vectorized,
                      module_corpus, module_regularity, module_resolution, module_resolver,
                      quotient_by, residue_field, small_graded_maps)
from exttate.bgg import graded_map_homology
from exttate.errors import DomainError, ZeroModuleError
from exttate.extalg import Algebra, ExtElement, parse_element
from exttate.efree import FreeEModule, GradedMap, vectorize_coker
from exttate import eres, gfp
from exttate.eres import (CartanScanner, Resolver, alpha, alpha_hilbert_rhs, cone_extend,
                          minimal_free_resolution, resolve_kernel_steps)

P = 32003


def test_free_module_resolution_terminates():
    alg = Algebra(2)
    f = free_as_vectorized(FreeEModule(alg, (0,)))
    win = module_resolution(f, 5)
    assert win.terminated
    assert win.betti_table().entries == {(0, 0): 1}


def test_residue_field_betti_n1():
    alg = Algebra(1)
    k = residue_field(alg)
    win = module_resolution(k, 6)
    bt = win.betti_table()
    for i in range(7):
        assert bt.get(i, -i) == i + 1
    assert set(j for (_, j) in bt.entries) == {-i for i in range(7)}


def test_quadric_quotient_rows_l3():
    """E/(e0e1 + e2e3 + e4e5): top Betti rows descend 0, -1, then sit at -3."""
    alg = Algebra(5)
    q = parse_element(alg, "e0*e1 + e2*e3 + e4*e5")
    m = quotient_by(alg, [q])
    win = module_resolution(m, 3)
    bt = win.betti_table()
    rows = {i: {row for ii, _, row, _ in bt.records() if ii == i} for i in range(4)}
    assert rows == {0: {0}, 1: {-1}, 2: {-3}, 3: {-3}}


def test_betti_cartan_free_module():
    alg = Algebra(2)
    f = free_as_vectorized(FreeEModule(alg, (0,)))
    sc = CartanScanner(f)
    assert sc.betti(0, 0) == 1
    for j in range(-4, 1):
        assert sc.betti(1, j) == 0


def test_betti_cartan_small_characteristic():
    # divided-power basis keeps the oracle exact over GF(2)
    alg = Algebra(1, 2)
    k = residue_field(alg)
    win = module_resolution(k, 5)
    bt = win.betti_table()
    for i in range(6):
        assert CartanScanner(k).betti(i, -i) == bt.get(i, -i) == i + 1


def test_cross_oracle_on_corpus(small_corpus):
    for m in small_corpus[:12]:
        win = module_resolution(m, 4)
        bt = win.betti_table()
        sc = CartanScanner(m)
        lo, hi = m.support()
        for i in range(5):
            for j in range(lo - i, hi - i + 1):
                assert sc.betti(i, j) == bt.get(i, j), (i, j)


def test_regularity_examples():
    alg1 = Algebra(1)
    m1 = quotient_by(alg1, [parse_element(alg1, "e0*e1")])
    r = module_regularity(m1)
    assert (r.value, r.certified) == (-1, True)
    f = free_as_vectorized(FreeEModule(alg1, (0,)))
    r = module_regularity(f)
    assert (r.value, r.certified) == (0, True)
    alg3 = Algebra(3)
    m2 = quotient_by(alg3, [parse_element(alg3, "e0*e1 + e2*e3")])
    r = module_regularity(m2)
    assert (r.value, r.certified) == (-2, True)


def test_regularity_top_rows_non_increasing(small_corpus):
    for m in small_corpus[:10]:
        r = module_regularity(m, max_steps=12)
        assert all(a >= b for a, b in zip(r.top_rows, r.top_rows[1:]))


def test_regularity_zero_module_rejected():
    alg = Algebra(1)
    from exttate.efree import VectorizedModule
    with pytest.raises(DomainError):
        module_regularity(VectorizedModule(alg, {}, {}))


def test_regularity_rejects_stab_window_below_one():
    alg = Algebra(1)
    m = quotient_by(alg, [parse_element(alg, "e0*e1")])
    for w in (0, -1):
        with pytest.raises(DomainError):
            module_regularity(m, stab_window=w)
    assert module_regularity(m, stab_window=1).certified


def test_regularity_rejects_negative_max_steps():
    alg = Algebra(1)
    m = quotient_by(alg, [parse_element(alg, "e0*e1")])
    with pytest.raises(DomainError):
        module_regularity(m, max_steps=-1)
    r = module_regularity(m, max_steps=0)
    assert (r.steps, r.top_rows) == (0, [0]) and not r.certified


def test_regularity_stop_below():
    alg1 = Algebra(1)
    m1 = quotient_by(alg1, [parse_element(alg1, "e0*e1")])
    r = module_regularity(m1, stop_below=0)
    assert r.truncated_below and r.value < 0


def test_generator_degree_descent(small_corpus):
    for m in small_corpus[:8]:
        win = module_resolution(m, 5)
        for a, b in zip(win.frees, win.frees[1:]):
            if a.gen_degrees and b.gen_degrees:
                assert max(b.gen_degrees) <= max(a.gen_degrees) - 1


def test_alpha_free_and_residue_field():
    alg = Algebra(1)
    f = free_as_vectorized(FreeEModule(alg, (0,)))
    reg = module_regularity(f)
    assert alpha(CartanScanner(f), 0, reg) == 1
    for k in range(-3, 0):
        assert alpha(CartanScanner(f), k, reg) == 0
    k_mod = residue_field(alg)
    regk = module_regularity(k_mod)
    for i in range(0, 4):
        assert alpha(CartanScanner(k_mod), -i, regk) == (-1) ** i * (i + 1)


def test_alpha_hilbert_identity_hand_values():
    alg = Algebra(1)
    k_mod = residue_field(alg)
    reg = module_regularity(k_mod)
    assert alpha_hilbert_rhs(CartanScanner(k_mod), 0, reg) == 1
    assert alpha_hilbert_rhs(CartanScanner(k_mod), -1, reg) == 0
    f = free_as_vectorized(FreeEModule(Algebra(3), (0,)))
    regf = module_regularity(f)
    assert alpha_hilbert_rhs(CartanScanner(f), -1, regf) == 4  # n+1


def test_alpha_requires_certified_regularity():
    alg = Algebra(3)
    m = quotient_by(alg, [parse_element(alg, "e0*e1 + e2*e3")])
    weak = module_regularity(m, max_steps=1)
    assert not weak.certified
    with pytest.raises(DomainError):
        alpha(CartanScanner(m), 0, weak)


def test_alpha_hilbert_identity_on_corpus():
    for m in module_corpus(8, seed=77, nmax=3):
        reg = module_regularity(m)
        if not reg.certified:
            continue
        sc = CartanScanner(m)
        lo, hi = m.support()
        for e in range(lo, hi + 1):
            assert alpha_hilbert_rhs(sc, e, reg) == m.dim(e)


def test_cone_extend_doubles_and_checks():
    alg = Algebra(2)
    m = quotient_by(alg, [parse_element(alg, "e0*e1")])
    c = cone_extend(m)
    assert c.alg.n == 3
    assert sum(c.hilbert()) == 2 * sum(m.hilbert())
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
    regm, regc = module_regularity(m), module_regularity(c)
    assert regm.certified and regc.certified and regm.value == regc.value
    for k in range(lo, hi + 1):
        assert alpha(sm, k, regm) == alpha(sc, k, regc)


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_resolver_betti_matches_cartan_property(phi):
    m = vectorize_coker(phi)
    if m.is_zero:
        return
    bt = module_resolution(m, 3).betti_table()
    sc = CartanScanner(m)
    lo, hi = m.support()
    for i in range(4):
        for j in range(lo - i, hi - i + 1):
            assert sc.betti(i, j) == bt.get(i, j), (i, j)
    assert all(0 <= i <= 3 and lo - i <= j <= hi - i for i, j in bt.entries)


@st.composite
def redundant_presentations(draw):
    """`small_graded_maps`, which have unit entries, with up to two source
    columns appended that the others generate: a nonzero multiple of a
    column, its product with a variable, or a zero column."""
    phi = draw(small_graded_maps())
    alg = phi.alg
    src = list(phi.source.gen_degrees)
    ent = dict(phi.entries)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["multiple", "times a variable", "zero"]))
        c = draw(st.integers(0, len(src) - 1))
        column = {r: e for (r, k), e in ent.items() if k == c}
        if kind == "multiple":
            lam = draw(st.integers(1, alg.p - 1))
            column = {r: e.scale(lam) for r, e in column.items()}
            src.append(src[c])
        elif kind == "times a variable":
            var = ExtElement.variable(alg, draw(st.integers(0, alg.n)))
            column = {r: e * var for r, e in column.items()}
            src.append(src[c] - 1)
        else:
            column = {}
            src.append(draw(st.integers(-alg.nvars, 1)))
        ent.update({(r, len(src) - 1): e for r, e in column.items()})
    return GradedMap(FreeEModule(alg, tuple(src)), phi.target, ent)


@settings(max_examples=100, deadline=None)
@given(redundant_presentations())
def test_presentation_betti_matches_module_path_property(phi):
    """A presentation with unit entries and with dependent or zero columns,
    pruned, resolves to the Betti table of its cokernel through step 3: that
    of the module path, and of the Cartan strand.  A zero cokernel raises."""
    m = vectorize_coker(phi)
    if m.is_zero:
        with pytest.raises(ZeroModuleError):
            Resolver.of_presentation(phi)
        return
    table = minimal_free_resolution(phi, 3).betti_table()
    got = {(i, j): v for (i, j), v in table.entries.items() if i <= 3}
    assert got == module_resolution(m, 3).betti_table().entries
    sc = CartanScanner(m)
    lo, hi = m.support()
    for i in range(4):
        for j in range(lo - i, hi - i + 1):
            assert sc.betti(i, j) == got.get((i, j), 0), (i, j)


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_kernel_steps_splice_exactly_property(phi):
    maps = resolve_kernel_steps(phi, 3)
    if maps:
        assert graded_map_homology(*maps[::-1], phi) == [0] * len(maps)


def test_no_step_builds_a_kernel_nothing_reads(monkeypatch):
    """A step builds the kernel of the previous cover on entry, so the last
    step of a run builds none: k steps over ker(phi) take k kernels (the
    first is the seed's), and a module resolved through step i takes i
    (step 0 covers the module itself).  No kernel outlives its step."""
    built = []
    cover_kernel = eres._cover_kernel

    def counting(amb, f, gens):
        built.append(f)
        return cover_kernel(amb, f, gens)

    monkeypatch.setattr(eres, "_cover_kernel", counting)
    alg = Algebra(1)
    e0 = ExtElement.variable(alg, 0)
    # ker(e0 : E(-1) -> E) = e0*E(-1); its resolution repeats e0 and never ends
    phi = GradedMap(FreeEModule(alg, (-1,)), FreeEModule(alg, (0,)), {(0, 0): e0})
    for k in range(1, 5):
        built.clear()
        assert len(resolve_kernel_steps(phi, k)) == k
        assert len(built) == k
        assert len(set(map(id, built))) == k
    k_mod = residue_field(alg)
    for i in range(5):
        built.clear()
        res = module_resolution(k_mod, i)
        assert len(res.frees) == i + 1 and not res.terminated
        assert len(built) == i
        # a kept step holds its own nonzeros, not views of a kernel basis
        assert all(x.base is None for _, gens in res.steps for _, *nz in gens for x in nz)


def test_free_modules_build_each_action_table_once(monkeypatch):
    """A free module's e_i table of slice d is asked for as the source of one
    cover and as the ambient of the radical and of the next cover, for
    every e_i; each (module, d) table is built once, from one
    `Algebra.right_mul_table` per generator, and every ask returns the same
    arrays."""
    table = FreeEModule.action_table
    right_mul_table = Algebra.right_mul_table
    asked = {}
    built = []
    modules = []  # keeps every module alive, so no id is reused

    def recording(self, d):
        start = len(built)
        out = table(self, d)
        if len(built) > start:
            assert len(built) - start == self.rank
            built.append((id(self), d))
        modules.append(self)
        asked.setdefault((id(self), d), []).append(out)
        return out

    def counted(self, d):
        built.append(None)
        return right_mul_table(self, d)

    monkeypatch.setattr(FreeEModule, "action_table", recording)
    monkeypatch.setattr(Algebra, "right_mul_table", counted)
    alg = Algebra(2)
    module_resolution(residue_field(alg), 4)
    e0, e1 = (ExtElement.variable(alg, i) for i in range(2))
    phi = GradedMap(FreeEModule(alg, (-1, -1)), FreeEModule(alg, (0,)),
                    {(0, 0): e0, (0, 1): e1})
    Resolver.of_kernel(phi).extend(3)
    keys = [k for k in built if k is not None]
    assert keys and sorted(keys) == sorted(asked)
    assert max(map(len, asked.values())) > 1
    assert all(out is outs[0] for outs in asked.values() for out in outs)


def assert_same_resolution(r1, r2):
    assert r1.terminated == r2.terminated
    assert [f.gen_degrees for f in r1.frees] == [f.gen_degrees for f in r2.frees]
    assert len(r1.steps) == len(r2.steps)
    for (_, gens1), (_, gens2) in zip(r1.steps, r2.steps):
        assert len(gens1) == len(gens2)
        for (d1, *nz1), (d2, *nz2) in zip(gens1, gens2):
            assert d1 == d2 and all(np.array_equal(x, y) for x, y in zip(nz1, nz2))


@settings(max_examples=100, deadline=None)
@given(small_graded_maps(), st.integers(0, 3), st.integers(0, 3))
def test_incremental_extension_property(phi, a, b):
    """regularity and the Tate splice step a Resolver one step at a time;
    stopping and resuming must choose the same generator vectors as one run
    of the same length."""
    assert_same_resolution(Resolver.of_kernel(phi).extend(a).extend(b),
                           Resolver.of_kernel(phi).extend(a + b))
    m = vectorize_coker(phi)
    if not m.is_zero:
        assert_same_resolution(module_resolver(m).extend(a).extend(b),
                               module_resolver(m).extend(a + b))


def ambient_generators(alg, amb, ker):
    """The earlier generator rule, kept as the oracle: extend the radical by
    the kernel basis, both dense and in ambient coordinates."""
    gens = []
    for d in sorted(ker, reverse=True):
        basis = dense_kernel(ker[d])[0]
        up = ker.get(d + 1)
        if up is not None:
            rad = np.hstack([gfp.matmul(amb.action(i, d + 1), dense_kernel(up)[0], alg.p)
                             for i in range(alg.nvars)])
        else:
            rad = gfp.zeros(basis.shape[0], 0)
        for c in dense_extend_column_basis(rad, basis, alg.p):
            gens.append((d, basis[:, c]))
    return gens


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_kernel_coordinate_generators_match_ambient_rule_property(phi):
    """Generators picked in kernel coordinates are the ones the ambient rule
    picks, vector for vector, on every step of the module path and of
    Resolver.of_kernel(phi)."""
    kernel_generators = eres._kernel_generators
    checked = []

    def compared(alg, amb, ker):
        got = kernel_generators(alg, amb, ker)
        want = ambient_generators(alg, amb, ker)
        dense = dense_generators(amb, got)
        assert [d for d, _ in dense] == [d for d, _ in want]
        assert all(np.array_equal(v, w) for (_, v), (_, w) in zip(dense, want))
        assert all(np.all(np.diff(coords) > 0) and np.all(vals > 0) for _, coords, vals in got)
        checked.append(len(got))
        return got

    with mock.patch.object(eres, "_kernel_generators", compared):
        Resolver.of_kernel(phi).extend(3)
        m = vectorize_coker(phi)
        if not m.is_zero:
            module_resolver(m).extend(3)
    assert checked


def monomial_action_kernel(amb, f, gens):
    """The kernels of the map f -> amb with each image v*e_{i1}...e_{ik}
    formed as a product of whole action matrices, from the identity up."""
    alg = amb.alg
    dim = amb.slice_dim if isinstance(amb, FreeEModule) else amb.dim
    ker = {}
    lo, hi = f.degree_range()
    for d in range(hi, lo - 1, -1):
        cols = []
        for g, v in gens:
            for mask in alg.basis(d - g):
                act, cur = gfp.eye(dim(g)), g
                for i in range(alg.nvars):
                    if mask & (1 << i):
                        act = gfp.matmul(amb.action(i, cur), act, alg.p)
                        cur -= 1
                cols.append(gfp.matmul(act, v.reshape(-1, 1), alg.p))
        if cols:
            N, free = gfp.nullspace(np.hstack(cols), alg.p)
            if N.shape[1]:
                ker[d] = (N, free)
    return ker


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_cover_kernel_matches_monomial_action_rule_property(phi):
    """Every kernel a Resolver covers, built top down from nonzeros, is the one
    the whole-matrix products give, degree by degree: the kernel seed of
    Resolver.of_kernel(phi), the module cover of the module path and every
    syzygy step of both."""
    cover_kernel = eres._cover_kernel
    checked = []

    def compared(amb, f, gens):
        got = cover_kernel(amb, f, gens)
        want = monomial_action_kernel(amb, f, dense_generators(amb, gens))
        assert sorted(got) == sorted(want)
        for d, (N, free) in want.items():
            got_N, got_free = dense_kernel(got[d])
            assert np.array_equal(got_N, N) and np.array_equal(got_free, free), d
        checked.append(len(got))
        return got

    with mock.patch.object(eres, "_cover_kernel", compared):
        Resolver.of_kernel(phi).extend(3)
        m = vectorize_coker(phi)
        if not m.is_zero:
            module_resolver(m).extend(3)
    assert checked


def dense_cover_kernel(amb, f, gens):
    """The dense cover that `eres._cover_kernel` replaced, kept as its
    oracle: each slice image `above` (dim amb_d x dim f_d) is a dense array
    whose columns below a generator's degree are whole action matrices
    times the columns of the slice above, eliminated by the dense
    `gfp.kernel_nonzeros`."""
    alg = f.alg
    ker = {}
    lo, hi = f.degree_range()
    above = None
    for d in range(hi, lo - 1, -1):
        n = f.slice_dim(d)
        if n == 0:
            above = None
            continue
        parts = [([f.offsets(d)[c]], v[:, None]) for c, (g, v) in enumerate(gens) if g == d]
        if above is not None:
            done = np.zeros(n, dtype=bool)
            for i in reversed(range(alg.nvars)):
                rows, cols = np.nonzero(f.action(i, d + 1))
                fresh = ~done[rows]
                rows, cols = rows[fresh], cols[fresh]
                if rows.size:
                    done[rows] = True
                    parts.append((rows, gfp.matmul(amb.action(i, d + 1), above[:, cols], alg.p)))
        above = gfp.zeros(parts[0][1].shape[0], n)
        for cols, block in parts:
            above[:, cols] = block
        kernel = gfp.kernel_nonzeros(above, alg.p)
        if len(kernel[1]):
            ker[d] = kernel
    return ker


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_cover_kernel_matches_dense_cover_property(phi):
    """The kernels built from nonzeros equal the dense cover's field for
    field, (n, free, vec, coord, val), on every step of the module path,
    whose ambient is first a VectorizedModule, and of Resolver.of_kernel."""
    cover_kernel = eres._cover_kernel
    checked = []

    def compared(amb, f, gens):
        got = cover_kernel(amb, f, gens)
        want = dense_cover_kernel(amb, f, dense_generators(amb, gens))
        assert sorted(got) == sorted(want)
        for d, fields in want.items():
            assert got[d][0] == fields[0], d
            assert all(np.array_equal(x, y) for x, y in zip(got[d][1:], fields[1:])), d
        checked.append(len(got))
        return got

    with mock.patch.object(eres, "_cover_kernel", compared):
        Resolver.of_kernel(phi).extend(3)
        m = vectorize_coker(phi)
        if not m.is_zero:
            module_resolver(m).extend(3)
    assert checked


def loop_has_unit(amb, gens):
    """The generator-by-generator rule that `eres._has_unit` replaced, kept
    as its oracle."""
    return any(v[amb.offsets(g)[r]] for g, v in gens
               for r, h in enumerate(amb.gen_degrees) if h == g)


@settings(max_examples=100, deadline=None)
@given(small_graded_maps())
def test_has_unit_matches_loop_rule_property(phi):
    """On every step of Resolver.of_kernel(phi): the first cover, which has
    units when phi is not a minimal presentation, and the syzygy steps."""
    res = Resolver.of_kernel(phi).extend(3)
    for amb, gens in res.steps:
        assert eres._has_unit(amb, gens) == bool(loop_has_unit(amb, dense_generators(amb, gens)))


def test_generator_choice_eliminates_kernel_sized_stacks(monkeypatch):
    """Each generator choice eliminates vectors of length dim ker_d, the
    number of candidate unit vectors, never of the ambient slice's: every
    radical coordinate is below nk."""
    shapes = []
    extend = gfp.extend_column_basis

    def recording(vecs, coords, vals, nk, p):
        shapes.append((int(np.max(coords, initial=-1)) + 1, nk, len(np.unique(vecs))))
        return extend(vecs, coords, vals, nk, p)

    monkeypatch.setattr(gfp, "extend_column_basis", recording)
    alg = Algebra(2)
    module_resolution(residue_field(alg), 4)
    module_resolution(quotient_by(alg, [parse_element(alg, "e0*e1 + e2*e0")]), 4)
    assert shapes and any(count for _, _, count in shapes)
    assert all(rows <= nk for rows, nk, _ in shapes), shapes
