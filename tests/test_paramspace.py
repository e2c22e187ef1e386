"""Type spaces: degree sequences, sampling, membership, reconstruction, census."""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import module_regularity
from exttate import efree, paramspace
from exttate.cli import main
from exttate.errors import DomainError
from exttate.extalg import Algebra, ExtElement, parse_element
from exttate.efree import FreeEModule, GradedMap, vectorize_coker
from exttate.eres import CartanScanner, Resolver
from exttate.paramspace import (MatrixPoint, TypeVectors, census, degree_sequence,
                                membership_X0, reconstruct, sample, z_membership)
from exttate.tate import tate_from_point


def test_type_vectors_basic():
    t = TypeVectors((1, 3), (3, 1))
    assert t.s == 1
    assert t.source_degrees() == (0, -1, -1, -1)
    assert t.target_degrees() == (1, 1, 1, 0)
    with pytest.raises(DomainError):
        TypeVectors((), (0,))


def test_types_beyond_projective_space_rejected():
    """On P^n both columns of a cohomology table have rows 0..n only, so a
    type with support index s > n is rejected by sample and census."""
    t = TypeVectors((1, 0, 0, 1), (1,))
    assert t.s == 3
    sample(t, 3, np.random.default_rng(0), p=101)
    for run in (lambda: sample(t, 2, np.random.default_rng(0), p=101),
                lambda: census(t, 2, 1, (-1, 1), seed=0, p=101)):
        with pytest.raises(DomainError, match="s=3 > n=2"):
            run()


def test_degree_sequences():
    assert degree_sequence(TypeVectors((1, 3), (3, 1))) == (6, 9)
    assert degree_sequence(TypeVectors((1,), (1,))) == (1,)
    assert degree_sequence(TypeVectors((0, 1), (1,))) == (0, 1)


def test_sample_shape_and_histogram():
    t = TypeVectors((1, 3), (3, 1))
    x = sample(t, 4, np.random.default_rng(5), p=32003)
    assert (3, 0) not in x.phi.entries  # the forced-zero unit slot
    hist = {}
    for e in x.phi.entries.values():
        hist[e.degree] = hist.get(e.degree, 0) + 1
    assert hist == {-1: 6, -2: 9}
    assert x.phi.is_minimal()


def test_sample_reproducible():
    t = TypeVectors((1, 2), (2, 1))
    a = sample(t, 3, np.random.default_rng(123), p=101)
    b = sample(t, 3, np.random.default_rng(123), p=101)
    assert a.phi.entries == b.phi.entries


def test_membership_examples():
    alg = Algebra(3, 32003)
    t11 = TypeVectors((1,), (1,))
    phi = GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (1,)),
                    {(0, 0): parse_element(alg, "e0")})
    assert membership_X0(MatrixPoint(t11, phi)) == (True, True)

    t01 = TypeVectors((0, 1), (1,))
    q1 = GradedMap(FreeEModule(alg, (-1,)), FreeEModule(alg, (1,)),
                   {(0, 0): parse_element(alg, "e1*e2")})
    assert membership_X0(MatrixPoint(t01, q1)) == (True, True)
    q2 = GradedMap(FreeEModule(alg, (-1,)), FreeEModule(alg, (1,)),
                   {(0, 0): parse_element(alg, "e0*e1 + e2*e3")})
    got = membership_X0(MatrixPoint(t01, q2))
    assert got == (False, True)


def test_reconstruct_contract():
    t = TypeVectors((1,), (2,))
    rng = np.random.default_rng(9)
    x = sample(t, 3, rng, p=101)
    member, cert = membership_X0(x)
    assert member and cert
    win, tab = reconstruct(x, -2, 4)
    assert tab.column(0)[0] == 1
    assert tab.column(1)[0] == 2
    # generic two independent linear relations cut out a line: h^0 grows linearly
    for j in range(0, 5):
        assert tab.get(0, j) == j + 1


def test_z_membership_point_sheaf_false():
    alg = Algebra(2, 32003)
    t11 = TypeVectors((1,), (1,))
    phi = GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (1,)),
                    {(0, 0): parse_element(alg, "e0")})
    pt = MatrixPoint(t11, phi)
    assert not z_membership(pt, 2)
    assert not z_membership(pt, 3)
    with pytest.raises(DomainError):
        z_membership(pt, 1)


def _two_socle_point(n=2, p=32003):
    """Point whose coker-dual is k (+) k(-1): Betti rows 0 and 1 forever."""
    alg = Algebra(n, p)
    nv = alg.nvars
    tvec = TypeVectors((1, 1), (nv, nv))
    src = FreeEModule(alg, tvec.source_degrees())
    tgt = FreeEModule(alg, tvec.target_degrees())
    entries = {}
    # phi-dual columns must span m*gen0 and m*gen1; build phi accordingly:
    # phi rows correspond to F' generators, phi entries transpose the wanted
    # relations e_t * gen_r of the dual.
    for t in range(nv):
        # relation e_t * (dual gen of degree 0): dual column degree -1 block
        entries[(t, 0)] = ExtElement.variable(alg, t)
        # relation e_t * (dual gen of degree 1)
        entries[(nv + t, 1)] = ExtElement.variable(alg, t)
    phi = GradedMap(src, tgt, entries)
    return MatrixPoint(tvec, phi)


def test_z_membership_witness_and_chain():
    pt = _two_socle_point()
    m = vectorize_coker(pt.phi.dual())
    assert m.hilbert() == [1, 1]  # k in degree 0 and k in degree 1
    member, cert = membership_X0(pt)
    assert cert and not member  # stable top row is 1, not 0
    for i in (2, 3, 4):
        assert z_membership(pt, i)
    # the chain Z_{i+1} <= Z_i holds on a mixed corpus, and each flag
    # matches the Cartan-strand Betti numbers of the cokernel
    rng = np.random.default_rng(31)
    pool = [pt]
    for _ in range(6):
        pool.append(sample(TypeVectors((1, 1), (1, 1)), 3, rng, p=101))
    for x in pool:
        sc = CartanScanner(vectorize_coker(x.phi.dual()))
        flags = [z_membership(x, i) for i in (2, 3, 4)]
        assert flags == [any(sc.betti(i, j) for j in range(1 - i, 2 - i))
                         for i in (2, 3, 4)]
        for a, b in zip(flags, flags[1:]):
            assert (not b) or a


def test_census_deterministic_and_schema():
    t = TypeVectors((1,), (2,))
    r1 = census(t, 3, 25, (-3, 6), seed=7, p=101)
    r2 = census(t, 3, 25, (-3, 6), seed=7, p=101)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    for key in ("params", "members", "nonMembers", "uncertified", "distinctTables",
                "maxRegularity", "maxDescentDim", "zHistogram"):
        assert key in r1
    assert r1["members"] + r1["nonMembers"] + r1["uncertified"] == 25


def test_census_exhaustive_gf2_point_types():
    """All nonzero 1x1 linear slots over GF(2), n=1: one distinct table."""
    alg = Algebra(1, 2)
    t11 = TypeVectors((1,), (1,))
    tables = set()
    degenerate = 0
    for c0 in range(2):
        for c1 in range(2):
            terms = {}
            if c0:
                terms[0b01] = 1
            if c1:
                terms[0b10] = 1
            el = ExtElement(alg, terms)
            phi = GradedMap(FreeEModule(alg, (0,)), FreeEModule(alg, (1,)),
                            {(0, 0): el} if not el.is_zero else {})
            pt = MatrixPoint(t11, phi)
            member, cert = membership_X0(pt)
            assert cert
            if not member:
                degenerate += 1
                continue
            try:
                _, tab = reconstruct(pt, -2, 3)
            except DomainError:
                degenerate += 1
                continue
            tables.add(tab.key())
    assert len(tables) == 1
    assert degenerate == 1  # only the zero matrix fails


def test_census_saturation_small():
    t = TypeVectors((1,), (2,))
    counts = {}
    for n in (3, 4):
        rep = census(t, n, 30, (-3, 6), seed=11, p=101)
        counts[n] = len(rep["distinctTables"])
    assert counts[3] == counts[4]


@contextlib.contextmanager
def module_path():
    """The census rule before the trial shared one resolution: membership on
    the module path of the vectorized coker(phi-dual), the z-flags from a
    CartanScanner of that cokernel, and a Tate window whose right half is
    resolved afresh."""
    cokers = {}
    scanners = {}

    def coker_dual(point):
        if point not in cokers:
            cokers[point] = vectorize_coker(point.phi.dual())
        return cokers[point]

    def membership(point, stab_window=None):
        m = coker_dual(point)
        if m.is_zero:
            raise DomainError("cokernel of phi-dual is zero; degenerate point")
        reg = module_regularity(m, stab_window=stab_window,
                                max_steps=paramspace.MEMBERSHIP_MAX_STEPS, stop_below=0)
        if reg.truncated_below:
            return False, True
        return reg.value == 0, reg.certified

    def z(point, i):
        sc = scanners.setdefault(point, CartanScanner(coker_dual(point)))
        return any(sc.betti(i, j) for j in range(1 - i, point.tvec.s - i + 1))

    def window(phi, lo, hi, resolver=None):
        return tate_from_point(phi, lo, hi)

    with mock.patch.multiple(paramspace, membership_X0=membership, z_membership=z,
                             tate_from_point=window):
        yield


def census_outcome(*args, **kwargs):
    try:
        return census(*args, **kwargs)
    except DomainError as e:
        return "DomainError: %s" % e


@st.composite
def small_types(draw):
    """(type, n) with entries <= 2 and support index s <= n <= 3."""
    n = draw(st.integers(0, 3))
    s = draw(st.integers(0, n))
    b = draw(st.lists(st.integers(0, 2), min_size=s + 1, max_size=s + 1))
    bp = draw(st.lists(st.integers(0, 2), min_size=s + 1, max_size=s + 1))
    if b[-1] == 0 and bp[-1] == 0:
        bp[-1] = 1
    return TypeVectors(b, bp), n


@settings(max_examples=60, deadline=None)
@given(small_types(), st.sampled_from([2, 3, 101]), st.integers(0, 2 ** 32 - 1),
       st.integers(-3, 0), st.integers(1, 6))
def test_census_matches_module_path(tn, p, seed, lo, hi):
    """One shared resolution per trial gives the reports of the module path,
    on minimal presentations and on the fallback (small n and p make
    phi-dual non-minimal often)."""
    tvec, n = tn
    got = census_outcome(tvec, n, 3, (lo, hi), seed, p=p)
    with module_path():
        want = census_outcome(tvec, n, 3, (lo, hi), seed, p=p)
    assert got == want


def test_member_trial_resolves_coker_phi_dual_once(monkeypatch):
    """A (1; 2) member trial builds no vectorized cokernel and ranks no
    Cartan strand; it resolves kernels twice, of phi-dual and of phi."""
    counts = {"vectorize_coker": 0, "cartan": 0}
    seeds = []
    vectorize, rank = efree.vectorize_coker, CartanScanner._rank
    of_kernel = Resolver.of_kernel.__func__

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def seeded(cls, phi):
        seeds.append((phi.source.gen_degrees, phi.target.gen_degrees))
        return of_kernel(cls, phi)

    monkeypatch.setattr(efree, "vectorize_coker", counted("vectorize_coker", vectorize))
    monkeypatch.setattr(CartanScanner, "_rank", counted("cartan", rank))
    monkeypatch.setattr(Resolver, "of_kernel", classmethod(seeded))
    rep = census(TypeVectors((1,), (2,)), 3, 1, (-3, 6), seed=0, p=101)
    assert rep["members"] == 1 and rep["distinctTables"]
    assert counts == {"vectorize_coker": 0, "cartan": 0}
    # phi : E(0) -> E(1)^2, so phi-dual : E(-1)^2 -> E(0)
    assert seeds == [((-1, -1), (0,)), ((0,), (1, 1))]


def test_non_minimal_n0_point_fails_reconstruction(capsys):
    """At n=0 a (1; 2) point has phi-dual with a redundant relation: both
    trials are members by the vectorized cokernel and fail reconstruction."""
    code = main(["census", "--b", "1", "--bprime", "2", "-n", "0", "--trials", "2",
                 "--seed", "0", "--window", "-3..6"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (rep["members"], rep["reconstructionFailures"]) == (2, 2)


def test_narrow_window_member_counts_as_a_reconstruction_failure(capsys):
    """In the window 0..1 `descent` finds no linear differential past the
    regularity: the member counts under reconstructionFailures, adds no
    table, and the run reports its tally instead of exiting 1."""
    code = main(["census", "--b", "1", "--bprime", "1", "-n", "2", "--trials", "1",
                 "--seed", "0", "--window", "0..1"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (rep["members"], rep["reconstructionFailures"]) == (1, 1)
    assert (rep["distinctTables"], rep["maxRegularity"], rep["maxDescentDim"]) == ([], None, None)


def test_fallback_trial_seeds_ker_phi_dual_once(monkeypatch):
    """A (1; 1,1) trial at n=2 has a phi-dual that is not a minimal
    presentation.  The cover of ker(phi-dual) on which that showed stays on
    the point, and the Tate window that then fails reads it: ker(phi-dual)
    is seeded once, and ker(phi) never.  The one other seed is that of the
    pruned presentation, phi-dual without its zero column E(0), whose
    resolution membership and the z-histogram read."""
    seeds = []
    of_kernel = Resolver.of_kernel.__func__

    def seeded(cls, phi):
        seeds.append((phi.source.gen_degrees, phi.target.gen_degrees))
        return of_kernel(cls, phi)

    monkeypatch.setattr(Resolver, "of_kernel", classmethod(seeded))
    rep = census(TypeVectors((1,), (1, 1)), 2, 1, (-3, 6), seed=0, p=101)
    assert (rep["members"], rep["reconstructionFailures"]) == (1, 1)
    # phi : E(0) -> E(1) + E(0), so phi-dual : E(-1) + E(0) -> E(0)
    assert seeds == [((-1, 0), (0,)), ((-1,), (0,))]
