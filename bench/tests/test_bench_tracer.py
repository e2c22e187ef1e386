"""Tracer arithmetic, shape buckets and the patched lookup sites."""

import numpy as np
import pytest

import exttate.cli
import exttate.gfp
import exttate.paramspace
import exttate.tate
from tracer import SPAN_NAMES, Tracer, elim_bucket, layer_totals, self_times


def span(name, start, end, parent, op=0):
    return (name, start, end, parent, op)


def test_self_time_of_a_span_tree():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("tate.tate_window", 1.0, 4.0, 0),
        span("gfp.echelon", 2.0, 3.0, 1),
        span("gfp.echelon", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("gfp.rref", 1.0, 5.0, 0),
        span("gfp.rref", 3.0, 6.0, 0),
        span("gfp.rref", 9.0, 12.0, 0),
    ]
    # children cover [1, 6] and [9, 10] inside the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_sum_self_time_calls_and_bucket_time():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("gfp.echelon", 1.0, 4.0, 0),
        span("gfp.matmul", 2.0, 3.0, 1),
        span("gfp.echelon", 5.0, 6.0, 0),
    ]
    totals = layer_totals(spans, elim=[(1, "large"), (3, "small")],
                          counters={"gfp.elim.large_calls": 1, "gfp.elim.small_calls": 1})
    assert totals["gfp.echelon.calls"] == 2
    assert totals["gfp.echelon.self_s"] == pytest.approx(2.0 + 1.0)
    assert totals["cli.main.self_s"] == pytest.approx(6.0)
    assert totals["gfp.elim.large_s"] == pytest.approx(3.0)  # nested matmul included
    assert totals["gfp.elim.small_s"] == pytest.approx(1.0)
    assert totals["gfp.elim.mid_calls"] == 0
    assert totals["gfp.elim.large_calls"] == 1


@pytest.mark.parametrize("rows, cols, bucket", [
    (0, 0, "small"), (63, 63, "small"), (64, 1, "mid"), (1, 64, "mid"),
    (511, 511, "mid"), (512, 1, "large"), (3, 512, "large"), (4320, 5000, "large"),
])
def test_elimination_bucket_edges(rows, cols, bucket):
    assert elim_bucket(rows, cols) == bucket


def test_install_patches_every_lookup_site_and_uninstall_restores():
    sites = [(exttate.cli, "slice_presentation"), (exttate.cli, "reg_S"),
             (exttate.tate, "resolve_kernel_steps"), (exttate.tate, "bgg_R"),
             (exttate.tate, "reg_S"), (exttate.tate, "graded_map_homology"),
             (exttate.paramspace, "regularity"), (exttate.paramspace, "tate_from_point"),
             (exttate.paramspace, "descent"), (exttate.gfp, "echelon"),
             (exttate.tate.TateWindow, "check_exact"),
             (exttate.eres.Resolver, "step")]
    before = [getattr(owner, attr) for owner, attr in sites]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), orig in zip(sites, before):
            now = getattr(owner, attr)
            assert now is not orig and getattr(now, "__wrapped__", None) is not None, attr
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in sites] == before


def test_traced_elimination_counts_are_computed_from_shapes():
    rng = np.random.default_rng(7)
    a = exttate.gfp.random_matrix(70, 3, 101, rng)
    tracer = Tracer()
    tracer.install()
    try:
        r, piv = exttate.gfp.rref(a, 101)
        exttate.gfp.matmul(a[:5], a[:3].T, 101)
    finally:
        tracer.uninstall()
    totals = layer_totals(tracer.spans, tracer.elim, tracer.counters)
    assert totals["gfp.rref.calls"] == 1
    assert totals["gfp.echelon.calls"] == 1
    assert totals["gfp.elim.mid_calls"] == 1
    assert totals["gfp.elim.cell_ops"] == 70 * 3 * len(piv)
    assert totals["gfp.matmul.flops"] >= 2 * 5 * 3 * 3
    parents = {s[0]: s[3] for s in tracer.spans}
    assert tracer.spans[parents["gfp.echelon"]][0] == "gfp.rref"


def test_every_span_name_is_a_traced_entry_point():
    assert len(SPAN_NAMES) == len(set(SPAN_NAMES))
    assert "cli.main" in SPAN_NAMES
