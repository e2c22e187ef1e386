"""Output checks: references, invariants and a failed operation's count."""

import itertools
import json

import pytest

import worker
from workloads import DEFAULT_SEED, WORKLOADS


def first_ops(name, count, seed=DEFAULT_SEED):
    return list(itertools.islice(WORKLOADS[name].ops(seed), count))


def flip_byte(text, pos):
    ch = text[pos]
    return text[:pos] + ("0" if ch != "0" else "1") + text[pos + 1:]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_pass_and_a_mutated_byte_fails(name):
    wl = WORKLOADS[name]
    ref = wl.load_reference()
    for op in first_ops(name, wl.cycle):
        want = ref[op.key]
        assert wl.check(op, 0, want, ref) is None
        for pos in (0, len(want) // 2, len(want) - 1):
            assert wl.check(op, 0, flip_byte(want, pos), ref) is not None
        assert wl.check(op, 1, want, ref) is not None


def test_mutated_reference_marks_the_operation_failed(monkeypatch):
    monkeypatch.chdir(worker.ROOT)
    wl = WORKLOADS["cohomology"]
    ref = wl.load_reference()
    op = next(op for op in first_ops("cohomology", 4) if op.key == "coker_diag")
    bad = dict(ref, coker_diag=flip_byte(ref["coker_diag"], 20))
    good, _ = worker.timed_loop(wl, iter([op]), ref, 0.0)
    failed, _ = worker.timed_loop(wl, iter([op]), bad, 0.0)
    assert (good.attempted, good.failed) == (1, 0)
    assert (failed.attempted, failed.failed) == (1, 1)
    assert "differs from the reference" in failed.failures[0]


def test_census_references_also_satisfy_the_invariants():
    wl = WORKLOADS["census"]
    ref = wl.load_reference()
    ops = first_ops("census", len(ref))
    assert {op.key for op in ops} == set(ref)
    for op in ops:
        assert wl.check_invariants(op, ref[op.key]) is None, op.key


def test_census_invariants_catch_broken_reports():
    wl = WORKLOADS["census"]
    op = first_ops("census", 1, seed=7)[0]
    assert op.key not in wl.load_reference()
    ref = wl.load_reference()
    good = json.loads(ref[first_ops("census", 1)[0].key])
    good["params"]["seed"] = op.meta["seed"]
    assert wl.check_invariants(op, json.dumps(good)) is None
    for key, val in (("members", 2), ("reconstructionFailures", 1),
                     ("uncertified", 1), ("distinctTables", [])):
        assert wl.check_invariants(op, json.dumps(dict(good, **{key: val}))) is not None, key
    table = good["distinctTables"][0]
    wrong = dict(table, entries=[[i, j, v + 1] for i, j, v in table["entries"]])
    assert wl.check_invariants(op, json.dumps(dict(good, distinctTables=[wrong]))) is not None
    assert wl.check_invariants(op, "not json") is not None


def test_seeds_give_distinct_census_inputs_and_rotate_the_corpus():
    keys0 = [op.key for op in first_ops("census", 6, seed=0)]
    keys1 = [op.key for op in first_ops("census", 6, seed=1)]
    assert keys0 == [op.key for op in first_ops("census", 6, seed=0)]
    assert not set(keys0) & set(keys1)
    assert first_ops("cohomology", 1, seed=0)[0].key != first_ops("cohomology", 1, seed=1)[0].key


def test_throughput_uses_each_kind_median_and_tail_is_nearest_rank():
    from run import median_rate, percentile
    # kinds at positions 0, 1, 2; one 10 s stall in the first cycle
    lat = [1.0, 2.0, 10.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    assert median_rate(lat, 3) == 3 / 6.0
    assert median_rate([4.0, 2.0, 3.0], 1) == 1 / 3.0
    assert percentile(list(range(1, 11)), 80) == 8
    assert percentile([5.0, 7.0], 80) == 7.0
