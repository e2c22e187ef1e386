"""Each workload at minimal length, end to end and traced, through run.py."""

import json
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS


@pytest.fixture(scope="module")
def bench_dir():
    from run import BENCH
    return BENCH


@pytest.fixture(scope="module")
def spec(bench_dir):
    return json.loads((bench_dir.parent / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=str(root), capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module")
def results(bench_dir):
    """Last-line JSON of each (workload, trace) run, made on first use."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = run_bench(bench_dir.parent, workload, trace, seed=3)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]
    return get


def test_spec_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == ["census", "cohomology", "quadric"]
    assert set(WORKLOADS) == {"census", "cohomology", "quadric"}


@pytest.mark.parametrize("workload", ["census", "cohomology", "quadric"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_correct_with_every_declared_metric(results, spec, workload, trace):
    res = results(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.fixture(scope="module")
def layer(results):
    return lambda workload, name: results(workload, 1)["metrics"][name]["value"]


def test_s_side_layers_run_only_on_cohomology(layer):
    names = ["smod.slice_presentation.calls", "smod.reg_S.calls",
             "smod.koszul_betti.calls", "bgg.bgg_R.calls"]
    for name in names:
        assert layer("cohomology", name) > 0, name
        assert layer("census", name) == 0, name
        assert layer("quadric", name) == 0, name


def test_paramspace_and_tate_stay_off_the_quadric(layer):
    for name in ["paramspace.membership_X0.calls", "tate.tate_window.calls",
                 "tate.tate_from_point.calls", "paramspace.sample.calls"]:
        assert layer("quadric", name) == 0, name
    assert layer("quadric", "eres.Resolver.step.calls") > 0
    assert layer("census", "paramspace.membership_X0.calls") > 0


def test_small_eliminations_dominate_the_census(layer):
    small = layer("census", "gfp.elim.small_calls")
    others = sum(layer("census", "gfp.elim.%s_calls" % b) for b in ("mid", "large"))
    assert small > 2 * others


def test_large_eliminations_carry_the_quadric_gfp_time(layer):
    gfp_self = sum(layer("quadric", "gfp.%s.self_s" % f)
                   for f in ("echelon", "rref", "nullspace", "matmul", "extend_column_basis"))
    assert layer("quadric", "gfp.elim.large_s") > 0.5 * gfp_self


def test_without_the_sources_the_benchmark_fails_without_a_result(bench_dir, tmp_path):
    shutil.copy(bench_dir.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(bench_dir, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "census", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
