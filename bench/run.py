"""exttate benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload census --seed 0 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a process of its own
(bench/worker.py) with the BLAS thread count pinned; set-up time is taken
from several fresh processes.  With ``--trace 0`` the last stdout line is
a JSON object carrying the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  Lines before it print
every metric with its unit for a reader.  A result file with the
environment goes to bench/results/.  Exit status 2: the benchmark could
not run (for example, no exttate sources next to it).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"

BLAS_THREADS = 1
SETUP_PROBES = 9
TAIL_PERCENTILE = 80
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads():
    return max(1, min(BLAS_THREADS, nproc()))


def worker_env():
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, extra, result=True):
    """Run one worker to the end.

    Returns (seconds from start until it printed READY, its JSON report or
    None when `result` is false).  The worker is killed if anything fails.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=str(ROOT),
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError("worker did not start")
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded %.0f s" % WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("worker exited with status %s" % proc.returncode)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if not result:
        return ready, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return ready, json.loads(lines[-1])


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "exttate").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_rate(latencies, cycle):
    """Operations per second of a cycle made of each kind's median operation.

    Position k of every cycle is one input kind.  Medians per kind ignore
    the few-second stalls a shared machine inserts, which a plain mean
    over the run does not."""
    return cycle / sum(statistics.median(latencies[k::cycle]) for k in range(cycle))


def end_to_end(report, setups):
    res = report["plain"]
    lat_ms = [s * 1000.0 for s in res["latencies"]]
    verified_share = (res["attempted"] - res["failed"]) / res["attempted"]
    rate = verified_share * median_rate(res["latencies"], report["cycle"])
    return {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (percentile(lat_ms, TAIL_PERCENTILE), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(report):
    """Per-operation layer totals of the traced operations."""
    ops = report["traced"]["attempted"]
    layers = report["layers"]
    out = {}
    for key, val in sorted(layers.items()):
        if key in ("paramspace.membership_X0.certified", "cli.main.calls"):
            continue
        out[key] = (val / ops, "s/op" if key.endswith("_s") else "count/op")
    calls = layers["paramspace.membership_X0.calls"]
    out["paramspace.membership_X0.certified_ratio"] = (
        layers["paramspace.membership_X0.certified"] / calls if calls else 0.0, "ratio")
    plain_s = sum(report["plain"]["latencies"])
    traced_s = sum(report["traced"]["latencies"])
    plain_rate = report["plain"]["attempted"] / plain_s
    traced_rate = ops / traced_s
    out["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    out["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_pct"] = (100.0 * (plain_rate - traced_rate) / plain_rate, "%")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "exttate" / "cli.py").is_file():
        sys.stderr.write("no exttate sources at %s\n" % SRC)
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / (tag + "-spans.json")
    try:
        setups = [run_worker(args, ["--setup-only"], result=False)[0]
                  for _ in range(SETUP_PROBES)]
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans-out", str(spans_path)]
        ready, report = run_worker(args, extra)
        setups.append(ready)
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 2

    res = report["traced"] if args.trace else report["plain"]
    attempted = res["attempted"] + (report["plain"]["attempted"] if args.trace else 0)
    failed = res["failed"] + (report["plain"]["failed"] if args.trace else 0)
    metrics = per_layer(report) if args.trace else end_to_end(report, setups)

    lines = ["workload %s seed %d trace %d: %d ops attempted, %d failed (failed_ops %.4f)"
             % (args.workload, args.seed, args.trace, attempted, failed,
                failed / attempted)]
    if not args.trace:
        lines.append("op latency: %d samples, tail = p%d with %d samples beyond it"
                     % (len(res["latencies"]), TAIL_PERCENTILE,
                        len(res["latencies"]) - math.ceil(
                            TAIL_PERCENTILE / 100.0 * len(res["latencies"]))))
    for name, (value, unit) in metrics.items():
        lines.append("%-48s %14.6g %s" % (name, value, unit))
    for reason in report["plain"]["failures"] + report.get("traced", {}).get("failures", []):
        lines.append("FAILED %s" % reason)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "blas": report["blas"],
        "blas_threads": report["blas_threads"],
        "setup_samples_s": setups,
        "tail_percentile": TAIL_PERCENTILE,
    }
    record = dict(result, environment=env, worker=report)
    (RESULTS / (tag + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
