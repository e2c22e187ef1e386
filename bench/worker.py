"""One workload process: set up, run the operations, report as JSON.

Started by run.py with the BLAS thread count already in its environment.
It prints ``READY`` once the first operation can start (exttate and numpy
imported, BLAS initialised, inputs and references loaded), then, unless
``--setup-only``, runs operations through ``exttate.cli.main`` in process
with stdout captured, and prints one JSON line with what it measured.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import exttate.cli  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_FAILURES = 5


def _blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError) as exc:  # layout differs by version
        return "unknown (%r)" % (exc,)


def run_op(op):
    """(exit code, stdout, seconds) of one command line, in process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = exttate.cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the operation fails; the run goes on
        traceback.print_exc()
        code = "raised %r" % (exc,)
    return code, out.getvalue(), time.perf_counter() - start


class Outcome:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, op, seconds, reason):
        self.latencies.append(seconds)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append("%s: %s" % (op.key, reason))


def timed_loop(wl, stream, reference, seconds):
    """Closed loop: the next operation starts when the previous one ends.
    Stops at the first cycle boundary after `seconds`."""
    res = Outcome()
    start = time.perf_counter()
    for op in stream:
        code, out, dt = run_op(op)
        res.record(op, dt, wl.check(op, code, out, reference))
        if res.attempted % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    return res, time.perf_counter() - start


def traced_loop(wl, ops, reference, seconds, tracer):
    """Repeat the trace set; each operation runs once untraced and once
    traced (alternating which goes first) and the two stdouts must match."""
    plain, traced = Outcome(), Outcome()
    start = time.perf_counter()
    sets = 0
    op_id = 0
    while True:
        for op in ops:
            runs = {}
            for traced_run in ((False, True) if op_id % 2 == 0 else (True, False)):
                if traced_run:
                    tracer.op = op_id
                    tracer.install()
                    try:
                        runs[True] = run_op(op)
                    finally:
                        tracer.uninstall()
                else:
                    runs[False] = run_op(op)
            same = runs[True][:2] == runs[False][:2]
            for flag, res in ((False, plain), (True, traced)):
                code, out, dt = runs[flag]
                reason = wl.check(op, code, out, reference)
                if reason is None and not same:
                    reason = "traced and untraced output differ"
                res.record(op, dt, reason)
            op_id += 1
        sets += 1
        if time.perf_counter() - start >= seconds:
            break
    return plain, traced, sets, time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(exttate.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("exttate imported from %s, not from %s\n" % (exttate.__file__, SRC))
        return 2
    wl = WORKLOADS[args.workload]
    reference = wl.load_reference()
    np.ones((256, 256)) @ np.ones((256, 256))  # start the BLAS threads
    os.chdir(ROOT)  # operations name their input files relative to the root
    ops = wl.trace_set(args.seed) if args.trace else wl.ops(args.seed)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    report = {
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if args.trace:
        tracer = Tracer()
        plain, traced, sets, elapsed = traced_loop(wl, ops, reference, args.seconds, tracer)
        report.update(
            plain=vars(plain), traced=vars(traced), sets=sets, elapsed=elapsed,
            layers=layer_totals(tracer.spans, tracer.elim, tracer.counters))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
    else:
        res, elapsed = timed_loop(wl, ops, reference, args.seconds)
        report.update(plain=vars(res), elapsed=elapsed, cycle=wl.cycle)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
