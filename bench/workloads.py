"""The three benchmark workloads: their operations and output checks.

An operation is one ``exttate`` command line.  ``ops(seed)`` yields the
endless, seed-determined stream a run works through, in cycles of
``cycle`` operations that hold each input kind once; a run stops only at
the end of a cycle, so every run has the same mix.  ``trace_set(seed)``
is the first cycle, which the traced run repeats.  ``check(op, code, stdout)``
returns None for a correct output and a reason string otherwise: a byte
comparison against the committed reference where one exists, invariants
of the output otherwise.
"""

import itertools
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent
INPUTS = BENCH / "inputs"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 0

CENSUS_TYPES = [((1,), (2,)), ((1, 1), (1, 1)), ((2,), (2,))]
CENSUS_N = 4
CENSUS_P = 101
CENSUS_WINDOW = (-3, 6)
# Census seeds of one benchmark seed; ample for any run length.
CENSUS_SEEDS_PER_RUN = 1000000

COHOMOLOGY_FILES = ["plane_cubic", "elliptic_quartic", "twisted_cubic", "coker_diag"]
COHOMOLOGY_WINDOW = (-4, 6)

QUADRIC_FILE = "quadric_ell3"
QUADRIC_IMAX = 4


class Op:
    """One command line plus what the checker needs to know about it."""

    def __init__(self, key, argv, meta=None):
        self.key = key
        self.argv = list(argv)
        self.meta = meta or {}


def _intlist(vals):
    return ",".join(str(v) for v in vals)


def _rel(path):
    """Input paths are given relative to the repository root, where the
    benchmark runs."""
    return str(path.relative_to(BENCH.parent))


class Workload:
    name = None
    cycle = 1  # operations per cycle

    def ops(self, seed):
        raise NotImplementedError

    def trace_set(self, seed):
        return list(itertools.islice(self.ops(seed), self.cycle))

    def load_reference(self):
        raise NotImplementedError

    def check(self, op, code, stdout, reference):
        if code != 0:
            return "exit status %r" % (code,)
        want = reference.get(op.key)
        if want is not None:
            if stdout != want:
                return "stdout differs from the reference"
            return None
        return self.check_invariants(op, stdout)

    def check_invariants(self, op, stdout):
        return "no reference for %s" % op.key


class Census(Workload):
    """`census -n 4 -p 101 --window -3..6 --trials 1 --seed k`, the type
    cycling round-robin over (1; 2), (1,1; 1,1), (2; 2)."""

    name = "census"
    cycle = len(CENSUS_TYPES)

    def ops(self, seed):
        base = seed * CENSUS_SEEDS_PER_RUN
        for i in itertools.count():
            b, bp = CENSUS_TYPES[i % len(CENSUS_TYPES)]
            k = base + i
            argv = ["census", "--b", _intlist(b), "--bprime", _intlist(bp),
                    "-n", str(CENSUS_N), "-p", str(CENSUS_P),
                    "--window", "%d..%d" % CENSUS_WINDOW,
                    "--trials", "1", "--seed", str(k)]
            yield Op("census b=%s bprime=%s seed=%d" % (_intlist(b), _intlist(bp), k),
                     argv, {"b": list(b), "bprime": list(bp), "seed": k})

    def load_reference(self):
        path = REFERENCE / "census.json"
        return json.loads(path.read_text())

    def check_invariants(self, op, stdout):
        """Checks for seeds without a committed reference."""
        try:
            rep = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        want_params = {"b": op.meta["b"], "bprime": op.meta["bprime"], "n": CENSUS_N,
                       "p": CENSUS_P, "trials": 1, "window": list(CENSUS_WINDOW),
                       "seed": op.meta["seed"]}
        if rep.get("params") != want_params:
            return "params %r differ from the command line" % (rep.get("params"),)
        if rep["members"] + rep["nonMembers"] + rep["uncertified"] != 1:
            return "members + nonMembers + uncertified != 1"
        if rep["reconstructionFailures"] != 0:
            return "reconstruction failed"
        tables = rep["distinctTables"]
        if len(tables) != rep["members"]:
            return "%d tables for %d members" % (len(tables), rep["members"])
        for table in tables:
            gamma = {(i, j): v for i, j, v in table["entries"]}
            for col, want in ((0, op.meta["b"]), (1, op.meta["bprime"])):
                got = [gamma.get((i, col - i), 0) for i in range(CENSUS_N + 1)]
                if got != want + [0] * (CENSUS_N + 1 - len(want)):
                    return "table column %d is %r, type says %r" % (col, got, want)
        return None


class Cohomology(Workload):
    """`cohomology --format json --window -4..6` over the .smod corpus."""

    name = "cohomology"
    cycle = len(COHOMOLOGY_FILES)

    def ops(self, seed):
        start = seed % len(COHOMOLOGY_FILES)
        for i in itertools.count(start):
            stem = COHOMOLOGY_FILES[i % len(COHOMOLOGY_FILES)]
            argv = ["cohomology", "--module", _rel(INPUTS / (stem + ".smod")),
                    "--format", "json", "--window", "%d..%d" % COHOMOLOGY_WINDOW]
            yield Op(stem, argv)

    def load_reference(self):
        return json.loads((REFERENCE / "cohomology.json").read_text())


class Quadric(Workload):
    """`betti --direct --imax 4` of the ell=3 quadric e0e1 + e2e3 + e4e5."""

    name = "quadric"
    cycle = 1

    def ops(self, seed):
        argv = ["betti", "--ematrix", _rel(INPUTS / (QUADRIC_FILE + ".emat")),
                "--direct", "--imax", str(QUADRIC_IMAX)]
        while True:
            yield Op(QUADRIC_FILE, argv)

    def load_reference(self):
        return json.loads((REFERENCE / "quadric.json").read_text())


WORKLOADS = {w.name: w for w in (Census(), Cohomology(), Quadric())}
