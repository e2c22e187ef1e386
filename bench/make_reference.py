"""Write the reference stdout of every benchmark operation at the default seed.

    python3 bench/make_reference.py [census|cohomology|quadric ...]

References pin the program's output: regenerate them only when an output
change is intended, and say so in the change that does it.  Census
references cover the first CENSUS_REFERENCE_OPS operations of the default
seed; later operations and other seeds are checked by invariants.
"""

import itertools
import json
import os
import sys

import worker
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS

CENSUS_REFERENCE_OPS = 300


def build(name):
    wl = WORKLOADS[name]
    count = CENSUS_REFERENCE_OPS if name == "census" else wl.cycle
    out = {}
    for op in itertools.islice(wl.ops(DEFAULT_SEED), count):
        code, stdout, _ = worker.run_op(op)
        if code != 0:
            raise SystemExit("%s exited with %r" % (op.key, code))
        reason = wl.check_invariants(op, stdout) if name == "census" else None
        if reason is not None:
            raise SystemExit("%s: %s" % (op.key, reason))
        out[op.key] = stdout
    return out


def main(argv):
    names = argv or sorted(WORKLOADS)
    os.chdir(worker.ROOT)
    REFERENCE.mkdir(exist_ok=True)
    for name in names:
        ref = build(name)
        path = REFERENCE / (name + ".json")
        path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
        print("%s: %d references -> %s" % (name, len(ref), path))


if __name__ == "__main__":
    main(sys.argv[1:])
