"""In-memory span tracer that wraps the calls into each exttate layer.

The tracer patches functions and methods from the outside: every binding
of a traced function in any loaded ``exttate`` module is replaced by a
wrapper (``exttate.cli.reg_S``, ``exttate.tate.reg_S`` and
``exttate.smod.reg_S`` are three lookups of one function), and methods
are replaced on their class.  Module-level lookups such as
``gfp.echelon`` inside ``gfp.rref`` go through the module attribute, so
nested calls are caught too.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the operation id.  Counters
for the computed work totals are updated at the same call boundaries.
"""

import importlib
import sys
import time

import numpy as np

# (defining module, qualified name) of every traced entry point.
TRACED = [
    ("gfp", "echelon"),
    ("gfp", "rref"),
    ("gfp", "nullspace"),
    ("gfp", "matmul"),
    ("gfp", "extend_column_basis"),
    ("efree", "GradedMap.slice_matrix"),
    ("efree", "vectorize_coker"),
    ("eres", "Resolver.step"),
    ("eres", "resolve_kernel_steps"),
    ("eres", "regularity"),
    ("eres", "CartanScanner.betti"),
    ("smod", "slice_presentation"),
    ("smod", "reg_S"),
    ("smod", "koszul_betti"),
    ("bgg", "bgg_R"),
    ("bgg", "graded_map_homology"),
    ("tate", "tate_window"),
    ("tate", "tate_from_point"),
    ("tate", "TateWindow.check_exact"),
    ("tate", "cohomology_table"),
    ("tate", "descent"),
    ("paramspace", "sample"),
    ("paramspace", "membership_X0"),
    ("paramspace", "reconstruct"),
    ("paramspace", "z_membership"),
    ("cli", "main"),
]

SPAN_NAMES = ["%s.%s" % pair for pair in TRACED]

# Elimination shapes are bucketed by the larger matrix dimension.
SMALL_LIMIT = 64
LARGE_LIMIT = 512
BUCKETS = ("small", "mid", "large")


def elim_bucket(rows, cols):
    """'small' below 64, 'mid' for 64..511, 'large' from 512 on."""
    dim = max(rows, cols)
    if dim < SMALL_LIMIT:
        return "small"
    if dim < LARGE_LIMIT:
        return "mid"
    return "large"


def _shape(a):
    """(rows, cols) as gfp sees its argument after np.atleast_2d."""
    rows, cols = np.atleast_2d(a).shape
    return int(rows), int(cols)


class Tracer:
    """Records spans and counters while installed; restores everything on
    uninstall, so untraced and traced operations can alternate."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.elim = []  # (span index, bucket) for every gfp.echelon call
        self.op = -1
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after(self, name, sid, args, result):
        """Counters computed at the call boundary from arguments/results."""
        if name == "gfp.echelon":
            rows, cols = _shape(args[0])
            bucket = elim_bucket(rows, cols)
            self.elim.append((sid, bucket))
            self._count("gfp.elim.%s_calls" % bucket)
            self._count("gfp.elim.cell_ops", rows * cols * len(result[1]))
        elif name == "gfp.matmul":
            m, k = _shape(args[0])
            n = _shape(args[1])[1]
            self._count("gfp.matmul.flops", 2 * m * k * n)
        elif name == "eres.regularity":
            self._count("eres.regularity.steps", result.steps)
        elif name == "paramspace.membership_X0":
            self._count("paramspace.membership_X0.certified", int(bool(result[1])))

    def wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)
            tracer._after(name, sid, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every traced name where it is looked up."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "exttate" or k.startswith("exttate."))]
        for modname, qual in TRACED:
            home = importlib.import_module("exttate." + modname)
            name = "%s.%s" % (modname, qual)
            if "." in qual:
                clsname, attr = qual.split(".")
                owner = getattr(home, clsname)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self.wrap(orig, name))
                continue
            orig = getattr(home, qual)
            wrapper = self.wrap(orig, name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children.

    Children of one parent do not overlap in a single-threaded program;
    their covered time is still merged as intervals so that the arithmetic
    holds for any span list.
    """
    children = {}
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans, elim=(), counters=None):
    """Aggregate calls, self time and bucket time per span name.

    Returns a dict of metric name -> total: ``<span>.calls``,
    ``<span>.self_s``, ``gfp.elim.<bucket>_s`` (time inside eliminations
    of that shape, nested matmuls included) and the counters.
    """
    selfs = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    for bucket in BUCKETS:
        out["gfp.elim.%s_calls" % bucket] = 0
        out["gfp.elim.%s_s" % bucket] = 0.0
    out["gfp.elim.cell_ops"] = 0
    out["gfp.matmul.flops"] = 0
    out["eres.regularity.steps"] = 0
    out["paramspace.membership_X0.certified"] = 0
    for (name, _, _, _, _), st in zip(spans, selfs):
        out[name + ".calls"] += 1
        out[name + ".self_s"] += st
    for sid, bucket in elim:
        _, start, end, _, _ = spans[sid]
        out["gfp.elim.%s_s" % bucket] += end - start
    for key, val in (counters or {}).items():
        out[key] = out.get(key, 0) + val
    return out
