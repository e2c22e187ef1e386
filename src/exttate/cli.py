"""Command-line interface.

Subcommands map one-to-one onto the library operations; all randomness
flows from --seed, every output is deterministic, and numeric output is
exact integers.  Exit status: 0 success, 1 domain error or out of
memory, 2 parse error.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import gfp
from .errors import DomainError, ParseError, WindowError
from .extalg import Algebra, DEFAULT_PRIME, format_element, parse_element
from .efree import FreeEModule, GradedMap, format_ematrix, parse_ematrix, vectorize_coker
from . import eres
from .smod import parse_smod, slice_presentation, reg_S
from .tate import cohomology_table, descent, pushforward_check, tate_window, tate_from_point
from . import paramspace


def _prime(text):
    """Type of -p: a prime that `gfp.check_prime` accepts, (p-1)^2 < 2^53."""
    try:
        p = int(text)
        gfp.check_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return p


def _nonnegative(text):
    """Type of -n, --seed and --max-steps: an integer >= 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)


def _parse_window(text):
    try:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    except ValueError:
        raise ParseError("bad window %r; expected LO..HI" % text)


def _parse_intlist(text):
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise ParseError("bad integer list %r" % text)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError:
        raise ParseError("cannot read %s: not UTF-8 text" % path)


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc))


def _load_sliced(path, lo, hi, start, p):
    """Parse an .smod file and slice it widely enough for a Tate window,
    retrying with wider windows when reg_S asks for more slices."""
    pres = parse_smod(_read(path), p=p)
    n = pres.ring.n
    base = min(pres.row_degrees) if pres.row_degrees else 0
    whi = max(hi + 1, base + n + 3,
              (max(pres.col_degrees) + n + 3) if pres.col_degrees else 0)
    for _ in range(6):
        m = slice_presentation(pres, (base, whi))
        try:
            k0 = reg_S(m) if start is None else int(start)
            need_hi = max(hi, k0) + 1
            if need_hi > whi:
                whi = need_hi
                continue
            return m, k0
        except WindowError as exc:
            if exc.required is None:
                raise
            whi = max(whi + n + 2, exc.required[1] + 1)
    raise DomainError("could not find a wide enough slice window for %s" % path)


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _records_csv(table, third):
    """CSV of table.records(); `third` names the i + j column."""
    lines = ["i,j,%s,value" % third]
    for record in table.records():
        lines.append("%d,%d,%d,%d" % record)
    return "\n".join(lines)


def _regularity_line(res):
    tag = "certified" if res.certified else ("uncertified after %d steps" % res.steps)
    return "regularity = %d (%s)" % (res.value, tag)


def _presentation(args):
    """phi of --ematrix with --direct, phi-dual otherwise: its cokernel is read."""
    phi = parse_ematrix(_read(args.ematrix), p=args.prime)
    return phi if args.direct else phi.dual()


def cmd_cohomology(args):
    lo, hi = _parse_window(args.window)
    m, k0 = _load_sliced(args.module, lo, hi, args.start, args.prime)
    win = tate_window(m, lo, hi, start=k0)
    table = cohomology_table(win)
    if args.format == "json":
        _emit(table.to_json())
    elif args.format == "csv":
        _emit(_records_csv(table, "k"))
    else:
        _emit(table.format_text())
    return 0


def cmd_tate(args):
    lo, hi = _parse_window(args.window)
    m, k0 = _load_sliced(args.module, lo, hi, args.start, args.prime)
    win = tate_window(m, lo, hi, start=k0)
    if args.format == "json":
        payload = {
            "window": [lo, hi],
            "start": win.start_index,
            "modules": {str(k): win.module(k).twist_summands()
                        for k in range(lo, hi + 1)},
        }
        _emit(json.dumps(payload, sort_keys=True))
        return 0
    lines = []
    for k in range(lo, hi + 1):
        lines.append("T^%d = %r" % (k, win.module(k)))
    if args.matrices:
        for k in range(lo, hi):
            lines.append("# differential %d -> %d" % (k, k + 1))
            lines.append(format_ematrix(win.diff(k)).rstrip("\n"))
    _emit("\n".join(lines))
    return 0


def cmd_betti(args):
    res = eres.minimal_free_resolution(_presentation(args), args.imax)
    table = eres.BettiTable({(i, j): v for (i, j), v in res.betti_table().entries.items()
                             if i <= args.imax})
    if args.format == "json":
        _emit(json.dumps({"entries": [[i, j, v] for (i, j, _, v) in table.records()]},
                         sort_keys=True))
    elif args.format == "csv":
        _emit(_records_csv(table, "row"))
    else:
        _emit(table.format_text())
    return 0


def cmd_reg(args):
    res = eres.regularity(_presentation(args), stab_window=args.stab_window,
                          max_steps=args.max_steps)
    _emit(_regularity_line(res))
    return 0


def cmd_alpha(args):
    phi = _presentation(args)
    m = vectorize_coker(phi)
    if args.k is not None:
        ks = [int(args.k)]
    else:
        klo, khi = _parse_window(args.k_range)
        if klo > khi:
            raise DomainError("empty k range [%d, %d]" % (klo, khi))
        ks = list(range(klo, khi + 1))
    reg = eres.regularity(phi, stab_window=args.stab_window)
    scanner = eres.CartanScanner(m)
    lines = []
    for k in ks:
        lines.append("alpha_%d = %d" % (k, eres.alpha(scanner, k, reg)))
    if args.check_hilbert:
        lo, hi = m.support()
        for e in range(lo, hi + 1):
            rhs = eres.alpha_hilbert_rhs(scanner, e, reg)
            lines.append("degree %d: dim = %d, alpha formula = %d%s"
                         % (e, m.dim(e), rhs, "" if rhs == m.dim(e) else "  MISMATCH"))
    _emit("\n".join(lines))
    return 0


def cmd_descend(args):
    lo, hi = _parse_window(args.window)
    if args.module:
        m, k0 = _load_sliced(args.module, lo, hi, args.start, args.prime)
        win = tate_window(m, lo, hi, start=k0)
    else:
        phi = parse_ematrix(_read(args.ematrix), p=args.prime)
        win = tate_from_point(phi, lo, hi)
    table = cohomology_table(win)
    reg_upper = args.reg_upper
    if reg_upper is None:
        obs = table.max_regularity()
        reg_upper = max(0, obs) if obs is not None else 0
    n0, basis = descent(win, reg_upper)
    lines = ["n0 = %d" % n0]
    for el in basis:
        lines.append("span: %s" % format_element(el))
    _emit("\n".join(lines))
    return 0


def cmd_push_check(args):
    lo, hi = _parse_window(args.window)
    m, k0 = _load_sliced(args.module, lo, hi, args.start, args.prime)
    ok = pushforward_check(m, lo, hi, start=k0)
    _emit("pushforward invariance: %s" % ("OK" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_sample(args):
    tvec = paramspace.TypeVectors(_parse_intlist(args.b), _parse_intlist(args.bprime))
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    prime = args.prime if args.prime is not None else DEFAULT_PRIME
    point = paramspace.sample(tvec, args.n, rng, p=prime)
    text = format_ematrix(point.phi)
    d = paramspace.degree_sequence(tvec)
    header = "# type b=%s b'=%s d=%s seed=%d\n" % (
        list(tvec.b), list(tvec.bprime), list(d), args.seed)
    if args.out:
        _write(args.out, header + text)
    else:
        _emit(header + text)
    return 0


def cmd_census(args):
    tvec = paramspace.TypeVectors(_parse_intlist(args.b), _parse_intlist(args.bprime))
    lo, hi = _parse_window(args.window)
    report = paramspace.census(tvec, args.n, args.trials, (lo, hi), args.seed,
                               p=args.prime, stab_window=args.stab_window)
    if args.format == "text":
        lines = ["census type b=%s b'=%s n=%d p=%d trials=%d seed=%d" % (
            list(tvec.b), list(tvec.bprime), args.n, report["params"]["p"],
            args.trials, args.seed)]
        lines.append("members=%d nonMembers=%d uncertified=%d failures=%d" % (
            report["members"], report["nonMembers"], report["uncertified"],
            report["reconstructionFailures"]))
        lines.append("distinct tables: %d" % len(report["distinctTables"]))
        lines.append("max regularity: %s" % report["maxRegularity"])
        lines.append("max descent dim: %s" % report["maxDescentDim"])
        lines.append("z histogram: %s" % json.dumps(report["zHistogram"], sort_keys=True))
        _emit("\n".join(lines))
    else:
        _emit(json.dumps(report, sort_keys=True))
    return 0


def cmd_mccullough(args):
    ell = args.ell
    if ell < 1:
        raise DomainError("need --ell >= 1")
    n = 2 * ell - 1
    alg = Algebra(n, args.prime if args.prime is not None else DEFAULT_PRIME)
    terms = " + ".join("e%d*e%d" % (2 * m, 2 * m + 1) for m in range(ell))
    q = parse_element(alg, terms)
    quadric = GradedMap(FreeEModule(alg, (-2,)), FreeEModule(alg, (0,)), {(0, 0): q})
    res = eres.regularity(quadric, stab_window=args.stab_window, max_steps=args.max_steps)
    _emit("quadric with %d terms over %d variables (GF(%d))" % (ell, n + 1, alg.p))
    _emit(_regularity_line(res))
    expected = ell - 2
    verdict = "OK" if (res.certified and res.value == expected) else "MISMATCH"
    _emit("expected l-2 = %d: %s" % (expected, verdict))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first `main` call and then kept."""
    ap = argparse.ArgumentParser(
        prog="exttate",
        description="Exact exterior-algebra engine: Tate windows, cohomology "
                    "tables, Betti tables, and (b,b') parameter-space experiments.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", "--prime", type=_prime, default=None,
                        help="coefficient prime (default %d); overrides the "
                             "p= of a file header, which may then omit it"
                             % DEFAULT_PRIME)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("cohomology", cmd_cohomology, help="cohomology table of a sheaf")
    sp.add_argument("--module", required=True, help=".smod presentation file")
    sp.add_argument("--window", required=True, help="column window LO..HI")
    sp.add_argument("--start", type=int, default=None, help="Tate start index")
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")

    sp = add("tate", cmd_tate, help="Tate resolution window")
    sp.add_argument("--module", required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--start", type=int, default=None)
    sp.add_argument("--matrices", action="store_true", help="print differentials")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = add("betti", cmd_betti, help="Betti table over E of coker of a matrix")
    sp.add_argument("--ematrix", required=True, help=".emat file")
    sp.add_argument("--direct", action="store_true",
                    help="use coker(phi) instead of coker(phi-dual)")
    sp.add_argument("--imax", type=int, default=6)
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")

    sp = add("reg", cmd_reg, help="regularity of coker of a matrix over E")
    sp.add_argument("--ematrix", required=True)
    sp.add_argument("--direct", action="store_true")
    sp.add_argument("--stab-window", type=int, default=None)
    sp.add_argument("--max-steps", type=_nonnegative, default=60)

    sp = add("alpha", cmd_alpha, help="alternating Betti sums alpha_k")
    sp.add_argument("--ematrix", required=True)
    sp.add_argument("--direct", action="store_true")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--k-range", default=None, help="A..B")
    sp.add_argument("--check-hilbert", action="store_true")
    sp.add_argument("--stab-window", type=int, default=None)

    sp = add("descend", cmd_descend, help="smallest linear subspace carrying the sheaf")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", default=None)
    group.add_argument("--ematrix", default=None)
    sp.add_argument("--window", required=True)
    sp.add_argument("--start", type=int, default=None)
    sp.add_argument("--reg-upper", type=int, default=None)

    sp = add("push-check", cmd_push_check, help="pushforward invariance of the table")
    sp.add_argument("--module", required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--start", type=int, default=None)

    sp = add("sample", cmd_sample, help="sample a matrix of type (b, b')")
    sp.add_argument("--b", required=True, help="comma list, e.g. 1,3")
    sp.add_argument("--bprime", required=True)
    sp.add_argument("-n", type=_nonnegative, required=True)
    sp.add_argument("--seed", type=_nonnegative, required=True)
    sp.add_argument("--out", default=None)

    sp = add("census", cmd_census, help="sample many points and aggregate tables")
    sp.add_argument("--b", required=True)
    sp.add_argument("--bprime", required=True)
    sp.add_argument("-n", type=_nonnegative, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=_nonnegative, required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--stab-window", type=int, default=None)
    sp.add_argument("--format", choices=["text", "json"], default="json")

    sp = add("mccullough", cmd_mccullough, help="regularity of the l-term quadric quotient")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--stab-window", type=int, default=None)
    sp.add_argument("--max-steps", type=_nonnegative, default=24)

    return ap


def _glue_window_flags(argv):
    """Join '--window -2..2' into '--window=-2..2' so argparse accepts
    values that begin with a minus sign."""
    out = []
    i = 0
    flags = {"--window", "--k-range", "--b", "--bprime"}
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    args = ap.parse_args(_glue_window_flags(list(argv)))
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except WindowError as exc:
        sys.stderr.write("window error: %s\n" % exc)
        return 1
    except DomainError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except MemoryError as exc:  # numpy's allocation error subclasses it
        sys.stderr.write("error: out of memory: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
