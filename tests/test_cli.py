"""CLI behavior: exit codes, determinism, file errors, format round trips."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import exttate
from exttate import cli, efree
from exttate.cli import main
from exttate.tate import CohomologyTable

CUBIC = """ring n=2 p=32003
rowdegs=[0] coldegs=[3]
entry 0 0 : x0^3 + x1^3 + x2^3
"""

POINT = """ealg n=2 p=32003
rowdegs=[1] coldegs=[0]
entry 0 0 : e0
"""


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.smod"
    path.write_text(CUBIC)
    return str(path)


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "pt.emat"
    path.write_text(POINT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_text_and_determinism(capsys, cubic_file):
    code, out1, _ = run(capsys, "cohomology", "--module", cubic_file, "--window", "-2..2")
    assert code == 0
    assert "9" in out1 and "6" in out1
    code, out2, _ = run(capsys, "cohomology", "--module", cubic_file, "--window", "-2..2")
    assert out1 == out2


def test_cohomology_json_round_trip(capsys, cubic_file):
    code, out, _ = run(capsys, "cohomology", "--module", cubic_file,
                       "--window", "-2..2", "--format", "json")
    assert code == 0
    tab = CohomologyTable.from_json(out)
    assert tab.row(1) == (9, 6, 3, 1, 0)
    assert tab.row(0) == (0, 0, 1, 3, 6)


def test_cohomology_csv(capsys, cubic_file):
    code, out, _ = run(capsys, "cohomology", "--module", cubic_file,
                       "--window", "-2..2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,k,value"
    rows = {tuple(map(int, ln.split(",")[:2])): int(ln.split(",")[3]) for ln in lines[1:]}
    assert rows[(1, -3)] == 9 and rows[(0, 2)] == 6


def test_cohomology_below_regularity_reports_the_defect(capsys):
    """Started at 0, below the plane cubic's regularity 2, the window's BGG
    part is not exact; the check reports the position and the defect."""
    path = Path(__file__).parents[1] / "bench" / "inputs" / "plane_cubic.smod"
    code, out, err = run(capsys, "cohomology", "--module", str(path), "--window", "-4..6",
                         "--start", "0")
    assert (code, out) == (1, "")
    assert err == "error: Tate window not exact at position 2 (defect 1)\n"


def test_malformed_module_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.smod"
    bad.write_text("ring n=2 p=32003\nrowdegs=[0] coldegs=[3]\nentry 0 0 : y0^3\n")
    code, _, err = run(capsys, "cohomology", "--module", str(bad), "--window", "-1..1")
    assert code == 2
    assert "line 3" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "cohomology", "--module", "/nonexistent.smod",
                       "--window", "-1..1")
    assert code == 2


def test_betti_reg_alpha_on_point(capsys, point_file):
    code, out, _ = run(capsys, "betti", "--ematrix", point_file, "--imax", "3")
    assert code == 0 and "1 1 1 1" in " ".join(out.split())
    code, out, _ = run(capsys, "reg", "--ematrix", point_file)
    assert code == 0 and "regularity = 0 (certified)" in out
    code, out, _ = run(capsys, "alpha", "--ematrix", point_file, "--k", "0")
    assert code == 0 and "alpha_0 = 1" in out
    code, out, _ = run(capsys, "alpha", "--ematrix", point_file,
                       "--k-range", "-2..0", "--check-hilbert")
    assert code == 0 and "MISMATCH" not in out


def test_betti_csv_records(capsys, point_file):
    code, out, _ = run(capsys, "betti", "--ematrix", point_file, "--imax", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,row,value"
    assert "0,0,0,1" in lines and "1,-1,0,1" in lines


def test_only_alpha_vectorizes_a_cokernel(capsys, monkeypatch, point_file):
    """betti, reg and mccullough resolve the presentation itself; alpha
    vectorizes its cokernel once, for the Cartan scanner."""
    calls = []
    vectorize = efree.vectorize_coker

    def counted(f):
        calls.append(f)
        return vectorize(f)

    for mod in (efree, cli):
        monkeypatch.setattr(mod, "vectorize_coker", counted)
    for argv, want in [(["betti", "--ematrix", point_file], 0),
                       (["reg", "--ematrix", point_file, "--direct"], 0),
                       (["mccullough", "--ell", "2"], 0),
                       (["alpha", "--ematrix", point_file, "--k", "0"], 1)]:
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == want, argv


def test_parser_is_built_once(capsys, point_file):
    """The argument parser is built on the first `main` call and reused."""
    cli.build_parser.cache_clear()
    outs = [run(capsys, "reg", "--ematrix", point_file)[1] for _ in range(2)]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert outs[0] == outs[1] == "regularity = 0 (certified)\n"


def test_push_check_and_descend(capsys, cubic_file, point_file):
    code, out, _ = run(capsys, "push-check", "--module", cubic_file, "--window", "-1..2")
    assert code == 0 and "OK" in out
    code, out, _ = run(capsys, "descend", "--ematrix", point_file, "--window", "-2..4")
    assert code == 0 and "n0 = 0" in out


def test_sample_census_mccullough(capsys, tmp_path):
    out_path = str(tmp_path / "s.emat")
    code, _, _ = run(capsys, "sample", "--b", "1", "--bprime", "1", "-n", "2",
                     "--seed", "5", "--out", out_path)
    assert code == 0
    code, out1, _ = run(capsys, "census", "--b", "1", "--bprime", "1", "-n", "2",
                        "--trials", "6", "--seed", "1", "--window", "-2..4", "-p", "101")
    assert code == 0
    rep = json.loads(out1)
    assert rep["members"] + rep["nonMembers"] + rep["uncertified"] == 6
    code, out2, _ = run(capsys, "census", "--b", "1", "--bprime", "1", "-n", "2",
                        "--trials", "6", "--seed", "1", "--window", "-2..4", "-p", "101")
    assert out1 == out2
    code, out, _ = run(capsys, "mccullough", "--ell", "1")
    assert code == 0
    assert "regularity = -1 (certified)" in out
    assert "expected l-2 = -1: OK" in out


# `sample --b 1 --bprime 2 -n 3 --seed 0 --out pt3.emat`
POINT_N3 = """ealg n=3 p=32003
rowdegs=[1, 1] coldegs=[0]
entry 0 0 : 27222*e0 + 20384*e1 + 16357*e2 + 8633*e3
entry 1 0 : 9851*e0 + 1311*e1 + 2407*e2 + 528*e3
"""

CUBIC_TATE_MATRICES = """T^-1 = E(2)^6
T^0 = E(1)^3 + E(0)^1
T^1 = E(0)^1 + E(-1)^3
T^2 = E(-2)^6
# differential -1 -> 0
ealg n=2 p=32003
rowdegs=[0, -1, -1, -1] coldegs=[-2, -2, -2, -2, -2, -2]
entry 0 0 : e1*e2
entry 0 2 : e0*e2
entry 0 5 : e0*e1
entry 1 0 : e0
entry 1 1 : e1
entry 1 3 : e2
entry 2 1 : e0
entry 2 2 : e1
entry 2 4 : e2
entry 3 3 : e0
entry 3 4 : e1
entry 3 5 : e2
# differential 0 -> 1
ealg n=2 p=32003
rowdegs=[1, 1, 1, 0] coldegs=[0, -1, -1, -1]
entry 0 0 : e0
entry 0 1 : 32002*e1*e2
entry 1 0 : 32002*e1
entry 1 2 : e0*e2
entry 2 0 : e2
entry 2 3 : 32002*e0*e1
entry 3 1 : e0
entry 3 2 : e1
entry 3 3 : e2
# differential 1 -> 2
ealg n=2 p=32003
rowdegs=[2, 2, 2, 2, 2, 2] coldegs=[1, 1, 1, 0]
entry 0 0 : e0
entry 0 3 : e1*e2
entry 1 0 : 32002*e1
entry 1 1 : e0
entry 2 0 : e2
entry 2 2 : e0
entry 3 1 : 32002*e1
entry 3 3 : e0*e2
entry 4 1 : e2
entry 4 2 : 32002*e1
entry 5 2 : e2
entry 5 3 : e0*e1
"""


# a unit entry at (0, 0) and two equal columns: coker(phi) and coker(phi-dual)
# are presented non-minimally, in both ways
UNIT_AND_REPEAT = """ealg n=2 p=101
rowdegs=[0,1] coldegs=[0,-1,-1]
entry 0 0 : 1
entry 1 0 : e0
entry 0 1 : e1
entry 1 1 : e0*e2
entry 0 2 : e1
entry 1 2 : e0*e2
"""


@pytest.mark.parametrize("argv, want", [
    (["tate", "--module", "{cubic}", "--window", "-1..2", "--matrices"],
     CUBIC_TATE_MATRICES),
    (["descend", "--ematrix", "{pt}", "--window", "-2..4"],
     "n0 = 1\nspan: e0 + 29577*e2 + 5482*e3\nspan: e1 + 25530*e2 + 1674*e3\n"),
    (["betti", "--ematrix", "{pt}", "--imax", "4"],
     "row\\i 0 1 2 3 4\n    0 1 2 3 4 5\n"),
    (["reg", "--ematrix", "{pt}"], "regularity = 0 (certified)\n"),
    (["betti", "--ematrix", "{unit}", "--direct", "--imax", "3"],
     "row\\i 0 1 2 3\n    1 1 . . .\n    0 . 1 2 3\n"),
    (["betti", "--ematrix", "{unit}", "--imax", "3"],
     "row\\i 0 1 2 3\n    1 2 . . .\n    0 . 1 2 3\n"),
    (["betti", "--ematrix", "{unit}", "--direct", "--imax", "0"], "row\\i 0\n    1 1\n"),
    (["reg", "--ematrix", "{unit}"], "regularity = 0 (certified)\n"),
    (["alpha", "--ematrix", "{unit}", "--direct", "--k-range", "-3..1"],
     "alpha_-3 = -3\nalpha_-2 = 2\nalpha_-1 = -1\nalpha_0 = 0\nalpha_1 = 1\n"),
], ids=["tate-matrices-cubic", "descend-point-n3", "betti-point-n3", "reg-point-n3",
        "betti-direct-unit", "betti-unit", "betti-direct-unit-step-0", "reg-unit",
        "alpha-direct-unit"])
def test_golden_stdout(capsys, tmp_path, cubic_file, argv, want):
    """Whole stdout, byte for byte: the Tate differentials and descent spans
    print the matrices the Resolver chose, not only Betti numbers; the
    tables of a non-minimal presentation are those of its cokernel."""
    pt = tmp_path / "pt3.emat"
    pt.write_text(POINT_N3)
    unit = tmp_path / "unit.emat"
    unit.write_text(UNIT_AND_REPEAT)
    code, out, _ = run(capsys, *[a.format(cubic=cubic_file, pt=str(pt), unit=str(unit))
                                 for a in argv])
    assert code == 0
    assert out == want


def test_tate_listing(capsys, cubic_file):
    code, out, _ = run(capsys, "tate", "--module", cubic_file, "--window", "-1..2")
    assert code == 0
    assert "T^0" in out and "E(1)^3" in out


# a unit generates the whole target: coker(phi) is zero
ZERO_COKERNEL = """ealg n=2 p=101
rowdegs=[0] coldegs=[0]
entry 0 0 : 1
"""


@pytest.mark.parametrize("argv, files, want", [
    (["betti", "--ematrix", "{pt}", "-p", "4"], {}, 2),
    (["betti", "--ematrix", "{pt}", "-p", str(2 ** 31 - 1)], {}, 2),
    (["betti", "--ematrix", "{bad}"], {"bad.emat": POINT.replace("p=32003", "p=4")}, 2),
    (["cohomology", "--module", "{bad}", "--window", "-1..1"],
     {"bad.smod": CUBIC.replace("p=32003", "p=9")}, 2),
    (["mccullough", "--ell", "2", "-p", "4"], {}, 2),
    (["sample", "--b", "1", "--bprime", "1", "-n", "-1", "--seed", "0"], {}, 2),
    (["census", "--b", "1", "--bprime", "1", "-n", "2", "--trials", "1",
      "--seed", "-1", "--window", "-1..1"], {}, 2),
    (["census", "--b", "1", "--bprime", "1", "-n", "2", "--trials", "1",
      "--seed", "0", "--window", "2..5"], {}, 1),
    (["census", "--b", "1", "--bprime", "1", "-n", "2", "--trials", "1",
      "--seed", "0", "--window", "6..-3"], {}, 1),
    (["census", "--b", "1,1,1,1,1", "--bprime", "1", "-n", "2", "--trials", "2",
      "--seed", "0", "--window", "-2..2"], {}, 1),
    (["sample", "--b", "1", "--bprime", "0,0,0,1", "-n", "2", "--seed", "0"], {}, 1),
    (["reg", "--ematrix", "{pt}", "--stab-window", "0"], {}, 1),
    (["reg", "--ematrix", "{pt}", "--max-steps", "-1"], {}, 2),
    (["mccullough", "--ell", "1", "--max-steps", "-1"], {}, 2),
    (["alpha", "--ematrix", "{pt}", "--k-range", "3..1"], {}, 1),
    (["sample", "--b", "1", "--bprime", "1", "-n", "3", "--seed", "0",
      "--out", "{tmp}/nonexistent/dir/x.emat"], {}, 2),
    (["betti", "--ematrix", "{zero}", "--direct"], {}, (1, "cannot resolve the zero module")),
    (["reg", "--ematrix", "{zero}", "--direct"], {},
     (1, "regularity of the zero module is undefined")),
    (["census", "--b", "0", "--bprime", "1", "-n", "2", "--trials", "1", "--seed", "0",
      "--window", "-3..6"], {}, (1, "cokernel of phi-dual is zero; degenerate point")),
], ids=["p-not-prime", "p-above-bound", "emat-header-p", "smod-header-p", "mccullough-p",
        "sample-negative-n", "census-negative-seed", "census-window-without-0-1",
        "census-empty-window", "census-support-above-n", "sample-support-above-n",
        "stab-window-zero",
        "reg-negative-max-steps", "mccullough-negative-max-steps", "alpha-empty-k-range",
        "sample-out-missing-dir", "betti-zero-cokernel", "reg-zero-cokernel",
        "census-zero-cokernel"])
def test_bad_input_exits_without_traceback(capsys, tmp_path, point_file, argv, files, want):
    """`want` is the exit status, or the exit status and a message on stderr."""
    zero = tmp_path / "zero.emat"
    zero.write_text(ZERO_COKERNEL)
    paths = {"pt": point_file, "tmp": str(tmp_path), "zero": str(zero)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths["bad"] = str(tmp_path / name)
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:  # argparse rejects bad option values
        code = exc.code
    err = capsys.readouterr().err
    want, message = want if isinstance(want, tuple) else (want, None)
    assert code == want
    assert "Traceback" not in err
    if files:
        assert "line 1" in err
    if message:
        assert message in err


@pytest.mark.parametrize("argv, data", [
    (["betti", "--ematrix", "{bad}"], bytes(range(192, 256))),
    (["cohomology", "--module", "{bad}", "--window", "0..1"],
     b"\xff\xfe" + CUBIC.encode("utf-16-le")),
], ids=["emat-random-bytes", "smod-utf16"])
def test_non_utf8_input_exits_without_traceback(capsys, tmp_path, argv, data):
    path = tmp_path / "bad.in"
    path.write_bytes(data)
    code = main([a.format(bad=str(path)) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "not UTF-8 text" in err


QUADRIC_L3 = """ealg n=5 p=32003
rowdegs=[0] coldegs=[-2]
entry 0 0 : e0*e1 + e2*e3 + e4*e5
"""

SCIPY_PROBE = """
import sys
from exttate import cli
assert cli.main(["betti", "--direct", "--imax", "3", "--ematrix", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_quadric_betti_imports_no_scipy(tmp_path):
    """Resolutions run on numpy alone: importing scipy would add to every
    process's start-up time and resident memory."""
    path = tmp_path / "quadric_l3.emat"
    path.write_text(QUADRIC_L3)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exttate.__file__)))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(path)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


QUADRIC_L3_BETTI = """row\\i 0 1  2  3   4   5
    0 1 .  .  .   .   .
   -1 . 1  .  .   .   .
   -3 . . 14 70 216 525
"""


QUADRIC_L3_DIRECT_BETTI_6 = """row\\i 0 1  2  3   4   5    6
    0 1 .  .  .   .   .    .
   -1 . 1  .  .   .   .    .
   -3 . . 14 70 216 525 1100
"""


def _capped_cli(cap, *argv):
    """stdout of the command line argv in a child process whose address
    space is capped at `cap` bytes; fails on a nonzero exit."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(exttate.__file__)))
    proc = subprocess.run([sys.executable, "-m", "exttate.cli", *argv], capture_output=True,
                          text=True, timeout=300, env=env,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _capped_quadric_betti(tmp_path, cap, *argv):
    """stdout of `betti --ematrix <ell=3 quadric> argv` under `_capped_cli`."""
    path = tmp_path / "quadric_l3.emat"
    path.write_text(QUADRIC_L3)
    return _capped_cli(cap, "betti", "--ematrix", str(path), *argv)


def test_quadric_betti_to_step_5_fits_in_one_gib(tmp_path):
    """ell=3 `betti --direct --imax 5` (the quadric of bench/inputs) under a
    1 GiB address space.  Built dense, the generator choice of step 5
    stacks the radical beside an identity block, 3,354 x 12,300 (315 MiB);
    from the nonzeros, no Resolver step builds a dense kernel basis,
    radical or identity block."""
    assert _capped_quadric_betti(tmp_path, 1 << 30, "--direct", "--imax", "5") == QUADRIC_L3_BETTI


def test_quadric_direct_betti_to_step_6_fits_in_512_mib(tmp_path):
    """ell=3 `betti --direct --imax 6` under a 512 MiB address space.  Built
    as dense arrays, such as a 2,160 x 2,625 slice image (43 MiB), the
    covers took the run to about 800 MB and out of memory under this cap;
    built from nonzeros, no Resolver step holds a dense image."""
    got = _capped_quadric_betti(tmp_path, 512 << 20, "--direct", "--imax", "6")
    assert got == QUADRIC_L3_DIRECT_BETTI_6


def test_mccullough_ell_3_fits_in_one_gib():
    """`mccullough --ell 3` under a 1 GiB address space.  With every
    Resolver generator kept as a dense ambient vector it peaked at 1.3 GB;
    kept as its nonzeros, at about 120 MB."""
    assert "regularity = -3 (certified)\n" in _capped_cli(1 << 30, "mccullough", "--ell", "3")


def test_python_dash_m_runs_the_cli():
    """`python -m exttate` is the command line: --help exits 0, and an
    unknown subcommand is a usage error, exit 2 with no traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exttate.__file__)))
    run = [sys.executable, "-m", "exttate"]
    proc = subprocess.run(run + ["--help"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "census" in proc.stdout
    proc = subprocess.run(run + ["nosuch"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr


def test_out_of_memory_exits_without_traceback(capsys, monkeypatch, point_file):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr("exttate.eres.minimal_free_resolution", exhausted)
    code = main(["betti", "--ematrix", point_file])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err == "error: out of memory: Unable to allocate 1.00 TiB for an array\n"
