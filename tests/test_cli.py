"""CLI behavior: exit codes, determinism, file errors, format round trips."""

import json

import pytest

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


def test_tate_listing(capsys, cubic_file):
    code, out, _ = run(capsys, "tate", "--module", cubic_file, "--window", "-1..2")
    assert code == 0
    assert "T^0" in out and "E(1)^3" in out


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
    (["reg", "--ematrix", "{pt}", "--stab-window", "0"], {}, 1),
], ids=["p-not-prime", "p-above-bound", "emat-header-p", "smod-header-p", "mccullough-p",
        "sample-negative-n", "census-negative-seed", "stab-window-zero"])
def test_bad_input_exits_without_traceback(capsys, tmp_path, point_file, argv, files, want):
    paths = {"pt": point_file}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths["bad"] = str(tmp_path / name)
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:  # argparse rejects bad option values
        code = exc.code
    err = capsys.readouterr().err
    assert code == want
    assert "Traceback" not in err
    if files:
        assert "line 1" in err
