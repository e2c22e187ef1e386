"""The committed references checked against independent code paths."""

import json
from fractions import Fraction

from exttate.efree import parse_ematrix, vectorize_coker
from exttate.eres import CartanScanner
from exttate.smod import parse_smod, reg_S, slice_presentation
from exttate.tate import CohomologyTable
from workloads import COHOMOLOGY_FILES, COHOMOLOGY_WINDOW, INPUTS, QUADRIC_FILE, WORKLOADS

QUADRIC_BETTI = [1, 1, 14, 70, 216]


def parse_betti_text(text):
    """{(i, j): value} from the text Betti table (rows are i + j)."""
    lines = text.strip().splitlines()
    steps = [int(t) for t in lines[0].split()[1:]]
    out = {}
    for line in lines[1:]:
        row, *cells = line.split()
        for i, cell in zip(steps, cells):
            if cell != ".":
                out[(i, int(row) - i)] = int(cell)
    return out


def test_quadric_betti_numbers_agree_with_the_cartan_strand():
    ref = WORKLOADS["quadric"].load_reference()[QUADRIC_FILE]
    table = parse_betti_text(ref)
    assert [sum(v for (i, _), v in table.items() if i == s) for s in range(5)] \
        == QUADRIC_BETTI
    phi = parse_ematrix((INPUTS / (QUADRIC_FILE + ".emat")).read_text())
    m = vectorize_coker(phi)
    scanner = CartanScanner(m)
    lo, hi = m.support()
    for i in range(5):
        for j in range(lo - i - 1, hi + 1):
            assert scanner.betti(i, j) == table.get((i, j), 0), (i, j)


def interpolate(points):
    """The polynomial through the given (x, y) points, as a callable."""
    def value(x):
        total = Fraction(0)
        for a, ya in points:
            term = Fraction(ya)
            for b, _ in points:
                if b != a:
                    term *= Fraction(x - b, a - b)
            total += term
        return total
    return value


def test_cohomology_tables_agree_with_the_s_side_slices():
    refs = WORKLOADS["cohomology"].load_reference()
    lo, hi = COHOMOLOGY_WINDOW
    for stem in COHOMOLOGY_FILES:
        table = CohomologyTable.from_json(refs[stem])
        pres = parse_smod((INPUTS / (stem + ".smod")).read_text())
        n = pres.ring.n
        m = slice_presentation(pres, (0, hi + 2 * n + 6))
        reg = reg_S(m)
        dims = dict(zip(range(m.lo, m.hi + 1), m.hilbert()))
        # at and above reg_S only H^0 survives, and it is the slice M_k
        for k in range(max(lo, reg), hi + 1):
            alt = sum((-1) ** i * table.get(i, k - i) for i in range(n + 1))
            assert alt == dims[k], (stem, k)
        # the Euler characteristic of every twist in the window is the
        # Hilbert polynomial read off the slices above reg_S
        hilbert = interpolate([(d, dims[d]) for d in range(reg, reg + n + 1)])
        for d in range(reg + n + 1, m.hi + 1):
            assert hilbert(d) == dims[d], (stem, d)
        for j in range(lo, hi - n + 1):
            chi = sum((-1) ** i * table.get(i, j) for i in range(n + 1))
            assert chi == hilbert(j), (stem, j)
        assert json.loads(refs[stem])["anomalies"] == []
