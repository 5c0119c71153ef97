"""The strip kernel shared by the three lattice scans, the common-denominator
helper under it, and the rule that no float enters a decision in src/."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from tilegroups.exactnum import DiscriminantMismatch, QuadraticRational as QR, common_denominator
from tilegroups.modelset import _strip_rows
from tilegroups.pointset import difference_group_invariants

SRC = Path(__file__).resolve().parent.parent / "src" / "tilegroups"


@st.composite
def field_values(draw, d: int, nonzero: bool = False):
    a = draw(st.integers(-6, 6))
    b = draw(st.integers(-4, 4)) if d else 0
    c = draw(st.integers(1, 4))
    assume(not nonzero or a or b)
    return QR(Fraction(a, c), Fraction(b, c), d if b else 0)


@st.composite
def bands(draw, d: int):
    """A band (lo, hi, c1, c2): zero width and the c1 = 0 box clip included."""
    if draw(st.booleans()):
        bound = draw(st.integers(0, 5))
        return QR(-bound), QR(bound), QR(0), QR(1)
    lo = draw(field_values(d))
    width = draw(st.one_of(st.just(QR(0)), field_values(d).map(abs)))
    return lo, lo + width, draw(field_values(d)), draw(field_values(d, nonzero=True))


def brute_rows(ns, band_list):
    """(n, m_lo, m_hi) by testing lo <= c1*n + c2*m <= hi over a wide m range."""
    # every m of a row lies within (|lo| + |hi| + |c1*n|)/|c2| of 0 for each band
    reach = min(((abs(lo) + abs(hi) + abs(c1) * max(map(abs, ns))) / abs(c2)).floor()
                for lo, hi, c1, c2 in band_list)
    rows = []
    for n in ns:
        ms = [m for m in range(-reach - 2, reach + 3)
              if all(lo <= c1 * n + c2 * m <= hi for lo, hi, c1, c2 in band_list)]
        if ms:
            assert ms == list(range(ms[0], ms[-1] + 1))  # a strip is convex
            rows.append((n, ms[0], ms[-1]))
    return rows


NS = range(-5, 6)


@given(st.data(), st.sampled_from([0, 2, 5]), st.integers(2, 3))
def test_strip_rows_match_brute_filter(data, d, count):
    band_list = [data.draw(bands(d)) for _ in range(count)]
    assert list(_strip_rows(NS, band_list)) == brute_rows(NS, band_list)


@pytest.mark.parametrize("band_list", [
    # negative c2 in Q(sqrt5): the band ends swap after division
    [(QR(-2), QR(3), QR(Fraction(1, 2), Fraction(1, 2), 5), QR(Fraction(1, 2), Fraction(-1, 2), 5)),
     (QR(-4), QR(4), QR(0), QR(1))],
    # a zero-width band in Q(sqrt2): only exact hits survive, most rows are empty
    [(QR(1), QR(1), QR(1), QR.sqrt_of(2)), (QR(-3), QR(3), QR(0), QR(1))],
    # rational zero-width band: m = (1 - n)/2, so every other row is empty
    [(QR(1), QR(1), QR(1), QR(2)), (QR(-3), QR(3), QR(0), QR(1))],
    # three bands, the last one empty for every row
    [(QR(-5), QR(5), QR(1), QR(1)), (QR(-2), QR(2), QR(0), QR(1)),
     (QR(Fraction(1, 3)), QR(Fraction(2, 3)), QR(0), QR(1))],
])
def test_strip_rows_edge_cases(band_list):
    expected = brute_rows(NS, band_list)
    assert list(_strip_rows(NS, band_list)) == expected
    assert len(expected) < len(NS)  # each case has rows that come out empty


@given(st.sampled_from([0, 2, 5]).flatmap(lambda d: st.lists(field_values(d), max_size=6)))
def test_common_denominator_round_trip(values):
    c, d, pairs = common_denominator(values)
    assert c == math.lcm(*(v.triple[2] for v in values))
    assert d == max((v.disc for v in values), default=0)
    assert len(pairs) == len(values)
    for v, (a, b) in zip(values, pairs):
        assert QR(Fraction(a, c), Fraction(b, c), d if b else 0) == v


def test_common_denominator_rejects_mixed_fields():
    with pytest.raises(DiscriminantMismatch):
        common_denominator([QR.sqrt_of(2), QR(Fraction(1, 3)), QR.sqrt_of(5)])
    with pytest.raises(ValueError):
        difference_group_invariants([QR.sqrt_of(2), QR.sqrt_of(5)])


def _float_uses(tree: ast.AST) -> list[int]:
    """Line numbers of float(...), math.sqrt and .to_float() outside the
    body of QuadraticRational.to_float."""
    allowed: set[int] = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "QuadraticRational":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "to_float":
                    allowed.update(id(node) for node in ast.walk(fn))
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" and isinstance(node.value, ast.Name):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name == "sqrt" for alias in node.names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "to_float"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_in_src(path):
    assert _float_uses(ast.parse(path.read_text())) == []


def test_float_scan_sees_floats():
    src = "import math\nx = float(2)\ny = math.sqrt(2)\nz = v.to_float()\nfrom math import sqrt\n"
    assert sorted(_float_uses(ast.parse(src))) == [2, 3, 4, 5]
