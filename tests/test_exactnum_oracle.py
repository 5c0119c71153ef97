"""The integer-quadruple QuadraticRational against the Fraction-pair class
it replaced (tests/fraction_pair_qr.py), operation by operation."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fraction_pair_qr import QuadraticRational as OldQR
from tilegroups.exactnum import DiscriminantMismatch, QuadraticRational as QR

DISCS = (1, 2, 3, 5, 1000003)

fractions = st.builds(
    Fraction,
    st.integers(-10**12, 10**12),
    st.one_of(st.just(1), st.integers(1, 10**6)),
)
# irrational surd parts, or zero for a rational value
surds = st.one_of(st.just(Fraction(0)), fractions.filter(bool))


@st.composite
def pairs(draw, disc=None):
    """A (new, old) pair built from the same (rat, surd, disc)."""
    d = draw(st.sampled_from(DISCS)) if disc is None else disc
    rat, surd = draw(fractions), draw(surds)
    return QR(rat, surd, d), OldQR(rat, surd, d)


@st.composite
def same_field(draw):
    d = draw(st.sampled_from(DISCS))
    return draw(pairs(d)), draw(pairs(d))


def same(new, old) -> bool:
    return repr(new) == repr(old) and str(new) == str(old)


ARITH = (operator.add, operator.sub, operator.mul)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


@given(same_field(), st.sampled_from(ARITH + (operator.truediv,)))
def test_arithmetic_matches_oracle(xy, op):
    (x, ox), (y, oy) = xy
    if op is operator.truediv and not y:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            ox / oy
        return
    assert same(op(x, y), op(ox, oy))


@given(pairs(), fractions, st.sampled_from(ARITH))
def test_mixed_operands_match_oracle(xo, r, op):
    x, ox = xo
    assert same(op(x, r), op(ox, r))
    assert same(op(r, x), op(r, ox))
    n = r.numerator
    assert same(op(x, n), op(ox, n))
    assert same(op(n, x), op(n, ox))


def _outcome(op, a, b):
    """The integer form and hash of op(a, b), or the error it raises."""
    try:
        r = op(a, b)
    except ZeroDivisionError:
        return ZeroDivisionError
    return (r.triple, r.disc, hash(r)) if isinstance(r, QR) else r


int_operands = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.integers(10**40, 10**41),
    st.integers(-10**41, -10**40),
)


@given(pairs(), int_operands, st.sampled_from(ARITH + (operator.truediv, operator.lt)))
def test_int_operands_match_coerced(xo, n, op):
    # a plain int (or bool) operand, on either side, gives exactly the
    # result of the same operation with QR(n)
    x, _ = xo
    assert _outcome(op, x, n) == _outcome(op, x, QR(n))
    assert _outcome(op, n, x) == _outcome(op, QR(n), x)


@given(pairs())
def test_unary_matches_oracle(xo):
    x, ox = xo
    assert same(-x, -ox)
    assert same(abs(x), abs(ox))
    assert same(x.conjugate(), ox.conjugate())
    assert x.sign() == ox.sign()
    assert bool(x) == bool(ox)
    assert x.is_rational() == ox.is_rational()
    assert x.floor() == ox.floor()
    assert x.ceil() == ox.ceil()
    assert x.to_float() == ox.to_float()


@given(same_field(), st.sampled_from(ORDER))
def test_order_matches_oracle(xy, op):
    (x, ox), (y, oy) = xy
    assert op(x, y) == op(ox, oy)
    assert op(x, x) == op(ox, ox)


@given(pairs())
def test_text_round_trip(xo):
    x, ox = xo
    assert str(x) == str(ox)
    assert repr(x) == repr(ox)
    assert QR.from_string(str(x)) == x
    assert same(QR.from_string(str(x)), OldQR.from_string(str(ox)))


@given(fractions, fractions.filter(bool), fractions, fractions.filter(bool),
       st.sampled_from(ARITH + (operator.truediv, operator.lt)))
def test_discriminant_mismatch_matches_oracle(r1, s1, r2, s2, op):
    for cls in (QR, OldQR):
        with pytest.raises(DiscriminantMismatch):
            op(cls(r1, s1, 2), cls(r2, s2, 5))


@given(st.integers(-10**30, 10**30), fractions)
def test_rational_hash_matches_int_and_fraction(n, r):
    assert hash(QR(n)) == hash(n)
    assert hash(QR(r)) == hash(r)
    assert hash(QR(r, 0, 5)) == hash(r)
    assert QR(r) == r and QR(n) == n


def test_integer_representation_is_normalised():
    x = QR(Fraction(1, 3), Fraction(1, 2), 2)
    assert x.triple == (2, 3, 6)
    assert (x * 6).triple == (2, 3, 1)
    assert QR(Fraction(-4, 6), 0, 5).triple == (-2, 0, 3)
    assert QR(Fraction(-4, 6), 0, 5).disc == 0
    assert (x - x).triple == (0, 0, 1) and (x - x).disc == 0
    assert x.rat == Fraction(1, 3) and x.surd == Fraction(1, 2)


def test_disc_one_fold_is_normalised():
    half = Fraction(1, 2)
    assert QR(half, half, 1) == QR(1) == 1
    assert QR(half, half, 1).triple == (1, 0, 1)
    assert QR(half, -half, 1) == QR(0)
    assert QR.from_string("1/2+1/2*sqrt(1)") == 1
    assert {QR(half, half, 1)} == {1}


BIG = 10**40 + 7
EDGE_RATS = (Fraction(0), Fraction(3), Fraction(-5, 2), Fraction(-7, 9), Fraction(1, 6),
             Fraction(BIG, 3), Fraction(-BIG, 11), Fraction(1, BIG))
EDGE_SURDS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
              Fraction(3, 2), Fraction(-3, 2), Fraction(BIG), Fraction(-BIG, 7), Fraction(2, BIG))


@pytest.mark.parametrize("disc", (1, 2, 5))
def test_text_edge_grid_matches_oracle(disc):
    # zero rational parts, unit and half-integer surds, negative rationals
    # with a denominator, 10^40-sized parts and the sqrt(1) fold
    for rat in EDGE_RATS:
        for surd in EDGE_SURDS:
            assert same(QR(rat, surd, disc), OldQR(rat, surd, disc)), (rat, surd, disc)


def _nearest(x):
    try:
        return x.nearest_int()
    except ValueError as exc:
        return str(exc)


# quarter and half steps, so that exact half-integer ties and values a
# quarter from an integer come up often, with any sign
quarters = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from((1, 2, 4)))


@given(st.one_of(pairs(), st.builds(lambda q: (QR(q), OldQR(q)), quarters),
                 st.builds(lambda q, s, d: (QR(q, s, d), OldQR(q, s, d)),
                           quarters, fractions.filter(bool), st.sampled_from(DISCS))))
def test_nearest_int_matches_oracle(xo):
    # the integer floor of (2a + c + 2b*sqrt(d))/(2c) and the tie test
    # b == 0, 2a == (2n - 1)*c against the Fraction path
    x, ox = xo
    assert _nearest(x) == _nearest(ox)
