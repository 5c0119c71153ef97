import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reference_kernels import is_square_free_trial, pair_text_fraction
from tilegroups.exactnum import (
    DiscriminantMismatch,
    QuadraticRational as QR,
    _join,
    _lowest,
    _make,
    _place,
    frame_text,
    golden_ratio,
    is_square_free,
    pair_text,
)


def tau():
    return golden_ratio()


class TestArithmetic:
    def test_additive_identity(self):
        x = QR(1, 1, 5)
        assert x + QR(0, 0, 5) == x

    def test_golden_ratio_square(self):
        # expand ((1+sqrt5)/2)^2 = (6+2*sqrt5)/4 = 3/2 + 1/2*sqrt5 by hand
        assert tau() * tau() == QR(Fraction(3, 2), Fraction(1, 2), 5)
        assert tau() * tau() == tau() + 1

    def test_rational_subfield_division(self):
        assert QR(2, 0, 5) / QR(1, 0, 5) == QR(2)

    def test_division_by_conjugate(self):
        x = QR(1) / tau()
        assert x == tau() - 1  # 1/tau = tau - 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QR(1) / QR(0)

    def test_discriminant_mismatch(self):
        with pytest.raises(DiscriminantMismatch):
            QR.sqrt_of(2) + QR.sqrt_of(5)

    def test_rational_embeds_into_any_field(self):
        assert QR(2) + QR.sqrt_of(5) == QR(2, 1, 5)

    def test_non_square_free_rejected(self):
        with pytest.raises(ValueError):
            QR(0, 1, 8)

    def test_disc_one_folds(self):
        assert QR(1, 2, 1) == QR(3)


class TestSquareFree:
    def test_matches_trial_division(self):
        assert [d for d in range(-3, 20000) if is_square_free(d) != is_square_free_trial(d)] == []

    @given(st.integers(2, 10**5), st.integers(1, 10**4))
    def test_square_factor_found(self, q, m):
        assert not is_square_free(q * q * m)

    def test_beyond_the_cube_root(self):
        # what is left after trial division to the cube root: a prime, a
        # product of two distinct primes, or the square of a prime
        p, q = 1000003, 999983
        assert is_square_free(p) and is_square_free(p * q) and is_square_free(10000000000037)
        assert not is_square_free(p * p) and not is_square_free(p * p * q)


class TestSign:
    def test_zero(self):
        assert QR(0, 0, 5).sign() == 0

    def test_tau_minus_one_positive(self):
        # sqrt(5) > 1 so tau - 1 = (-1+sqrt5)/2 > 0
        assert (tau() - 1).sign() == 1

    def test_two_minus_sqrt5_negative(self):
        # 4 < 5
        assert (QR(2) - QR.sqrt_of(5)).sign() == -1

    def test_ordering(self):
        assert QR(1) < tau() < QR(2)


class TestConversions:
    def test_tau_float(self):
        assert abs(tau().to_float() - 1.6180339887) < 1e-9

    def test_one_float(self):
        assert QR(1).to_float() == 1.0

    def test_inverse_tau_float(self):
        assert abs((tau() - 1).to_float() - 0.6180339887) < 1e-9

    def test_floor(self):
        assert tau().floor() == 1
        assert (-tau()).floor() == -2
        assert QR(3).floor() == 3

    def test_floor_beyond_float_range(self):
        # sqrt(5) = 2.236...; the value overflows a double
        assert QR(10**400, 1, 5).floor() == 10**400 + 2
        assert QR(10**400, -1, 5).floor() == 10**400 - 3
        assert QR(Fraction(1, 3), 10**400, 2).ceil() == QR(Fraction(1, 3), 10**400, 2).floor() + 1

    def test_ceil(self):
        assert tau().ceil() == 2
        assert (-tau()).ceil() == -1
        assert QR(3).ceil() == 3
        assert QR(Fraction(-7, 2)).ceil() == -3

    def test_nearest_int_tie_raises(self):
        with pytest.raises(ValueError):
            QR(Fraction(5, 2)).nearest_int()


class TestTextForm:
    @pytest.mark.parametrize("text,value", [
        ("2", QR(2)),
        ("-1/2", QR(Fraction(-1, 2))),
        ("sqrt(5)", QR.sqrt_of(5)),
        ("3/2+1/2*sqrt(5)", QR(Fraction(3, 2), Fraction(1, 2), 5)),
        ("1-sqrt(2)", QR(1, -1, 2)),
        ("0", QR(0)),
    ])
    def test_parse(self, text, value):
        assert QR.from_string(text) == value

    def test_roundtrip(self):
        for v in (tau(), -tau(), QR(0), QR(Fraction(-7, 3)), QR(0, 2, 3)):
            assert QR.from_string(str(v)) == v

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            QR.from_string("sqrt(5)+sqrt(2)x")

    @pytest.mark.parametrize("value", [1, None, ["1"]])
    def test_non_string_rejected(self, value):
        with pytest.raises(ValueError, match="a number is written as a string"):
            QR.from_string(value)

    @pytest.mark.parametrize("text", ["1/0", "1/0*sqrt(5)", "2+3/0*sqrt(5)", "0/0"])
    def test_zero_denominator_names_text(self, text):
        with pytest.raises(ValueError) as info:
            QR.from_string(text)
        assert str(info.value) == f"zero denominator in {text!r}"


@st.composite
def unnormalised_pairs(draw):
    """(a, b, c, d) with c > 0, common factors left in, and a = 0, b = 0 and
    b = +-c drawn often."""
    c = draw(st.integers(1, 60))
    a = draw(st.one_of(st.just(0), st.integers(-10**4, 10**4)))
    b = draw(st.one_of(st.sampled_from([0, c, -c]), st.integers(-10**4, 10**4)))
    k = draw(st.sampled_from([1, 2, 6, 35]))
    return a * k, b * k, c * k, draw(st.sampled_from([2, 3, 5, 1000003]))


@given(unnormalised_pairs())
def test_pair_text_prints_each_part_reduced(pair):
    a, b, c, d = pair
    text = pair_text(a, b, c, d)
    assert text == pair_text_fraction(a, b, c, d)
    assert QR.from_string(text) == _make(a, b, c, d)
    assert str(_make(a, b, c, d)) == text


@st.composite
def text_frames(draw):
    """(c, d, rows): c up to about 10^30 with common factors left in, 0 to 40
    rows whose parts come from a pool of at most four, each moved by a
    multiple of c, so residues repeat; 0 and +-k*c (b = +-c among them) are
    drawn often, and entries of either sign."""
    c = draw(st.one_of(st.integers(1, 60), st.integers(1, 10**30)))
    part = st.one_of(st.just(0), st.integers(-3, 3).map(lambda k: k * c), st.integers(-2 * c, 2 * c),
                     st.integers(-10**4, 10**4))
    pool = draw(st.lists(part, min_size=1, max_size=4))
    moved = st.builds(lambda x, k: x + k * c, st.sampled_from(pool), st.sampled_from([0, 0, -1, 1, 5]))
    rows = draw(st.lists(st.tuples(moved, moved), max_size=40))
    k = draw(st.sampled_from([1, 2, 6, 35]))
    return c * k, draw(st.sampled_from([2, 3, 5, 1000003])), [(a * k, b * k) for a, b in rows]


@given(text_frames())
def test_frame_text_prints_every_row_as_pair_text(frame):
    c, d, rows = frame
    texts = frame_text(c, d, rows)
    assert texts == [pair_text(a, b, c, d) for a, b in rows]
    assert texts == [pair_text_fraction(a, b, c, d) for a, b in rows]


def test_frame_text_of_the_empty_frame():
    assert frame_text(12, 2, []) == []


small_fractions = st.fractions(max_denominator=12, min_value=-8, max_value=8)


def qr5(rat, surd):
    return QR(rat, surd, 5)


@given(small_fractions, small_fractions, small_fractions, small_fractions,
       small_fractions, small_fractions)
def test_field_axioms(a, b, c, d, e, f):
    x, y, z = qr5(a, b), qr5(c, d), qr5(e, f)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_sign_multiplicative(a, b, c, d):
    x, y = qr5(a, b), qr5(c, d)
    assert (x * y).sign() == x.sign() * y.sign()


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_sign_separates_equality(a, b, c, d):
    x, y = qr5(a, b), qr5(c, d)
    assert ((x - y).sign() == 0) == (x == y)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_division_inverts_multiplication(a, b, c, d):
    x, y = qr5(a, b), qr5(c, d)
    if y.sign() != 0:
        assert (x * y) / y == x


big_ints = st.integers(min_value=-10**60, max_value=10**60)
denominators = st.integers(min_value=1, max_value=10**30)
discriminants = st.sampled_from([2, 3, 5, 1000003, 10**9 + 7])


@given(big_ints, denominators, big_ints, denominators, discriminants)
def test_floor_and_ceil_bracket_the_value(p, q, r, s, d):
    x = QR(Fraction(p, q), Fraction(r, s), d)
    n = x.floor()
    assert (x - n).sign() >= 0 > (x - (n + 1)).sign()
    c = x.ceil()
    assert (x - c).sign() <= 0 < (x - (c - 1)).sign()


# frames (c, d, rows) for the frame kernels: rows of two or four entries,
# pairs (a, b) for (a + b*sqrt(d))/c, every b = 0 when d = 0
FRAME_DISCS = (0, 2, 5, 1000003)
FRAME_DENOMINATORS = (1, 2, 3, 7, 12)


@st.composite
def frames(draw, d=None, width=None):
    d = draw(st.sampled_from(FRAME_DISCS)) if d is None else d
    width = draw(st.sampled_from((2, 4))) if width is None else width
    # zero entries often, so that frames whose surd parts all vanish are common
    entry = st.one_of(st.just(0), st.integers(-60, 60))
    row = st.tuples(*[entry if i % 2 == 0 or d else st.just(0) for i in range(width)])
    return draw(st.sampled_from(FRAME_DENOMINATORS)), d, tuple(draw(st.lists(row, max_size=5)))


def frame_values(c, d, rows):
    """The rows as exact (rational part, surd coefficient) Fractions."""
    return [tuple((Fraction(r[i], c), Fraction(r[i + 1], c)) for i in range(0, len(r), 2)) for r in rows]


@given(st.data())
def test_join_and_place_keep_every_value(data):
    d = data.draw(st.sampled_from(FRAME_DISCS))
    width = data.draw(st.sampled_from((2, 4)))
    # a rational frame joins any field
    fs = [data.draw(frames(data.draw(st.sampled_from((0, d))), width)) for _ in range(data.draw(st.integers(1, 3)))]
    c, e, *placed = _join(*fs)
    assert c == math.lcm(*[k for k, _, _ in fs]) and e == max(f[1] for f in fs)
    for (k, f_d, rows), got in zip(fs, placed):
        assert frame_values(c, e, got) == frame_values(k, f_d, rows)
    k, f_d, rows = fs[0]
    m = data.draw(st.sampled_from(FRAME_DENOMINATORS))
    assert frame_values(k * m, e, _place(fs[0], k * m, e)) == frame_values(k, f_d, rows)


@given(frames(), st.sampled_from(FRAME_DENOMINATORS), st.sampled_from(FRAME_DENOMINATORS))
def test_cut_is_canonical(frame, m1, m2):
    # one value set over two denominators cuts to one tuple, in lowest terms
    k, d, rows = frame
    cuts = [_lowest(k * m, d, tuple(tuple(x * m for x in r) for r in rows)) for m in (m1, m2)]
    assert cuts[0] == cuts[1] == _lowest(k, d, rows)
    c, e, cut = cuts[0]
    assert type(cut) is tuple and all(type(r) is tuple for r in cut)
    assert frame_values(c, e, cut) == frame_values(k, d, rows)
    assert math.gcd(c, *[x for r in cut for x in r]) == 1
    assert e == (d if any(x for r in rows for x in r[1::2]) else 0)


@given(frames(), st.sampled_from(FRAME_DENOMINATORS), st.sampled_from(FRAME_DISCS))
def test_place_refuses_what_does_not_fit(frame, c, d):
    # in lowest terms, a frame fits a denominator it divides and its own
    # field (or any field when rational); no other frame holds its values
    k, e, rows = _lowest(*frame)
    assert (_place((k, e, rows), c, d) is not None) == (c % k == 0 and e in (0, d))
    if c % k and rows:
        # some entry is no integer over c
        assert any((Fraction(x, k) * c).denominator > 1 for r in rows for x in r)
    if e not in (0, d):
        # some surd part is nonzero, and d is another field
        assert any(x for r in rows for x in r[1::2])


@given(st.sampled_from([(2, 5), (5, 1000003), (2, 1000003)]), st.sampled_from((2, 4)), st.data())
def test_join_of_mixed_fields_raises(fields, width, data):
    a, b = (data.draw(frames(d, width)) for d in fields)
    with pytest.raises(DiscriminantMismatch):
        _join(a, b)
    with pytest.raises(DiscriminantMismatch):
        _join(b, (1, 0, ()), a)
