from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import diff_lookup, identity_element
from reference_kernels import (
    aligned_union,
    inverse_qr,
    max_above_qr,
    maxset_table_chained,
    multiply_truncated_scan,
    natural_leq_qr,
    pointed_difference_qr,
    qr_form,
)
from tilegroups.cli import case_pointset, reference_cases
from tilegroups.exactnum import QuadraticRational as QR, golden_ratio
from tilegroups.modelset import embeds_oracle, fibonacci_scheme
from tilegroups.pointset import LengthFunction, build_pointset
from tilegroups.patterns import (
    PatternClass,
    inverse,
    is_idempotent,
    make_element,
    max_above,
    maxset_table,
    multiply,
    natural_leq,
    pattern_class,
    max_class_of,
    pointed_difference,
)
from tilegroups.sequences import SequenceSpec, two_sided_window

TAU = golden_ratio()
FIB_SPEC = SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a")


def fib_ps(half_width=12):
    return build_pointset(two_sided_window(FIB_SPEC, half_width), LengthFunction({"a": TAU, "b": QR(1)}))


class TestMakeElement:
    @pytest.mark.parametrize("offsets, out_index, in_index, message", [
        ((), 0, 0, "non-empty"),
        ((QR(0), TAU, QR(1)), 0, 0, "strictly increasing"),
        ((QR(0), QR(0)), 0, 1, "strictly increasing"),
        ((QR(1), TAU), 0, 0, "minimum offset 0"),
        ((QR(0), TAU), 2, 0, "out of range"),
        ((QR(0), TAU), 0, -1, "out of range"),
    ])
    def test_public_constructor_rejects_bad_input(self, offsets, out_index, in_index, message):
        # pattern_class and inverse skip these checks; the constructor keeps them
        with pytest.raises(ValueError, match=message):
            PatternClass(offsets, out_index, in_index)

    def test_canonical_form_passes_the_public_checks(self):
        x = pattern_class([TAU + 2, QR(1), QR(3)], QR(3), QR(1))
        assert x == PatternClass(x.offsets, x.out_index, x.in_index) == PatternClass((QR(0), QR(2), TAU + 1), 1, 0)
        assert inverse(x) == PatternClass(x.offsets, 0, 1)

    def test_identity_idempotent(self):
        ps = fib_ps(4)
        e = make_element(ps, [0], 0, 0)
        assert e == PatternClass((QR(0),), 0, 0) == identity_element()

    def test_canonical_shift(self):
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        assert x.offsets == (QR(0), TAU) and x.out_index == 1 and x.in_index == 0

    def test_subtract_min(self):
        x = pattern_class([TAU, TAU + 1], TAU + 1, TAU)
        assert x.offsets == (QR(0), QR(1))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            make_element(fib_ps(4), [], 0, 0)

    def test_pointed_outside_subset_rejected(self):
        with pytest.raises(ValueError):
            make_element(fib_ps(4), [0, 1], 0, 2)

    @pytest.mark.parametrize("out, in_", [(QR(1), QR(0)), (QR(0), QR(1))], ids=["out", "in"])
    def test_pointed_value_outside_pattern_rejected(self, out, in_):
        with pytest.raises(ValueError, match="pointed values must belong to the pattern"):
            pattern_class([QR(0), TAU], out, in_)


class TestMultiply:
    def test_identity_law(self):
        ps = fib_ps()
        e = identity_element()
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        r = multiply(e, x, ps)
        assert r.is_defined and r.value == x
        r2 = multiply(x, e, ps)
        assert r2.is_defined and r2.value == x

    def test_ba_product(self):
        # aligned union {-1, 0, tau} embeds wherever the factor ba occurs
        ps = fib_ps()
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        y = pattern_class([QR(0), QR(1)], QR(1), QR(0))
        r = multiply(x, y, ps)
        assert r.is_defined
        assert r.value.offsets == (QR(0), QR(1), TAU + 1)
        assert r.value.out_index == 2 and r.value.in_index == 0
        assert pointed_difference(r.value) == TAU + 1

    def test_bb_square_unknown_then_undefined(self):
        ps = fib_ps()
        y = pattern_class([QR(0), QR(1)], QR(1), QR(0))
        r = multiply(y, y, ps)
        assert r.status == "unknown"
        r2 = multiply(y, y, ps, embeds_oracle(fibonacci_scheme()))
        assert r2.status == "undefined"

    def test_off_lattice_offsets_undefined(self):
        # y's offset 1/3 is no lattice value, so no lattice translate of the
        # product lies in the model set: the window oracle says undefined
        # where the truncated search says unknown
        ps, oracle = case_pointset(reference_cases()["fib"], 20), embeds_oracle(fibonacci_scheme())
        x = make_element(ps, [0, 1], 1, 0)
        y = pattern_class([QR(0), QR(Fraction(1, 3))], QR(0), QR(0))
        assert multiply(x, y, ps).status == "unknown"
        assert multiply(x, y, ps, oracle).status == "undefined"
        assert multiply(x, y, ps, oracle) == multiply_truncated_scan(x, y, ps, oracle)

    def test_aligned_union_frame(self):
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        y = pattern_class([QR(0), QR(1)], QR(1), QR(0))
        values, out_v, in_v = aligned_union(x, y)
        assert values == [QR(-1), QR(0), TAU]
        assert out_v == TAU and in_v == QR(-1)


class TestOrder:
    def test_reflexive(self):
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        assert natural_leq(x, x)

    def test_containment_after_shift(self):
        big = pattern_class([QR(0), QR(1), TAU + 1], TAU + 1, QR(0))
        small = pattern_class([QR(0), TAU + 1], TAU + 1, QR(0))
        assert natural_leq(big, small)
        assert not natural_leq(small, big)

    def test_incomparable_pointed_differences(self):
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        y = pattern_class([QR(0), QR(1)], QR(1), QR(0))
        assert not natural_leq(x, y) and not natural_leq(y, x)

    def test_max_above(self):
        big = pattern_class([QR(0), QR(1), TAU + 1], TAU + 1, QR(0))
        assert max_above(big) == pattern_class([QR(0), TAU + 1], TAU + 1, QR(0))

    def test_max_above_single_point(self):
        e = identity_element()
        assert max_above(e) == e

    def test_max_above_coincident_points(self):
        x = pattern_class([QR(0), QR(1)], QR(0), QR(0))
        assert max_above(x) == identity_element()


class TestPointedDifference:
    def test_pointed_difference_examples(self):
        assert pointed_difference(identity_element()) == QR(0)
        assert pointed_difference(pattern_class([QR(0), TAU], TAU, QR(0))) == TAU
        x = pattern_class([QR(0), QR(1), TAU + 1], QR(0), TAU + 1)
        assert pointed_difference(x) == -(TAU + 1)

    def test_is_idempotent(self):
        assert is_idempotent(identity_element())
        assert not is_idempotent(pattern_class([QR(0), TAU], TAU, QR(0)))
        assert is_idempotent(pattern_class([QR(0), TAU], QR(0), QR(0)))

    def test_idempotent_purity_on_samples(self):
        ps = fib_ps(8)
        idx = list(range(ps.min_index, ps.max_index + 1))
        for i in idx:
            for j in idx:
                x = make_element(ps, sorted({i, j}), i, j)
                assert (pointed_difference(x).sign() == 0) == is_idempotent(x)


class TestInverseLaws:
    def test_sss(self):
        ps = fib_ps()
        x = pattern_class([QR(0), QR(1), TAU + 1], TAU + 1, QR(0))
        xi = inverse(x)
        r1 = multiply(x, xi, ps)
        assert r1.is_defined and is_idempotent(r1.value)
        r2 = multiply(r1.value, x, ps)
        assert r2.is_defined and r2.value == x

    def test_inverse_involution(self):
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        assert inverse(inverse(x)) == x
        assert pointed_difference(inverse(x)) == -pointed_difference(x)


class TestMaxsetTable:
    def test_zero_entry(self):
        table = maxset_table(fib_ps(8), QR(1))
        assert table[(QR(0), QR(0))] == QR(0)

    def test_fibonacci_entries(self):
        table = maxset_table(fib_ps(), TAU + 1)
        assert table[(TAU, QR(1))] == TAU + 1
        assert (QR(1), QR(1)) not in table

    def test_theta_intertwines(self):
        ps = fib_ps()
        bound = TAU + 1
        table = maxset_table(ps, bound)
        diffs = diff_lookup(ps, bound)
        for a in diffs.values():
            for b in diffs.values():
                prod = multiply(max_class_of(a, ps), max_class_of(b, ps), ps)
                key = (a.value, b.value)
                if key in table:
                    assert prod.is_defined
                    assert max_above(prod.value) == max_class_of(diffs[table[key]], ps)
                elif prod.is_defined:
                    # defined products escape the table only when the sum
                    # leaves the bound
                    assert abs(a.value + b.value) > bound


@pytest.mark.parametrize("case", sorted(reference_cases()))
def test_index_join_matches_chained_sums(case):
    # same entries in the same insertion order as the chained_sum table
    config = reference_cases()[case]
    for half_width in (8, 15, 30):
        ps = case_pointset(config, half_width)
        for bound in (QR(1), TAU, TAU + 1, QR(6)):
            table = maxset_table(ps, bound)
            assert list(table.items()) == list(maxset_table_chained(ps, bound).items())


# patterns of up to 4 points within 10 consecutive points of a wide
# window, multiplied over a narrow one: their unions often span more than
# the narrow truncation, and every search tries shifts past its right end
WIDE = {name: case_pointset(reference_cases()[name], 30) for name in ("fib", "periodic-ab-2-1")}
NARROW = {name: case_pointset(reference_cases()[name], 6) for name in WIDE}


@st.composite
def wide_patterns(draw, name):
    ps = WIDE[name]
    start = draw(st.integers(ps.min_index, ps.max_index))
    span = range(start, min(start + 10, ps.max_index + 1))
    indices = draw(st.lists(st.sampled_from(span), min_size=1, max_size=4, unique=True))
    return make_element(ps, indices, draw(st.sampled_from(indices)), draw(st.sampled_from(indices)))


@pytest.mark.parametrize("name, oracle", [
    ("fib", None),
    ("fib", embeds_oracle(fibonacci_scheme())),
    ("periodic-ab-2-1", None),
], ids=["fib", "fib-oracle", "periodic"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multiply_matches_truncated_scan(name, oracle, data):
    x, y = data.draw(wide_patterns(name)), data.draw(wide_patterns(name))
    ps = NARROW[name]
    assert multiply(x, y, ps, oracle) == multiply_truncated_scan(x, y, ps, oracle)


@pytest.mark.parametrize("oracle", [None, embeds_oracle(fibonacci_scheme())], ids=["scan", "oracle"])
def test_multiply_negative_shift_matches_truncated_scan(oracle):
    # in(x) < out(y) for every pair: the canonical frame is not x's, so the
    # oracle receives the two frames; 32 of the 64 products miss the narrow
    # truncation and 16 of those embed beyond it
    xs = [make_element(WIDE["fib"], [i, i + 4], i + 4, i) for i in range(-4, 4)]
    statuses = {}
    for x in xs:
        for y in xs:
            assert x.in_value < y.out_value
            got = multiply(x, y, NARROW["fib"], oracle)
            assert got == multiply_truncated_scan(x, y, NARROW["fib"], oracle)
            statuses[got.status] = statuses.get(got.status, 0) + 1
    assert statuses == ({"defined": 32, "unknown": 32} if oracle is None else {"defined": 48, "undefined": 16})


@pytest.mark.parametrize("name", sorted(WIDE))
def test_product_wider_than_truncation_unknown(name):
    # the first and last points of the narrow set, out at the last: the
    # square spans twice the truncation and embeds nowhere inside it
    ps = NARROW[name]
    x = make_element(ps, [ps.min_index, ps.max_index], ps.max_index, ps.min_index)
    assert multiply(x, x, ps).status == multiply_truncated_scan(x, x, ps).status == "unknown"


# point sets of several frames: Fibonacci (c = 2, d = 5), a rational one
# (d = 0) and lengths 3/2 and 1/3 + sqrt(5)/6 (c = 6, d = 5)
FRAMES = {
    "fib": case_pointset(reference_cases()["fib"], 8),
    "splice-rational-3-2": case_pointset(reference_cases()["splice-rational-3-2"], 8),
    "thirds-sixths": build_pointset(two_sided_window(FIB_SPEC, 8), LengthFunction(
        {"a": QR(Fraction(3, 2)), "b": QR(Fraction(1, 3), Fraction(1, 6), 5)})),
}


@st.composite
def frame_patterns(draw, ps):
    """A class of points of ps, or one from pattern_class on values over
    denominators 1, 3 and 7, mostly off the set's frame, with a sqrt(5)
    part only where the set has one."""
    if draw(st.booleans()):
        start = draw(st.integers(ps.min_index, ps.max_index))
        span = range(start, min(start + 6, ps.max_index + 1))
        indices = draw(st.lists(st.sampled_from(span), min_size=1, max_size=4, unique=True))
        return make_element(ps, indices, draw(st.sampled_from(indices)), draw(st.sampled_from(indices)))
    surd = st.integers(-3, 3) if ps.frame[1] else st.just(0)
    value = st.builds(lambda k, m, den: QR(Fraction(k, den), Fraction(m, den), 5),
                      st.integers(-9, 9), surd, st.sampled_from((1, 3, 7)))
    values = draw(st.lists(value, min_size=1, max_size=4))
    return pattern_class(values, draw(st.sampled_from(values)), draw(st.sampled_from(values)))


@pytest.mark.parametrize("name", sorted(FRAMES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_pattern_classes_match_qr_forms(name, data):
    # the operations on pairs against the same ones on exact offsets; a
    # class built in another frame is the same tuple with the same hash
    ps = FRAMES[name]
    x, y = data.draw(frame_patterns(ps)), data.draw(frame_patterns(ps))
    fx, fy = qr_form(x), qr_form(y)
    assert x == PatternClass(*fx) and hash(x) == hash(PatternClass(*fx))
    assert (x == y) == (fx == fy) and (x != y or hash(x) == hash(y))
    third = QR(Fraction(1, 3))
    moved = pattern_class([v + third for v in fx[0]], x.out_value + third, x.in_value + third)
    assert moved == x and hash(moved) == hash(x)
    assert qr_form(inverse(x)) == inverse_qr(fx)
    assert qr_form(max_above(x)) == max_above_qr(fx)
    assert pointed_difference(x) == pointed_difference_qr(fx)
    m, fm = max_above(x), max_above_qr(fx)
    for a, b, fa, fb in ((x, y, fx, fy), (x, m, fx, fm), (m, x, fm, fx)):
        assert natural_leq(a, b) == natural_leq_qr(fa, fb)
    assert multiply(x, y, ps) == multiply_truncated_scan(x, y, ps)
