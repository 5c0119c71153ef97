import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import diff_lookup
from reference_kernels import chained_sum, diff_set_pairs, max_gap_consecutive, pointset_points_indexed
from tilegroups.cli import case_pointset, reference_cases
from tilegroups.exactnum import DiscriminantMismatch, QuadraticRational as QR, golden_ratio, pair_text
from tilegroups.pointset import (
    LengthFunction,
    PointSet1D,
    build_pointset,
    decompose_into_bounded,
    diff_set,
    bounded_generator_set,
    difference_group_invariants,
)
from tilegroups.sequences import IndexedWord, SequenceSpec, TruncationError, two_sided_window

TAU = golden_ratio()
FIB_SPEC = SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a")
FIB_LEN = LengthFunction({"a": TAU, "b": QR(1)})


def fib_ps(half_width=12):
    return build_pointset(two_sided_window(FIB_SPEC, half_width), FIB_LEN)

THREE_LEN = LengthFunction({"a": TAU, "b": QR(1), "c": QR(Fraction(-1, 2), Fraction(1, 3), 5)})
SQRT2 = QR.sqrt_of(2)
LENGTHS = (
    THREE_LEN,
    LengthFunction({"a": QR(3), "b": QR(2), "c": QR(Fraction(5, 7))}),
    LengthFunction({"a": SQRT2, "b": QR(Fraction(1, 3)), "c": SQRT2 / 4 + 1}),
)


@st.composite
def windows_and_lengths(draw):
    """A non-empty word over a-c whose start index runs from 1 (r_0 is the
    first point) down to -len + 1 (r_0 is the last), and a length function."""
    text = draw(st.text(alphabet="abc", min_size=1, max_size=60))
    start = draw(st.integers(-len(text) + 1, 1))
    return IndexedWord(start, text), draw(st.sampled_from(LENGTHS))


@given(windows_and_lengths())
def test_points_match_indexed_loop(case):
    window, lengths = case
    ps = PointSet1D(window, lengths)
    assert ps.points == pointset_points_indexed(window, lengths)
    assert (ps.min_index, ps.max_index) == (window.start_index - 1, window.end_index - 1)
    assert ps.point(0) == QR(0)


def test_mixed_field_lengths():
    # a letter from another field builds while the window does not use it,
    # and raises once it does
    lengths = LengthFunction({"a": TAU, "b": QR(1), "c": SQRT2})
    window = IndexedWord(-2, "abaab")
    assert PointSet1D(window, lengths).points == pointset_points_indexed(window, lengths)
    with pytest.raises(DiscriminantMismatch):
        PointSet1D(IndexedWord(-2, "abcab"), lengths)


class TestBuild:
    def test_two_letter_window(self):
        ps = build_pointset(IndexedWord(1, "ab"), LengthFunction({"a": QR(2), "b": QR(1)}))
        assert ps.points == [QR(0), QR(2), QR(3)]

    def test_fibonacci_prefix_sums(self):
        ps = fib_ps(6)
        # T(1)='a', T(2)='b', T(3)='a' around the seed pair, so
        # r_1 = tau, r_2 = tau+1, r_3 = 2tau+1
        assert ps.point(1) == TAU
        assert ps.point(2) == TAU + 1
        assert ps.point(3) == TAU * 2 + 1

    def test_length_counts_points(self):
        ps = fib_ps(6)
        assert len(ps) == len(ps.points) == ps.max_index - ps.min_index + 1 == 14

    def test_single_letter(self):
        ps = build_pointset(IndexedWord(1, "a"), LengthFunction({"a": QR(1)}))
        assert ps.points == [QR(0), QR(1)]

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            LengthFunction({"a": QR(0)})

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            LengthFunction({"a": QR(1), "b": QR(1)})

    def test_lengths_are_a_read_only_copy(self):
        table = {"a": TAU, "b": QR(1)}
        lengths = LengthFunction(table)
        with pytest.raises(TypeError):
            lengths.lengths["a"] = QR(2)
        table["a"] = QR(2)
        table["c"] = QR(3)
        assert lengths.lengths == {"a": TAU, "b": QR(1)} and lengths["a"] == TAU

    def test_membership_outside_truncation_raises(self):
        ps = fib_ps(4)
        with pytest.raises(TruncationError):
            QR(100) in ps

    def test_membership_off_the_frame(self):
        # 1/3 does not fit the Fibonacci set's frame (c = 2, d = 5); sqrt(5)
        # and 1/2 fit it but are no points
        ps = case_pointset(reference_cases()["fib"], 20)
        assert QR(Fraction(1, 3)) not in ps
        assert QR.sqrt_of(5) not in ps and QR(Fraction(1, 2)) not in ps
        assert all(p in ps for p in ps.points)


class TestDiffSet:
    def test_small_example(self):
        ps = build_pointset(IndexedWord(1, "ab"), LengthFunction({"a": QR(2), "b": QR(1)}))
        values = {d.value for d in diff_set(ps, QR(10))}
        assert values == {QR(v) for v in (0, 1, -1, 2, -2, 3, -3)}

    def test_fibonacci_contains_basics(self):
        values = {d.value for d in diff_set(fib_ps(), TAU + 1)}
        for v in (QR(0), QR(1), TAU, TAU + 1):
            assert v in values and -v in values

    def test_bound_below_min_gap(self):
        ps = fib_ps(6)
        assert [d.value for d in diff_set(ps, QR(Fraction(1, 2)))] == [QR(0)]

    def test_witnesses_replay(self):
        ps = fib_ps(8)
        for d in diff_set(ps, TAU):
            for i, j in d.witnesses:
                assert ps.point(i) - ps.point(j) == d.value


@pytest.mark.parametrize("case", sorted(reference_cases()))
def test_two_pointer_matches_all_pairs(case):
    # every element, witness tuple and the element order agree with the
    # all-pairs scan
    config = reference_cases()[case]
    for half_width in (8, 15, 30):
        ps = case_pointset(config, half_width)
        for bound in (QR(1), TAU, TAU + 1, QR(6)):
            assert diff_set(ps, bound) == diff_set_pairs(ps, bound)


@pytest.mark.parametrize("case", sorted(reference_cases()))
def test_dump_and_differences_build_no_points(case):
    # len, the JSON dump, the largest gap and diff_set read the integer
    # frame; the exact points are built on first read, equal to the oracle's
    config = reference_cases()[case]
    ps = case_pointset(config, 40)
    bounds = (QR(Fraction(7, 3)), TAU + 1, ps.max_gap())
    diffs = [diff_set(ps, bound) for bound in bounds]
    assert len(ps) == len(ps.to_json_dict()["points"]) == 82
    assert "points" not in vars(ps)
    assert ps.points == pointset_points_indexed(ps.window, config.lengths)
    assert ps.to_json_dict()["points"] == [str(p) for p in ps.points]
    assert diffs == [diff_set_pairs(ps, bound) for bound in bounds]


def test_dump_reduces_each_residue_once(monkeypatch):
    # a cost check, with no timing: the Fibonacci frame has c = 2, so a dump
    # of its 8 002 points takes at most one gcd per residue mod 2 of each
    # part, 4 in all, where printing row by row takes two per row
    ps = case_pointset(reference_cases()["fib"], 4000)
    c, d, rows = ps.frame
    calls, gcd = [], math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
    texts = ps.to_json_dict()["points"]
    monkeypatch.undo()
    assert (c, len(texts)) == (2, 8002)
    assert len(calls) <= 4
    assert texts == [pair_text(a, b, c, d) for a, b in rows]


@pytest.mark.parametrize("case", sorted(reference_cases()))
def test_max_gap_is_longest_tile_reference(case):
    ps = case_pointset(reference_cases()[case], 60)
    assert ps.max_gap() == max_gap_consecutive(ps.points)


@given(windows_and_lengths())
def test_max_gap_is_longest_tile(case):
    ps = PointSet1D(*case)
    assert ps.max_gap() == max_gap_consecutive(ps.points)


class TestOplus:
    def test_zero_identity(self):
        ps = fib_ps()
        zero = diff_lookup(ps, QR(1))[QR(0)]
        out = chained_sum(zero, zero, ps)
        assert out is not None and out.value == QR(0)

    def test_tau_plus_one(self):
        # oracle: exhaustive chain search over the truncation finds
        # x = 2tau+1, y = tau+1, z = tau
        ps = fib_ps()
        d = diff_lookup(ps, TAU + 1)
        out = chained_sum(d[TAU], d[QR(1)], ps)
        assert out is not None and out.value == TAU + 1
        chains = {(ps.point(i), ps.point(i) - (TAU + 1)) for i, _ in out.witnesses}
        assert (TAU * 2 + 1, TAU) in chains

    def test_one_plus_one_undefined(self):
        # no factor bb, so no chain of two unit gaps anywhere in the window
        ps = fib_ps()
        d = diff_lookup(ps, TAU + 1)
        assert chained_sum(d[QR(1)], d[QR(1)], ps) is None

    def test_value_independent_of_witness(self):
        ps = fib_ps()
        d = diff_lookup(ps, TAU + 1)
        out = chained_sum(d[TAU], d[TAU], ps)
        assert out is not None
        assert all(ps.point(i) - ps.point(j) == out.value for i, j in out.witnesses)

    def test_group_like_axioms_on_truncation(self):
        ps = fib_ps(10)
        elems = diff_set(ps, TAU + 1)
        table = {}
        for a in elems:
            for b in elems:
                out = chained_sum(a, b, ps)
                if out is not None:
                    table[(a.value, b.value)] = out.value
        zero = QR(0)
        for a in elems:
            assert table[(zero, a.value)] == a.value == table[(a.value, zero)]
            assert table[(a.value, -a.value)] == zero
        for (a, b), c in table.items():
            assert table[(-b, -a)] == -c

    def test_values_add_on_defined_sums(self):
        ps = fib_ps(10)
        elems = diff_set(ps, TAU)
        for a in elems:
            for b in elems:
                out = chained_sum(a, b, ps)
                if out is not None:
                    assert out.value == a.value + b.value


class TestBoundedGenerators:
    def test_small_filter(self):
        ps = build_pointset(IndexedWord(1, "ab"), LengthFunction({"a": QR(2), "b": QR(1)}))
        delta = {d.value for d in bounded_generator_set(ps, QR(2))}
        assert delta == {QR(v) for v in (0, 1, -1, 2, -2)}

    def test_fibonacci_generators(self):
        delta = {d.value for d in bounded_generator_set(fib_ps(8), TAU)}
        assert delta == {QR(0), QR(1), QR(-1), TAU, -TAU}

    def test_radius_below_max_gap_rejected(self):
        with pytest.raises(ValueError):
            bounded_generator_set(fib_ps(8), QR(1))

    def test_decomposition_chains_compose(self):
        ps = fib_ps(8)
        span = ps.points[-1] - ps.points[0]
        for elem in diff_set(ps, span):
            chain = decompose_into_bounded(ps, elem, TAU)
            total = QR(0)
            for link in chain:
                assert abs(link.value) <= TAU
                total = total + link.value
            assert total == elem.value


class TestHdInvariants:
    def test_rational_pair(self):
        rank, basis = difference_group_invariants([QR(2), QR(1)])
        assert rank == 1 and basis == [QR(1)]

    def test_golden_pair(self):
        rank, basis = difference_group_invariants([TAU, QR(1)])
        assert rank == 2 and basis == [TAU, QR(1)]

    def test_zero(self):
        assert difference_group_invariants([QR(0)]) == (0, [])

    def test_basis_generates_inputs(self):
        # every input must be an integer combination of the basis
        rank, basis = difference_group_invariants([TAU + 1, TAU * 2, QR(3)])
        assert rank == 2
        b0, b1 = basis
        for v in (TAU + 1, TAU * 2, QR(3)):
            solved = False
            for n in range(-10, 11):
                for m in range(-10, 11):
                    if b0 * n + b1 * m == v:
                        solved = True
            assert solved
