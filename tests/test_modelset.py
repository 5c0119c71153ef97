import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from helpers import PA_BASES, pa_windows
from reference_kernels import (
    empire_brute_box,
    empire_equal_qr,
    obstruction_grade_qr,
    partial_action_box,
    pattern_window_qr,
    window_contains_qr,
    window_has_interior_qr,
    window_intersect_pairwise,
    window_intersect_qr,
    window_issubset_qr,
    window_meets_group_qr,
    window_translate_qr,
)
from tilegroups import cli
from tilegroups.exactnum import DiscriminantMismatch, QuadraticRational as QR, _join, golden_ratio
from tilegroups import exactnum, modelset
from tilegroups.modelset import (
    CutProjectScheme,
    EmpireScan,
    LatticeVector,
    WindowSet,
    obstruction_grade,
    _empire_equal_stars,
    empire_equal,
    fibonacci_scheme,
    window_triple,
    triple_identity,
    triple_inverse,
    triple_is_idempotent,
    triple_max_above,
    triple_multiply,
    triple_natural_leq,
    partial_action_data,
    modelset_points,
    pattern_embeds,
    pattern_window,
    project_functor,
    star,
    window_meets_group,
)
from tilegroups.patterns import multiply, pattern_class
from tilegroups.pointset import LengthFunction, build_pointset
from tilegroups.sequences import SequenceSpec, two_sided_window

TAU = golden_ratio()


def interval(lo, hi):
    return WindowSet.interval(QR(Fraction(lo)), QR(Fraction(hi)))


def _odd_denominator_scheme() -> CutProjectScheme:
    # physical basis 1/3 + sqrt2/2 and 2/5 - sqrt2/7, internal = conjugates
    p1 = QR(Fraction(1, 3), Fraction(1, 2), 2)
    p2 = QR(Fraction(2, 5), Fraction(-1, 7), 2)
    return CutProjectScheme(LatticeVector(p1, p1.conjugate()),
                            LatticeVector(p2, p2.conjugate()), interval(-1, 1))


SQRT2 = QR.sqrt_of(2)
WINDOW_ENDS = sorted({QR(Fraction(p, 2)) + TAU * q for p in range(-6, 7) for q in (-1, 0, 1)})
SQRT2_ENDS = sorted({QR(Fraction(p, 3)) + SQRT2 * q / 2 for p in range(-6, 7) for q in (-1, 0, 1)})


@st.composite
def windows(draw, pool=WINDOW_ENDS):
    """A WindowSet with up to eight components whose ends come from the
    pool; each component is a point or a proper interval."""
    ends = sorted(draw(st.sets(st.sampled_from(pool), max_size=8)))
    parts, k = [], 0
    while k < len(ends):
        if k + 1 < len(ends) and draw(st.booleans()):
            parts.append((ends[k], ends[k + 1]))
            k += 2
        else:
            parts.append((ends[k], ends[k]))
            k += 1
    return WindowSet(tuple(parts))


class TestWindowSet:
    def test_intersect(self):
        a, b = interval(0, 2), interval(1, 3)
        assert a.intersect(b) == interval(1, 2)

    def test_disjoint_intersect_empty(self):
        assert interval(0, 1).intersect(interval(2, 3)).is_empty()

    def test_degenerate_intersection(self):
        w = interval(0, 1).intersect(interval(1, 2))
        assert w.components == ((QR(1), QR(1)),) and not w.has_interior()

    def test_union_merges_touching(self):
        w = WindowSet.normalized([(QR(0), QR(1)), (QR(1), QR(2))])
        assert w == interval(0, 2)

    def test_multi_component(self):
        w = WindowSet.normalized([(QR(0), QR(1)), (QR(5), QR(6))])
        assert len(w.components) == 2
        assert w.contains(QR(Fraction(11, 2))) and not w.contains(QR(3))

    def test_issubset(self):
        assert interval(0, 1).issubset(interval(-1, 2))
        assert not interval(0, 3).issubset(interval(0, 2))

    def test_json_roundtrip(self):
        w = WindowSet.normalized([(QR(0), TAU), (QR(5), QR(6))])
        assert WindowSet.from_json_list(w.to_json_list()) == w

    def test_json_reversed_component_rejected(self):
        # a reversed component is an error in the file, not an empty part
        with pytest.raises(ValueError, match=r"\[63/100, 0\] has lo > hi"):
            WindowSet.from_json_list([["-99/100", "-1/2"], ["63/100", "0"]])

    def test_normalized_rejects_reversed_part(self):
        # a reversed part is the constructor's error, not an empty part
        with pytest.raises(ValueError, match="interval needs lo <= hi"):
            WindowSet.normalized([(QR(0), QR(1)), (QR(1), QR(0))])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_normalized_is_the_union(self, data):
        # the one merge path: 0 to 6 intervals over a few rational and tau
        # ends, so parts often touch, nest, overlap or are points; every
        # input end and every midpoint of consecutive ends lies in the
        # window exactly when it lies in some part
        pool = data.draw(st.lists(st.sampled_from(WINDOW_ENDS), min_size=1, max_size=5, unique=True))
        ends = st.sampled_from(pool)
        parts = [tuple(sorted(p)) for p in data.draw(st.lists(st.tuples(ends, ends), max_size=6))]
        w = WindowSet.normalized(parts)
        comps = w.components
        assert all(lo <= hi for lo, hi in comps)
        assert all(hi < lo for (_, hi), (lo, _) in zip(comps, comps[1:]))
        probes = sorted({e for part in parts for e in part})
        probes += [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        for x in probes:
            inside = any(window_contains_qr(WindowSet.interval(*part), x) for part in parts)
            assert window_contains_qr(w, x) == inside, (parts, x)

    @given(st.data())
    def test_intersect_matches_pairwise_oracle(self, data):
        # sorted, disjoint windows over one pool of rational and tau
        # endpoints, so components of the two windows often touch or share
        # an end; degenerate components and empty windows included
        a, b = data.draw(windows()), data.draw(windows())
        got = a.intersect(b)
        assert got == window_intersect_pairwise(a, b)
        assert WindowSet(got.components) == got
        moved = a.translate(TAU / 3)
        assert WindowSet(moved.components) == moved

    @given(st.sampled_from(((WINDOW_ENDS, TAU), (SQRT2_ENDS, SQRT2))), st.data())
    def test_calculus_matches_qr_oracles(self, field, data):
        # the integer kernels behind the WindowSet operations against the
        # operations on exact ends, in Q(sqrt5) and Q(sqrt2): windows from
        # one pool of ends touch, share ends, repeat, hold points or are
        # empty; shifts have other denominators than the ends
        pool, g = field
        a = data.draw(windows(pool))
        b = data.draw(st.one_of(st.just(a), windows(pool)))
        x = data.draw(st.sampled_from(pool))
        shift = x / data.draw(st.sampled_from((1, -3, 7)))
        assert a.intersect(b) == window_intersect_qr(a, b)
        assert a.translate(shift) == window_translate_qr(a, shift)
        assert a.contains(x) == window_contains_qr(a, x)
        assert a.contains(shift) == window_contains_qr(a, shift)
        assert a.issubset(b) == window_issubset_qr(a, b)
        assert a.has_interior() == window_has_interior_qr(a)
        assert window_meets_group(a, QR(1), g) == window_meets_group_qr(a, QR(1), g)
        moved = a.translate(shift)
        _, _, pa, pb, pm = _join(a.frame, b.frame, moved.frame)
        assert (pa == pb) == (a == b)
        assert (pm == pa) == (moved == a) == (shift == 0 or a.is_empty())

    def test_meets_group_interior(self):
        assert window_meets_group(interval(0, 1), QR(1), TAU)

    def test_meets_group_degenerate(self):
        point = WindowSet(((TAU, TAU),))
        assert window_meets_group(point, QR(1), TAU)
        shifted = WindowSet(((TAU / 2, TAU / 2),))
        assert not window_meets_group(shifted, QR(1), TAU)


def _fields(w: WindowSet) -> tuple:
    return w.c, w.d, w.ends


# ends over denominators 1, 2, 3 and 7 in Q(sqrt5) and Q(sqrt2), and rational
# ends over the same denominators
MIXED_ENDS = {
    d: sorted({QR(Fraction(p, q)) + QR.sqrt_of(d) * Fraction(r, q) for p in range(-5, 6)
               for q in (1, 2, 3, 7) for r in (-1, 0, 1)})
    for d in (5, 2)
}
RATIONAL_ENDS = sorted({QR(Fraction(p, q)) for p in range(-5, 6) for q in (1, 2, 3, 7)})


class TestWindowFrame:
    def test_operations_cut_to_lowest_terms(self):
        # a translate or an intersection is stored in lowest terms, with d = 0
        # once every surd part cancels
        w = WindowSet.interval(QR(Fraction(1, 6)), QR(Fraction(5, 6))).translate(QR(Fraction(-1, 6)))
        assert _fields(w) == (3, 0, ((0, 0, 2, 0),))
        assert _fields(WindowSet.interval(TAU, TAU + 1).translate(-TAU)) == (1, 0, ((0, 0, 1, 0),))
        assert _fields(interval(0, 2).intersect(WindowSet.interval(TAU / 2, QR(3)))) == (4, 5, ((1, 1, 8, 0),))

    @given(st.sampled_from((5, 2)), st.data())
    def test_frames_are_canonical(self, d, data):
        # the stored frame is the lowest-terms frame of the exact ends, so
        # equal windows have equal fields and hashes whichever operation
        # built them; rational windows moved by an irrational shift and back
        # return to d = 0
        pool, root = MIXED_ENDS[d], QR.sqrt_of(d)
        a = data.draw(windows(pool))
        b = data.draw(st.one_of(st.just(a), windows(pool)))
        shift = data.draw(st.sampled_from(pool)) / data.draw(st.sampled_from((1, -3, 7)))
        rational = data.draw(windows(RATIONAL_ENDS))
        surd_shift = root / data.draw(st.sampled_from((1, 2, 3, 7)))
        built = [a, b, a.translate(shift), a.intersect(b), b.intersect(a.translate(shift)),
                 rational, rational.translate(surd_shift), rational.intersect(a)]
        for w in built:
            assert _fields(WindowSet(w.components)) == _fields(w)
            for s in (shift, surd_shift):
                assert _fields(w.translate(s).translate(-s)) == _fields(w)
            assert (w.d == 0) == all(e.is_rational() for comp in w.components for e in comp)
        for v in built:
            for w in built:
                assert (_fields(v) == _fields(w)) == (v.components == w.components) == (v == w)
                assert hash(v) == hash(w) or v != w

    def test_calculus_builds_no_values(self, monkeypatch):
        # the operations run on the stored pairs and build no exact value
        scheme = fibonacci_scheme()
        a = WindowSet.normalized([(QR(Fraction(-1, 2)), TAU), (QR(3), QR(Fraction(7, 2)))])
        b = WindowSet.interval(QR(Fraction(-1, 3)), QR(3))
        x, shift = TAU / 3, QR(Fraction(1, 7)) + TAU
        points = modelset_points(scheme, QR(8))
        pat_p, pat_q = points[2:5], points[3:6]
        calls = [lambda: a.contains(x), lambda: a.issubset(b), lambda: a.translate(shift),
                 lambda: a.intersect(b), lambda: a.has_interior(), lambda: pattern_window(scheme, pat_p),
                 lambda: pattern_embeds(scheme, pat_p), lambda: empire_equal(scheme, pat_p, pat_q)]
        expected = [call() for call in calls]

        def built(*args):
            raise AssertionError("a QuadraticRational was built")

        monkeypatch.setattr(exactnum, "_make", built)
        monkeypatch.setattr(modelset, "_make", built)
        got = [call() for call in calls]
        monkeypatch.undo()
        assert got == expected


class TestScheme:
    def test_validation_rejects_rational_ratio(self):
        with pytest.raises(ValueError):
            CutProjectScheme(LatticeVector(QR(1), QR(1)),
                             LatticeVector(QR(2), TAU), interval(0, 1))
        with pytest.raises(ValueError):
            CutProjectScheme(LatticeVector(QR(1), QR(1)),
                             LatticeVector(TAU, QR(3)), interval(0, 1))

    def test_validation_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            CutProjectScheme(LatticeVector(QR(1), QR(1)),
                             LatticeVector(TAU, QR(1) - TAU),
                             WindowSet(((QR(0), QR(0)),)))

    def test_window_from_another_field_rejected(self):
        # named when the scheme is built, not at its first use
        with pytest.raises(ValueError, match=r"^acceptance window in Q\(sqrt\(2\)\), lattice basis in Q\(sqrt\(5\)\)$"):
            CutProjectScheme(LatticeVector(QR(1), QR(1)),
                             LatticeVector(TAU, QR(1) - TAU),
                             WindowSet.interval(QR(-1), SQRT2))

    def test_star_examples(self):
        scheme = fibonacci_scheme()
        assert star(scheme, QR(0)) == QR(0)
        assert star(scheme, TAU) == QR(1) - TAU
        assert star(scheme, TAU * 2 + 1) == QR(3) - TAU * 2

    def test_star_rejects_non_lattice(self):
        with pytest.raises(ValueError):
            star(fibonacci_scheme(), QR(Fraction(1, 3)))

    def test_off_lattice_message(self):
        with pytest.raises(ValueError, match=r"^1/3 is not in the physical lattice image$"):
            fibonacci_scheme().physical_coordinates(QR(Fraction(1, 3)))

    def test_value_from_another_field_is_off_lattice(self):
        # sqrt(2) is not in Q(sqrt(5)): its integer triple must not be
        # solved as if it were
        scheme = fibonacci_scheme()
        root2 = QR.sqrt_of(2)
        with pytest.raises(ValueError):
            scheme.physical_coordinates(root2)
        with pytest.raises(ValueError):
            star(scheme, root2)

    def test_coordinates_round_trip_odd_denominators(self):
        scheme = _odd_denominator_scheme()
        p1, p2 = scheme.v1.phys, scheme.v2.phys
        for n in range(-7, 8):
            for m in range(-7, 8):
                y = p1 * n + p2 * m
                assert scheme.physical_coordinates(y) == (n, m)
                assert star(scheme, y) == scheme.star_of_coords(n, m) == y.conjugate()
        for y in (p1 / 2, p1 + p2 / 3, QR(1), QR.sqrt_of(2)):
            with pytest.raises(ValueError):
                scheme.physical_coordinates(y)

    @given(st.fractions(-50, 50, max_denominator=9), st.fractions(-50, 50, max_denominator=9))
    def test_coordinates_recover_coefficients(self, fn, fm):
        scheme = _odd_denominator_scheme()
        y = scheme.v1.phys * fn + scheme.v2.phys * fm
        if fn.denominator == fm.denominator == 1:
            assert scheme.physical_coordinates(y) == (fn, fm)
            assert star(scheme, y) == scheme.star_of_coords(int(fn), int(fm))
        else:
            with pytest.raises(ValueError):
                scheme.physical_coordinates(y)

    def test_star_additive(self):
        scheme = fibonacci_scheme()
        xs = modelset_points(scheme, QR(10))
        for x in xs[:5]:
            for y in xs[:5]:
                assert star(scheme, x + y) == star(scheme, x) + star(scheme, y)


class TestGenerate:
    def test_membership_law(self):
        scheme = fibonacci_scheme()
        pts = set(modelset_points(scheme, QR(12)))
        # every candidate in a small grid obeys: in model set iff lattice and star in window
        for n in range(-12, 13):
            for m in range(-8, 9):
                y = QR(n) + TAU * m
                if abs(y) <= QR(12):
                    expected = scheme.window.contains(scheme.star_of_coords(n, m))
                    assert (y in pts) == expected

    def test_shrunk_window_selects_fewer(self):
        scheme = fibonacci_scheme()
        lo = QR(Fraction(-99, 100))
        half = CutProjectScheme(scheme.v1, scheme.v2,
                                WindowSet.interval(lo, lo + TAU / 2))
        full = modelset_points(scheme, QR(20))
        fewer = modelset_points(half, QR(20))
        assert set(fewer) < set(full)
        # a shrunk length staying in Z[tau] keeps at most two gap values
        unit = CutProjectScheme(scheme.v1, scheme.v2,
                                WindowSet.interval(lo, lo + QR(1)))
        pts = modelset_points(unit, QR(20))
        assert set(pts) < set(full)
        gaps = {b - a for a, b in zip(pts, pts[1:])}
        assert len(gaps) <= 2

    def test_small_radius(self):
        pts = modelset_points(fibonacci_scheme(), QR(Fraction(1, 2)))
        assert pts == [QR(0)]

    def test_empty_reported_distinctly(self):
        # a short all-rational window misses every star reachable at radius 1
        scheme = fibonacci_scheme()
        mini = CutProjectScheme(scheme.v1, scheme.v2,
                                interval(Fraction(1, 3), Fraction(5, 12)))
        assert modelset_points(mini, QR(1)) == []


def _box_scan_points(scheme: CutProjectScheme, radius: QR) -> list[QR]:
    """Reference enumeration: every lattice point of the integer box obtained
    by mapping the physical range times the window hull through the inverse
    embedding matrix.  Quadratic in the radius; kept as the oracle of the
    strip kernel in modelset_points."""
    p1, p2 = scheme.v1.phys, scheme.v2.phys
    i1, i2 = scheme.v1.internal, scheme.v2.internal
    det = p1 * i2 - p2 * i1
    klo, khi = scheme.window.hull()
    corners_n, corners_m = [], []
    for x in (radius, -radius):
        for y in (klo, khi):
            corners_n.append((i2 * x - p2 * y) / det)
            corners_m.append((p1 * y - i1 * x) / det)
    n_lo = min(c.floor() for c in corners_n)
    n_hi = max(c.floor() + 1 for c in corners_n)
    m_lo = min(c.floor() for c in corners_m)
    m_hi = max(c.floor() + 1 for c in corners_m)
    out = []
    for n in range(n_lo, n_hi + 1):
        base_phys = p1 * n
        base_star = i1 * n
        for m in range(m_lo, m_hi + 1):
            y = base_phys + p2 * m
            if abs(y) > radius:
                continue
            if scheme.window.contains(base_star + i2 * m):
                out.append(y)
    out.sort()
    return out


def _wide_field_scheme() -> CutProjectScheme:
    # Q(sqrt(1000003)): v2 = (sqrt(d) - 1000, -sqrt(d) - 1000), one point per n
    root = QR.sqrt_of(1000003)
    return CutProjectScheme(LatticeVector(QR(1), QR(1)),
                            LatticeVector(root - 1000, -root - 1000),
                            interval(-1000, 1000))


def _negative_p2_scheme() -> CutProjectScheme:
    # p2 = 1 - tau < 0 and i2 = tau > 0
    return CutProjectScheme(LatticeVector(QR(1), QR(1)),
                            LatticeVector(QR(1) - TAU, TAU),
                            WindowSet.interval(QR(-1), TAU - 1))


def _negative_p2_i2_scheme() -> CutProjectScheme:
    # p2 = -tau and i2 = 1 - tau, both negative
    return CutProjectScheme(LatticeVector(QR(1), QR(1)),
                            LatticeVector(-TAU, QR(1) - TAU),
                            interval(Fraction(-1, 2), 1))


def _two_component_scheme() -> CutProjectScheme:
    # basis vectors swapped against the Fibonacci scheme: p2 = i2 = 1 > 0
    window = WindowSet.normalized([(QR(Fraction(-3, 2)), QR(Fraction(-1, 2))),
                                   (QR(0), TAU - 1)])
    return CutProjectScheme(LatticeVector(TAU, QR(1) - TAU),
                            LatticeVector(QR(1), QR(1)), window)


def _three_component_scheme() -> CutProjectScheme:
    # Fibonacci basis, a narrow middle component around the origin's star 0
    window = WindowSet.normalized([(QR(-2), -TAU), (QR(Fraction(-1, 10)), QR(Fraction(1, 10))),
                                   (TAU - 1, QR(Fraction(3, 2)))])
    return CutProjectScheme(LatticeVector(QR(1), QR(1)),
                            LatticeVector(TAU, QR(1) - TAU), window)


class TestStripKernelAgainstBoxScan:
    @pytest.mark.parametrize("make_scheme,radius", [
        pytest.param(fibonacci_scheme, QR(Fraction(1, 2)), id="fib-1/2"),
        pytest.param(fibonacci_scheme, QR(7), id="fib-7"),
        pytest.param(fibonacci_scheme, QR(100), id="fib-100"),
        pytest.param(fibonacci_scheme, TAU * 20, id="fib-20tau"),
        pytest.param(_wide_field_scheme, QR(100), id="wide-100"),
        pytest.param(_wide_field_scheme, QR(Fraction(99, 7)), id="wide-99/7"),
        pytest.param(_negative_p2_scheme, QR(30), id="neg-p2-30"),
        pytest.param(_negative_p2_i2_scheme, QR(30), id="neg-p2-i2-30"),
        pytest.param(_two_component_scheme, QR(30), id="two-component-30"),
        pytest.param(_two_component_scheme, QR(Fraction(1, 2)), id="two-component-1/2"),
        pytest.param(_three_component_scheme, QR(30), id="three-component-30"),
        pytest.param(_three_component_scheme, QR(Fraction(1, 2)), id="three-component-1/2"),
    ])
    def test_same_points(self, make_scheme, radius):
        scheme = make_scheme()
        assert modelset_points(scheme, radius) == _box_scan_points(scheme, radius)

    def test_two_component_window_has_a_gap(self):
        # the hull strip holds points of the gap, which the exact test drops
        scheme = _two_component_scheme()
        pts = modelset_points(scheme, QR(30))
        stars = [scheme.star_of_coords(*scheme.physical_coordinates(y)) for y in pts]
        assert stars and all(scheme.window.contains(s) for s in stars)
        assert any(s < QR(-1) for s in stars) and any(s > QR(0) for s in stars)


class TestPatternWindow:
    def test_single_point(self):
        scheme = fibonacci_scheme()
        assert pattern_window(scheme, [QR(0)]) == scheme.window

    def test_two_point_example(self):
        # [0,1] cap ([0,1] - tau') = [tau-1, 1] with tau' = 1 - tau
        scheme = fibonacci_scheme()
        k01 = CutProjectScheme(scheme.v1, scheme.v2, interval(0, 1))
        assert pattern_window(k01, [QR(0), TAU]) == WindowSet.interval(TAU - 1, QR(1))

    def test_illegal_configuration_empty(self):
        scheme = fibonacci_scheme()
        w = pattern_window(scheme, [QR(0), QR(1), QR(2)])
        assert w.is_empty()
        assert not pattern_embeds(scheme, [QR(0), QR(1), QR(2)])

    def test_off_lattice_pattern_does_not_embed(self):
        # no lattice translate of a pattern with a point off the lattice
        # lies in the model set; an empty pattern still raises
        scheme = fibonacci_scheme()
        assert not pattern_embeds(scheme, [QR(0), QR(Fraction(1, 3))])
        assert not pattern_embeds(scheme, [QR(Fraction(1, 3))])
        assert not pattern_embeds(scheme, [QR(0), QR.sqrt_of(5) / 3])
        assert pattern_embeds(scheme, [QR(0), QR(1)])
        with pytest.raises(ValueError, match="pattern must be non-empty"):
            pattern_embeds(scheme, [])

    def test_translation_shifts_window(self):
        scheme = fibonacci_scheme()
        base = pattern_window(scheme, [QR(0), TAU])
        shifted = pattern_window(scheme, [QR(1), TAU + 1])
        assert shifted == base.translate(-star(scheme, QR(1)))


def _empire_one_shot(scheme: CutProjectScheme, pat_p: list, pat_q: list, box_bound: int):
    """One pair through a scan over the points of the two patterns."""
    return EmpireScan(scheme, box_bound, pat_p + pat_q).compare(pat_p, pat_q)


class TestEmpire:
    def test_equal_to_itself(self):
        scheme = fibonacci_scheme()
        pat = [QR(0), TAU]
        assert empire_equal(scheme, pat, pat)
        assert _empire_one_shot(scheme, pat, pat, 20) is None

    def test_forced_extra_point(self):
        # extend the pattern by a point whose window translate already
        # covers the pattern window: the empire is unchanged
        scheme = fibonacci_scheme()
        pat = [QR(0), TAU]
        w = pattern_window(scheme, pat)
        pts = modelset_points(scheme, QR(30))
        extra = next(x for x in pts if x not in pat
                     and w.issubset(scheme.window.translate(-star(scheme, x))))
        assert empire_equal(scheme, pat, sorted(pat + [extra]))
        assert _empire_one_shot(scheme, pat, sorted(pat + [extra]), 40) is None

    def test_unequal_with_separator(self):
        scheme = fibonacci_scheme()
        separator = _empire_one_shot(scheme, [QR(0)], [QR(0), TAU], 40)
        assert not empire_equal(scheme, [QR(0)], [QR(0), TAU])
        assert separator is not None
        n, m = separator
        gs = scheme.star_of_coords(n, m)
        in_p = scheme.window.contains(star(scheme, QR(0)) + gs)
        in_q = all(scheme.window.contains(star(scheme, q) + gs) for q in (QR(0), TAU))
        assert in_p != in_q

    def test_rejects_points_outside_modelset(self):
        with pytest.raises(ValueError):
            empire_equal(fibonacci_scheme(), [QR(1)], [QR(0)])

    def test_checks_both_patterns_before_the_windows(self):
        # the point of Q outside the model set is reported before P's emptiness
        with pytest.raises(ValueError, match=r"pattern point 1 is not in the model set"):
            empire_equal(fibonacci_scheme(), [], [QR(0), QR(1)])
        with pytest.raises(ValueError, match="pattern must be non-empty"):
            empire_equal(fibonacci_scheme(), [], [QR(0)])

    def test_equal_solves_each_point_once(self, monkeypatch):
        # each pattern point's lattice coordinates are solved once per call,
        # for the membership check and the window alike
        calls = []
        solve = CutProjectScheme.physical_coordinates

        def counted(scheme, y):
            calls.append(y)
            return solve(scheme, y)

        monkeypatch.setattr(CutProjectScheme, "physical_coordinates", counted)
        pat_p, pat_q = [QR(0), TAU], [QR(0), TAU, TAU + 1]
        assert not empire_equal(fibonacci_scheme(), pat_p, pat_q)
        assert calls == pat_p + pat_q

    @pytest.mark.parametrize("pat_p, pat_q", [([], [QR(0)]), ([QR(0)], []), ([], [])])
    def test_brute_rejects_empty_pattern(self, pat_p, pat_q):
        # the empty pattern fits everywhere, which a scan of the band cannot see
        with pytest.raises(ValueError, match="pattern must be non-empty"):
            EmpireScan(fibonacci_scheme(), 5, [QR(0)]).compare(pat_p, pat_q)

    def test_translate_exists_iff_star_in_pattern_window(self):
        # for every lattice g in a box: pattern embeds at g iff g* lands in P*
        scheme = fibonacci_scheme()
        pat = [QR(0), TAU, TAU + 1]
        w = pattern_window(scheme, pat)
        for n in range(-15, 16):
            for m in range(-10, 11):
                gs = scheme.star_of_coords(n, m)
                g_phys = scheme.v1.phys * n + scheme.v2.phys * m
                placed = all(scheme.window.contains(star(scheme, p) + gs) for p in pat)
                assert placed == w.contains(gs), (n, m, str(g_phys))


def _sqrt2_scheme() -> CutProjectScheme:
    # v2 = (1+sqrt2, 1-sqrt2): a negative internal coordinate i2 in Q(sqrt2)
    s2 = QR.sqrt_of(2)
    return CutProjectScheme(LatticeVector(QR(1), QR(1)),
                            LatticeVector(1 + s2, 1 - s2), interval(-1, 1))


FIB = fibonacci_scheme()
EMPIRE_SCHEMES = {
    "fibonacci": FIB,
    "sqrt2-negative-i2": _sqrt2_scheme(),
    "odd-denominators": _odd_denominator_scheme(),
    "two-components": CutProjectScheme(
        FIB.v1, FIB.v2,
        WindowSet.normalized([(QR(Fraction(-99, 100)), QR(Fraction(-1, 2))),
                              (QR(0), QR(Fraction(63, 100)))])),
}


def _empire_pairs(scheme: CutProjectScheme, seed: int, count: int) -> list:
    """Seeded pattern pairs from the model set: one in three is empire-equal
    by construction (an extra point whose window translate covers the
    pattern window), the others are independent draws."""
    points = modelset_points(scheme, QR(20))
    translates = [(x, scheme.window.translate(-star(scheme, x))) for x in points]
    rng = random.Random(seed)
    out = []
    for i in range(count):
        pat_p = sorted(rng.sample(points, rng.randint(1, 4)))
        if i % 3 == 0:
            w = pattern_window(scheme, pat_p)
            extra = next((x for x, t in translates if x not in pat_p and w.issubset(t)), None)
            pat_q = pat_p if extra is None else sorted(pat_p + [extra])
        else:
            pat_q = sorted(rng.sample(points, rng.randint(1, 4)))
        out.append((pat_p, pat_q))
    return out


EMPIRE_BOUNDS = (0, 1, 2, 5, 20, 60)


@lru_cache(maxsize=None)
def _empire_box_results(scheme: CutProjectScheme) -> list:
    """(pat_p, pat_q, bound, result of the (2B+1)^2 box scan) over the
    seeded pairs and EMPIRE_BOUNDS."""
    return [(pat_p, pat_q, bound, empire_brute_box(scheme, pat_p, pat_q, bound))
            for pat_p, pat_q in _empire_pairs(scheme, seed=5, count=24) for bound in EMPIRE_BOUNDS]


@pytest.mark.parametrize("scheme", EMPIRE_SCHEMES.values(), ids=EMPIRE_SCHEMES)
def test_empire_strip_scan_matches_box_scan(scheme):
    # the answer, None or the first separator, equals that of the (2B+1)^2
    # box scan
    results = set()
    for pat_p, pat_q, bound, want in _empire_box_results(scheme):
        assert _empire_one_shot(scheme, pat_p, pat_q, bound) == want, (pat_p, pat_q, bound)
        results.add(want is None)
    assert results == {True, False}


@pytest.mark.parametrize("scheme", EMPIRE_SCHEMES.values(), ids=EMPIRE_SCHEMES)
def test_empire_scan_reused_matches_box_scan(scheme):
    # one scan per bound over the whole point pool decides every pair as the
    # box scan does, whichever pairs built its masks first
    pool = modelset_points(scheme, QR(20))
    results = _empire_box_results(scheme)
    for order in (results, results[::-1]):
        scans = {bound: EmpireScan(scheme, bound, pool) for bound in EMPIRE_BOUNDS}
        for pat_p, pat_q, bound, want in order:
            assert scans[bound].compare(pat_p, pat_q) == want, (pat_p, pat_q, bound)
            assert scans[bound].compare(pat_q, pat_p) == _empire_one_shot(scheme, pat_q, pat_p, bound)


def test_empire_scan_rejects_point_outside_pool():
    scheme = fibonacci_scheme()
    scan = EmpireScan(scheme, 5, [QR(0), TAU])
    assert scan.compare([QR(0)], [QR(0), TAU]) == _empire_one_shot(scheme, [QR(0)], [QR(0), TAU], 5)
    with pytest.raises(ValueError, match="not in the scan's point pool"):
        scan.compare([QR(0)], [QR(0), TAU + 1])
    with pytest.raises(ValueError, match="box_bound"):
        EmpireScan(scheme, -1, [QR(0)])
    with pytest.raises(ValueError, match="pool must be non-empty"):
        EmpireScan(scheme, 5, [])


def test_empire_strip_misses_box():
    # the points 50 and 51 (stars 50 and 51, outside the window) put the
    # band [min K - 51, max K - 50] beyond every lattice star of a small
    # box: both scans visit nothing and agree
    scheme = fibonacci_scheme()
    pat_p, pat_q = [QR(50)], [QR(50), QR(51)]
    for bound in (0, 1, 5):
        assert _empire_one_shot(scheme, pat_p, pat_q, bound) is None
        assert empire_brute_box(scheme, pat_p, pat_q, bound) is None
    # a wider box reaches the band, where the two differ
    assert _empire_one_shot(scheme, pat_p, pat_q, 60) == empire_brute_box(scheme, pat_p, pat_q, 60)
    assert _empire_one_shot(scheme, pat_p, pat_q, 60) is not None


def place(scheme, pattern):
    pts = modelset_points(scheme, QR(30))
    members = set(pts)
    for t in pts:
        if all((o + t) in members for o in pattern.offsets):
            return t
    raise AssertionError("pattern not placeable at this radius")


class TestGxh:
    def test_identity_law(self):
        scheme = fibonacci_scheme()
        e = triple_identity(scheme)
        x = project_functor(scheme, pattern_class([QR(0), TAU], TAU, QR(0)),
                            place(scheme, pattern_class([QR(0), TAU], TAU, QR(0))))
        assert triple_multiply(scheme, e, x) == x
        assert triple_multiply(scheme, x, e) == x

    def test_undefined_product(self):
        scheme = fibonacci_scheme()
        # windows shifted far apart intersect to nothing
        x = window_triple(scheme, QR(0), scheme.window, QR(0))
        k = scheme.window
        far_shift = QR(5) + TAU  # star is 6 - tau, far outside K
        y_window = k.intersect(k.translate(star(scheme, far_shift)))
        assert y_window.is_empty()
        with pytest.raises(ValueError):
            window_triple(scheme, QR(0), y_window, star(scheme, far_shift))

    def test_product_with_empty_combined_window_undefined(self):
        # each factor needs the double-a gap word; chaining them needs four
        # consecutive a-gaps, which never occur: the windows miss each other
        scheme = fibonacci_scheme()
        shift = star(scheme, TAU * 2)
        x = window_triple(scheme, QR(0),
                        scheme.window.intersect(scheme.window.translate(shift)), shift)
        assert triple_multiply(scheme, x, x) is None

    def test_inverse_and_idempotents(self):
        scheme = fibonacci_scheme()
        pat = pattern_class([QR(0), TAU], TAU, QR(0))
        x = project_functor(scheme, pat, place(scheme, pat))
        xi = triple_inverse(x)
        assert triple_inverse(xi) == x
        prod = triple_multiply(scheme, x, xi)
        assert prod is not None and triple_is_idempotent(prod)
        assert triple_multiply(scheme, prod, x) == x

    def test_max_and_shift(self):
        scheme = fibonacci_scheme()
        pat = pattern_class([QR(0), QR(1), TAU + 1], TAU + 1, QR(0))
        x = project_functor(scheme, pat, place(scheme, pat))
        mx = triple_max_above(scheme, x)
        assert mx.shift == x.shift == star(scheme, TAU + 1)
        assert mx.window == scheme.window.intersect(scheme.window.translate(x.shift))
        assert triple_natural_leq(x, mx)
        assert triple_max_above(scheme, triple_identity(scheme)) == triple_identity(scheme)
        assert triple_max_above(scheme, triple_inverse(x)).shift == -x.shift

    def test_idempotent_purity(self):
        scheme = fibonacci_scheme()
        for pat in (pattern_class([QR(0), TAU], TAU, QR(0)),
                    pattern_class([QR(0), TAU], QR(0), QR(0)),
                    pattern_class([QR(0), QR(1), TAU + 1], QR(1), QR(1))):
            x = project_functor(scheme, pat, place(scheme, pat))
            assert triple_is_idempotent(x) == (x.shift.sign() == 0)


class TestFunctor:
    def test_identity_maps_to_full_window(self):
        scheme = fibonacci_scheme()
        e = pattern_class([QR(0)], QR(0), QR(0))
        img = project_functor(scheme, e, QR(0))
        assert img == triple_identity(scheme)

    def test_two_point_window(self):
        scheme = fibonacci_scheme()
        k01 = CutProjectScheme(scheme.v1, scheme.v2, interval(0, 1))
        pat = pattern_class([QR(0), TAU], TAU, QR(0))
        img = project_functor(k01, pat, place(k01, pat))
        base = WindowSet.interval(TAU - 1, QR(1))
        assert img.window == base.translate(star(k01, TAU))
        assert img.shift == star(k01, TAU)

    def test_morphism_on_composable_pair(self):
        scheme = fibonacci_scheme()
        spec = SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a")
        ps = build_pointset(two_sided_window(spec, 12), LengthFunction({"a": TAU, "b": QR(1)}))
        x = pattern_class([QR(0), TAU], TAU, QR(0))
        y = pattern_class([QR(0), QR(1)], QR(1), QR(0))
        xy = multiply(x, y, ps).value
        fx = project_functor(scheme, x, place(scheme, x))
        fy = project_functor(scheme, y, place(scheme, y))
        fxy = project_functor(scheme, xy, place(scheme, xy))
        assert triple_multiply(scheme, fx, fy) == fxy

    def test_kernel_is_empire(self):
        scheme = fibonacci_scheme()
        pat = [QR(0), TAU]
        w = pattern_window(scheme, pat)
        pts = modelset_points(scheme, QR(30))
        extra = next(x for x in pts if x not in pat
                     and w.issubset(scheme.window.translate(-star(scheme, x))))
        p_cls = pattern_class(pat, TAU, QR(0))
        q_cls = pattern_class(sorted(pat + [extra]), TAU, QR(0))
        img_p = project_functor(scheme, p_cls, place(scheme, p_cls))
        img_q = project_functor(scheme, q_cls, place(scheme, q_cls))
        assert img_p == img_q

    def test_unplaceable_pattern_rejected(self):
        with pytest.raises(ValueError):
            project_functor(fibonacci_scheme(),
                            pattern_class([QR(0), QR(1), QR(2)], QR(0), QR(0)), QR(0))


FUNCTOR_SCHEMES = {**EMPIRE_SCHEMES, "negative-p2-i2": _negative_p2_i2_scheme(),
                   "three-components": _three_component_scheme(), "wide-field": _wide_field_scheme()}


@pytest.mark.parametrize("scheme", FUNCTOR_SCHEMES.values(), ids=FUNCTOR_SCHEMES)
def test_project_functor_matches_composition(scheme):
    # the image's shift is star(out - in) and its window the exact-value
    # pattern window of the pattern re-anchored at out, on seeded
    # 1-to-4-point patterns placed at their least point
    points = modelset_points(scheme, QR(40))
    rng = random.Random(11)
    for _ in range(60):
        values = rng.sample(points, min(len(points), rng.randint(1, 4)))
        pat = pattern_class(values, rng.choice(values), rng.choice(values))
        placement = min(values)
        image, out = project_functor(scheme, pat, placement), pat.out_value
        assert image.shift == star(scheme, out - pat.in_value), values
        assert image.window == pattern_window_qr(scheme, [o - out for o in pat.offsets]), values
    # a lattice translate whose star lies far outside every window
    off = placement + scheme.v1.phys * 10**6
    with pytest.raises(ValueError, match="not in the model set"):
        project_functor(scheme, pat, off)


class TestPartialActionData:
    def test_bound_three_elements(self):
        data = partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 3)
        expected = {QR(0), TAU - 1, QR(1) - TAU, QR(2) - TAU, TAU - 2,
                    TAU * 2 - 3, QR(3) - TAU * 2}
        assert set(data.elements) == expected

    def test_larger_box_catches_next_element(self):
        data = partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 4)
        assert TAU * 3 - 4 in set(data.elements)
        assert QR(4) - TAU * 3 in set(data.elements)

    def test_identity_alone(self):
        # a window too short for any nonzero shift
        data = partial_action_data((QR(10), TAU * 10), WindowSet.interval(QR(0), QR(1)), 2)
        assert set(data.elements) == {QR(0)}
        assert data.relations == ((QR(0), QR(0), QR(0)),)

    def test_mutually_inverse_pair(self):
        data = partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 3)
        assert (TAU - 1, QR(1) - TAU, QR(0)) in set(data.relations)

    def test_wellformed(self):
        data = partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 3)
        eset = set(data.elements)
        for g, gp, total in data.relations:
            assert g in eset and gp in eset and total in eset
            assert g + gp == total

    def test_dependent_basis_rejected(self):
        # a rational ratio would label distinct (n, m) with one value
        for basis in ((QR(1), QR(2)), (TAU, TAU * 3), (QR(1), QR(0))):
            with pytest.raises(ValueError, match="rationally dependent"):
                partial_action_data(basis, WindowSet.interval(QR(0), QR(1)), 3)

    def test_empty_window_gives_empty_data(self):
        data = partial_action_data((QR(1), TAU), WindowSet.empty(), 3)
        assert data.elements == data.relations == ()


PA_WINDOWS = {
    "[0,1]": interval(0, 1),
    "[-1/2,tau]": WindowSet.interval(QR(Fraction(-1, 2)), TAU),
    "[0,1]u[3,4]": WindowSet.normalized([(QR(0), QR(1)), (QR(3), QR(4))]),
    "[0,0]": interval(0, 0),
    # the spans of g = 0 overlap, and the point would add a false span
    "[0,1]u[5/4]u[2,tau+1]": WindowSet.normalized([(QR(0), QR(1)), (QR(Fraction(5, 4)), QR(Fraction(5, 4))),
                                                   (QR(2), TAU + 1)]),
    "empty": WindowSet.empty(),
}


@pytest.mark.parametrize("window", PA_WINDOWS.values(), ids=PA_WINDOWS)
@pytest.mark.parametrize("basis", PA_BASES.values(), ids=PA_BASES)
def test_strip_scan_matches_box_scan(basis, window):
    # elements, composable pairs and relations agree, in order, with the
    # (2b+1)^2 box scan; a window from another quadratic field than the
    # basis fails the same way in both
    for bound in (1, 3, 6):
        try:
            want = partial_action_box(basis, window, bound)
        except DiscriminantMismatch:
            with pytest.raises(DiscriminantMismatch):
                partial_action_data(basis, window, bound)
            continue
        assert partial_action_data(basis, window, bound) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(PA_BASES.values())), pa_windows(), st.integers(1, 6))
def test_random_windows_match_box_scan(basis, window, bound):
    # spans of several components overlap and points contribute none; a
    # Q(sqrt5) window with a Q(sqrt2) basis fails the same way in both
    try:
        want = partial_action_box(basis, window, bound)
    except DiscriminantMismatch:
        with pytest.raises(DiscriminantMismatch):
            partial_action_data(basis, window, bound)
        return
    assert partial_action_data(basis, window, bound) == want


@pytest.mark.parametrize("bound", (16, 32, 64))
def test_harvest_meets_once_per_element(monkeypatch, bound):
    # a cost check with no timing: the window meets grow with the elements
    # (one per strip candidate, 41, 81 and 161 here), not with the pairs (a
    # relation pass over all pairs made 945, 3 659 and 14 427)
    meets, meet = [], modelset._meet

    def counted(*args):
        meets.append(args)
        return meet(*args)

    monkeypatch.setattr(modelset, "_meet", counted)
    data = partial_action_data((QR(1), TAU), interval(0, 1), bound)
    assert len(meets) <= 2 * len(data.elements) + 2


@pytest.mark.parametrize("scheme", EMPIRE_SCHEMES.values(), ids=EMPIRE_SCHEMES)
def test_empire_windows_match_qr_path(scheme):
    for pat_p, pat_q in _empire_pairs(scheme, seed=5, count=24):
        assert pattern_window(scheme, pat_p) == pattern_window_qr(scheme, pat_p)
        assert empire_equal(scheme, pat_p, pat_q) == empire_equal_qr(scheme, pat_p, pat_q)
        assert pattern_embeds(scheme, pat_p + pat_q) == window_meets_group_qr(
            pattern_window_qr(scheme, pat_p + pat_q), *scheme.internal_group_basis())


def test_pattern_window_off_the_lattice_is_empty():
    # 1/3 is no physical lattice value, so no lattice translate of the
    # pattern fits: both window calculi give the empty window, as
    # pattern_embeds answers False
    scheme, pattern = fibonacci_scheme(), [QR(0), QR(Fraction(1, 3))]
    assert pattern_window(scheme, pattern) == pattern_window_qr(scheme, pattern) == WindowSet.empty()
    assert not pattern_embeds(scheme, pattern)


@pytest.mark.parametrize("seed", (0, 1, 2, 3, 7))
def test_empire_suite_pairs_match_qr_path(monkeypatch, seed):
    # every pair the empire suite draws is decided as the exact-value
    # window calculus decides it; the suite hands the kernel the star
    # pairs of its pool points
    decided = []
    scheme = fibonacci_scheme()
    point_of = {scheme._star_pair(x): x for x in modelset_points(scheme, QR(30))}

    def checked(scheme, p_stars, q_stars):
        eq = _empire_equal_stars(scheme, p_stars, q_stars)
        pat_p, pat_q = [point_of[s] for s in p_stars], [point_of[s] for s in q_stars]
        assert eq == empire_equal_qr(scheme, pat_p, pat_q), (pat_p, pat_q)
        decided.append(eq)
        return eq

    monkeypatch.setattr(cli, "_empire_equal_stars", checked)
    assert all(c.passed for c in cli.suite_empire(100, seed))
    assert len(decided) == 100 and set(decided) == {True, False}


OBSTRUCTION_WINDOW = WindowSet.normalized([(QR(0), QR(1)), (QR(9), QR(10))])


@pytest.mark.parametrize("basis, window, bound", [
    ((QR(1), TAU), interval(0, 1), 3),
    ((QR(1), TAU), interval(0, 1), 4),
    ((QR(1), TAU), interval(0, 1), 5),
    ((QR(1), TAU), interval(0, 1), 16),
    ((QR(9), TAU - 1), OBSTRUCTION_WINDOW, 5),
    ((QR(9), TAU - 1), interval(0, 1), 5),
])
def test_suite_harvests_match_box_scan(basis, window, bound):
    # the harvests of the verify suites and the benchmark's b = 16
    assert partial_action_data(basis, window, bound) == partial_action_box(basis, window, bound)


def _grade(r, s, x, grade):
    try:
        return grade(r, s, x)
    except ValueError as exc:
        return str(exc)


@given(st.integers(-40, 40), st.sampled_from((0, 1, -1, 2)), st.integers(1, 3),
       st.sampled_from((QR(9), QR(-9), QR(17), TAU * 9)))
def test_obstruction_grade_matches_qr_oracle(k, surd, r, s):
    # x/s on a quarter grid, with a tau part or none: exact half-integer
    # ties, gaps of exactly 1/4 and negative values all come up
    x = s * (QR(Fraction(k, 4)) + TAU * surd / 50)
    assert _grade(QR(r), s, x, obstruction_grade) == _grade(QR(r), s, x, obstruction_grade_qr)


class TestObstructionGrade:
    def test_zero(self):
        assert obstruction_grade(QR(1), QR(9), QR(0)) == 0

    def test_spec_example(self):
        x = QR(9) + TAU - 1
        assert obstruction_grade(QR(1), QR(9), x) == 1
        assert obstruction_grade(QR(1), QR(9), -x) == -1

    def test_precondition(self):
        with pytest.raises(ValueError):
            obstruction_grade(QR(2), QR(9), QR(0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            obstruction_grade(QR(1), QR(9), QR(4))
