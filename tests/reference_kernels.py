"""Reference kernels: the straightforward versions of the universal-group
routes and of the empire oracle, kept as test oracles for the
output-linear kernels in the package.

Each function is the earlier library code, unchanged apart from its name
and imports, and apart from the outputs and settings the library dropped
later: ``partial_action_box`` no longer returns the composable pairs,
which ``PartialActionData`` dropped as a copy of the first two entries of
its relations, and always tests overlaps of interiors, as
``partial_action_data`` does; ``empire_brute_box`` returns None when
the patterns agree and else the first separator's lattice coordinates,
as ``EmpireScan.compare`` does; ``factor_language_scan`` takes
an ``IndexedWord`` only and ``pointset_points_indexed`` fixes r_0 = 0,
as the library does.  The oracles are the all-pairs
``diff_set``, the ``chained_sum`` product table, the round-by-round Tietze
loop (``tietze_rounds``, run for at most ``budget`` rounds; a budget of
the number of generators reaches the fixed point that ``tietze_simplify``
computes), the box-scan ``partial_action_data``, the
box-scan ``empire_brute``, the double-loop ``factor_language`` and the
indexed point loop of ``PointSet1D.__init__`` (as ``pointset_points_indexed``,
which returns the point list), ``PointSet1D.max_gap`` as the largest
difference of consecutive points (``max_gap_consecutive``), the dense
Smith-form ``abelian_invariants`` (as ``abelian_invariants_dense``) and the
pivot-by-pivot ``smith_normal_form`` with its unimodular transforms
U*A*V = D, the oracle for the alternating Hermite ``smith_invariants``.
``free_abelian_by_rotations`` is the earlier ``certificate_free_abelian``
with ``FreeWord.cyclic_rotations`` inlined.  ``harvest_presentation_all_pairs``
is the presentation the equal-length harvest built before it took one
spanning star per length class: one relator per harvested pair, and
``maxset_presentation_all_pairs`` the table presentation with one relator
per table entry, which ``maxset_presentation`` builds where its abelian
certificate fails.
``harvest_exact_sums`` is the equal-length harvest that groups the Parikh
vectors by exact ``QuadraticRational`` length sums, before the grouping
moved onto integer pairs; it reports the length classes, as the harvest
does since it stopped building every pair.  ``window_intersect_pairwise``
is ``WindowSet.intersect`` as the pairwise max/min of all component pairs
passed to ``WindowSet.normalized``, before it became one merge pass.
``multiply_truncated_scan`` is the pattern-class product deciding by the
earlier ``_embeds`` (as ``embeds_truncated_scan``), which tried every
anchor alignment through ``PointSet1D.__contains__`` and read its
``TruncationError`` as "no", before the search became a lookup of the
canonical offsets in the point index.  It aligns the factors by
``aligned_union``, the union sorted in x's frame, and hands those values
to the window oracle, where ``multiply`` now canonicalises once and hands
it the canonical offsets; it canonicalises the union by
``pattern_class_qr``.  That is ``pattern_class`` on exact values (sorted,
less their least) before a class was stored as integer pairs in its
frame; it returns the QR form (offsets, out index, in index) of a class,
which ``qr_form`` reads off a ``PatternClass``, and ``inverse_qr``,
``pointed_difference_qr``, ``max_above_qr`` and ``natural_leq_qr`` are
the earlier operations on that form.  ``chained_sum`` is the chained
partial sum of two differences, the reference semantics of the
witness-index join in ``maxset_table`` (through ``maxset_table_chained``);
it looks the chained point up by its pair in the set's frame, the key of
the point index.
``accent_multiply_glue`` is the accent product gluing its word letter by
letter, before it took three slices.  ``resolve_seed_pair_expanded`` and
``two_sided_window_expanded`` are the substitution seed-pair search and
window that expand whole iterates sigma^k(w), before each step kept only
the letters the result reads.  They can build words of billions of
letters, or grow one half forever while the other stays short, so they
expand through ``expand_capped``, which counts the length from
letter-count vectors first and raises ``ExpansionCapped`` beyond
``EXPANSION_CAP`` letters; tests skip the specs where it does.
``is_square_free_trial`` is ``is_square_free`` by trial division up to
sqrt(d).  ``pair_text_fraction`` prints (a + b*sqrt(d))/c as ``pair_text``
and, row by row, ``frame_text`` do, from ``str`` of the two parts as
``Fraction`` values.
``check_homomorphism_wordwise`` is ``check_homomorphism``
multiplying the image words one relator letter at a time, each product
freely reduced again, before it reduced the concatenated image letters
once.

The ``window_*_qr`` functions are ``WindowSet``'s operations on exact
``QuadraticRational`` ends (``translate``, ``intersect`` as one merge
pass, ``contains``, ``has_interior`` and ``issubset``), and
``window_meets_group_qr``, ``pattern_window_qr`` and ``empire_equal_qr``
the window decisions built on them, with the stars taken by ``star`` and
points solved by ``integer_coordinates`` (the triple-wise Cramer solve
that ``CutProjectScheme.physical_coordinates`` used): the window calculus
before it moved onto integer pairs in one frame.
``partial_action_box`` runs on them, so it shares no window code with
``partial_action_data``.  ``obstruction_grade_qr`` is ``obstruction_grade``
with its nearest integer floor(x + 1/2) and its 1/4 gap computed by
``QuadraticRational`` arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from tilegroups.exactnum import QuadraticRational as QR
from tilegroups.modelset import (
    CutProjectScheme,
    PartialActionData,
    WindowSet,
    star,
)
from tilegroups.patterns import (
    DEFINED,
    UNDEFINED,
    UNKNOWN,
    PatternClass,
    ProductResult,
)
from tilegroups.pointset import DiffElement, LengthFunction, PointSet1D
from tilegroups.presentation import (
    FreeWord,
    IntMatrix,
    Presentation,
    _exponent_rows,
    presentation_from_pairs,
    reduce_word,
    smith_invariants,
)
from tilegroups.sequences import (
    FactorLanguage,
    IndexedWord,
    SequenceSpec,
    TruncationError,
    expand_substitution,
    factor_language,
)
from tilegroups.universal import AccentString, HarvestReport


def diff_set_pairs(ps: PointSet1D, bound: QR) -> list[DiffElement]:
    """All differences r_i - r_j with |value| <= bound, with complete
    witness lists, sorted by value."""
    if bound.sign() <= 0:
        raise ValueError("bound must be positive")
    found: dict[QR, list[tuple[int, int]]] = {}
    idx = range(ps.min_index, ps.max_index + 1)
    for i in idx:
        for j in idx:
            v = ps.point(i) - ps.point(j)
            if abs(v) <= bound:
                found.setdefault(v, []).append((i, j))
    return [DiffElement(v, tuple(ws)) for v, ws in sorted(found.items())]


def chained_sum(a: DiffElement, b: DiffElement, ps: PointSet1D) -> Optional[DiffElement]:
    """Chained sum: defined iff some x, y, z in the truncated set satisfy
    a = x - y and b = y - z; then the value is a + b.  None means no chain
    inside this window."""
    index, c = ps._index_of, ps.frame[0]
    witnesses = []
    for i, j in a.witnesses:
        va, vb, vc = (ps.point(j) - b.value).triple
        k = None if c % vc else index.get((va * (c // vc), vb * (c // vc)))
        if k is not None:
            witnesses.append((i, k))
    if not witnesses:
        return None
    return DiffElement(a.value + b.value, tuple(witnesses))


def maxset_table_chained(ps: PointSet1D, bound: QR) -> dict[tuple[QR, QR], QR]:
    """The partial-operation table of chained differences with |value| <=
    bound: the group-like set of maximal pattern classes in coordinates."""
    elems = diff_set_pairs(ps, bound)
    by_value = {e.value: e for e in elems}
    table: dict[tuple[QR, QR], QR] = {}
    for a in elems:
        for b in elems:
            out = chained_sum(a, b, ps)
            if out is not None and out.value in by_value:
                table[(a.value, b.value)] = out.value
    return table


def tietze_rounds(pres: Presentation, budget: int) -> Presentation:
    """Bounded simplification: drop empty/duplicate relators and eliminate
    generators defined by relators of length <= 2.  Output presents an
    isomorphic group."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    gens = list(pres.generators)
    relators = list(pres.relators)
    for _ in range(budget):
        seen = set()
        cleaned = []
        for rel in relators:
            key = min(rel.letters, rel.inverse().letters)
            if rel and key not in seen:
                seen.add(key)
                cleaned.append(rel)
        relators = cleaned
        elim: Optional[tuple[str, FreeWord]] = None
        for rel in relators:
            if len(rel) == 1:
                elim = (rel.letters[0][0], FreeWord())
                break
            if len(rel) == 2:
                (g1, e1), (g2, e2) = rel.letters
                if g1 != g2:
                    # g1^e1 g2^e2 = 1  =>  g1 = g2^(-e2*e1)
                    image = FreeWord(((g2, -e2),)) if e1 == 1 else FreeWord(((g2, e2),))
                    elim = (g1, image)
                    break
        if elim is None:
            break
        gen, image = elim
        gens.remove(gen)
        relators = [r.substitute(gen, image) for r in relators]
    seen = set()
    final = []
    for rel in relators:
        key = min(rel.letters, rel.inverse().letters)
        if rel and key not in seen:
            seen.add(key)
            final.append(rel)
    return Presentation(tuple(gens), tuple(final))


def partial_action_box(basis: tuple[QR, QR], window: WindowSet, coeff_bound: int) -> PartialActionData:
    """Elements are the boxed group values g with V and V - g overlapping;
    pairs (g, g') are composable when the triple overlap of V, g+V and
    g+g'+V is non-empty with all three members boxed; each composable pair
    contributes the relation equating the formal product with the sum.
    Overlaps are overlaps of interiors (the open-subset setting).
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    g1, g2 = basis
    elements: list[QR] = []
    for n in range(-coeff_bound, coeff_bound + 1):
        for m in range(-coeff_bound, coeff_bound + 1):
            g = g1 * n + g2 * m
            if window_has_interior_qr(window_intersect_qr(window, window_translate_qr(window, -g))):
                elements.append(g)
    elements.sort()
    eset = set(elements)
    relations: list[tuple[QR, QR, QR]] = []
    for g in elements:
        shifted_g = window_translate_qr(window, g)
        for gp in elements:
            total = g + gp
            if total not in eset:
                continue
            triple = window_intersect_qr(window_intersect_qr(window, shifted_g), window_translate_qr(window, total))
            if window_has_interior_qr(triple):
                relations.append((g, gp, total))
    return PartialActionData(basis, coeff_bound, tuple(elements), tuple(relations))


def free_abelian_by_rotations(pres: Presentation) -> Optional[int]:
    """Z^n certificate with the commutator found among the cyclic rotations
    of [a, b] and its inverse: zero exponent sums and a commutator relator
    for every generator pair."""
    for rel in pres.relators:
        if any(sum(e for g, e in rel.letters if g == gen) != 0 for gen in pres.generators):
            return None
    needed = {frozenset((a, b)) for i, a in enumerate(pres.generators)
              for b in pres.generators[i + 1:]}
    found = set()
    for rel in pres.relators:
        if len(rel) != 4:
            continue
        gens = sorted(rel.generators())
        if len(gens) != 2:
            continue
        a, b = gens
        commutator = FreeWord(((a, 1), (b, 1), (a, -1), (b, -1)))
        variants = set()
        for w in (commutator, commutator.inverse()):
            n = len(w.letters)
            for i in range(n):
                variants.add(reduce_word(w.letters[i:] + w.letters[:i]).letters)
        if rel.letters in variants:
            found.add(frozenset((a, b)))
    if needed <= found:
        return len(pres.generators)
    return None


def harvest_presentation_all_pairs(report: HarvestReport) -> Presentation:
    """The harvest's presentation with one relator u v^-1 for every
    harvested pair (u, v) of equal-length factors."""
    return presentation_from_pairs(report.presentation.generators,
                                   [(u, v) for u, v, _ in report.pairs])


def maxset_presentation_all_pairs(source) -> Presentation:
    """Presentation of the universal group of a finite partial operation,
    given as its table ``((x, y), z)`` per defined product x y = z: one
    generator per value occurring in the table, in ascending order and
    labelled by the exact value, and one relation x y = z per entry, in the
    table's own order."""
    label = {g: str(g) for g in sorted({v for (x, y), z in source.items() for v in (x, y, z)})}
    return presentation_from_pairs(
        list(label.values()), [([label[x], label[y]], [label[z]]) for (x, y), z in source.items()])


def harvest_exact_sums(window: IndexedWord, lengths: LengthFunction, max_len: int) -> HarvestReport:
    """Every class of two or more distinct equal-length factors of the
    window, the lengths summed exactly once per Parikh vector; the
    presentation takes one relator u v^-1 per pair of neighbours u < v in
    each sorted length class."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    lang = factor_language(window, max_len)
    generators = sorted(set(window.letters))
    by_parikh: dict[tuple[int, ...], list[str]] = {}
    for w in lang.words:
        by_parikh.setdefault(tuple(w.count(c) for c in generators), []).append(w)
    by_length: dict[QR, list[str]] = {}
    for counts, words in by_parikh.items():
        length = sum(lengths[c] * n for c, n in zip(generators, counts) if n)
        by_length.setdefault(length, []).extend(words)
    classes = []
    spokes = []
    for length in sorted(by_length):
        group = sorted(by_length[length])
        for i in range(1, len(group)):
            spokes.append((group[i - 1], group[i]))
        if len(group) > 1:
            classes.append((length, tuple(group)))
    pres = presentation_from_pairs(generators, spokes)
    return HarvestReport(pres, window.start_index, len(window), max_len, tuple(classes))


def pattern_class_qr(values: list[QR], out_value: QR, in_value: QR) -> tuple[tuple[QR, ...], int, int]:
    """Canonicalize arbitrary point values into the QR form of a class:
    (offsets sorted with minimum 0, out index, in index)."""
    pts = sorted(set(values))
    try:
        out_index, in_index = pts.index(out_value), pts.index(in_value)
    except ValueError:
        raise ValueError("pointed values must belong to the pattern") from None
    base = pts[0]
    return tuple(p - base for p in pts), out_index, in_index


def qr_form(x: PatternClass) -> tuple[tuple[QR, ...], int, int]:
    return x.offsets, x.out_index, x.in_index


def inverse_qr(form: tuple) -> tuple:
    offsets, out_index, in_index = form
    return offsets, in_index, out_index


def pointed_difference_qr(form: tuple) -> QR:
    offsets, out_index, in_index = form
    return offsets[out_index] - offsets[in_index]


def max_above_qr(form: tuple) -> tuple:
    offsets, out_index, in_index = form
    out_v, in_v = offsets[out_index], offsets[in_index]
    return pattern_class_qr([out_v, in_v], out_v, in_v)


def natural_leq_qr(x: tuple, y: tuple) -> bool:
    if pointed_difference_qr(x) != pointed_difference_qr(y):
        return False
    (x_offsets, x_out, x_in), (y_offsets, y_out, y_in) = x, y
    shift = x_offsets[x_in] - y_offsets[y_in]
    xs = set(x_offsets)
    return all((v + shift) in xs for v in y_offsets) and x_offsets[x_out] == y_offsets[y_out] + shift


def aligned_union(x: PatternClass, y: PatternClass) -> tuple[list[QR], QR, QR]:
    """Union of the two patterns after aligning in(x) with out(y); returns
    (values, out value, in value) in the x-anchored frame."""
    shift = x.in_value - y.out_value
    values = sorted(set(x.offsets) | {v + shift for v in y.offsets})
    return values, x.out_value, y.in_value + shift


def embeds_truncated_scan(ps: PointSet1D, values: list[QR]) -> bool:
    """Search all anchor alignments of the values into the truncated set."""

    def fits(shift: QR) -> bool:
        try:
            return all((v + shift) in ps for v in values)
        except TruncationError:
            return False

    return any(fits(p - values[0]) for p in ps.points)


def multiply_truncated_scan(
    x: PatternClass,
    y: PatternClass,
    ps: PointSet1D,
    embeds_oracle: Optional[Callable[[list[QR]], bool]] = None,
) -> ProductResult:
    """Product in the pattern-class semigroup over the truncated set, the
    truncated search by ``embeds_truncated_scan``."""
    values, out_v, in_v = aligned_union(x, y)
    result = PatternClass(*pattern_class_qr(values, out_v, in_v))
    if embeds_truncated_scan(ps, values):
        return ProductResult(DEFINED, result)
    if embeds_oracle is not None:
        if embeds_oracle(values):
            return ProductResult(DEFINED, result)
        return ProductResult(UNDEFINED)
    return ProductResult(UNKNOWN)


def accent_multiply_glue(p: AccentString, q: AccentString, lang: FactorLanguage):
    """Place p above q with p's in-letter over q's out-letter; match on the
    overlap ignoring accents, glue, keep p's out accent and q's in accent.
    None if the words mismatch or the glued word is not in the language."""
    offset = p.in_pos - q.out_pos  # q's frame shifted into p's frame
    lo = min(0, offset)
    hi = max(len(p.word), offset + len(q.word))
    over_lo, over_hi = max(0, offset), min(len(p.word), offset + len(q.word))
    if p.word[over_lo:over_hi] != q.word[over_lo - offset:over_hi - offset]:
        return None
    glued = []
    for i in range(lo, hi):
        if 0 <= i < len(p.word):
            glued.append(p.word[i])
        else:
            glued.append(q.word[i - offset])
    word = "".join(glued)
    if word not in lang:  # may raise TruncationError beyond the stamp
        return None
    return AccentString(word, p.out_pos - lo, q.in_pos + offset - lo)


def window_translate_qr(w: WindowSet, shift: QR) -> WindowSet:
    return WindowSet(tuple((lo + shift, hi + shift) for lo, hi in w.components))


def window_intersect_qr(a: WindowSet, b: WindowSet) -> WindowSet:
    """One merge pass over the sorted components, past the one that ends
    first at each step; the overlaps come out sorted and disjoint."""
    a, b = a.components, b.components
    parts = []
    i = j = 0
    while i < len(a) and j < len(b):
        (lo1, hi1), (lo2, hi2) = a[i], b[j]
        lo = lo2 if lo1 < lo2 else lo1
        if hi1 < hi2:
            hi, i = hi1, i + 1
        else:
            hi, j = hi2, j + 1
        if not hi < lo:
            parts.append((lo, hi))
    return WindowSet(tuple(parts))


def window_contains_qr(w: WindowSet, x: QR) -> bool:
    return any(lo <= x <= hi for lo, hi in w.components)


def window_has_interior_qr(w: WindowSet) -> bool:
    return any(lo < hi for lo, hi in w.components)


def window_issubset_qr(a: WindowSet, b: WindowSet) -> bool:
    return window_intersect_qr(a, b) == a


def integer_coordinates(value: QR, b1: QR, b2: QR) -> Optional[tuple[int, int]]:
    """Solve value = n*b1 + m*b2 with integer n, m; None if unsolvable.
    Requires b1, b2 to be Q-linearly independent in the field.  Cramer's
    rule on the integer triples (a + s*sqrt(d))/c of the three values."""
    if value.disc and value.disc != (b1.disc or b2.disc):
        return None  # a value from another quadratic field
    a, b, c = value.triple
    a1, s1, c1 = b1.triple
    a2, s2, c2 = b2.triple
    det = (a1 * s2 - a2 * s1) * c
    if det == 0:
        raise ValueError("basis vectors are rationally dependent")
    n, n_rem = divmod((a * s2 - a2 * b) * c1, det)
    m, m_rem = divmod((a1 * b - a * s1) * c2, det)
    if n_rem or m_rem:
        return None
    return n, m


def window_meets_group_qr(window: WindowSet, b1: QR, b2: QR) -> bool:
    """Does the window contain a point of the dense subgroup Z*b1 + Z*b2?
    Components with interior always do; degenerate points are solved
    exactly."""
    for lo, hi in window.components:
        if lo < hi:
            return True
        if integer_coordinates(lo, b1, b2) is not None:
            return True
    return False


def pattern_window_qr(scheme: CutProjectScheme, points: list[QR]) -> WindowSet:
    """The intersection over the points of K - x*, stopping at the first
    empty intersection; empty at a point off the physical lattice image,
    which no lattice translate of the pattern fits."""
    out = None
    for p in points:
        try:
            p_star = star(scheme, p)
        except ValueError:
            return WindowSet.empty()
        translate = window_translate_qr(scheme.window, -p_star)
        out = translate if out is None else window_intersect_qr(out, translate)
        if out.is_empty():
            break
    if out is None:
        raise ValueError("pattern must be non-empty")
    return out


def empire_equal_qr(scheme: CutProjectScheme, pat_p: list[QR], pat_q: list[QR]) -> bool:
    """Same empire iff the pattern windows coincide, after checking that
    every point of both patterns lies in the model set."""
    for p in pat_p + pat_q:
        if not window_contains_qr(scheme.window, star(scheme, p)):
            raise ValueError(f"pattern point {p} is not in the model set")
    return pattern_window_qr(scheme, pat_p) == pattern_window_qr(scheme, pat_q)


def obstruction_grade_qr(r: QR, s: QR, x: QR) -> int:
    """Nearest integer to x/s, for x drawn from the difference harvest of
    the two-component window (0, r) union (s, s+r) with |s| > 8r."""
    if (abs(s) - r * 8).sign() <= 0:
        raise ValueError("requires |s| > 8r")
    q = x / s
    half = Fraction(1, 2)
    nearest = (q + half).floor()
    if q - nearest == half or nearest - q == half:
        raise ValueError(f"{x}/{s} sits exactly between two integers")
    if (abs(q - nearest) - Fraction(1, 4)).sign() >= 0:
        raise ValueError(f"{x}/{s} is not within 1/4 of an integer; x outside the harvest range")
    return nearest


def window_intersect_pairwise(a: WindowSet, b: WindowSet) -> WindowSet:
    """The overlap of every component pair, normalized."""
    parts = []
    for lo1, hi1 in a.components:
        for lo2, hi2 in b.components:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                parts.append((lo, hi))
    return WindowSet.normalized(parts)


def empire_brute_box(
    scheme: CutProjectScheme,
    pat_p: list[QR],
    pat_q: list[QR],
    box_bound: int,
) -> Optional[tuple[int, int]]:
    """Independent empire oracle: scan every lattice g with coefficients in
    [-box_bound, box_bound] and compare, point by point, whether g + P and
    g + Q land inside the model set: None if they agree everywhere, else
    the lattice coordinates (n, m) of the first g that separates them.

    The scan runs over integerized star coordinates (one common denominator,
    integer pairs over {1, sqrt(d)}) for speed; lattice rows whose star
    falls outside the combined window hull of both patterns are skipped,
    which is sound because there both memberships are False.
    """
    i1, i2 = scheme.internal_group_basis()
    p_stars = [star(scheme, p) for p in pat_p]
    q_stars = [star(scheme, q) for q in pat_q]
    values = [i1, i2, *p_stars, *q_stars, *(e for comp in scheme.window.components for e in comp)]
    d = max(v.disc for v in values)
    denom = math.lcm(*(v.triple[2] for v in values))
    sign = QR.int_sign

    def pair(v: QR) -> tuple[int, int]:
        a, b, c = v.triple
        return a * (denom // c), b * (denom // c)

    i1p, i2p = pair(i1), pair(i2)
    ppairs = [pair(v) for v in p_stars]
    qpairs = [pair(v) for v in q_stars]
    comps = [(pair(lo), pair(hi)) for lo, hi in scheme.window.components]

    def member(a: int, b: int, shift: tuple[int, int]) -> bool:
        # is (a,b) + shift inside the window, all over the common denominator
        x, y = a + shift[0], b + shift[1]
        for (alo, blo), (ahi, bhi) in comps:
            if sign(x - alo, y - blo, d) >= 0 and sign(ahi - x, bhi - y, d) >= 0:
                return True
        return False

    # band of star values that could possibly land in any K - x*
    klo, khi = scheme.window.hull()
    stars_all = p_stars + q_stars
    band_lo = klo - max(stars_all)
    band_hi = khi - min(stars_all)
    blo, bhi = pair(band_lo), pair(band_hi)

    bound = box_bound
    for n in range(-bound, bound + 1):
        gn = (n * i1p[0], n * i1p[1])
        for m in range(-bound, bound + 1):
            ga = gn[0] + m * i2p[0]
            gb = gn[1] + m * i2p[1]
            if sign(ga - blo[0], gb - blo[1], d) < 0 or sign(bhi[0] - ga, bhi[1] - gb, d) < 0:
                continue  # both memberships are False out here
            in_p = all(member(a, b, (ga, gb)) for a, b in ppairs)
            in_q = all(member(a, b, (ga, gb)) for a, b in qpairs)
            if in_p != in_q:
                return n, m
    return None


def factor_language_scan(word: IndexedWord, max_len: int) -> FactorLanguage:
    """All distinct non-empty factors of length <= max_len in the window."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    text, start = word.letters, word.start_index
    found = set()
    n = len(text)
    for i in range(n):
        for length in range(1, min(max_len, n - i) + 1):
            found.add(text[i:i + length])
    return FactorLanguage(frozenset(found), max_len, start, n)


def pointset_points_indexed(window: IndexedWord, lengths: LengthFunction) -> list[QR]:
    """Points r_{start-1} .. r_{start+n-1} with r_i - r_{i-1} = |T(i)| and r_0 = 0."""
    if len(window) == 0:
        raise ValueError("window must be non-empty")
    lo, hi = window.start_index - 1, window.end_index - 1
    if not lo <= 0 <= hi:
        raise ValueError("window must cover the anchor index 0")
    pts: dict[int, QR] = {0: QR(0)}
    run = QR(0)
    for i in range(1, hi + 1):
        run = run + lengths[window.at(i)]
        pts[i] = run
    run = QR(0)
    for i in range(0, lo, -1):
        run = run - lengths[window.at(i)]
        pts[i - 1] = run
    return [pts[i] for i in range(lo, hi + 1)]


def max_gap_consecutive(points: list[QR]) -> QR:
    return max(b - a for a, b in zip(points, points[1:]))


def pair_text_fraction(a: int, b: int, c: int, d: int) -> str:
    """(a + b*sqrt(d))/c for c > 0 as "p/q+r/s*sqrt(d)", a zero rational
    part and a surd coefficient 1 left out."""
    rat, coef = str(Fraction(a, c)), str(Fraction(abs(b), c))
    if b == 0:
        return rat
    surd = f"sqrt({d})" if coef == "1" else f"{coef}*sqrt({d})"
    if a == 0:
        return surd if b > 0 else "-" + surd
    return f"{rat}{'+' if b > 0 else '-'}{surd}"


EXPANSION_CAP = 10 ** 5


class ExpansionCapped(Exception):
    """An expanding oracle would build a word of more than EXPANSION_CAP
    letters; not a ValueError, so it is never mistaken for a spec error."""


def iterate_length(rule: dict[str, str], word: str, iterations: int) -> int:
    """|sigma^iterations(word)|, from letter-count vectors without expanding."""
    counts = Counter(word)
    for _ in range(iterations):
        step = Counter()
        for letter, times in counts.items():
            for image_letter, k in Counter(rule[letter]).items():
                step[image_letter] += k * times
        counts = step
    return sum(counts.values())


def expand_capped(rule: dict[str, str], word: str, iterations: int) -> str:
    """``expand_substitution``, raising ExpansionCapped instead where the
    result would exceed EXPANSION_CAP letters."""
    if iterate_length(rule, word, iterations) > EXPANSION_CAP:
        raise ExpansionCapped(f"sigma^{iterations}({word!r}) exceeds {EXPANSION_CAP} letters")
    return expand_substitution(rule, word, iterations)


def resolve_seed_pair_expanded(rule: dict[str, str], seed: str, seed_left: Optional[str]) -> tuple[str, int]:
    """Find (u, k): sigma^k(seed) starts with seed, sigma^k(u) ends with u,
    and the two-letter pair u+seed occurs in the language."""
    for k in range(1, 9):
        image = expand_capped(rule, seed, k)
        if not image.startswith(seed):
            continue
        candidates = [seed_left] if seed_left else sorted(rule)
        for u in candidates:
            if not expand_capped(rule, u, k).endswith(u):
                continue
            # legality of the seed pair: u+seed must occur
            probe = expand_capped(rule, seed, max(k * 4, 8))
            if u + seed in probe:
                return u, k
    raise ValueError(f"no legal two-sided seed pair for seed {seed!r}"
                     + (f" with left letter {seed_left!r}" if seed_left else ""))


def two_sided_window_expanded(spec: SequenceSpec, half_width: int) -> IndexedWord:
    """Letters of the substitution's bi-infinite fixed point at indices
    [-half_width, half_width]."""
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    h = half_width
    u, k = resolve_seed_pair_expanded(spec.rule, spec.seed, spec.seed_left)
    left, right = u, spec.seed
    while len(left) < h + 1 or len(right) < h:
        grown_left = expand_capped(spec.rule, left, k)
        grown_right = expand_capped(spec.rule, right, k)
        if len(grown_left) == len(left) and len(grown_right) == len(right):
            raise ValueError("substitution does not grow; two-sided extension undefined")
        left, right = grown_left, grown_right
    return IndexedWord(-h, left[-(h + 1):] + right[:h])


def is_square_free_trial(d: int) -> bool:
    """No square of an integer p >= 2 divides d, tried for every p <= sqrt(d)."""
    if d < 0:
        return False
    if d in (0, 1):
        return True
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


def check_homomorphism_wordwise(
    pres: Presentation,
    images: dict[str, FreeWord],
    target_is_trivial: Callable[[FreeWord], bool],
) -> bool:
    """True iff mapping each generator to its image kills every relator."""
    missing = set(pres.generators) - set(images)
    if missing:
        raise ValueError(f"no image for generators {sorted(missing)}")
    for rel in pres.relators:
        out = FreeWord()
        for g, e in rel.letters:
            out = out * (images[g] if e == 1 else images[g].inverse())
        if not target_is_trivial(out):
            return False
    return True


def abelian_invariants_dense(pres: Presentation) -> tuple[int, list[int]]:
    """(free rank, torsion factors > 1) of the abelianized group: the Smith
    invariants of the Hermite basis of the exponent-sum matrix."""
    if not pres.relators:
        return len(pres.generators), []
    factors = smith_invariants(_exponent_rows(pres))
    free_rank = len(pres.generators) - len(factors)
    torsion = [f for f in factors if f > 1]
    return free_rank, torsion


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*A*V = D diagonal, d1 | d2 | ..., U, V unimodular.

    Pivoting always picks the smallest nonzero absolute value, so the
    reduction is deterministic.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [row[:] for row in matrix]
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        # smallest nonzero |entry| in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if d[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                row_op(i, t, q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_op(j, t, q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # re-pick a smaller pivot in the same block
        # pivot must divide every remaining entry
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # fold the offending row into row t and restart the block
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1
        if t == rows or t == cols:
            break
    return d, u, v
