import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from helpers import PA_BASES, cyclic_reduction, pa_windows, word_length
from reference_kernels import (accent_multiply_glue, harvest_exact_sums, harvest_presentation_all_pairs,
                               maxset_presentation_all_pairs)
from tilegroups.exactnum import DiscriminantMismatch, QuadraticRational as QR, golden_ratio
from tilegroups.modelset import WindowSet, partial_action_data
from tilegroups.pointset import LengthFunction, build_pointset
from tilegroups.cli import case_pointset, reference_cases
from tilegroups.presentation import (
    FreeWord,
    abelian_invariants,
    certificate_free,
    certificate_free_abelian,
    reduce_word,
    tietze_simplify,
)
from tilegroups.patterns import maxset_table
from tilegroups.sequences import (
    IndexedWord,
    SequenceSpec,
    TruncationError,
    factor_language,
    two_sided_window,
)
from tilegroups.universal import (
    AccentString,
    accent_inverse,
    accent_is_idempotent,
    accent_max_above,
    accent_multiply,
    accent_natural_leq,
    compose_chain,
    decompose_into_two_letter,
    enumerate_end_accented_and_max,
    enumerate_language_semigroup,
    harvest_equal_length_relations,
    maxset_presentation,
    universal_group_of_language,
)

TAU = golden_ratio()
FIB_SPEC = SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a")
THUE_MORSE_SPEC = SequenceSpec("substitution", rule={"a": "ab", "b": "ba"}, seed="a")
FIB_LEN = LengthFunction({"a": TAU, "b": QR(1)})


SQRT2 = QR.sqrt_of(2)
SQRT3 = QR.sqrt_of(3)
PARTIAL_ACTIONS = [
    ((QR(1), TAU), WindowSet.interval(QR(0), QR(1))),
    ((QR(1), TAU), WindowSet.interval(QR(0), TAU)),
    ((QR(2), TAU), WindowSet.normalized([(QR(0), QR(1)), (QR(3), TAU + 2)])),
    ((QR(9), TAU - 1), WindowSet.normalized([(QR(0), QR(1)), (QR(9), QR(10))])),
    ((QR(1), SQRT2), WindowSet.interval(QR(0), SQRT2 - 1)),
    ((QR(1), SQRT2), WindowSet.interval(QR(0), QR(Fraction(3, 2)))),
    ((SQRT3, QR(1)), WindowSet.normalized([(QR(0), SQRT3), (QR(3), QR(4))])),
]
PATH_LENGTHS = (QR(1), QR(2), QR(3), QR(Fraction(1, 2)), QR(Fraction(5, 3)), TAU, TAU + 1, TAU * 2,
                TAU - QR(Fraction(1, 2)))
# a word over 2 or 3 letters and injective rational and Q(sqrt 5) lengths
WORDS_AND_LENGTHS = st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.tuples(
    st.text(alphabet=letters, min_size=1, max_size=40),
    st.lists(st.sampled_from(PATH_LENGTHS), min_size=len(letters), max_size=len(letters), unique=True)
    .map(lambda values: LengthFunction(dict(zip(letters, values))))))
HARVEST_LENGTHS = (
    LengthFunction({"a": QR(3), "b": QR(2), "c": QR(1)}),
    LengthFunction({"a": SQRT2, "b": QR(1), "c": SQRT2 / 2 + QR(Fraction(1, 2))}),
)


def fib_lang(half_width=40, max_len=6):
    return factor_language(two_sided_window(FIB_SPEC, half_width), max_len)


def quotient(u: str, v: str) -> FreeWord:
    """The free reduction of u v^-1 for positive words u and v."""
    return reduce_word([(c, 1) for c in u] + [(c, -1) for c in reversed(v)])


class TestHarvest:
    def test_periodic_contains_commuting_pair(self):
        spec = SequenceSpec("periodic", word="ab")
        lengths = LengthFunction({"a": QR(2), "b": QR(1)})
        rep = harvest_equal_length_relations(two_sided_window(spec, 20), lengths, 3)
        assert ("ab", "ba", QR(3)) in rep.pairs
        for u, v, _ in rep.pairs:
            assert u.count("a") == v.count("a") and u.count("b") == v.count("b")

    def test_fibonacci_pairs(self):
        # lengths n*tau + m coincide exactly when letter counts do
        rep = harvest_equal_length_relations(two_sided_window(FIB_SPEC, 40), FIB_LEN, 3)
        pair_words = {(u, v) for u, v, _ in rep.pairs}
        assert ("ab", "ba") in pair_words
        length3 = {p for p in pair_words if len(p[0]) == 3}
        assert length3 == {("aab", "aba"), ("aab", "baa"), ("aba", "baa")}

    def test_irrational_splice_harvest_empty(self):
        spec = SequenceSpec("spliced", left="a", right="b")
        rep = harvest_equal_length_relations(two_sided_window(spec, 20), FIB_LEN, 12)
        assert rep.pairs == ()
        assert certificate_free(rep.presentation) == 2

    def test_truncation_stamps(self):
        rep = harvest_equal_length_relations(two_sided_window(FIB_SPEC, 15), FIB_LEN, 4)
        assert rep.window_start == -15 and rep.window_len == 31 and rep.max_len == 4

    def test_relations_monotone_in_window(self):
        small = harvest_equal_length_relations(two_sided_window(FIB_SPEC, 10), FIB_LEN, 4)
        large = harvest_equal_length_relations(two_sided_window(FIB_SPEC, 30), FIB_LEN, 4)
        assert set(small.pairs) <= set(large.pairs)

    def test_word_length(self):
        assert word_length("ab", FIB_LEN) == TAU + 1
        assert word_length("", FIB_LEN) == QR(0)

    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_parikh_grouping_matches_word_length(self, case):
        # grouping every factor by its own exact length gives the same
        # pairs, in the same order; each pair's relator u_i u_j^-1 is, in
        # the free group, the product of the quotients of neighbours along
        # the sorted class, whose cyclic reductions are all in the
        # presentation
        config = reference_cases()[case]
        window = two_sided_window(config.spec, 60)
        rep = harvest_equal_length_relations(window, config.lengths, 14)
        by_length = {}
        for w in sorted(factor_language(window, 14).words):
            by_length.setdefault(word_length(w, config.lengths), []).append(w)
        pairs = []
        for length in sorted(by_length):
            group = sorted(by_length[length])
            pairs += [(u, v, length) for i, u in enumerate(group) for v in group[i + 1:]]
        assert rep.pairs == tuple(pairs)
        assert rep.presentation.generators == tuple(sorted(set(window.letters)))
        relators = set(rep.presentation.relators)
        for group in map(sorted, by_length.values()):
            steps = [quotient(u, v) for u, v in zip(group, group[1:])]
            assert {cyclic_reduction(q) for q in steps} - {FreeWord()} <= relators
            for i, j in combinations(range(len(group)), 2):
                assert reduce(mul, steps[i:j]) == quotient(group[i], group[j])

    @pytest.mark.parametrize("half_width, max_len", [(60, 14), (400, 30)])
    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_star_invariants_match_all_pairs(self, case, half_width, max_len):
        # the presentation of the neighbour paths (once spanning stars, as
        # the name says) against the relators of all the pairs
        config = reference_cases()[case]
        rep = harvest_equal_length_relations(
            two_sided_window(config.spec, half_width), config.lengths, max_len)
        path_pres, all_pres = rep.presentation, harvest_presentation_all_pairs(rep)
        assert set(path_pres.relators) <= set(all_pres.relators)

        def facts(pres):
            return abelian_invariants(pres), certificate_free(pres), certificate_free_abelian(pres)

        assert facts(path_pres) == facts(all_pres)

    @pytest.mark.parametrize("half_width, max_len", [(40, 12), (400, 30)])
    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_integer_keys_match_exact_sums(self, case, half_width, max_len):
        config = reference_cases()[case]
        window = two_sided_window(config.spec, half_width)
        assert (harvest_equal_length_relations(window, config.lengths, max_len)
                == harvest_exact_sums(window, config.lengths, max_len))

    @given(st.text(alphabet="abc", min_size=1, max_size=40), st.integers(2, 8),
           st.sampled_from(HARVEST_LENGTHS))
    def test_integer_keys_match_exact_sums_on_words(self, text, max_len, lengths):
        # rational lengths collide often (aa = bbb); d = 2 lengths only on
        # equal letter counts
        window = IndexedWord(-len(text) // 2, text)
        assert (harvest_equal_length_relations(window, lengths, max_len)
                == harvest_exact_sums(window, lengths, max_len))

    @pytest.mark.parametrize("half_width, max_len", [(60, 10), (400, 30), (1600, 60)])
    @pytest.mark.parametrize("case", ["fib", "splice-rational-3-2"])
    def test_one_relator_at_every_window(self, case, half_width, max_len):
        # ab = ba and a^2 = b^3: sorted neighbours of one length differ in
        # one such swap, so every path step cuts to the same relator
        config = reference_cases()[case]
        rep = harvest_equal_length_relations(two_sided_window(config.spec, half_width), config.lengths, max_len)
        relator = {"fib": "a b a- b-", "splice-rational-3-2": "a a b- b- b-"}[case]
        assert tuple(map(str, rep.presentation.relators)) == (relator,)

    @settings(max_examples=300, deadline=None)
    @given(WORDS_AND_LENGTHS, st.integers(2, 8))
    def test_path_facts_match_all_pairs_on_words(self, text_lengths, max_len):
        # rational and Q(sqrt 5) lengths: the path presentation has the
        # invariants and certificates of the relators of all the pairs, and
        # at most one relator per path step
        text, lengths = text_lengths
        rep = harvest_equal_length_relations(IndexedWord(-len(text) // 2, text), lengths, max_len)
        path_pres, all_pres = rep.presentation, harvest_presentation_all_pairs(rep)

        def facts(pres):
            return abelian_invariants(pres), certificate_free(pres), certificate_free_abelian(pres)

        assert facts(path_pres) == facts(all_pres)
        steps = len({w for u, v, _ in rep.pairs for w in (u, v)}) - len({length for *_, length in rep.pairs})
        assert len(path_pres.relators) <= steps

    @settings(max_examples=300, deadline=None)
    @given(WORDS_AND_LENGTHS, st.integers(2, 8))
    def test_tietze_leaves_harvest_presentation_unchanged(self, text_lengths, max_len):
        # a relator is the cyclic core u'v'^-1 of sorted neighbours u < v of
        # one length class, so u' and v' are non-empty, distinct and u' < v'
        # (they differ in their first letter).  A relator of length <= 2
        # would need two distinct letters of one length, which LengthFunction
        # rejects, so none defines a generator; a duplicate up to inversion
        # would need the pair (v', u'), which never occurs.  So Tietze has
        # nothing to eliminate and nothing to drop
        text, lengths = text_lengths
        rep = harvest_equal_length_relations(IndexedWord(-len(text) // 2, text), lengths, max_len)
        assert tietze_simplify(rep.presentation) == rep.presentation


class TestAccentStrings:
    def test_check_idempotent(self):
        a = AccentString("a", 0, 0)
        lang = fib_lang()
        assert accent_multiply(a, a, lang) == a
        assert accent_is_idempotent(a)

    def test_glue_single_overlap(self):
        # (grave-a acute-b) x (grave-b acute-a) overlaps on b, glues to aba
        lang = fib_lang()
        p = AccentString("ab", 0, 1)
        q = AccentString("ba", 0, 1)
        out = accent_multiply(p, q, lang)
        assert out == AccentString("aba", 0, 2)

    def test_glue_rejected_outside_language(self):
        # two aa blocks overlapping on one letter would spell aaa, which the
        # Fibonacci language never contains
        lang = factor_language(two_sided_window(FIB_SPEC, 30), 4)
        p = AccentString("aa", 0, 1)
        assert accent_multiply(p, p, lang) is None

    def test_mismatch_undefined(self):
        # p's in-letter b lands on q's out-letter a
        lang = fib_lang()
        p = AccentString("ab", 0, 1)
        q = AccentString("aa", 0, 1)
        assert accent_multiply(p, q, lang) is None

    def test_truncation_error_beyond_stamp(self):
        lang = factor_language(two_sided_window(FIB_SPEC, 30), 2)
        p = AccentString("ab", 0, 1)
        q = AccentString("ba", 0, 1)
        with pytest.raises(TruncationError):
            accent_multiply(p, q, lang)

    def test_inverse(self):
        p = AccentString("ab", 0, 1)
        assert accent_inverse(p) == AccentString("ab", 1, 0)
        assert accent_inverse(accent_inverse(p)) == p
        c = AccentString("a", 0, 0)
        assert accent_inverse(c) == c

    @pytest.mark.parametrize("spec", [
        FIB_SPEC, reference_cases()["periodic-ab-2-1"].spec, THUE_MORSE_SPEC,
    ], ids=["fib", "periodic", "thue-morse"])
    def test_slices_match_glue_loop(self, spec):
        # every pair of accent strings of words of at most 3 letters; at
        # max_len 4 a glued word of 5 letters raises on both sides
        lang = factor_language(two_sided_window(spec, 40), 4)
        small = [s for s in enumerate_language_semigroup(lang) if len(s.word) <= 3]

        def outcome(product, p, q):
            try:
                return product(p, q, lang)
            except TruncationError:
                return "truncated"

        seen = set()
        for p in small:
            for q in small:
                got = outcome(accent_multiply, p, q)
                assert got == outcome(accent_multiply_glue, p, q), (p, q)
                seen.add(got if got in (None, "truncated") else "defined")
        assert seen == {None, "truncated", "defined"}

    def test_natural_order(self):
        big = AccentString("aba", 1, 1)
        small = AccentString("b", 0, 0)
        assert accent_natural_leq(big, small)
        assert accent_max_above(big) == small
        mixed = AccentString("aba", 0, 2)
        assert accent_max_above(mixed) == mixed


class TestEnumerate:
    def test_single_letter_language(self):
        lang = factor_language(IndexedWord(0, "aaa"), 1)
        c, m = enumerate_end_accented_and_max(lang)
        assert c == [AccentString("a", 0, 0)]
        assert m == [AccentString("a", 0, 0)]

    def test_fibonacci_length_two(self):
        lang = factor_language(two_sided_window(FIB_SPEC, 30), 2)
        c, m = enumerate_end_accented_and_max(lang)
        two_letter = [x for x in c if len(x.word) == 2]
        assert len(two_letter) == 3  # aa, ab, ba; no bb
        assert all(x.out_pos == 0 and x.in_pos == len(x.word) - 1 for x in c)
        inverses = [x for x in m if x not in c]
        assert all(x.out_pos == len(x.word) - 1 and x.in_pos == 0 for x in inverses)

    def test_maximal_are_c_then_inverses_of_longer_strings(self):
        lang = factor_language(two_sided_window(FIB_SPEC, 30), 3)
        c, m = enumerate_end_accented_and_max(lang)
        assert c == [AccentString(w, 0, len(w) - 1) for w in sorted(lang.words)]
        assert m == c + [AccentString(w, len(w) - 1, 0) for w in sorted(lang.words) if len(w) >= 2]
        assert len(set(m)) == len(m)

    def test_every_element_below_exactly_one_maximal(self):
        lang = factor_language(two_sided_window(FIB_SPEC, 20), 4)
        _, maximal = enumerate_end_accented_and_max(lang)
        for s in enumerate_language_semigroup(lang):
            assert sum(accent_natural_leq(s, m) for m in maximal) == 1


class TestDecompose:
    def test_aba(self):
        parts = decompose_into_two_letter(AccentString("aba", 0, 2))
        assert parts == [AccentString("ab", 0, 1), AccentString("ba", 0, 1)]

    def test_aab(self):
        parts = decompose_into_two_letter(AccentString("aab", 0, 2))
        assert parts == [AccentString("aa", 0, 1), AccentString("ab", 0, 1)]

    def test_length_two_singleton(self):
        assert decompose_into_two_letter(AccentString("ab", 0, 1)) == [AccentString("ab", 0, 1)]

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            decompose_into_two_letter(AccentString("a", 0, 0))

    def test_roundtrip_all(self):
        lang = fib_lang(60, 8)
        c, _ = enumerate_end_accented_and_max(lang)
        for x in c:
            if len(x.word) >= 2:
                assert compose_chain(decompose_into_two_letter(x), lang) == x


class TestUniversalGroupSL:
    def test_fibonacci_rank_three(self):
        pres, rank = universal_group_of_language(fib_lang(60, 8))
        assert rank == 3 and pres.generators == ("aa", "ab", "ba")
        assert pres.relators == ()

    def test_periodic_rank_two(self):
        spec = SequenceSpec("periodic", word="ab")
        pres, rank = universal_group_of_language(factor_language(two_sided_window(spec, 20), 6))
        assert rank == 2 and pres.generators == ("ab", "ba")

    def test_single_letter_rank_one(self):
        pres, rank = universal_group_of_language(factor_language(IndexedWord(0, "aaaaa"), 3))
        assert rank == 1 and pres.generators == ("aa",)


# the five tables of the benchmark's table route: (case, half-width, bound)
TABLE_ROUTE = [
    ("fib", 15, "3/2+1/2*sqrt(5)"),
    ("fib", 30, "3/2+1/2*sqrt(5)"),
    ("fib", 45, "3/2+1/2*sqrt(5)"),
    ("periodic-ab-2-1", 30, "6"),
    ("splice-rational-3-2", 30, "6"),
]


def route_table(case, half_width, bound):
    return maxset_table(case_pointset(reference_cases()[case], half_width), QR.from_string(bound))


def unit_action(bound):
    return dict(partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), bound).items())


def table_values(table) -> list:
    return sorted({v for (x, y), z in table.items() for v in (x, y, z)})


class TestMaxsetPresentation:
    def test_trivial_table(self):
        pres = maxset_presentation({(QR(0), QR(0)): QR(0)})
        simplified = tietze_simplify(pres)
        assert simplified.generators == () and simplified.relators == ()

    def test_periodic_table_invariants(self):
        spec = SequenceSpec("periodic", word="ab")
        ps = build_pointset(two_sided_window(spec, 14), LengthFunction({"a": QR(2), "b": QR(1)}))
        pres = maxset_presentation(maxset_table(ps, QR(6)))
        assert abelian_invariants(pres) == (2, [])

    def test_partial_action_presentation_invariants(self):
        data = partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 3)
        pres = maxset_presentation(data)
        assert abelian_invariants(pres) == (2, [])

    @pytest.mark.parametrize("basis, window, bound, certified", [
        ((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 5, True),
        ((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 1, True),
        ((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 16, True),
        ((QR(1), TAU), WindowSet.interval(QR(0), QR(0)), 5, False),
        ((QR(9), TAU - 1), WindowSet.normalized([(QR(0), QR(1)), (QR(9), QR(10))]), 5, True),
        ((QR(1), QR.sqrt_of(2)), WindowSet.interval(QR(0), QR.sqrt_of(2) - 1), 5, False),
    ], ids=["unit-b5", "unit-b1", "unit-b16", "no-interior", "obstruction", "sqrt2"])
    def test_partial_action_labels(self, basis, window, bound, certified):
        # a certified harvest is presented on some of its elements, with the
        # commutators of those first; a harvest that falls back keeps every
        # element as a generator and every relation
        data = partial_action_data(basis, window, bound)
        pres, oracle = maxset_presentation(data), maxset_presentation_all_pairs(data)
        assert oracle.generators == tuple(map(str, data.elements))
        if certified:
            assert set(pres.generators) < set(oracle.generators)
            commutators = [quotient((a, b), (b, a)) for a, b in combinations(pres.generators, 2)]
            assert list(pres.relators[:len(commutators)]) == commutators
        else:
            assert pres == oracle
        assert abelian_invariants(pres) == abelian_invariants(oracle)

    def test_table_generators_in_value_order(self):
        # a table that falls back has one generator per value, in ascending
        # value order (not string order), and one relator per entry that
        # survives the cyclic-core cut, in the table's order
        table = route_table("splice-rational-3-2", 30, "6")
        pres = maxset_presentation(table)
        assert pres == maxset_presentation_all_pairs(table)
        assert pres.generators == tuple(map(str, table_values(table)))
        assert list(pres.generators) != sorted(pres.generators)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PARTIAL_ACTIONS), st.integers(1, 12))
    def test_derived_presentation_matches_all_pairs(self, action, bound):
        # bases and windows over Q(sqrt5), Q(sqrt2) and Q(sqrt3), the
        # obstruction suite's among them, certified or not: the same
        # abelianization as every entry
        basis, window = action
        data = partial_action_data(basis, window, bound)
        assert abelian_invariants(maxset_presentation(data)) == abelian_invariants(
            maxset_presentation_all_pairs(data))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(PA_BASES.values())), pa_windows(3), st.integers(1, 6))
    def test_certificate_on_random_windows(self, basis, window, bound):
        # windows of one to three components, some of them points: the
        # presentation has the abelianization of every entry, and is Z^k
        # exactly as every entry says where the certificate holds; a
        # Q(sqrt5) window with a Q(sqrt2) basis is refused
        if window.d not in (0, *(b.disc for b in basis)):
            with pytest.raises(DiscriminantMismatch):
                partial_action_data(basis, window, bound)
            return
        data = partial_action_data(basis, window, bound)
        pres, invariants = maxset_presentation(data), abelian_invariants(maxset_presentation_all_pairs(data))
        assert abelian_invariants(pres) == invariants
        rank = certificate_free_abelian(pres)
        assert rank is None or invariants == (rank, [])

    @pytest.mark.parametrize("case, half_width, bound", TABLE_ROUTE)
    def test_table_route_matches_all_pairs(self, case, half_width, bound):
        table = route_table(case, half_width, bound)
        assert abelian_invariants(maxset_presentation(table)) == abelian_invariants(
            maxset_presentation_all_pairs(table))

    @pytest.mark.parametrize("table", [
        route_table("fib", 15, "3/2+1/2*sqrt(5)"), unit_action(16)], ids=["fib-table", "unit-b16"])
    def test_certified_free_abelian(self, table):
        # the certificate leaves <p, q | [p, q]> on two of the values
        pres = maxset_presentation(table)
        assert certificate_free_abelian(pres) == 2
        assert len(pres.relators) == 1
        assert set(pres.generators) <= set(map(str, table_values(table)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("table", [
        route_table("fib", 15, "3/2+1/2*sqrt(5)"), route_table("periodic-ab-2-1", 30, "6"), unit_action(16),
    ], ids=["fib-table", "periodic-table", "unit-b16"])
    def test_corruptions_fall_back(self, table, seed):
        # each corruption breaks a step of the certificate: a commuting
        # pair of P loses one of its entries, a generator p the entry
        # p (-p) = 0, or a value every entry that has it as the product
        rng = random.Random(seed)
        labels = set(maxset_presentation(table).generators)
        gens = [v for v in table_values(table) if str(v) in labels]
        s, t = gens
        st, p = rng.choice([(s, t), (t, s)]), rng.choice(gens)
        v = rng.choice([v for v in table_values(table) if v != 0 and v not in gens and -v not in gens])
        for corrupted in ({k: z for k, z in table.items() if k != st},
                          {k: z for k, z in table.items() if k != (p, -p)},
                          {k: z for k, z in table.items() if z != v}):
            assert maxset_presentation(corrupted) == maxset_presentation_all_pairs(corrupted)

    def test_torsion_table(self):
        # {0, +-1} with 1 1 = -1: the certificate's one row is (3), so the
        # group is Z/3, presented by 1^3
        table = {(QR(x), QR(y)): QR((x + y + 1) % 3 - 1) for x in (-1, 0, 1) for y in (-1, 0, 1)}
        assert table[QR(1), QR(1)] == QR(-1)
        pres = maxset_presentation(table)
        assert pres.generators == ("1",) and tuple(map(str, pres.relators)) == ("1 1 1",)
        assert abelian_invariants(pres) == abelian_invariants(maxset_presentation_all_pairs(table)) == (0, [3])

    @pytest.mark.parametrize("table", [
        route_table("splice-rational-3-2", 30, "6"), route_table("splice-irrational", 30, "6"),
        {("e", "e"): "e"},
    ], ids=["splice-rational", "splice-irrational", "letter-monoid"])
    def test_falls_back(self, table):
        assert maxset_presentation(table) == maxset_presentation_all_pairs(table)
