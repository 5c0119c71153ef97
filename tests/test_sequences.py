import pytest
from hypothesis import given, strategies as st

from reference_kernels import factor_language_scan
from tilegroups.sequences import (
    IndexedWord,
    SequenceSpec,
    TruncationError,
    expand_substitution,
    factor_language,
    two_sided_window,
)

FIB = {"a": "ab", "b": "a"}


def fib_spec():
    return SequenceSpec("substitution", rule=FIB, seed="a")


class TestExpand:
    def test_three_iterations(self):
        # a -> ab -> aba -> abaab by hand
        assert expand_substitution(FIB, "a", 3) == "abaab"

    def test_zero_iterations(self):
        assert expand_substitution(FIB, "a", 0) == "a"

    def test_five_iterations(self):
        # two more steps by hand: abaab -> abaababa -> abaababaabaab
        assert expand_substitution(FIB, "a", 5) == "abaababaabaab"
        assert len(expand_substitution(FIB, "a", 5)) == 13

    def test_erasing_rule_rejected(self):
        with pytest.raises(ValueError):
            expand_substitution({"a": ""}, "a", 1)


class TestTwoSidedWindow:
    def test_periodic(self):
        # T(i) = word[i mod n], so T(0) = 'a' and indices -3..3 spell bababab
        w = two_sided_window(SequenceSpec("periodic", word="ab"), 3)
        assert w.start_index == -3
        assert w.letters == "bababab"
        assert w.at(0) == "a"

    def test_spliced(self):
        w = two_sided_window(SequenceSpec("spliced", left="a", right="b"), 2)
        assert w.letters == "aaabb"
        assert w.at(0) == "a" and w.at(1) == "b"

    def test_fibonacci_window_is_factor_of_expansion(self):
        # oracle: the window must occur inside independently expanded sigma^8(a)
        w = two_sided_window(fib_spec(), 4)
        assert len(w) == 9
        assert w.start_index == -4
        assert w.letters in expand_substitution(FIB, "a", 8)

    def test_fibonacci_seed_pair_resolved(self):
        assert fib_spec().seed_left == "a"

    def test_windows_nest(self):
        small = two_sided_window(fib_spec(), 5)
        large = two_sided_window(fib_spec(), 20)
        offset = small.start_index - large.start_index
        assert large.letters[offset:offset + len(small)] == small.letters

    def test_out_of_window_access(self):
        w = two_sided_window(fib_spec(), 3)
        with pytest.raises(TruncationError):
            w.at(5)

    def test_half_width_validation(self):
        with pytest.raises(ValueError):
            two_sided_window(fib_spec(), 0)


class TestFactorLanguage:
    def test_direct_scan(self):
        lang = factor_language("abab", 2)
        assert lang.words == frozenset({"a", "b", "ab", "ba"})

    def test_fibonacci_no_bb(self):
        # oracle: scan sigma^8(a); images of a,b never put b next to b
        lang = factor_language(two_sided_window(fib_spec(), 10), 2)
        assert lang.words == frozenset({"a", "b", "aa", "ab", "ba"})
        oracle = factor_language(expand_substitution(FIB, "a", 8), 2)
        assert lang.words == oracle.words

    def test_single_letter_runs(self):
        assert factor_language("aaa", 3).words == frozenset({"a", "aa", "aaa"})

    def test_factorial_closure(self):
        lang = factor_language(two_sided_window(fib_spec(), 15), 5)
        for w in lang.words:
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    assert w[i:j] in lang.words

    def test_language_grows_with_window(self):
        small = factor_language(two_sided_window(fib_spec(), 6), 4)
        large = factor_language(two_sided_window(fib_spec(), 18), 4)
        assert small.words <= large.words

    def test_fibonacci_is_sturmian(self):
        # Sturmian complexity: exactly L + 1 factors of each length L
        lang = factor_language(two_sided_window(fib_spec(), 5000), 60)
        counts = [0] * 61
        for w in lang.words:
            counts[len(w)] += 1
        assert counts[1:] == [L + 1 for L in range(1, 61)]

    def test_truncation_stamp_enforced(self):
        lang = factor_language("abab", 2)
        with pytest.raises(TruncationError):
            "aba" in lang


@st.composite
def windows(draw):
    """A word over 1-3 letters of length 0-80, a max_len from 1 to n + 5,
    and a start index for its IndexedWord form."""
    letters = draw(st.sampled_from(("a", "ab", "abc")))
    text = draw(st.text(alphabet=letters, max_size=80))
    max_len = draw(st.integers(1, len(text) + 5))
    return text, max_len, draw(st.integers(-100, 100))


@given(windows())
def test_factor_language_matches_scan(case):
    text, max_len, start = case
    for word in (text, IndexedWord(start, text)):
        # dataclass equality: the words and the max_len, window_start and
        # window_len stamps
        assert factor_language(word, max_len) == factor_language_scan(word, max_len)


class TestSpecPlumbing:
    def test_json_roundtrip(self):
        for spec in (fib_spec(),
                     SequenceSpec("periodic", word="ab"),
                     SequenceSpec("spliced", left="a", right="b")):
            assert SequenceSpec.from_json(spec.to_json()) == spec

    def test_json_example_form(self):
        spec = SequenceSpec.from_json('{"kind":"substitution","rule":{"a":"ab","b":"a"},"seed":"a"}')
        assert spec.rule == FIB and spec.seed == "a"

    def test_indexed_word_bounds(self):
        w = IndexedWord(-2, "abcde")
        assert w.at(-2) == "a" and w.at(2) == "e"
        assert w.end_index == 3
