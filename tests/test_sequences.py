import pytest
from hypothesis import given, reject, settings, strategies as st

from reference_kernels import (
    ExpansionCapped,
    factor_language_scan,
    resolve_seed_pair_expanded,
    two_sided_window_expanded,
)
from tilegroups.sequences import (
    IndexedWord,
    SequenceSpec,
    TruncationError,
    _resolve_seed_pair,
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


@st.composite
def substitutions(draw):
    """A rule over 1-3 letters with images of 1-3 letters, a seed of 1-3
    letters, and no seed_left or one of 1-2 letters."""
    letters = draw(st.sampled_from(("a", "ab", "abc")))

    def words(lo, hi):
        return st.text(alphabet=letters, min_size=lo, max_size=hi)

    rule = {c: draw(words(1, 3)) for c in letters}
    return rule, draw(words(1, 3)), draw(st.none() | words(1, 2))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(substitutions(), st.sampled_from((1, 5, 20, 60)))
def test_seed_pair_and_window_match_expansion(case, half_width):
    # the expanding oracles stop with ExpansionCapped before building a
    # word of more than 10^5 letters; such specs compare nothing there
    rule, seed, seed_left = case
    try:
        want = _outcome(resolve_seed_pair_expanded, rule, seed, seed_left)
    except ExpansionCapped:
        reject()
    assert _outcome(_resolve_seed_pair, rule, seed, seed_left) == want
    if isinstance(want, str):
        return
    spec = SequenceSpec("substitution", rule=rule, seed=seed, seed_left=seed_left)
    try:
        want = _outcome(two_sided_window_expanded, spec, half_width)
    except ExpansionCapped:
        return
    assert _outcome(two_sided_window, spec, half_width) == want


@pytest.mark.parametrize("rule, seed", [(FIB, "a"), ({"a": "ab", "b": "ba"}, "a"), ({"a": "ab", "b": "aa"}, "a")])
def test_seed_pair_resolved_once_per_spec(monkeypatch, rule, seed):
    # the spec keeps the power it resolved, so its windows resolve nothing
    from tilegroups import sequences

    calls = []

    def counted(*args):
        calls.append(args)
        return _resolve_seed_pair(*args)

    monkeypatch.setattr(sequences, "_resolve_seed_pair", counted)
    spec = SequenceSpec("substitution", rule=rule, seed=seed)
    for h in (1, 5, 20, 60):
        assert two_sided_window(spec, h) == two_sided_window_expanded(spec, h)
    assert len(calls) == 1


def test_fully_ruled_seed_pair_read_from_windows():
    # every letter has a rule: sigma^6 is the least power that fixes both
    # ends of the pair a|a, and sigma^24(a), where its occurrence is looked
    # up, has 3^24 letters; only its factors of length 2 are built
    from tilegroups.sequences import _windows_of_iterate

    rule = {"a": "bbb", "b": "cca", "c": "aaa"}
    assert _windows_of_iterate(rule, "a", 24, 2) == {"aa", "ab", "ac", "ba", "bb", "bc", "ca", "cc"}
    spec = SequenceSpec("substitution", rule=rule, seed="a")
    assert spec.seed_left == "a"
    # sigma^12(a) ends with sigma^6(a) and starts with it, and it is longer
    # than both halves of the window
    full = expand_substitution(rule, "a", 12)
    assert two_sided_window(spec, 2000).letters == full[-2001:] + full[:2000]


def test_left_half_that_never_grows_rejected():
    # sigma(c) = c: the legal pair c|a has a left half that stays one
    # letter while the right half grows, so there is no two-sided fixed
    # point to take a window of
    from tilegroups.sequences import _windows_of_iterate

    rule = {"a": "aca", "c": "c"}
    assert "ca" in _windows_of_iterate(rule, "a", 8, 2)
    spec = SequenceSpec("substitution", rule=rule, seed="a")
    assert spec.seed_left == "c"
    with pytest.raises(ValueError, match="does not grow"):
        two_sided_window(spec, 5)


class TestFactorLanguage:
    def test_direct_scan(self):
        lang = factor_language(IndexedWord(0, "abab"), 2)
        assert lang.words == frozenset({"a", "b", "ab", "ba"})

    def test_fibonacci_no_bb(self):
        # oracle: scan sigma^8(a); images of a,b never put b next to b
        lang = factor_language(two_sided_window(fib_spec(), 10), 2)
        assert lang.words == frozenset({"a", "b", "aa", "ab", "ba"})
        oracle = factor_language(IndexedWord(0, expand_substitution(FIB, "a", 8)), 2)
        assert lang.words == oracle.words

    def test_single_letter_runs(self):
        assert factor_language(IndexedWord(0, "aaa"), 3).words == frozenset({"a", "aa", "aaa"})

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
        lang = factor_language(IndexedWord(0, "abab"), 2)
        with pytest.raises(TruncationError):
            "aba" in lang


@st.composite
def windows(draw):
    """A word over 1-3 letters of length 0-80, a max_len from 1 to n + 5,
    and a start index for its IndexedWord."""
    letters = draw(st.sampled_from(("a", "ab", "abc")))
    text = draw(st.text(alphabet=letters, max_size=80))
    max_len = draw(st.integers(1, len(text) + 5))
    return text, max_len, draw(st.integers(-100, 100))


@given(windows())
def test_factor_language_matches_scan(case):
    text, max_len, start = case
    word = IndexedWord(start, text)
    # record equality: the words and the max_len, window_start and
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

    def test_rule_is_a_read_only_copy(self):
        rule = {"a": "ab", "b": "a"}
        spec = SequenceSpec("substitution", rule=rule, seed="a")
        with pytest.raises(TypeError):
            spec.rule["a"] = "ba"
        rule["a"] = "ba"
        rule["c"] = "c"
        assert spec.rule == FIB
        assert spec.to_json() == '{"kind": "substitution", "rule": {"a": "ab", "b": "a"}, "seed": "a", "seed_left": "a"}'
        # a spec is rebuilt from another's read-only rule
        assert SequenceSpec("substitution", rule=spec.rule, seed="a") == spec

    def test_indexed_word_bounds(self):
        w = IndexedWord(-2, "abcde")
        assert w.at(-2) == "a" and w.at(2) == "e"
        assert w.end_index == 3
