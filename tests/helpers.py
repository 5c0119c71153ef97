"""Helpers only the tests use: a value-keyed difference lookup, the exact
length of a word letter by letter, the identity pattern class, exponent
sums of a word, two triviality predicates for check_homomorphism, the
cyclic reduction of a word, and the bases and window strategy of the
partial-action tests."""

from fractions import Fraction
from typing import Callable

from hypothesis import strategies as st

from tilegroups.exactnum import QuadraticRational as QR, golden_ratio
from tilegroups.modelset import WindowSet
from tilegroups.patterns import PatternClass
from tilegroups.pointset import DiffElement, LengthFunction, PointSet1D, diff_set
from tilegroups.presentation import FreeWord


def diff_lookup(ps: PointSet1D, bound: QR) -> dict[QR, DiffElement]:
    return {d.value: d for d in diff_set(ps, bound)}


def word_length(word: str, lengths: LengthFunction) -> QR:
    total = QR(0)
    for c in word:
        total = total + lengths[c]
    return total


def identity_element() -> PatternClass:
    return PatternClass((QR(0),), 0, 0)


def free_target_oracle() -> Callable[[FreeWord], bool]:
    """Triviality in a free group: the reduced word is empty."""
    return lambda word: not word


def exponent_sum(word: FreeWord, gen: str) -> int:
    return sum(e for g, e in word.letters if g == gen)


def free_abelian_target_oracle() -> Callable[[FreeWord], bool]:
    """Triviality in a free abelian group: all exponent sums vanish.
    With a single target generator this is triviality in Z."""
    return lambda word: all(exponent_sum(word, g) == 0 for g in word.generators())


def cyclic_reduction(word: FreeWord) -> FreeWord:
    """Strip letters from both ends of a reduced word while the first is
    the inverse of the last."""
    letters = word.letters
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return FreeWord(letters)


TAU, SQRT2 = golden_ratio(), QR.sqrt_of(2)
PA_BASES = {
    "1,tau": (QR(1), TAU),
    "10,10tau": (QR(10), TAU * 10),
    "1,-tau": (QR(1), -TAU),
    "tau,1": (TAU, QR(1)),
    "1,1-tau": (QR(1), QR(1) - TAU),
    "-tau,-1": (-TAU, QR(-1)),
    "1,sqrt2": (QR(1), SQRT2),
    "1/3,sqrt2/5": (QR(Fraction(1, 3)), SQRT2 / 5),
}
# ends in [-1.5, 1.5]: the box scan is quadratic in the elements, so the
# window stays short enough for the densest basis of PA_BASES
PA_ENDS = sorted({QR(Fraction(p, 4)) + TAU * Fraction(q, 4) for p in range(-6, 7) for q in (-1, 0, 1)})


@st.composite
def pa_windows(draw, max_components: int = 4):
    """One to max_components disjoint components, about one in four a
    point, with ends that are all rational or from Q(sqrt5)."""
    pool = draw(st.sampled_from((PA_ENDS, [x for x in PA_ENDS if x.is_rational()])))
    k = draw(st.integers(1, max_components))
    ends = sorted(draw(st.sets(st.sampled_from(pool), min_size=2 * k, max_size=2 * k)))
    return WindowSet(tuple((lo, lo if draw(st.integers(0, 3)) == 0 else hi)
                           for lo, hi in zip(ends[::2], ends[1::2])))
