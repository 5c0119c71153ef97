"""Helpers only the tests use: a value-keyed difference lookup, the exact
length of a word letter by letter, the identity pattern class, exponent
sums of a word, two triviality predicates for check_homomorphism, the
cyclic reduction of a word and the ordered sub-list test."""

from typing import Callable

from tilegroups.exactnum import QuadraticRational as QR
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


def is_ordered_sublist(small, large) -> bool:
    """Every item of small occurs in large, in the same order."""
    rest = iter(large)
    return all(item in rest for item in small)
