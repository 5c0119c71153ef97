"""Input checks of the library, each triggered once, with the exception type
and message: the checks that no other test reaches, or only by chance."""

import re
from fractions import Fraction

import pytest

from tilegroups.exactnum import QuadraticRational as QR, golden_ratio
from tilegroups.modelset import (
    CutProjectScheme,
    LatticeVector,
    WindowSet,
    fibonacci_scheme,
    modelset_points,
    obstruction_grade,
    partial_action_data,
    window_triple,
)
from tilegroups.patterns import make_element
from tilegroups.pointset import DiffElement, LengthFunction, PointSet1D, decompose_into_bounded, diff_set
from tilegroups.presentation import reduce_word
from tilegroups.sequences import (
    IndexedWord,
    SequenceSpec,
    TruncationError,
    expand_substitution,
    factor_language,
)
from tilegroups.universal import (
    AccentString,
    compose_chain,
    decompose_into_two_letter,
    harvest_equal_length_relations,
    universal_group_of_language,
)

TAU = golden_ratio()
UNIT = WindowSet.interval(QR(0), QR(1))
LENGTHS = LengthFunction({"a": QR(1), "b": QR(2)})


def pointset():
    # r_{-1} = -1, r_0 = 0, r_1 = 2
    return PointSet1D(IndexedWord(0, "ab"), LENGTHS)


def language(max_len):
    return factor_language(IndexedWord(0, "abab"), max_len)


CHECKS = [
    # modelset
    ("window lo > hi", lambda: WindowSet(((QR(1), QR(0)),)),
     ValueError, "interval needs lo <= hi"),
    ("window components overlap", lambda: WindowSet(((QR(0), QR(2)), (QR(1), QR(3)))),
     ValueError, "components must be sorted and disjoint"),
    ("hull of the empty window", lambda: WindowSet.empty().hull(),
     ValueError, "empty window has no hull"),
    ("singular embedding", lambda: CutProjectScheme(LatticeVector(QR(1), QR(1)), LatticeVector(QR(2), QR(2)), UNIT),
     ValueError, "embedding matrix is singular"),
    ("zero coordinate", lambda: CutProjectScheme(LatticeVector(QR(0), QR(1)), LatticeVector(TAU, 1 - TAU), UNIT),
     ValueError, "physical coordinates must be nonzero"),
    ("empty acceptance window", lambda: CutProjectScheme(LatticeVector(QR(1), QR(1)), LatticeVector(TAU, 1 - TAU),
                                                          WindowSet.empty()),
     ValueError, "acceptance window is empty"),
    ("radius 0", lambda: modelset_points(fibonacci_scheme(), QR(0)),
     ValueError, "radius must be positive"),
    ("triple window beyond the two translates",
     lambda: window_triple(fibonacci_scheme(), QR(0), fibonacci_scheme().window, QR(1)),
     ValueError, "window exceeds the two-translate intersection for this shift"),
    ("coeff_bound 0", lambda: partial_action_data((QR(1), TAU), UNIT, 0),
     ValueError, "coeff_bound must be >= 1"),
    ("grade at a half-integer", lambda: obstruction_grade(QR(1), QR(9), QR(Fraction(9, 2))),
     ValueError, "9/2/9 sits exactly between two integers"),
    # pointset
    ("empty point-set window", lambda: PointSet1D(IndexedWord(0, ""), LENGTHS),
     ValueError, "window must be non-empty"),
    ("window misses index 0", lambda: PointSet1D(IndexedWord(5, "ab"), LENGTHS),
     ValueError, "window must cover the anchor index 0"),
    ("point index outside the truncation", lambda: pointset().point(2),
     TruncationError, "point index 2 outside truncation"),
    ("difference without witness", lambda: DiffElement(QR(1), ()),
     ValueError, "a difference needs at least one witness"),
    ("difference bound 0", lambda: diff_set(pointset(), QR(0)),
     ValueError, "bound must be positive"),
    ("gap above the radius", lambda: decompose_into_bounded(pointset(), DiffElement(QR(2), ((1, 0),)), QR(1)),
     ValueError, "gap 2 exceeds radius 1"),
    # patterns: a class reads its pairs from the frame, past either end of it
    ("pattern index above the truncation", lambda: make_element(pointset(), [0, 2], 0, 0),
     TruncationError, "point index 2 outside truncation"),
    ("pattern index below the truncation", lambda: make_element(pointset(), [-2, 0], 0, 0),
     TruncationError, "point index -2 outside truncation"),
    # sequences
    ("negative iterations", lambda: expand_substitution({"a": "ab", "b": "a"}, "a", -1),
     ValueError, "iterations must be >= 0"),
    ("rule not letters to words", lambda: SequenceSpec("substitution", rule={"ab": "a"}, seed="a"),
     ValueError, "spec rule must map letters to words"),
    ("substitution spec without rule", lambda: SequenceSpec("substitution", seed="a"),
     ValueError, "substitution spec needs rule and seed"),
    ("substitution spec without seed", lambda: SequenceSpec("substitution", rule={"a": "ab", "b": "a"}),
     ValueError, "substitution spec needs rule and seed"),
    ("periodic spec without word", lambda: SequenceSpec("periodic"),
     ValueError, "periodic spec needs a word"),
    ("spliced spec without right word", lambda: SequenceSpec("spliced", left="a"),
     ValueError, "spliced spec needs left and right words"),
    ("unknown kind", lambda: SequenceSpec("nonesuch"),
     ValueError, "unknown sequence kind 'nonesuch'"),
    ("substitution spec with a word", lambda: SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a",
                                                           word="ab"),
     ValueError, "substitution spec does not take word"),
    ("periodic spec with a rule and seed", lambda: SequenceSpec("periodic", word="ab", seed="a", rule={"a": "ab"}),
     ValueError, "periodic spec does not take rule, seed"),
    ("spliced spec with a seed_left", lambda: SequenceSpec("spliced", left="a", right="b", seed_left="a"),
     ValueError, "spliced spec does not take seed_left"),
    ("factor language max_len 0", lambda: factor_language(IndexedWord(0, "ab"), 0),
     ValueError, "max_len must be >= 1"),
    # universal
    ("harvest max_len 1", lambda: harvest_equal_length_relations(IndexedWord(0, "ab"), LENGTHS, 1),
     ValueError, "max_len must be >= 2"),
    ("empty accent word", lambda: AccentString("", 0, 0),
     ValueError, "accent string needs a non-empty word"),
    ("accent position out of range", lambda: AccentString("ab", 0, 2),
     ValueError, "accent position out of range"),
    ("decomposing a string not end-accented", lambda: decompose_into_two_letter(AccentString("ab", 1, 0)),
     ValueError, "decomposition applies to end-accented strings"),
    # one end accented, the other not: each end is checked on its own
    ("decomposing a string accented out at its start only",
     lambda: decompose_into_two_letter(AccentString("abc", 0, 1)),
     ValueError, "decomposition applies to end-accented strings"),
    ("decomposing a string accented in at its end only",
     lambda: decompose_into_two_letter(AccentString("abc", 1, 2)),
     ValueError, "decomposition applies to end-accented strings"),
    ("chain that does not compose",
     lambda: compose_chain([AccentString("ab", 0, 1), AccentString("ab", 0, 1)], language(4)),
     ValueError, "chain does not compose"),
    ("language max_len 1", lambda: universal_group_of_language(language(1)),
     ValueError, "language must be computed to length >= 2"),
    # presentation
    ("exponent 2", lambda: reduce_word([("x", 2)]),
     ValueError, "letter exponent must be +-1, got 2"),
    # exactnum
    ("surd with d = 0", lambda: QR(0, 1, 0),
     ValueError, "nonzero surd part requires a positive discriminant"),
    ("setting an attribute", lambda: setattr(QR(1), "x", 1),
     AttributeError, "QuadraticRational is immutable"),
    ("combining with a str", lambda: QR(1) + "x",
     TypeError, "cannot combine QuadraticRational with str"),
    ("empty number string", lambda: QR.from_string("  "),
     ValueError, "empty number string"),
    ("missing sign between terms", lambda: QR.from_string("1 2"),
     ValueError, "missing +/- between terms in '1 2'"),
    ("sign without a term", lambda: QR.from_string("-"),
     ValueError, "cannot parse '-' at position 0"),
]


@pytest.mark.parametrize("call, kind, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_input_check(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_number_never_equals_a_string():
    assert (QR(1) == "x") is False
