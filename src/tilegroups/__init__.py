"""Exact inverse-semigroup and universal-group computations for 1-D point
sets, cut-and-project model sets and tilings."""

from .exactnum import QuadraticRational, golden_ratio
from .modelset import (
    CutProjectScheme,
    EmpireScan,
    WindowTriple,
    LatticeVector,
    PartialActionData,
    WindowSet,
    obstruction_grade,
    empire_equal,
    fibonacci_scheme,
    triple_identity,
    triple_inverse,
    triple_max_above,
    triple_multiply,
    partial_action_data,
    modelset_points,
    pattern_embeds,
    pattern_window,
    project_functor,
    star,
)
from .pointset import (
    DiffElement,
    LengthFunction,
    PointSet1D,
    build_pointset,
    diff_set,
    bounded_generator_set,
    difference_group_invariants,
)
from .presentation import (
    FreeWord,
    Presentation,
    abelian_invariants,
    certificate_free,
    certificate_free_abelian,
    check_homomorphism,
    hnf,
    presentation_from_pairs,
    reduce_word,
    tietze_simplify,
)
from .patterns import (
    PatternClass,
    ProductResult,
    make_element,
    max_above,
    maxset_table,
    multiply,
    natural_leq,
    pattern_class,
    pointed_difference,
)
from .sequences import (
    FactorLanguage,
    IndexedWord,
    SequenceSpec,
    expand_substitution,
    factor_language,
    two_sided_window,
)
from .universal import (
    AccentString,
    HarvestReport,
    accent_inverse,
    accent_multiply,
    decompose_into_two_letter,
    enumerate_end_accented_and_max,
    harvest_equal_length_relations,
    maxset_presentation,
    universal_group_of_language,
)

__version__ = "0.1.0"
