import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import cyclic_reduction, exponent_sum, free_abelian_target_oracle, free_target_oracle
from intmat import mat_det, mat_mul
from reference_kernels import (abelian_invariants_dense, check_homomorphism_wordwise, free_abelian_by_rotations,
                               maxset_presentation_all_pairs, smith_normal_form, tietze_rounds)
from tilegroups.exactnum import QuadraticRational as QR, golden_ratio
from tilegroups.modelset import WindowSet, partial_action_data
from tilegroups.presentation import (
    FreeWord,
    Presentation,
    _exponent_rows,
    abelian_invariants,
    certificate_free,
    certificate_free_abelian,
    check_homomorphism,
    hnf,
    presentation_from_pairs,
    reduce_word,
    smith_invariants,
    tietze_simplify,
)
from tilegroups.cli import case_pointset, reference_cases
from tilegroups.patterns import maxset_table
from tilegroups.sequences import two_sided_window
from tilegroups.universal import harvest_equal_length_relations, maxset_presentation


LETTERS = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=30)


def word(*labels):
    return reduce_word((g.rstrip("-"), -1 if g.endswith("-") else 1) for g in labels)


class TestReduce:
    def test_cancelling_pair(self):
        assert reduce_word([("a", 1), ("a", -1)]) == FreeWord()

    def test_inner_cancellation(self):
        assert word("a", "b", "b-", "a") == word("a", "a")

    def test_already_reduced(self):
        w = word("a", "b", "a-")
        assert reduce_word(w.letters) == w

    def test_idempotent_and_nonincreasing(self):
        raw = [("a", 1), ("b", 1), ("b", -1), ("a", 1), ("a", -1), ("c", 1)]
        once = reduce_word(raw)
        assert reduce_word(once.letters) == once
        assert len(once) <= len(raw)

    def test_inverse_law(self):
        w = word("a", "b", "c-")
        assert w * w.inverse() == FreeWord()

    def test_empty_word_prints_as_identity(self):
        assert str(FreeWord()) == "1"

    def test_public_constructor_checks(self):
        with pytest.raises(ValueError):
            FreeWord((("a", 1), ("a", -1)))

    @given(LETTERS, LETTERS)
    def test_unchecked_results_are_reduced(self, xs, ys):
        # reduce_word and inverse skip the check; the checking constructor
        # must accept every word they and their callers build
        u, v = reduce_word(xs), reduce_word(ys)
        pres = presentation_from_pairs("abc", [([g for g, _ in xs], [g for g, _ in ys])])
        for w in (u, v, u * v, u.inverse(), u.substitute("a", v), *pres.relators):
            assert FreeWord(w.letters) == w


class TestPresentationBuild:
    def test_commutator_pair(self):
        p = presentation_from_pairs(["a", "b"], [(["a", "b"], ["b", "a"])])
        assert p.relators == (word("a", "b", "a-", "b-"),)

    def test_trivial_pair_dropped(self):
        p = presentation_from_pairs(["a"], [(["a"], ["a"])])
        assert p.relators == ()

    def test_power_pair(self):
        p = presentation_from_pairs(["a", "b"], [(["a", "a"], ["b", "b", "b"])])
        assert p.relators == (word("a", "a", "b-", "b-", "b-"),)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            presentation_from_pairs(["a"], [(["a"], ["z"])])

    def test_constructor_names_unknown_labels_of_all_relators(self):
        # every unknown label of every relator, sorted, not only the first
        # offending relator's
        with pytest.raises(ValueError) as info:
            Presentation(("a", "b"), (word("a", "z"), word("b"), word("y", "x-", "z")))
        assert str(info.value) == "relator uses unknown labels ['x', 'y', 'z']"

    @given(st.lists(st.tuples(st.text("abc", max_size=6), st.text("abc", max_size=6)), max_size=12))
    def test_suffix_cut_matches_free_reduction(self, pairs):
        # same relators, in the same order, as reducing u * v^-1 letter by
        # letter, cyclically reducing it and dropping trivial and repeated
        # words
        want = []
        for u, v in pairs:
            rel = cyclic_reduction(reduce_word([(g, 1) for g in u] + [(g, -1) for g in reversed(v)]))
            if rel and rel not in want:
                want.append(rel)
        assert presentation_from_pairs("abc", pairs).relators == tuple(want)

    @given(st.lists(st.sampled_from("abcz"), max_size=5),
           st.lists(st.tuples(st.text("abcz", max_size=5), st.text("abcz", max_size=5)), max_size=10))
    @example(["a", "a"], [])
    @example(["a"], [("az", "bz"), ("z", "z")])
    @example(["a"], [("za", "zb")])
    def test_matches_checking_constructor(self, generators, pairs):
        # the public constructor over the same cyclically reduced relators:
        # equal presentations, and a ValueError exactly when it raises (a
        # duplicate generator, or an unknown label in a kept relator; dropped
        # letters are not checked)
        relators = []
        for u, v in pairs:
            rel = cyclic_reduction(reduce_word([(g, 1) for g in u] + [(g, -1) for g in reversed(v)]))
            if rel and rel not in relators:
                relators.append(rel)
        try:
            want = Presentation(tuple(generators), tuple(relators))
        except ValueError:
            unknown = sorted({g for rel in relators for g, _ in rel.letters} - set(generators))
            message = ("duplicate generator labels" if len(set(generators)) < len(generators)
                       else f"relator uses unknown labels {unknown}")
            with pytest.raises(ValueError) as info:
                presentation_from_pairs(generators, pairs)
            assert str(info.value) == message
        else:
            assert presentation_from_pairs(generators, pairs) == want


class TestAbelianInvariants:
    def test_commutator_gives_z2(self):
        p = presentation_from_pairs(["a", "b"], [(["a", "b"], ["b", "a"])])
        assert abelian_invariants(p) == (2, [])

    def test_a2_b3(self):
        # hand SNF of [2, -3]: gcd 1, rank 1 -> free rank 1, no torsion
        p = presentation_from_pairs(["a", "b"], [(["a", "a"], ["b", "b", "b"])])
        assert abelian_invariants(p) == (1, [])

    def test_no_relators(self):
        p = Presentation(("a",), ())
        assert abelian_invariants(p) == (1, [])

    def test_torsion(self):
        p = Presentation(("a",), (word("a", "a"),))
        assert abelian_invariants(p) == (0, [2])


def power(gen, k):
    return [(gen, 1 if k > 0 else -1)] * abs(k)


@st.composite
def abelian_presentations(draw):
    """1-8 generators, some of which no relator uses.  Relators are random
    reduced words, pure powers (torsion), unit-free two-generator rows such
    as (2, -3), dense exponent rows, commutators and the empty word (zero
    rows), with repeats (duplicate rows); the relator set may be empty."""
    gens = [f"g{k}" for k in range(draw(st.integers(1, 8)))]
    used = draw(st.lists(st.sampled_from(gens), min_size=1, unique=True))
    gen, sign = st.sampled_from(used), st.sampled_from((1, -1))
    big = st.integers(2, 6)
    relator = st.one_of(
        st.lists(st.tuples(gen, sign), max_size=8).map(reduce_word),
        st.builds(lambda g, k: reduce_word(power(g, k)), gen, st.integers(-6, 6)),
        st.builds(lambda g, h, k, m: reduce_word(power(g, k) + power(h, m)),
                  gen, gen, st.builds(int.__mul__, big, sign), st.builds(int.__mul__, big, sign)),
        st.lists(st.integers(-4, 4), min_size=len(used), max_size=len(used)).map(
            lambda ks: reduce_word([x for g, k in zip(used, ks) for x in power(g, k)])),
        st.builds(lambda g, h: reduce_word([(g, 1), (h, 1), (g, -1), (h, -1)]), gen, gen),
        st.just(FreeWord()),
    )
    rels = draw(st.lists(relator, max_size=14))
    if rels:
        for k in draw(st.lists(st.integers(0, len(rels) - 1), max_size=4)):
            rels.insert(draw(st.integers(0, len(rels))), rels[k])
    return Presentation(tuple(gens), tuple(rels))


class TestSparseAbelianization:
    """Abelianization of presentations with sparse exponent-sum rows
    against ``abelian_invariants_dense``, the diagonal of the full-transform
    Smith form of the distinct rows, which shares no code with ``hnf``."""

    @settings(max_examples=200, deadline=None)
    @given(abelian_presentations())
    @example(Presentation(("a", "b"), (word("a", "a", "b-", "b-", "b-"),)))
    @example(Presentation(("a", "b", "c"), ()))
    @example(Presentation(("a", "b", "c"), (word("a-", "b", "b"), word("a-", "c", "c", "c"))))
    def test_matches_dense(self, pres):
        assert abelian_invariants(pres) == abelian_invariants_dense(pres)

    @pytest.mark.parametrize("b", [8, 16, 32])
    def test_partial_action_ladder(self, b):
        # every relation of the harvest, as the certificate in
        # maxset_presentation leaves a single commutator; at b = 32 the
        # oracle takes about 2 s on the 1 682 distinct rows, so the known
        # (2, []) stands alone there (CI compares the two)
        data = partial_action_data((QR(1), golden_ratio()), WindowSet.interval(QR(0), QR(1)), b)
        pres = maxset_presentation_all_pairs(data)
        assert abelian_invariants(pres) == (2, [])
        if b < 32:
            assert abelian_invariants_dense(pres) == (2, [])
        simplified = tietze_simplify(pres)
        assert abelian_invariants(simplified) == abelian_invariants_dense(simplified) == (2, [])

    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_reference_harvests(self, case):
        config = reference_cases()[case]
        pres = harvest_equal_length_relations(two_sided_window(config.spec, 400), config.lengths, 30).presentation
        assert abelian_invariants(pres) == abelian_invariants_dense(pres)

    @pytest.mark.parametrize("case, half_width, bound", [
        ("fib", 15, "3/2+1/2*sqrt(5)"),
        ("fib", 30, "3/2+1/2*sqrt(5)"),
        ("fib", 45, "3/2+1/2*sqrt(5)"),
        ("periodic-ab-2-1", 30, "6"),
        ("splice-rational-3-2", 30, "6"),
    ])
    def test_table_routes(self, case, half_width, bound):
        ps = case_pointset(reference_cases()[case], half_width)
        pres = maxset_presentation_all_pairs(maxset_table(ps, QR.from_string(bound)))
        assert abelian_invariants(pres) == abelian_invariants_dense(pres)


class TestSmith:
    def test_divisibility_example(self):
        d, u, v = smith_normal_form([[2, 0], [0, 3]])
        assert d[0][0] == 1 and d[1][1] == 6

    def check_transforms(self, a):
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert mat_det(u) in (1, -1)
        assert mat_det(v) in (1, -1)
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4))
    def test_transforms_random(self, a):
        self.check_transforms(a)


def full_transform_invariants(matrix):
    """Nonzero diagonal of the Smith form of the whole matrix, transforms
    and all: the reference for smith_invariants."""
    d, _, _ = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return [x for x in diag if x != 0]


@st.composite
def tall_matrices(draw):
    """Up to 60 rows of up to 8 columns drawn from a few distinct rows and
    the zero row, so zero rows, repeated rows and all-zero matrices occur."""
    cols = draw(st.integers(1, 8))
    row = st.lists(st.integers(-20, 20), min_size=cols, max_size=cols)
    distinct = draw(st.lists(row, min_size=1, max_size=12)) + [[0] * cols]
    return draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=60))


class TestSmithInvariants:
    @settings(max_examples=150, deadline=None)
    @given(tall_matrices())
    @example([[0, 0, 0]] * 5)
    @example([[2, 4], [2, 4], [0, 0], [6, 8]])
    @example([[2, 1], [0, 2]])  # [1, 4]: several alternations
    @example([[4, 0], [0, 6]])  # [2, 12]: diagonal, needs the gcd/lcm step
    @example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])  # [2, 6, 12]
    def test_matches_full_transform_path(self, matrix):
        assert smith_invariants(matrix) == full_transform_invariants(matrix)

    def test_partial_action_relator_matrix(self):
        data = partial_action_data((QR(1), golden_ratio()), WindowSet.interval(QR(0), QR(1)), 8)
        assert len(data.relations) == 211
        pres = maxset_presentation_all_pairs(data)
        rows = [[exponent_sum(rel, g) for g in pres.generators] for rel in pres.relators]
        assert _exponent_rows(pres) == rows
        factors = full_transform_invariants(rows)
        assert smith_invariants(rows) == factors
        assert abelian_invariants(pres) == (len(pres.generators) - len(factors),
                                            [f for f in factors if f > 1])


class TestHermite:
    def test_gcd_rows(self):
        rank, basis = hnf([[2], [1]])
        assert rank == 1 and basis == [[1]]

    def test_identity(self):
        rank, basis = hnf([[1, 0], [0, 1]])
        assert rank == 2 and basis == [[1, 0], [0, 1]]

    def test_zero(self):
        assert hnf([[0, 0]]) == (0, [])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), min_size=1, max_size=4))
    def test_same_row_lattice(self, rows):
        rank, basis = hnf(rows)
        # every original row must reduce to zero against the basis
        for row in rows:
            r = row[:]
            for b in basis:
                pivot_col = next((c for c, x in enumerate(b) if x != 0), None)
                if pivot_col is not None and r[pivot_col] % b[pivot_col] == 0:
                    q = r[pivot_col] // b[pivot_col]
                    r = [x - q * y for x, y in zip(r, b)]
            assert all(x == 0 for x in r)


class TestTietze:
    def test_duplicate_relators_merged(self):
        rel = word("a", "b", "a-", "b-")
        p = Presentation(("a", "b"), (rel, rel))
        assert tietze_simplify(p).relators == (rel,)

    def test_definition_elimination(self):
        p = Presentation(("a", "b", "c"), (word("c", "b-"),))
        q = tietze_simplify(p)
        assert set(q.generators) == {"a", "b"} and q.relators == ()

    def test_no_relators_unchanged(self):
        p = Presentation(("a", "b"), ())
        assert tietze_simplify(p) == p

    def test_invariants_preserved(self):
        p = presentation_from_pairs(
            ["a", "b", "c"],
            [(["a", "b"], ["b", "a"]), (["c"], ["a", "b"]), (["a", "a"], ["b", "b", "b"])],
        )
        assert abelian_invariants(tietze_simplify(p)) == abelian_invariants(p)

    @given(st.data())
    def test_matches_round_by_round(self, data):
        # short relators drive eliminations; duplicates and inverses of
        # earlier relators exercise the dedup order
        gens = data.draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
        letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
        rels = [reduce_word(w) for w in data.draw(st.lists(st.lists(letter, max_size=5), max_size=12))]
        if rels:
            for k in data.draw(st.lists(st.integers(0, len(rels) - 1), max_size=4)):
                rels.insert(data.draw(st.integers(0, len(rels))), rels[k].inverse())
        pres = Presentation(tuple(gens), tuple(rels))
        assert tietze_simplify(pres) == tietze_rounds(pres, len(pres.generators))

    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_harvests_match_round_by_round(self, case):
        config = reference_cases()[case]
        window = two_sided_window(config.spec, 60)
        pres = harvest_equal_length_relations(window, config.lengths, 14).presentation
        assert tietze_simplify(pres) == tietze_rounds(pres, len(pres.generators))

    def test_partial_action_matches_round_by_round(self):
        data = partial_action_data((QR(1), golden_ratio()), WindowSet.interval(QR(0), QR(1)), 6)
        pres = maxset_presentation_all_pairs(data)
        assert tietze_simplify(pres) == tietze_rounds(pres, len(pres.generators))

    def test_substituted_relator_displaces_later_duplicate(self):
        # a -> b turns the first relator into the inverse of the second;
        # the earlier position wins, as in a full dedup pass
        p = Presentation(("a", "b", "x", "y"),
                         (word("a", "x", "y"), word("y", "x", "x"), word("y-", "x-", "b-"), word("a", "b-")))
        q = tietze_simplify(p)
        assert q == Presentation(("b", "x", "y"), (word("b", "x", "y"), word("y", "x", "x")))
        assert q == tietze_rounds(p, len(p.generators))

    def test_chain_of_definitions_collapses(self):
        # a = b, then b = c: two rounds leave one generator and no relator
        p = Presentation(("a", "b", "c"), (word("a", "b-"), word("b", "c-")))
        assert tietze_simplify(p) == Presentation(("c",), ())


class TestHomomorphism:
    def test_commutator_into_abelian(self):
        p = presentation_from_pairs(["a", "b"], [(["a", "b"], ["b", "a"])])
        images = {"a": word("x"), "b": word("y")}
        assert check_homomorphism(p, images, free_abelian_target_oracle())

    def test_powers_into_z(self):
        # a -> 3, b -> 2 in Z written multiplicatively over one generator t
        p = presentation_from_pairs(["a", "b"], [(["a", "a"], ["b", "b", "b"])])
        images = {"a": word("t", "t", "t"), "b": word("t", "t")}
        assert check_homomorphism(p, images, free_abelian_target_oracle())

    def test_free_target_rejects(self):
        p = Presentation(("a", "b"), (word("a", "b"),))
        images = {"a": word("a"), "b": word("b")}
        assert not check_homomorphism(p, images, free_target_oracle())

    def test_missing_image(self):
        p = Presentation(("a",), ())
        with pytest.raises(ValueError):
            check_homomorphism(p, {}, free_target_oracle())

    def test_long_relators_match_wordwise_product(self):
        # relators of 200 letters or more; the images of a b and of b c
        # cancel across the letter boundary, and a b c maps to 1, so its
        # conjugates form relators that the map kills
        rng = random.Random(24)
        images = {"a": word("x", "y"), "b": word("y-", "x-", "z"), "c": word("z-")}

        def random_word(n):
            return reduce_word((rng.choice("abc"), rng.choice((1, -1))) for _ in range(n))

        conjugates = [reduce_word(w.letters + word("a", "b", "c").letters + w.inverse().letters)
                      for w in (random_word(300) for _ in range(10))]
        generic = [random_word(400) for _ in range(10)]
        assert min(map(len, conjugates + generic)) >= 200
        for rels in (conjugates, generic, conjugates + generic):
            pres = Presentation(("a", "b", "c"), tuple(rels))
            seen, seen_wordwise = [], []
            assert check_homomorphism(pres, images, lambda w: seen.append(w) or True)
            assert check_homomorphism_wordwise(pres, images, lambda w: seen_wordwise.append(w) or True)
            assert seen == seen_wordwise
            for target in (free_target_oracle(), free_abelian_target_oracle()):
                assert (check_homomorphism(pres, images, target)
                        == check_homomorphism_wordwise(pres, images, target) == (rels is conjugates))


class TestTable:
    def test_trivial_monoid(self):
        p = maxset_presentation({("e", "e"): "e"})
        q = tietze_simplify(p)
        assert q.generators == () and q.relators == ()


class TestCertificates:
    def test_free(self):
        assert certificate_free(Presentation(("a", "b"), ())) == 2
        assert certificate_free(Presentation(("a",), (word("a", "a"),))) is None

    def test_free_abelian_fires(self):
        p = presentation_from_pairs(
            ["a", "b"],
            [(["a", "b"], ["b", "a"]), (["a", "a", "b"], ["b", "a", "a"])],
        )
        assert certificate_free_abelian(p) == 2

    def test_free_abelian_needs_commutator(self):
        # relator in the commutator subgroup but no plain commutator present
        p = Presentation(("a", "b"), (word("a", "a", "b", "a-", "a-", "b-"),))
        assert certificate_free_abelian(p) is None

    def test_free_abelian_rejects_nonzero_exponents(self):
        p = presentation_from_pairs(["a", "b"], [(["a", "a"], ["b"])])
        assert certificate_free_abelian(p) is None

    @given(st.data())
    def test_free_abelian_matches_rotation_search(self, data):
        # commutators in every rotation and orientation, plus random words
        gens = data.draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
        letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
        rels = [reduce_word(w) for w in data.draw(st.lists(st.lists(letter, max_size=5), max_size=4))]
        for a, b in data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=8)):
            e, f = data.draw(st.sampled_from((1, -1))), data.draw(st.sampled_from((1, -1)))
            k = data.draw(st.integers(0, 3))
            w = [(a, e), (b, f), (a, -e), (b, -f)]
            rels.append(reduce_word(w[k:] + w[:k]))
        pres = Presentation(tuple(gens), tuple(data.draw(st.permutations(rels))))
        assert certificate_free_abelian(pres) == free_abelian_by_rotations(pres)

    def test_free_abelian_rejects_one_nonzero_relator(self):
        # the commutator is present, but a later relator has exponent sums
        p = presentation_from_pairs(["a", "b"],
                                    [(["a", "b"], ["b", "a"]), (["a", "a", "b"], ["b", "a"])])
        assert certificate_free_abelian(p) is None
