"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with timing.  Tolerances are exact unless a runtime bound is
stated; randomized criteria use fixed seeds.
"""

import random
import time

from tilegroups.cli import (
    build_case_report,
    case_pointset,
    reference_cases,
    suite_empire,
)
from tilegroups.exactnum import QuadraticRational as QR, golden_ratio
from tilegroups.modelset import (
    WindowSet,
    obstruction_grade,
    fibonacci_scheme,
    triple_is_idempotent,
    partial_action_data,
    modelset_points,
    project_functor,
)
from tilegroups.pointset import difference_group_invariants
from tilegroups.presentation import abelian_invariants, certificate_free
from tilegroups.patterns import (
    is_idempotent,
    make_element,
    maxset_table,
    pointed_difference,
)
from tilegroups.sequences import factor_language, two_sided_window
from tilegroups.universal import (
    compose_chain,
    decompose_into_two_letter,
    enumerate_end_accented_and_max,
    harvest_equal_length_relations,
    maxset_presentation,
    universal_group_of_language,
)

TAU = golden_ratio()


def report(number, description, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number:>2} PASS{timing}: {description}")


def test_c01_fibonacci_case():
    t0 = time.perf_counter()
    cases = reference_cases()
    case = cases["fib"]
    window = two_sided_window(case.spec, 40)
    harvest = harvest_equal_length_relations(window, case.lengths, 12)
    assert ("ab", "ba") in {(u, v) for u, v, _ in harvest.pairs}
    for u, v, _ in harvest.pairs:
        assert u.count("a") == v.count("a") and u.count("b") == v.count("b")
    rep = build_case_report(case, 40, 12)
    assert rep["universal_group"]["statement"].startswith("Z^2 certificate")
    assert rep["universal_group"]["abelian_invariants"] == [2, []]
    rank, _ = difference_group_invariants([TAU, QR(1)])
    assert rank == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, "Fibonacci: harvest has (ab,ba), equal letter counts, "
              "Z^2 certificate, difference group of rank 2", elapsed)


def test_c02_periodic_case():
    t0 = time.perf_counter()
    case = reference_cases()["periodic-ab-2-1"]
    window = two_sided_window(case.spec, 40)
    harvest = harvest_equal_length_relations(window, case.lengths, 12)
    for u, v, _ in harvest.pairs:
        assert u.count("a") == v.count("a") and u.count("b") == v.count("b")
    rep = build_case_report(case, 40, 12)
    assert rep["universal_group"]["statement"].startswith("Z^2 certificate")
    rank, basis = difference_group_invariants([QR(2), QR(1)])
    assert rank == 1 and basis == [QR(1)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(2, "periodic ab: equal letter counts, Z^2 certificate, "
              "difference group Z with basis {1}", elapsed)


def test_c03_irrational_splice():
    case = reference_cases()["splice-irrational"]
    window = two_sided_window(case.spec, 40)
    harvest = harvest_equal_length_relations(window, case.lengths, 16)
    assert harvest.pairs == ()
    assert certificate_free(harvest.presentation) == 2
    rep = build_case_report(case, 40, 16)
    assert rep["universal_group"]["statement"].startswith("free rank 2")
    assert "(40, 16)" in rep["universal_group"]["statement"]  # window-stamped evidence
    assert rep["difference_group"]["rank"] == 2
    assert rep["difference_group"]["table_discrepancy"] is True
    report(3, "irrational splice: empty harvest up to (40, 16), free-rank-2 "
              "certificate, rank-2 difference group flagged against the table")


def test_c04_rational_splice():
    case = reference_cases()["splice-rational-3-2"]
    window = two_sided_window(case.spec, 40)
    harvest = harvest_equal_length_relations(window, case.lengths, 12)
    assert ("aa", "bbb") in {(u, v) for u, v, _ in harvest.pairs}
    assert abelian_invariants(harvest.presentation) == (1, [])
    report(4, "rational splice 3/2: pair (a^2, b^3) harvested, "
              "abelianization exactly Z")


def test_c05_tiling_semigroup_free():
    cases = reference_cases()
    fib_lang = factor_language(two_sided_window(cases["fib"].spec, 80), 10)
    pres, rank = universal_group_of_language(fib_lang)
    two_letter = fib_lang.of_length(2)
    assert rank == 3 == len(two_letter)
    assert pres.relators == ()
    per_lang = factor_language(two_sided_window(cases["periodic-ab-2-1"].spec, 40), 10)
    _, rank2 = universal_group_of_language(per_lang)
    assert rank2 == 2
    c_elems, _ = enumerate_end_accented_and_max(fib_lang)
    count = 0
    for c in c_elems:
        if len(c.word) >= 2:
            assert compose_chain(decompose_into_two_letter(c), fib_lang) == c
            count += 1
    assert count > 0
    report(5, f"tiling semigroup: free of rank 3 (Fibonacci) and 2 (periodic); "
              f"decompose/compose round-trip on {count} strings up to length 10")


def test_c06_modelset_vs_substitution():
    t0 = time.perf_counter()
    scheme = fibonacci_scheme()
    model = modelset_points(scheme, QR(50))
    ps = case_pointset(reference_cases()["fib"], 45)
    substitution = [p for p in ps.points if abs(p) <= QR(50)]
    assert model == substitution
    assert len(model) >= 60
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(6, f"model set at radius 50 equals the substitution chain "
              f"point-for-point ({len(model)} points)", elapsed)


def test_c07_empire_oracle():
    checks = suite_empire(pairs=100, seed=0, box_bound=60)
    for c in checks:
        assert c.passed, c.name
    report(7, f"{checks[0].name}; separating translations exhibited")


def test_c08_idempotent_purity():
    scheme = fibonacci_scheme()
    ps = case_pointset(reference_cases()["fib"], 10)
    rng = random.Random(0)
    idx = list(range(ps.min_index, ps.max_index + 1))
    model = modelset_points(scheme, QR(25))
    members = set(model)
    violations = 0
    samples = 0
    for _ in range(120):
        chosen = sorted(rng.sample(idx, rng.randint(1, 3)))
        x = make_element(ps, chosen, rng.choice(chosen), rng.choice(chosen))
        samples += 1
        if (pointed_difference(x).sign() == 0) != is_idempotent(x):
            violations += 1
        placement = next((t for t in model
                          if all((o + t) in members for o in x.offsets)), None)
        if placement is not None:
            img = project_functor(scheme, x, placement)
            if (img.shift.sign() == 0) != triple_is_idempotent(img):
                violations += 1
            # functor is idempotent pure: idempotent image forces idempotent source
            if triple_is_idempotent(img) and not is_idempotent(x):
                violations += 1
    assert violations == 0
    report(8, f"idempotent purity holds on {samples} sampled pattern classes, "
              "their window-triple images, and the functor")


def test_c09_axiom_suites():
    from tilegroups.cli import suite_semigroup_axioms

    checks = suite_semigroup_axioms(seed=0)
    for c in checks:
        assert c.passed, c.name
    report(9, f"group-like and inverse-semigroup axiom suites: "
              f"{len(checks)} checks, zero violations")


def test_c10_presentation_consistency():
    cases = reference_cases()
    expectations = {
        "fib": (TAU + 1, (2, [])),
        "periodic-ab-2-1": (QR(6), (2, [])),
        "splice-rational-3-2": (QR(6), (1, [])),
    }
    for name, (bound, expected) in expectations.items():
        case = cases[name]
        ps = case_pointset(case, 14)
        table_pres = maxset_presentation(maxset_table(ps, bound))
        harvest = harvest_equal_length_relations(
            two_sided_window(case.spec, 40), case.lengths, 12)
        assert abelian_invariants(table_pres) == abelian_invariants(harvest.presentation) == expected
    report(10, "chained-difference table and letter harvest give identical "
               "abelian invariants on cases 1, 2 and the rational splice")


def test_c11_partial_action_desk_check():
    window = WindowSet.interval(QR(0), QR(1))
    prev = None
    for bound in (3, 4, 5):
        data = partial_action_data((QR(1), TAU), window, bound)
        pres = maxset_presentation(data)
        assert abelian_invariants(pres) == (2, [])
        rel = set(data.relations)
        if prev is not None:
            assert prev <= rel
        prev = rel
    report(11, "partial-action presentations at bounds 3, 4, 5 all abelianize "
               "to Z^2 with monotone relation sets")


def test_c12_obstruction_grade():
    r, s = QR(1), QR(9)
    step = TAU - 1
    basis = (s, step)
    x_window = WindowSet.normalized([(QR(0), r), (s, s + r)])
    data = partial_action_data(basis, x_window, 5)
    for g in data.elements:
        obstruction_grade(r, s, g)  # raises if ill-defined
    for g, gp, total in data.relations:
        assert obstruction_grade(r, s, g) + obstruction_grade(r, s, gp) == \
            obstruction_grade(r, s, total)
    assert s in set(data.elements)
    assert obstruction_grade(r, s, s) == 1
    v_data = partial_action_data(basis, WindowSet.interval(QR(0), r), 5)
    assert set(v_data.elements) <= set(data.elements)
    assert all(obstruction_grade(r, s, g) == 0 for g in v_data.elements)
    report(12, f"grade well-defined on {len(data.elements)} harvested elements, "
               "additive on all composable pairs, 1 on the shift, 0 on the "
               "single-window generators: the restriction map is not onto")
