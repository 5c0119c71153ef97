"""Batch front-end: generate sequences and model sets, emit presentation
reports comparing the universal group with the difference group, and
run the verification suites.

All output is JSON with exact numbers serialized as strings; sampled
suites take a seed and are deterministic given the full configuration,
and a sampled law says how many samples it decided.  Exit code 0 means
every requested check passed, 1 that a check failed and 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import cache
from itertools import zip_longest
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

from ._record import Record
from .exactnum import QuadraticRational as QR, golden_ratio
from .modelset import (
    CutProjectScheme,
    EmpireScan,
    WindowSet,
    _holds,
    _meet,
    _shifted,
    _window_of_stars,
    obstruction_grade,
    fibonacci_scheme,
    partial_action_data,
    modelset_points,
)
from .pointset import LengthFunction, PointSet1D, build_pointset, diff_set, difference_group_invariants
from .presentation import (
    Presentation,
    abelian_invariants,
    certificate_free,
    certificate_free_abelian,
    presentation_from_pairs,
)
from .patterns import (
    PatternClass,
    inverse,
    is_idempotent,
    make_element,
    max_above,
    maxset_table,
    multiply,
    natural_leq,
    pointed_difference,
    max_class_of,
)
from .sequences import SequenceSpec, factor_language, two_sided_window
from .universal import (
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


# ---------------------------------------------------------------------------
# reference cases


class CaseConfig(Record):
    name: str
    spec: SequenceSpec
    lengths: LengthFunction
    table_universal: Optional[str]  # expected comparison cell, when one is known
    table_difference: Optional[str]


@cache
def reference_cases() -> Mapping[str, CaseConfig]:
    tau = golden_ratio()
    return MappingProxyType({case.name: case for case in (
        CaseConfig("fib", SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a"),
                   LengthFunction({"a": tau, "b": QR(1)}), "Z^2", "Z^2"),
        CaseConfig("periodic-ab-2-1", SequenceSpec("periodic", word="ab"),
                   LengthFunction({"a": QR(2), "b": QR(1)}), "Z^2", "Z"),
        CaseConfig("splice-irrational", SequenceSpec("spliced", left="a", right="b"),
                   LengthFunction({"a": tau, "b": QR(1)}), "FG_2", "Z"),
        CaseConfig("splice-rational-3-2", SequenceSpec("spliced", left="a", right="b"),
                   LengthFunction({"a": QR(3), "b": QR(2)}), None, None),
    )})


def case_pointset(case: CaseConfig, half_width: int) -> PointSet1D:
    window = two_sided_window(case.spec, half_width)
    return build_pointset(window, case.lengths)


def build_case_report(case: CaseConfig, half_width: int, max_len: int) -> dict:
    """Harvest + certificates + difference-group invariants for one case,
    laid out for side-by-side comparison of the two groups."""
    report = harvest_equal_length_relations(two_sided_window(case.spec, half_width), case.lengths, max_len)
    pres = report.presentation
    invariants = abelian_invariants(pres)
    free_rank = certificate_free(pres)
    abelian_rank = certificate_free_abelian(pres)
    if abelian_rank is None:
        # no Tietze pass, which would return it unchanged: a relator is the
        # cyclic core u'v'^-1 of sorted neighbours u < v of one length, so
        # u' < v' are non-empty; none has length 2 (LengthFunction is
        # injective), so none defines a generator, and none repeats up to
        # inversion, which would need the pair (v', u')
        simplified = pres
    else:
        # every relator lies in [F, F], the normal closure of the
        # commutators, which are relators: so the commutators present it
        gens = pres.generators
        simplified = presentation_from_pairs(gens, [([a, b], [b, a]) for i, a in enumerate(gens) for b in gens[i + 1:]])
    if abelian_rank is not None:
        statement = f"Z^{abelian_rank} certificate"
    elif free_rank is not None:
        statement = f"free rank {free_rank} (no relations up to window ({half_width}, {max_len}))"
    else:
        statement = f"abelian invariants {invariants}"
    # the harvest's generators are the window's letters, sorted
    rank, basis = difference_group_invariants([case.lengths[c] for c in pres.generators])
    out = {
        "case": case.name,
        "window": {"half_width": half_width, "max_len": max_len},
        "harvest_pairs": sum(len(words) * (len(words) - 1) // 2 for _, words in report.classes),
        "generators": list(pres.generators),
        "universal_group": {
            "statement": statement,
            "abelian_invariants": [invariants[0], invariants[1]],
            "relators": len(pres.relators),
            "simplified": str(simplified),
        },
        "difference_group": {"rank": rank, "basis": [str(b) for b in basis]},
    }
    if case.table_universal is not None:
        out["table"] = {"universal_group": case.table_universal, "difference_group": case.table_difference}
        flag = {"Z": 1, "Z^2": 2}.get(case.table_difference) != rank
        out["difference_group"]["table_discrepancy"] = flag
        if flag:
            out["difference_group"]["note"] = (
                f"computed rank {rank} disagrees with the table cell {case.table_difference}; "
                "the generated subgroup of R has that rank over Q-independent lengths"
            )
    return out


# ---------------------------------------------------------------------------
# verification suites


class Check(Record):
    name: str
    passed: bool
    detail: str = ""


def _group_like_checks(names: tuple[str, str, str], table: dict, values: Iterable[QR]) -> list[Check]:
    """Identity, inverse and reversal laws, under the three check names,
    for a partial product table over a symmetric value set."""
    zero = QR(0)
    laws = (
        all(table.get((zero, v)) == v == table.get((v, zero)) for v in values),
        all(table.get((v, -v)) == zero for v in values),
        all(table.get((-b, -a)) == -c for (a, b), c in table.items()),
    )
    return [Check(name, ok) for name, ok in zip(names, laws)]


def _sampled(name: str, outcomes: list[Optional[bool]]) -> Check:
    """A law on samples, None for a sample whose products the truncation
    left UNKNOWN: it passes when every decided sample holds."""
    decided = [ok for ok in outcomes if ok is not None]
    return Check(name, all(decided), f"{len(decided)} decided, {len(outcomes) - len(decided)} unknown")


def suite_semigroup_axioms(seed: int = 0) -> list[Check]:
    cases = reference_cases()
    checks: list[Check] = []
    tau = golden_ratio()

    laws = ("identity composes both sides", "inverses compose to identity", "reversal law on every defined product")
    for name, bound in (("fib", tau + 1), ("periodic-ab-2-1", QR(6))):
        ps = case_pointset(cases[name], 14)
        table = maxset_table(ps, bound)
        values = {d.value for d in diff_set(ps, bound)}
        checks.extend(_group_like_checks(tuple(f"diff table {name}: {law}" for law in laws), table, values))

    ps = case_pointset(cases["fib"], 12)
    rng = random.Random(seed)
    samples: list[PatternClass] = []
    idx = list(range(ps.min_index + 1, ps.max_index - 1))
    for _ in range(40):
        chosen = sorted(rng.sample(idx, rng.randint(1, 3)))
        out = rng.choice(chosen)
        in_ = rng.choice(chosen)
        samples.append(make_element(ps, chosen, out, in_))

    laws, pure_ok, max_ok = [], True, True
    for x in samples:
        r1 = multiply(x, inverse(x), ps)
        r2 = multiply(r1.value, x, ps) if r1.is_defined else r1
        laws.append(r2.value == x if r2.is_defined else None)
        if (pointed_difference(x).sign() == 0) != is_idempotent(x):
            pure_ok = False
        m = max_above(x)
        if not natural_leq(x, m) or pointed_difference(m) != pointed_difference(x):
            max_ok = False
    checks.append(_sampled("pattern classes: x x^-1 x = x on samples", laws))
    checks.append(Check("pattern classes: pointed difference vanishes exactly on idempotents", pure_ok))
    checks.append(Check("pattern classes: unique maximal element above each sample", max_ok))

    commutes, morphisms = [], []
    for _ in range(40):
        chosen1 = sorted(rng.sample(idx, rng.randint(1, 2)))
        chosen2 = sorted(rng.sample(idx, rng.randint(1, 2)))
        e = make_element(ps, chosen1, chosen1[0], chosen1[0])
        f = make_element(ps, chosen2, chosen2[0], chosen2[0])
        ef = multiply(e, f, ps)
        fe = multiply(f, e, ps)
        commutes.append(ef.value == fe.value if ef.is_defined and fe.is_defined else None)
        x = make_element(ps, chosen1, chosen1[-1], chosen1[0])
        y = make_element(ps, chosen2, chosen2[-1], chosen2[0])
        xy = multiply(x, y, ps)
        morphisms.append(pointed_difference(xy.value) == pointed_difference(x) + pointed_difference(y)
                         if xy.is_defined else None)
    checks.append(_sampled("pattern classes: idempotents commute where defined", commutes))
    checks.append(_sampled("pattern classes: pointed difference is a morphism on defined products", morphisms))

    # maximal two-point classes intertwine the diff table with products
    table = maxset_table(ps, tau + 1)
    diffs = {d.value: d for d in diff_set(ps, tau + 1)}

    def intertwines(a: QR, b: QR, c: QR) -> bool:
        if not {a, b, c} <= diffs.keys():  # a value outside the difference set
            return False
        prod = multiply(max_class_of(diffs[a], ps), max_class_of(diffs[b], ps), ps)
        return prod.is_defined and max_above(prod.value) == max_class_of(diffs[c], ps)

    intertwine_ok = all(intertwines(a, b, c) for (a, b), c in table.items())
    checks.append(Check("maximal classes intertwine diff sums with products", intertwine_ok))

    # accent-string laws over the Fibonacci language
    window = two_sided_window(cases["fib"].spec, 30)
    lang = factor_language(window, 6)
    elems = enumerate_language_semigroup(factor_language(window, 3))
    sl_ok = True
    for p in elems:
        q = accent_multiply(p, accent_inverse(p), lang)
        if q is None or accent_multiply(q, p, lang) != p:
            sl_ok = False
    checks.append(Check("language semigroup: p p^-1 p = p on all short elements", sl_ok))
    idems = [s for s in elems if accent_is_idempotent(s)]
    sl_comm = True
    for e in idems[:30]:
        for f in idems[:30]:
            ef = accent_multiply(e, f, lang)
            fe = accent_multiply(f, e, lang)
            if (ef is None) != (fe is None) or (ef is not None and ef != fe):
                sl_comm = False
    checks.append(Check("language semigroup: idempotents commute", sl_comm))
    below_ok = all(
        accent_natural_leq(s, accent_max_above(s)) for s in elems
    )
    checks.append(Check("language semigroup: every element lies below its maximal element", below_ok))

    # group-like axioms for the boxed partial-action harvest
    data = partial_action_data((QR(1), tau), WindowSet.interval(QR(0), QR(1)), 3)
    checks.extend(_group_like_checks(
        ("partial action: identity composable with every element", "partial action: inverses composable",
         "partial action: reversal law"),
        dict(data.items()), data.elements))
    return checks


def suite_empire(pairs: int = 100, seed: int = 0, box_bound: int = 60) -> list[Check]:
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    scheme = fibonacci_scheme()
    points = modelset_points(scheme, QR(30))
    scan = EmpireScan(scheme, box_bound, points)
    # each pool star once, in the scheme's frame: g + x lies in the model
    # set exactly when g* lies in K - x*, kept as a shifted window
    _, d, k, _ = scheme._frame
    stars = [scheme._star_pair(x) for x in points]
    translates = [_shifted(k, -a, -b) for a, b in stars]
    rng = random.Random(seed)

    def random_pattern() -> list[int]:
        # positions in the sorted pool: the draws of rng.sample(points, ...)
        return sorted(rng.sample(range(len(points)), rng.randint(1, 5)))

    mismatches = []
    separators_ok = True

    tested = n_equal = 0
    while tested < pairs:
        pat_p = random_pattern()
        w = _window_of_stars(scheme, [stars[i] for i in pat_p])
        if tested % 5 == 4:
            # a pair that is empire-equal by construction: add a point
            # whose window translate already covers the pattern window
            extra = next((j for j, t in enumerate(translates) if j not in pat_p and _meet(w, t, d) == w), None)
            if extra is None:
                continue
            pat_q = sorted(pat_p + [extra])
        else:
            pat_q = random_pattern()
        tested += 1
        eq = w == _window_of_stars(scheme, [stars[i] for i in pat_q])
        points_p, points_q = [points[i] for i in pat_p], [points[i] for i in pat_q]
        separator = scan.compare(points_p, points_q)
        if eq != (separator is None):
            mismatches.append((points_p, points_q))
        n_equal += eq
        if not eq:
            # a separator places exactly one of the two patterns; None places neither
            g = scheme._star_at(*separator) if separator is not None else None
            in_p, in_q = (g is not None and all(_holds(translates[i], *g, d) for i in pat) for pat in (pat_p, pat_q))
            separators_ok &= in_p != in_q

    shown = "; ".join(f"[{', '.join(map(str, p))}] vs [{', '.join(map(str, q))}]" for p, q in mismatches[:3])
    return [
        Check(
            f"empire: window test agrees with brute scan on {tested} pairs "
            f"({n_equal} equal, {tested - n_equal} unequal)",
            not mismatches,
            f"mismatches: {shown}" if mismatches else "",
        ),
        Check("empire: every unequal pair exhibits a separating translation", separators_ok),
    ]


def suite_modelset_vs_substitution(radius: int = 50) -> list[Check]:
    scheme = fibonacci_scheme()
    model = modelset_points(scheme, QR(radius))
    # every tile is at least 1 long, so the points -radius-1 ... radius of
    # the chain cover [-radius, radius]
    ps = case_pointset(reference_cases()["fib"], radius)
    bound = QR(radius)
    substitution = [p for p in ps.points if abs(p) <= bound]
    same = model == substitution
    detail = f"{len(model)} model-set points vs {len(substitution)} substitution points"
    if not same:
        p, q = next((p, q) for p, q in zip_longest(model, substitution) if p != q)
        detail += f"; first difference {p} vs {q}"
    return [Check(f"model set equals substitution chain at radius {radius}", same, detail)]


def _table_proof(pres: Presentation, relations: int) -> str:
    """Z^k on the generators P where certified, else the relations kept."""
    rank = certificate_free_abelian(pres)
    if rank is not None:
        return f"Z^{rank} certificate on P = {{{', '.join(pres.generators)}}}"
    return f"{len(pres.relators)} of {relations} relations kept"


def suite_partial_action() -> list[Check]:
    tau = golden_ratio()
    window = WindowSet.interval(QR(0), QR(1))
    checks = []
    prev_relations: Optional[set] = None
    prev_elements: Optional[set] = None
    for bound in (3, 4, 5):
        data = partial_action_data((QR(1), tau), window, bound)
        pres = maxset_presentation(data)
        inv = abelian_invariants(pres)
        checks.append(Check(
            f"partial-action presentation at bound {bound} has abelian invariants (2, [])",
            inv == (2, []),
            f"got {inv}; {_table_proof(pres, len(data.relations))}",
        ))
        rel = set(data.relations)
        elems = set(data.elements)
        if prev_relations is not None:
            checks.append(Check(
                f"relations at bound {bound-1} contained in bound {bound}",
                prev_relations <= rel and prev_elements <= elems,
            ))
        prev_relations, prev_elements = rel, elems
    return checks


def suite_obstruction(coeff_bound: int = 5) -> list[Check]:
    tau = golden_ratio()
    irrational_gen = tau - 1
    r, s = QR(1), QR(9)
    basis = (s, irrational_gen)
    x_window = WindowSet.normalized([(QR(0), r), (s, s + r)])
    v_window = WindowSet.interval(QR(0), r)
    data = partial_action_data(basis, x_window, coeff_bound)
    checks = []

    def grade(g: QR) -> Optional[int]:
        try:
            return obstruction_grade(r, s, g)
        except ValueError:
            return None

    grades = {g: grade(g) for g in data.elements}
    well = None not in grades.values()
    checks.append(Check(
        f"grade well-defined on all {len(data.elements)} harvested elements", well))
    checks.append(Check("grade additive on every composable pair", well and all(
        grades[g] + grades[gp] == grades[total] for g, gp, total in data.relations)))
    checks.append(Check("grade of the two-component shift is 1", grades.get(s) == 1))

    # a single-component generator outside the harvest has no grade here
    v_data = partial_action_data(basis, v_window, coeff_bound)
    checks.append(Check(
        "grade vanishes on the single-component generator set (restriction not surjective)",
        all(grades.get(g) == 0 for g in v_data.elements),
        f"single-component generators: {[str(g) for g in v_data.elements]}",
    ))
    return checks


def suite_language_free() -> list[Check]:
    cases = reference_cases()
    checks = []
    fib_lang = factor_language(two_sided_window(cases["fib"].spec, 80), 10)
    pres, rank = universal_group_of_language(fib_lang)
    checks.append(Check(
        "Fibonacci language: universal group free of rank 3",
        rank == 3 and certificate_free(pres) == 3 and set(pres.generators) == {"aa", "ab", "ba"},
    ))
    per_lang = factor_language(two_sided_window(cases["periodic-ab-2-1"].spec, 40), 10)
    pres2, rank2 = universal_group_of_language(per_lang)
    checks.append(Check(
        "periodic language: universal group free of rank 2",
        rank2 == 2 and set(pres2.generators) == {"ab", "ba"},
    ))
    c_elems, _ = enumerate_end_accented_and_max(fib_lang)
    long_elems = [c for c in c_elems if len(c.word) >= 2]
    try:
        round_ok = all(compose_chain(decompose_into_two_letter(c), fib_lang) == c for c in long_elems)
    except ValueError:  # the chain does not compose
        round_ok = False
    checks.append(Check(f"decompose/compose round-trip on {len(long_elems)} end-accented strings", round_ok))
    small = factor_language(two_sided_window(cases["fib"].spec, 20), 4)
    _, small_max = enumerate_end_accented_and_max(small)
    unique_ok = all(
        sum(accent_natural_leq(sdata, m) for m in small_max) == 1
        for sdata in enumerate_language_semigroup(small)
    )
    checks.append(Check("every element lies below exactly one maximal element", unique_ok))
    return checks


def suite_table() -> list[Check]:
    cases = reference_cases()
    half_width, max_len = 40, 12
    checks = []
    harvest_invs = {}

    rep = build_case_report(cases["fib"], half_width, max_len)
    harvest_invs["fib"] = tuple(rep["universal_group"]["abelian_invariants"])
    checks.append(Check(
        "case fib: Z^2 certificate and difference group of rank 2",
        rep["universal_group"]["statement"].startswith("Z^2") and rep["difference_group"]["rank"] == 2
        and not rep["difference_group"]["table_discrepancy"],
    ))

    rep = build_case_report(cases["periodic-ab-2-1"], half_width, max_len)
    harvest_invs["periodic-ab-2-1"] = tuple(rep["universal_group"]["abelian_invariants"])
    checks.append(Check(
        "case periodic: Z^2 certificate and difference group of rank 1",
        rep["universal_group"]["statement"].startswith("Z^2") and rep["difference_group"]["rank"] == 1
        and rep["difference_group"]["basis"] == ["1"] and not rep["difference_group"]["table_discrepancy"],
    ))

    rep = build_case_report(cases["splice-irrational"], half_width, 16)
    checks.append(Check(
        "case splice-irrational: empty harvest, free certificate, flagged difference cell",
        rep["harvest_pairs"] == 0 and rep["universal_group"]["statement"].startswith("free rank 2")
        and rep["difference_group"]["rank"] == 2 and rep["difference_group"]["table_discrepancy"],
    ))

    case = cases["splice-rational-3-2"]
    window = two_sided_window(case.spec, half_width)
    harvest = harvest_equal_length_relations(window, case.lengths, max_len)
    has_pair = any("aa" in words and "bbb" in words for _, words in harvest.classes)
    inv = harvest_invs[case.name] = abelian_invariants(harvest.presentation)
    checks.append(Check(
        "case splice-rational: pair (aa, bbb) harvested and abelianization Z",
        has_pair and inv == (1, []),
        f"invariants {inv}",
    ))

    # the two presentations of the universal group agree on abelianization
    tau = golden_ratio()
    for name, bound, expected in (
        ("fib", tau + 1, (2, [])),
        ("periodic-ab-2-1", QR(6), (2, [])),
        ("splice-rational-3-2", QR(6), (1, [])),
    ):
        ps = case_pointset(cases[name], 14)
        table = maxset_table(ps, bound)
        table_pres = maxset_presentation(table)
        table_inv = abelian_invariants(table_pres)
        checks.append(Check(
            f"case {name}: diff-table and harvest abelianizations agree",
            table_inv == harvest_invs[name] == expected,
            f"table {table_inv}, harvest {harvest_invs[name]}; table {_table_proof(table_pres, len(table))}",
        ))
    return checks


# each suite with the names of the verify options it takes: its parameters,
# all positional-or-keyword, so the first co_argcount local names
SUITES: dict[str, tuple[Callable[..., list[Check]], tuple[str, ...]]] = {
    name: (suite, suite.__code__.co_varnames[:suite.__code__.co_argcount]) for name, suite in (
        ("semigroup-axioms", suite_semigroup_axioms),
        ("empire", suite_empire),
        ("modelset-vs-substitution", suite_modelset_vs_substitution),
        ("partial-action", suite_partial_action),
        ("obstruction", suite_obstruction),
        ("language-free", suite_language_free),
        ("table", suite_table),
    )
}


# every verify option once, in the order of the suites that take it
_VERIFY_OPTIONS = tuple(dict.fromkeys(option for _, options in SUITES.values() for option in options))


def run_suite(name: str, args: argparse.Namespace) -> list[Check]:
    suite, options = SUITES[name]
    # an option that args leaves out keeps the suite's own default
    return suite(**{option: getattr(args, option) for option in options if hasattr(args, option)})


# ---------------------------------------------------------------------------
# commands


def _write_out(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# the options each generate source reads, besides --out
_GENERATE_SOURCE_OPTIONS = {
    "case": ("half_width", "max_len"),
    "spec": ("lengths", "half_width", "max_len"),
    "scheme": ("radius",),
    "builtin_scheme": ("radius",),
}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def cmd_generate(args: argparse.Namespace) -> int:
    source = next(name for name in _GENERATE_SOURCE_OPTIONS if getattr(args, name))
    ignored = [name for name in ("lengths", "radius", "half_width", "max_len")
               if getattr(args, name) is not None and name not in _GENERATE_SOURCE_OPTIONS[source]]
    if ignored:
        raise ValueError(f"{_option(source)} does not take {', '.join(map(_option, ignored))}")
    if args.scheme or args.builtin_scheme:
        if args.builtin_scheme:
            scheme = fibonacci_scheme()
        else:
            with open(args.scheme) as fh:
                scheme = CutProjectScheme.from_json_dict(json.load(fh))
        radius = "50" if args.radius is None else args.radius
        pts = modelset_points(scheme, QR.from_string(radius))
        data = {
            "scheme": scheme.to_json_dict(),
            "radius": radius,
            "count": len(pts),
            "points": [str(p) for p in pts],
        }
        _write_out(data, args.out)
        return 0
    if args.case:
        case = reference_cases()[args.case]
        spec, lengths = case.spec, case.lengths
    else:
        if not args.lengths:
            raise ValueError("--spec needs --lengths, e.g. --lengths a=2,b=1")
        with open(args.spec) as fh:
            spec = SequenceSpec.from_json(fh.read())
        lengths = _parse_lengths(args.lengths)
    window = two_sided_window(spec, 20 if args.half_width is None else args.half_width)
    missing = sorted(set(window.letters) - lengths.lengths.keys())
    if missing:
        raise ValueError(f"--lengths gives no length for letter {', '.join(map(repr, missing))}")
    ps = build_pointset(window, lengths)
    max_len = 8 if args.max_len is None else args.max_len
    lang = factor_language(window, max_len)
    data = {
        "spec": json.loads(spec.to_json()),
        "window": {"start": window.start_index, "letters": window.letters},
        "pointset": ps.to_json_dict(),
        "language": {"max_len": max_len, "words": sorted(lang.words)},
    }
    _write_out(data, args.out)
    return 0


def _parse_lengths(text: str) -> LengthFunction:
    table = {}
    for item in text.split(","):
        letter, eq, value = item.partition("=")
        letter = letter.strip()
        if not letter or not eq or not value.strip():
            raise ValueError(f"--lengths item {item!r} is not letter=length")
        if letter in table:
            raise ValueError(f"--lengths item {item!r} repeats the letter {letter!r}")
        table[letter] = QR.from_string(value)
    return LengthFunction(table)


def cmd_present(args: argparse.Namespace) -> int:
    case = reference_cases()[args.case]
    report = build_case_report(case, args.half_width, args.max_len)
    _write_out(report, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        names = list(SUITES)
    else:
        names = [args.suite]
        # only a given option is set (argparse.SUPPRESS)
        ignored = [option for option in _VERIFY_OPTIONS
                   if hasattr(args, option) and option not in SUITES[args.suite][1]]
        if ignored:
            raise ValueError(f"--suite {args.suite} does not take {', '.join(map(_option, ignored))}")
    all_checks = []
    for name in names:
        t0 = time.perf_counter()
        checks = run_suite(name, args)
        elapsed = time.perf_counter() - t0
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {name}: {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            print(line)
            all_checks.append({"suite": name, "check": c.name,
                               "passed": c.passed, "detail": c.detail})
        print(f"-- suite {name} finished in {elapsed:.2f}s")
    failed = sum(not c["passed"] for c in all_checks)
    if args.out:
        _write_out({"checks": all_checks, "failed": failed}, args.out)
    return 0 if failed == 0 else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilegroups",
        description="exact semigroup and universal-group computations for 1-D aperiodic structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="dump point sets, model sets and factor languages")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", choices=list(reference_cases()))
    source.add_argument("--spec", help="SequenceSpec JSON file (needs --lengths)")
    source.add_argument("--scheme", help="CutProjectScheme JSON file")
    source.add_argument("--builtin-scheme", action="store_true", help="use the reference Fibonacci scheme")
    # an option its source does not read is an error, so none has a parser default
    gen.add_argument("--lengths", help="letter lengths for --spec, e.g. a=3/2+1/2*sqrt(5),b=1")
    gen.add_argument("--radius", help="model-set radius for a scheme (default 50)")
    gen.add_argument("--half-width", type=int, help="window half-width for --case or --spec (default 20)")
    gen.add_argument("--max-len", type=int, help="factor length for --case or --spec (default 8)")
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    pres = sub.add_parser("present", help="universal-group / difference-group report for a reference case")
    pres.add_argument("--case", required=True, choices=list(reference_cases()))
    pres.add_argument("--half-width", type=int, default=40)
    pres.add_argument("--max-len", type=int, default=12)
    pres.add_argument("--out")
    pres.set_defaults(func=cmd_present)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", default="all", choices=["all", *SUITES])
    # each suite parameter once, with no default of its own (run_suite)
    for option in _VERIFY_OPTIONS:
        ver.add_argument(_option(option), type=int, default=argparse.SUPPRESS)
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
