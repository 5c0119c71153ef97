import inspect
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reference_kernels import pair_text_fraction, pointset_points_indexed
from tilegroups import cli, modelset, patterns, sequences
from tilegroups.cli import build_case_report, main, reference_cases
from tilegroups.exactnum import QuadraticRational as QR
from tilegroups.modelset import EmpireScan, fibonacci_scheme
from tilegroups.pointset import PointSet1D
from tilegroups.presentation import Presentation, certificate_free_abelian, reduce_word
from tilegroups.sequences import SequenceSpec, two_sided_window
from tilegroups.universal import HarvestReport, harvest_equal_length_relations


class TestGenerate:
    def test_case_dump(self, tmp_path):
        out = tmp_path / "dump.json"
        rc = main(["generate", "--case", "fib", "--half-width", "10",
                   "--max-len", "4", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["spec"]["kind"] == "substitution"
        assert len(data["pointset"]["points"]) == 22
        # exact strings parse back
        for p in data["pointset"]["points"]:
            QR.from_string(p)
        assert "bb" not in data["language"]["words"]

    def test_scheme_dump(self, tmp_path):
        out = tmp_path / "model.json"
        rc = main(["generate", "--builtin-scheme", "--radius", "20", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["count"] == len(data["points"]) > 0
        values = [QR.from_string(p) for p in data["points"]]
        assert values == sorted(values)

    def test_custom_spec_file(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind":"periodic","word":"ab"}')
        out = tmp_path / "dump.json"
        rc = main(["generate", "--spec", str(spec_file), "--lengths", "a=2,b=1",
                   "--half-width", "10", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        # leftmost point r_{-11}: gaps T(0..-10) alternate a,b from a: 6*2+5*1
        assert data["pointset"]["points"][0] == "-17"

    def test_spec_dump_over_a_frame_of_twelve(self, tmp_path):
        # lengths over c = 12, d = 2, so the dump meets residues mod 12 of
        # both parts, not only the two of the Fibonacci frame
        spec_file, out = tmp_path / "spec.json", tmp_path / "dump.json"
        spec_file.write_text('{"kind":"substitution","rule":{"a":"abc","b":"ac","c":"a"},'
                             '"seed":"a","seed_left":"a"}')
        lengths = "a=1/3,b=1/2,c=1/6+1/4*sqrt(2)"
        rc = main(["generate", "--spec", str(spec_file), "--lengths", lengths,
                   "--half-width", "300", "--out", str(out)])
        assert rc == 0
        dumped = json.loads(out.read_text())["pointset"]["points"]
        window = two_sided_window(SequenceSpec.from_json(spec_file.read_text()), 300)
        ps = PointSet1D(window, cli._parse_lengths(lengths))
        assert ps.frame[:2] == (12, 2)
        assert dumped == [str(p) for p in ps.points]
        assert dumped == [pair_text_fraction(*p.triple, p.disc)
                          for p in pointset_points_indexed(window, ps.lengths)]

    def test_without_out_prints_json(self, capsys):
        rc = main(["generate", "--builtin-scheme", "--radius", "5"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["radius"] == "5" and data["count"] == len(data["points"]) > 0

    def test_invalid_scheme_window_diagnostic(self, tmp_path, capsys):
        scheme_file = tmp_path / "bad.json"
        scheme_file.write_text(json.dumps({
            "v1": {"phys": "1", "int": "1"},
            "v2": {"phys": "1/2+1/2*sqrt(5)", "int": "1/2-1/2*sqrt(5)"},
            "window": [["1", "0"]],
        }))
        rc = main(["generate", "--scheme", str(scheme_file), "--radius", "5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_window_from_another_field_diagnostic(self, tmp_path, capsys):
        # a sqrt(2) window on the sqrt(5) basis is rejected when the scheme is read
        scheme = fibonacci_scheme().to_json_dict()
        scheme["window"] = [["-1", "sqrt(2)"]]
        scheme_file = tmp_path / "other_field.json"
        scheme_file.write_text(json.dumps(scheme))
        out = tmp_path / "model.json"
        rc = main(["generate", "--scheme", str(scheme_file), "--radius", "10", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: acceptance window in Q(sqrt(2)), lattice basis in Q(sqrt(5))"]
        assert not out.exists()

    def test_reversed_scheme_window_component_rejected(self, tmp_path, capsys):
        # the second component reads [63/100, 0]; it is named, not dropped
        scheme = fibonacci_scheme().to_json_dict()
        scheme["window"] = [["-99/100", "-1/2"], ["63/100", "0"]]
        scheme_file = tmp_path / "reversed.json"
        scheme_file.write_text(json.dumps(scheme))
        out = tmp_path / "model.json"
        rc = main(["generate", "--scheme", str(scheme_file), "--radius", "10", "--out", str(out)])
        assert rc == 2
        assert "[63/100, 0] has lo > hi" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ([], "one of the arguments --case --spec --scheme --builtin-scheme is required"),
        (["--case", "fib", "--builtin-scheme"], "not allowed with argument"),
    ], ids=["none", "two"])
    def test_one_source_required(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, ignored", [
        (["--builtin-scheme", "--radius", "3", "--lengths", "a=zz", "--max-len", "99"],
         "--builtin-scheme does not take --lengths, --max-len"),
        (["--scheme", "SCHEME", "--half-width", "5"], "--scheme does not take --half-width"),
        (["--case", "fib", "--radius", "5"], "--case does not take --radius"),
        (["--case", "fib", "--lengths", "a=2,b=1"], "--case does not take --lengths"),
        (["--spec", "SPEC", "--lengths", "a=2,b=1", "--radius", "5"], "--spec does not take --radius"),
    ], ids=["builtin-scheme", "scheme", "case-radius", "case-lengths", "spec-radius"])
    def test_options_the_source_ignores_rejected(self, argv, ignored, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind":"periodic","word":"ab"}')
        scheme_file = tmp_path / "scheme.json"
        scheme_file.write_text(json.dumps(fibonacci_scheme().to_json_dict()))
        argv = [{"SPEC": str(spec_file), "SCHEME": str(scheme_file)}.get(a, a) for a in argv]
        out = tmp_path / "out.json"
        rc = main(["generate", *argv, "--out", str(out)])
        assert rc == 2
        assert ignored in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_where_read(self, tmp_path):
        out = tmp_path / "dump.json"
        assert main(["generate", "--case", "fib", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["pointset"]["points"]) == 42 and data["language"]["max_len"] == 8
        assert main(["generate", "--builtin-scheme", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["radius"] == "50"

    @pytest.mark.parametrize("lengths, message", [
        ([], "--spec needs --lengths"),
        (["--lengths", "a=2"], "no length for letter 'b'"),
        (["--lengths", "a=1,a=2,b=3"], "item 'a=2' repeats the letter 'a'"),
        (["--lengths", "a=1,,b=3"], "item '' is not letter=length"),
        (["--lengths", "=2,b=1"], "item '=2' is not letter=length"),
    ], ids=["no-lengths", "missing-letter", "repeated-letter", "empty-item", "no-letter"])
    def test_spec_lengths_diagnostic(self, lengths, message, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind":"periodic","word":"ab"}')
        rc = main(["generate", "--spec", str(spec_file), *lengths])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--builtin-scheme", "--radius", "1/0"],
        ["--spec", "SPEC", "--lengths", "a=1/0,b=3"],
        ["--scheme", "SCHEME"],
    ], ids=["radius", "lengths", "scheme-window"])
    def test_zero_denominator_diagnostic(self, argv, tmp_path, capsys):
        # one error line and exit 2, not a ZeroDivisionError traceback
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind":"periodic","word":"ab"}')
        scheme = fibonacci_scheme().to_json_dict()
        scheme["window"] = [["-99/100", "1/0"]]
        scheme_file = tmp_path / "scheme.json"
        scheme_file.write_text(json.dumps(scheme))
        argv = [{"SPEC": str(spec_file), "SCHEME": str(scheme_file)}.get(a, a) for a in argv]
        rc = main(["generate", *argv])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "zero denominator in '1/0'" in err[0]

    @pytest.mark.parametrize("argv", [
        ["--builtin-scheme", "--radius", "3*"],
        ["--spec", "SPEC", "--lengths", "a=3*-1,b=1"],
    ], ids=["radius", "lengths"])
    def test_dangling_star_diagnostic(self, argv, tmp_path, capsys):
        # "3*-1" is not read as 2: one error line and exit 2
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind":"periodic","word":"ab"}')
        rc = main(["generate", *[str(spec_file) if a == "SPEC" else a for a in argv]])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "cannot parse '3*" in err[0]

    @pytest.mark.parametrize("source, text, message", [
        ("--spec", '{"kind":"periodic","word":"ab","foo":1}', "unknown sequence spec keys ['foo']"),
        ("--spec", '["periodic"]', 'a sequence spec is a JSON object with a "kind"'),
        ("--spec", '{"kind":"periodic","word":7}', "spec field 'word' must be a string"),
        ("--spec", '{"kind":"substitution","rule":{"a":"ab","b":"a"},"seed":"c"}',
         "substitution rule has no image for letter 'c'"),
        ("--scheme", "[]", "scheme JSON has no v1"),
        ("--scheme", json.dumps({**fibonacci_scheme().to_json_dict(), "window": [["0", 1]]}),
         "a number is written as a string, not 1"),
    ], ids=["unknown-key", "not-an-object", "word-not-a-string", "seed-letter-without-rule",
            "scheme-not-an-object", "window-end-not-a-string"])
    def test_malformed_json_diagnostic(self, source, text, message, tmp_path, capsys):
        # one error line and exit 2, not a TypeError, AttributeError or bare KeyError
        path = tmp_path / "input.json"
        path.write_text(text)
        lengths = ["--lengths", "a=1,b=2"] if source == "--spec" else []
        rc = main(["generate", source, str(path), *lengths])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == f"error: {message}"

    def test_spec_field_its_kind_does_not_read(self, tmp_path, capsys):
        # not dropped from the dump without a word
        path = tmp_path / "periodic.json"
        path.write_text('{"kind":"periodic","word":"ab","seed":"a","rule":{"a":"ab"}}')
        rc = main(["generate", "--spec", str(path), "--lengths", "a=2,b=1"])
        out = capsys.readouterr()
        assert rc == 2 and out.out == ""
        assert out.err.splitlines() == ["error: periodic spec does not take rule, seed"]

    def test_parser_and_cases_built_once(self, tmp_path, monkeypatch):
        resolved = []
        monkeypatch.setattr(sequences, "_resolve_seed_pair",
                            lambda *args, real=sequences._resolve_seed_pair: resolved.append(args) or real(*args))
        cli.build_parser.cache_clear()
        cli.reference_cases.cache_clear()
        for _ in range(2):
            assert main(["generate", "--case", "fib", "--half-width", "4", "--out", str(tmp_path / "o.json")]) == 0
        assert cli.build_parser.cache_info().misses == 1
        assert len(resolved) == 1
        with pytest.raises(TypeError):
            reference_cases()["fib"] = None

    def test_cases_read_only_all_the_way_down(self):
        case = reference_cases()["fib"]
        with pytest.raises(TypeError):
            case.spec.rule["a"] = "ba"
        with pytest.raises(TypeError):
            case.lengths.lengths["c"] = QR(3)
        assert case.spec.rule == {"a": "ab", "b": "a"}


SPEC_KEYS = ("kind", "rule", "seed", "seed_left", "word", "left", "right", "foo")
WORDS = st.text("abc", max_size=3)  # c never has a length
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS, inner, max_size=3),
    max_leaves=6)
SPECS = JSON_VALUES | st.dictionaries(
    st.sampled_from(SPEC_KEYS), st.sampled_from(("substitution", "periodic", "spliced")) | JSON_VALUES, max_size=5)
LENGTHS = st.lists(st.text("ab=/+-*sqrt()0123456789 ", max_size=10), min_size=1, max_size=3).map(",".join)


@st.composite
def misshapen_schemes(draw):
    """The reference scheme with one part dropped or replaced by a value
    that is not a number string, or JSON of any shape."""
    scheme = fibonacci_scheme().to_json_dict()
    parts = [(scheme, "v1"), (scheme, "v2"), (scheme, "window"), (scheme["window"], 0), (scheme["window"][0], 1),
             *((scheme[v], k) for v in ("v1", "v2") for k in ("phys", "int"))]
    where, key = draw(st.sampled_from(parts))
    if draw(st.booleans()):
        del where[key]
    else:
        where[key] = draw(JSON_VALUES)
    return draw(st.just(scheme) | JSON_VALUES)


@settings(max_examples=60, deadline=None)
@given(spec=SPECS, scheme=misshapen_schemes(), lengths=LENGTHS)
def test_malformed_input_exits_cleanly(spec, scheme, lengths):
    # a run ends with exit 0, or with exit 2 and one error line; a
    # traceback would propagate out of main
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp, f"{name}.json") for name in ("spec", "periodic", "scheme")}
        files["spec"].write_text(json.dumps(spec))
        files["periodic"].write_text('{"kind":"periodic","word":"ab"}')
        files["scheme"].write_text(json.dumps(scheme))
        for argv in (["--spec", str(files["spec"]), "--lengths=a=1,b=2", "--half-width", "5"],
                     ["--spec", str(files["periodic"]), f"--lengths={lengths}", "--half-width", "5"],
                     ["--scheme", str(files["scheme"]), "--radius", "5"]):
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                rc = main(["generate", *argv])
            lines = err.getvalue().splitlines()
            assert rc in (0, 2), (argv, lines)
            assert len(lines) == (rc == 2) and all(line.startswith("error: ") for line in lines), (argv, lines)


class TestParseLengths:
    def test_letters_and_values(self):
        assert cli._parse_lengths("a=2, b=1/2").lengths == {"a": QR(2), "b": QR.from_string("1/2")}

    @pytest.mark.parametrize("text, item", [
        ("a=1,a=2,b=3", "'a=2'"),
        ("a=1,,b=3", "''"),
        ("=2,b=1", "'=2'"),
        ("a=1,b", "'b'"),
        ("a=,b=1", "'a='"),
    ], ids=["repeated-letter", "empty-item", "no-letter", "no-equals", "no-length"])
    def test_malformed_item_named(self, text, item):
        with pytest.raises(ValueError, match=f"item {item}"):
            cli._parse_lengths(text)


class TestPresent:
    def test_fib_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["present", "--case", "fib", "--half-width", "30",
                   "--max-len", "8", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["universal_group"]["statement"].startswith("Z^2")
        assert data["difference_group"]["rank"] == 2

    def test_reports_deterministic(self):
        cases = reference_cases()
        a = build_case_report(cases["periodic-ab-2-1"], 20, 6)
        b = build_case_report(cases["periodic-ab-2-1"], 20, 6)
        assert a == b

    @pytest.mark.parametrize("name", list(reference_cases()))
    def test_exponent_rows_built_once(self, name):
        # the report states Z^n exactly where the certificate of the
        # harvest presentation holds
        case = reference_cases()[name]
        pres = harvest_equal_length_relations(two_sided_window(case.spec, 20), case.lengths, 8).presentation
        rank = certificate_free_abelian(pres)
        statement = build_case_report(case, 20, 8)["universal_group"]["statement"]
        assert (statement == f"Z^{rank} certificate") == (rank is not None)

    @pytest.mark.parametrize("name", list(reference_cases()))
    def test_certified_report_simplifies_to_commutators(self, name):
        # a Z^n certificate reports the commutators of the harvest's
        # generators, a presentation that certifies Z^n itself; every other
        # statement reports the harvest presentation
        case = reference_cases()[name]
        pres = harvest_equal_length_relations(two_sided_window(case.spec, 40), case.lengths, 12).presentation
        group = build_case_report(case, 40, 12)["universal_group"]
        assert group["relators"] == len(pres.relators)
        gens = pres.generators
        commutators = Presentation(gens, tuple(reduce_word([(a, 1), (b, 1), (a, -1), (b, -1)])
                                               for i, a in enumerate(gens) for b in gens[i + 1:]))
        certified = group["statement"] == f"Z^{len(gens)} certificate"
        assert certified == (name in ("fib", "periodic-ab-2-1"))
        if certified:
            assert group["simplified"] == str(commutators)
            assert certificate_free_abelian(commutators) == len(gens)
        else:
            assert group["simplified"] == str(pres)

    @pytest.mark.parametrize("name", list(reference_cases()))
    def test_harvest_pairs_counted_from_classes(self, name):
        case = reference_cases()[name]
        rep = harvest_equal_length_relations(two_sided_window(case.spec, 40), case.lengths, 12)
        count = build_case_report(case, 40, 12)["harvest_pairs"]
        assert count == sum(len(words) * (len(words) - 1) // 2 for _, words in rep.classes) == len(rep.pairs)

    def test_reports_build_no_pairs(self, monkeypatch):
        # the report and the table suite read the classes: the pair
        # triples are built only for a caller that reads them
        def unread(report):
            raise AssertionError("HarvestReport.pairs read")

        monkeypatch.setattr(HarvestReport, "pairs", property(unread))
        for case in reference_cases().values():
            build_case_report(case, 40, 12)
        assert all(check.passed for check in cli.suite_table())

    def test_splice_flag_present(self):
        rep = build_case_report(reference_cases()["splice-irrational"], 20, 10)
        assert rep["difference_group"]["table_discrepancy"] is True
        assert rep["table"] == {"universal_group": "FG_2", "difference_group": "Z"}


class _NoSeparatorScan(EmpireScan):
    """A scan that finds no separating translation: every pair agrees."""

    def compare(self, pat_p, pat_q):
        return None


def _table_with_foreign_value(ps, bound):
    # one product moved outside the difference set
    table = patterns.maxset_table(ps, bound)
    key = next(iter(table))
    table[key] += 1000
    return table


def _grade_undefined_at_shift(r, s, x):
    if x == s:
        raise ValueError(f"{x}/{s} is not within 1/4 of an integer")
    return modelset.obstruction_grade(r, s, x)


def _chain_does_not_compose(parts, lang):
    raise ValueError("chain does not compose")


# (suite, check name prefix, name in cli, replacement that breaks the law);
# the undefined grade, the foreign table value and the chain that does not
# compose once escaped as "error:" and exit 2
BROKEN_LAWS = [
    pytest.param("semigroup-axioms", "pattern classes: x x^-1 x = x", "inverse", lambda x: x, id="inverse"),
    pytest.param("semigroup-axioms", "pattern classes: pointed difference vanishes exactly on idempotents",
                 "is_idempotent", lambda x: not patterns.is_idempotent(x), id="idempotent"),
    pytest.param("semigroup-axioms", "pattern classes: unique maximal element",
                 "natural_leq", lambda x, y: False, id="natural-leq"),
    pytest.param("semigroup-axioms", "pattern classes: idempotents commute",
                 "multiply", lambda x, y, ps: patterns.multiply(x, x, ps), id="commute"),
    pytest.param("semigroup-axioms", "pattern classes: pointed difference is a morphism", "pointed_difference",
                 lambda x: patterns.pointed_difference(x) * patterns.pointed_difference(x), id="morphism"),
    pytest.param("semigroup-axioms", "maximal classes intertwine", "max_above", lambda x: x, id="intertwine"),
    pytest.param("semigroup-axioms", "maximal classes intertwine",
                 "maxset_table", _table_with_foreign_value, id="intertwine-foreign-value"),
    pytest.param("semigroup-axioms", "language semigroup: p p^-1 p = p",
                 "accent_multiply", lambda p, q, lang: None, id="accent-law"),
    pytest.param("semigroup-axioms", "language semigroup: idempotents commute",
                 "accent_is_idempotent", lambda p: True, id="accent-commute"),
    pytest.param("empire", "empire: every unequal pair exhibits a separating translation",
                 "EmpireScan", _NoSeparatorScan, id="no-separator"),
    pytest.param("empire", "empire: every unequal pair exhibits a separating translation",
                 "_holds", lambda w, a, b, d: True, id="separator-misses"),
    pytest.param("obstruction", "grade well-defined",
                 "obstruction_grade", _grade_undefined_at_shift, id="grade-undefined"),
    pytest.param("language-free", "decompose/compose round-trip",
                 "compose_chain", lambda parts, lang: parts[0], id="round-trip"),
    pytest.param("language-free", "decompose/compose round-trip",
                 "compose_chain", _chain_does_not_compose, id="round-trip-no-chain"),
]


class TestVerify:
    @pytest.mark.parametrize("suite, check, name, broken", BROKEN_LAWS)
    def test_broken_law_is_a_failed_check(self, suite, check, name, broken, monkeypatch, capsys):
        monkeypatch.setattr(cli, name, broken)
        rc = main(["verify", "--suite", suite])
        out = capsys.readouterr()
        assert rc == 1
        assert any(line.startswith(f"[FAIL] {suite}: {check}") for line in out.out.splitlines())
        assert "error:" not in out.err

    def test_obstruction_grades_each_element_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "obstruction_grade",
                            lambda r, s, x: calls.append(x) or modelset.obstruction_grade(r, s, x))
        assert all(c.passed for c in cli.suite_obstruction())
        assert len(calls) == len(set(calls)) == 9

    def test_single_suite_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--suite", "partial-action", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("[PASS]") for line in lines)
        assert not any(line.startswith("[FAIL]") for line in lines)
        data = json.loads(out.read_text())
        assert data["failed"] == 0

    @pytest.mark.parametrize("name", list(cli.SUITES))
    def test_every_suite_passes_at_its_defaults(self, name, capsys):
        # each suite runs here, not only under verify --suite all
        rc = main(["verify", "--suite", name])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert any(line.startswith("[PASS]") for line in lines)
        assert not any(line.startswith("[FAIL]") for line in lines)

    def test_modelset_vs_substitution_at_radius_100(self, capsys):
        # the substitution chain is built out to the radius
        rc = main(["verify", "--suite", "modelset-vs-substitution", "--radius", "100"])
        assert rc == 0
        assert "(145 model-set points vs 145 substitution points)" in capsys.readouterr().out

    def test_modelset_vs_substitution_names_first_difference(self, capsys):
        # past the slack of the reference scheme's rational window
        rc = main(["verify", "--suite", "modelset-vs-substitution", "--radius", "150"])
        assert rc == 1
        assert "first difference 61+27*sqrt(5) vs 121/2+55/2*sqrt(5)" in capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the rational window of `fibonacci_scheme()`")
    def test_modelset_vs_substitution_at_radius_150(self):
        # the model set equals the chain at every radius; mending the
        # reference scheme makes this pass, and the marker must go with it
        assert all(check.passed for check in cli.suite_modelset_vs_substitution(radius=150))

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 5: no separator in the box is not a global negative")
    def test_empire_without_separator_in_box(self):
        # the window test calls the pair unequal and the 1 x 1 box holds no
        # separator: "no witness in this window", which is never a FAIL;
        # item 1's third state or item 5's decided box makes this pass,
        # and the marker must go with it
        assert all(check.passed for check in cli.suite_empire(1, 0, 0))

    def test_empire_suite_seeded(self, capsys):
        rc = main(["verify", "--suite", "empire", "--pairs", "30", "--seed", "7"])
        assert rc == 0

    @pytest.mark.parametrize("option", [["--box-bound", "-1"], ["--pairs", "0"]])
    def test_empire_rejects_invalid_input(self, option, capsys):
        # neither an empty box nor zero pairs can certify anything
        rc = main(["verify", "--suite", "empire", *option])
        assert rc == 2
        out = capsys.readouterr()
        assert "error:" in out.err and "[PASS]" not in out.out

    def test_empire_mismatch_detail_prints_points(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.EmpireScan, "compare", lambda *args: None)
        rc = main(["verify", "--suite", "empire", "--pairs", "5"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "mismatches: [" in out and "QuadraticRational" not in out

    def test_options_reach_their_suites(self, monkeypatch):
        seen = {}

        def recorder(name, suite):
            def record(**kwargs):
                inspect.signature(suite).bind(**kwargs)  # the real suite takes them
                seen[name] = kwargs
                return []
            return record

        for name, (suite, options) in list(cli.SUITES.items()):
            monkeypatch.setitem(cli.SUITES, name, (recorder(name, suite), options))
        rc = main(["verify", "--seed", "11", "--pairs", "12", "--box-bound", "13",
                   "--radius", "14", "--coeff-bound", "15"])
        assert rc == 0
        assert seen == {
            "semigroup-axioms": {"seed": 11},
            "empire": {"pairs": 12, "seed": 11, "box_bound": 13},
            "modelset-vs-substitution": {"radius": 14},
            "partial-action": {},
            "obstruction": {"coeff_bound": 15},
            "language-free": {},
            "table": {},
        }

    def test_left_out_option_reaches_no_suite(self, monkeypatch):
        # verify's suite options are the suites' parameters, each with a default
        verify = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
        options = {action.dest for action in verify._actions} - {"help", "suite", "out"}
        assert options == {option for _, suite_options in cli.SUITES.values() for option in suite_options}
        for suite, _ in cli.SUITES.values():
            for parameter in inspect.signature(suite).parameters.values():
                assert parameter.default is not inspect.Parameter.empty, parameter

        # the suite keeps its own default for every option not given
        seen = {}

        def record(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setitem(cli.SUITES, "empire", (record, cli.SUITES["empire"][1]))
        assert main(["verify", "--suite", "empire", "--seed", "3"]) == 0
        assert seen == {"seed": 3}

    @pytest.mark.parametrize("argv, ignored", [
        (["--suite", "table", "--radius", "5"], "--suite table does not take --radius"),
        (["--suite", "partial-action", "--seed", "1"], "--suite partial-action does not take --seed"),
        (["--suite", "empire", "--seed", "1", "--radius", "5", "--coeff-bound", "2"],
         "--suite empire does not take --radius, --coeff-bound"),
    ], ids=["table-radius", "partial-action-seed", "empire-radius-coeff-bound"])
    def test_options_the_suite_ignores_rejected(self, argv, ignored, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["verify", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {ignored}"]
        assert not out.exists()

    def test_suites_take_exactly_their_options(self):
        # every suite parameter is a verify option, so no setting is left
        # that only a library caller could vary; SUITES reads them from the
        # code object, which gives the parameters while all of them are
        # positional-or-keyword
        for name, (suite, options) in cli.SUITES.items():
            assert tuple(inspect.signature(suite).parameters) == options, name
        assert {name: options for name, (_, options) in cli.SUITES.items()} == {
            "semigroup-axioms": ("seed",),
            "empire": ("pairs", "seed", "box_bound"),
            "modelset-vs-substitution": ("radius",),
            "partial-action": (),
            "obstruction": ("coeff_bound",),
            "language-free": (),
            "table": (),
        }

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            main(["present", "--case", "nonesuch"])
