"""The value records: equality, hashing, immutability and repr of every
class that derives from the record base, the base's binding of arguments
to fields, and an import that leaves ``dataclasses`` out."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tilegroups
from tilegroups._record import Record
from tilegroups.cli import CaseConfig, Check
from tilegroups.exactnum import QuadraticRational as QR, golden_ratio
from tilegroups.modelset import (
    LatticeVector,
    WindowSet,
    WindowTriple,
    fibonacci_scheme,
    partial_action_data,
)
from tilegroups.patterns import PatternClass, ProductResult
from tilegroups.pointset import DiffElement, LengthFunction
from tilegroups.presentation import FreeWord, Presentation
from tilegroups.sequences import IndexedWord, SequenceSpec, factor_language
from tilegroups.universal import AccentString, harvest_equal_length_relations

TAU = golden_ratio()


def _fib_spec():
    return SequenceSpec("substitution", rule={"a": "ab", "b": "a"}, seed="a")


def _lengths():
    return LengthFunction({"a": TAU, "b": QR(1)})


# each class: a function that builds one record afresh, and whether its
# fields hash (a read-only mapping field does not)
RECORDS = {
    "IndexedWord": (lambda: IndexedWord(-2, "abaab"), True),
    "SequenceSpec": (_fib_spec, False),
    "FactorLanguage": (lambda: factor_language(IndexedWord(0, "abaab"), 3), True),
    "LengthFunction": (_lengths, False),
    "DiffElement": (lambda: DiffElement(QR(1), ((1, 0),)), True),
    "PatternClass": (lambda: PatternClass((QR(0), TAU), 0, 1), True),
    "ProductResult": (lambda: ProductResult("defined", PatternClass((QR(0), TAU), 1, 0)), True),
    "WindowSet": (lambda: WindowSet.interval(QR(0), TAU), True),
    "LatticeVector": (lambda: LatticeVector(TAU, QR(1) - TAU), True),
    "CutProjectScheme": (fibonacci_scheme, True),
    "WindowTriple": (lambda: WindowTriple(QR(1), WindowSet.interval(QR(0), QR(1))), True),
    "PartialActionData": (lambda: partial_action_data((QR(1), TAU), WindowSet.interval(QR(0), QR(1)), 1), True),
    "FreeWord": (lambda: FreeWord((("a", 1), ("b", -1))), True),
    "Presentation": (lambda: Presentation(("a", "b"), (FreeWord((("a", 1), ("b", -1))),)), True),
    "HarvestReport": (lambda: harvest_equal_length_relations(IndexedWord(0, "abaababaab"), _lengths(), 3), True),
    "AccentString": (lambda: AccentString("aba", 0, 2), True),
    "CaseConfig": (lambda: CaseConfig("fib", _fib_spec(), _lengths(), "Z^2", "Z^2"), False),
    "Check": (lambda: Check("identity composes both sides", True, "14 decided"), True),
}


def _twin(record: Record) -> Record:
    """A record of another class with the same field names and values."""
    twin = object.__new__(type("Twin", (Record,), {"__annotations__": dict.fromkeys(record._fields, "object")}))
    twin.__dict__.update(record.__dict__)
    return twin


def test_every_record_class_is_listed():
    assert sorted(cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("tilegroups")) \
        == sorted(RECORDS)


@pytest.mark.parametrize("cls_name", RECORDS)
def test_record(cls_name):
    make, hashable = RECORDS[cls_name]
    a, b = make(), make()
    fields = type(a)._fields
    values = tuple(getattr(a, name) for name in fields)
    assert type(a).__name__ == cls_name and fields
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(a)
    # equal values under another class, or as a tuple, are not the record
    assert a != _twin(a) and _twin(a) != a and a != values and values != a
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert repr(a) == f"{cls_name}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields, values)) + ")"


def test_import_leaves_dataclasses_out():
    # generating a dataclass's methods compiles their source at import
    code = "import sys, tilegroups.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(tilegroups.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestBinder:
    """The base's ``__init__``: positional, then keyword, arguments bound to
    the annotated fields in order, a field's class attribute its default."""

    def test_positional_keyword_and_default(self):
        full = Check("identity", False, "2 decided")
        assert (full.name, full.passed, full.detail) == ("identity", False, "2 decided")
        assert Check(name="identity", passed=False, detail="2 decided") == full
        assert Check("identity", detail="2 decided", passed=False) == full
        assert Check("identity", False).detail == Check(passed=False, name="identity").detail == ""
        assert ProductResult("unknown").value is None
        assert ProductResult("unknown", value=None) == ProductResult("unknown")

    def test_defaults_are_the_class_attributes(self):
        assert Check._defaults == {"detail": ""}
        assert ProductResult._defaults == {"value": None}
        assert IndexedWord._defaults == {}

    @pytest.mark.parametrize("args, kwargs, message", [
        (("identity", True, "", 4), {}, r"Check\(\) takes 3 values but 4 were given"),
        (("identity", True), {"colour": 1}, r"Check\(\) got an unexpected keyword 'colour'"),
        (("identity", True), {"name": "inverse"}, r"Check\(\) got 'name' twice"),
        (("identity",), {"detail": ""}, r"Check\(\) is missing the field 'passed'"),
        ((), {}, r"Check\(\) is missing the field 'name'"),
    ], ids=["too-many", "unknown-keyword", "repeated-keyword", "missing", "none"])
    def test_bad_arguments_name_the_class(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Check(*args, **kwargs)

    def test_own_init_only_where_fields_are_checked_or_derived(self):
        # an __init__ whose body only stores its arguments restates the
        # annotations: the base binds them
        for cls in Record.__subclasses__():
            init = cls.__dict__.get("__init__")
            if init is None:
                continue
            body = ast.parse(textwrap.dedent(inspect.getsource(init))).body[0].body
            assert len(body) > 1, cls.__name__
