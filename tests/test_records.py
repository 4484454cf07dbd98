"""Record classes against the frozen dataclasses they replace.

Every class decorated with `@record` in the package is compared with a
reference built by `dataclasses.make_dataclass` from the fields and
defaults its class body declares, read from the source: field order and
`__match_args__`, defaults, repr, equality and hashing, and that
assigning or deleting a field raises.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

from minihott import terms as t
from minihott import values as v
from minihott.globals import Globals
from minihott.oracle import FinBij, FinSet
from minihott.parser import Module
from minihott.pipeline import CheckReport

MODULES = ("terms", "values", "parser", "diagnostics", "globals", "checker", "oracle")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minihott"


def declared_classes():
    """(module, class name, is a record, [(field, default expression or
    None)]) for every class of MODULES, as its source declares it."""
    out = []
    for name in MODULES:
        module = importlib.import_module(f"minihott.{name}")
        for node in ast.parse((SRC / f"{name}.py").read_text()).body:
            if isinstance(node, ast.ClassDef):
                is_record = any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)
                fields = [(s.target.id, s.value) for s in node.body if isinstance(s, ast.AnnAssign)]
                out.append((module, node.name, is_record, fields))
    return out


CLASSES = declared_classes()
RECORDS = [(module, name, fields) for module, name, is_record, fields in CLASSES if is_record]


def reference(module, name, fields):
    """The class as `@dataclass(frozen=True, slots=True)` would build it."""
    spec = []
    for field, default in fields:
        if default is None:
            spec.append((field, object))
        else:
            value = eval(compile(ast.Expression(default), module.__file__, "eval"), vars(module))
            spec.append((field, object, dataclasses.field(default=value)))
    cls = getattr(module, name)
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(name, spec, namespace=namespace, frozen=True, slots=True)


def samples(cls, shift: int) -> tuple:
    """Field values that pass the class's own validation; `shift` moves
    every value, so different shifts give unequal instances."""
    if cls is FinSet:
        return (2 + shift, f"s{shift}")
    if cls is FinBij:
        size = 2 + shift
        return (FinSet(size), FinSet(size), tuple(reversed(range(size))))
    return tuple((field, shift) for field in cls.__match_args__)


def parameters(cls) -> list:
    return [(p.name, p.default, p.kind) for p in inspect.signature(cls).parameters.values()]


def test_every_class_that_declares_fields_is_a_record():
    # The mutable classes are plain slotted classes that declare no fields
    # in the class body.
    assert [name for _, name, is_record, fields in CLASSES if fields and not is_record] == []
    names = {name for _, name, _ in RECORDS}
    assert {"Var", "Ann", "Univ", "VNeutral", "Closure", "SVar", "Span", "Declaration"} <= names
    assert {"Config", "GlobalEntry", "Context", "FinSet", "FinBij"} <= names
    assert len(RECORDS) >= 47


@pytest.mark.parametrize("module,name,fields", RECORDS, ids=[name for _, name, _ in RECORDS])
def test_record_matches_frozen_dataclass(module, name, fields):
    cls, ref = getattr(module, name), reference(module, name, fields)
    assert cls.__match_args__ == ref.__match_args__ == tuple(f for f, _ in fields)
    assert cls.__slots__ == ref.__slots__
    assert parameters(cls) == parameters(ref)
    if any(default is not None for _, default in fields):
        required = [f for f, default in fields if default is None]
        args = samples(cls, 0)[: len(required)]
        assert repr(cls(*args)) == repr(ref(*args))
        assert cls(*args) == cls(*args) and hash(cls(*args)) == hash(ref(*args))

    a, b = samples(cls, 0), samples(cls, 0)
    new_a, new_b, ref_a = cls(*a), cls(*b), ref(*a)
    assert repr(new_a) == repr(ref_a)
    assert new_a == new_b and not new_a != new_b
    assert hash(new_a) == hash(new_b) == hash(ref_a)
    # Change one field at a time; a bijection changes all three at once,
    # since one endpoint of another size is no bijection.
    others = [samples(cls, 1)] if cls is FinBij else [
        a[:i] + samples(cls, 1)[i : i + 1] + a[i + 1 :] for i in range(len(fields))
    ]
    for c in others:
        new_c, ref_c = cls(*c), ref(*c)
        assert (new_a == new_c, new_a != new_c) == (ref_a == ref_c, ref_a != ref_c) == (False, True)
        assert hash(new_c) == hash(ref_c)

    for field, _ in fields:
        before = getattr(new_a, field)
        with pytest.raises(AttributeError):
            setattr(new_a, field, None)
        with pytest.raises(AttributeError):
            delattr(new_a, field)
        assert getattr(new_a, field) is before
    with pytest.raises(AttributeError):
        new_a.not_a_field = 1


def test_records_of_different_classes_are_unequal():
    assert t.Nat() != t.Unit() and not t.Nat() == t.Unit()
    assert v.VVar(0) != v.VAxiom("x")
    assert t.Var(0) != v.VVar(0) and t.Suc(0) != v.VSuc(0)
    nullary = [getattr(module, name)() for module, name, fields in RECORDS if not fields]
    assert len(nullary) >= 8
    assert all((x == y) == (x is y) for x in nullary for y in nullary)
    assert len(set(nullary)) == len(nullary)


def test_oracle_records_keep_their_validation():
    with pytest.raises(ValueError):
        FinSet(-1)
    with pytest.raises(ValueError):
        FinBij(FinSet(2), FinSet(2), (0, 0))
    with pytest.raises(ValueError):
        FinBij(FinSet(2), FinSet(3), (0, 1))


def test_glued_values_compare_by_identity():
    a = v.VGlued("d", (), None, None, t.Nat())
    b = v.VGlued("d", (), None, None, t.Nat())
    assert a == a and a != b and len({a, b}) == 2
    assert hash(a) == object.__hash__(a)
    a.unfolded = t.Zero()  # the cached unfolding is the one writable slot
    assert a.unfolded == t.Zero()


def test_mutable_containers_are_not_shared():
    assert CheckReport().declarations is not CheckReport().declarations
    assert Module().decls is not Module().decls
    assert Globals().entries is not Globals().entries
    assert Globals().config == Globals().config
