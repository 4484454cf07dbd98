"""Immutable slotted record classes, the node type of every syntax tree,
value and diagnostic.

`@record` turns a class whose body annotates its fields into a class
with `__slots__` and `__match_args__` in field order, an `__init__` with
the declared defaults (calling `__post_init__` if the class has one), a
`Name(field=value, ...)` repr, and field-wise `==` and `hash` that hold
only between instances of the same class; the hash is that of the tuple
of fields.  Instances are frozen: assigning or deleting an attribute
raises `AttributeError`.

This is the part of `@dataclass(frozen=True, slots=True)` the package
uses.  `dataclasses` compiles every method of every class from source
text and imports `inspect`, which made up two thirds of the start-up of
each command.  Here only `__init__` is compiled, once for each number of
fields, and each class gets a copy with its own argument names.  It
writes the fields through the slots' own descriptors, which bypass the
frozen `__setattr__` at less cost than `object.__setattr__`.
"""

from operator import attrgetter
from types import CodeType, FunctionType


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__qualname__}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__qualname__}")


# The code of `__init__` by number of fields and whether it calls `__post_init__`.
_INIT_CODES: dict[tuple[int, bool], CodeType] = {}


def record(cls: type) -> type:
    body = dict(cls.__dict__)
    names = tuple(body.get("__annotations__", ()))
    has_default = [name in body for name in names]
    if has_default != sorted(has_default):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    defaults = tuple(body.pop(name) for name in names if name in body)
    for name in ("__dict__", "__weakref__"):
        body.pop(name, None)
    key = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    # The hash of the field tuple, as a dataclass's; for one field the
    # getter returns the bare value.
    if len(names) == 1:

        def __hash__(self):
            return hash((key(self),))

    else:

        def __hash__(self):
            return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    body.update(
        __slots__=names,
        __match_args__=names,
        __eq__=__eq__,
        __hash__=__hash__,
        __repr__=__repr__,
        __setattr__=_frozen_setattr,
        __delattr__=_frozen_delattr,
    )
    new = type(cls)(cls.__name__, cls.__bases__, body)
    new.__qualname__ = cls.__qualname__

    # The class's copy of the `__init__(self, a0, ...)` compiled once per
    # arity: its arguments take the field names, so keywords work, and
    # `s<i>` is the `__set__` of the i-th field's slot descriptor.
    count, post_init = len(names), hasattr(new, "__post_init__")
    code = _INIT_CODES.get((count, post_init))
    if code is None:
        lines = [f"s{i}(self, a{i})" for i in range(count)] + ["self.__post_init__()"] * post_init
        head = f"def __init__(self{''.join(f', a{i}' for i in range(count))}):"
        module = compile("\n    ".join([head, *(lines or ["pass"])]), "<record>", "exec")
        code = _INIT_CODES[count, post_init] = module.co_consts[0]
    setters = {f"s{i}": getattr(new, name).__set__ for i, name in enumerate(names)}
    new.__init__ = FunctionType(code.replace(co_varnames=("self", *names)), setters, "__init__", defaults or None)
    return new
