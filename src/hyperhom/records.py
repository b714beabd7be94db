"""Value records: the part of `dataclasses` this package uses, built without it.

Every request to the CLI starts a fresh interpreter, so import time is
paid once per answer. On Python 3.11.7 (2 CPUs), `import dataclasses`
took 11.9 ms, because it pulls in `inspect`, and decorating the 20 value
classes took another 22.1 ms (about 1.1 ms each), because `dataclass`
compiles every generated method with `exec`. Together that was about a
quarter of the 0.13 s from a fresh interpreter to the first answer of a
tiny `homology` request. `record` builds the same methods as closures
over the field names, with no code generation.

`@record` gives what `@dataclass(frozen=True)` gave: the fields are the
class's own annotations, in order, and a class attribute of the same
name is the field's default. The record has

* a constructor taking the fields positionally or by keyword, which calls
  `__post_init__` when the class defines one;
* `==` on the field values, for two records of the same class only;
* a hash of the tuple of field values (the same number a dataclass
  gives), which raises `TypeError` when a field is unhashable;
* the dataclass `repr`;
* `FrozenRecordError`, an `AttributeError`, on assignment or deletion.
  Set-up code writes with `object.__setattr__`, as with dataclasses.

The generated constructor loops over the fields, which costs about
0.4 us per instance more than the straight-line one `dataclass` wrote. A
class built thousands of times per request (`SparseMatrix`, say) writes
its own `__init__` instead: it sets each field in order with
`object.__setattr__` and then calls `__post_init__`, if the class has one.
`record` keeps a class's own `__init__`, `__repr__` and `__eq__`.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An attempt to assign to or delete a field of a frozen record."""


def record(cls):
    """Class decorator; see the module docstring."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)
    post_init = getattr(cls, "__post_init__", None)
    count = len(names)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    for name, method in (("__init__", __init__), ("__eq__", __eq__), ("__repr__", __repr__)):
        if name not in cls.__dict__:
            setattr(cls, name, method)

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    cls.__hash__ = __hash__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


def _bind(qualname: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """Field values in order from positional and keyword arguments, with
    the defaults filling the rest; TypeError as a Python call would raise."""
    if len(args) > len(names):
        raise TypeError(
            f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
    for name in names[: len(args)]:
        if name in kwargs:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
    out = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            out.append(kwargs.pop(name))
        elif name in defaults:
            out.append(defaults[name])
        else:
            raise TypeError(f"{qualname}() missing required argument {name!r}")
    if kwargs:
        raise TypeError(f"{qualname}() got an unexpected keyword argument {next(iter(kwargs))!r}")
    return out
