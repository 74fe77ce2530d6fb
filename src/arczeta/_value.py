"""Frozen value classes without the standard dataclass module.

``@frozen`` reads the fields from a class body's annotations, in order, and
installs what ``@dataclass(frozen=True)`` would: an ``__init__`` taking the
fields positionally or by keyword (a class attribute is a field's default)
that calls ``__post_init__`` when the class has one, field-wise ``__eq__`` on
the exact same class, the matching ``__hash__``, ``Name(a=1, b=2)`` reprs,
and assignment and deletion that raise :class:`FrozenInstanceError`.  The methods are closures over the field
names, so decorating generates no source.  The dataclass module imports
``inspect`` and compiles every method it writes, which each short CLI call
would pay for at start-up.
"""


from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a frozen value."""


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if not names:
        # also where a class body keeps its annotations lazily (PEP 649)
        # rather than in __dict__; its module needs
        # ``from __future__ import annotations``
        raise TypeError(f"{cls.__name__}: no annotated fields in the class body")
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    if any(n in defaults for n in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    post_init = getattr(cls, "__post_init__", None)
    where = f"{cls.__qualname__}.__init__()"
    # fields are set one by one through object.__setattr__, never through
    # self.__dict__, which would cost every later attribute read its fast path
    setattr_ = object.__setattr__
    fields = attrgetter(*names)

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} arguments, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{where} missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{where} got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
