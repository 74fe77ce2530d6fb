"""The frozen value decorator behaves like ``dataclass(frozen=True)``.

The same class body is decorated both ways and every behaviour the package
relies on is compared: construction, defaults, ``__post_init__``, equality
and hashing, repr and the frozen error.
"""

from __future__ import annotations

import dataclasses

import pytest

from arczeta._value import FrozenInstanceError, frozen


def sample(decorate):
    class Sample:
        a: int
        b: tuple = ()
        c: str = "c"

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a must be nonnegative")
            # normalizing a field after construction, as DiagonalGerm does
            object.__setattr__(self, "b", tuple(sorted(self.b)))

    return decorate(Sample)


Ours = sample(frozen)
Theirs = sample(dataclasses.dataclass(frozen=True))

CALLS = [
    ((1,), {}),
    ((1, (3, 2)), {}),
    ((1, (3, 2), "x"), {}),
    ((), {"a": 2}),
    ((2,), {"c": "z"}),
    ((), {"c": "z", "b": (5, 4), "a": 0}),
]


def fields(value):
    return value.a, value.b, value.c


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_construction_defaults_and_post_init(args, kwargs):
    ours, theirs = Ours(*args, **kwargs), Theirs(*args, **kwargs)
    assert fields(ours) == fields(theirs)
    assert repr(ours) == repr(theirs)
    assert hash(ours) == hash(theirs)


def test_repr_names_the_class_and_fields():
    assert repr(Ours(1, (2,), "x")) == repr(Theirs(1, (2,), "x"))
    assert repr(Ours(1)).endswith("Sample(a=1, b=(), c='c')")


def test_equality_needs_the_same_class_and_equal_fields():
    assert Ours(1, (3, 2)) == Ours(1, (2, 3))
    assert Ours(1) != Ours(2)
    assert Ours(1) != Theirs(1) and Theirs(1) != Ours(1)
    assert Ours(1) != sample(frozen)(1)  # same body, another class
    assert Ours(1).__eq__((1, (), "c")) is NotImplemented
    assert Theirs(1).__eq__((1, (), "c")) is NotImplemented
    assert len({Ours(1), Ours(1, ()), Ours(a=1)}) == 1


@pytest.mark.parametrize("cls", [Ours, Theirs], ids=["frozen", "dataclass"])
def test_assignment_and_deletion_raise_attribute_errors(cls):
    value = cls(1)
    with pytest.raises(AttributeError):
        value.a = 2
    with pytest.raises(AttributeError):
        value.new = 2
    with pytest.raises(AttributeError):
        del value.a
    assert fields(value) == (1, (), "c")


def test_frozen_error_type():
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'a'"):
        Ours(1).a = 2
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'a'"):
        del Ours(1).a


@pytest.mark.parametrize("cls", [Ours, Theirs], ids=["frozen", "dataclass"])
@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # a is required
    ((1, 2, 3, 4), {}),  # too many positional arguments
    ((1,), {"a": 1}),  # a given twice
    ((1,), {"d": 1}),  # no such field
])
def test_bad_calls_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


@pytest.mark.parametrize("cls", [Ours, Theirs], ids=["frozen", "dataclass"])
def test_post_init_runs_after_the_fields_are_set(cls):
    with pytest.raises(ValueError, match="a must be nonnegative"):
        cls(-1)


def test_a_field_without_default_after_one_with_is_refused():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(TypeError):
        frozen(Bad)


def test_a_class_without_fields_is_refused():
    class Empty:
        pass

    with pytest.raises(TypeError, match="no annotated fields"):
        frozen(Empty)
