"""Exception types shared across the package."""


class ArczetaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ArczetaError, ValueError):
    """Malformed textual input: polynomial strings, germs, JSON files."""


class UnsupportedComputationError(ArczetaError):
    """The request is well-formed but outside the supported regime.

    Raised instead of guessing: an unsupported request never produces a
    wrong answer.
    """


class RingBoundError(UnsupportedComputationError):
    """A Laurent polynomial would leave the supported exponent range or span.

    Both bounds are checked before any coefficient storage is allocated.
    """


class ClassifyError(ArczetaError):
    """Exponent recovery failed (typically: truncation order too small)."""


def loads(text: str, what: str):
    """Decode a JSON document; malformed or too deeply nested text is an
    InputError whose message starts with ``what``."""
    import json  # loaded only by the commands that read JSON

    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def json_int(value, field: str) -> int:
    """A JSON integer; a bool or a float is an InputError naming the field.
    A string still goes through ``int()``."""
    if isinstance(value, (bool, float)):
        raise InputError(f"{field} must be an integer, not {value!r}")
    return int(value)
