"""The rules every JSON reader shares: the fields of an object and exact rationals.

JSON booleans are not numbers here, although Python's `bool` is an `int`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError


def fields(obj, what: str, ints: tuple[str, ...], items: str) -> list:
    """The values of the integer fields `ints` and the list field `items` of a JSON object.

    Raises FormatError unless `obj` is an object holding every field, each
    integer field a non-boolean int and the list field a list.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{what} JSON must be an object")
    for key in (*ints, items):
        if key not in obj:
            raise FormatError(f"{what} JSON missing field {key!r}")
    for key in ints:
        if type(obj[key]) is not int:
            raise FormatError(f"{what} JSON field {key!r} must be an integer")
    if not isinstance(obj[items], list):
        raise FormatError(f"{what} JSON field {items!r} must be a list")
    return [obj[key] for key in (*ints, items)]


def rational(x) -> Fraction:
    """A JSON number or "p/q" string as a Fraction."""
    if isinstance(x, bool):
        raise FormatError(f"boolean {x!r} is not a rational")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise FormatError(f"bad rational: {exc}") from exc
