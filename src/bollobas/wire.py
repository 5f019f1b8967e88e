"""The rules every JSON reader shares: the one decode, the fields of an object and exact rationals.

JSON booleans are not numbers here, although Python's `bool` is an `int`.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import FormatError

#: The largest decimal exponent a rational string may carry.  `Fraction`
#: computes 10**exponent before anything else can look at it, so "1e100000000"
#: would take minutes; an integer literal or a p/q string is already refused
#: past the same count of digits.
MAX_EXPONENT = sys.int_info.default_max_str_digits
#: The exponent of a decimal string as `Fraction` reads it: either case of e,
#: a sign, and digits with single underscores between them, at the end.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def decode(text: str, parse_int=None) -> object:
    """The JSON document of `text`, with integer literals read by `parse_int` if given."""
    try:
        return json.loads(text, parse_int=parse_int)
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past the digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc


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
    """A JSON number or "p/q" string as a Fraction.

    A string whose decimal exponent lies beyond +-MAX_EXPONENT is refused
    before `Fraction` sees it.
    """
    if isinstance(x, bool):
        raise FormatError(f"boolean {x!r} is not a rational")
    exponent = _EXPONENT.search(x) if isinstance(x, str) else None
    try:
        if exponent and int(exponent[1]) > MAX_EXPONENT:
            raise FormatError(f"bad rational: decimal exponent beyond {MAX_EXPONENT}")
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise FormatError(f"bad rational: {exc}") from exc
