"""The report writer, `cli._report_text`, against `json.dumps(indent=2, sort_keys=True)`.

The writer must give exactly the stdlib's bytes on every value a report can
hold, and the same errors: an int or Fraction past the digit limit of
int-to-str conversion exits 2 with the same message, and any other type
raises TypeError.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import cli, sums
from bollobas.cli import _exact, _report_text, main
from bollobas.errors import SizeError


def _stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=_exact)


def _stdlib_error(value) -> str:
    """The error line `main` printed when `json.dumps` could not write `value`."""
    try:
        _stdlib(value)
    except ValueError as exc:  # an int past the digit limit
        return f"error: {cli._too_large(exc)}\n"
    except SizeError as exc:  # `_exact` of a Fraction past it
        return f"error: {exc}\n"
    raise AssertionError("json.dumps wrote the value")


# Strings that need escapes: quotes, backslashes, control and non-ASCII
# characters, a character past the BMP and the JSON-unsafe line separators.
_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", " ", "\U0001f600", "/"])
_TEXT = st.text(st.one_of(st.characters(exclude_categories=("Cs",)), _TRICKY), max_size=5)
_FRACTIONS = st.fractions(max_denominator=10**6).map(lambda x: x * 10**6)
_LEAVES = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(), _FRACTIONS)


def _rows(leaf):
    """Lists and tuples of one kind of leaf, and lists of them: the lists a join writes."""
    flat = st.lists(leaf, max_size=5)
    flat = flat | flat.map(tuple)
    return flat | st.lists(flat, max_size=4) | st.lists(flat, max_size=4).map(tuple)


_HOMOGENEOUS = st.one_of(*(_rows(leaf) for leaf in (st.integers(), _TEXT, _FRACTIONS, st.booleans())))
_VALUES = st.recursive(
    st.one_of(_LEAVES, _HOMOGENEOUS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_TEXT, _VALUES, max_size=4))
def test_writer_gives_the_bytes_of_json_dumps(report):
    assert _report_text(report) == _stdlib(report)


@pytest.mark.parametrize(
    "value",
    [
        {},
        {"a": [], "b": {}, "c": (), "d": [[]], "e": [[], []], "f": [{}], "g": [[{}]]},
        {"parts": [[1], [], [2, 3]], "tuple": ((1,), (2, 3)), "deep": [[[[1]]]]},
        {"rows": [[Fraction(1, 2), Fraction(-3)], [Fraction(0)]], "row": [Fraction(7, 9)]},
        {"mixed": [1, "a", None, True, Fraction(1, 2), [1, True], ["a", 1], {"k": (1, "b")}]},
        {"bools": [True, False], "nested bools": [[True], [False, True]], "ints": [-1, 0, 10**40]},
        {"é\"\\\n": [" ", "\x00"], "": [[""], ["\U0001f600"]], "z": "a"},
    ],
    ids=["empty", "empty containers", "int lists", "fraction rows", "mixed", "bools", "escapes"],
)
def test_writer_on_report_shapes(value):
    assert _report_text(value) == _stdlib(value)


_PAST_LIMIT = 10 ** sys.get_int_max_str_digits()  # one digit past the limit


@pytest.mark.parametrize(
    "bound",
    [_PAST_LIMIT, -_PAST_LIMIT, Fraction(_PAST_LIMIT, 3), Fraction(1, _PAST_LIMIT)],
    ids=["int", "negative int", "fraction numerator", "fraction denominator"],
)
def test_a_number_past_the_digit_limit_exits_2_as_before(capsys, monkeypatch, bound):
    monkeypatch.setattr(sums, "recursive_bound", lambda n, d: bound)
    report = {
        "args": {"d": 3, "n": "1"},
        "command": "bounds",
        "input_digest": None,
        "results": {"d": 3, "rows": [{"bound": bound, "n": 1}]},
        "seed": 0,
    }
    assert main(["bounds", "--n", "1", "--d", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _stdlib_error(report)
    assert err.startswith("error: result too large to print: Exceeds the limit")


@pytest.mark.parametrize(
    "value",
    [
        {"row": [1, 2, _PAST_LIMIT]},
        {"rows": [[1], [_PAST_LIMIT]]},
        {"row": [Fraction(1, 2), Fraction(_PAST_LIMIT, 3)]},
        {"rows": [[Fraction(1, 2)], [Fraction(1, _PAST_LIMIT)]]},
        {"mixed": [1, "a", Fraction(_PAST_LIMIT, 7)]},
    ],
    ids=["int row", "int rows", "fraction row", "fraction rows", "mixed list"],
)
def test_a_number_past_the_digit_limit_anywhere_gives_the_same_error(value):
    with pytest.raises(SizeError) as raised:
        _report_text(value)
    assert f"error: {raised.value}\n" == _stdlib_error(value)


@pytest.mark.parametrize(
    "value",
    [{"x": object()}, {"x": [1, {2}]}, {"x": [[b"bytes"]]}, {"x": [0.5]}, {"x": 1.0}, {"x": {1: 2}}],
    ids=["object", "set", "bytes", "float in a list", "float", "int key"],
)
def test_an_unsupported_value_raises_type_error(value):
    # no report holds a float or a non-str key, so the writer prints neither
    with pytest.raises(TypeError):
        _report_text(value)


@pytest.mark.parametrize("value", [{"x": object()}, {"x": [1, {2}]}, {"x": [[b"bytes"]]}])
def test_an_unsupported_object_gives_the_type_error_of_json_dumps(value):
    with pytest.raises(TypeError) as ours:
        _report_text(value)
    with pytest.raises(TypeError) as stdlib:
        _stdlib(value)
    assert str(ours.value) == str(stdlib.value)
