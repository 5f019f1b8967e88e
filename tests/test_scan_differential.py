"""Differential tests: the bit-sliced crossing rows against the pairwise oracles,
the per-tuple family reader and the coded read of `family_from_text`
against the per-tuple oracle, the coded decode of family documents against
a plain decode read by the per-tuple reader, the packed column transpose and popcount type counts
against their one-at-a-time forms, the level-wise mask enumerator and lowest-set-bit element reader
against the recursive and per-bit ones, the mask sampler of the random
constructions against the DTuple one, the writers that decode each
distinct part mask once against the per-tuple ones, the tuple disjointness
check against the pairwise loop, the family
constructor given masks against the one given validated tuples, and its
whole-family checks against its per-member loop."""

import contextlib
import dataclasses
import inspect
import io
import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    Family,
    bollobas_violation,
    complete_family,
    cross_condition,
    layered_triple_family,
    lift_to_spaces,
    random_bollobas_family,
    random_skew_family,
    relabel,
    skew_violation,
)
from bollobas import cli
from bollobas.constructions import all_tuples_of_type
from bollobas.errors import BollobasError, MismatchError, OverlapError
from bollobas.exterior import SubspaceRep
from bollobas.families import (
    _LITERAL_BIT,
    DTuple,
    _columns,
    _crossing_rows,
    _flat_masks,
    _no_empty_string_or_object,
    elements_of,
    family_from_json,
    family_from_text,
    family_to_json,
    validate_tuple,
)
from bollobas.sums import _type_counts
from bollobas.wire import decode, fields

import scan_oracles


@st.composite
def families(draw):
    """Families with d = 2..5 and n = 1..12: any part may be empty, tuples may repeat."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    # each element goes to one of the d parts, or to none (index d)
    labels = st.lists(st.integers(0, d), min_size=n, max_size=n)
    tuples = []
    for owner in draw(st.lists(labels, max_size=12)):
        masks = [0] * (d + 1)
        for e, part in enumerate(owner):
            masks[part] |= 1 << e
        tuples.append(DTuple(n, tuple(masks[:d])))
    # plant copies of drawn members at drawn positions
    for _ in range(draw(st.integers(0, 2))):
        if tuples:
            t = tuples[draw(st.integers(0, len(tuples) - 1))]
            tuples.insert(draw(st.integers(0, len(tuples))), t)
    return Family(n, d, tuple(tuples))


@settings(max_examples=300, deadline=None)
@given(families())
def test_violations_match_the_pairwise_oracles(f):
    assert bollobas_violation(f) == scan_oracles.bollobas_violation(f)
    assert skew_violation(f) == scan_oracles.skew_violation(f)


@settings(max_examples=200, deadline=None)
@given(families())
def test_row_bits_are_the_cross_condition(f):
    ts = f.tuples
    succ = list(_crossing_rows([t.masks for t in ts], f.n, f.d))
    pred = list(_crossing_rows([t.masks[::-1] for t in ts], f.n, f.d))
    assert len(succ) == len(pred) == len(ts)
    for i, s in enumerate(ts):
        assert succ[i] >> len(ts) == pred[i] >> len(ts) == 0
        for j, t in enumerate(ts):
            assert (succ[i] >> j & 1) == cross_condition(s, t)
            assert (pred[i] >> j & 1) == cross_condition(t, s)


def test_empty_and_one_tuple_families():
    assert list(_crossing_rows([], 3, 2)) == []
    for d in (2, 3, 5):
        empty = Family.build(4, [], d=d)
        assert bollobas_violation(empty) is None and skew_violation(empty) is None
    one = Family.build(4, [[[1], [2, 3], [4]]])
    assert bollobas_violation(one) is None and skew_violation(one) is None
    twice = Family(4, 3, one.tuples * 2)
    assert bollobas_violation(twice) == skew_violation(twice) == (1, 2)


def test_rows_come_one_at_a_time():
    # a generator: a violation at (1, 2) needs only the columns and row 1
    f = Family.build(3, [[[1], [2]], [[1], [2]], [[2], [1]]])
    rows = _crossing_rows([t.masks for t in f.tuples], f.n, f.d)
    assert inspect.isgenerator(rows)
    assert next(rows) == 0b100
    assert bollobas_violation(f) == (1, 2)


# Values that make an element, a part or a tuple malformed.
_BAD_ELEMENTS = st.sampled_from(["0", "-1", "n+1", "65", True, 1.0, "1"])
_NOT_LISTS = st.sampled_from([1, "x", None, {}, 1.0, True])
_FAULTS = ["repeat", "overlap", "element", "part", "tuple", "arity", "n", "d"]


@st.composite
def family_documents(draw):
    """Family JSON documents with n = 1..64 and d = 2..5, and at most one planted fault.

    Parts may be empty and the family may be empty.  The faults are a part
    that repeats an element, overlapping parts, an element out of range or
    not an int, a part or a tuple that is not a list, a tuple of the wrong
    arity, n outside 1..64 and d < 2.
    """
    n = draw(st.integers(1, 64))
    d = draw(st.integers(2, 5))
    tuples = []
    for _ in range(draw(st.integers(0, 6))):
        elements = draw(st.lists(st.integers(1, n), max_size=min(n, 8), unique=True))
        parts = [[] for _ in range(d)]
        for e in elements:
            parts[draw(st.integers(0, d - 1))].append(e)
        tuples.append(parts)
    fault = draw(st.sampled_from([None, *_FAULTS]))
    if fault not in (None, "n", "d") and not tuples:
        tuples.append([[] for _ in range(d)])
    t = draw(st.integers(0, len(tuples) - 1)) if tuples else 0
    p = draw(st.integers(0, d - 1))
    if fault == "repeat":
        part = tuples[t][p]
        if not part:
            part.append(draw(st.integers(1, n)))
        part.insert(draw(st.integers(0, len(part))), draw(st.sampled_from(part)))
    elif fault == "overlap":
        q = draw(st.integers(0, d - 1).filter(lambda q: q != p))
        source = tuples[t][p]
        if not source:
            source.append(draw(st.integers(1, n)))
        tuples[t][q].append(draw(st.sampled_from(source)))
    elif fault == "element":
        bad = draw(_BAD_ELEMENTS)
        bad = {"0": 0, "-1": -1, "n+1": n + 1, "65": 65}.get(bad, bad)
        part = tuples[t][p]
        part.insert(draw(st.integers(0, len(part))), bad)
    elif fault == "part":
        tuples[t][p] = draw(_NOT_LISTS)
    elif fault == "tuple":
        tuples[t] = draw(_NOT_LISTS)
    elif fault == "arity":
        if draw(st.booleans()):
            tuples[t].append([])
        else:
            tuples[t].pop()
    elif fault == "n":
        n = draw(st.sampled_from([0, -1, 65, 100]))
    elif fault == "d":
        d = draw(st.integers(-1, 1))
        if draw(st.booleans()):  # tuples of exactly d parts
            tuples = [entry[: max(d, 0)] for entry in tuples]
    return fault, {"n": n, "d": d, "tuples": tuples}


def _read(reader, doc):
    try:
        return reader(doc)
    except BollobasError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(family_documents())
def test_family_reader_matches_the_per_tuple_oracle(case):
    fault, doc = case
    want = _read(scan_oracles.family_from_json, doc)
    assert _read(family_from_json, doc) == want
    text = json.dumps(doc)
    with mock.patch("bollobas.families.decode", wraps=decode) as spy:
        assert _read(family_from_text, text) == want
    # the coded read takes every well-formed document; the plain decode is the error path only
    assert (spy.call_args_list == [mock.call(text, _LITERAL_BIT.__getitem__)]) == (fault is None)


@pytest.mark.parametrize("entry", [([1], [2]), "ab", {"a": [1], "b": [2]}, range(2)])
def test_family_reader_refuses_a_tuple_that_is_not_a_list_as_the_oracle_does(entry):
    # a caller's object is not a decoded text: a tuple of two lists has parts
    # that pass every part check, so only the per-tuple list check refuses it
    doc = {"n": 3, "d": 2, "tuples": [[[1], [2]], entry]}
    got = _read(family_from_json, doc)
    assert not isinstance(got, Family)
    assert got == _read(scan_oracles.family_from_json, doc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.lists(st.integers(1, n)), min_size=2, max_size=7))))
def test_tuple_overlap_matches_the_pairwise_oracle(case):
    n, parts = case
    masks = [sum(1 << (e - 1) for e in set(part)) for part in parts]
    try:
        got = validate_tuple(parts, n).masks
    except OverlapError as exc:
        got = exc.p, exc.q, exc.element
    want = scan_oracles.first_overlap(masks)
    assert got == (tuple(masks) if want is None else want)


def test_family_reader_keeps_parts_that_repeat_an_element():
    f = family_from_json({"n": 3, "d": 2, "tuples": [[[1, 1], [2, 3, 3]]]})
    assert f == Family.build(3, [[[1], [2, 3]]])


# What a case plants in a drawn family document: a literal outside the coded
# decode's table ("0", "-0", "65" and an integer past the digit limit of
# int-to-str conversion), one that is not an int ("true", "1.0"; and, in a
# text with no bool literal, a string, null, a list, an object, NaN, Infinity
# and a float past the float range) or one inside the table ("7", "64"); a
# "true" string as the value of an extra key; or deep nesting, a cut or a
# UTF-8 byte order mark; or nothing.  An extra member "rank" puts the letters
# "r" and "a" in a text without a bool literal; "untrue" and "falsehood" put
# "true" and "false" in it only inside strings.
_PLANTS = {
    **{x: ("literal", x) for x in ["0", "-0", "65", "true", "1.0", "7", "64"]},
    "5000-digits": ("literal", "9" * 5000),
    **{x: ("literal", x) for x in ["null", "NaN", "Infinity", "1e400"]},
    "string": ("literal", '"1"'),
    "list": ("literal", "[1]"),
    "object": ("literal", "{}"),
    "true-string": ("extra", '"true"'),
    "false-string": ("extra", '"falsehood"'),
    "rank-key": ("member", '"rank": 1'),
    "true-key": ("member", '"untrue": 1'),
    "deep": ("form", "deep"),
    "cut": ("form", "cut"),
    "bom": ("form", "bom"),
    "none": (None, None),
}
_MARK = "@planted@"


@st.composite
def family_texts(draw, plant):
    """The JSON text of a drawn family document with `plant` in it: a literal
    as an element, as n or d, or as the value of an extra key; an extra
    member; or the text nested deeply, cut short or behind a byte order mark."""
    fault, doc = draw(family_documents())
    kind, what = plant
    if kind in ("literal", "extra"):
        where = draw(st.sampled_from(["element", "n", "d", "extra"])) if kind == "literal" else "extra"
        parts = [p for t in doc["tuples"] if isinstance(t, list) for p in t if isinstance(p, list)]
        if where == "element" and parts:
            part = draw(st.sampled_from(parts))
            part.insert(draw(st.integers(0, len(part))), _MARK)
        elif where in ("n", "d"):
            doc[where] = _MARK
        else:
            doc[draw(st.sampled_from(["x", "m", "tuple_count"]))] = _MARK
    elif kind == "member":
        doc[_MARK] = 0
    text = json.dumps(doc)
    if kind in ("literal", "extra"):
        text = text.replace(json.dumps(_MARK), what)
    elif kind == "member":
        text = text.replace(json.dumps({_MARK: 0})[1:-1], what)
    elif what == "deep":
        text = text.replace('"tuples": [', '"tuples": [' + "[" * 100_000, 1) + "]" * 100_000
    elif what == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif what == "bom":
        text = "\ufeff" + text
    return fault, text


def _verify(path):
    """The family `verify` scanned, its exit code, stdout and stderr without the timing line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "bollobas_violation", wraps=bollobas_violation) as scan:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--input", str(path), "verify"])
    family = scan.call_args.args[0] if scan.called else None
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("elapsed_ms=")]
    return family, code, out.getvalue(), lines


def _plain_family_from_text(text):
    """The reader without the coded decode: plain ints, then the per-tuple oracle."""
    return scan_oracles.family_from_json(decode(text))


def _coded_read(text):
    """The family the coded read takes from `text`, or None if it refuses the text."""
    try:
        n, d, raw = fields(decode(text, _LITERAL_BIT.__getitem__), "family", ("n", "d"), "tuples")
        masks = _flat_masks(raw, n.bit_length(), d.bit_length())
    except (KeyError, BollobasError):
        return None
    return None if masks is None else Family(n.bit_length(), d.bit_length(), masks)


@pytest.mark.parametrize("plant", _PLANTS.values(), ids=_PLANTS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coded_decode_matches_the_plain_reader_through_verify(tmp_path_factory, plant, data):
    fault, text = data.draw(family_texts(plant))
    path = tmp_path_factory.getbasetemp() / "coded-family.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch("bollobas.families.decode", wraps=decode) as spy:
        got = _verify(path)
    with mock.patch.object(cli, "family_from_text", _plain_family_from_text):
        assert got == _verify(path)
    read, _ = cli._read_input(path)
    if plant == _PLANTS["rank-key"]:
        # the letters of the bool literals alone do not skip the coded decode
        assert "r" in read and "a" in read
    elif plant in (_PLANTS["true-string"], _PLANTS["false-string"], _PLANTS["true-key"]):
        # the guard does not parse strings: a bool literal's word inside one
        # sends the text to the one plain decode
        assert "true" in read or "false" in read
    if "true" in read or "false" in read:
        # a text that may hold a bool is decoded once, without the table
        assert spy.call_args_list == [mock.call(read)]
    else:
        # the coded decode comes first; a document it refuses is decoded again, plainly
        coded = _coded_read(read)
        plain = [] if isinstance(coded, Family) else [mock.call(read)]
        assert spy.call_args_list == [mock.call(read, _LITERAL_BIT.__getitem__), *plain]
        assert coded is None or coded == got[0]
    if fault is None and plant == (None, None):
        assert spy.call_count == 1 and isinstance(got[0], Family)


@pytest.mark.parametrize("bad", [0, -1, 4, 64, 65, True, 1.0, "1", None, [1]])
def test_family_reader_refuses_each_bad_element_as_the_oracle_does(bad):
    doc = {"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], [bad]]]}
    got = _read(family_from_json, doc)
    assert not isinstance(got, Family)
    assert got == _read(scan_oracles.family_from_json, doc)


@pytest.mark.parametrize("bad", ['"1"', "null", "[1]", "{}", "1.0", "NaN", "Infinity", "-Infinity", "1e400"])
def test_coded_family_reader_refuses_each_non_int_element(bad):
    text = '{"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], [%s]]]}'
    for part in (bad, f"1, {bad}", f"{bad}, 1"):
        assert _coded_read(text % part) is None
        with pytest.raises(BollobasError):
            scan_oracles.family_from_json(json.loads(text % part))


# Texts on which the coded read may skip its pass over the part types: a part
# that is "", {} or {"": 1}, or a nested list; a float or null element; a
# tuple that is a string or an object of d entries; extra fields holding
# strings, braces or objects; duplicate keys, escaped quotes and keys, and
# other whitespace.  `sum` takes "" and {} silently as 0, so a text that may
# hold one keeps the pass.
_FAMILY = '{"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], %s]]}'
_TUPLES = '{"n": 3, "d": 2, "tuples": [[[1], [2]], %s]}'
_ADVERSARIAL_TEXTS = [
    *(_FAMILY % part for part in ['""', "{}", '{"": 1}', "[[]]", "[[], []]", "[[1]]", "[1, []]", '"ab"', "[]", "[1]"]),
    *(_FAMILY % part for part in ["[1.0]", "[1, 2.0]", "[null]", "null", "1.0", "[-0.0]", "[1e400]"]),
    *(_TUPLES % entry for entry in ['""', '"ab"', '"abc"', "{}", '{"a": [1], "b": [2]}', '{"": [3], "x": []}']),
    *(_TUPLES % entry for entry in ["null", "1", "1.0", "[]", "[[3]]", "[[3], [], []]", "[[3], []]"]),
    '{"n": 3, "d": 2, "tuples": [[[1], [2]]], "x": "{"}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]]], "x": {"y": [""]}}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], ""]], "x": "{"}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], {}]], "x": "a"}',
    '{"n": 3, "d": 2, "x": "", "tuples": [[[1], [2]], [[3], []]]}',
    '{"n": 3, "d": 2, "x": "\\"\\"", "tuples": [[[1], [2]], [[3], []]]}',
    '{"n": 3, "d": 2, "x": "\\"", "tuples": [[[1], [2]], [[3], "\\""]]}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], "\\"\\""]]}',
    '{"n": 3, "d": 2, "tuples": [[["a"], [2]]], "tuples": [[[1], [2]]]}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]]], "tuples": [[[1], ""]]}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]]], "tuples": [[[1], {}]]}',
    '{"n": 3, "n": 4, "d": 2, "tuples": [[[1], [4]]]}',
    '{"n": 3, "d": 2, "d": 3, "tuples": [[[1], [2], []]]}',
    '{"\\u006e": 3, "d": 2, "tuples": [[[1], [2]]]}',
    '{"n": 3, "d": 2, "\\u0074uples": [[[1], [2]], [[3], ""]]}',
    '{"n": 3, "d": 2, "tu\\"ples": [[[1], [2]]], "tuples": [[[3], [2]]]}',
    ' {"n":3,"d":2,"tuples":[[[1],[2]],[[3],[]]]} ',
    '\n\t{ "n" : 3 ,\n "d" :2, "tuples" : [ [ [ 1 ] , [ 2 ] ] , [ [ 3 ] , "" ] ] }\r\n',
    '{"n" :3, "d": 2, "tuples": [[[1 ], [ 2]], [[3] ,{ }]]}',
    '{"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], [" "]]]}',
]


@pytest.mark.parametrize("text", _ADVERSARIAL_TEXTS)
def test_family_from_text_matches_the_plain_read_on_adversarial_texts(text):
    got = _read(family_from_text, text)
    assert got == _read(lambda t: family_from_json(json.loads(t)), text)
    if isinstance(got, Family):
        assert got.masks == scan_oracles.family_from_json(json.loads(text)).masks


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='"{}[]ab\\ ', max_size=12))
def test_empty_string_and_object_guard_is_the_whole_text_search(text):
    assert _no_empty_string_or_object(text) == ('""' not in text and text.count("{") <= 1)


def test_coded_read_of_a_written_family_skips_the_part_type_pass():
    text = json.dumps(family_to_json(layered_triple_family(5)))
    assert _no_empty_string_or_object(text)
    with mock.patch("bollobas.families._flat_masks", wraps=_flat_masks) as flat:
        assert family_from_text(text) == layered_triple_family(5)
    assert flat.call_args.kwargs == {"strict_sums": True}


@st.composite
def part_masks(draw):
    """Part masks of m = 0, 1, 2..64 or 65..130 tuples over n = 1..64, with
    element n (bit n - 1, bit 63 at n = 64) set in some part q of some tuple."""
    n = draw(st.sampled_from([64, *range(1, 64)]))
    d = draw(st.integers(2, 4))
    m = draw(st.sampled_from([0, 1, "few", "many"]))
    if m == "few":
        m = draw(st.integers(2, 64))
    elif m == "many":
        m = draw(st.integers(65, 130))
    word = st.integers(0, (1 << n) - 1)
    tuples = [tuple(draw(word) for _ in range(d)) for _ in range(m)]
    q = draw(st.integers(0, d - 1))
    if tuples:
        i = draw(st.integers(0, m - 1))
        tuples[i] = tuples[i][:q] + (tuples[i][q] | 1 << (n - 1),) + tuples[i][q + 1 :]
    return tuples, n, q


@settings(max_examples=300, deadline=None)
@given(part_masks())
def test_columns_match_the_per_bit_transpose(case):
    tuples, n, q = case
    assert _columns(tuples, n, q) == scan_oracles.columns(tuples, n, q)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
def test_columns_keep_the_top_bit_of_a_full_word(n):
    # element n in the first and the last tuple: the top bit of a word n bits wide
    top = 1 << (n - 1)
    tuples = [(top, 0), (0, top), (top | 1, 0)]
    cols = _columns(tuples, n, 0)
    assert cols == scan_oracles.columns(tuples, n, 0)
    assert cols[n - 1] == 0b101 and cols[0] == 0b100 and not any(cols[1 : n - 1])


@settings(max_examples=300, deadline=None)
@given(families())
def test_type_counts_match_one_type_per_tuple(f):
    assert _type_counts(f) == Counter(t.type() for t in f.tuples)


@settings(max_examples=200, deadline=None)
@given(families())
def test_read_family_equals_the_checked_construction(f):
    got = family_from_json(family_to_json(f))
    want = Family(f.n, f.d, tuple(DTuple(f.n, t.masks) for t in f.tuples))
    assert got == want and hash(got) == hash(want)
    assert [type(t) for t in got.tuples] == [DTuple] * len(f)
    assert [hash(t) for t in got.tuples] == [hash(t) for t in want.tuples]


@settings(max_examples=500, deadline=None)
@given(family_documents())
def test_masks_constructor_matches_the_validated_tuples(case):
    _, doc = case
    n, d = doc["n"], doc["d"]
    try:
        tuples = [validate_tuple(entry, n) for entry in doc["tuples"]]
        want = Family(n, d, tuples)
    except (BollobasError, TypeError):
        return
    masks = [tuple(sum(1 << (e - 1) for e in set(part)) for part in entry) for entry in doc["tuples"]]
    got = Family(n, d, masks)
    assert got == want and hash(got) == hash(want)
    assert got.masks == tuple(masks) and got.tuples == want.tuples == tuple(tuples)
    assert list(got) == tuples
    for wrong in [(0,) * (d - 1), (0,) * (d + 1), DTuple(n % 64 + 1, (0,) * d), DTuple(n, (0,) * (d + 1))]:
        with pytest.raises(MismatchError):
            Family(n, d, [*masks, wrong])


@st.composite
def family_members(draw):
    """(n, d, members): a family of tuples, lists or DTuples of n and d, with
    up to two members of another kind, n or arity planted; possibly empty."""
    n = draw(st.integers(1, 64))
    d = draw(st.integers(2, 5))
    word = st.integers(0, (1 << n) - 1)

    def member(kind):
        arity = draw(st.sampled_from([d - 1, d + 1])) if kind.startswith("arity") else d
        masks = tuple(draw(word) for _ in range(arity))
        if kind in ("list", "arity-list"):
            return list(masks)
        if kind in ("dtuple", "arity-dtuple"):
            return DTuple(n, masks)
        if kind == "other-n":
            return DTuple(draw(st.integers(1, 64).filter(lambda other: other != n)), masks)
        return masks

    base = draw(st.sampled_from(["tuple", "list", "dtuple"]))
    members = [member(base) for _ in range(draw(st.integers(0, 8)))]
    planted = st.sampled_from(["tuple", "list", "dtuple", "other-n", "arity-tuple", "arity-list", "arity-dtuple"])
    for _ in range(draw(st.integers(0, 2))):
        members.insert(draw(st.integers(0, len(members))), member(draw(planted)))
    return n, d, members


@settings(max_examples=500, deadline=None)
@given(family_members(), st.sampled_from([tuple, list, lambda ms: (t for t in ms)]))
def test_family_constructor_matches_the_per_member_loop(case, container):
    n, d, members = case
    got = _read(lambda ms: Family(n, d, container(ms)).masks, members)
    want = _read(lambda ms: scan_oracles.family_rows(n, d, ms), members)
    assert got == want
    if isinstance(want, tuple):
        assert type(got) is tuple and [type(t) for t in got] == [type(t) for t in want]


def test_read_tuples_and_family_stay_frozen():
    f = family_from_json({"n": 3, "d": 2, "tuples": [[[1], [2, 3]]]})
    (t,) = f.tuples
    for obj, name, value in [(t, "n", 4), (t, "masks", (0, 0)), (f, "n", 4), (f, "d", 3), (f, "masks", ())]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert (t.n, t.masks, f.n, f.d, f.masks) == (3, (0b1, 0b110), 3, 2, ((0b1, 0b110),))


@st.composite
def tuple_types(draw):
    """(n, sizes) with n = 1..7 and d = 2..4 parts, zero parts allowed, fitting in [n]."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(2, 4))
    sizes = []
    free = n
    for _ in range(d):
        a = draw(st.integers(0, free))
        sizes.append(a)
        free -= a
    return n, tuple(draw(st.permutations(sizes)))


@settings(max_examples=300, deadline=None)
@given(tuple_types())
def test_mask_enumerator_matches_the_recursive_oracle(case):
    n, sizes = case
    assert all_tuples_of_type(n, sizes) == scan_oracles.all_tuples_of_type(n, sizes)


@st.composite
def sampled_family_args(draw):
    """(n, d, sizes, seed, target) for a random construction: n = 1..64,
    d = 2..6, and sizes None or a type of d parts, zero parts allowed, fitting in [n]."""
    n = draw(st.integers(1, 64))
    d = draw(st.integers(2, 6))
    sizes = None
    if draw(st.booleans()):
        sizes = []
        free = n
        for _ in range(d):
            a = draw(st.integers(0, min(free, 12)))
            sizes.append(a)
            free -= a
        sizes = tuple(draw(st.permutations(sizes)))
    return n, d, sizes, draw(st.integers(0, 2**64)), draw(st.integers(0, 60))


@settings(max_examples=200, deadline=None)
@given(sampled_family_args(), st.booleans())
def test_mask_sampler_matches_the_dtuple_oracle(args, two_sided):
    n, d, sizes, seed, target = args
    maker = random_bollobas_family if two_sided else random_skew_family
    assert maker(n, d, sizes, seed=seed, target=target) == scan_oracles.grow_family(*args, two_sided)


_SPARSE_MASKS = st.sets(st.integers(0, 63), max_size=6).map(lambda bits: sum(1 << e for e in bits))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 64).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)) | _SPARSE_MASKS)
def test_elements_of_matches_the_per_bit_oracle(mask):
    assert elements_of(mask) == scan_oracles.elements_of(mask)


# Families for the writers: the constructions, which repeat a few part masks
# many times; random skew families on [64], whose masks are all distinct;
# drawn families, whose parts may be empty; and empty families.
_WRITER_FAMILIES = st.one_of(
    st.integers(1, 7).map(layered_triple_family),
    st.sampled_from([(1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (1, 2, 1, 1)]).map(complete_family),
    st.integers(0, 2**32).map(lambda seed: random_skew_family(64, 4, seed=seed, target=40)),
    families(),
    st.tuples(st.integers(1, 64), st.integers(2, 5)).map(lambda nd: Family(*nd, ())),
)


@settings(max_examples=200, deadline=None)
@given(_WRITER_FAMILIES, st.data())
def test_writers_match_the_per_tuple_oracles(f, data):
    assert family_to_json(f) == scan_oracles.family_to_json(f)
    perm = data.draw(st.permutations(range(1, f.n + 1)))
    assert relabel(f, perm) == scan_oracles.relabel(f, perm)


@pytest.mark.parametrize("f", [layered_triple_family(7), complete_family((2, 2, 1))], ids=["layered7", "complete221"])
def test_writers_decode_each_distinct_mask_once(f):
    distinct = {m for t in f.tuples for m in t.masks}
    assert len(distinct) < len(f) * f.d
    perm = list(range(f.n, 0, -1))
    for write in (family_to_json, lambda g: relabel(g, perm)):
        with mock.patch("bollobas.families.elements_of", wraps=elements_of) as decode:
            write(f)
        assert decode.call_count == len(distinct)
    with mock.patch("bollobas.spaces.SubspaceRep", wraps=SubspaceRep) as build:
        lifted = lift_to_spaces(f)
    assert build.call_count == len(distinct)
    assert len({id(sp) for entry in lifted.entries for sp in entry}) == len(distinct)
