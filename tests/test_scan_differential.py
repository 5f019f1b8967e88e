"""Differential tests: the bit-sliced crossing rows against the pairwise oracles."""

import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import Family, bollobas_violation, cross_condition, skew_violation
from bollobas.families import DTuple, _crossing_rows

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
