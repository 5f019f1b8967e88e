"""Differential tests: the bit-sliced Monte Carlo walk and the arrangement
oracle against the per-tuple loop and the r! enumeration."""

import ast
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import Family, IndexRangeError, event_probability, exact_event_probability, monte_carlo
from bollobas import events
from bollobas.events import _arrangements, _shuffles
from bollobas.families import DTuple

import event_oracles


@st.composite
def families(draw):
    """Families with d = 2..5 and n = 1..8: any part may be empty, tuples may repeat."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    # each element goes to one of the d parts, or to none (index d)
    labels = st.lists(st.integers(0, d), min_size=n, max_size=n)
    tuples = []
    for owner in draw(st.lists(labels, max_size=10)):
        masks = [0] * (d + 1)
        for e, part in enumerate(owner):
            masks[part] |= 1 << e
        tuples.append(DTuple(n, tuple(masks[:d])))
    # plant copies of drawn members at drawn positions: their events overlap
    for _ in range(draw(st.integers(0, 2))):
        if tuples:
            t = tuples[draw(st.integers(0, len(tuples) - 1))]
            tuples.insert(draw(st.integers(0, len(tuples))), t)
    return Family(n, d, tuple(tuples))


def _modes(d):
    return ("skew", "d3", "general") if d == 3 else ("skew", "general")


@settings(max_examples=300, deadline=None)
@given(families(), st.integers(0, 300), st.integers(0, 2**32))
def test_monte_carlo_matches_the_per_tuple_loop(f, trials, seed):
    for mode in _modes(f.d):
        assert monte_carlo(f, mode, trials, seed) == event_oracles.monte_carlo(f, mode, trials, seed)


def test_overlapping_events_are_counted_like_the_oracle():
    # a tuple listed three times, next to one with empty parts: up to four
    # events can hold at once
    t = (0b0011, 0b0100, 0b1000)
    f = Family(4, 3, (DTuple(4, t), DTuple(4, (0, 0b0001, 0)), DTuple(4, t), DTuple(4, t)))
    for mode in ("skew", "d3", "general"):
        got = monte_carlo(f, mode, 3000, 5)
        assert got == event_oracles.monte_carlo(f, mode, 3000, 5)
        assert got.max_simultaneous_hits >= 3


@pytest.mark.parametrize("d", [2, 3, 5])
def test_empty_family_and_zero_trials(d):
    empty = Family.build(4, [], d=d)
    for mode in _modes(d):
        assert monte_carlo(empty, mode, 50, 1) == event_oracles.monte_carlo(empty, mode, 50, 1)
    f = Family.build(4, [[[1]] + [[]] * (d - 1), [[2], [3]] + [[]] * (d - 2)])
    for mode in _modes(d):
        rep = monte_carlo(f, mode, 0, 1)
        assert rep == event_oracles.monte_carlo(f, mode, 0, 1)
        assert rep.hits == (0, 0) and rep.max_simultaneous_hits == 0


def test_one_element_permutation_draws_nothing():
    # n = 1, d = 2 in general mode has no delimiters: the permutation has one
    # element and the shuffle no steps
    f = Family.build(1, [[[1], []], [[], [1]]])
    for seed in (0, 1, 7):
        rep = monte_carlo(f, "general", 40, seed)
        assert rep == event_oracles.monte_carlo(f, "general", 40, seed)
        assert rep.hits == (40, 40)
    rng = random.Random(3)
    state = rng.getstate()
    assert [order[:] for order in _shuffles(rng, [0], 5)] == [[0]] * 5
    assert rng.getstate() == state


def test_elements_outside_every_support_rule_nothing_out():
    # elements 1, 4, 6 and 8 lie in no tuple; the walk visits them too
    f = Family.build(8, [[[2], [3, 5], [7]], [[5], [], [2, 3]], [[7], [2], []]])
    for mode in ("skew", "d3", "general"):
        for seed in (0, 5):
            assert monte_carlo(f, mode, 2000, seed) == event_oracles.monte_carlo(f, mode, 2000, seed)


def _compare_with_stdlib_shuffle(items, seed, trials):
    """Run `_shuffles` on the index permutation of items and
    `random.Random(seed).shuffle` on a copy of items side by side: after every
    shuffle the indices spell the shuffled copy and the yielded list is their
    inverse; at the end the generator states agree (so the same number of
    draws)."""
    ours, theirs = random.Random(seed), random.Random(seed)
    img, ref = list(range(len(items))), list(items)
    count = 0
    for order in _shuffles(ours, img, trials):
        theirs.shuffle(ref)
        assert [items[x] for x in img] == ref, f"shuffle {count + 1} of size {len(items)}, seed {seed}"
        assert len(order) == len(img) and all(order[img[e]] == e for e in range(len(img)))
        count += 1
    assert count == trials
    assert ours.getstate() == theirs.getstate()


# Sizes 2^k + 1 (3, 5, 9, 17, 33) are the worst case for the rejection loop:
# the first step draws k + 1 bits for a bound of 2^k + 1, so about half of
# its draws are rejected.
@pytest.mark.parametrize("size", range(1, 41))
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 3, 12345678901234567890])
def test_shuffles_match_the_stdlib_shuffle(size, seed):
    _compare_with_stdlib_shuffle(range(size), seed, 50)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 9), max_size=70) | st.integers(1, 7).map(lambda k: list(range(2**k + 1))),
    st.integers(),
    st.integers(0, 20),
)
def test_shuffles_match_the_stdlib_shuffle_on_any_list(items, seed, trials):
    _compare_with_stdlib_shuffle(items, seed, trials)


@st.composite
def small_types(draw):
    """Types of d = 2..5 parts whose events have at most 8 relevant elements in every mode."""
    d = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))
    budget = 8 - (d - 1)
    while sum(sizes) > budget:
        sizes[sizes.index(max(sizes))] -= 1
    return tuple(sizes)


def _one_tuple(sizes):
    parts, nxt = [], 1
    for a in sizes:
        parts.append(list(range(nxt, nxt + a)))
        nxt += a
    return Family.build(max(1, sum(sizes)), [parts])


@settings(max_examples=120, deadline=None)
@given(small_types())
def test_arrangement_oracle_matches_the_factorial_enumeration(sizes):
    f = _one_tuple(sizes)
    for mode in _modes(len(sizes)):
        assert exact_event_probability(f, 1, mode) == event_oracles.exact_event_probability(f, 1, mode)
    assert exact_event_probability(f, 1, "skew") == event_probability(sizes)


def test_arrangements_are_distinct_and_complete():
    labels = (0, 0, 1, 2, 2, 2)
    seen = list(_arrangements(labels))
    assert len(seen) == len(set(seen)) == 60  # 6! / (2! 1! 3!)
    assert seen == sorted(seen)
    assert all(sorted(a) == list(labels) for a in seen)
    assert list(_arrangements(())) == [()]


@pytest.mark.parametrize("index", [0, -1, 3, 10])
def test_exact_oracle_index_outside_1_to_m(index):
    f = Family.build(3, [[[1], [2]], [[2], [3]]])
    with pytest.raises(IndexRangeError):
        exact_event_probability(f, index, "skew")


def test_exact_oracle_index_on_an_empty_family():
    with pytest.raises(IndexRangeError):
        exact_event_probability(Family.build(3, [], d=2), 1, "skew")


def test_events_module_enumerates_no_permutations():
    tree = ast.parse(inspect.getsource(events))
    names = {a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert "itertools" not in names and "permutations" not in names
