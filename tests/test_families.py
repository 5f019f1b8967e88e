import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    ArityError,
    Family,
    MismatchError,
    OverlapError,
    RangeError,
    bollobas_violation,
    complete_family,
    cross_condition,
    family_from_json,
    family_to_json,
    is_bollobas,
    in_event,
    is_skew_bollobas,
    lift_to_spaces,
    relabel,
    skew_violation,
    validate_tuple,
)
from bollobas.errors import FormatError
from bollobas.events import Permutation
from bollobas.families import elements_of


def brute_cross(s_parts, t_parts):
    """Oracle: exhaustive scan over all p < q with plain Python sets."""
    d = len(s_parts)
    return any(
        set(s_parts[p]) & set(t_parts[q]) for p in range(d) for q in range(p + 1, d)
    )


class TestValidateTuple:
    def test_disjoint_singletons(self):
        t = validate_tuple([[1], [2], [3]], 3)
        assert t.parts() == ((1,), (2,), (3,))

    def test_overlap_reported_with_parts_and_element(self):
        with pytest.raises(OverlapError) as exc:
            validate_tuple([[1], [1]], 2)
        assert (exc.value.p, exc.value.q, exc.value.element) == (1, 2, 1)

    def test_empty_middle_part_is_fine(self):
        t = validate_tuple([[1], [], [2]], 4)
        assert t.type() == (1, 0, 1)

    def test_element_out_of_range(self):
        with pytest.raises(RangeError):
            validate_tuple([[1], [5]], 4)
        with pytest.raises(RangeError):
            validate_tuple([[0], [1]], 4)

    def test_arity_below_two(self):
        with pytest.raises(ArityError):
            validate_tuple([[1]], 3)

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_element_that_is_not_an_int_is_refused_by_name(self, bad):
        # True and 1.0 equal 1, and False would be reported as out of range
        message = f"element {bad!r} is not an int"
        for parts in ([[bad], [2]], [[2, bad], [3]]):
            with pytest.raises(RangeError, match=re.escape(message)):
                validate_tuple(parts, 3)
            with pytest.raises(RangeError, match=re.escape(message)):
                Family.build(3, [[[1], [2]], parts])

    def test_many_parts_are_checked_within_a_second(self):
        # 100,001 parts: a pairwise test of the parts would take minutes
        parts = [[] for _ in range(100_001)]
        parts[50_000], parts[-1] = [1], [1]
        started = time.perf_counter()
        with pytest.raises(OverlapError) as exc:
            validate_tuple(parts, 1)
        assert time.perf_counter() - started < 1.0
        assert (exc.value.p, exc.value.q, exc.value.element) == (50_001, 100_001, 1)

    def test_ground_set_cap(self):
        with pytest.raises(RangeError):
            validate_tuple([[1], [2]], 65)


class TestCrossCondition:
    def test_simple_pair(self):
        s = validate_tuple([[1], [2]], 2)
        t = validate_tuple([[2], [1]], 2)
        assert cross_condition(s, t) is True

    def test_self_is_never_crossing(self):
        s = validate_tuple([[1], [2]], 2)
        assert cross_condition(s, s) is False

    def test_triple_example_matches_brute_force(self):
        s = validate_tuple([[1], [2], [3]], 3)
        t = validate_tuple([[3], [1], [2]], 3)
        assert cross_condition(s, t) is True
        assert cross_condition(s, t) == brute_cross(s.parts(), t.parts())

    def test_mismatch(self):
        s = validate_tuple([[1], [2]], 2)
        t = validate_tuple([[1], [2]], 3)
        with pytest.raises(MismatchError):
            cross_condition(s, t)
        u = validate_tuple([[1], [2], []], 2)
        with pytest.raises(MismatchError):
            cross_condition(s, u)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, data):
        n = data.draw(st.integers(2, 6))
        d = data.draw(st.integers(2, 4))

        def draw_tuple():
            labels = data.draw(
                st.lists(st.integers(0, d), min_size=n, max_size=n)
            )
            parts = [[e for e, l in enumerate(labels, start=1) if l == k] for k in range(1, d + 1)]
            return validate_tuple(parts, n)

        s, t = draw_tuple(), draw_tuple()
        assert cross_condition(s, t) == brute_cross(s.parts(), t.parts())
        assert cross_condition(s, s) is False


class TestPredicates:
    def test_singleton_family_vacuous(self):
        f = Family.build(3, [[[1], [2]]])
        assert is_bollobas(f) and is_skew_bollobas(f)

    def test_disjoint_tuples_fail_with_first_pair(self):
        f = Family.build(4, [[[1], [2]], [[3], [4]]])
        assert bollobas_violation(f) == (1, 2)
        assert skew_violation(f) == (1, 2)

    def test_skew_only_checks_listed_order(self):
        f = Family.build(2, [[[1], [2]], [[2], [1]]])
        assert is_skew_bollobas(f)
        g = Family.build(2, [[[2], [1]], [[1], [2]]])
        assert is_skew_bollobas(g)
        assert is_bollobas(f) and is_bollobas(g)

    def test_one_sided_pair(self):
        # tuple 1 crosses into tuple 2 but not back
        f = Family.build(4, [[[1], [2]], [[3], [1]]])
        assert is_skew_bollobas(f)
        assert bollobas_violation(f) == (2, 1)

    def test_skew_failure_reported(self):
        f = Family.build(4, [[[2], [1]], [[3], [4]]])
        assert skew_violation(f) == (1, 2)

    def test_bollobas_implies_skew_and_reversed_skew(self):
        f = Family.build(2, [[[1], [2]], [[2], [1]]])
        assert is_bollobas(f)
        rev = Family(f.n, f.d, tuple(reversed(f.tuples)))
        assert is_skew_bollobas(f) and is_skew_bollobas(rev)

    def test_d2_reduces_to_pair_definition(self):
        # for d = 2 the cross condition is exactly A_i ∩ B_j != empty
        s = validate_tuple([[1, 3], [2]], 4)
        t = validate_tuple([[2], [3, 4]], 4)
        assert cross_condition(s, t) == bool(set(s.parts()[0]) & set(t.parts()[1]))

    def test_duplicate_tuples_never_valid(self):
        f = Family.build(3, [[[1], [2]], [[1], [2]]])
        assert not is_skew_bollobas(f)

    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=40, deadline=None)
    def test_relabel_invariance(self, perm):
        f = Family.build(
            6,
            [
                [[1], [2, 3], [4]],
                [[2], [1, 4], [3]],
                [[3], [4, 5], [6]],
            ],
        )
        g = relabel(f, perm)
        assert is_skew_bollobas(g) == is_skew_bollobas(f)
        assert is_bollobas(g) == is_bollobas(f)


class TestTypes:
    def test_type_of(self):
        assert validate_tuple([[1], [2, 3], [4]], 4).type() == (1, 2, 1)
        assert validate_tuple([[], [1, 2], []], 2).type() == (0, 2, 0)


class TestFamilyConstruction:
    def test_empty_family_needs_explicit_arity(self):
        with pytest.raises(ArityError):
            Family.build(3, [])
        f = Family.build(3, [], d=2)
        assert len(f) == 0 and f.d == 2

    def test_a_negative_mask_is_refused_where_its_elements_are_read(self):
        # a negative int has no last set bit, so reading its elements never ended
        with pytest.raises(RangeError, match="mask -1 is negative"):
            elements_of(-1)
        f = Family(3, 2, [(-1, 0)])
        reads = [
            family_to_json,
            lambda f: relabel(f, [1, 2, 3]),
            lift_to_spaces,
            lambda f: in_event(Permutation(tuple(range(1, 5))), f.tuples[0]),
        ]
        for read in reads:
            with pytest.raises(RangeError, match="mask -1 is negative"):
                read(f)

    def test_mixed_arities_rejected(self):
        with pytest.raises(MismatchError):
            Family.build(3, [[[1], [2]], [[1], [2], [3]]])

    def test_a_family_keeps_its_own_copy_of_a_list_of_tuples(self):
        s, t = validate_tuple([[1], [2]], 3), validate_tuple([[2], [3]], 3)
        source = [s, t]
        f = Family(3, 2, source)
        want = Family(3, 2, (s, t))
        assert f == want and hash(f) == hash(want)
        assert Family(3, 2, [[0b1, 0b10], [0b10, 0b100]]) == want
        source.append(validate_tuple([[3], [1]], 3))
        assert len(f) == 2 and f == want and f.tuples == (s, t)

    def test_relabel_rejects_non_permutation(self):
        f = Family.build(3, [[[1], [2]]])
        with pytest.raises(RangeError):
            relabel(f, [1, 1, 2])

    @pytest.mark.parametrize("mapping", [[True, 2, 3, 4], [1.0, 2, 3, 4], [1, 2, "3", 4]])
    def test_relabel_rejects_a_non_int_entry_before_building_a_mask(self, mapping):
        # True and 1.0 equal 1, so the permutation check alone lets them through
        f = Family.build(4, [[[1], [2]], [[3], [4, 1]]])
        with mock.patch("bollobas.families.elements_of", side_effect=AssertionError("a mask was decoded")):
            with pytest.raises(RangeError, match="mapping entries must be ints"):
                relabel(f, mapping)

    def test_relabel_reads_int_like_entries(self):
        # an entry that operator.index reads as an int, such as numpy.int64, is accepted
        class IntLike:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        f = Family.build(4, [[[1], [2]], [[3], [4, 1]]])
        mapping = [2, 3, 4, 1]
        assert relabel(f, [IntLike(e) for e in mapping]) == relabel(f, mapping)


class TestJson:
    def test_roundtrip(self):
        f = Family.build(4, [[[1], [2]], [[3], [1]]])
        assert family_from_json(family_to_json(f)) == f

    def test_emitted_parts_sorted(self):
        f = Family.build(4, [[[3, 1], [2]]])
        assert family_to_json(f)["tuples"] == [[[1, 3], [2]]]

    def test_equal_parts_are_emitted_as_distinct_lists(self):
        f = complete_family((1, 1))  # the parts [1] and [2] each appear twice
        out = family_to_json(f)
        first, second = out["tuples"][0][0], out["tuples"][1][1]
        assert first == second == [1] and first is not second
        first.append(2)
        assert second == [1]
        assert family_to_json(f) == {"n": 2, "d": 2, "tuples": [[[1], [2]], [[2], [1]]]}

    def test_rejects_overlap(self):
        with pytest.raises(OverlapError):
            family_from_json({"n": 3, "d": 2, "tuples": [[[1], [1]]]})

    def test_rejects_missing_field(self):
        with pytest.raises(FormatError):
            family_from_json({"n": 3, "tuples": []})

    def test_rejects_wrong_part_count(self):
        with pytest.raises(FormatError):
            family_from_json({"n": 3, "d": 3, "tuples": [[[1], [2]]]})
