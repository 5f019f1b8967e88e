import re
from fractions import Fraction
from unittest import mock

import pytest

import bollobas.spaces as spaces
from bollobas import (
    Family,
    SubspaceFamily,
    SubspaceRep,
    complete_family,
    is_skew_bollobas,
    lift_to_spaces,
    random_skew_family,
    skew_spaces_violation,
    subspace_family_from_json,
    subspace_family_to_json,
)
from bollobas.errors import DimensionError, DomainError, FormatError, SizeError
from bollobas.spaces import MAX_AMBIENT


def axis(i, n):
    return tuple(Fraction(1) if c == i else Fraction(0) for c in range(n))


class TestSubspaceFamily:
    def test_entry_independence_enforced(self):
        # two copies of the same line are not independent
        line = SubspaceRep(2, (axis(0, 2),))
        with pytest.raises(DomainError):
            SubspaceFamily(2, 2, ((line, line),))

    def test_uniform_type(self):
        f = lift_to_spaces(complete_family((1, 2)))
        assert f.uniform_type() == (1, 2)

    def test_nonuniform_type_detected(self):
        a = SubspaceRep(3, (axis(0, 3),))
        b = SubspaceRep(3, (axis(1, 3),))
        c = SubspaceRep(3, (axis(1, 3), axis(2, 3)))
        f = SubspaceFamily(3, 2, ((a, b), (a, c)))
        assert f.uniform_type() is None

    def test_empty_family_has_no_uniform_type(self):
        assert SubspaceFamily(3, 2, ()).uniform_type() is None

    @pytest.mark.parametrize(
        "n, d, entry, message",
        [
            (2, 1, (), "arity must be >= 2, got 1"),
            (2, 2, (SubspaceRep(2, ()),), "entry 1 has 1 parts, expected 2"),
            (2, 2, (SubspaceRep(2, ()), SubspaceRep(3, ())), "a subspace of R^3, ambient is R^2"),
        ],
    )
    def test_malformed_family_rejected(self, n, d, entry, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            SubspaceFamily(n, d, (entry,))


class TestSkewSpaces:
    def test_lift_preserves_skew_validity(self):
        for seed in range(6):
            f = random_skew_family(6, 3, seed=seed, target=8)
            assert is_skew_bollobas(f)
            assert skew_spaces_violation(lift_to_spaces(f)) is None

    def test_lift_preserves_violations(self):
        f = Family.build(4, [[[1], [2]], [[3], [4]]])
        assert skew_spaces_violation(lift_to_spaces(f)) == (1, 2)

    def test_a_failing_first_pair_spans_only_its_own_slots(self):
        # entries 1 and 2 share no element, so the scan stops at (1, 2) after
        # its three slots; entry 3's parts are never paired
        f = lift_to_spaces(Family.build(7, [[[1], [2], [3]], [[4], [5], [6]], [[1], [5], [7]]]))
        e1, e2 = f.entries[:2]
        with mock.patch.object(spaces, "_pivot_rows", wraps=spaces._pivot_rows) as pivots:
            assert skew_spaces_violation(f) == (1, 2)
        assert pivots.call_count == 3
        with mock.patch.object(spaces, "_pivot_rows", side_effect=AssertionError("spanned again")):
            for p, q in [(0, 1), (0, 2), (1, 2)]:
                assert len(f.pair_span(e1[p].rows, e2[q].rows)) == 2

    @pytest.mark.parametrize("rotated", [False, True])
    def test_pairs_that_share_a_row_are_not_spanned(self, rotated):
        # every pair of a skew family of sets shares an element in some slot,
        # so its lift, and the same lift through a unimodular matrix (each
        # element e becomes row e of it), meets through a shared basis row
        fam = complete_family((2, 1, 1))
        f = lift_to_spaces(fam)
        if rotated:
            u = [[1, 1, 0, -1], [0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 2, 1]]
            entries = tuple(
                tuple(SubspaceRep(fam.n, tuple(u[e - 1] for e in part)) for part in t.parts())
                for t in fam.tuples
            )
            f = SubspaceFamily(fam.n, fam.d, entries)
        with mock.patch.object(spaces, "_pivot_rows", side_effect=AssertionError("spanned")):
            assert skew_spaces_violation(f) is None

    def test_single_entry_vacuous(self):
        f = lift_to_spaces(Family.build(3, [[[1], [2]]]))
        assert skew_spaces_violation(f) is None

    @pytest.mark.parametrize(
        "rows, spans",
        [
            ([(1, 1, 0)], 0),  # the same basis row
            ([(2, 2, 0)], 1),  # a proportional row
            ([("1/2", "1/2", 0)], 0),  # a rational row that clears to the same integer row
            ([(1, 1, 1), (1, 1, -1)], 1),  # a plane holding the line, spanned by other rows
        ],
    )
    def test_non_coordinate_subspaces(self, rows, spans):
        # shared direction (1,1,0) between part 1 of entry 1 and part 2 of entry 2
        a1 = SubspaceRep(3, ((1, 1, 0),))
        a2 = SubspaceRep(3, ((0, 0, 1),))
        b1 = SubspaceRep(3, ((1, 0, 0),))
        b2 = SubspaceRep(3, tuple(rows))
        f = SubspaceFamily(3, 2, ((a1, a2), (b1, b2)))
        with mock.patch.object(spaces, "_pivot_rows", wraps=spaces._pivot_rows) as pivots:
            assert skew_spaces_violation(f) is None
        assert pivots.call_count == spans


class TestJson:
    def test_roundtrip(self):
        f = lift_to_spaces(complete_family((1, 1)))
        again = subspace_family_from_json(subspace_family_to_json(f))
        assert again == f

    def test_rational_strings(self):
        sp = SubspaceRep(2, ((Fraction(1, 2), Fraction(-3)),))
        f = SubspaceFamily(2, 2, ((sp, SubspaceRep(2, ())),))
        obj = subspace_family_to_json(f)
        assert obj["entries"][0][0] == [["1/2", "-3"]]
        assert subspace_family_from_json(obj) == f

    def test_bad_rational_rejected(self):
        obj = {"n": 2, "d": 2, "entries": [[[["1/0"]], []]]}
        with pytest.raises(FormatError):
            subspace_family_from_json(obj)

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError):
            subspace_family_from_json({"n": 2, "entries": []})

    @pytest.mark.parametrize("obj", [5, [1, 2], None, "entries"])
    def test_non_object_rejected(self, obj):
        with pytest.raises(FormatError, match="must be an object"):
            subspace_family_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "d": 2, "entries": []},
            {"n": 2, "d": True, "entries": []},
            {"n": 2, "d": 2, "entries": [[[[True, 0]], []]]},
        ],
    )
    def test_booleans_rejected(self, obj):
        with pytest.raises(FormatError):
            subspace_family_from_json(obj)

    def test_ambient_past_the_limit_refused(self):
        with pytest.raises(SizeError):
            subspace_family_from_json({"n": MAX_AMBIENT + 1, "d": 2, "entries": []})
        assert subspace_family_from_json({"n": MAX_AMBIENT, "d": 2, "entries": []}).n == MAX_AMBIENT

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_ambient_dimension_refused(self, n):
        with pytest.raises(FormatError, match=f"ambient dimension must be >= 0, got {n}"):
            subspace_family_from_json({"n": n, "d": 2, "entries": [[[], []]]})
        assert subspace_family_from_json({"n": 0, "d": 2, "entries": [[[], []]]}).n == 0

    def test_entry_with_wrong_part_count_rejected(self):
        with pytest.raises(FormatError, match="entry 1 must be a list of 2 bases"):
            subspace_family_from_json({"n": 2, "d": 2, "entries": [[[]]]})

    def test_basis_not_a_list_of_rows_rejected(self):
        with pytest.raises(FormatError, match="not a list of rows"):
            subspace_family_from_json({"n": 2, "d": 2, "entries": [[[1, 0], []]]})

    def test_row_of_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            subspace_family_from_json({"n": 2, "d": 2, "entries": [[[[1, 0, 0]], []]]})

    def test_coordinate_past_the_digit_limit_is_format_error(self):
        with pytest.raises(FormatError, match="bad rational"):
            subspace_family_from_json({"n": 2, "d": 2, "entries": [[[["9" * 5000, "0"]], []]]})

    @pytest.mark.parametrize(
        "x", ["1e100000000", "1E+100000000", "1e-100000000", "1e1_0000_0000", "1e4301", " 1E-4301 "]
    )
    def test_decimal_exponent_past_the_digit_limit_is_format_error(self, x):
        # Fraction would first compute 10**exponent, which takes minutes at 10^8
        with pytest.raises(FormatError, match="decimal exponent beyond 4300"):
            subspace_family_from_json({"n": 2, "d": 2, "entries": [[[[x, 0]], []]]})

    def test_decimal_exponents_within_the_limit_read(self):
        f = subspace_family_from_json({"n": 3, "d": 2, "entries": [[[["1e3", "1E-2", "1e4300"]], []]]})
        assert f.entries[0][0].basis == ((1000, Fraction(1, 100), 10**4300),)

    def test_integer_coordinates_read_as_ints(self):
        f = subspace_family_from_json({"n": 2, "d": 2, "entries": [[[[1, "-2"]], [["1/2", 0]]]]})
        a, b = f.entries[0]
        assert a.basis == ((1, -2),) and all(type(x) is int for x in a.basis[0])
        assert b.basis == ((Fraction(1, 2), 0),) and b.rows == ((1, 0),)
