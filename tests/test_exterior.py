import random
import time
from fractions import Fraction

import pytest

from bollobas import (
    DimensionError,
    GradeError,
    SubspaceRep,
    det,
    is_independent,
    rank,
    subspace_blade,
    wedge,
    wedge_concat,
)
from bollobas.errors import DomainError


def oracle_rank(rows):
    """Oracle: plain Gaussian elimination over Fraction, independent of the
    fraction-free implementation under test."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def oracle_det(rows):
    """Oracle: Laplace expansion along the first row."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(k):
        minor = [[row[j] for j in range(k) if j != c] for row in rows[1:]]
        total += (-1) ** c * Fraction(rows[0][c]) * oracle_det(minor)
    return total


class TestDetRank:
    def test_det_small(self):
        assert det([[2]]) == 2
        assert det([[1, 2], [3, 4]]) == -2
        assert det([]) == 1

    def test_det_matches_laplace_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            assert det(rows) == oracle_det(rows)

    def test_det_with_fractions(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert det(rows) == oracle_det(rows)

    def test_det_needs_square(self):
        with pytest.raises(DimensionError):
            det([[1, 2, 3], [4, 5, 6]])

    def test_rank_basics(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([]) == 0

    def test_rank_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(120):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            assert rank(rows) == oracle_rank(rows)


class TestWedge:
    def test_full_grade_is_determinant(self):
        b = wedge([(1, 0), (0, 1)])
        assert b.coords == (Fraction(1),)

    def test_repeated_vector_is_zero(self):
        b = wedge([(1, 2, 3), (1, 2, 3)])
        assert b.is_zero()

    def test_hand_computed_minors(self):
        b = wedge([(1, 0, 0), (0, 1, 1)])
        # subsets {1,2}, {1,3}, {2,3}
        assert b.coords == (Fraction(1), Fraction(1), Fraction(0))

    def test_too_many_vectors(self):
        with pytest.raises(DimensionError):
            wedge([(1, 0), (0, 1), (1, 1)])

    def test_mixed_lengths(self):
        with pytest.raises(DimensionError):
            wedge([(1, 0), (0, 1, 0)])

    def test_independence_matches_rank_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            k = rng.randint(1, 4)
            n = rng.randint(k, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            assert is_independent(rows) == (oracle_rank(rows) == k)

    def test_dependent_pairs(self):
        assert is_independent([(1, 2), (2, 4)]) is False
        assert is_independent([(1, 0), (0, 1)]) is True

    def test_multilinearity_spot_checks(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            u = [rng.randint(-3, 3) for _ in range(n)]
            w = [rng.randint(-3, 3) for _ in range(n)]
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            i = rng.randrange(k)
            mixed = list(base)
            mixed[i] = [x * a + y * b for a, b in zip(u, w)]
            with_u = list(base)
            with_u[i] = u
            with_w = list(base)
            with_w[i] = w
            lhs = wedge(mixed, n).coords
            rhs = tuple(
                x * a + y * b for a, b in zip(wedge(with_u, n).coords, wedge(with_w, n).coords)
            )
            assert lhs == rhs

    def test_alternating_adjacent_swap(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(2, 5)
            k = rng.randint(2, n)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            i = rng.randrange(k - 1)
            swapped = list(rows)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert wedge(swapped, n).coords == tuple(-c for c in wedge(rows, n).coords)


class TestWedgeConcat:
    def test_matches_direct_wedge(self):
        a = wedge([(1, 0, 0)])
        b = wedge([(0, 1, 0)])
        assert wedge_concat(a, b).coords == wedge([(1, 0, 0), (0, 1, 0)]).coords

    def test_zero_iff_union_dependent(self):
        a = wedge([(1, 1, 0)])
        b = wedge([(2, 2, 0)])
        assert wedge_concat(a, b).is_zero()

    def test_scaling_one_side(self):
        a = wedge([(1, 2, 0)])
        scaled = wedge([(3, 6, 0)])
        b = wedge([(0, 1, 1)])
        assert wedge_concat(scaled, b).coords == tuple(3 * c for c in wedge_concat(a, b).coords)

    def test_grade_overflow(self):
        a = wedge([(1, 0), (0, 1)])
        b = wedge([(1, 1)])
        with pytest.raises(GradeError):
            wedge_concat(a, b)

    def test_full_grade_concat_is_stacked_determinant(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            s = rng.randint(1, n - 1)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            a = wedge(rows[:s], n)
            b = wedge(rows[s:], n)
            assert wedge_concat(a, b).coords == (oracle_det(rows),)


class TestSubspaceBlades:
    def test_two_bases_of_one_plane_proportional(self):
        w1 = SubspaceRep.from_rows([(1, 0, 1), (0, 1, 0)], 3)
        w2 = SubspaceRep.from_rows([(1, 1, 1), (2, -1, 2)], 3)
        assert subspace_blade(w1).is_proportional_to(subspace_blade(w2))

    def test_different_planes_not_proportional(self):
        w1 = SubspaceRep.from_rows([(1, 0, 0), (0, 1, 0)], 3)
        w2 = SubspaceRep.from_rows([(1, 0, 0), (0, 0, 1)], 3)
        assert not subspace_blade(w1).is_proportional_to(subspace_blade(w2))

    def test_zero_dimensional_subspace_is_unit(self):
        w = SubspaceRep(3, ())
        b = subspace_blade(w)
        assert b.grade == 0 and b.coords == (Fraction(1),)

    def test_coordinate_plane_minors(self):
        w = SubspaceRep.from_rows([(1, 0, 0), (0, 0, 1)], 3)
        b = subspace_blade(w)
        nonzero = [i for i, c in enumerate(b.coords) if c != 0]
        assert nonzero == [1]  # the {1,3} minor, lexicographically second

    def test_dependent_basis_rejected(self):
        with pytest.raises(DomainError):
            SubspaceRep.from_rows([(1, 2), (2, 4)], 2)

    def test_proportionality_grade_guard(self):
        a = wedge([(1, 0, 0)])
        b = wedge([(1, 0, 0), (0, 1, 0)])
        with pytest.raises(GradeError):
            a.is_proportional_to(b)

    def test_zero_blades_proportional(self):
        a = wedge([(1, 1), (1, 1)])
        b = wedge([(2, 0), (2, 0)])
        assert a.is_proportional_to(b)


class TestBladeJson:
    def test_roundtrip_preserves_queries(self):
        from bollobas import blade_from_json, blade_to_json

        b = wedge([(1, 0, 0), (0, 1, 1)])
        obj = blade_to_json(b)
        assert obj == {"n": 3, "k": 2, "coords": ["1", "1", "0"]}
        back = blade_from_json(obj)
        assert back.grade == 2 and back.is_proportional_to(b)

    def test_wire_blade_cannot_be_wedged(self):
        from bollobas import blade_from_json, blade_to_json
        from bollobas.errors import DomainError

        wire = blade_from_json(blade_to_json(wedge([(1, 0, 0)])))
        with pytest.raises(DomainError):
            wedge_concat(wire, wedge([(0, 1, 0)]))

    def test_wrong_coord_count_rejected(self):
        from bollobas import blade_from_json
        from bollobas.errors import FormatError

        with pytest.raises(FormatError):
            blade_from_json({"n": 3, "k": 2, "coords": ["1"]})


class TestBladeWireChecks:
    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "k": True, "coords": ["2"]},
            {"n": 1, "k": True, "coords": ["2"]},
            {"n": True, "k": 0, "coords": ["1"]},
            {"n": 1, "k": 1, "coords": [True]},
        ],
    )
    def test_booleans_rejected(self, obj):
        from bollobas import blade_from_json
        from bollobas.errors import FormatError

        with pytest.raises(FormatError):
            blade_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": -1, "k": 0, "coords": ["1"]},
            {"n": 3, "k": -1, "coords": []},
            {"n": -2, "k": -1, "coords": []},
            {"n": 2, "k": 3, "coords": []},
        ],
    )
    def test_negative_or_oversized_dimensions_rejected(self, obj):
        from bollobas import blade_from_json
        from bollobas.errors import FormatError

        with pytest.raises(FormatError):
            blade_from_json(obj)

    @pytest.mark.parametrize("k", [3, 5 * 10**3999])
    def test_huge_binomial_is_refused_promptly(self, k):
        from bollobas import blade_from_json
        from bollobas.errors import FormatError

        started = time.perf_counter()
        with pytest.raises(FormatError, match="expected more than 0 coordinates, got 0"):
            blade_from_json({"n": 10**4000, "k": k, "coords": []})
        assert time.perf_counter() - started < 1.0

    def test_too_many_coordinates_name_the_count(self):
        from bollobas import blade_from_json
        from bollobas.errors import FormatError

        with pytest.raises(FormatError, match="expected 3 coordinates, got 4"):
            blade_from_json({"n": 3, "k": 2, "coords": ["1"] * 4})

    @pytest.mark.parametrize("obj", [5, [1, 2], None, "coords"])
    def test_non_object_rejected(self, obj):
        from bollobas import blade_from_json
        from bollobas.errors import FormatError

        with pytest.raises(FormatError):
            blade_from_json(obj)
