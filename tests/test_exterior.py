import math
import random
import time
from fractions import Fraction

import pytest

import fraction_oracles
from bollobas import (
    DimensionError,
    SubspaceRep,
    det,
    intersection_dim,
    is_independent,
    rank,
    subspace_family_from_json,
    wedge,
)
from bollobas import exterior
from bollobas.errors import DomainError, FormatError
from bollobas.exterior import sum_rank
from bollobas.wire import rational


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


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "front_end",
    [det, rank, is_independent, wedge, lambda rows: SubspaceRep(3, tuple(map(tuple, rows)))],
    ids=["det", "rank", "is_independent", "wedge", "SubspaceRep"],
)
def test_ragged_row_is_dimension_error(front_end, position):
    # one row of two entries among rows of three, integer or rational
    rows = [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, "1/3"]]
    rows[position] = rows[position][1:]
    with pytest.raises(DimensionError):
        front_end(rows)


def proportional(a, b):
    """True iff the coordinate vectors a and b are proportional (2 x 2 minors vanish)."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


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
        # past the closed forms: huge entries, rows that start with zeros
        # (pivot columns out of order) and singular matrices (a zero first
        # column, a combined row)
        for trial in range(60):
            k = rng.randint(5, 6)
            bound = rng.choice((4, 10**20))
            rows = [
                [0] * (z := rng.randint(0, k - 1)) + [rng.randint(-bound, bound) for _ in range(k - z)]
                for _ in range(k)
            ]
            if trial % 3 == 1:
                rows = [[0] + row[1:] for row in rows]
            elif trial % 3 == 2:
                rows[-1] = [a + 3 * b for a, b in zip(rows[0], rows[1])]
            assert det(rows) == oracle_det(rows)

    def test_det_with_fractions(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert det(rows) == oracle_det(rows)

    def test_det_needs_square(self):
        with pytest.raises(DimensionError):
            det([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_det_swaps_past_zero_pivots(self, k):
        # the cyclic shift has zeros on the diagonal, so the pivot columns
        # come out of order
        rows = [[int(c == (r + 1) % k) for c in range(k)] for r in range(k)]
        assert det(rows) == (-1) ** (k - 1)
        # row r starts with a prime at column k - 1 - r, so the pivot columns
        # run backwards; it is zero at the previous row's pivot column, where
        # the elimination only scales it, and one at every pivot column before
        primes = [2, 3, 5, 7, 11, 13, 17, 19][:k]
        rows = [[0] * (k - 1 - r) + [p] + [0] * min(r, 1) + [1] * (r - 1) for r, p in enumerate(primes)]
        assert det(rows) == (-1) ** (k * (k - 1) // 2) * math.prod(primes)

    def test_det_scales_with_one_row(self):
        rng = random.Random(11)
        for _ in range(30):
            k = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            i = rng.randrange(k)
            scaled = list(rows)
            scaled[i] = [Fraction(x, 3) for x in rows[i]]
            assert det(scaled) == det(rows) / 3

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

    def test_rank_with_fractions_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            assert rank(rows) == oracle_rank(rows)


class TestWedge:
    def test_full_grade_is_determinant(self):
        b = wedge([(1, 0), (0, 1)])
        assert b.coords == (Fraction(1),)

    def test_repeated_vector_is_zero(self):
        b = wedge([(1, 2, 3), (1, 2, 3)])
        assert not any(b.coords)

    def test_hand_computed_minors(self):
        b = wedge([(1, 0, 0), (0, 1, 1)])
        # subsets {1,2}, {1,3}, {2,3}
        assert b.coords == (Fraction(1), Fraction(1), Fraction(0))

    def test_too_many_vectors(self):
        with pytest.raises(DimensionError):
            wedge([(1, 0), (0, 1), (1, 1)])

    def test_wrong_length_for_given_dimension(self):
        with pytest.raises(DimensionError):
            wedge([(1, 0)], 3)

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 1), (4, 2), (5, 3), (5, 5)])
    def test_one_minor_per_column_subset(self, n, k):
        rows = [[int(c == r) for c in range(n)] for r in range(k)]
        assert len(wedge(rows, n).coords) == math.comb(n, k)

    def test_single_vector_coords_are_its_entries(self):
        assert wedge([(3, -1, Fraction(1, 2))]).coords == (3, -1, Fraction(1, 2))

    def test_string_and_fraction_entries(self):
        assert wedge([("1/2", 0), (0, "2")]).coords == (Fraction(1),)
        assert wedge([(Fraction(1, 3), 1, 0), (0, 0, 2)]).coords == (
            Fraction(0),
            Fraction(2, 3),
            Fraction(2),
        )

    def test_zero_vector_wedge_is_zero(self):
        assert not any(wedge([(0, 0, 0), (1, 2, 3)]).coords)

    def test_stacked_rows_wedge_is_determinant(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert wedge(rows, n).coords == (oracle_det(rows),)

    def test_zero_iff_rows_dependent(self):
        assert not any(wedge([(1, 1, 0), (2, 2, 0)]).coords)
        assert any(wedge([(1, 1, 0), (0, 1, 1)]).coords)

    def test_scaling_one_row_scales_every_minor(self):
        base = wedge([(1, 2, 0), (0, 1, 1)]).coords
        assert wedge([(3, 6, 0), (0, 1, 1)]).coords == tuple(3 * c for c in base)

    @pytest.mark.parametrize("kind", ["int", "fraction", "string", "bool", "mixed"])
    def test_matches_per_minor_oracle(self, kind):
        rng = random.Random(kind)
        entries = {
            "int": lambda: rng.choice((rng.randint(-5, 5), rng.randint(-(10**20), 10**20))),
            "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
            "string": lambda: f"{rng.randint(-5, 5)}/{rng.randint(1, 6)}",
            "bool": lambda: rng.random() < 0.5,
        }
        draws = list(entries.values())
        entry = entries.get(kind, lambda: rng.choice(draws)())
        for n in range(1, 7):
            for k in range(n + 1):
                for _ in range(3):
                    rows = [[entry() for _ in range(n)] for _ in range(k)]
                    want = fraction_oracles.wedge(rows, n)
                    got = wedge(rows, n).coords
                    assert got == want and all(type(c) is Fraction for c in got)
                    if k:
                        assert wedge(rows).coords == want

    def test_wedge_needs_no_rational_determinant(self, monkeypatch):
        # the rows are cleared once and each minor is an integer determinant
        def refuse(rows):
            raise AssertionError("wedge took a rational determinant")

        monkeypatch.setattr(exterior, "det", refuse)
        assert wedge([(1, 0, 0), (0, "1/2", 1)]).coords == (Fraction(1, 2), Fraction(1), Fraction(0))
        assert wedge([(1, 2), (3, Fraction(4))]).coords == (Fraction(-2),)
        assert wedge([], 2).coords == (Fraction(1),)

    def test_empty_wedge_is_unit_scalar(self):
        assert wedge([], 3).coords == (Fraction(1),)

    def test_empty_wedge_needs_dimension(self):
        with pytest.raises(DimensionError, match="ambient dimension required"):
            wedge([])

    def test_empty_set_is_independent(self):
        assert is_independent([]) is True

    def test_independence_needs_no_determinant(self, monkeypatch):
        # a rank of the cleared rows, not a wedge of all C(n, k) minors
        def refuse(rows):
            raise AssertionError("is_independent took a determinant")

        monkeypatch.setattr(exterior, "_det", refuse)
        rng = random.Random(5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(18)] for _ in range(9)]
        assert is_independent(rows) is (oracle_rank(rows) == 9)
        assert is_independent(rows + [[a - b for a, b in zip(rows[0], rows[8])]]) is False
        assert is_independent(rows[:1] * 2) is False

    def test_independence_matches_rank_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            k = rng.randint(1, 4)
            n = rng.randint(k, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            assert is_independent(rows) == (oracle_rank(rows) == k)

    def test_more_vectors_than_dimension_are_dependent(self):
        assert is_independent([(1, 0), (0, 1), (1, 1)]) is False

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


class TestSubspaceWedges:
    """The wedge of a subspace basis: its Plücker coordinates, fixed up to scale."""

    def test_two_bases_of_one_plane_proportional(self):
        w1 = SubspaceRep(3, ((1, 0, 1), (0, 1, 0)))
        w2 = SubspaceRep(3, ((1, 1, 1), (2, -1, 2)))
        b1 = wedge(w1.basis, 3).coords
        b2 = wedge(w2.basis, 3).coords
        assert proportional(b1, b2)
        # the factor is the determinant of the change of basis
        assert b2 == tuple(-3 * c for c in b1)

    def test_different_planes_not_proportional(self):
        w1 = SubspaceRep(3, ((1, 0, 0), (0, 1, 0)))
        w2 = SubspaceRep(3, ((1, 0, 0), (0, 0, 1)))
        assert not proportional(wedge(w1.basis, 3).coords, wedge(w2.basis, 3).coords)

    def test_zero_dimensional_subspace_is_unit(self):
        w = SubspaceRep(3, ())
        assert wedge(w.basis, w.n).coords == (Fraction(1),)

    def test_coordinate_plane_minors(self):
        w = SubspaceRep(3, ((1, 0, 0), (0, 0, 1)))
        coords = wedge(w.basis, 3).coords
        nonzero = [i for i, c in enumerate(coords) if c != 0]
        assert nonzero == [1]  # the {1,3} minor, lexicographically second

    def test_integer_rows_scale_the_wedge(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)] for _ in range(k)]
            if not is_independent(rows):
                continue
            w = SubspaceRep(n, tuple(rows))
            assert wedge(w.rows, n).coords == tuple(w.scale * c for c in wedge(w.basis, n).coords)


class TestSubspaceRep:
    def test_dependent_basis_rejected(self):
        with pytest.raises(DomainError):
            SubspaceRep(2, ((1, 2), (2, 4)))

    def test_integer_basis_is_its_own_rows(self):
        w = SubspaceRep(3, ((1, 2, 3), (0, 1, 0)))
        assert w.rows == w.basis and w.scale == 1 and w.dim == 2

    def test_fraction_rows_cleared_row_by_row(self):
        w = SubspaceRep(3, ((Fraction(1, 2), Fraction(1, 3), 0), (0, Fraction(1, 4), 1)))
        assert w.rows == ((3, 2, 0), (0, 1, 4))
        assert w.scale == 6 * 4

    def test_string_rows_read_as_rationals(self):
        w = SubspaceRep(2, (("1/2", "-3"),))
        assert w.rows == ((1, -6),) and w.scale == 2

    @pytest.mark.parametrize(
        "read",
        [
            lambda x: SubspaceRep(1, ((x,),)),
            lambda x: det([[x]]),
            lambda x: rank([[x]]),
            lambda x: wedge([[x]]),
            lambda x: is_independent([[x]]),
            rational,
            lambda x: subspace_family_from_json({"n": 1, "d": 1, "entries": [[[[x]]]]}),
        ],
        ids=[
            "SubspaceRep", "det", "rank", "wedge", "is_independent", "rational", "subspace_family_from_json",
        ],
    )
    def test_huge_decimal_exponent_is_format_error_at_once(self, read):
        started = time.perf_counter()
        with pytest.raises(FormatError, match="decimal exponent"):
            read("1e3000000")
        assert time.perf_counter() - started < 0.5

    def test_string_int_and_fraction_entries_read_as_before(self):
        entries = ["1/3", "1e3", 2, Fraction(3, 4)]
        want = (Fraction(1, 3), Fraction(1000), Fraction(2), Fraction(3, 4))
        assert wedge([entries]).coords == want
        w = SubspaceRep(4, (tuple(entries),))
        assert w.rows == ((4, 12000, 24, 9),) and w.scale == 12
        assert det([["1/3", 0], [0, "1e3"]]) == Fraction(1000, 3)
        with pytest.raises(FormatError):
            SubspaceRep(1, (("one third",),))

    def test_equality_ignores_integer_rows(self):
        assert SubspaceRep(2, ((1, 0),)) == SubspaceRep(2, ((Fraction(1), Fraction(0)),))
        assert SubspaceRep(2, ((1, 0),)) != SubspaceRep(2, ((2, 0),))

    def test_string_and_fraction_spellings_are_equal_and_hash_alike(self):
        text = SubspaceRep(2, (("1/2", "0"),))
        exact = SubspaceRep(2, ((Fraction(1, 2), 0),))
        assert text == exact and hash(text) == hash(exact)
        assert text.basis == ((Fraction(1, 2), Fraction(0)),)
        assert [type(x) for x in exact.basis[0]] == [Fraction, int]

    def test_list_basis_hashes(self):
        rep = SubspaceRep(2, [[1, 0]])
        assert rep.basis == ((1, 0),) and type(rep.basis[0]) is tuple
        assert hash(rep) == hash(SubspaceRep(2, ((1, 0),)))


class TestSumAndIntersection:
    def test_two_planes_meet_in_a_line(self):
        a = SubspaceRep(3, ((1, 0, 0), (0, 1, 0)))
        b = SubspaceRep(3, ((0, 1, 0), (0, 0, 1)))
        assert sum_rank(a, b) == 3
        assert intersection_dim(a, b) == 1

    def test_line_inside_plane(self):
        plane = SubspaceRep(3, ((1, 0, 1), (0, 1, 0)))
        line = SubspaceRep(3, ((2, 3, 2),))
        assert sum_rank(plane, line) == 2
        assert intersection_dim(plane, line) == 1

    def test_sum_of_no_subspaces_is_the_zero_space(self):
        assert sum_rank() == 0

    def test_sum_rank_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            sum_rank(SubspaceRep(2, ((1, 0),)), SubspaceRep(3, ((1, 0, 0),)))

    def test_intersection_dim_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            intersection_dim(SubspaceRep(2, ((1, 0),)), SubspaceRep(3, ((1, 0, 0),)))

    def test_intersection_dim_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 5)
            parts = []
            for _ in range(2):
                rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
                if not is_independent(rows):
                    rows = []
                parts.append(SubspaceRep(n, tuple(rows)))
            a, b = parts
            stacked = list(a.basis + b.basis)
            assert sum_rank(a, b) == oracle_rank(stacked)
            assert intersection_dim(a, b) == a.dim + b.dim - oracle_rank(stacked)
