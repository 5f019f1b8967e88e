"""Exact exterior algebra over the rationals.

A *blade* is the wedge product of an ordered list of row vectors, represented
by its vector of k x k minors indexed by the k-subsets of columns in
lexicographic order.  The wedge of k = n vectors is the determinant; the
empty wedge is the unit scalar.  The wedge is zero exactly when the vectors
are dependent; `is_independent` tests that by rank, not by all C(n, k) minors.

Ranks, pivot rows and determinants all read one fraction-free (Bareiss)
elimination, `_echelon`, on denominator-cleared integer matrices, exact at
any size that fits in memory; determinants up to 4 x 4 use closed forms
instead.  The subspace code tests independence with `_independent`, which
eliminates only when no closed form decides: no rows are independent, one
row is iff it is nonzero, and a square stack up to 4 x 4 is iff its
closed-form determinant is nonzero.  Every front end that takes rational
rows (`det`, `rank`, `is_independent`, `wedge`, `SubspaceRep`) checks their
lengths and clears their denominators once, in `_cleared`; the integer
kernels `_rank`, `_pivot_rows`, `_independent` and `_det` are what the
subspace code calls, on the integer rows every `SubspaceRep` keeps, and
`wedge` takes each minor with `_det`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, DomainError
from .wire import rational

Rational = Fraction | int | str

#: A rational row vector; a `SubspaceRep` basis row may hold ints as well as
#: Fractions (the lift builds integer rows, and so does the JSON reader for
#: integer coordinates).
Vec = tuple[Fraction | int, ...]
IntRow = tuple[int, ...]


def _fraction(x: Rational) -> Fraction:
    """x as a Fraction; a string is read by `wire.rational`, which refuses a
    malformed one, or one with a decimal exponent past its limit, with
    FormatError before `Fraction` computes the power of ten."""
    return rational(x) if isinstance(x, str) else Fraction(x)


def _cleared(rows: Sequence[Sequence[Rational]], ncols: int) -> tuple[list[IntRow], int]:
    """Each row, which must have `ncols` entries, times the lcm of its
    denominators (a row of ints alone is kept as it is); return those integer
    rows and the product of the row factors."""
    out = []
    scale = 1
    for row in rows:
        if len(row) != ncols:
            raise DimensionError(f"row of length {len(row)} where {ncols} entries are needed")
        if all(type(x) is int for x in row):
            out.append(tuple(row))
            continue
        fr = [_fraction(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in fr))
        out.append(tuple(x.numerator * (lcm // x.denominator) for x in fr))
        scale *= lcm
    return out, scale


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty matrix): closed
    forms up to 4 x 4, then the last pivot of `_echelon`."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if k == 3:
        a, b, c = rows[0]
        p, q, r = rows[1]
        x, y, z = rows[2]
        return a * (q * z - r * y) - b * (p * z - r * x) + c * (p * y - q * x)
    if k == 4:
        # Laplace expansion along the first two rows: each 2 x 2 minor on
        # columns S times its complementary minor on the last two rows
        a0, a1, a2, a3 = rows[0]
        b0, b1, b2, b3 = rows[1]
        c0, c1, c2, c3 = rows[2]
        e0, e1, e2, e3 = rows[3]
        return (
            (a0 * b1 - a1 * b0) * (c2 * e3 - c3 * e2)
            - (a0 * b2 - a2 * b0) * (c1 * e3 - c3 * e1)
            + (a0 * b3 - a3 * b0) * (c1 * e2 - c2 * e1)
            + (a1 * b2 - a2 * b1) * (c0 * e3 - c3 * e0)
            - (a1 * b3 - a3 * b1) * (c0 * e2 - c2 * e0)
            + (a2 * b3 - a3 * b2) * (c0 * e1 - c1 * e0)
        )
    steps = _echelon(rows, k)
    if len(steps) < k:
        return 0
    # the last pivot is the determinant with the columns in pivot order
    cols = [col for _, col, _ in steps]
    inversions = sum(a > b for a, b in itertools.combinations(cols, 2))
    return (-1) ** inversions * steps[-1][2][cols[-1]]


def det(rows: Sequence[Sequence[Rational]]) -> Fraction:
    """Exact determinant of a square rational matrix (1 for the empty matrix)."""
    m, scale = _cleared(rows, len(rows))
    return Fraction(_det(m), scale)


def _echelon(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, int, Sequence[int]]]:
    """(index, pivot column, reduced row) of each integer row that is
    independent of all rows before it, by one fraction-free elimination.

    Each row v is reduced against the pivot rows r_j kept so far, with pivot
    column c_j and pivot p_j = r_j[c_j] (p_0 = 1), by
    v <- (p_j v - v[c_j] r_j) / p_(j-1), and kept with its first nonzero column
    as pivot if anything is left.  Every division is exact (Bareiss 1968):
    after step j, entry c of v is the minor of the first j kept rows and v, as
    given, on columns c_1..c_j, c.  So a row with v[c_j] = 0 is still scaled
    by p_j / p_(j-1), or a later division would not be exact.
    """
    pivots: list[tuple[int, int, Sequence[int]]] = []
    for idx, v in enumerate(rows):
        before = 1
        for _, col, pr in pivots:
            lead, f = pr[col], v[col]
            if f:
                v = [(a * lead - b * f) // before for a, b in zip(v, pr)]
            elif lead != before:
                v = [a * lead // before for a in v]
            before = lead
        for col, x in enumerate(v):
            if x:
                pivots.append((idx, col, v))
                break
        if len(pivots) == ncols:
            break
    return pivots


def _pivot_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Indices of the integer rows that are independent of all rows before them."""
    return [idx for idx, _, _ in _echelon(rows, ncols)]


def _independent(rows: Sequence[Sequence[int]], ncols: int) -> bool:
    """True iff the integer rows, of `ncols` entries each, are linearly
    independent, by the cheapest exact test: no rows are; one row is iff it
    is nonzero; a square stack up to 4 x 4 is iff its closed-form `_det` is
    nonzero; any other stack is iff `_echelon` keeps every row as a pivot."""
    k = len(rows)
    if k == 0:
        return True
    if k == 1:
        return any(rows[0])
    if k == ncols <= 4:
        return _det(rows) != 0
    return len(_echelon(rows, ncols)) == k


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Row rank of an integer matrix (the integer kernel behind `rank`)."""
    return len(_pivot_rows(rows, len(rows[0]))) if rows else 0


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Exact row rank of a rational matrix."""
    return _rank(_cleared(rows, len(rows[0]))[0]) if rows else 0


@dataclass(frozen=True)
class Blade:
    """A wedge product of row vectors in Q^n, stored as its minors over lexicographic k-subsets."""

    n: int
    coords: tuple[Fraction, ...]


def wedge(vectors: Sequence[Sequence[Rational]], n: int | None = None) -> Blade:
    """Wedge the given row vectors into a blade of minors.

    With k = n vectors the single coordinate is the determinant; with
    k = 0 the blade is the unit scalar (coordinate vector (1,)).  The rows
    are cleared once; each coordinate is an integer minor over the scale.
    """
    if n is None:
        if not vectors:
            raise DimensionError("ambient dimension required for an empty wedge")
        n = len(vectors[0])
    rows, scale = _cleared(vectors, n)
    k = len(rows)
    if k > n:
        raise DimensionError(f"cannot wedge {k} vectors in dimension {n}")
    coords = tuple(
        Fraction(_det([[r[c] for c in cols] for r in rows]), scale)
        for cols in itertools.combinations(range(n), k)
    )
    return Blade(n, coords)


def is_independent(vectors: Sequence[Sequence[Rational]]) -> bool:
    """Linear independence test: the wedge is nonzero iff the vectors are
    independent, that is iff their rank is their count."""
    return rank(vectors) == len(vectors)


@dataclass(frozen=True)
class SubspaceRep:
    """A subspace of Q^n given by an independent basis of row vectors (dim = row count).

    A basis row may hold ints, Fractions, "p/q" strings or any mix of them.
    `basis` holds each row as a tuple of ints and Fractions, so two
    spellings of one basis compare and hash alike: a basis of integer values
    is its integer rows, and in any other basis each string is read as its
    Fraction.  At construction each basis row is scaled by the lcm of its
    denominators (a row of ints alone is kept as it is): `rows` holds those
    integer rows (same span, row for row) and `scale` the product of the row
    factors, so a determinant of `rows` is `scale` times the determinant of
    `basis`.  Every rank and projection runs on `rows`.
    """

    n: int
    basis: tuple[Vec, ...]
    rows: tuple[IntRow, ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, scale = _cleared(self.basis, self.n)
        rows = tuple(rows)
        basis = rows  # scale 1: no entry has a denominator past 1
        if scale != 1:
            basis = tuple(tuple(x if type(x) in (int, Fraction) else _fraction(x) for x in row) for row in self.basis)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)
        if not _independent(rows, self.n):
            raise DomainError("basis rows are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def sum_rank(*spaces: SubspaceRep) -> int:
    """dim of the sum of the given subspaces (rank of stacked bases); 0, the
    dimension of the zero space, for none."""
    rows: list[IntRow] = []
    for sp in spaces:
        if sp.n != spaces[0].n:
            raise DimensionError("subspaces in different ambient dimensions")
        rows += sp.rows
    return _rank(rows)


def intersection_dim(a: SubspaceRep, b: SubspaceRep) -> int:
    """dim(a ∩ b) = dim a + dim b - dim(a + b)."""
    return a.dim + b.dim - sum_rank(a, b)
