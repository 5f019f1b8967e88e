"""The original `Fraction` implementations of the exact kernels, kept as test oracles.

The package computes ranks, pivot rows, projections and determinants on
denominator-cleared integer rows.  These are the straightforward versions
they replaced: every row is coerced to `Fraction`, `rank` clears denominators
on each call, `row_basis` recomputes the rank once per row, and projections
multiply `Fraction` rows by the map's matrix, and `wedge` reads every entry
as a `Fraction` and takes the rational determinant of each minor on its own.
`recursive_bound` is the recursion that the package's one integer sum unrolls.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from bollobas import exterior


def int_rows(rows):
    """Clear denominators row by row; return integer rows and the product of row scalings."""
    out = []
    scale = Fraction(1)
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in fr])
        scale *= lcm
    return out, scale


def rank(rows) -> int:
    """Row rank by fraction-free forward elimination over cleared rows."""
    if not rows:
        return 0
    ncols = len(rows[0])
    m, _ = int_rows(rows)
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        for i in range(r + 1, len(m)):
            factor = m[i][col]
            if factor == 0:
                continue
            lead = pr[col]
            row = m[i]
            for c2 in range(col, ncols):
                row[c2] = row[c2] * lead - pr[c2] * factor
            g = 0
            for x in row:
                g = math.gcd(g, x)
            if g > 1:
                for c2 in range(ncols):
                    row[c2] //= g
        r += 1
        if r == len(m):
            break
    return r


def row_basis(rows):
    """The rows that raise the rank of the rows kept before them, one rank call per row."""
    basis = []
    for r in (tuple(Fraction(x) for x in row) for row in rows):
        if rank(basis + [r]) > len(basis):
            basis.append(r)
    return tuple(basis)


def apply_rows(matrix, rows):
    """Images of `Fraction` rows under the integer matrix (row vector times matrix)."""
    n, target = len(matrix), len(matrix[0])
    return [
        [sum(Fraction(row[i]) * matrix[i][c] for i in range(n)) for c in range(target)]
        for row in rows
    ]


def det(rows) -> Fraction:
    """Determinant by Laplace expansion along the first row."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for c in range(k):
        minor = [[row[j] for j in range(k) if j != c] for row in rows[1:]]
        total += (-1) ** c * Fraction(rows[0][c]) * det(minor)
    return total


def wedge(vectors, n=None):
    """Blade coordinates minor by minor: the rows read by `Fraction`, then
    the rational `exterior.det` of the k x k minor on each k-subset of
    columns, in lexicographic order."""
    gens = [tuple(map(Fraction, v)) for v in vectors]
    if n is None:
        n = len(gens[0])
    return tuple(
        exterior.det([[g[c] for c in cols] for g in gens])
        for cols in itertools.combinations(range(n), len(gens))
    )


def evaluation_matrix(f, maps):
    """Entry (i, j) is the product over stages k of det of the `Fraction` images of
    entry i's first k - 1 bases stacked on entry j's k-th basis."""
    m = len(f.entries)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            value = Fraction(1)
            for k in range(2, f.d + 1):
                phi = maps[k]
                stacked = []
                for p in range(k - 1):
                    stacked.extend(apply_rows(phi.matrix, f.entries[i][p].basis))
                stacked.extend(apply_rows(phi.matrix, f.entries[j][k - 1].basis))
                value *= det(stacked)
            row.append(value)
        out.append(tuple(row))
    return tuple(out)


def recursive_bound(n: int, d: int) -> Fraction:
    """B(n, 2) = 1 and B(n, d) = C(n+d-2, d-2)/(d-1) + (d-2) * B(n, d-1), one Fraction per step."""
    bound = Fraction(1)
    for dd in range(3, d + 1):
        bound = Fraction(math.comb(n + dd - 2, dd - 2), dd - 1) + (dd - 2) * bound
    return bound
