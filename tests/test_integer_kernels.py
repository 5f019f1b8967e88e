"""Differential tests: the integer kernels against the original `Fraction` code.

`fraction_oracles` keeps the implementations the integer pipeline replaced;
every kernel must give the same rank, the same pivot rows, the same image
dimensions and the same evaluation matrix on rational inputs.
"""

from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from bollobas import GeneralPositionMap, SubspaceFamily, SubspaceRep, evaluation_matrix, rank
from bollobas.exterior import _det, _independent, _pivot_rows, _rank
from certificate_oracles import bareiss, shared_rows
from subspace_strategies import meeting_families

# small values and zeros make dependent rows and dimension drops common
entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def matrices(draw, ncols=None, max_rows=6):
    """Rational matrices, some rows of which repeat or combine earlier rows."""
    if ncols is None:
        ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("new", "combined", "repeated"))) if rows else "new"
        if kind == "combined":
            coeffs = [Fraction(draw(entries)) for _ in rows]
            rows.append([sum(c * r[col] for c, r in zip(coeffs, rows)) for col in range(ncols)])
        elif kind == "repeated":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([Fraction(draw(entries)) for _ in range(ncols)])
    return ncols, rows


# square-ish, wide (more columns than rows), tall (more rows than columns)
# and large, where a row often skips a pivot column before it meets another
shaped_matrices = st.one_of(
    matrices(),
    st.integers(6, 10).flatmap(lambda n: matrices(ncols=n, max_rows=4)),
    st.integers(1, 3).flatmap(lambda n: matrices(ncols=n, max_rows=12)),
    st.integers(6, 8).flatmap(lambda n: matrices(ncols=n, max_rows=10)),
)


@st.composite
def square_matrices(draw):
    """Integer k x k matrices, k = 5..8, with entries up to 10**20.

    Rows may start with zeros: a row that starts past an earlier pivot column
    is only scaled at that pivot, and the pivot columns come out of order,
    which sets the sign.  Some matrices are singular, by a zero column or by a
    row that combines two others.
    """
    k = draw(st.integers(5, 8))
    values = st.integers(-3, 3) | st.integers(-(10**20), 10**20)
    rows = []
    for _ in range(k):
        zeros = draw(st.integers(0, k - 1))
        rows.append([0] * zeros + [draw(values) for _ in range(k - zeros)])
    singular = draw(st.sampled_from((None, "zero column", "combined")))
    if singular == "zero column":
        col = draw(st.integers(0, k - 1))
        for row in rows:
            row[col] = 0
    elif singular == "combined":
        i, j, r = draw(st.permutations(range(k)))[:3]
        rows[r] = [a - 2 * b for a, b in zip(rows[i], rows[j])]
    return rows


@st.composite
def subspaces(draw, n):
    """A SubspaceRep of Q^n with a rational basis."""
    _, rows = draw(matrices(ncols=n, max_rows=n))
    return SubspaceRep(n, oracle.row_basis(rows))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_kernel_matches_fraction_elimination(m):
    _, rows = m
    want = oracle.rank(rows)
    assert rank(rows) == want
    assert _rank(oracle.int_rows(rows)[0]) == want


@settings(max_examples=300, deadline=None)
@given(shaped_matrices)
def test_pivot_rows_match_rank_per_row_loop(m):
    ncols, rows = m
    want = oracle.row_basis(rows)
    kept = _pivot_rows(oracle.int_rows(rows)[0], ncols)
    assert tuple(tuple(Fraction(x) for x in rows[i]) for i in kept) == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3) | st.integers(-(10**20), 10**20), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ),
    st.booleans(),
)
def test_det_closed_form_at_four_matches_bareiss_and_laplace(rows, dependent):
    if dependent:  # a repeated row combination makes the determinant zero
        rows = rows[:3] + [[a - 2 * b for a, b in zip(rows[0], rows[2])]]
    want = oracle.det(rows)
    assert _det(rows) == bareiss(rows) == want
    assert _det([tuple(r) for r in rows]) == want


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_elimination_matches_bareiss_and_laplace(rows):
    want = bareiss(rows)
    assert _det(rows) == want
    if len(rows) <= 6:  # Laplace expansion takes k! products
        assert want == oracle.det(rows)


@st.composite
def independence_cases(draw):
    """(rows, ncols) integer matrices of every shape `_independent` tells
    apart: no rows, a zero row, k x k squares for k = 2..4, singular (a row
    combines two others, or repeats one) or not, wide (k < ncols) and tall
    (k > ncols) stacks."""
    values = st.integers(-3, 3) | st.integers(-(10**20), 10**20)
    shape = draw(st.sampled_from(("empty", "zero row", "square", "singular square", "wide", "tall")))
    event(shape)
    if shape == "empty":
        return [], draw(st.integers(0, 5))
    if shape in ("square", "singular square"):
        k = ncols = draw(st.integers(2, 4))
    elif shape == "wide":
        ncols = draw(st.integers(2, 6))
        k = draw(st.integers(1, ncols - 1))
    elif shape == "tall":
        ncols = draw(st.integers(1, 4))
        k = draw(st.integers(ncols + 1, 6))
    else:
        ncols = draw(st.integers(1, 5))
        k = draw(st.integers(1, 5))
    rows = [tuple(draw(values) for _ in range(ncols)) for _ in range(k)]
    if shape == "zero row":
        rows[draw(st.integers(0, k - 1))] = (0,) * ncols
    elif shape == "singular square":
        # at k = 2 the second row is minus the first
        i, j, r = draw(st.permutations(range(k)))[:3] if k > 2 else (0, 0, 1)
        rows[r] = tuple(a - 2 * b for a, b in zip(rows[i], rows[j]))
    return rows, ncols


@settings(max_examples=500, deadline=None)
@given(independence_cases())
def test_independent_matches_rank(case):
    rows, ncols = case
    want = _rank(rows) == len(rows)
    assert _independent(rows, ncols) is want
    event("independent" if want else "dependent")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subspace_rows_are_cleared_basis_rows(data):
    n = data.draw(st.integers(1, 5))
    sp = data.draw(subspaces(n))
    cleared, scale = oracle.int_rows(sp.basis)
    assert sp.rows == tuple(tuple(r) for r in cleared)
    assert all(type(x) is int for r in sp.rows for x in r)
    assert sp.scale == scale


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_image_dims_match_apply_rows_then_rank(data):
    n = data.draw(st.integers(1, 5))
    target = data.draw(st.integers(1, n))
    matrix = tuple(
        tuple(data.draw(st.integers(-2, 2)) for _ in range(target)) for _ in range(n)
    )
    sp = data.draw(subspaces(n))
    phi = GeneralPositionMap(n, target, matrix, 0)
    want_rows = oracle.apply_rows(matrix, sp.basis)
    image = phi.image(sp)
    assert image.dim == oracle.rank(want_rows)
    # the image basis spans exactly the Fraction images
    assert oracle.rank(list(image.basis) + want_rows) == image.dim
    assert phi.apply_rows(sp.basis) == [tuple(r) for r in want_rows]


@st.composite
def lines_in_q3(draw):
    """Type (1, 1, 1) in Q^3: each entry's lines are the rows of M + tI, with t
    the first of 0..3 that is not a root of det(M + tI), a monic cubic in t."""
    n, d = 3, 3
    entries_ = []
    for _ in range(draw(st.integers(1, 3))):
        square = [[Fraction(draw(entries)) for _ in range(n)] for _ in range(n)]
        for t in range(4):
            rows = [[x + t * (r == c) for c, x in enumerate(row)] for r, row in enumerate(square)]
            if oracle.det(rows) != 0:
                break
        entries_.append(tuple(SubspaceRep(n, (tuple(r),)) for r in rows))
    return SubspaceFamily(n, d, tuple(entries_))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluation_matrix_matches_fraction_determinants(data):
    # lines in Q^3, or families whose parts may meet through different rows
    f = data.draw(lines_in_q3() | meeting_families())
    sizes = f.uniform_type()
    maps = {
        k: GeneralPositionMap(
            f.n,
            sum(sizes[:k]),
            tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(sum(sizes[:k]))) for _ in range(f.n)),
            0,
        )
        for k in range(2, f.d + 1)
    }
    got = evaluation_matrix(f, maps)
    assert got == oracle.evaluation_matrix(f, maps)
    table = shared_rows(f)
    for i, row in enumerate(got):
        for j, x in enumerate(row):
            if table[i] >> j & 1:
                event("a zero cell from a shared row")
            elif x == 0:
                event("a zero cell without a shared row")
