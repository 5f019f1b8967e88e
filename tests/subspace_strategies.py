"""Hypothesis strategies for uniform subspace families, shared by the
differential tests of the certificate code and of the integer kernels."""

from fractions import Fraction

from hypothesis import strategies as st

from bollobas import SubspaceFamily, SubspaceRep


@st.composite
def coefficients(draw, rational):
    if not rational:
        return draw(st.integers(-3, 3))
    return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))


@st.composite
def uniform_families(draw, types=None):
    """Uniform subspace families with d = 2..4 and m = 1..5: each part is
    spanned by the rows of an invertible matrix at the part's elements.

    The type is drawn from `types`, or else has d = 2..4 parts of 0..2
    elements, 1..5 in all.  The matrix is the identity (a lifted set family),
    an integer unimodular one (rows mixed by integer row operations), or a
    rational one (rows mixed by rational row operations and scaled by nonzero
    rationals).  Entries may repeat, and the ambient dimension may exceed the
    sum of the part sizes.
    """
    if types is None:
        d = draw(st.integers(2, 4))
        sizes = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d).filter(lambda s: 0 < sum(s) <= 5))
    else:
        sizes = draw(types)
        d = len(sizes)
    n = sum(sizes) + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["lifted", "rotated", "rational"]))
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    if kind != "lifted" and n:
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), coefficients(kind == "rational"))
        for i, j, c in draw(st.lists(ops, max_size=2 * n)):
            if i != j:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if kind == "rational":
        scales = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
        for r in range(n):
            if draw(st.booleans()):
                scale = draw(scales)
                rows[r] = [scale * a for a in rows[r]]
    entries = []
    for order in draw(st.lists(st.permutations(range(n)), min_size=1, max_size=5)):
        parts, start = [], 0
        for size in sizes:
            parts.append(SubspaceRep(n, tuple(tuple(rows[e]) for e in order[start : start + size])))
            start += size
        entries.append(tuple(parts))
    return SubspaceFamily(n, d, tuple(entries))


@st.composite
def meeting_families(draw):
    """Families as `uniform_families` draws them, with some parts given
    another basis of the same subspace: each row scaled by a nonzero rational
    and mixed with the part's other rows.

    Every subspace, and so every intersection, is kept, but parts that met
    through a shared basis row may now meet through different ones: through
    proportional rows such as (1, 1) and (2, 2), through a line inside a
    plane spanned by other rows, or through rational rows that clear to
    different integer rows, such as (3/2, 3/2) to (3, 3) against (1, 1).
    `uniform_families` alone draws every part from the rows of one matrix,
    so its parts meet only through shared rows.
    """
    f = draw(uniform_families())
    scales = st.sampled_from([Fraction(x) for x in (1, -1, 2, -3, "1/2", "3/2", "-2/3")])
    entries = []
    for e in f.entries:
        parts = []
        for sp in e:
            basis = []
            for row in sp.basis:
                scale = draw(scales)
                basis.append([scale * x for x in row])
            if len(basis) > 1:
                index = st.integers(0, len(basis) - 1)
                for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=2)):
                    if i != j:
                        basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
            parts.append(SubspaceRep(f.n, tuple(map(tuple, basis))))
        entries.append(tuple(parts))
    return SubspaceFamily(f.n, f.d, tuple(entries))
