"""Differential tests: the distinct-part constraints of `build_phi` against
the per-slot oracle list it replaced."""

import inspect
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import bollobas.certificates as certificates
from bollobas import SubspaceFamily, SubspaceRep

import certificate_oracles

REAL_SAMPLE = certificates.sample_general_position


@st.composite
def coefficients(draw, rational):
    if not rational:
        return draw(st.integers(-3, 3))
    return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))


@st.composite
def uniform_families(draw):
    """Uniform subspace families with d = 2..4 and m = 1..5: each part is
    spanned by the rows of an invertible matrix at the part's elements.

    The matrix is the identity (a lifted set family), an integer unimodular
    one (rows mixed by integer row operations), or a rational one (rows mixed
    by rational row operations and scaled by nonzero rationals).  Entries may
    repeat, and the ambient dimension may exceed the sum of the part sizes.
    """
    d = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d).filter(lambda s: 0 < sum(s) <= 5))
    n = sum(sizes) + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["lifted", "rotated", "rational"]))
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    if kind != "lifted":
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


@settings(max_examples=150, deadline=None)
@given(uniform_families(), st.integers(0, 2**64 - 1))
def test_build_phi_samples_as_the_per_slot_list_did(f, seed):
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(REAL_SAMPLE).bind(*args, **kwargs).arguments)
        return REAL_SAMPLE(*args, **kwargs)

    sizes = f.uniform_type()
    for k in range(2, f.d + 1):
        with mock.patch.object(certificates, "sample_general_position", spy):
            phi = certificates.build_phi(f, k, seed)
        got = calls[-1]
        oracle = certificate_oracles.phi_constraints(f, k)
        assert set(got["constraints"]) == set(oracle)
        assert got["entry_bound"] == 10 * (len(oracle) + 1) * f.n
        want = REAL_SAMPLE(f.n, sum(sizes[:k]), oracle, seed)
        assert phi.matrix == want.matrix
        assert phi.retries == want.retries
