"""Differential tests: the span-table stages of `build_phi` and the skew
check against the per-slot oracles they replaced (`certificate_oracles`)."""

import inspect
import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import bollobas.certificates as certificates
from bollobas import RetriesExhausted, SubspaceFamily, SubspaceRep, skew_spaces_violation

import certificate_oracles
import fraction_oracles

REAL_SAMPLE = certificates.sample_general_position
REAL_DRAW = certificates._draw


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


def _outcome(build):
    """The map's target, matrix and retries, or the RetriesExhausted message."""
    try:
        phi = build()
    except RetriesExhausted as exc:
        return ("exhausted", str(exc))
    return (phi.target, phi.matrix, phi.retries)


def _with_entry_bound(bound):
    """`certificates._draw` with its entry bound replaced by `bound`."""

    def draw(ambient, target, required, seed, max_retries, entry_bound):
        return REAL_DRAW(ambient, target, required, seed, max_retries, bound)

    return mock.patch.object(certificates, "_draw", draw)


@settings(max_examples=150, deadline=None)
@given(uniform_families(), st.integers(0, 2**64 - 1))
def test_build_phi_samples_as_the_per_slot_list_did(f, seed):
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(REAL_DRAW).bind(*args, **kwargs).arguments)
        return REAL_DRAW(*args, **kwargs)

    sizes = f.uniform_type()
    for k in range(2, f.d + 1):
        with mock.patch.object(certificates, "_draw", spy):
            phi = certificates.build_phi(f, k, seed)
        got = calls[-1]
        target = sum(sizes[:k])
        oracle = certificate_oracles.phi_constraints(f, k)
        assert {SubspaceRep(f.n, basis) for basis in got["required"]} == set(oracle)
        assert all(want == min(len(basis), target) for basis, want in got["required"].items())
        assert got["entry_bound"] == 10 * (len(oracle) + 1) * f.n
        want = REAL_SAMPLE(f.n, target, oracle, seed)
        assert phi.matrix == want.matrix
        assert phi.retries == want.retries


@settings(max_examples=300, deadline=None)
@given(
    uniform_families(),
    st.integers(0, 2**64 - 1),
    st.sampled_from([None, 0, 1, 2, 3]),
    st.integers(1, 32),
)
def test_build_phi_draws_as_the_second_pass_version_did(f, seed, bound, max_retries):
    """Same maps, retries and RetriesExhausted outcomes as the parent's stages,
    at the recorded entry bound and at bounds 0..3, where draws get rejected."""
    for k in range(2, f.d + 1):
        want = _outcome(lambda: certificate_oracles.build_phi(f, k, seed, max_retries, bound))
        if bound is None:
            got = _outcome(lambda: certificates.build_phi(f, k, seed, max_retries))
        else:
            with _with_entry_bound(bound):
                got = _outcome(lambda: certificates.build_phi(f, k, seed, max_retries))
        assert got == want


def _dim(rows, matrix=None):
    """Rank of `Fraction` rows, or of their images under matrix, by the `Fraction` oracles."""
    if matrix is not None:
        rows = fraction_oracles.apply_rows(matrix, rows) if rows else []
    return fraction_oracles.rank(rows)


@settings(max_examples=100, deadline=None)
@given(uniform_families(), st.integers(0, 2**64 - 1), st.sampled_from([None, 1, 2, 3]))
def test_accepted_maps_keep_every_intersection_dimension(f, seed, bound):
    """dim(phi A ∩ phi B) = dim(A ∩ B) whenever dim(A + B) <= target, on every
    accepted map, recomputed over `Fraction` images of the original bases."""
    sizes = f.uniform_type()
    for k in range(2, f.d + 1):
        try:
            if bound is None:
                phi = certificates.build_phi(f, k, seed)
            else:
                with _with_entry_bound(bound):
                    phi = certificates.build_phi(f, k, seed)
        except RetriesExhausted:
            continue
        parts = {e[p].basis: e[p] for e in f.entries for p in range(k)}
        for a, b in itertools.combinations_with_replacement(parts, 2):
            joint = _dim(a + b)
            if joint > sum(sizes[:k]):
                continue
            images = _dim(a, phi.matrix) + _dim(b, phi.matrix) - _dim(a + b, phi.matrix)
            assert images == len(a) + len(b) - joint


@st.composite
def planted_families(draw):
    """A uniform family with some of its entries repeated at later positions
    (a repeated entry with a nonempty part breaks the skew condition)."""
    f = draw(uniform_families())
    entries = list(f.entries)
    for _ in range(draw(st.integers(0, 2))):
        copy = entries[draw(st.integers(0, len(entries) - 1))]
        entries.insert(draw(st.integers(0, len(entries))), copy)
    return SubspaceFamily(f.n, f.d, tuple(entries))


@settings(max_examples=200, deadline=None)
@given(planted_families())
def test_skew_check_reads_the_table_as_the_per_slot_ranks_did(f):
    assert skew_spaces_violation(f) == certificate_oracles.skew_spaces_violation(f)


@settings(max_examples=100, deadline=None)
@given(planted_families())
def test_span_table_holds_one_basis_of_each_pair_sum(f):
    parts = sorted({sp.rows for e in f.entries for sp in e})
    table = f.span_table
    assert list(table) == list(itertools.combinations_with_replacement(parts, 2))
    for (a, b), basis in table.items():
        assert set(basis) <= set(a + b)
        assert len(basis) == _dim(basis) == _dim(a + b)
        assert f.pair_span(b, a) is basis
