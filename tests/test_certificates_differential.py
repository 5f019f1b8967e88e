"""Differential tests against the versions the certificate code replaced
(`certificate_oracles`): the on-demand spans, the stages of `build_phi` that
check only the pairs no prefix implies, with draws written out from
`randint`, and the skew check that spans only pairs sharing no basis row,
against the per-slot code; the shared-row table against pairwise row-set
intersections; and the integer-row reader, lift and evaluation matrix
against the `Fraction` reader, the per-element lift and the per-cell
stacking."""

import contextlib
import inspect
import io
import itertools
import json
from fractions import Fraction
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

import bollobas.certificates as certificates
import bollobas.spaces as spaces
from bollobas import (
    BollobasError,
    GeneralPositionMap,
    RetriesExhausted,
    SubspaceFamily,
    SubspaceRep,
    cli,
    complete_family,
    evaluation_matrix,
    lift_to_spaces,
    random_skew_family,
    skew_spaces_violation,
    subspace_family_from_json,
)

import certificate_oracles
import fraction_oracles
from subspace_strategies import meeting_families, uniform_families

REAL_DRAW = certificates._draw


def _meet_without_a_shared_row(f, k=None):
    """True iff two of the first k parts of the entries (all d by default)
    meet although they share no integer basis row."""
    parts = {sp.rows for e in f.entries for sp in e[:k]}
    return any(
        not set(a) & set(b) and _dim(a + b) < len(a) + len(b)
        for a, b in itertools.combinations(parts, 2)
    )


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
@given(uniform_families() | meeting_families(), st.integers(0, 2**64 - 1))
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
        required = {SubspaceRep(f.n, basis) for basis in got["required"]}
        assert required <= set(oracle)
        prefixes = [set(sum((e[p].rows for p in range(k)), ())) for e in f.entries]

        def in_one_prefix(rows):
            return any(set(rows) <= prefix for prefix in prefixes)

        assert all(in_one_prefix(sp.rows) for sp in set(oracle) - required)
        for ei, ej in itertools.product(f.entries, repeat=2):
            for p, q in itertools.product(range(k), repeat=2):
                rows = ei[p].rows + ej[q].rows
                if not in_one_prefix(rows):
                    assert certificate_oracles._span(rows, f.n) in required
        assert all(want == min(len(basis), target) for basis, want in got["required"].items())
        bound = 10 * (len(oracle) + 1) * f.n
        assert got["entry_bound"] == bound
        want = certificate_oracles.sample_general_position(f.n, target, oracle, seed, 32, bound)
        assert phi.matrix == want.matrix
        assert phi.retries == want.retries
        if _meet_without_a_shared_row(f, k):
            event("parts meet without a shared row")
        if any(len(basis) != target for basis in got["required"]):
            event("a constraint that is not square")


@settings(max_examples=300, deadline=None)
@given(
    uniform_families() | meeting_families(),
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
        if _meet_without_a_shared_row(f, k):
            event("parts meet without a shared row")


# Entry bounds 0 to 3, and 4, 8 and 16, whose widths 2 b + 1 = 9, 17 and 33
# lie just above a power of two, where `randint` rejects the most draws.
DRAW_BOUNDS = [0, 1, 2, 3, 4, 8, 16]
# Types whose first stage has target 0, in an ambient space of dimension 0
# to 2.
ZERO_TARGETS = [(0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 2)]


@settings(max_examples=200, deadline=None)
@given(
    uniform_families(st.sampled_from(ZERO_TARGETS)) | uniform_families(),
    st.integers(0, 2**64 - 1),
    st.sampled_from(DRAW_BOUNDS),
    st.integers(1, 8),
)
def test_draws_make_the_calls_of_randint(f, seed, bound, max_retries):
    """The same maps, retries and RetriesExhausted outcomes as
    `certificate_oracles.build_phi`, whose entries are
    `random.Random(seed).randint` calls, at ambient
    0, target 0 and widths where the rejection loop rejects; a target of 0
    gives one empty row per ambient dimension."""
    sizes = f.uniform_type()
    for k in range(2, f.d + 1):
        want = _outcome(lambda: certificate_oracles.build_phi(f, k, seed, max_retries, bound))
        with _with_entry_bound(bound):
            got = _outcome(lambda: certificates.build_phi(f, k, seed, max_retries))
        assert got == want
        if sum(sizes[:k]) == 0:
            assert got[1] == ((),) * f.n
            event("target 0")
        if got[0] != "exhausted" and got[2]:
            event("a rejected draw")
    if f.n == 0:
        event("ambient 0")


def _dim(rows, matrix=None):
    """Rank of `Fraction` rows, or of their images under matrix, by the `Fraction` oracles."""
    if matrix is not None:
        rows = fraction_oracles.apply_rows(matrix, rows) if rows else []
    return fraction_oracles.rank(rows)


@settings(max_examples=100, deadline=None)
@given(uniform_families() | meeting_families(), st.integers(0, 2**64 - 1), st.sampled_from([None, 1, 2, 3]))
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
def planted_families(draw, families):
    """A family drawn from `families` with some of its entries repeated at
    later positions (a repeated entry with a nonempty part breaks the skew
    condition)."""
    f = draw(families)
    entries = list(f.entries)
    for _ in range(draw(st.integers(0, 2))):
        copy = entries[draw(st.integers(0, len(entries) - 1))]
        entries.insert(draw(st.integers(0, len(entries))), copy)
    return SubspaceFamily(f.n, f.d, tuple(entries))


@settings(max_examples=200, deadline=None)
@given(planted_families(uniform_families() | meeting_families()))
def test_skew_check_reads_the_table_as_the_per_slot_ranks_did(f):
    with mock.patch.object(spaces, "_pivot_rows", wraps=spaces._pivot_rows) as pivots:
        assert skew_spaces_violation(f) == certificate_oracles.skew_spaces_violation(f)
    event("spanned a pair" if pivots.call_count else "spanned no pair")
    for ei, ej in itertools.combinations(f.entries, 2):
        slots = [(ei[p].rows, ej[q].rows) for p in range(f.d - 1) for q in range(p + 1, f.d)]
        if not any(set(a) & set(b) for a, b in slots) and any(_dim(a + b) < len(a) + len(b) for a, b in slots):
            event("a pair meets only through different rows")


@settings(max_examples=100, deadline=None)
@given(planted_families(uniform_families()))
def test_pair_span_holds_one_basis_of_each_pair_sum(f):
    parts = sorted({sp.rows for e in f.entries for sp in e})
    for a, b in itertools.combinations_with_replacement(parts, 2):
        basis = f.pair_span(a, b)
        assert set(basis) <= set(a + b)
        assert len(basis) == _dim(basis) == _dim(a + b)
        with mock.patch.object(spaces, "_pivot_rows", side_effect=AssertionError("spanned again")):
            assert f.pair_span(b, a) is basis
            assert f.pair_span(a, b) is basis


# Types with a 4 x 4 stage (the closed form of `_det`), and two without.
FOUR_BY_FOUR = [(1, 1, 1, 1), (2, 2), (3, 1), (1, 3), (2, 1, 1), (1, 1, 2)]


@st.composite
def staged_maps(draw, f):
    """The certificate's own maps for f, or arbitrary maps with entries in -1..1,
    under which many factors vanish, the first factor of a cell included."""
    sizes = f.uniform_type()
    if draw(st.booleans()):
        return {k: certificates.build_phi(f, k, draw(st.integers(0, 2**64 - 1))) for k in range(2, f.d + 1)}
    maps = {}
    for k in range(2, f.d + 1):
        target = sum(sizes[:k])
        matrix = tuple(tuple(draw(st.integers(-1, 1)) for _ in range(target)) for _ in range(f.n))
        maps[k] = GeneralPositionMap(f.n, target, matrix, 0)
    return maps


def _factors_taken(f, maps, i, j):
    """The stage factors of cell (i, j) up to its first zero, as the per-cell
    version takes them."""
    ei, ej = f.entries[i], f.entries[j]
    for k in range(2, f.d + 1):
        stacked = sum((ei[p].rows for p in range(k - 1)), ()) + ej[k - 1].rows
        if certificates._det(maps[k].apply_rows(stacked)) == 0:
            return k - 1
    return f.d - 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluation_matrix_matches_per_cell_stacking(data):
    """The same matrix as the per-cell version, entry for entry, on lifted,
    rotated and rational families (where `scale` != 1), on families whose
    parts meet through different rows, with 4 x 4 stages and zero factors.

    A cell whose parts share a row (the `shared_rows` oracle) takes no
    determinant; every other cell, zero or not, takes its stage factors up
    to the first zero, as the per-cell version did."""
    f = data.draw(uniform_families(st.sampled_from(FOUR_BY_FOUR)) | uniform_families() | meeting_families())
    maps = data.draw(staged_maps(f))
    want = certificate_oracles.evaluation_matrix(f, maps)
    with mock.patch.object(certificates, "_det", wraps=certificates._det) as det:
        got = evaluation_matrix(f, maps)
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)
    table = certificate_oracles.shared_rows(f)
    taken = 0
    for i, j in itertools.product(range(len(f.entries)), repeat=2):
        if table[i] >> j & 1:
            assert want[i][j] == 0
            event("a zero cell from a shared row")
            continue
        taken += _factors_taken(f, maps, i, j)
        if want[i][j] == 0:
            event("a zero cell without a shared row")
    assert det.call_count == taken
    if any(sp.scale != 1 for e in f.entries for sp in e):
        event("scale != 1")
    stage2 = maps[2]
    if any(
        certificates._det(stage2.apply_rows(ei[0].rows + ej[1].rows)) == 0
        for ei in f.entries
        for ej in f.entries
    ):
        event("a zero first factor")


@settings(max_examples=200, deadline=None)
@given(planted_families(uniform_families() | meeting_families()))
def test_shared_row_table_matches_the_pairwise_intersections(f):
    table = f._shared_rows
    assert table == certificate_oracles.shared_rows(f)
    assert f._shared_rows is table
    if any(table):
        event("a pair shares a row")
    if _meet_without_a_shared_row(f):
        event("parts meet only through different rows")


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)]),
    st.integers(0, 2**64 - 1),
    st.booleans(),
)
def test_lift_matches_the_per_element_lift(sizes, seed, complete):
    n = sum(sizes) + (0 if complete else 2)
    fam = complete_family(sizes) if complete else random_skew_family(n, len(sizes), sizes, seed=seed, target=8)
    got, want = lift_to_spaces(fam), certificate_oracles.lift_to_spaces(fam)
    assert got == want
    for eg, ew in zip(got.entries, want.entries):
        for a, b in zip(eg, ew):
            assert (a.basis, a.rows, a.scale) == (b.basis, b.rows, b.scale)


# JSON texts of coordinates: integers as numbers and as strings, and every
# other form a coordinate may take, well formed or not.  Integer strings and
# literals run past the 4,300-digit limit of int-to-str conversion.
_COORDINATES = st.one_of(
    st.integers(-(10**6), 10**6).map(json.dumps),
    st.integers(-(10**30), 10**30).map(lambda x: json.dumps(str(x))),
    st.integers(0, 99).map(lambda x: json.dumps(f"+{x:03d}")),
    st.sampled_from(["1/2", " 2", "1_000", "\u0663", "+3", "-0", "1/0", "", "+", "-", "x", "3/-4", "2 "]).map(
        json.dumps
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
    st.booleans().map(json.dumps),
    st.just("null"),
    st.sampled_from(["1" * 4301, "-" + "9" * 5000]).flatmap(lambda x: st.sampled_from([x, json.dumps(x)])),
)


@st.composite
def subspace_documents(draw):
    """The JSON text of a small subspace family with d = 2 whose bases hold
    0 or 1 rows of drawn coordinates."""
    n = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(1, 2))):
        bases = []
        for _ in range(2):
            rows = draw(st.lists(st.lists(_COORDINATES, min_size=n, max_size=n), max_size=1))
            bases.append("[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]")
        entries.append("[" + ", ".join(bases) + "]")
    return '{"n": %d, "d": 2, "entries": [%s]}' % (n, ", ".join(entries))


def _read(reader, obj):
    """Each part's basis values, rows, scale and dim, or the error's type and text."""
    try:
        f = reader(obj)
    except BollobasError as exc:
        return type(exc), str(exc)
    return f.n, f.d, [
        [(tuple(tuple(map(Fraction, r)) for r in sp.basis), sp.rows, sp.scale, sp.dim) for sp in e]
        for e in f.entries
    ]


def _certify(text):
    """Exit code, stdout and the first stderr line of `certify` on the text."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--input", "-", "certify"])
    return code, out.getvalue(), err.getvalue().splitlines()[0] if code == 2 else None


@settings(max_examples=300, deadline=None)
@given(subspace_documents())
def test_reader_matches_the_all_rational_reader(text):
    """The same family (basis values, rows, scales, dims) as the all-`rational`
    reader, or the same error text; and through `certify`, the same exit
    code, stdout and error line."""
    got = _certify(text)
    with mock.patch.object(cli, "subspace_family_from_json", certificate_oracles.subspace_family_from_json):
        assert got == _certify(text)
    try:
        obj = json.loads(text)
    except ValueError:  # an integer literal past the digit limit: exit 2 above, on both sides
        assert got[0] == 2
        return
    want = _read(certificate_oracles.subspace_family_from_json, obj)
    assert _read(subspace_family_from_json, obj) == want
    event("read" if isinstance(want[0], int) else "refused")
