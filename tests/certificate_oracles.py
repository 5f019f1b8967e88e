"""The certificate code that later versions replaced, kept as test oracles.

The package spans an unordered pair of parts on demand, once per family
(`SubspaceFamily.pair_span`); the skew check spans only the pairs of entries
with no slot whose parts share an integer basis row, and each stage of
`build_phi` checks only the pair sums that no entry's prefix sum already
implies, in draws written out from `randint`'s `getrandbits` calls.  These
are the versions it replaced:

- `phi_constraints`, the original per-slot list: one slot per prefix sum and
  one per (i, j, p, q), implied or not, m + m^2 k^2 slots in all, whose
  length also set the default entry bound of the sampled matrices;
- `build_phi` over the distinct parts, spanning every pair per stage as a
  `SubspaceRep`, followed by a second pass that re-checked every
  intersection dimension on the images, and the sampler it called, which
  drew each entry with `random.Random.randint` and ranked every constraint;
- `skew_spaces_violation`, ranking one stacked basis per (i, j, p < q).

The skew check and the evaluation matrix both read the family's shared-row
table, built once by suffix ORs over per-position dicts of rows;
`shared_rows` computes it pair by pair from row-set intersections.

The package also keeps integer coordinates as ints from the JSON reader to
the report, and stacks each entry's projected parts once per stage.  These
are the versions that did not:

- `subspace_family_from_json`, reading every coordinate through
  `wire.rational` as a `Fraction`;
- `lift_to_spaces`, building each unit row anew for every element;
- `evaluation_matrix`, re-stacking entry i's projected prefix in every cell
  and taking each cell's denominator part by part.

`bareiss` is the column-pivoted determinant that `_det` used beyond 4 x 4
before ranks, pivot rows and determinants shared one row-by-row elimination.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from bollobas.certificates import GeneralPositionMap, _project
from bollobas.errors import (
    DimensionError,
    FormatError,
    IndexRangeError,
    RetriesExhausted,
    SizeError,
    UniformityError,
)
from bollobas.exterior import IntRow, SubspaceRep, _det, _pivot_rows, _rank
from bollobas.spaces import MAX_AMBIENT, SubspaceFamily
from bollobas.wire import fields, rational


def bareiss(rows) -> int:
    """Determinant of a square integer matrix of size >= 2 by Bareiss elimination,
    in which every intermediate division is exact."""
    k = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(k - 1):
        if m[col][col] == 0:
            for r2 in range(col + 1, k):
                if m[r2][col] != 0:
                    m[col], m[r2] = m[r2], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r2 in range(col + 1, k):
            for c2 in range(col + 1, k):
                m[r2][c2] = (m[r2][c2] * m[col][col] - m[r2][col] * m[col][c2]) // prev
            m[r2][col] = 0
        prev = m[col][col]
    return sign * m[k - 1][k - 1]


def phi_constraints(f: SubspaceFamily, k: int) -> list[SubspaceRep]:
    """Every prefix sum A_i^(1)+...+A_i^(k) and every pairwise sum
    A_i^(p) + A_j^(q) with p, q <= k, one slot each.

    Sums with the same set of basis rows, such as the two orders of one pair,
    share one SubspaceRep, so each is spanned once.
    """
    spans: dict[tuple[IntRow, ...], SubspaceRep] = {}

    def span(rows: tuple[IntRow, ...]) -> SubspaceRep:
        key = tuple(sorted(set(rows)))
        sp = spans.get(key)
        if sp is None:
            sp = spans[key] = SubspaceRep(f.n, tuple(key[i] for i in _pivot_rows(key, f.n)))
        return sp

    m = len(f.entries)
    constraints = [span(sum((f.entries[i][p].rows for p in range(k)), ())) for i in range(m)]
    constraints.extend(
        span(f.entries[i][p].rows + f.entries[j][q].rows)
        for i in range(m)
        for j in range(m)
        for p in range(k)
        for q in range(k)
    )
    return constraints


def sample_general_position(ambient, target, constraints, seed, max_retries, entry_bound):
    """Draw until every distinct constraint keeps rank min(dim U, target) in its image."""
    if target > ambient:
        raise DimensionError(f"target dimension {target} exceeds ambient {ambient}")
    distinct = list(dict.fromkeys(constraints))
    rng = random.Random(seed)
    for attempt in range(max_retries):
        matrix = tuple(
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(target))
            for _ in range(ambient)
        )
        columns = tuple(zip(*matrix))
        if all(_rank([_project(r, columns) for r in sp.rows]) == min(sp.dim, target) for sp in distinct):
            return GeneralPositionMap(ambient, target, matrix, attempt)
    raise RetriesExhausted(f"no general-position map found in {max_retries} draws")


def _span(rows, n: int) -> SubspaceRep:
    key = sorted(set(rows))
    return SubspaceRep(n, tuple(key[i] for i in _pivot_rows(key, n)))


def build_phi(f: SubspaceFamily, k: int, seed: int, max_retries: int = 32, entry_bound: int | None = None):
    """The stage-k map as drawn before pair spans were shared per family, second pass included.

    `entry_bound` defaults to the bound for m + m^2 k^2 slots, the one every
    recorded certificate was drawn with.
    """
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("general-position stages need a uniform (constant-type) family")
    if not 2 <= k <= f.d:
        raise IndexRangeError(f"stage k must be in 2..{f.d}, got {k}")
    target = sum(sizes[:k])
    m = len(f.entries)
    first: dict[tuple[IntRow, ...], tuple[int, int]] = {}
    for i, entry in enumerate(f.entries):
        for p in range(k):
            first.setdefault(entry[p].rows, (i + 1, p + 1))
    pairs = list(itertools.combinations_with_replacement(first, 2))
    sums = [_span(a + b, f.n) for a, b in pairs]
    prefixes = [_span(sum((e[p].rows for p in range(k)), ()), f.n) for e in f.entries]
    if entry_bound is None:
        entry_bound = 10 * (m + m * m * k * k + 1) * f.n
    phi = sample_general_position(f.n, target, prefixes + sums, seed, max_retries, entry_bound)
    images = {a: phi.apply_rows(a) for a in first}
    image_dims = {a: _rank(rows) for a, rows in images.items()}
    for (a, b), joint in zip(pairs, sums):
        if joint.dim > target:
            continue
        want = len(a) + len(b) - joint.dim
        got = image_dims[a] + image_dims[b] - _rank(images[a] + images[b])
        if image_dims[a] != len(a) or image_dims[b] != len(b) or got != want:
            raise RetriesExhausted(
                "verified constraints but intersection dims moved at parts "
                f"(entry, part) = {first[a]} and {first[b]}"
            )
    return phi


def skew_spaces_violation(f: SubspaceFamily) -> tuple[int, int] | None:
    """First pair i < j (1-based) with no p < q whose stacked bases lose rank."""
    m, d = len(f.entries), f.d
    for i in range(m):
        for j in range(i + 1, m):
            if not any(
                _rank(f.entries[i][p].rows + f.entries[j][q].rows) < f.entries[i][p].dim + f.entries[j][q].dim
                for p in range(d - 1)
                for q in range(p + 1, d)
            ):
                return (i + 1, j + 1)
    return None


def shared_rows(f: SubspaceFamily) -> tuple[int, ...]:
    """Bit j of entry i's int is set iff some part p of entry i and some part
    q > p of entry j have an integer basis row in common."""
    table = []
    for ei in f.entries:
        bits = 0
        for j, ej in enumerate(f.entries):
            if any(set(ei[p].rows) & set(ej[q].rows) for p in range(f.d) for q in range(p + 1, f.d)):
                bits |= 1 << j
        table.append(bits)
    return tuple(table)


def subspace_family_from_json(obj: dict) -> SubspaceFamily:
    """The reader that turned every coordinate into a `Fraction`."""
    n, d, raw = fields(obj, "subspace family", ("n", "d"), "entries")
    if n > MAX_AMBIENT:
        raise SizeError(f"ambient dimension {n} exceeds the limit {MAX_AMBIENT} of a subspace family")
    entries = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != d:
            raise FormatError(f"entry {idx + 1} must be a list of {d} bases")
        parts = []
        for basis in entry:
            if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
                raise FormatError(f"entry {idx + 1} has a basis that is not a list of rows")
            parts.append(SubspaceRep(n, tuple(tuple(rational(x) for x in row) for row in basis)))
        entries.append(tuple(parts))
    return SubspaceFamily(n, d, tuple(entries))


def lift_to_spaces(f) -> SubspaceFamily:
    """The lift that built each unit row anew for every element of every part."""
    entries = []
    for t in f.tuples:
        entry = []
        for part in t.parts():
            basis = tuple(tuple(1 if c == a - 1 else 0 for c in range(f.n)) for a in part)
            entry.append(SubspaceRep(f.n, basis))
        entries.append(tuple(entry))
    return SubspaceFamily(f.n, f.d, tuple(entries))


def evaluation_matrix(f: SubspaceFamily, maps: dict[int, GeneralPositionMap]) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix that re-stacked entry i's projected prefix in every cell (i, j)."""
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("evaluation matrix needs a uniform family")
    d = f.d
    m = len(f.entries)
    proj = {
        k: [[maps[k].apply_rows(f.entries[i][p].rows) for p in range(k)] for i in range(m)]
        for k in range(2, d + 1)
    }
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            num, den = 1, 1
            for k in range(2, d + 1):
                stacked: list[tuple] = []
                for p in range(k - 1):
                    stacked.extend(proj[k][i][p])
                    den *= f.entries[i][p].scale
                stacked.extend(proj[k][j][k - 1])
                den *= f.entries[j][k - 1].scale
                # closed forms up to 3 x 3 and Bareiss beyond, as `_det` had
                num *= _det(stacked) if len(stacked) < 4 else bareiss(stacked)
                if num == 0:
                    break
            row.append(Fraction(num, den))
        out.append(tuple(row))
    return tuple(out)
