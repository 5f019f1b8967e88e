"""Size-bound certificates for uniform skew systems of subspace d-tuples.

The certificate realizes the exterior-algebra proof of the multinomial size
bound: for each k = 2..d, project the ambient space down to dimension
a_1 + ... + a_k by a random map in general position with every sum the
argument needs preserved, and evaluate the functionals

    f_i(xi_j) = prod_k  det[ basis phi_k(A_i^(1)); ...; basis phi_k(A_i^(k-1)); basis phi_k(A_j^(k)) ]

into an m x m matrix.  Each factor is the top-grade coordinate of the wedge
of the projected parts, taken as the determinant (`_det`) of their stacked
projected basis rows; no blade is built.  For a valid uniform skew family
the diagonal is nonzero (each entry is a determinant of a direct-sum
decomposition) and the strict upper triangle is zero (a shared direction
makes the stacked rows dependent), which witnesses linear independence of
f_1, ..., f_m and hence
m <= multinomial(a_1 + ... + a_d, (a_1, ..., a_d)).

Most zero cells need no determinant.  When a part p of entry i and a part
q > p of entry j share an integer basis row, stage q + 1 stacks that row
twice, so the cell is exactly zero under any map; the family's shared-row
table (`SubspaceFamily._shared_rows`) marks these cells, and only the others
are computed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .constructions import _checked_count
from .errors import BollobasError, DomainError, IndexRangeError, RetriesExhausted, UniformityError
from .exterior import IntRow, Rational, SubspaceRep, _det, _pivot_rows, _rank
from .spaces import Rows, SubspaceFamily, skew_spaces_violation
from .sums import tuple_weight

DEFAULT_MAX_RETRIES = 32
#: The most stage factors of the evaluation matrix, m^2 (d - 1), that
#: `certify` admits: lifted complete (3,2,2), m = 210, has 88,200 and is
#: admitted; lifted complete (3,3,2), m = 560, has 627,200.  The cells that
#: share a row cost one bit test each, so the time grows with the other
#: cells, those that share no row.
MAX_EVALUATION_CELLS = 100_000
#: The most pairs of distinct parts, P(P + 1)/2, that `certify` admits:
#: an upper bound on the spans (`SubspaceFamily.pair_span`) it computes, as
#: the skew check and the stages span only the pairs they read; lifted
#: complete (3,2,2) has 1,596.
MAX_PART_PAIRS = 20_000
#: The most parts the evaluation matrix stacks, m^2 (2 + 3 + ... + d): a
#: cell's stage k stacks k parts, so one entry's run grows as d^2 even when
#: every part is empty.  Lifted complete (3,2,2) stacks 220,500; one entry
#: of d = 100,001 empty parts, within MAX_EVALUATION_CELLS, would stack
#: about 5 * 10^9.
MAX_STACKED_PARTS = 250_000


def check_size(m: int, d: int) -> None:
    """Refuse m entries of d parts past MAX_EVALUATION_CELLS or MAX_STACKED_PARTS.

    Both counts need only m and d, so a reader can check them before it
    builds any part; MAX_PART_PAIRS needs the distinct parts and is checked
    in `certify`.
    """
    _checked_count(m * m * (d - 1), MAX_EVALUATION_CELLS, "evaluation cells")
    _checked_count(m * m * (d * (d + 1) // 2 - 1), MAX_STACKED_PARTS, "stacked parts")


def _check_retries(max_retries: int) -> None:
    """Refuse a negative retry budget, which no draw could use up."""
    if max_retries < 0:
        raise DomainError(f"max retries must be >= 0, got {max_retries}")


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit child seed for a named stage; adding stages never shifts earlier ones."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _project(row: Sequence[Rational], columns: Sequence[Sequence[int]]) -> tuple:
    """A row vector times the matrix whose columns are given."""
    return tuple(sum(map(mul, row, col)) for col in columns)


@dataclass(frozen=True)
class GeneralPositionMap:
    """A linear map Q^n -> Q^target (row vector times matrix), drawn after
    `retries` rejected draws."""

    n: int
    target: int
    matrix: tuple[tuple[int, ...], ...]  # n rows of length target
    retries: int

    def apply_rows(self, rows: Sequence[Sequence[Rational]]) -> list[tuple]:
        """Images of the given row vectors (integer rows map to integer rows)."""
        columns = tuple(zip(*self.matrix))
        return [_project(row, columns) for row in rows]

    def image(self, sp: SubspaceRep) -> SubspaceRep:
        """The image subspace (basis re-extracted, so dimension may drop)."""
        rows = self.apply_rows(sp.rows)
        return SubspaceRep(self.target, tuple(rows[i] for i in _pivot_rows(rows, self.target)))


def _draw(
    ambient: int,
    target: int,
    required: dict[Rows, int],
    seed: int,
    max_retries: int,
    entry_bound: int,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Draw random ambient x target integer matrices with entries in
    [-entry_bound, entry_bound] until one maps every basis U in `required`
    to rows of rank required[U]; return that matrix and the failed draws
    before it.

    The entries are drawn row by row with exactly the calls of
    `random.Random(seed).randint(-entry_bound, entry_bound)`: each is
    getrandbits(k), k = width.bit_length() for width = 2 entry_bound + 1,
    redrawn until below width (the rejection loop of `Random._randbelow`),
    minus entry_bound.  Written out, it saves the Python calls of
    `randint`, `randrange` and `_randbelow` per entry.
    Each distinct basis row is projected once per draw, in the target space.
    A square constraint, with as many rows as its rank and the target, keeps
    its rank iff the determinant of its images is nonzero, which `_det`
    takes by closed forms up to 4 x 4; every other basis is ranked.  Over
    the rationals a fixed draw fails with probability zero, so running out
    of retries flags a bug or an infeasible requirement rather than bad luck.
    """
    distinct = dict.fromkeys(itertools.chain.from_iterable(required))
    square = [basis for basis, want in required.items() if len(basis) == want == target]
    ranked = [(basis, want) for basis, want in required.items() if not len(basis) == want == target]
    width = 2 * entry_bound + 1
    bits = width.bit_length()
    getrandbits = random.Random(seed).getrandbits
    for attempt in range(max_retries):
        matrix = []
        for _ in range(ambient):
            row = []
            for _ in range(target):
                x = getrandbits(bits)
                while x >= width:
                    x = getrandbits(bits)
                row.append(x - entry_bound)
            matrix.append(tuple(row))
        columns = tuple(zip(*matrix))
        images = {r: _project(r, columns) for r in distinct}
        if all(_det([images[r] for r in basis]) for basis in square) and all(
            _rank([images[r] for r in basis]) == want for basis, want in ranked
        ):
            return tuple(matrix), attempt
    raise RetriesExhausted(f"no general-position map found in {max_retries} draws")


def build_phi(
    f: SubspaceFamily, k: int, seed: int, max_retries: int = DEFAULT_MAX_RETRIES
) -> GeneralPositionMap:
    """General-position projection to dimension a_1 + ... + a_k for stage k.

    Requires a uniform family and 2 <= k <= d.  An accepted draw phi has
    rank phi(U) = min(dim U, target) for every constraint U: every prefix sum
    A_i^(1) + ... + A_i^(k), and the sum A + B of every unordered pair of
    distinct parts A, B among the first k parts of the entries, a part
    paired with itself included.  A prefix sum's basis is its sorted rows,
    already independent because the parts of an entry are, and it has
    exactly target rows.  A pair is required only when no one entry's prefix
    holds all the rows of A and B.  If one does, the pair's basis
    (`SubspaceFamily.pair_span`) is a subset of that prefix's rows, which
    the prefix constraint already requires to map to independent images,
    so every draw that passes the prefixes passes the pair.  The draw thus
    checks a smaller set that it passes exactly when it passes the full one,
    and the accepted matrix and its retries are the same.  A pair sum with
    more than target rows lies in no prefix, so every such pair is required.
    `_draw` tests each constraint in the target space: a square one (every
    prefix sum, and a pair sum of exactly target rows) by a nonzero
    determinant of its images, any other by their rank.  No constraint is
    checked in the ambient space, and nothing is checked
    after the draw, because the draw has already proved that intersections
    keep their dimension: whenever dim(A + B) <= target,

        dim(phi(A) ∩ phi(B)) = dim phi(A) + dim phi(B) - dim phi(A + B)
                             = dim A + dim B - dim(A + B) = dim(A ∩ B),

    as the pairs (A, A) and (B, B), required or implied, give
    dim phi(A) = dim A and dim phi(B) = dim B (a part fits in the target),
    and the pair (A, B) gives dim phi(A + B) = dim(A + B).  Parts at positions p != q always
    fit, as a_p + a_q <= target; two parts at one position can exceed it,
    and then no map could preserve their sum.  A negative max_retries is
    refused with a DomainError before anything else is checked.
    """
    _check_retries(max_retries)
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("general-position stages need a uniform (constant-type) family")
    d = f.d
    if not 2 <= k <= d:
        raise IndexRangeError(f"stage k must be in 2..{d}, got {k}")
    target = sum(sizes[:k])
    m = len(f.entries)
    required: dict[Rows, int] = {}
    # holders[r]: the entries (one bit each) whose prefix holds row r
    holders: dict[IntRow, int] = {}
    for i, e in enumerate(f.entries):
        prefix = sum((e[p].rows for p in range(k)), ())
        required[tuple(sorted(prefix))] = target
        for r in prefix:
            holders[r] = holders.get(r, 0) | 1 << i
    # in_one[A]: the entries whose prefix holds every row of part A
    in_one: dict[Rows, int] = {}
    for e in f.entries:
        for p in range(k):
            rows = e[p].rows
            if rows not in in_one:
                mask = (1 << m) - 1
                for r in rows:
                    mask &= holders[r]
                in_one[rows] = mask
    for a, b in itertools.combinations_with_replacement(in_one, 2):
        if not in_one[a] & in_one[b]:
            basis = f.pair_span(a, b)
            required[basis] = min(len(basis), target)
    # every recorded certificate was drawn with the bound for m + m^2 k^2 slots
    bound = 10 * (m + m * m * k * k + 1) * f.n
    matrix, retries = _draw(f.n, target, required, seed, max_retries, bound)
    return GeneralPositionMap(f.n, target, matrix, retries)


def evaluation_matrix(
    f: SubspaceFamily, maps: dict[int, GeneralPositionMap]
) -> tuple[tuple[Fraction, ...], ...]:
    """The m x m matrix with entry (i, j) = f_i(xi_j).

    Each factor is realized as the determinant of the stacked projected bases
    of entry i's first k - 1 parts and entry j's k-th part (the top-grade
    coordinate of the corresponding wedge) rather than via a materialized
    dual vector, which computes the same scalar.  For each stage k, each
    distinct row is projected once, and every entry's first k - 1 projected
    parts are stacked once, so a cell only joins two lists.  The stack holds
    integer rows, so its determinant is the factor times dp[i] dq[j], the
    products of the `scale`s of the stacked parts; a cell stops at its first
    zero factor.  A cell whose bit is set in the shared-row table
    (`SubspaceFamily._shared_rows`) is `Fraction(0)` without a determinant:
    part p of entry i and part q > p of entry j share a row, which stage
    q + 1 stacks twice, so that factor is exactly 0 under any map.  Every
    other cell is computed, so a cell that is zero without a shared row
    still reaches `_det`.
    """
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("evaluation matrix needs a uniform family")
    m = len(f.entries)
    # per stage: (images of entry i's first k - 1 parts, dp[i]) and
    # (image of entry j's part k, dq[j]), for every entry
    stages = []
    for k in range(2, f.d + 1):
        rows = list(dict.fromkeys(r for e in f.entries for p in range(k) for r in e[p].rows))
        image = dict(zip(rows, maps[k].apply_rows(rows)))
        heads = [
            ([image[r] for p in range(k - 1) for r in e[p].rows], math.prod(e[p].scale for p in range(k - 1)))
            for e in f.entries
        ]
        tails = [([image[r] for r in e[k - 1].rows], e[k - 1].scale) for e in f.entries]
        stages.append((heads, tails))
    zero = Fraction(0)
    out = []
    for i, shared in enumerate(f._shared_rows):
        row = []
        for j in range(m):
            if shared >> j & 1:
                row.append(zero)
                continue
            num, den = 1, 1
            for heads, tails in stages:
                head, dp = heads[i]
                tail, dq = tails[j]
                num *= _det(head + tail)
                if num == 0:
                    break
                den *= dp * dq
            row.append(Fraction(num, den))
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the size-bound pipeline on one uniform subspace family.

    verdict is True iff every diagonal entry of the evaluation matrix is
    nonzero and every strict upper-triangle entry is zero; violations lists
    the offending (i, j) positions (1-based).  On a pass the family size m is
    certified to satisfy m <= size_bound.
    """

    m: int
    sizes: tuple[int, ...]
    size_bound: int
    skew_ok: bool
    skew_violation: tuple[int, int] | None
    maps: tuple[GeneralPositionMap, ...]
    evaluation: tuple[tuple[Fraction, ...], ...]
    verdict: bool
    violations: tuple[tuple[int, int], ...]
    seed: int

    @property
    def retries(self) -> tuple[int, ...]:
        return tuple(phi.retries for phi in self.maps)


def certify(
    f: SubspaceFamily, seed: int = 0, max_retries: int = DEFAULT_MAX_RETRIES
) -> Certificate:
    """Run the full pipeline: skew check, per-stage projections, evaluation
    matrix, and the triangular-pattern verdict.

    The skew check failing does not abort; the matrix and its pattern
    violations are still reported for diagnosis, but the verdict can only
    certify the size bound when the input family is valid.  A family past
    MAX_EVALUATION_CELLS, MAX_STACKED_PARTS or MAX_PART_PAIRS is refused
    with a SizeError before any of this work starts, and a negative
    max_retries with a DomainError before anything else.
    """
    _check_retries(max_retries)
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("certificates are defined for uniform families")
    m = len(f.entries)
    check_size(m, f.d)
    distinct = len({sp.rows for entry in f.entries for sp in entry})
    _checked_count(distinct * (distinct + 1) // 2, MAX_PART_PAIRS, "pairs of distinct parts")
    violation = skew_spaces_violation(f)
    maps = {
        k: build_phi(f, k, derive_seed(seed, f"phi{k}"), max_retries)
        for k in range(2, f.d + 1)
    }
    matrix = evaluation_matrix(f, maps)
    bad: list[tuple[int, int]] = []
    for i in range(m):
        if matrix[i][i] == 0:
            bad.append((i + 1, i + 1))
        for j in range(i + 1, m):
            if matrix[i][j] != 0:
                bad.append((i + 1, j + 1))
    bound = tuple_weight(sizes)
    verdict = not bad
    # a triangular pattern forces f_1..f_m independent inside a bound-dim space
    if verdict and m > bound:
        raise BollobasError(f"pattern held with m = {m} > bound {bound}")
    return Certificate(
        m=m,
        sizes=tuple(sizes),
        size_bound=bound,
        skew_ok=violation is None,
        skew_violation=violation,
        maps=tuple(maps[k] for k in range(2, f.d + 1)),
        evaluation=matrix,
        verdict=verdict,
        violations=tuple(bad),
        seed=seed,
    )
