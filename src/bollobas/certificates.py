"""Size-bound certificates for uniform skew systems of subspace d-tuples.

The certificate realizes the exterior-algebra proof of the multinomial size
bound: for each k = 2..d, project the ambient space down to dimension
a_1 + ... + a_k by a random map in general position with every sum the
argument needs preserved; wedge the projected parts into blades; and evaluate
the functionals

    f_i(xi_j) = prod_k  det[ basis phi_k(A_i^(1)); ...; basis phi_k(A_i^(k-1)); basis phi_k(A_j^(k)) ]

into an m x m matrix.  For a valid uniform skew family the diagonal is
nonzero (each entry is a determinant of a direct-sum decomposition) and the
strict upper triangle is zero (a shared direction collapses the wedge), which
witnesses linear independence of f_1, ..., f_m and hence
m <= multinomial(a_1 + ... + a_d, (a_1, ..., a_d)).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    BollobasError,
    DimensionError,
    IndexRangeError,
    RetriesExhausted,
    UniformityError,
)
from .exterior import IntRow, Rational, SubspaceRep, _det, _pivot_rows, _rank
from .spaces import SubspaceFamily, skew_spaces_violation
from .sums import tuple_weight

DEFAULT_MAX_RETRIES = 32


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit child seed for a named stage; adding stages never shifts earlier ones."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _project(row: Sequence[Rational], columns: Sequence[Sequence[int]]) -> tuple:
    """A row vector times the matrix whose columns are given."""
    return tuple(sum(map(mul, row, col)) for col in columns)


@dataclass(frozen=True)
class GeneralPositionMap:
    """A linear map Q^n -> Q^target (row vector times matrix) verified to
    preserve min(dim, target) for every listed constraint subspace."""

    n: int
    target: int
    matrix: tuple[tuple[int, ...], ...]  # n rows of length target
    verified_constraints: tuple[tuple[int, int], ...]  # (constraint index, required dim)
    retries: int

    def apply_rows(self, rows: Sequence[Sequence[Rational]]) -> list[tuple]:
        """Images of the given row vectors (integer rows map to integer rows)."""
        columns = tuple(zip(*self.matrix))
        return [_project(row, columns) for row in rows]

    def image(self, sp: SubspaceRep) -> SubspaceRep:
        """The image subspace (basis re-extracted, so dimension may drop)."""
        rows = self.apply_rows(sp.rows)
        return SubspaceRep(self.target, tuple(rows[i] for i in _pivot_rows(rows, self.target)))


def sample_general_position(
    ambient: int,
    target: int,
    constraints: Sequence[SubspaceRep],
    seed: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
    entry_bound: int | None = None,
) -> GeneralPositionMap:
    """Draw random integer matrices until one preserves min(dim U, target) for
    every constraint subspace U, verified by exact rank.

    Equal constraints are tested once per draw, and each distinct basis row
    is projected once per draw.  Over the rationals a fixed draw fails with
    probability zero, so running out of retries flags a bug or an infeasible
    constraint set rather than bad luck.
    """
    if target > ambient:
        raise DimensionError(f"target dimension {target} exceeds ambient {ambient}")
    if entry_bound is None:
        entry_bound = 10 * (len(constraints) + 1) * ambient
    distinct = list(dict.fromkeys(constraints))
    rng = random.Random(seed)
    for attempt in range(max_retries):
        matrix = tuple(
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(target))
            for _ in range(ambient)
        )
        columns = tuple(zip(*matrix))
        images: dict[IntRow, tuple] = {}
        for sp in distinct:
            rows = []
            for r in sp.rows:
                img = images.get(r)
                if img is None:
                    img = images[r] = _project(r, columns)
                rows.append(img)
            if _rank(rows) != min(sp.dim, target):
                break
        else:
            verified = tuple((idx, min(sp.dim, target)) for idx, sp in enumerate(constraints))
            return GeneralPositionMap(ambient, target, matrix, verified, attempt)
    raise RetriesExhausted(f"no general-position map found in {max_retries} draws")


def _span(rows: Sequence[IntRow], n: int) -> SubspaceRep:
    """The span of integer rows, based on the pivot rows of their sorted distinct set."""
    key = sorted(set(rows))
    return SubspaceRep(n, tuple(key[i] for i in _pivot_rows(key, n)))


def build_phi(
    f: SubspaceFamily, k: int, seed: int, max_retries: int = DEFAULT_MAX_RETRIES
) -> GeneralPositionMap:
    """General-position projection to dimension a_1 + ... + a_k for stage k.

    Requires a uniform family and 2 <= k <= d.  The constraints are every
    prefix sum A_i^(1) + ... + A_i^(k) and the sum A + B of every unordered
    pair of distinct parts A, B among the first k parts of the entries, a
    part paired with itself included.  After sampling, dimension preservation
    of intersections is verified directly over the same pairs: whenever
    A + B fits in the target dimension,

        dim(phi(A) ∩ phi(B)) == dim(A ∩ B).

    (Parts at positions p != q always fit, as a_p + a_q <= target; two parts
    at one position can exceed it, and then no map could preserve their sum.)
    Each distinct part is projected and ranked once.
    """
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("general-position stages need a uniform (constant-type) family")
    d = f.d
    if not 2 <= k <= d:
        raise IndexRangeError(f"stage k must be in 2..{d}, got {k}")
    target = sum(sizes[:k])
    m = len(f.entries)
    # each distinct part's rows, with its first (entry, part) position
    first: dict[tuple[IntRow, ...], tuple[int, int]] = {}
    for i, entry in enumerate(f.entries):
        for p in range(k):
            first.setdefault(entry[p].rows, (i + 1, p + 1))
    pairs = list(itertools.combinations_with_replacement(first, 2))
    sums = [_span(a + b, f.n) for a, b in pairs]
    prefixes = [_span(sum((e[p].rows for p in range(k)), ()), f.n) for e in f.entries]
    # every recorded certificate was drawn with the bound for m + m^2 k^2 slots
    bound = 10 * (m + m * m * k * k + 1) * f.n
    phi = sample_general_position(
        f.n, target, prefixes + sums, seed, max_retries, entry_bound=bound
    )
    images = {a: phi.apply_rows(a) for a in first}
    image_dims = {a: _rank(rows) for a, rows in images.items()}
    for (a, b), joint in zip(pairs, sums):
        if joint.dim > target:
            continue  # no map into the target can preserve this sum
        want = len(a) + len(b) - joint.dim
        got = image_dims[a] + image_dims[b] - _rank(images[a] + images[b])
        if image_dims[a] != len(a) or image_dims[b] != len(b) or got != want:
            raise RetriesExhausted(
                "verified constraints but intersection dims moved at parts "
                f"(entry, part) = {first[a]} and {first[b]}"
            )
    return phi


def evaluation_matrix(
    f: SubspaceFamily, maps: dict[int, GeneralPositionMap]
) -> tuple[tuple[Fraction, ...], ...]:
    """The m x m matrix with entry (i, j) = f_i(xi_j).

    Each factor is realized as the determinant of the stacked projected bases
    of entry i's first k - 1 parts and entry j's k-th part (the top-grade
    coordinate of the corresponding wedge) rather than via a materialized
    dual vector, which computes the same scalar.
    """
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("evaluation matrix needs a uniform family")
    d = f.d
    m = len(f.entries)
    # proj[k][i][p] = phi_k applied to A_i^(p).rows; a stack of these has the
    # product of its parts' scales times the determinant of the rational images
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
                num *= _det(stacked)
                if num == 0:
                    break
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
    certify the size bound when the input family is valid.
    """
    sizes = f.uniform_type()
    if sizes is None:
        raise UniformityError("certificates are defined for uniform families")
    violation = skew_spaces_violation(f)
    maps = {
        k: build_phi(f, k, derive_seed(seed, f"phi{k}"), max_retries)
        for k in range(2, f.d + 1)
    }
    matrix = evaluation_matrix(f, maps)
    m = len(f.entries)
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
        violations=tuple(sorted(bad)),
        seed=seed,
    )
