"""Generators for concrete families: exhaustive enumerations, the extremal
complete family, the layered triple family whose weighted sum grows without
bound, and seeded random (skew) families for inequality sweeps.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .errors import ArityError, DomainError, SizeError
from .families import DTuple, Family, TupleType, _as_n, _crosses, mask_of
from .sums import multinomial

#: The most candidate tuples `search` takes on: its branch and bound grows
#: much faster than the number of candidates.
MAX_CANDIDATES = 5000
#: The most tuples a construction enumerates.  A construction costs time
#: linear in its size, so the limit is above MAX_CANDIDATES: the complete
#: family of type (1,) * 8 has 40,320 tuples.
MAX_TUPLES = 100_000
#: The draws a sampled family makes before it settles for fewer members
#: than its target.
SAMPLE_ATTEMPTS = 400
#: The largest d of a sampled family.  Each draw allocates d masks and each
#: cross test walks up to d parts, so a run's time grows with d: at n = 64
#: and d = 64, `random_bollobas_family` takes about 0.3 s to exhaust its
#: SAMPLE_ATTEMPTS draws, and about 4.5 s at d = 1,000.
MAX_SAMPLED_ARITY = 64


def _checked_count(count: int, limit: int, what: str) -> None:
    """Refuse more than `limit` units of work (tuples, cells, pairs), before doing any."""
    if count > limit:
        raise SizeError(f"{count} {what} exceed the limit {limit}")


def _checked_type(n: int, sizes: Sequence[int]) -> TupleType:
    """The sizes as a tuple, checked to be a type of d >= 2 parts that fits in [n]."""
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise ArityError(f"need d >= 2 part sizes, got {len(sizes)}")
    if any(a < 0 for a in sizes):
        raise DomainError(f"negative part size in {sizes}")
    if sum(sizes) > n:
        raise DomainError(f"part sizes {sizes} sum past the ground set size {n}")
    return sizes


def all_tuples_of_type(n: int, sizes: Sequence[int]) -> list[DTuple]:
    """Every pairwise-disjoint d-tuple of subsets of [n] with the given part sizes (see `_masks_of_type`)."""
    return list(map(DTuple, itertools.repeat(n), _masks_of_type(n, sizes)))


def _masks_of_type(n: int, sizes: Sequence[int]) -> list[tuple[int, ...]]:
    """The part masks of every pairwise-disjoint d-tuple of subsets of [n] with the given part sizes.

    Exactly once each, ordered lexicographically by (part_1, ..., part_d) as
    sorted element lists: the canonical enumeration order used everywhere.
    Built part by part: each prefix, in order, is extended by every choice of
    its next part among its free elements, in combination order, which is
    lexicographic; so the prefixes of every length stay in lexicographic
    order.  The count is checked against MAX_TUPLES before any prefix is built.
    """
    n = _as_n(n)
    sizes = _checked_type(n, sizes)
    _checked_count(multinomial(n, sizes), MAX_TUPLES, "tuples")
    bits = [1 << e for e in range(n)]
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for a in sizes:
        prefixes = [
            (masks + (part,), used | part)
            for masks, used in prefixes
            for part in map(sum, itertools.combinations([b for b in bits if not b & used], a))
        ]
    return [masks for masks, _ in prefixes]


def complete_family_size(sizes: Sequence[int]) -> int:
    """multinomial(sum(sizes), sizes), the size of `complete_family(sizes)`.

    Raises what `complete_family` raises for these sizes, its size limit
    included, without building a tuple.
    """
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise ArityError(f"need d >= 2 part sizes, got {len(sizes)}")
    if any(a < 1 for a in sizes):
        raise DomainError(f"complete_family needs positive part sizes, got {sizes}")
    m = multinomial(_as_n(sum(sizes)), sizes)
    _checked_count(m, MAX_TUPLES, "tuples")
    return m


def complete_family(sizes: Sequence[int]) -> Family:
    """All disjoint d-tuples of the given type on a ground set of exactly sum(sizes) elements.

    Every part size must be positive: then any two distinct members differ in
    some part, forcing that part to meet the other member's remaining parts,
    so the family is a Bollobás system, of the maximum possible size
    multinomial(sum, sizes) for its type.
    """
    sizes = tuple(sizes)
    complete_family_size(sizes)
    n = sum(sizes)
    return Family(n, len(sizes), _masks_of_type(n, sizes))


def _layers(n: int) -> list[TupleType]:
    """The types (l, n - 2l, l), l = 0..floor(n/2), of the layered triple family on [n]."""
    return [(l, n - 2 * l, l) for l in range(_as_n(n) // 2 + 1)]


def layered_family_size(n: int) -> int:
    """The size of `layered_triple_family(n)`, checked against MAX_TUPLES without building a tuple."""
    m = sum(multinomial(n, sizes) for sizes in _layers(n))
    _checked_count(m, MAX_TUPLES, "tuples")
    return m


def layered_triple_family(n: int) -> Family:
    """Union over l = 0..floor(n/2) of all triples of type (l, n - 2l, l) on [n].

    A Bollobás system of triples whose inverse-multinomial sum is exactly
    floor(n/2) + 1: each layer contributes 1, so the sum exceeds any constant
    for large n.  This is the standard witness that the unit upper bound for
    set pairs fails for d-tuples.
    """
    layered_family_size(n)
    return Family(n, 3, [t for sizes in _layers(n) for t in _masks_of_type(n, sizes)])


def _sample_tuple(rng: random.Random, n: int, d: int, sizes: TupleType | None) -> tuple[int, ...]:
    """The part masks of one random disjoint d-tuple: of the given type, or of a random nonempty support."""
    if sizes is not None:
        support = rng.sample(range(1, n + 1), sum(sizes))
        masks = []
        at = 0
        for a in sizes:
            masks.append(mask_of(support[at : at + a], n))
            at += a
        return tuple(masks)
    support = rng.sample(range(1, n + 1), rng.randint(1, n))
    masks = [0] * d
    for e in support:
        masks[rng.randrange(d)] |= 1 << (e - 1)
    return tuple(masks)


def _grow_family(
    n: int,
    d: int,
    sizes: TupleType | None,
    seed: int,
    target: int,
    two_sided: bool,
) -> Family:
    if target < 0:
        raise DomainError(f"sample size must be >= 0, got {target}")
    if sizes is not None:
        if len(sizes) != d:
            raise ArityError(f"type {tuple(sizes)} has arity {len(sizes)}, requested d = {d}")
        sizes = _checked_type(n, sizes)
    if d < 2:
        raise ArityError(f"need d >= 2, got {d}")
    if d > MAX_SAMPLED_ARITY:
        raise SizeError(f"d = {d} exceeds the limit {MAX_SAMPLED_ARITY} of a sampled family")
    rng = random.Random(seed)
    members: list[tuple[int, ...]] = []
    for _ in range(SAMPLE_ATTEMPTS):
        if len(members) >= target:
            break
        cand = _sample_tuple(rng, n, d, sizes)
        ok = all(_crosses(u, cand) for u in members)
        if ok and two_sided:
            ok = all(_crosses(cand, u) for u in members)
        if ok:
            members.append(cand)
    return Family(n, d, members)


def random_skew_family(
    n: int,
    d: int,
    sizes: TupleType | None = None,
    seed: int = 0,
    target: int = 10,
) -> Family:
    """Greedy seeded skew Bollobás family: append a sampled tuple iff every
    current member crosses into it.

    Deterministic for fixed arguments; may return fewer than `target` members
    when its SAMPLE_ATTEMPTS draws run out.  Not uniform over skew families;
    it is a fuzz generator for inequality sweeps, not a sampler.
    """
    return _grow_family(_as_n(n), d, sizes, seed, target, two_sided=False)


def random_bollobas_family(
    n: int,
    d: int,
    sizes: TupleType | None = None,
    seed: int = 0,
    target: int = 10,
) -> Family:
    """Like :func:`random_skew_family` but candidates must cross in both
    directions against every current member, yielding a full Bollobás system.
    """
    return _grow_family(_as_n(n), d, sizes, seed, target, two_sided=True)
