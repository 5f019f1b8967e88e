"""Delimiter events on random permutations, their exact probabilities, and
Monte Carlo estimation.

The probabilistic arguments for the weighted-sum inequalities all have the
same shape: extend the ground set by a handful of *delimiter* elements
(values above n), draw a uniform permutation of everything, and ask whether
the images of a tuple's parts appear as consecutive blocks in part order with
delimiters falling in prescribed gaps.  Events of this shape for different
tuples of a valid system are pairwise disjoint, so their probabilities sum to
at most 1, which is exactly the weighted-sum inequality.

Three event shapes are implemented:

* ``skew``: d - 1 delimiters, one in every gap between consecutive parts;
* ``d3``: triples with a single delimiter, placed either between parts
  1 and 2 (variant "E") or between parts 2 and 3 (variant "F");
* ``general``: d - 2 delimiters, one in every gap except a chosen gap k.

Empty parts impose no constraints of their own (vacuous quantification), so
two delimiters may sit adjacent where a part is empty; the probability
formulas below remain exact in that case.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ArityError, DomainError, IndexRangeError, SizeError
from .families import DTuple, Family, TupleType, type_of
from .sums import binomial, multinomial

EXACT_ENUMERATION_LIMIT = 10

MODES = ("skew", "d3", "general")


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1, ..., N}; images[e - 1] is the image (rank) of e.

    Delimiters are ordinary elements with values above the ground set size.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise DomainError("images are not a bijection on 1..N")

    @property
    def size(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(1, size + 1)))

    @classmethod
    def from_mapping(cls, mapping: dict[int, int], size: int) -> "Permutation":
        return cls(tuple(mapping[e] for e in range(1, size + 1)))


# ---------------------------------------------------------------------------
# Membership predicates.  The _hit functions take the raw image table and are
# shared by the public wrappers and the Monte Carlo inner loop.


def _skew_hit(img: Sequence[int], parts: Sequence[Sequence[int]], n: int, d: int) -> bool:
    delims = sorted(img[e - 1] for e in range(n + 1, n + d))
    top = len(img) + 1
    lo = 0
    for k, part in enumerate(parts):
        hi = delims[k] if k < d - 1 else top
        for a in part:
            if not lo < img[a - 1] < hi:
                return False
        lo = hi
    return True


def _d3_hit(img: Sequence[int], parts: Sequence[Sequence[int]], n: int, variant: str) -> bool:
    p = img[n]
    a1, a2, a3 = parts
    for a in a1:
        if img[a - 1] > p:
            return False
    for c in a3:
        if img[c - 1] < p:
            return False
    if variant == "E":
        for b in a2:
            if img[b - 1] < p:
                return False
        pre, post = a2, a3
    else:  # "F"
        for b in a2:
            if img[b - 1] > p:
                return False
        pre, post = a1, a2
    if pre and post and max(img[x - 1] for x in pre) > min(img[y - 1] for y in post):
        return False
    return True


def _general_hit(
    img: Sequence[int], parts: Sequence[Sequence[int]], n: int, d: int, k: int
) -> bool:
    delims = sorted(img[e - 1] for e in range(n + 1, n + d - 1))
    top = len(img) + 1
    for l in range(1, d + 1):
        iv = l - 1 if l <= k else l - 2
        lo = delims[iv - 1] if iv >= 1 else 0
        hi = delims[iv] if iv <= d - 3 else top
        for a in parts[l - 1]:
            if not lo < img[a - 1] < hi:
                return False
    left, right = parts[k - 1], parts[k]
    if left and right and max(img[a - 1] for a in left) > min(img[b - 1] for b in right):
        return False
    return True


def in_event_skew(sigma: Permutation, t: DTuple) -> bool:
    """True iff the parts of t appear as ordered blocks with one delimiter in
    every gap between consecutive parts.

    sigma must act on n + d - 1 elements; the d - 1 elements above n are the
    delimiters (their mutual order is free).  Empty parts constrain nothing.
    """
    need = t.n + t.d - 1
    if sigma.size != need:
        raise SizeError(f"permutation of size {sigma.size}, expected {need}")
    return _skew_hit(sigma.images, t.parts(), t.n, t.d)


def in_event_d3(sigma: Permutation, t: DTuple, variant: str) -> bool:
    """Single-delimiter triple events.

    Variant "E": part 1, delimiter, part 2, part 3 (parts 2 and 3 in block
    order after the delimiter).  Variant "F": part 1, part 2, delimiter,
    part 3.  With part 2 empty the two variants coincide.
    """
    if t.d != 3:
        raise ArityError(f"d3 events need d = 3, got d = {t.d}")
    if variant not in ("E", "F"):
        raise DomainError(f"variant must be 'E' or 'F', got {variant!r}")
    need = t.n + 1
    if sigma.size != need:
        raise SizeError(f"permutation of size {sigma.size}, expected {need}")
    return _d3_hit(sigma.images, t.parts(), t.n, variant)


def in_event_general(sigma: Permutation, t: DTuple, k: int) -> bool:
    """Parts in block order with one delimiter in every gap except gap k.

    sigma must act on n + d - 2 elements (d - 2 delimiters).  For d = 3 this
    reduces to the d3 events: k = 2 is variant "E", k = 1 is variant "F".
    """
    d = t.d
    if not 1 <= k <= d - 1:
        raise IndexRangeError(f"gap index k must be in 1..{d - 1}, got {k}")
    need = t.n + d - 2
    if sigma.size != need:
        raise SizeError(f"permutation of size {sigma.size}, expected {need}")
    return _general_hit(sigma.images, t.parts(), t.n, d, k)


# ---------------------------------------------------------------------------
# Exact probabilities.


def event_probability(sizes: TupleType, d: int | None = None) -> Fraction:
    """P of the skew event: 1 / (C(s + d - 1, d - 1) * multinomial(s, sizes))."""
    sizes = tuple(sizes)
    if d is None:
        d = len(sizes)
    elif d != len(sizes):
        raise ArityError(f"type {sizes} has arity {len(sizes)}, not {d}")
    if d < 2:
        raise ArityError(f"need d >= 2, got {d}")
    s = sum(sizes)
    return Fraction(1, binomial(s + d - 1, d - 1) * multinomial(s, sizes))


def d3_event_probability(sizes: TupleType) -> Fraction:
    """P of either single-delimiter triple event: 1 / ((s + 1) * multinomial(s, sizes))."""
    sizes = tuple(sizes)
    if len(sizes) != 3:
        raise ArityError(f"d3 events need arity 3, got {len(sizes)}")
    s = sum(sizes)
    return Fraction(1, (s + 1) * multinomial(s, sizes))


def general_event_probability(sizes: TupleType) -> Fraction:
    """P of each gap-k event: 1 / (C(s + d - 2, d - 2) * multinomial(s, sizes)).

    The same value for every gap k, by symmetry of the block pattern.
    """
    sizes = tuple(sizes)
    d = len(sizes)
    if d < 2:
        raise ArityError(f"need d >= 2, got {d}")
    s = sum(sizes)
    return Fraction(1, binomial(s + d - 2, d - 2) * multinomial(s, sizes))


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every relative ordering of the relevant
# elements (tuple support plus delimiters) and count raw favorable orderings.


def _signatures(sizes: TupleType, mode: str) -> list[tuple[int, ...]]:
    """Distinct label patterns (part index per slot, 0 = delimiter) for the mode's variants."""
    d = len(sizes)
    blocks = [[k] * sizes[k - 1] for k in range(1, d + 1)]
    if mode == "skew":
        seq: list[int] = []
        for k, block in enumerate(blocks):
            if k:
                seq.append(0)
            seq.extend(block)
        return [tuple(seq)]
    if mode == "d3":
        if d != 3:
            raise ArityError(f"d3 mode needs arity 3, got {d}")
        e = tuple(blocks[0] + [0] + blocks[1] + blocks[2])
        f = tuple(blocks[0] + blocks[1] + [0] + blocks[2])
        return [e] if e == f else [e, f]
    if mode == "general":
        seen: list[tuple[int, ...]] = []
        for k in range(1, d):
            seq = []
            for g, block in enumerate(blocks):
                if g and g != k:
                    seq.append(0)
                seq.extend(block)
            sig = tuple(seq)
            if sig not in seen:
                seen.append(sig)
        return seen
    raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")


def _delimiter_count(d: int, mode: str) -> int:
    if mode == "skew":
        return d - 1
    if mode == "d3":
        if d != 3:
            raise ArityError(f"d3 mode needs d = 3, got {d}")
        return 1
    if mode == "general":
        return d - 2
    raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")


def exact_event_probability(f: Family, index: int, mode: str = "skew") -> Fraction:
    """Probability of tuple `index`'s event by enumerating all orderings of the
    relevant elements, as an independent check of the closed formulas.

    `index` is 1-based.  Only the relative order of the tuple's support and
    the delimiters matters, so the enumeration has (s + delimiters)! cases;
    inputs beyond 10 relevant elements are rejected.  For multi-variant modes
    all variants are counted in one pass, checked for equal probability, and
    the common value returned.
    """
    t = f.tuples[index - 1]
    sizes = type_of(t)
    delta = _delimiter_count(t.d, mode)
    r = sum(sizes) + delta
    if r > EXACT_ENUMERATION_LIMIT:
        raise SizeError(f"{r} relevant elements exceed the enumeration limit {EXACT_ENUMERATION_LIMIT}")
    labels: list[int] = []
    for k, a in enumerate(sizes, start=1):
        labels.extend([k] * a)
    labels.extend([0] * delta)
    targets = _signatures(sizes, mode)
    counts = [0] * len(targets)
    for perm in itertools.permutations(labels):
        for ix, target in enumerate(targets):
            if perm == target:
                counts[ix] += 1
    total = math.factorial(r)
    values = {Fraction(c, total) for c in counts}
    if len(values) != 1:
        raise DomainError(f"event variants disagree: {sorted(values)}")
    return values.pop()


# ---------------------------------------------------------------------------
# Monte Carlo.


@dataclass(frozen=True)
class EventReport:
    """Aggregated hit statistics for one family's events under sampled permutations.

    hits[i] counts, over all trials, memberships in any of tuple i + 1's
    distinct event variants (variants with identical patterns, e.g. "E" and
    "F" for a triple with empty middle part, are merged, so they count
    once).  max_simultaneous_hits is the largest number of distinct events a
    single permutation landed in; for a valid system it is at most 1.
    formula_values[i] is the exact expectation of a single trial's
    contribution to hits[i].
    """

    mode: str
    trials: int
    seed: int
    hits: tuple[int, ...]
    estimates: tuple[Fraction, ...]
    formula_values: tuple[Fraction, ...]
    max_simultaneous_hits: int


Check = Callable[[Sequence[int]], bool]


def _tuple_checks(t: DTuple, mode: str) -> tuple[list[Check], Fraction]:
    """Membership closures for the distinct variants of one tuple, plus their total probability."""
    parts = t.parts()
    n, d = t.n, t.d
    sizes = type_of(t)
    checks: list[Check] = []
    if mode == "skew":
        checks.append(lambda img: _skew_hit(img, parts, n, d))
        prob = event_probability(sizes)
    elif mode == "d3":
        if d != 3:
            raise ArityError(f"d3 mode needs d = 3, got {d}")
        checks.append(lambda img: _d3_hit(img, parts, n, "E"))
        if sizes[1] > 0:
            checks.append(lambda img: _d3_hit(img, parts, n, "F"))
        prob = len(checks) * d3_event_probability(sizes)
    elif mode == "general":
        for k in _distinct_gaps(sizes):
            checks.append(lambda img, kk=k: _general_hit(img, parts, n, d, kk))
        prob = len(checks) * general_event_probability(sizes)
    else:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    return checks, prob


def _distinct_gaps(sizes: TupleType) -> list[int]:
    """One representative gap index per distinct general-mode pattern."""
    d = len(sizes)
    reps: list[int] = []
    seen: set[tuple[int, ...]] = set()
    blocks = [[k] * sizes[k - 1] for k in range(1, d + 1)]
    for k in range(1, d):
        seq = []
        for g, block in enumerate(blocks):
            if g and g != k:
                seq.append(0)
            seq.extend(block)
        sig = tuple(seq)
        if sig not in seen:
            seen.add(sig)
            reps.append(k)
    return reps


def permutation_size(f: Family, mode: str) -> int:
    """Size of the extended ground set the mode's permutations act on."""
    return f.n + _delimiter_count(f.d, mode)


def monte_carlo(f: Family, mode: str, trials: int, seed: int) -> EventReport:
    """Sample uniform permutations from `seed` and tally event memberships.

    Deterministic: fixed (family, mode, trials, seed) reproduce the report
    bit for bit.  Trials are drawn from a single stream.
    """
    if trials < 0:
        raise DomainError(f"negative trials {trials}")
    size = permutation_size(f, mode)
    per_tuple = [_tuple_checks(t, mode) for t in f.tuples]
    checks = [c for c, _ in per_tuple]
    formulas = tuple(p for _, p in per_tuple)
    rng = random.Random(seed)
    img = list(range(1, size + 1))
    hits = [0] * len(f.tuples)
    max_sim = 0
    for _ in range(trials):
        rng.shuffle(img)
        sim = 0
        for ti, chks in enumerate(checks):
            for chk in chks:
                if chk(img):
                    hits[ti] += 1
                    sim += 1
        if sim > max_sim:
            max_sim = sim
    estimates = tuple(Fraction(h, trials) if trials else Fraction(0) for h in hits)
    return EventReport(
        mode=mode,
        trials=trials,
        seed=seed,
        hits=tuple(hits),
        estimates=estimates,
        formula_values=formulas,
        max_simultaneous_hits=max_sim,
    )
