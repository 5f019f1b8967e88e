"""Delimiter events on random permutations, their exact probabilities, and
Monte Carlo estimation.

The probabilistic arguments for the weighted-sum inequalities all have the
same shape: extend the ground set by a handful of *delimiter* elements
(values above n), draw a uniform permutation of everything, and ask whether
the images of a tuple's parts appear as consecutive blocks in part order with
delimiters falling in prescribed gaps.  Events of this shape for different
tuples of a valid system are pairwise disjoint, so their probabilities sum to
at most 1, which is exactly the weighted-sum inequality.

Every event here is one pattern: the parts in block order, with a delimiter
in every gap between consecutive parts except an undelimited gap k, where
part k must merely end before part k + 1 starts.  The modes choose k:

* ``skew``: no undelimited gap (k = 0), so d - 1 delimiters;
* ``general``: one variant for each gap k = 1..d-1, each with d - 2
  delimiters;
* ``d3``: general mode at d = 3, variant "E" being k = 2 and "F" k = 1.

`in_event` decides membership for a given k.  With g delimiters and s
elements in the tuple's support, each variant has probability
1 / (C(s + g, g) * multinomial(s; sizes)), given by `event_probability`.
Variants whose label patterns coincide (possible when a part is empty) are
one event.  Empty parts impose no constraints of their own (vacuous
quantification), so two delimiters may sit adjacent where a part is empty;
the formula remains exact in that case.

The Monte Carlo estimator checks all tuples at once: the family is transposed
into column bitsets, and each trial walks the elements in permutation order,
OR-ing into one mask the tuples that each element rules out.  The shuffle
keeps the inverse of the permutation it draws, so the walk reads the elements
in rank order from it without sorting them.  The exact oracle enumerates the
distinct arrangements of a tuple's labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ArityError, DomainError, IndexRangeError, SizeError
from .families import MAX_GROUND, DTuple, Family, TupleType, _columns
from .sums import tuple_weight

EXACT_ENUMERATION_LIMIT = 10

# trials x permutation size x 64-bit words of a walk mask: a run at the limit
# takes about 20 s on one triple (2-vCPU Xeon VM, Python 3.11), less where the
# masks are wider
MAX_TRIAL_STEPS = 10**8

# parts per tuple: the walk tables grow as d^2, and a family on at most
# MAX_GROUND elements has at most MAX_GROUND nonempty parts
MAX_EVENT_ARITY = MAX_GROUND

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


# ---------------------------------------------------------------------------
# The event model.  A variant is named by its undelimited gap k (0 for none);
# part l (0-based) must lie after exactly _level(l, k) of the delimiters.


def _gaps(d: int, mode: str) -> tuple[int, ...]:
    """The undelimited gap of each of the mode's variants, in report order."""
    if mode == "skew":
        return (0,)
    if mode == "d3":
        if d != 3:
            raise ArityError(f"d3 mode needs d = 3, got {d}")
        return (2, 1)
    if mode == "general":
        return tuple(range(1, d))
    raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")


def _delimiters(d: int, mode: str) -> int:
    """g(d, mode), the delimiters of each of the mode's variants: one in
    every gap between consecutive parts but the undelimited one."""
    return d - 1 if _gaps(d, mode) == (0,) else d - 2


def _level(l: int, k: int) -> int:
    return l if k == 0 or l < k else l - 1


def _variants(sizes: TupleType, mode: str) -> dict[tuple[int, ...], int]:
    """Distinct label patterns (part number per slot, 0 = delimiter), each
    with the first gap k that gives it."""
    out: dict[tuple[int, ...], int] = {}
    for k in _gaps(len(sizes), mode):
        seq: list[int] = []
        for l, a in enumerate(sizes):
            if l and l != k:
                seq.append(0)
            seq.extend([l + 1] * a)
        out.setdefault(tuple(seq), k)
    return out


def in_event(sigma: Permutation, t: DTuple, k: int = 0) -> bool:
    """True iff the parts of t appear as ordered blocks with a delimiter in
    every gap between consecutive parts except the undelimited gap k, where
    part k merely ends before part k + 1 starts.

    k = 0 is the skew event (no undelimited gap, d - 1 delimiters); k in
    1..d-1 is the general event of gap k (d - 2 delimiters).  sigma must act
    on n elements plus the delimiters, the elements above n, whose mutual
    order is free.  Empty parts constrain nothing.
    """
    if not 0 <= k <= t.d - 1:
        raise IndexRangeError(f"gap index k must be in 0..{t.d - 1}, got {k}")
    need = t.n + _delimiters(t.d, "general" if k else "skew")
    if sigma.size != need:
        raise SizeError(f"permutation of size {sigma.size}, expected {need}")
    img, parts = sigma.images, t.parts()
    bounds = [0, *sorted(img[t.n :]), need + 1]
    for l, part in enumerate(parts):
        lo, hi = bounds[_level(l, k)], bounds[_level(l, k) + 1]
        for a in part:
            if not lo < img[a - 1] < hi:
                return False
    if k:
        left, right = parts[k - 1], parts[k]
        if left and right and max(img[a - 1] for a in left) > min(img[b - 1] for b in right):
            return False
    return True


def in_event_d3(sigma: Permutation, t: DTuple, variant: str) -> bool:
    """The paper's single-delimiter triple events: `in_event` at k = 2
    (variant "E") or k = 1 (variant "F").

    Variant "E": part 1, delimiter, part 2, part 3 (parts 2 and 3 in block
    order after the delimiter).  Variant "F": part 1, part 2, delimiter,
    part 3.  With part 2 empty the two variants coincide.
    """
    if t.d != 3:
        raise ArityError(f"d3 events need d = 3, got d = {t.d}")
    if variant not in ("E", "F"):
        raise DomainError(f"variant must be 'E' or 'F', got {variant!r}")
    return in_event(sigma, t, 2 if variant == "E" else 1)


def event_probability(sizes: TupleType, mode: str = "skew") -> Fraction:
    """P of each of the mode's events for a tuple of type `sizes`:
    1 / (C(s + g, g) * multinomial(s, sizes)), g = `_delimiters(d, mode)`.
    The delimiters are one more part of the multinomial, so the denominator
    is `tuple_weight((*sizes, g))`.

    The same value for every gap k, by symmetry of the block pattern.
    """
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise ArityError(f"need d >= 2, got {len(sizes)}")
    return Fraction(1, tuple_weight((*sizes, _delimiters(len(sizes), mode))))


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every distinct arrangement of the relevant
# labels (tuple support plus delimiters; each arrangement is equally likely)
# and count them, since each variant's pattern is exactly one of them.


def _arrangements(labels: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct arrangement of the multiset once, in lexicographic order
    (next permutation)."""
    a = sorted(labels)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def exact_event_probability(f: Family, index: int, mode: str = "skew") -> Fraction:
    """Probability of tuple `index`'s event by enumerating the arrangements of
    the relevant elements' labels, as an independent check of the closed
    formulas.

    `index` is 1-based.  Only the relative order of the tuple's support and
    the delimiters matters, and elements of one part (or delimiters) are
    interchangeable, so each distinct arrangement of the r labels is equally
    likely.  Every variant of the mode is exactly one of those arrangements,
    so each has probability 1 over their number, which the enumeration
    counts; inputs beyond 10 relevant elements are rejected.
    """
    if not 1 <= index <= len(f):
        raise IndexRangeError(f"tuple index must be in 1..{len(f)}, got {index}")
    sizes = tuple(map(int.bit_count, f.masks[index - 1]))
    r = sum(sizes) + _delimiters(f.d, mode)
    if r > EXACT_ENUMERATION_LIMIT:
        raise SizeError(f"{r} relevant elements exceed the enumeration limit {EXACT_ENUMERATION_LIMIT}")
    labels = next(iter(_variants(sizes, mode)))
    return Fraction(1, sum(1 for _ in _arrangements(labels)))


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


def _walk_masks(
    cols: list[list[int]], uses: dict[int, int], m: int, levels: int
) -> tuple[list[list[int]], list[int], list[int]]:
    """The masks a trial's walk reads, for all variants at once.

    cols[l][e] is the bitset of tuples with element e + 1 in part l; uses[k]
    the tuples that have the variant with undelimited gap k.  The variants
    are laid side by side, variant v's copy of tuple i being bit v * m + i.
    rules[level][e] holds the copies that element e rules out when it lies
    between delimiters level and level + 1: those with e in a part of
    another interval.  left[e] holds the copies with e in part k, which e
    rules out once part k + 1 has started; right[e] those with e in part
    k + 1.  Every mask lies within the copies in use.
    """
    n = len(cols[0])
    # a tuple has e in at most one part, so the parts of e outside an
    # interval are all parts of e minus those inside it
    every = [0] * n
    for col in cols:
        every = [a | c for a, c in zip(every, col)]
    rules = [[0] * n for _ in range(levels)]
    left, right = [0] * n, [0] * n
    for v, (k, use) in enumerate(uses.items()):
        shift = v * m
        inside = [[0] * n for _ in rules]
        for l, col in enumerate(cols):
            inside[_level(l, k)] = [a | c for a, c in zip(inside[_level(l, k)], col)]
        for level, row in enumerate(inside):
            rules[level] = [r | ((a ^ c) & use) << shift for r, a, c in zip(rules[level], every, row)]
        if k:
            left = [r | (c & use) << shift for r, c in zip(left, cols[k - 1])]
            right = [r | (c & use) << shift for r, c in zip(right, cols[k])]
    return rules, left, right


def _shuffles(rng: random.Random, img: list[int], trials: int) -> Iterator[list[int]]:
    """Shuffle img, a permutation of range(len(img)), in place `trials` times,
    yielding its inverse after each shuffle: order[r] = e where img[e] = r,
    so `for e in order` visits the elements in rank order.

    Each shuffle makes exactly the calls of `rng.shuffle(img)`: for i from
    len(img) - 1 down to 1 it draws j = getrandbits(k), k = (i + 1).bit_length(),
    until j <= i (the rejection loop of `Random._randbelow`), then swaps
    img[i] and img[j].  Written out, it saves the Python call of `_randbelow`
    per element, most of the cost of `shuffle`; the same swaps keep `order`
    the inverse of img.
    """
    getrandbits = rng.getrandbits
    order = [0] * len(img)
    for e, r in enumerate(img):
        order[r] = e
    steps = [(i, i + 1, (i + 1).bit_length()) for i in reversed(range(1, len(img)))]
    for _ in range(trials):
        for i, below, k in steps:
            j = getrandbits(k)
            while j >= below:
                j = getrandbits(k)
            a, b = img[i], img[j]
            img[i], img[j] = b, a
            order[b] = i
            order[a] = j
        yield order


def monte_carlo(f: Family, mode: str, trials: int, seed: int) -> EventReport:
    """Sample uniform permutations from `seed` and tally event memberships.

    Deterministic: fixed (family, mode, trials, seed) reproduce the report
    bit for bit.  Trials are drawn from a single stream: `_shuffles` writes
    out `random.Random(seed).shuffle` inline, with the same `getrandbits`
    draws, so every trial sees the permutation `shuffle` would give
    (pinned by `test_shuffles_match_the_stdlib_shuffle`).  d may not exceed
    `MAX_EVENT_ARITY`, and trials times the permutation size times the
    64-bit words of a walk mask (variants x m bits) may not exceed
    `MAX_TRIAL_STEPS`; past either `SizeError` is raised before any column,
    mask or permutation is built.

    All tuples and variants are checked in one walk per trial (see
    `_walk_masks`): the elements are visited in permutation order, read from
    the inverse permutation `_shuffles` keeps, counting the delimiters
    passed, and each one ORs into `bad` the copies it rules out (none, for
    an element outside every support); for variants with an undelimited gap
    k it also rules out the copies whose part k has an element after one of
    part k + 1.  The walk stops once `bad` covers `use`; the copies of `use`
    left outside `bad` are the hits.
    """
    if trials < 0:
        raise DomainError(f"negative trials {trials}")
    if f.d > MAX_EVENT_ARITY:
        raise SizeError(f"{f.d} parts per tuple exceed the limit of {MAX_EVENT_ARITY}")
    gaps = _gaps(f.d, mode)
    g = _delimiters(f.d, mode)
    n, m = f.n, len(f)
    size = n + g
    words = max(1, -(-len(gaps) * m // 64))
    if trials * size * words > MAX_TRIAL_STEPS:
        width = f" of {words} mask words each" if words > 1 else ""
        raise SizeError(
            f"{trials} trials of {size} elements exceed the limit of {MAX_TRIAL_STEPS} trial steps{width}"
        )
    types = [tuple(map(int.bit_count, t)) for t in f.masks]
    variants = {sizes: _variants(sizes, mode) for sizes in set(types)}
    chance = {sizes: len(v) * event_probability(sizes, mode) for sizes, v in variants.items()}
    formulas = tuple(map(chance.__getitem__, types))
    uses = dict.fromkeys(gaps, 0)
    for i, sizes in enumerate(types):
        for k in variants[sizes].values():
            uses[k] |= 1 << i
    cols = [_columns(f.masks, n, q) for q in range(f.d)]
    rules, left, right = _walk_masks(cols, uses, m, g + 1)
    use = sum(u << v * m for v, u in enumerate(uses.values()))
    rng = random.Random(seed)
    hits = [0] * m
    max_sim = 0
    for order in _shuffles(rng, list(range(size)), trials):
        bad = seen = level = 0
        rule = rules[0]
        for e in order:
            if e >= n:
                level += 1
                rule = rules[level]
                continue
            bad |= rule[e] | (left[e] & seen)
            seen |= right[e]
            if bad == use:
                break
        else:
            hit = use ^ bad
            if hit:
                sim = hit.bit_count()
                if sim > max_sim:
                    max_sim = sim
                while hit:
                    low = hit & -hit
                    hits[(low.bit_length() - 1) % m] += 1
                    hit ^= low
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
