"""Core domain types for d-tuple set families and the cross-intersection predicates.

A *d-tuple* is an ordered list of d pairwise-disjoint subsets of the ground
set {1, ..., n}.  A family of d-tuples is a *Bollobás system* when every
ordered pair of distinct tuples (i, j) has some parts p < q with part p of
tuple i meeting part q of tuple j; it is a *skew* Bollobás system when this
is only required for i < j in the listed order.

Conventions used across the package:

* elements of the ground set are 1-based (the set is {1, ..., n});
* tuple indices reported to or accepted from callers are 1-based, matching
  the i in [m] convention of the definitions (internal lists are plain
  0-based Python lists);
* parts are stored as 64-bit masks, so n is capped at 64 and every
  intersection test is a single AND.

Verification goes through one bit-sliced crossing-row index: the family is
transposed once into per-part, per-element bitsets over the tuples, and each
tuple's row (the set of tuples it crosses into) is an OR of a few of them.
The (skew) validity scans and the adjacency of the extremal search in
`search` both read these rows instead of testing pairs one at a time, and
the Monte Carlo walk in `events` reads the same column bitsets.

A `Family` is its part masks: every reader and construction hands masks to
its constructor, no reader skips it, every scan and writer reads
`Family.masks`, and its DTuples are views.  The constructor checks a family
of tuples, which both readers, the constructions and the search hand it,
with one C-level pass per fact over all members (their types, their
lengths); any other family, of DTuples or lists, mixed or faulty, is read
member by member, which names its first fault.  A family document has one
fast read and one checked read.  `family_from_text` first decodes a text
with no `true` or `false` literal as a *coded* document: the JSON scanner
reads each integer literal "1".."64" as its element's mask bit
(`_LITERAL_BIT`), so a part's mask is one `sum` of the part.  Facts of the
whole text stand in for type passes over the decoded document: as it holds
no bool, no pass over the elements checks their type, since a non-int
element makes the sums raise TypeError instead; and when it holds no `""`
and no second "{", no pass checks that each part is a list, since `sum`
refuses every other part but "" and {}.  A document the coded read refuses
for any reason, a literal outside the table included, is decoded again
with plain ints and read by `family_from_json`, one tuple at a time
through `validate_tuple`, which names its first fault; a text with a bool
literal is only read that way.  The writers work the other way, from masks
to parts: the constructions repeat a few parts many times (the layered
family on [9] has 9,417 parts but 419 distinct masks), so
`family_to_json`, `relabel` and `spaces.lift_to_spaces` each compute their
value of a part once per distinct mask (`_by_distinct_mask`) and read
every tuple's parts through that table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ArityError,
    FormatError,
    MismatchError,
    OverlapError,
    RangeError,
)
from .wire import decode, fields

MAX_GROUND = 64

#: The type of a d-tuple: the vector of its part sizes.
TupleType = tuple[int, ...]


def _as_n(n: int) -> int:
    """The ground set size n, checked to lie in 1..64."""
    if not 1 <= n <= MAX_GROUND:
        raise RangeError(f"ground set size must be in 1..{MAX_GROUND}, got {n}")
    return n


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask of a set of 1-based elements, validating each to be an int (not a bool) in 1..n."""
    m = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool):
            raise RangeError(f"element {e!r} is not an int")
        if not 1 <= e <= n:
            raise RangeError(f"element {e} outside ground set 1..{n}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a bitmask; RangeError for a negative one, which has no last bit."""
    if mask < 0:
        raise RangeError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class DTuple:
    """A d-tuple of pairwise-disjoint subsets of {1, ..., n}.

    Parts are bitmasks; construct through :func:`validate_tuple` (direct
    construction skips disjointness checks).  Any part may be empty.
    """

    n: int
    masks: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.masks)

    def parts(self) -> tuple[tuple[int, ...], ...]:
        """Parts as sorted element tuples."""
        return tuple(elements_of(m) for m in self.masks)

    def type(self) -> TupleType:
        """The type of the tuple: its vector of part sizes."""
        return tuple(m.bit_count() for m in self.masks)


def validate_tuple(parts: Sequence[Iterable[int]], n: int) -> DTuple:
    """Build a DTuple, checking range, arity >= 2, and pairwise disjointness.

    Raises OverlapError with the first colliding part pair (p, q, element),
    RangeError for an element other than an int in 1..n, ArityError for d < 2.
    The check is linear in d: part p meets a later part iff it meets the
    union of the parts after it.
    """
    _as_n(n)
    if len(parts) < 2:
        raise ArityError(f"a d-tuple needs d >= 2 parts, got {len(parts)}")
    masks = [mask_of(p, n) for p in parts]
    after = [0] * len(masks)  # after[p]: the union of the parts after part p
    for p in range(len(masks) - 2, -1, -1):
        after[p] = after[p + 1] | masks[p + 1]
    for p, mask in enumerate(masks):
        if mask & after[p]:
            q = next(q for q in range(p + 1, len(masks)) if mask & masks[q])
            raise OverlapError(p + 1, q + 1, elements_of(mask & masks[q])[0])
    return DTuple(n, tuple(masks))


@dataclass(frozen=True, slots=True)
class Family:
    """An ordered sequence of d-tuples over one ground set, kept as the d part
    masks of each (`masks`); the DTuples of `tuples` and iteration are views.

    Each tuple is given as a DTuple of the family's n and d or as its masks,
    in any iterable, read once.  Members that are all tuples of length d are
    kept after one pass per fact over the family; any other family is read
    member by member, and the first one of another n or d raises
    MismatchError.  Masks are taken as given: they must be
    non-negative, pairwise disjoint and below 2^n.  Order is semantically
    significant: the skew condition quantifies over pairs i < j in this
    order.
    """

    n: int
    d: int
    masks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _as_n(self.n)
        if self.d < 2:
            raise ArityError(f"family arity must be >= 2, got {self.d}")
        members = tuple(self.masks)
        if set(map(type, members)) <= {tuple} and set(map(len, members)) <= {self.d}:
            rows = members
        else:
            rows = []
            for t in members:  # DTuples, other members or a fault: name the first one
                n, t = (t.n, t.masks) if isinstance(t, DTuple) else (self.n, tuple(t))
                if n != self.n or len(t) != self.d:
                    raise MismatchError(f"tuple with n={n}, d={len(t)} in family with n={self.n}, d={self.d}")
                rows.append(t)
            rows = tuple(rows)
        object.__setattr__(self, "masks", rows)

    @property
    def tuples(self) -> tuple[DTuple, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[DTuple]:
        return map(DTuple, repeat(self.n), self.masks)

    @classmethod
    def build(cls, n: int, parts_list: Sequence[Sequence[Iterable[int]]], d: int | None = None) -> "Family":
        """Validate raw part lists into a Family; d may be given for an empty family."""
        masks = tuple(validate_tuple(p, n).masks for p in parts_list)
        if d is None:
            if not masks:
                raise ArityError("arity d must be given for an empty family")
            d = len(masks[0])
        return cls(n, d, masks)


def cross_condition(s: DTuple, t: DTuple) -> bool:
    """True iff some part p of s meets some later part q > p of t.

    This is the ordered condition with s in the role of tuple i and t in the
    role of tuple j; it is not symmetric.
    """
    if s.n != t.n or s.d != t.d:
        raise MismatchError(f"tuples disagree: n={s.n}/{t.n}, d={s.d}/{t.d}")
    return _crosses(s.masks, t.masks)


def _crosses(sm: Sequence[int], tm: Sequence[int]) -> bool:
    """`cross_condition` on the part masks of two tuples of one arity."""
    # suffix-OR of tm's parts strictly after p
    suffix = 0
    for q in range(len(tm) - 1, 0, -1):
        suffix |= tm[q]
        if sm[q - 1] & suffix:
            return True
    return False


#: The `struct` code of the unsigned word of each width in bits, narrowest first.
_WORD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _columns(tuples: Sequence[Sequence[int]], n: int, q: int) -> list[int]:
    """Column bitsets of part q: col[e] holds bit i iff part q of tuple i
    contains element e + 1.

    `tuples` holds each tuple's part masks over [n].  The part-q masks are
    packed once into one int as words of the narrowest width w in 8, 16, 32
    and 64 that holds n bits, tuple i at bits wi..wi+w-1, and written as one
    binary string; the column of element e is then one strided slice of it,
    read by one `int(..., 2)`.  At n <= 8 the string is an eighth of the
    length 64-bit words would give it.
    """
    if not tuples:  # int("", 2) would raise
        return [0] * n
    width = next(w for w in _WORD_CODES if n <= w)
    words = struct.pack(f"<{len(tuples)}{_WORD_CODES[width]}", *map(itemgetter(q), tuples))
    # most significant bit first: character w - 1 - e + wk is bit e of tuple m - 1 - k
    bits = format(int.from_bytes(words, "little"), f"0{width * len(tuples)}b")
    return [int(bits[width - 1 - e :: width], 2) for e in range(n)]


def _crossing_rows(tuples: Sequence[Sequence[int]], n: int, d: int) -> Iterator[int]:
    """Yield, in order, each tuple's crossing row: bit j of row i is set iff
    cross_condition(t_i, t_j).

    `tuples` holds each tuple's d part masks over [n].  The family is
    transposed once into column bitsets (see `_columns`); suffix ORs then
    give later[p][e] = the tuples with e in some part after p.  Row i is the
    OR of later[p][e] over the elements e of part p of t_i, so each row costs
    one big-int OR per element instead of m interpreted pair tests.  Rows
    are computed on demand.
    """
    if not tuples:
        return
    later: list[list[int]] = [[]] * (d - 1)
    acc = [0] * n
    for q in range(d - 1, 0, -1):
        acc = [a | c for a, c in zip(acc, _columns(tuples, n, q))]
        later[q - 1] = acc
    for t in tuples:
        row = 0
        for p in range(d - 1):
            mask, cols = t[p], later[p]
            while mask:
                low = mask & -mask
                row |= cols[low.bit_length() - 1]
                mask ^= low
        yield row


def _first_violation(f: Family, skew: bool) -> tuple[int, int] | None:
    """Lexicographically first failing pair, 1-based: i < j in skew mode, i != j otherwise."""
    full = (1 << len(f.masks)) - 1
    for i, row in enumerate(_crossing_rows(f.masks, f.n, f.d)):
        wanted = full >> (i + 1) << (i + 1) if skew else full ^ (1 << i)
        missing = wanted & ~row
        if missing:
            return i + 1, (missing & -missing).bit_length()
    return None


def bollobas_violation(f: Family) -> tuple[int, int] | None:
    """First ordered pair (i, j), i != j, failing the cross condition; None if valid.

    Pairs are 1-based and reported in lexicographic order, so reports are
    deterministic.
    """
    return _first_violation(f, skew=False)


def skew_violation(f: Family) -> tuple[int, int] | None:
    """First pair i < j failing the cross condition; None if the family is skew-valid."""
    return _first_violation(f, skew=True)


def is_bollobas(f: Family) -> bool:
    """True iff every ordered pair of distinct tuples satisfies the cross condition."""
    return bollobas_violation(f) is None


def is_skew_bollobas(f: Family) -> bool:
    """True iff every pair i < j satisfies the cross condition."""
    return skew_violation(f) is None


def relabel(f: Family, mapping: Sequence[int]) -> Family:
    """Apply a permutation of {1, ..., n} to every element of every part.

    mapping[e - 1] is the image of element e.  Every entry must be one that
    `operator.index` reads as an int, other than a bool; otherwise
    RangeError is raised before any mask is built.  Validity of the (skew)
    Bollobás property is invariant under relabeling.
    """
    if any(isinstance(e, bool) for e in mapping):
        raise RangeError("mapping entries must be ints, not bools")
    try:
        mapping = [index(e) for e in mapping]
    except TypeError:
        raise RangeError("mapping entries must be ints") from None
    if sorted(mapping) != list(range(1, f.n + 1)):
        raise RangeError("mapping is not a permutation of 1..n")
    bits = [0] + [1 << (e - 1) for e in mapping]  # bits[e]: the mask bit of e's image
    images = _by_distinct_mask(f, lambda mask: sum(map(bits.__getitem__, elements_of(mask))))
    return Family(f.n, f.d, [tuple(map(images.__getitem__, t)) for t in f.masks])


def _by_distinct_mask(f: Family, value: Callable[[int], object]) -> dict[int, object]:
    """value(mask) for each distinct part mask of f, each computed once.

    Equal parts read the same value object, so a caller that hands the
    values out must copy the mutable ones.
    """
    return {mask: value(mask) for mask in set(chain.from_iterable(f.masks))}


# ---------------------------------------------------------------------------
# JSON wire format:  {"n": int, "d": int, "tuples": [[[ints], ...], ...]}
# Elements 1-based; emitted inner lists sorted ascending.


def family_to_json(f: Family) -> dict:
    """The JSON object of a family: every part is a fresh sorted list of its elements.

    Each distinct part mask is decoded once, and each part gets its own list
    of it, so a caller may change one part without changing another.
    """
    elements = _by_distinct_mask(f, elements_of)
    return {
        "n": f.n,
        "d": f.d,
        "tuples": [[list(elements[mask]) for mask in t] for t in f.masks],
    }


#: The mask bit of each element keyed by its JSON integer literal, "1".."64":
#: the `parse_int` table of a coded family document.
_LITERAL_BIT = {str(e): 1 << (e - 1) for e in range(1, MAX_GROUND + 1)}


def family_from_text(text: str) -> Family:
    """Read a family from the text of its JSON document (see the module docstring).

    The coded document holds every int as the mask bit of its literal, so n
    and d are read back as bit lengths.  No bool literal in the text stands
    in for the element type pass, and no `""` and at most one "{" for the
    part type pass (`_no_empty_string_or_object`, `strict_sums`).  A literal
    outside the table (a KeyError), a decode error, a missing or non-int
    field or a document `_flat_masks` refuses sends the text through a plain
    decode and `family_from_json`, so every answer and every error is the
    per-tuple read's.
    """
    # "r" and "a" first: each is one fast character search, and the keys of a
    # family document hold neither, so a written family skips both scans
    if ("r" not in text or "true" not in text) and ("a" not in text or "false" not in text):
        try:
            n, d, raw = fields(decode(text, _LITERAL_BIT.__getitem__), "family", ("n", "d"), "tuples")
            n, d = n.bit_length(), d.bit_length()
            masks = _flat_masks(raw, n, d, strict_sums=_no_empty_string_or_object(text))
            if masks is not None:
                return Family(n, d, masks)
        except (KeyError, FormatError):
            pass
    return family_from_json(decode(text))


def _no_empty_string_or_object(text: str) -> bool:
    """True if `text` holds no empty string and no object inside its outer one:
    no `""` and at most one "{".

    Each search stops early: the `""` search at the last quote, which in a
    written family closes the "tuples" key, and the "{" search at the
    second brace.  On a written family of any size both take microseconds,
    where a `""` search over the whole text takes as long as the pass over
    the part types that this check replaces.
    """
    return text.find('""', 0, text.rfind('"') + 1) < 0 and text.find("{", text.find("{") + 1) < 0


def _flat_masks(raw: list, n: int, d: int, strict_sums: bool = False) -> list[tuple[int, ...]] | None:
    """The part masks of each tuple of a coded family, or None if `raw` has any fault.

    `raw` is the "tuples" list of a coded decode of a text with no bool
    literal: its ints are already element bits.  The shape checks each run
    over the whole family at once, and a part's mask is one C-level `sum`
    of the part.  No pass checks that each tuple is a list: a number or
    null has no `len` (TypeError), and a string or an object of d entries
    yields strings as its parts, which the part checks refuse.  With
    `strict_sums`, the text holds no empty string and no nested object, and
    no pass checks that each part is a list either: of the parts that are
    not lists, only "" and {} sum without a TypeError.  No pass checks the
    elements' type: any element but an int (a string, None, a float, a list
    or a dict) raises TypeError, in `sum` or, for a float, in
    `int.bit_count` of its tuple's sum, and the TypeError refuses the
    family.  A tuple is repeat-free, so its parts are disjoint, exactly when
    the sum of its part masks has one set bit per element: a repeat causes
    a carry, and a carry lowers the popcount.  No tuple's popcount exceeds
    its element count, so comparing the totals over the family checks every
    tuple.  Without a carry a tuple's sum is the union of its parts, so an
    element above n shows as a bit at n or above.  A part that lists an
    element twice is refused here although `family_from_json` accepts it.
    """
    if d < 2 or not 1 <= n <= MAX_GROUND:
        return None
    if not raw:
        return []
    try:
        if set(map(len, raw)) != {d}:
            return None
        parts = list(chain.from_iterable(raw))
        if not strict_sums and not set(map(type, parts)) <= {list}:
            return None
        masks = list(map(sum, parts))
        tuples = list(zip(*[iter(masks)] * d))
        unions = list(map(sum, tuples))
        if sum(map(int.bit_count, unions)) != sum(map(len, parts)) or max(unions) >> n:
            return None
    except TypeError:
        return None
    return tuples


def family_from_json(obj: dict) -> Family:
    """Read a family from its JSON object one tuple at a time, raising the
    error for its first fault; each tuple's masks come from `validate_tuple`."""
    n, d, raw = fields(obj, "family", ("n", "d"), "tuples")
    masks = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != d:
            raise FormatError(f"tuple {idx + 1} must be a list of {d} parts")
        for part in entry:
            if not isinstance(part, list) or not all(type(e) is int for e in part):
                raise FormatError(f"tuple {idx + 1} has a part that is not a list of ints")
        masks.append(validate_tuple(entry, n).masks)
    return Family(n, d, masks)
