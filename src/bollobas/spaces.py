"""Families of d-tuples of subspaces, and the lift from set families to coordinate subspaces.

A d-tuple of subspaces must satisfy the independence condition
dim(A^(1) + ... + A^(d)) = dim A^(1) + ... + dim A^(d); the (skew) cross
condition then asks for p < q with dim(A_i^(p) ∩ A_j^(q)) > 0.

The skew check and the certificate stages read the span of a sum A + B of
two parts.  A family spans each unordered pair on demand, once, the first
time it is asked for (`SubspaceFamily.pair_span`), so each reader spans only
the pairs it reads.  A shared integer basis row already shows that two parts
meet, so a family also keeps one shared-row table, built once from its rows
(`SubspaceFamily._shared_rows`): bit j of entry i's int is set iff some part
p of entry i and some part q > p of entry j share a row.  The skew check
spans only the pairs of entries whose bit is clear, and the evaluation
matrix reads a set bit as a zero cell.  Entries are checked for independent
parts by `exterior._independent`, by closed forms where they apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, FormatError, SizeError
from .exterior import IntRow, SubspaceRep, _independent, _pivot_rows
from .families import Family, _by_distinct_mask, elements_of
from .wire import fields, rational

Entry = tuple[SubspaceRep, ...]
Rows = tuple[IntRow, ...]

#: The largest ambient dimension of a subspace family read from JSON.  The
#: certificate draws an ambient x target integer matrix per try, so the work
#: grows with it even when every basis is empty; the lift of a set family
#: (n <= 64) is always within the limit.
MAX_AMBIENT = 256


@dataclass(frozen=True)
class SubspaceFamily:
    """An ordered sequence of d-tuples of subspaces of Q^n.

    Each entry's subspaces are required to be independent (their sum has the
    full combined dimension), the analogue of pairwise disjointness.
    """

    n: int
    d: int
    entries: tuple[Entry, ...]
    # pair_span's bases, keyed by the sorted pair of row tuples
    _spans: dict[tuple[Rows, Rows], Rows] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"subspace family arity must be >= 2, got {self.d}")
        for idx, entry in enumerate(self.entries):
            if len(entry) != self.d:
                raise DomainError(f"entry {idx + 1} has {len(entry)} parts, expected {self.d}")
            for sp in entry:
                if sp.n != self.n:
                    raise DomainError(f"entry {idx + 1} has a subspace of R^{sp.n}, ambient is R^{self.n}")
            if not _independent([r for sp in entry for r in sp.rows], self.n):
                raise DomainError(f"entry {idx + 1} parts are not independent")

    def __len__(self) -> int:
        return len(self.entries)

    def uniform_type(self) -> tuple[int, ...] | None:
        """The common dimension vector, or None if entries disagree (or none exist)."""
        return self._uniform_type

    @cached_property
    def _uniform_type(self) -> tuple[int, ...] | None:
        types = {tuple(sp.dim for sp in entry) for entry in self.entries}
        return types.pop() if len(types) == 1 else None

    @cached_property
    def _shared_rows(self) -> tuple[int, ...]:
        """Bit j of entry i's int is set iff some part p of entry i and some
        part q > p of entry j share an integer basis row (`SubspaceRep.rows`).

        A shared row is a common nonzero direction, so such parts meet.  The
        entries are transposed once into one dict per position, row -> the
        entries (one bit each) with that row in their part at that position.
        Walking the positions p from the last but one down, a suffix OR of
        those dicts gives later[r] = the entries with r in some part after
        p, and entry i's int gains later[r] for each row r of its part p:
        the row-keyed analogue of `families._crossing_rows`.

        The bit-sliced kernel of the set families is not reused: it would
        need masks of row indices, whose words must be wider than 64 bits
        once a family has more than 64 distinct rows, and over such masks it
        was slower than these dicts.  Two threads that ask at once may both
        build the table; both get the same value.
        """
        columns: list[dict[IntRow, int]] = [{} for _ in range(self.d)]
        for j, entry in enumerate(self.entries):
            bit = 1 << j
            for column, sp in zip(columns, entry):
                for r in sp.rows:
                    column[r] = column.get(r, 0) | bit
        table = [0] * len(self.entries)
        later: dict[IntRow, int] = {}
        for p in range(self.d - 2, -1, -1):
            for r, bits in columns[p + 1].items():
                later[r] = later.get(r, 0) | bits
            for i, entry in enumerate(self.entries):
                for r in entry[p].rows:
                    table[i] |= later.get(r, 0)
        return tuple(table)

    def pair_span(self, a: Rows, b: Rows) -> Rows:
        """The canonical basis of A + B for the parts A and B with rows a and b.

        The key is the sorted pair of row tuples, so both orders share one
        basis, and a part may be paired with itself.  The basis is the pivot
        rows of the sorted distinct rows of A and B, so it depends on the
        pair alone, and A meets B iff it has fewer than dim A + dim B rows.
        Each pair is spanned on demand, the first time it is asked for, and
        kept for the family's lifetime: the skew check and every certificate
        stage read it instead of ranking the pair again.  Two threads that
        ask for a new pair at once may both span it; each stores the same
        value.
        """
        key = (a, b) if a <= b else (b, a)
        basis = self._spans.get(key)
        if basis is None:
            rows = sorted(set(a + b))
            basis = self._spans[key] = tuple(rows[i] for i in _pivot_rows(rows, self.n))
        return basis


def lift_to_spaces(f: Family) -> SubspaceFamily:
    """Replace each part A by the coordinate subspace spanned by {e_a | a in A}.

    Dimensions equal part sizes and dim(s(A) ∩ s(B)) = |A ∩ B| for every pair
    of parts, so the (skew) cross structure transfers verbatim.  Each
    distinct part is lifted once: equal parts share one frozen `SubspaceRep`.
    """
    units = [tuple(int(c == a) for c in range(f.n)) for a in range(f.n)]

    def space(mask: int) -> SubspaceRep:
        return SubspaceRep(f.n, tuple(units[a - 1] for a in elements_of(mask)))

    spaces = _by_distinct_mask(f, space)
    return SubspaceFamily(f.n, f.d, tuple(tuple(map(spaces.__getitem__, t)) for t in f.masks))


def skew_spaces_violation(f: SubspaceFamily) -> tuple[int, int] | None:
    """First pair i < j (1-based) with no p < q giving dim(A_i^(p) ∩ A_j^(q)) > 0.

    A pair whose bit is set in the shared-row table
    (`SubspaceFamily._shared_rows`) has a slot p < q whose parts share an
    integer basis row (`SubspaceRep.rows`): a shared row is a common nonzero
    direction, so the parts meet, and no elimination is needed.  For each i
    the check walks the clear bits j > i in ascending order, and spans only
    those pairs: A meets B iff the span `SubspaceFamily.pair_span` of A + B
    has fewer rows than dim A + dim B, which also finds parts that meet
    through different rows.  Such a pair reads its slots only up to the
    first that meets, and only the spans read are computed, so a valid
    family whose pairs all share rows spans nothing.
    """
    span = f.pair_span
    slots = [(p, q) for p in range(f.d - 1) for q in range(p + 1, f.d)]
    full = (1 << len(f.entries)) - 1
    for i, (ei, shared) in enumerate(zip(f.entries, f._shared_rows)):
        # the entries j > i that share no row with entry i in any slot
        rest = full >> (i + 1) << (i + 1) & ~shared
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            ej = f.entries[j]
            if not any(len(span(ei[p].rows, ej[q].rows)) < ei[p].dim + ej[q].dim for p, q in slots):
                return (i + 1, j + 1)
    return None


# ---------------------------------------------------------------------------
# JSON wire format:
#   {"n": int, "d": int, "entries": [[ [["p/q", ...] row, ...] basis, ...d ] ...]}


def subspace_family_to_json(f: SubspaceFamily) -> dict:
    return {
        "n": f.n,
        "d": f.d,
        "entries": [
            [[[str(x) for x in row] for row in sp.basis] for sp in entry]
            for entry in f.entries
        ],
    }


def _coordinate(x) -> int | Fraction:
    """A JSON coordinate: an int for a JSON integer or a string of ASCII digits
    with an optional sign, else the Fraction (or FormatError) of `wire.rational`.

    Integer coordinates stay ints, so an integer basis row is already the
    `SubspaceRep.rows` row and is not cleared through Fractions.
    """
    if type(x) is int:
        return x
    if type(x) is str:
        digits = x[1:] if x[:1] in ("+", "-") else x
        if digits.isascii() and digits.isdigit():
            try:
                return int(x)
            except ValueError:  # past the digit limit: rational() gives the FormatError
                pass
    return rational(x)


def subspace_family_from_json(obj: dict) -> SubspaceFamily:
    n, d, raw = fields(obj, "subspace family", ("n", "d"), "entries")
    if n < 0:
        raise FormatError(f"ambient dimension must be >= 0, got {n}")
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
            parts.append(SubspaceRep(n, tuple(tuple(_coordinate(x) for x in row) for row in basis)))
        entries.append(tuple(parts))
    return SubspaceFamily(n, d, tuple(entries))
