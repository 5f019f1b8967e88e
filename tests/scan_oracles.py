"""The original pairwise scanners and family reader, kept as test oracles.

The package finds violations and builds search adjacency from bit-sliced
crossing rows (`families._crossing_rows`).  These are the straightforward
versions they replaced: one interpreted cross-condition test per ordered
pair, in lexicographic order.  The package's fast read of a family
document is the coded read of `families.family_from_text`, which sums each
part's element bits in one flat pass; `family_from_json` here is the
per-tuple reader, which hands `Family` validated DTuples where the
package's checked read, `families.family_from_json`, hands it their masks.
`first_overlap` is the pairwise disjointness loop of `validate_tuple`,
which now tests each part against the union of the parts after it.
`family_rows` is the per-member loop of the `Family` constructor,
which now checks a family of tuples in one pass per fact and keeps this
loop for every other family.  `columns` is the per-bit
transpose that `families._columns` reads off one packed binary string.
`all_tuples_of_type` is the recursive enumerator over element lists that the
level-wise mask enumerator replaced, and `elements_of` the one-bit-at-a-time
reader that the lowest-set-bit loop replaced.  `family_to_json` and
`relabel` are the writers that decoded every part of every tuple, where the
package decodes each distinct part mask once.
`grow_family` is the sampler of the random constructions that drew each
tuple as a DTuple and tested it with one `cross_condition` call per member,
where the package draws and tests part masks.
`max_bollobas_uniform` and `max_skew_uniform` are the searches whose nodes
each counted themselves on a `_Budget` and whose colour order was a list of
`(vertex, colour)` tuples; the package counts nodes in the loop that starts
them and keeps each colour order in two arrays.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from bollobas.constructions import SAMPLE_ATTEMPTS, _checked_type
from bollobas.errors import FormatError, MismatchError, RangeError, SizeError
from bollobas.families import (
    DTuple,
    Family,
    TupleType,
    _as_n,
    _crossing_rows,
    cross_condition,
    mask_of,
    validate_tuple,
)
from bollobas.search import SearchResult, _candidates
from bollobas.sums import tuple_weight
from bollobas.wire import fields


def all_tuples_of_type(n: int, sizes: Sequence[int]) -> list[DTuple]:
    """Every pairwise-disjoint d-tuple of subsets of [n] with the given part sizes.

    Exactly once each, ordered lexicographically by (part_1, ..., part_d) as
    sorted element lists: the canonical enumeration order used everywhere.
    """
    sizes = _checked_type(_as_n(n), sizes)
    out: list[DTuple] = []
    chosen: list[tuple[int, ...]] = []

    def fill(available: tuple[int, ...], k: int):
        if k == len(sizes):
            masks = tuple(mask_of(part, n) for part in chosen)
            out.append(DTuple(n, masks))
            return
        for part in itertools.combinations(available, sizes[k]):
            chosen.append(part)
            rest = tuple(e for e in available if e not in part)
            fill(rest, k + 1)
            chosen.pop()

    fill(tuple(range(1, n + 1)), 0)
    return out


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def family_from_json(obj: dict) -> Family:
    """Read a family one tuple at a time, each through `validate_tuple`."""
    n, d, raw = fields(obj, "family", ("n", "d"), "tuples")
    tuples = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != d:
            raise FormatError(f"tuple {idx + 1} must be a list of {d} parts")
        for part in entry:
            if not isinstance(part, list) or not all(type(e) is int for e in part):
                raise FormatError(f"tuple {idx + 1} has a part that is not a list of ints")
        tuples.append(validate_tuple(entry, n))
    return Family(n, d, tuple(tuples))


def first_overlap(masks: Sequence[int]) -> tuple[int, int, int] | None:
    """The first pair of parts p < q that meet, 1-based, with their least
    common element, testing every pair in order; None if the parts are disjoint."""
    for p in range(len(masks)):
        for q in range(p + 1, len(masks)):
            common = masks[p] & masks[q]
            if common:
                return p + 1, q + 1, elements_of(common)[0]
    return None


def family_rows(n: int, d: int, members) -> tuple:
    """The `masks` that `Family(n, d, members)` keeps, read one member at a time:
    a DTuple's masks, or any other member as a tuple; MismatchError for the
    first member of another n or d."""
    rows = []
    for t in members:
        tn, t = (t.n, t.masks) if isinstance(t, DTuple) else (n, tuple(t))
        if tn != n or len(t) != d:
            raise MismatchError(f"tuple with n={tn}, d={len(t)} in family with n={n}, d={d}")
        rows.append(t)
    return tuple(rows)


def family_to_json(f: Family) -> dict:
    """The JSON object of a family, each tuple's parts decoded one by one."""
    return {
        "n": f.n,
        "d": f.d,
        "tuples": [[list(part) for part in t.parts()] for t in f.tuples],
    }


def relabel(f: Family, mapping: Sequence[int]) -> Family:
    """Apply a permutation of {1, ..., n}, decoding and re-encoding every part of every tuple."""
    if sorted(mapping) != list(range(1, f.n + 1)):
        raise RangeError("mapping is not a permutation of 1..n")
    new_tuples = []
    for t in f.tuples:
        masks = tuple(mask_of((mapping[e - 1] for e in elements_of(m)), f.n) for m in t.masks)
        new_tuples.append(DTuple(f.n, masks))
    return Family(f.n, f.d, tuple(new_tuples))


def sample_tuple(rng: random.Random, n: int, d: int, sizes: TupleType | None) -> DTuple:
    """One random disjoint d-tuple: of the given type, or of a random nonempty support."""
    if sizes is not None:
        support = rng.sample(range(1, n + 1), sum(sizes))
        masks = []
        at = 0
        for a in sizes:
            masks.append(mask_of(support[at : at + a], n))
            at += a
        return DTuple(n, tuple(masks))
    support = rng.sample(range(1, n + 1), rng.randint(1, n))
    masks = [0] * d
    for e in support:
        masks[rng.randrange(d)] |= 1 << (e - 1)
    return DTuple(n, tuple(masks))


def grow_family(n: int, d: int, sizes: TupleType | None, seed: int, target: int, two_sided: bool) -> Family:
    """The greedy sampled family of valid arguments, each draw a DTuple tested
    against every member with `cross_condition`."""
    rng = random.Random(seed)
    members: list[DTuple] = []
    for _ in range(SAMPLE_ATTEMPTS):
        if len(members) >= target:
            break
        cand = sample_tuple(rng, n, d, sizes)
        ok = all(cross_condition(u, cand) for u in members)
        if ok and two_sided:
            ok = all(cross_condition(cand, u) for u in members)
        if ok:
            members.append(cand)
    return Family(n, d, tuple(members))


def columns(tuples, n: int, q: int) -> list[int]:
    """col[e] holds bit i iff part q of tuple i contains element e + 1, one bit at a time."""
    cols = [0] * n
    for i, t in enumerate(tuples):
        for e in range(n):
            if t[q] >> e & 1:
                cols[e] |= 1 << i
    return cols


def _suffix_masks(t: DTuple) -> tuple[int, ...]:
    """suffix[p] = OR of parts p+2..d (mask of everything strictly after part p+1)."""
    d = t.d
    suf = [0] * d
    acc = 0
    for q in range(d - 1, 0, -1):
        acc |= t.masks[q]
        suf[q - 1] = acc
    return tuple(suf)


def bollobas_violation(f: Family) -> tuple[int, int] | None:
    """First ordered pair (i, j), i != j, failing the cross condition; None if valid.

    Pairs are 1-based and scanned in lexicographic order, so reports are
    deterministic.
    """
    tuples = f.tuples
    m = len(tuples)
    sufs = [_suffix_masks(t) for t in tuples]
    for i in range(m):
        mi = tuples[i].masks
        for j in range(m):
            if i == j:
                continue
            suf = sufs[j]
            if not any(mi[p] & suf[p] for p in range(f.d - 1)):
                return (i + 1, j + 1)
    return None


def skew_violation(f: Family) -> tuple[int, int] | None:
    """First pair i < j failing the cross condition; None if the family is skew-valid."""
    tuples = f.tuples
    m = len(tuples)
    sufs = [_suffix_masks(t) for t in tuples]
    for i in range(m):
        mi = tuples[i].masks
        for j in range(i + 1, m):
            suf = sufs[j]
            if not any(mi[p] & suf[p] for p in range(f.d - 1)):
                return (i + 1, j + 1)
    return None


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise SizeError(f"node budget {self.limit} exhausted")


def _greedy_color_order(p: int, adj: list[int]) -> list[tuple[int, int]]:
    """Vertices of mask p with greedy color numbers, in nondecreasing color order."""
    order: list[tuple[int, int]] = []
    color = 0
    while p:
        color += 1
        avail = p
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            order.append((v, color))
            p &= ~(1 << v)
            avail &= ~adj[v]
    return order


def _run(root: Iterator[Iterator], best: list[int], bound: int) -> None:
    """Walk the generator nodes depth first until `best` attains the bound."""
    stack = [root]
    while stack and len(best) < bound:
        if (child := next(stack[-1], None)) is None:
            stack.pop()
        else:
            stack.append(child)


def max_bollobas_uniform(n: int, sizes: TupleType, node_budget: int | None = None) -> SearchResult:
    """Maximum clique by greedy-colouring branch and bound, each node ticking the budget."""
    cands = _candidates(n, sizes, node_budget)
    succ = _crossing_rows(cands, n, len(sizes))
    pred = _crossing_rows([t[::-1] for t in cands], n, len(sizes))
    adj = [s & p for s, p in zip(succ, pred)]
    bound = tuple_weight(sizes)
    budget = _Budget(node_budget)
    best: list[int] = []
    r: list[int] = []

    def expand(p: int) -> Iterator[Iterator]:
        budget.tick()
        if not p:
            if len(r) > len(best):
                best[:] = r
            return
        for v, c in reversed(_greedy_color_order(p, adj)):
            if len(r) + c <= len(best):
                return
            r.append(v)
            yield expand(p & adj[v])
            r.pop()
            p &= ~(1 << v)

    _run(expand((1 << len(cands)) - 1), best, bound)
    witness = Family(n, len(sizes), tuple(cands[i] for i in sorted(best)))
    return SearchResult(len(best), witness, budget.nodes, bound)


def max_skew_uniform(n: int, sizes: TupleType, node_budget: int | None = None) -> SearchResult:
    """Longest skew chain by depth-first extension, each node ticking the budget."""
    cands = _candidates(n, sizes, node_budget)
    succ = list(_crossing_rows(cands, n, len(sizes)))
    bound = tuple_weight(sizes)
    budget = _Budget(node_budget)
    best: list[int] = []
    chain: list[int] = []

    def extend(avail: int) -> Iterator[Iterator]:
        budget.tick()
        if len(chain) > len(best):
            best[:] = chain
        if len(chain) + avail.bit_count() <= len(best):
            return
        rest = avail
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            chain.append(v)
            yield extend(avail & succ[v])
            chain.pop()

    _run(extend((1 << len(cands)) - 1), best, bound)
    witness = Family(n, len(sizes), tuple(cands[i] for i in best))
    return SearchResult(len(best), witness, budget.nodes, bound)
