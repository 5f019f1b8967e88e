"""The original pairwise scanners, kept as test oracles.

The package finds violations and builds search adjacency from bit-sliced
crossing rows (`families._crossing_rows`).  These are the straightforward
versions they replaced: one interpreted cross-condition test per ordered
pair, in lexicographic order.
"""

from __future__ import annotations

from bollobas.families import DTuple, Family


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
