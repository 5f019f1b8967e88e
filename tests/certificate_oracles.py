"""The original per-slot constraint list of `build_phi`, kept as a test oracle.

The package builds each stage's constraints over the distinct parts of the
family: the m prefix sums and one span per unordered pair of distinct parts.
This is the list it replaced: one slot per prefix sum and one per
(i, j, p, q), m + m^2 k^2 slots in all, whose length also set the default
entry bound of the sampled matrices.
"""

from __future__ import annotations

from bollobas.exterior import IntRow, SubspaceRep, _pivot_rows
from bollobas.spaces import SubspaceFamily


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
