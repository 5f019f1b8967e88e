"""Exhaustive maxima of uniform (skew) Bollobás systems on small ground sets.

The two-sided maximum is a maximum clique in the compatibility graph over all
tuples of the given type (edge iff the cross condition holds both ways),
solved by branch and bound with greedy-coloring upper bounds.  The skew
maximum is an ordered-chain problem (a longest sequence of distinct tuples
with every earlier member crossing into every later one), solved by
depth-first chain extension.  Both stop early once the multinomial size
bound for the type is attained, since no uniform system can exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .constructions import MAX_CANDIDATES, _checked_count, _checked_type, all_tuples_of_type
from .errors import SizeError
from .families import DTuple, Family, TupleType, _as_n, _crossing_rows
from .sums import multinomial, tuple_weight


@dataclass(frozen=True)
class SearchResult:
    max_size: int
    witness: Family
    nodes_explored: int
    bound: int


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise SizeError(f"node budget {self.limit} exhausted")


def _candidates(n: int, sizes: TupleType) -> list[DTuple]:
    sizes = _checked_type(_as_n(n), sizes)
    _checked_count(multinomial(n, sizes), MAX_CANDIDATES, "candidate tuples")
    return all_tuples_of_type(n, sizes)


def _greedy_color_order(p: int, adj: list[int]) -> list[tuple[int, int]]:
    """Vertices of mask p with greedy color numbers, in nondecreasing color order.

    A clique inside p has at most max-color vertices, so color numbers are
    per-vertex upper bounds for the branch including that vertex.
    """
    order: list[tuple[int, int]] = []
    color = 0
    while p:
        color += 1
        avail = p
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            bit = 1 << v
            order.append((v, color))
            p &= ~bit
            avail &= ~adj[v]
    return order


def _run(root: Iterator[Iterator], best: list[int], bound: int) -> None:
    """Walk a search tree depth first on an explicit stack of open nodes.

    A node is a generator that yields each child node in turn, between the
    `append` and the `pop` of its vertex on the shared path.  The walk stops
    once `best` attains the bound, since no uniform system can exceed it.
    """
    stack = [root]
    while stack and len(best) < bound:
        if (child := next(stack[-1], None)) is None:
            stack.pop()
        else:
            stack.append(child)


def max_bollobas_uniform(
    n: int, sizes: TupleType, node_budget: int | None = None
) -> SearchResult:
    """Maximum size of a two-sided system of the given uniform type on [n].

    Deterministic: candidates in enumeration order, ties broken by smallest
    index.  The witness is the lexicographically produced optimum clique.
    """
    cands = _candidates(n, sizes)
    m = len(cands)
    # cross(t_j, t_i) = cross(rev t_i, rev t_j): predecessor rows are the
    # crossing rows of the candidates with their parts reversed
    succ = _crossing_rows([t.masks for t in cands], n, len(sizes))
    pred = _crossing_rows([t.masks[::-1] for t in cands], n, len(sizes))
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

    _run(expand((1 << m) - 1), best, bound)
    witness = Family(n, len(sizes), tuple(cands[i] for i in sorted(best)))
    return SearchResult(len(best), witness, budget.nodes, bound)


def max_skew_uniform(
    n: int, sizes: TupleType, node_budget: int | None = None
) -> SearchResult:
    """Maximum length of an ordered chain T_1, ..., T_m of distinct tuples of
    the given type with cross_condition(T_i, T_j) for all i < j.

    The chain may pick candidates in any order (the family order is the chain
    order), so this searches sequences, not cliques.
    """
    cands = _candidates(n, sizes)
    m = len(cands)
    # no tuple crosses into itself, since its parts are disjoint
    succ = list(_crossing_rows([t.masks for t in cands], n, len(sizes)))
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

    _run(extend((1 << m) - 1), best, bound)
    witness = Family(n, len(sizes), tuple(cands[i] for i in best))
    return SearchResult(len(best), witness, budget.nodes, bound)
