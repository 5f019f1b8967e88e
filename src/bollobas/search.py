"""Exhaustive maxima of uniform (skew) Bollobás systems on small ground sets.

The two-sided maximum is a maximum clique in the compatibility graph over all
tuples of the given type (edge iff the cross condition holds both ways),
solved by branch and bound with greedy-coloring upper bounds.  The skew
maximum is an ordered-chain problem (a longest sequence of distinct tuples
with every earlier member crossing into every later one), solved by
depth-first chain extension.  Both stop early once the multinomial size
bound for the type is attained, since no uniform system can exceed it.
Both walk their tree in `_run`, which counts the nodes it starts and
refuses to start one past the node budget.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from .constructions import MAX_CANDIDATES, _checked_count, _checked_type, _masks_of_type
from .errors import DomainError, SizeError
from .families import Family, TupleType, _as_n, _crossing_rows
from .sums import multinomial, tuple_weight


@dataclass(frozen=True)
class SearchResult:
    max_size: int
    witness: Family
    nodes_explored: int
    bound: int


def _candidates(n: int, sizes: TupleType, node_budget: int | None) -> list[tuple[int, ...]]:
    """The part masks of the candidate tuples of the type, after the checks every search makes up front."""
    if node_budget is not None and node_budget < 0:
        raise DomainError(f"node budget must be >= 0, got {node_budget}")
    sizes = _checked_type(_as_n(n), sizes)
    _checked_count(multinomial(n, sizes), MAX_CANDIDATES, "candidate tuples")
    return _masks_of_type(n, sizes)


def _greedy_color_order(p: int, adj: list[int]) -> tuple[array, array]:
    """Vertices of mask p and their greedy color numbers, in nondecreasing color order.

    A clique inside p has at most max-color vertices, so color numbers are
    per-vertex upper bounds for the branch including that vertex.
    """
    # every open node keeps its order, so it is packed in two arrays of two
    # bytes an entry (MAX_CANDIDATES = 5,000 < 2**16 bounds every vertex and
    # every color); lists append faster while it is built
    vertices, colors = [], []
    color = 0
    while p:
        color += 1
        avail = p
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            vertices.append(v)
            colors.append(color)
            p &= ~(1 << v)
            avail &= ~adj[v]
    return array("H", vertices), array("H", colors)


def _run(root: Iterator[Iterator], best: list[int], bound: int, limit: int | None) -> int:
    """Walk a search tree depth first on an explicit stack of open nodes.

    A node is a generator that yields each child node in turn, between the
    `append` and the `pop` of its vertex on the shared path.  The walk stops
    once `best` attains the bound, since no uniform system can exceed it.
    It returns the number of nodes started (a node starts at its first
    `next`), and raises `SizeError` rather than start one past `limit`.
    """
    stack, nodes, fresh = [root], 0, True
    while stack and len(best) < bound:
        if fresh:
            if limit is not None and nodes >= limit:
                raise SizeError(f"node budget {limit} exhausted")
            nodes += 1
        if fresh := (child := next(stack[-1], None)) is not None:
            stack.append(child)
        else:
            stack.pop()
    return nodes


def max_bollobas_uniform(
    n: int, sizes: TupleType, node_budget: int | None = None
) -> SearchResult:
    """Maximum size of a two-sided system of the given uniform type on [n].

    Deterministic: candidates in enumeration order, ties broken by smallest
    index.  The witness is the lexicographically produced optimum clique.
    """
    cands = _candidates(n, sizes, node_budget)
    # cross(t_j, t_i) = cross(rev t_i, rev t_j): predecessor rows are the
    # crossing rows of the candidates with their parts reversed
    succ = _crossing_rows(cands, n, len(sizes))
    pred = _crossing_rows([t[::-1] for t in cands], n, len(sizes))
    adj = [s & p for s, p in zip(succ, pred)]
    bound = tuple_weight(sizes)
    best: list[int] = []
    r: list[int] = []

    def expand(p: int) -> Iterator[Iterator]:
        if not p:
            if len(r) > len(best):
                best[:] = r
            return
        vertices, colors = _greedy_color_order(p, adj)
        for v, c in zip(reversed(vertices), reversed(colors)):
            if len(r) + c <= len(best):
                return
            r.append(v)
            yield expand(p & adj[v])
            r.pop()
            p &= ~(1 << v)

    nodes = _run(expand((1 << len(cands)) - 1), best, bound, node_budget)
    witness = Family(n, len(sizes), [cands[i] for i in sorted(best)])
    return SearchResult(len(best), witness, nodes, bound)


def max_skew_uniform(
    n: int, sizes: TupleType, node_budget: int | None = None
) -> SearchResult:
    """Maximum length of an ordered chain T_1, ..., T_m of distinct tuples of
    the given type with cross_condition(T_i, T_j) for all i < j.

    The chain may pick candidates in any order (the family order is the chain
    order), so this searches sequences, not cliques.
    """
    cands = _candidates(n, sizes, node_budget)
    # no tuple crosses into itself, since its parts are disjoint
    succ = list(_crossing_rows(cands, n, len(sizes)))
    bound = tuple_weight(sizes)
    best: list[int] = []
    chain: list[int] = []

    def extend(avail: int) -> Iterator[Iterator]:
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

    nodes = _run(extend((1 << len(cands)) - 1), best, bound, node_budget)
    witness = Family(n, len(sizes), [cands[i] for i in best])
    return SearchResult(len(best), witness, nodes, bound)
