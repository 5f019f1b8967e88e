import itertools
import tracemalloc

import pytest

from bollobas import (
    DomainError,
    SizeError,
    all_tuples_of_type,
    cross_condition,
    is_bollobas,
    is_skew_bollobas,
    max_bollobas_uniform,
    max_skew_uniform,
    multinomial,
    tuple_weight,
)

import scan_oracles


def brute_max_clique(cands):
    """Oracle: scan all 2^m candidate subsets for the two-way condition."""
    m = len(cands)
    ok = [
        [
            i != j and cross_condition(cands[i], cands[j]) and cross_condition(cands[j], cands[i])
            for j in range(m)
        ]
        for i in range(m)
    ]
    best = 0
    for mask in range(1 << m):
        picked = [i for i in range(m) if mask >> i & 1]
        if len(picked) > best and all(ok[a][b] for a, b in itertools.combinations(picked, 2)):
            best = len(picked)
    return best


def brute_max_chain(cands):
    """Oracle: plain recursive enumeration of every valid chain, no pruning."""
    m = len(cands)
    ok = [[i != j and cross_condition(cands[i], cands[j]) for j in range(m)] for i in range(m)]
    best = 0

    def extend(chain, used):
        nonlocal best
        best = max(best, len(chain))
        for i in range(m):
            if i not in used and all(ok[u][i] for u in chain):
                chain.append(i)
                used.add(i)
                extend(chain, used)
                used.remove(i)
                chain.pop()

    extend([], set())
    return best


class TestBollobasMax:
    def test_tight_cases(self):
        for n, t in [(2, (1, 1)), (3, (1, 1, 1)), (3, (2, 1))]:
            res = max_bollobas_uniform(n, t)
            assert res.max_size == tuple_weight(t)
            assert len(res.witness) == res.max_size
            assert is_bollobas(res.witness)

    def test_larger_ground_set_does_not_help_pairs(self):
        res = max_bollobas_uniform(4, (1, 1))
        assert res.max_size == 2 == multinomial(2, [1, 1])

    def test_deterministic(self):
        a = max_bollobas_uniform(4, (1, 1, 2))
        b = max_bollobas_uniform(4, (1, 1, 2))
        assert a == b

    def test_candidate_limit(self):
        with pytest.raises(SizeError):
            max_bollobas_uniform(12, (2, 2, 2))

    def test_node_budget(self):
        with pytest.raises(SizeError):
            max_bollobas_uniform(4, (2, 2), node_budget=1)


class TestSkewMax:
    def test_tight_cases(self):
        for n, t in [(2, (1, 1)), (3, (1, 1, 1)), (3, (2, 1))]:
            res = max_skew_uniform(n, t)
            assert res.max_size == tuple_weight(t)
            assert is_skew_bollobas(res.witness)
            assert len(res.witness) == res.max_size

    def test_skew_at_least_bollobas(self):
        for n, t in [(3, (1, 1)), (4, (1, 1, 1)), (4, (2, 1))]:
            assert max_skew_uniform(n, t).max_size >= max_bollobas_uniform(n, t).max_size

    def test_within_bound_on_larger_ground_sets(self):
        for n, t in [(4, (1, 1)), (5, (1, 1, 1))]:
            res = max_skew_uniform(n, t)
            assert res.max_size <= res.bound == tuple_weight(t)

    def test_witness_members_are_distinct(self):
        res = max_skew_uniform(4, (1, 1, 1))
        assert len(set(res.witness.tuples)) == len(res.witness)


class TestAgainstBruteForce:
    # unpruned reference enumerations vs the pruned searches, on instances
    # small enough that exhaustion is genuinely exhaustive
    CASES = [(3, (1, 1)), (2, (1, 1)), (3, (2, 1)), (4, (2, 1)), (4, (2, 2)), (4, (1, 1, 2))]

    def test_clique_search_matches_subset_scan(self):
        for n, t in self.CASES:
            cands = all_tuples_of_type(n, t)
            assert max_bollobas_uniform(n, t).max_size == brute_max_clique(cands)

    def test_chain_search_matches_plain_enumeration(self):
        # skip the complete-family case (4, (1, 1, 2)): every ordered pair is
        # compatible there, so unpruned chain enumeration is factorial
        for n, t in self.CASES[:-1]:
            cands = all_tuples_of_type(n, t)
            assert max_skew_uniform(n, t).max_size == brute_max_chain(cands)


# every type of 2 to 4 parts of sizes 0 to 2 on n <= 6 with at most 120
# candidates: 353 instances, both modes, six budgets each
GRID = [
    (n, sizes)
    for n in range(1, 7)
    for d in (2, 3, 4)
    for sizes in itertools.product(range(3), repeat=d)
    if sum(sizes) <= n and multinomial(n, sizes) <= 120
]


def _outcome(search, n, sizes, budget):
    try:
        return search(n, sizes, node_budget=budget)
    except (SizeError, DomainError) as e:
        return f"{type(e).__name__}: {e}"


# the package counts nodes in the loop that starts them, and the oracle's
# nodes count themselves: the two must agree on every count and on the
# first budget that refuses a node
@pytest.mark.parametrize(
    "search, oracle",
    [
        (max_bollobas_uniform, scan_oracles.max_bollobas_uniform),
        (max_skew_uniform, scan_oracles.max_skew_uniform),
    ],
    ids=["bollobas", "skew"],
)
def test_searches_and_budgets_match_the_ticking_oracle(search, oracle):
    # a negative budget is refused before the type is checked or enumerated
    with pytest.raises(DomainError, match=r"^node budget must be >= 0, got -1$"):
        search(64, (30, 30), node_budget=-1)
    assert len(GRID) == 353
    for n, sizes in GRID:
        nodes = oracle(n, sizes).nodes_explored
        for budget in (None, nodes, nodes - 1, 0, 1, -1):
            expected = _outcome(oracle, n, sizes, budget)
            assert _outcome(search, n, sizes, budget) == expected, (n, sizes, budget)


def test_deep_clique_search_keeps_its_colour_orders_small():
    # 360 candidates, all compatible: the search opens a node at every depth
    # up to 360, each holding the colour order of what is left below it
    tracemalloc.start()
    try:
        res = max_bollobas_uniform(6, (2, 1, 1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.max_size == res.bound == 360
    assert peak < 2_000_000
