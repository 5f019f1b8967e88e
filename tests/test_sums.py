import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    ArityError,
    DomainError,
    Family,
    binomial,
    bollobas_sum,
    complete_family,
    factorial,
    layered_triple_family,
    multinomial,
    pair_weighted_sum,
    random_skew_family,
    recursive_bound,
    skew_sum,
)
from bollobas import sums
from bollobas.errors import SizeError
from bollobas.sums import MAX_BOUND_ARITY

import fraction_oracles


def slow_factorial(n):
    """Oracle: repeated multiplication."""
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestScalars:
    def test_factorial_small(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        assert factorial(6) == 720 == slow_factorial(6)

    def test_factorial_matches_oracle(self):
        for n in range(15):
            assert factorial(n) == slow_factorial(n)

    def test_factorial_negative(self):
        with pytest.raises(DomainError):
            factorial(-1)

    def test_binomial_against_factorials(self):
        assert binomial(4, 2) == 6
        for n in range(9):
            for k in range(n + 1):
                assert binomial(n, k) == slow_factorial(n) // (
                    slow_factorial(k) * slow_factorial(n - k)
                )

    def test_binomial_out_of_range(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(7, 0) == 1

    def test_binomial_negative_n(self):
        with pytest.raises(DomainError, match="negative n=-1"):
            binomial(-1, 0)

    def test_multinomial_values(self):
        assert multinomial(6, [2, 2, 2]) == 720 // (2 * 2 * 2) == 90
        assert multinomial(4, [1, 2, 1]) == 12
        assert multinomial(5, [5]) == 1

    def test_multinomial_remainder_bucket(self):
        # unchosen elements form an implicit extra class
        assert multinomial(5, [2]) == binomial(5, 2)
        assert multinomial(6, [1, 2]) == slow_factorial(6) // (
            slow_factorial(1) * slow_factorial(2) * slow_factorial(3)
        )

    def test_multinomial_domain(self):
        with pytest.raises(DomainError):
            multinomial(3, [2, 2])
        with pytest.raises(DomainError):
            multinomial(3, [-1, 2])
        with pytest.raises(DomainError, match="negative n=-1"):
            multinomial(-1, [])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_multinomial_permutation_invariant(self, ks):
        n = sum(ks) + 2
        base = multinomial(n, ks)
        assert base == multinomial(n, sorted(ks)) == multinomial(n, sorted(ks, reverse=True))

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_multinomial_single_part_is_binomial(self, n, k):
        if k <= n:
            assert multinomial(n, [k]) == binomial(n, k)


class TestFamilySums:
    def test_empty_family(self):
        f = Family(4, 2, ())
        assert bollobas_sum(f) == 0
        assert skew_sum(f) == 0
        assert pair_weighted_sum(f) == 0

    def test_single_pair(self):
        f = Family.build(2, [[[1], [2]]])
        assert bollobas_sum(f) == Fraction(1, 2)
        assert skew_sum(f) == Fraction(1, 6)
        assert pair_weighted_sum(f) == Fraction(1, 6)

    def test_layered_triples_sum_is_floor_half_plus_one(self):
        for n in range(1, 9):
            assert bollobas_sum(layered_triple_family(n)) == n // 2 + 1

    def test_layered_triples_skew_sum_n6(self):
        # oracle: direct per-tuple summation from factorials
        f = layered_triple_family(6)
        expected = Fraction(0)
        fact = slow_factorial
        for t in f.tuples:
            a, b, c = (len(p) for p in t.parts())
            s = a + b + c
            mult = fact(s) // (fact(a) * fact(b) * fact(c))
            choose = fact(s + 2) // (fact(2) * fact(s))
            expected += Fraction(1, choose * mult)
        assert expected == Fraction(1, 7)
        assert skew_sum(f) == Fraction(1, 7)

    def test_pair_weighted_requires_d2(self):
        with pytest.raises(ArityError):
            pair_weighted_sum(Family(3, 3, ()))

    def test_skew_sum_equals_pair_weighted_for_d2(self):
        for seed in range(8):
            f = random_skew_family(7, 2, seed=seed, target=12)
            assert skew_sum(f) == pair_weighted_sum(f)

    def test_skew_sum_never_exceeds_bollobas_sum(self):
        for seed in range(6):
            f = random_skew_family(6, 3, seed=seed, target=10)
            assert skew_sum(f) <= bollobas_sum(f)


class TestRecursiveBound:
    def test_base_case(self):
        for n in range(1, 10):
            assert recursive_bound(n, 2) == 1

    def test_d3_closed_form(self):
        for n in range(1, 12):
            assert recursive_bound(n, 3) == Fraction(n + 3, 2)
        assert recursive_bound(6, 3) == Fraction(9, 2)

    def test_d4_hand_unrolled(self):
        # B(4,4) = C(6,2)/3 + 2 * B(4,3) = 5 + 2 * (7/2) = 12
        assert recursive_bound(4, 4) == Fraction(15, 3) + 2 * Fraction(7, 2) == 12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**4), st.integers(2, 200))
    def test_one_sum_equals_the_recursion(self, n, d):
        assert recursive_bound(n, d) == fraction_oracles.recursive_bound(n, d)

    def test_domain(self):
        with pytest.raises(DomainError):
            recursive_bound(0, 3)
        with pytest.raises(ArityError):
            recursive_bound(3, 1)

    def test_bounds_that_print_are_not_refused(self):
        for n in range(1, 65):
            assert recursive_bound(n, MAX_BOUND_ARITY) > 0

    def test_unprintable_bound_is_refused_before_the_recursion(self):
        started = time.perf_counter()
        with pytest.raises(SizeError, match="more than Python prints"):
            recursive_bound(10**50, MAX_BOUND_ARITY)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("d", [3, 4, 40, MAX_BOUND_ARITY])
    def test_the_first_refused_n_has_an_unprintable_bound(self, monkeypatch, d):
        lo, hi = 1, 2**15000  # refused at hi, not at lo
        assert not sums._too_long_to_print(lo, d) and sums._too_long_to_print(hi, d)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if sums._too_long_to_print(mid, d) else (mid, hi)
        monkeypatch.setattr(sums, "_too_long_to_print", lambda n, d: False)
        assert recursive_bound(hi, d).numerator >= 10 ** sys.get_int_max_str_digits()

    def test_layered_family_nearly_meets_it(self):
        for n in range(1, 9):
            slack = recursive_bound(n, 3) - bollobas_sum(layered_triple_family(n))
            assert slack in (Fraction(1, 2), Fraction(1))


class TestTheoremSweeps:
    def test_complete_families_meet_unit_bound_for_pairs(self):
        # two-sided pair systems obey the classical unit bound
        for t in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            f = complete_family(t)
            assert bollobas_sum(f) == 1

    def test_skew_sum_at_most_one_for_generated_families(self):
        for seed in range(10):
            f = random_skew_family(8, 3, seed=seed, target=15)
            assert skew_sum(f) <= 1

    def test_two_sided_pair_systems_within_unit(self):
        # the classical inequality for two-sided pair families
        from bollobas import random_bollobas_family

        for seed in range(15):
            f = random_bollobas_family(8, 2, seed=seed, target=12)
            assert bollobas_sum(f) <= 1

    def test_skew_families_within_choose_bound(self):
        # skew families obey bollobas_sum <= C(n + d - 1, d - 1), since each
        # term of skew_sum carries that factor at most
        for seed in range(10):
            d = 2 + seed % 3
            f = random_skew_family(8, d, seed=seed, target=12)
            assert bollobas_sum(f) <= binomial(f.n + d - 1, d - 1)
