import itertools
import time
from fractions import Fraction

import pytest

from bollobas import (
    ArityError,
    DomainError,
    Family,
    Permutation,
    SizeError,
    complete_family,
    event_probability,
    exact_event_probability,
    in_event,
    in_event_d3,
    monte_carlo,
    random_bollobas_family,
    random_skew_family,
    validate_tuple,
)


def perm_of(mapping, size):
    return Permutation(tuple(mapping[e] for e in range(1, size + 1)))


class TestSkewMembership:
    def test_identity_misses(self):
        # delimiter 3 lands after both parts: no block split
        t = validate_tuple([[1], [2]], 2)
        assert in_event(Permutation(tuple(range(1, 4))), t) is False

    def test_split_order_hits(self):
        t = validate_tuple([[1], [2]], 2)
        sigma = perm_of({1: 1, 3: 2, 2: 3}, 3)
        assert in_event(sigma, t) is True

    def test_empty_parts_always_hit(self):
        t = validate_tuple([[], []], 2)
        for images in itertools.permutations(range(1, 4)):
            assert in_event(Permutation(tuple(images)), t) is True

    def test_wrong_size_rejected(self):
        t = validate_tuple([[1], [2]], 2)
        with pytest.raises(SizeError):
            in_event(Permutation(tuple(range(1, 5))), t)

    def test_exhaustive_probability_pair(self):
        # oracle: walk all of S_3 by hand for the (1,0)-delimiter pattern
        t = validate_tuple([[1], [2]], 2)
        hits = sum(
            in_event(Permutation(p), t) for p in itertools.permutations(range(1, 4))
        )
        assert Fraction(hits, 6) == Fraction(1, 6) == event_probability((1, 1))


class TestD3Membership:
    def test_variants_disagree_when_middle_nonempty(self):
        t = validate_tuple([[1], [2], [3]], 3)
        # blocks 1 | delim | 2 | 3  => E only
        sigma = perm_of({1: 1, 4: 2, 2: 3, 3: 4}, 4)
        assert in_event_d3(sigma, t, "E") is True
        assert in_event_d3(sigma, t, "F") is False
        # blocks 1 | 2 | delim | 3  => F only
        sigma = perm_of({1: 1, 2: 2, 4: 3, 3: 4}, 4)
        assert in_event_d3(sigma, t, "F") is True
        assert in_event_d3(sigma, t, "E") is False

    def test_variants_coincide_when_middle_empty(self):
        t = validate_tuple([[1], [], [2]], 2)
        for images in itertools.permutations(range(1, 4)):
            sigma = Permutation(tuple(images))
            assert in_event_d3(sigma, t, "E") == in_event_d3(sigma, t, "F")

    def test_exhaustive_probability_matches_formula(self):
        t = validate_tuple([[1], [2], [3]], 3)
        total = 0
        hits_e = hits_f = both = 0
        for images in itertools.permutations(range(1, 5)):
            sigma = Permutation(tuple(images))
            e = in_event_d3(sigma, t, "E")
            f = in_event_d3(sigma, t, "F")
            hits_e += e
            hits_f += f
            both += e and f
            total += 1
        assert Fraction(hits_e, total) == Fraction(hits_f, total) == event_probability((1, 1, 1), "d3")
        assert both == 0  # middle part nonempty

    def test_arity_guard(self):
        t = validate_tuple([[1], [2]], 2)
        with pytest.raises(ArityError):
            in_event_d3(Permutation(tuple(range(1, 4))), t, "E")

    def test_unknown_variant(self):
        t = validate_tuple([[1], [2], [3]], 3)
        with pytest.raises(DomainError, match="variant must be 'E' or 'F', got 'G'"):
            in_event_d3(Permutation(tuple(range(1, 5))), t, "G")


class TestGeneralMembership:
    def test_d3_reduction(self):
        # for triples, omitting the delimiter between parts 2,3 is the E
        # pattern (k = 2) and omitting between 1,2 is the F pattern (k = 1)
        t = validate_tuple([[1], [2], [3]], 3)
        for images in itertools.permutations(range(1, 5)):
            sigma = Permutation(tuple(images))
            assert in_event(sigma, t, 2) == in_event_d3(sigma, t, "E")
            assert in_event(sigma, t, 1) == in_event_d3(sigma, t, "F")

    @pytest.mark.parametrize("k", [-1, 3])
    def test_gap_index_bounds(self, k):
        t = validate_tuple([[1], [2], [3]], 3)
        with pytest.raises(IndexError):
            in_event(Permutation(tuple(range(1, 5))), t, k)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_gap_index_error_is_a_package_error(self, k):
        from bollobas import BollobasError

        t = validate_tuple([[1], [2], [3]], 3)
        with pytest.raises(BollobasError):
            in_event(Permutation(tuple(range(1, 5))), t, k)

    def test_gap_zero_is_the_skew_event(self):
        t = validate_tuple([[1], [2], [3]], 3)
        with pytest.raises(SizeError):
            in_event(Permutation(tuple(range(1, 5))), t, 0)
        # blocks 1 | delim | 2 | delim | 3
        assert in_event(perm_of({1: 1, 4: 2, 2: 3, 5: 4, 3: 5}, 5), t, 0) is True

    def test_d2_case_has_no_delimiters(self):
        t = validate_tuple([[1], [2]], 2)
        hits = sum(
            in_event(Permutation(p), t, 1)
            for p in itertools.permutations(range(1, 3))
        )
        assert Fraction(hits, 2) == event_probability((1, 1), "general") == Fraction(1, 2)


class TestProbabilityFormulas:
    def test_skew_values(self):
        assert event_probability((1, 1)) == Fraction(1, 6)
        assert event_probability((1, 1, 1)) == Fraction(1, 60)
        assert event_probability((0, 0)) == 1

    def test_d3_value(self):
        assert event_probability((1, 1, 1), "d3") == Fraction(1, 24)

    def test_arity_checks(self):
        with pytest.raises(ArityError):
            event_probability((1, 1), "d3")
        with pytest.raises(ArityError):
            event_probability((1,), "general")

    def test_unknown_mode(self):
        from bollobas.errors import DomainError

        with pytest.raises(DomainError):
            event_probability((1, 1), "sideways")


def one_tuple_family(parts, n):
    return Family.build(n, [parts])


class TestExactOracle:
    def test_pair_enumeration(self):
        f = one_tuple_family([[1], [2]], 2)
        assert exact_event_probability(f, 1, "skew") == Fraction(1, 6)

    def test_triple_enumeration(self):
        f = one_tuple_family([[1], [2], [3]], 3)
        assert exact_event_probability(f, 1, "skew") == Fraction(1, 60)

    def test_modes_match_their_formulas(self):
        f = one_tuple_family([[1, 2], [3], []], 4)
        sizes = (2, 1, 0)
        assert exact_event_probability(f, 1, "skew") == event_probability(sizes)
        assert exact_event_probability(f, 1, "d3") == event_probability(sizes, "d3")
        assert exact_event_probability(f, 1, "general") == event_probability(sizes, "general")

    def test_small_sweep_all_modes(self):
        # full sweeps live in the acceptance suite; keep a quick cross-check here
        for sizes in [(1, 1), (2, 1), (1, 0, 1), (1, 1, 1), (1, 1, 0, 1)]:
            n = max(1, sum(sizes))
            parts = []
            nxt = 1
            for a in sizes:
                parts.append(list(range(nxt, nxt + a)))
                nxt += a
            f = one_tuple_family(parts, n)
            assert exact_event_probability(f, 1, "skew") == event_probability(sizes)
            assert exact_event_probability(f, 1, "general") == event_probability(sizes, "general")

    def test_gap_event_formula_sweep(self):
        # every triple and quadruple type with at most 7 relevant elements,
        # including empty parts
        for d in (3, 4):
            for total in range(0, 9 - d + 1):
                for sizes in itertools.product(range(total + 1), repeat=d):
                    if sum(sizes) != total:
                        continue
                    parts = []
                    nxt = 1
                    for a in sizes:
                        parts.append(list(range(nxt, nxt + a)))
                        nxt += a
                    f = one_tuple_family(parts, max(1, total))
                    assert exact_event_probability(f, 1, "general") == event_probability(sizes, "general")
                    if d == 3:
                        assert exact_event_probability(f, 1, "d3") == event_probability(sizes, "d3")

    def test_enumeration_limit(self):
        f = one_tuple_family([list(range(1, 7)), list(range(7, 12))], 11)
        with pytest.raises(SizeError):
            exact_event_probability(f, 1, "skew")

    def test_enumeration_limit_is_checked_before_any_pattern(self, monkeypatch):
        from bollobas import events

        def refuse(*args):
            raise AssertionError("patterns built")

        f = one_tuple_family([[1], [2]] + [[]] * 3998, 2)
        monkeypatch.setattr(events, "_variants", refuse)
        started = time.perf_counter()
        with pytest.raises(SizeError, match="4000 relevant elements"):
            exact_event_probability(f, 1, "general")
        assert time.perf_counter() - started < 0.1


class TestPredicateSignatureConsistency:
    """The interval-based membership predicates and the label-sequence
    signatures used by the enumeration oracle must describe the same events."""

    def _label_hit(self, sigma, t, signature):
        labeled = []
        for k, part in enumerate(t.parts(), start=1):
            labeled.extend((sigma.images[a - 1], k) for a in part)
        delta = len(signature) - sum(t.type())
        for e in range(t.n + 1, t.n + 1 + delta):
            labeled.append((sigma.images[e - 1], 0))
        labeled.sort()
        return tuple(lab for _, lab in labeled) == signature

    def test_all_modes_agree_on_random_permutations(self):
        import random as rnd

        from bollobas.events import _variants

        rng = rnd.Random(31)
        tuples = [
            validate_tuple([[1], [2], [3]], 3),
            validate_tuple([[1, 4], [], [2]], 4),
            validate_tuple([[2], [3], [1], [4]], 5),
            validate_tuple([[], [], [1]], 2),
        ]
        for t in tuples:
            sizes = t.type()
            (skew_sig,) = _variants(sizes, "skew")
            for _ in range(300):
                base = list(range(1, t.n + t.d))
                rng.shuffle(base)
                sigma = Permutation(tuple(base))
                assert in_event(sigma, t) == self._label_hit(sigma, t, skew_sig)
        t = tuples[0]
        e_sig, f_sig = _variants(t.type(), "d3")
        for _ in range(300):
            base = list(range(1, t.n + 2))
            rng.shuffle(base)
            sigma = Permutation(tuple(base))
            assert in_event_d3(sigma, t, "E") == self._label_hit(sigma, t, e_sig)
            assert in_event_d3(sigma, t, "F") == self._label_hit(sigma, t, f_sig)
        # no part of this tuple is empty, so gap k's pattern is the k-th
        t = tuples[2]
        sigs = [*_variants(t.type(), "skew"), *_variants(t.type(), "general")]
        for k in range(t.d):
            for _ in range(300):
                base = list(range(1, t.n + t.d - bool(k)))
                rng.shuffle(base)
                sigma = Permutation(tuple(base))
                assert in_event(sigma, t, k) == self._label_hit(sigma, t, sigs[k])


class TestPermutationType:
    def test_rejects_non_bijection(self):
        from bollobas.errors import DomainError

        with pytest.raises(DomainError):
            Permutation((1, 1, 3))

    def test_image_outside_one_to_n_is_a_domain_error(self):
        with pytest.raises(DomainError, match="not a bijection on 1..N"):
            Permutation((2, 3))


class TestMonteCarlo:
    def test_zero_trials(self):
        f = one_tuple_family([[1], [2]], 2)
        rep = monte_carlo(f, "skew", 0, seed=1)
        assert rep.hits == (0,) and rep.estimates == (Fraction(0),)

    def test_negative_trials_rejected(self):
        from bollobas.errors import DomainError

        f = one_tuple_family([[1], [2]], 2)
        with pytest.raises(DomainError):
            monte_carlo(f, "skew", -1, seed=1)

    def test_trial_budget_is_checked_before_any_work(self, monkeypatch):
        from bollobas import events

        def refuse(*args):
            raise AssertionError("masks built")

        monkeypatch.setattr(events, "_walk_masks", refuse)
        f = one_tuple_family([[1], [2], [3]], 3)  # skew permutations of 5 elements
        with pytest.raises(SizeError, match="1000000000 trials of 5 elements exceed the limit of 100000000 trial steps"):
            monte_carlo(f, "skew", 10**9, seed=1)

    def test_trial_budget_admits_exactly_its_limit(self, monkeypatch):
        from bollobas import events

        monkeypatch.setattr(events, "MAX_TRIAL_STEPS", 100)
        f = one_tuple_family([[1], [2], [3]], 3)
        assert monte_carlo(f, "skew", 20, seed=1).trials == 20
        with pytest.raises(SizeError, match="21 trials of 5 elements"):
            monte_carlo(f, "skew", 21, seed=1)
        # d3 permutations carry one delimiter: 25 trials of 4 elements fit
        assert monte_carlo(f, "d3", 25, seed=1).trials == 25
        with pytest.raises(SizeError, match="26 trials of 4 elements"):
            monte_carlo(f, "d3", 26, seed=1)

    def test_trial_budget_counts_mask_words(self, monkeypatch):
        # the layered n = 10 family has 8,953 triples: its d3 walk masks are
        # 2 x 8,953 bits, 280 words.  At the former budget of trials times
        # the permutation size, 10^6 trials were admitted and took minutes.
        from bollobas import events, layered_triple_family

        def refuse(*args):
            raise AssertionError("columns or masks built")

        f = layered_triple_family(10)
        monkeypatch.setattr(events, "_columns", refuse)
        monkeypatch.setattr(events, "_walk_masks", refuse)
        refused = "1000000 trials of 11 elements exceed the limit of 100000000 trial steps of 280 mask words each"
        started = time.perf_counter()
        with pytest.raises(SizeError, match=refused):
            monte_carlo(f, "d3", 10**6, seed=1)
        assert time.perf_counter() - started < 1.0

    def test_trial_budget_in_mask_words_admits_exactly_its_limit(self, monkeypatch):
        from bollobas import events

        # 40 pairs in general mode: one variant each, 40 bits, one word;
        # 33 triples in general mode: two variants each, 66 bits, two words
        pairs = Family.build(2, [[[1], [2]]] * 40)
        triples = Family.build(3, [[[1], [2], [3]]] * 33)
        monkeypatch.setattr(events, "MAX_TRIAL_STEPS", 120)
        assert monte_carlo(pairs, "general", 60, seed=1).trials == 60
        with pytest.raises(SizeError, match="61 trials of 2 elements"):
            monte_carlo(pairs, "general", 61, seed=1)
        assert monte_carlo(triples, "general", 15, seed=1).trials == 15
        with pytest.raises(SizeError, match="16 trials of 4 elements exceed the limit of 120 trial steps of 2 mask"):
            monte_carlo(triples, "general", 16, seed=1)

    @pytest.mark.parametrize("mode", ["skew", "general"])
    def test_arity_is_checked_before_any_gap_column_or_mask(self, monkeypatch, mode):
        from bollobas import events

        def refuse(*args):
            raise AssertionError("event tables built")

        for name in ("_gaps", "_columns", "_walk_masks"):
            monkeypatch.setattr(events, name, refuse)
        f = Family.build(3, [], d=events.MAX_EVENT_ARITY + 1)
        with pytest.raises(SizeError, match="65 parts per tuple exceed the limit of 64"):
            monte_carlo(f, mode, 0, seed=1)

    def test_arity_limit_is_admitted(self):
        f = Family.build(3, [[[1], [2], [3]] + [[]] * 61])
        for mode in ("skew", "general"):
            assert monte_carlo(f, mode, 1, seed=1).trials == 1

    def test_unknown_mode_rejected(self):
        from bollobas.errors import DomainError

        f = one_tuple_family([[1], [2]], 2)
        with pytest.raises(DomainError):
            monte_carlo(f, "sideways", 10, seed=1)

    def test_deterministic(self):
        f = random_skew_family(6, 3, seed=4, target=6)
        a = monte_carlo(f, "skew", 2000, seed=9)
        b = monte_carlo(f, "skew", 2000, seed=9)
        assert a == b

    def test_skew_events_disjoint_on_valid_family(self):
        f = random_skew_family(7, 3, seed=2, target=10)
        rep = monte_carlo(f, "skew", 5000, seed=5)
        assert rep.max_simultaneous_hits <= 1

    def test_d3_events_disjoint_on_valid_family(self):
        f = random_bollobas_family(7, 3, seed=6, target=8)
        rep = monte_carlo(f, "d3", 5000, seed=5)
        assert rep.max_simultaneous_hits <= 1

    def test_formula_values_count_distinct_variants(self):
        f = Family.build(3, [[[1], [2], [3]], [[1], [], [2]]])
        rep = monte_carlo(f, "d3", 0, seed=0)
        assert rep.formula_values[0] == 2 * event_probability((1, 1, 1), "d3")
        assert rep.formula_values[1] == event_probability((1, 0, 1), "d3")

    def test_estimates_near_formula(self):
        f = one_tuple_family([[1], [2]], 2)
        rep = monte_carlo(f, "skew", 60_000, seed=13)
        # 1/6 with sd ~ 0.0015; allow 4 sigma
        assert abs(rep.estimates[0] - Fraction(1, 6)) < Fraction(6, 1000)

    def test_complete_family_skew_hits_partition(self):
        # events of the full uniform family tile ~ sum of probabilities = skew_sum
        f = complete_family((1, 1))
        rep = monte_carlo(f, "skew", 4000, seed=3)
        assert rep.max_simultaneous_hits == 1
        assert sum(rep.formula_values) == Fraction(2, 6)
