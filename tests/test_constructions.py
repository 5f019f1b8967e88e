import time
from fractions import Fraction

import pytest

from bollobas import (
    ArityError,
    DomainError,
    all_tuples_of_type,
    bollobas_sum,
    complete_family,
    is_bollobas,
    is_skew_bollobas,
    layered_triple_family,
    lift_to_spaces,
    multinomial,
    random_bollobas_family,
    random_skew_family,
    skew_sum,
    tuple_weight,
)
from bollobas.constructions import MAX_SAMPLED_ARITY, complete_family_size, layered_family_size
from bollobas.errors import SizeError
from bollobas.exterior import intersection_dim


class TestEnumeration:
    def test_two_singletons(self):
        got = [t.parts() for t in all_tuples_of_type(2, (1, 1))]
        assert got == [((1,), (2,)), ((2,), (1,))]

    def test_three_singletons_count(self):
        assert len(all_tuples_of_type(3, (1, 1, 1))) == 6

    def test_too_large_type(self):
        with pytest.raises(DomainError):
            all_tuples_of_type(2, (2, 1))

    def test_count_matches_multinomial(self):
        for n, t in [(4, (1, 2)), (5, (2, 1)), (4, (1, 1, 1)), (5, (0, 2, 1))]:
            assert len(all_tuples_of_type(n, t)) == multinomial(n, list(t))

    def test_lexicographic_and_unique(self):
        tuples = [t.parts() for t in all_tuples_of_type(4, (1, 2))]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)

    def test_arity_guard(self):
        with pytest.raises(ArityError):
            all_tuples_of_type(3, (2,))

    def test_count_is_checked_before_enumerating(self):
        started = time.perf_counter()
        with pytest.raises(SizeError, match="11732745024 tuples exceed the limit 100000"):
            all_tuples_of_type(20, (5, 5, 5))
        assert time.perf_counter() - started < 1.0

    def test_count_at_the_limit_is_admitted(self, monkeypatch):
        monkeypatch.setattr("bollobas.constructions.MAX_TUPLES", multinomial(6, (2, 2)))
        assert len(all_tuples_of_type(6, (2, 2))) == 90
        with pytest.raises(SizeError):
            all_tuples_of_type(6, (2, 2, 1))


class TestCompleteFamily:
    def test_pair_case(self):
        f = complete_family((1, 1))
        assert len(f) == 2 and is_bollobas(f)

    def test_triple_case_size(self):
        f = complete_family((1, 1, 1))
        assert len(f) == multinomial(3, [1, 1, 1]) == 6

    def test_mixed_type(self):
        f = complete_family((2, 1))
        assert len(f) == 3 and f.n == 3

    def test_all_small_types_are_bollobas(self):
        for t in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)]:
            f = complete_family(t)
            assert len(f) == tuple_weight(t)
            assert is_bollobas(f)

    def test_size_matches_weight_for_every_positive_type_up_to_8(self):
        def positive_types(total):
            if total == 0:
                yield ()
                return
            for head in range(1, total + 1):
                for rest in positive_types(total - head):
                    yield (head,) + rest

        for s in range(2, 9):
            for t in positive_types(s):
                if len(t) < 2:
                    continue
                assert len(complete_family(t)) == tuple_weight(t)

    def test_zero_part_rejected(self):
        with pytest.raises(DomainError):
            complete_family((1, 0, 1))

    def test_size_is_counted_and_checked_without_building(self, monkeypatch):
        for t in [(1, 1), (2, 1), (1, 1, 1), (2, 2, 1)]:
            assert complete_family_size(t) == len(complete_family(t))
        monkeypatch.setattr("bollobas.constructions._masks_of_type", pytest.fail)
        with pytest.raises(SizeError, match="369600 tuples exceed the limit 100000"):
            complete_family_size((3, 3, 3, 3))
        with pytest.raises(DomainError):
            complete_family_size((1, 0, 1))
        with pytest.raises(ArityError):
            complete_family_size((3,))


class TestLayeredTriples:
    def test_n4_layer_counts(self):
        f = layered_triple_family(4)
        assert len(f) == 1 + 12 + 6 == 19
        assert is_bollobas(f)
        assert bollobas_sum(f) == 3

    def test_n1_single_empty_layer(self):
        f = layered_triple_family(1)
        assert len(f) == 1
        assert f.tuples[0].parts() == ((), (1,), ())
        assert bollobas_sum(f) == 1

    def test_n6_refutes_unit_bound(self):
        assert bollobas_sum(layered_triple_family(6)) == 4 > 1

    def test_validity_through_n8(self):
        for n in range(1, 9):
            assert is_bollobas(layered_triple_family(n))

    def test_size_is_counted_and_checked_without_building(self, monkeypatch):
        for n in range(1, 9):
            assert layered_family_size(n) == len(layered_triple_family(n))
        monkeypatch.setattr("bollobas.constructions._masks_of_type", pytest.fail)
        with pytest.raises(SizeError, match="616227 tuples exceed the limit 100000"):
            layered_family_size(14)


class TestRandomFamilies:
    def test_output_is_skew(self):
        for seed in range(12):
            f = random_skew_family(8, 3, seed=seed, target=12)
            assert is_skew_bollobas(f)

    def test_fixed_type_respected(self):
        f = random_skew_family(7, 3, sizes=(2, 1, 1), seed=3, target=8)
        assert all(t.type() == (2, 1, 1) for t in f.tuples)

    def test_deterministic(self):
        a = random_skew_family(9, 4, seed=11, target=10)
        b = random_skew_family(9, 4, seed=11, target=10)
        assert a == b

    def test_skew_sum_within_unit(self):
        for seed in range(8):
            f = random_skew_family(10, 4, seed=seed, target=14)
            assert skew_sum(f) <= 1

    def test_two_sided_variant_is_bollobas(self):
        for seed in range(12):
            f = random_bollobas_family(8, 3, seed=seed, target=10)
            assert is_bollobas(f)

    def test_bad_type_arity(self):
        with pytest.raises(ArityError):
            random_skew_family(6, 3, sizes=(1, 1), seed=0)

    @pytest.mark.parametrize("fn", [random_skew_family, random_bollobas_family])
    def test_arity_past_the_limit_is_refused_before_the_first_draw(self, monkeypatch, fn):
        import bollobas.constructions as constructions

        monkeypatch.setattr(constructions, "_sample_tuple", pytest.fail)
        with pytest.raises(SizeError, match=f"d = 10000000000 exceeds the limit {MAX_SAMPLED_ARITY}"):
            fn(1, 10**10, seed=0)
        with pytest.raises(SizeError):
            fn(64, MAX_SAMPLED_ARITY + 1, seed=0)

    @pytest.mark.parametrize("fn", [random_skew_family, random_bollobas_family])
    def test_arity_below_two_is_refused(self, fn):
        with pytest.raises(ArityError, match="need d >= 2, got 1"):
            fn(5, 1)

    @pytest.mark.parametrize("fn", [random_skew_family, random_bollobas_family])
    def test_negative_target_is_refused_before_the_first_draw(self, monkeypatch, fn):
        import bollobas.constructions as constructions

        monkeypatch.setattr(constructions, "_sample_tuple", pytest.fail)
        with pytest.raises(DomainError, match="sample size must be >= 0, got -5"):
            fn(5, 3, target=-5)

    def test_arity_at_the_limit_is_sampled(self):
        f = random_bollobas_family(6, MAX_SAMPLED_ARITY, seed=0, target=3)
        assert f.d == MAX_SAMPLED_ARITY and len(f) == 3 and is_bollobas(f)


class TestLift:
    def test_singleton_parts_become_axis_spans(self):
        from bollobas import Family

        f = Family.build(2, [[[1], [2]]])
        lifted = lift_to_spaces(f)
        (entry,) = lifted.entries
        assert entry[0].basis == ((Fraction(1), Fraction(0)),)
        assert entry[1].basis == ((Fraction(0), Fraction(1)),)

    def test_dims_equal_part_sizes(self):
        f = complete_family((1, 1, 1))
        lifted = lift_to_spaces(f)
        assert len(lifted) == 6 and lifted.n == 3
        assert lifted.uniform_type() == (1, 1, 1)

    def test_intersection_dims_match_set_intersections(self):
        f = layered_triple_family(4)
        lifted = lift_to_spaces(f)
        tuples = f.tuples
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                for p in range(3):
                    for q in range(3):
                        want = len(set(tuples[i].parts()[p]) & set(tuples[j].parts()[q]))
                        got = intersection_dim(lifted.entries[i][p], lifted.entries[j][q])
                        assert got == want

    def test_empty_part_becomes_zero_subspace(self):
        from bollobas import Family

        f = Family.build(3, [[[1], [], [2]]])
        lifted = lift_to_spaces(f)
        assert lifted.entries[0][1].dim == 0
