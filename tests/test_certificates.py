from fractions import Fraction
from unittest import mock

import pytest

import bollobas.certificates as certificates
from bollobas import (
    BollobasError,
    DomainError,
    Family,
    RetriesExhausted,
    SubspaceFamily,
    SubspaceRep,
    UniformityError,
    build_phi,
    certify,
    complete_family,
    derive_seed,
    evaluation_matrix,
    lift_to_spaces,
    multinomial,
)
from bollobas.errors import SizeError
from bollobas.exterior import rank, sum_rank


def axis(i, n):
    return tuple(Fraction(1) if c == i else Fraction(0) for c in range(n))


class TestDeriveSeed:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(42, "phi2") == derive_seed(42, "phi2")
        assert derive_seed(42, "phi2") != derive_seed(42, "phi3")
        assert derive_seed(42, "phi2") != derive_seed(43, "phi2")


class TestGeneralPositionDraws:
    def test_full_target_gives_a_full_rank_matrix(self):
        # stage d of a lifted family projects Q^n onto Q^n
        f = lift_to_spaces(complete_family((1, 1, 1)))
        phi = build_phi(f, 3, seed=1)
        assert phi.target == f.n == 3
        assert phi.retries == 0
        assert rank(phi.matrix) == 3

    def test_first_draw_accepted_over_many_seeds(self):
        a = SubspaceRep(4, ((1, 2, 0, 1),))
        b = SubspaceRep(4, ((0, 1, 1, 1),))
        f = SubspaceFamily(4, 2, ((a, b),))
        for seed in range(100):
            assert build_phi(f, 2, seed=seed).retries == 0

    def test_pair_span_past_the_target_is_required_at_rank_target(self):
        # stage 2 of lifted complete (2,1,1): target 3 in Q^4, and two
        # first parts such as {1, 2} and {3, 4} span all of Q^4
        f = lift_to_spaces(complete_family((2, 1, 1)))
        with mock.patch.object(certificates, "_draw", wraps=certificates._draw) as draw:
            phi = build_phi(f, 2, seed=5)
        assert phi.target == 3
        draw.assert_called_once()
        required = draw.call_args.args[2]
        oversized = [basis for basis in required if len(basis) > phi.target]
        assert oversized
        for basis in oversized:
            assert required[basis] == phi.target
            assert phi.image(SubspaceRep(f.n, basis)).dim == phi.target

    def test_only_constraints_that_are_not_square_are_ranked(self):
        # stage 2 of lifted complete (2,1,1), target 3: the prefix sums and
        # the pair sums of 3 rows are square; pair sums of 2 or 4 rows are not
        f = lift_to_spaces(complete_family((2, 1, 1)))
        with (
            mock.patch.object(certificates, "_draw", wraps=certificates._draw) as draw,
            mock.patch.object(certificates, "_rank", wraps=certificates._rank) as ranks,
            mock.patch.object(certificates, "_det", wraps=certificates._det) as dets,
        ):
            phi = build_phi(f, 2, seed=5)
        assert phi.retries == 0
        required = draw.call_args.args[2]
        square = [basis for basis, want in required.items() if len(basis) == want == phi.target]
        assert 0 < len(square) < len(required)
        assert dets.call_count == len(square)
        assert ranks.call_count == len(required) - len(square)
        assert all(len(call.args[0]) == phi.target for call in dets.call_args_list)
        assert all(len(call.args[0]) != phi.target for call in ranks.call_args_list)

    def test_retries_exhausted_on_impossible_draws(self):
        with pytest.raises(RetriesExhausted):
            # entry bound 0 forces the zero matrix, which kills every image
            certificates._draw(2, 1, {((1, 0),): 1}, seed=0, max_retries=32, entry_bound=0)


class TestBuildPhi:
    def test_images_span_target(self):
        f = lift_to_spaces(complete_family((1, 1, 1)))
        for k in (2, 3):
            phi = build_phi(f, k, seed=derive_seed(42, f"phi{k}"))
            for entry in f.entries:
                images = [phi.image(entry[p]) for p in range(k)]
                assert sum_rank(*images) == phi.target == sum(p.dim for p in images)

    def test_projection_below_ambient(self):
        # ambient 4, stage 2 of type (1,1): a genuine dimension drop to 2
        f = lift_to_spaces(
            Family.build(4, [[[1], [2]], [[2], [1]], [[3], [4]], [[4], [3]]])
        )
        phi = build_phi(f, 2, seed=7)
        assert phi.target == 2
        for i in range(4):
            for j in range(4):
                for p in range(2):
                    for q in range(2):
                        a, b = f.entries[i][p], f.entries[j][q]
                        want = a.dim + b.dim - sum_rank(a, b)
                        ia, ib = phi.image(a), phi.image(b)
                        got = ia.dim + ib.dim - sum_rank(ia, ib)
                        assert got == want

    def test_requires_uniform(self):
        a = SubspaceRep(3, (axis(0, 3),))
        b = SubspaceRep(3, (axis(1, 3),))
        c = SubspaceRep(3, (axis(1, 3), axis(2, 3)))
        f = SubspaceFamily(3, 2, ((a, b), (a, c)))
        with pytest.raises(UniformityError):
            build_phi(f, 2, seed=0)

    def test_stage_bounds(self):
        f = lift_to_spaces(complete_family((1, 1)))
        with pytest.raises(IndexError):
            build_phi(f, 3, seed=0)

    def test_stage_error_is_a_package_error(self):
        f = lift_to_spaces(complete_family((1, 1)))
        with pytest.raises(BollobasError):
            build_phi(f, 1, seed=0)


class TestEvaluationMatrix:
    def test_requires_uniform(self):
        f = lift_to_spaces(Family.build(3, [[[1], [2]], [[1], [2, 3]]]))
        with pytest.raises(UniformityError, match="needs a uniform family"):
            evaluation_matrix(f, {})

    def test_single_entry_nonzero(self):
        f = lift_to_spaces(Family.build(3, [[[1], [2]]]))
        maps = {2: build_phi(f, 2, seed=1)}
        matrix = evaluation_matrix(f, maps)
        assert len(matrix) == 1 and matrix[0][0] != 0

    def test_triangular_pattern_for_lifted_complete_family(self):
        f = lift_to_spaces(complete_family((1, 1, 1)))
        maps = {k: build_phi(f, k, seed=derive_seed(0, f"phi{k}")) for k in (2, 3)}
        matrix = evaluation_matrix(f, maps)
        m = len(f.entries)
        for i in range(m):
            assert matrix[i][i] != 0
            for j in range(i + 1, m):
                assert matrix[i][j] == 0

    def test_zero_entries_follow_shared_directions(self):
        # entry (i, j) must vanish whenever some p < q parts intersect,
        # regardless of triangular position
        f = lift_to_spaces(complete_family((2, 1)))
        maps = {2: build_phi(f, 2, seed=3)}
        matrix = evaluation_matrix(f, maps)
        for i, ei in enumerate(f.entries):
            for j, ej in enumerate(f.entries):
                shared = any(
                    ei[p].dim + ej[q].dim > sum_rank(ei[p], ej[q])
                    for p in range(1)
                    for q in range(p + 1, 2)
                )
                if shared:
                    assert matrix[i][j] == 0

    def test_cells_that_share_a_row_take_no_determinant(self):
        # every off-diagonal pair of a lifted complete family shares a row, so
        # only the diagonal's two nonzero stage factors per cell are taken
        f = lift_to_spaces(complete_family((2, 2, 2)))
        maps = {k: build_phi(f, k, seed=derive_seed(0, f"phi{k}")) for k in (2, 3)}
        m = len(f.entries)
        assert f._shared_rows == tuple(((1 << m) - 1) ^ (1 << i) for i in range(m))
        with mock.patch.object(certificates, "_det", wraps=certificates._det) as det:
            matrix = evaluation_matrix(f, maps)
        assert det.call_count == 2 * m
        for i in range(m):
            assert matrix[i][i] != 0
            assert all(matrix[i][j] == 0 for j in range(m) if j != i)


class TestCertify:
    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1), (2, 1), (2, 2)])
    def test_complete_families_certify_at_the_bound(self, sizes):
        cert = certify(lift_to_spaces(complete_family(sizes)), seed=42)
        assert cert.verdict is True
        assert cert.skew_ok is True
        assert cert.m == cert.size_bound == multinomial(sum(sizes), list(sizes))
        assert all(r < 32 for r in cert.retries)

    def test_single_entry_passes(self):
        cert = certify(lift_to_spaces(Family.build(4, [[[1, 2], [3]]])), seed=0)
        assert cert.verdict is True and cert.m == 1

    def test_deterministic(self):
        f = lift_to_spaces(complete_family((1, 1)))
        assert certify(f, seed=9) == certify(f, seed=9)

    def test_invalid_family_still_reports(self):
        f = lift_to_spaces(Family.build(4, [[[1], [2]], [[3], [4]]]))
        cert = certify(f, seed=1)
        assert cert.skew_ok is False and cert.skew_violation == (1, 2)
        assert cert.verdict is False
        assert (1, 2) in cert.violations  # the disjoint pair leaves a nonzero above the diagonal

    def test_nonuniform_rejected(self):
        f = lift_to_spaces(Family.build(3, [[[1], [2]], [[1], [2, 3]]]))
        with pytest.raises(UniformityError):
            certify(f, seed=0)

    def test_lifted_uniform_skew_families_certify(self):
        from bollobas import random_skew_family

        for seed in range(4):
            f = random_skew_family(5, 2, sizes=(1, 2), seed=seed, target=6)
            cert = certify(lift_to_spaces(f), seed=seed)
            assert cert.skew_ok is True
            assert cert.verdict is True
            assert cert.m <= cert.size_bound

    def test_negative_max_retries_is_refused_before_any_span_or_draw(self, monkeypatch):
        f = lift_to_spaces(Family.build(3, [[[1], [2], [3]]]))
        for name in ("uniform_type", "pair_span"):
            monkeypatch.setattr(SubspaceFamily, name, pytest.fail)
        monkeypatch.setattr(certificates, "_draw", pytest.fail)
        for run in (lambda: certify(f, seed=0, max_retries=-1), lambda: build_phi(f, 2, seed=0, max_retries=-1)):
            with pytest.raises(DomainError, match=r"^max retries must be >= 0, got -1$"):
                run()
        monkeypatch.undo()
        # 0 allows no draw
        with pytest.raises(RetriesExhausted, match="in 0 draws"):
            certify(f, seed=0, max_retries=0)

    def test_pattern_above_the_bound_raises_a_package_error(self, monkeypatch):
        # the bound check must survive python -O, so it is not an assert
        import bollobas.certificates as certificates

        f = lift_to_spaces(complete_family((1, 1)))
        monkeypatch.setattr(certificates, "tuple_weight", lambda sizes: len(f.entries) - 1)
        with pytest.raises(BollobasError, match="bound"):
            certificates.certify(f, seed=0)


class TestWorkBudget:
    # lifted complete (1, 1): m = 2 and d = 2 give 4 cells of 2 stacked parts
    # each; parts {1} and {2} give 3 pairs
    @pytest.mark.parametrize(
        "limit, count, message",
        [
            ("MAX_EVALUATION_CELLS", 4, "evaluation cells"),
            ("MAX_STACKED_PARTS", 8, "stacked parts"),
            ("MAX_PART_PAIRS", 3, "pairs of distinct parts"),
        ],
    )
    def test_each_limit_admits_its_count_and_refuses_one_more(self, monkeypatch, limit, count, message):
        import bollobas.certificates as certificates

        f = lift_to_spaces(complete_family((1, 1)))
        monkeypatch.setattr(certificates, limit, count)
        assert certificates.certify(f, seed=0).verdict is True
        monkeypatch.setattr(certificates, limit, count - 1)
        monkeypatch.setattr(certificates, "skew_spaces_violation", pytest.fail)
        with pytest.raises(SizeError, match=f"^{count} {message} exceed the limit {count - 1}$"):
            certificates.certify(f, seed=0)

    def test_complete_322_is_within_both_limits(self):
        import bollobas.certificates as certificates

        f = lift_to_spaces(complete_family((3, 2, 2)))
        m, parts = len(f.entries), len({sp.rows for e in f.entries for sp in e})
        assert m * m * (f.d - 1) == 88_200 <= certificates.MAX_EVALUATION_CELLS
        assert parts * (parts + 1) // 2 == 1_596 <= certificates.MAX_PART_PAIRS

    def test_complete_322_is_within_the_stacked_parts_limit(self):
        import bollobas.certificates as certificates

        f = lift_to_spaces(complete_family((3, 2, 2)))
        # 210^2 cells, each stacking 2 parts at stage 2 and 3 at stage 3
        assert len(f.entries) ** 2 * (2 + 3) == 220_500 <= certificates.MAX_STACKED_PARTS
