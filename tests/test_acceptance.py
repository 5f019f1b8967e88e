"""Acceptance suite.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -s`
to see them.  Timed criteria assert their wall-clock budgets.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bollobas import (
    Family,
    bollobas_sum,
    certify,
    complete_family,
    event_probability,
    exact_event_probability,
    in_event_d3,
    is_bollobas,
    is_independent,
    is_skew_bollobas,
    layered_triple_family,
    lift_to_spaces,
    max_bollobas_uniform,
    max_skew_uniform,
    monte_carlo,
    multinomial,
    pair_weighted_sum,
    random_bollobas_family,
    random_skew_family,
    rank,
    recursive_bound,
    skew_sum,
    tuple_weight,
    wedge,
)
from bollobas.cli import main as cli_main
from bollobas.events import Permutation
from bollobas.exterior import sum_rank


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def one_tuple_family(sizes):
    n = max(1, sum(sizes))
    parts = []
    nxt = 1
    for a in sizes:
        parts.append(list(range(nxt, nxt + a)))
        nxt += a
    return Family.build(n, [parts])


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "counterexample reproduction"):
        start = time.perf_counter()
        for n in range(1, 9):
            fam = layered_triple_family(n)
            assert is_bollobas(fam)
            value = bollobas_sum(fam)
            assert value == Fraction(n // 2 + 1)
            if n >= 2:
                assert value > 1
        assert time.perf_counter() - start < 5.0


def test_criterion_2_d3_bound():
    with criterion(2, "d=3 bound (n+3)/2"):
        for n in range(1, 9):
            value = bollobas_sum(layered_triple_family(n))
            bound = recursive_bound(n, 3)
            assert value <= bound
            assert bound - value in (Fraction(1, 2), Fraction(1))
        count = 0
        seed = 0
        while count < 200:
            n = 3 + seed % 6  # ground sets 3..8
            fam = random_bollobas_family(n, 3, seed=seed, target=10)
            seed += 1
            if not len(fam):
                continue
            assert is_bollobas(fam)
            assert bollobas_sum(fam) <= recursive_bound(n, 3)
            count += 1


def test_criterion_3_skew_sum_unit_bound():
    with criterion(3, "skew weighted sum <= 1"):
        count = 0
        seed = 0
        while count < 500:
            d = 2 + seed % 3
            n = 4 + seed % 7  # ground sets 4..10
            fam = random_skew_family(n, d, seed=seed, target=12)
            seed += 1
            assert is_skew_bollobas(fam)
            assert skew_sum(fam) <= 1
            if d == 2:
                assert skew_sum(fam) == pair_weighted_sum(fam)
            count += 1
        for sizes in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
            assert skew_sum(complete_family(sizes)) <= 1
        for n in range(1, 8):
            assert skew_sum(layered_triple_family(n)) <= 1


def test_criterion_4_uniform_maxima():
    with criterion(4, "uniform maxima match the multinomial bound"):
        start = time.perf_counter()
        for n, sizes in [(2, (1, 1)), (3, (1, 1, 1)), (3, (2, 1)), (4, (2, 2)), (4, (1, 1, 2))]:
            bound = tuple_weight(sizes)
            for result, valid in (
                (max_bollobas_uniform(n, sizes), is_bollobas),
                (max_skew_uniform(n, sizes), is_skew_bollobas),
            ):
                assert result.max_size == bound
                assert len(result.witness) == bound
                assert valid(result.witness)
                # at n = sum(sizes) the only maximum witness is the complete family
                assert set(result.witness.tuples) == set(complete_family(sizes).tuples)
        for n, sizes in [(4, (1, 1)), (5, (1, 1, 1))]:
            assert max_bollobas_uniform(n, sizes).max_size <= tuple_weight(sizes)
            assert max_skew_uniform(n, sizes).max_size <= tuple_weight(sizes)
        assert time.perf_counter() - start < 60.0


def test_criterion_5_event_probability_formula():
    with criterion(5, "event probability formula vs enumeration"):
        for d in (2, 3, 4):
            max_s = 9 - (d - 1)
            for s in range(max_s + 1):
                for sizes in _compositions(s, d):
                    fam = one_tuple_family(sizes)
                    assert exact_event_probability(fam, 1, "skew") == event_probability(sizes)
        fam = one_tuple_family((1, 1, 1))
        report = monte_carlo(fam, "skew", 10**6, seed=42)
        p = 1 / 60
        sd = math.sqrt(p * (1 - p) / 10**6)
        assert abs(float(report.estimates[0]) - p) <= 3 * sd


def _compositions(s, d):
    for cuts in itertools.combinations(range(s + d - 1), d - 1):
        sizes = []
        prev = -1
        for c in cuts:
            sizes.append(c - prev - 1)
            prev = c
        sizes.append(s + d - 2 - prev)
        yield tuple(sizes)


def test_criterion_6_event_disjointness():
    with criterion(6, "event disjointness across tuples"):
        trials = 10**5
        families = []
        for seed in range(10):
            families.append(("skew", random_skew_family(7, 3, seed=seed, target=8)))
        for seed in range(10):
            families.append(("d3", random_bollobas_family(7, 3, seed=100 + seed, target=8)))
        for mode, fam in families:
            report = monte_carlo(fam, mode, trials, seed=1000 + len(fam))
            assert report.max_simultaneous_hits <= 1
        # direct pairwise check of the d3 claims on sampled permutations
        mode, fam = families[10]
        rng = random.Random(7)
        base = list(range(1, fam.n + 2))
        tuples = fam.tuples
        nonempty_mid = [t.type()[1] > 0 for t in tuples]
        for _ in range(2000):
            rng.shuffle(base)
            sigma = Permutation(tuple(base))
            hits = [
                (i, v)
                for i, t in enumerate(tuples)
                for v in ("E", "F")
                if in_event_d3(sigma, t, v)
            ]
            tuples_hit = {i for i, _ in hits}
            assert len(tuples_hit) <= 1
            for i in tuples_hit:
                if nonempty_mid[i]:
                    assert len([h for h in hits if h[0] == i]) == 1


def test_criterion_7_exterior_oracle_equivalence():
    with criterion(7, "wedge independence vs elimination rank"):
        rng = random.Random(2024)
        for _ in range(200):
            k = rng.randint(1, 4)
            n = rng.randint(k, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            assert is_independent(rows) == (rank(rows) == k)
        for _ in range(50):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            u = [rng.randint(-3, 3) for _ in range(n)]
            w = [rng.randint(-3, 3) for _ in range(n)]
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            i = rng.randrange(k)
            mixed = list(base)
            mixed[i] = [x * a + y * b for a, b in zip(u, w)]
            with_u = list(base)
            with_u[i] = u
            with_w = list(base)
            with_w[i] = w
            assert wedge(mixed, n).coords == tuple(
                x * a + y * b for a, b in zip(wedge(with_u, n).coords, wedge(with_w, n).coords)
            )
            if k >= 2:
                j = rng.randrange(k - 1)
                swapped = list(base)
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                assert wedge(swapped, n).coords == tuple(-c for c in wedge(base, n).coords)


def test_criterion_8_certificate_pipeline():
    with criterion(8, "size-bound certificates for lifted complete families"):
        start = time.perf_counter()
        for sizes in [(1, 1), (1, 1, 1), (2, 1), (2, 2)]:
            fam = lift_to_spaces(complete_family(sizes))
            cert = certify(fam, seed=42)
            assert cert.verdict is True
            assert cert.m == cert.size_bound == multinomial(sum(sizes), list(sizes))
            m = cert.m
            for i in range(m):
                assert cert.evaluation[i][i] != 0
                for j in range(i + 1, m):
                    assert cert.evaluation[i][j] == 0
            assert all(r < 32 for r in cert.retries)
            # re-verify the dimension-preservation identity for every stage map
            for k, phi in zip(range(2, fam.d + 1), cert.maps):
                for ei in fam.entries:
                    for ej in fam.entries:
                        for p in range(k):
                            for q in range(k):
                                a, b = ei[p], ej[q]
                                joint = sum_rank(a, b)
                                if joint > phi.target:
                                    continue
                                ia, ib = phi.image(a), phi.image(b)
                                assert ia.dim + ib.dim - sum_rank(ia, ib) == a.dim + b.dim - joint
        assert time.perf_counter() - start < 120.0


def test_criterion_9_cli_determinism(capsys, tmp_path):
    with criterion(9, "CLI byte-identical reruns"):
        fam_path = tmp_path / "layered5.json"
        code = cli_main(["construct", "layered-triples", "--n", "5"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        fam_path.write_text(json.dumps(obj["results"]["family"]))
        complete_path = tmp_path / "complete21.json"
        code = cli_main(["construct", "complete-uniform", "--sizes", "2,1"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        complete_path.write_text(json.dumps(obj["results"]["family"]))

        invocations = [
            ["--input", str(fam_path), "verify", "--mode", "bollobas"],
            ["--input", str(fam_path), "verify", "--mode", "skew"],
            ["--input", str(fam_path), "sum", "--which", "conjecture"],
            ["--input", str(fam_path), "sum", "--which", "skew"],
            ["--seed", "11", "construct", "random-skew", "--n", "6", "--d", "3", "--count", "6"],
            ["--seed", "11", "construct", "random-bollobas", "--n", "6", "--d", "3", "--count", "6"],
            ["--seed", "2", "construct", "complete-uniform", "--sizes", "1,1", "--lift"],
            ["search", "--mode", "bollobas", "--n", "3", "--type", "1,1,1"],
            ["search", "--mode", "skew", "--n", "4", "--type", "1,1"],
            ["--input", str(fam_path), "--seed", "4", "simulate", "--mode", "skew", "--trials", "2000"],
            ["--input", str(fam_path), "--seed", "4", "simulate", "--mode", "d3", "--trials", "1000"],
            ["--input", str(complete_path), "--seed", "42", "certify"],
            ["bounds", "--n", "1..8", "--d", "3"],
            ["bounds", "--n", "4", "--d", "5"],
        ]
        for argv in invocations:
            code1 = cli_main(list(argv))
            out1 = capsys.readouterr().out
            code2 = cli_main(list(argv))
            out2 = capsys.readouterr().out
            assert code1 == code2
            assert out1.encode() == out2.encode()


def test_growth_bound_for_higher_arity():
    with criterion("4/5-tuple property", "generated systems respect the recursive bound"):
        count = 0
        seed = 0
        while count < 60:
            d = 4 + seed % 2
            n = 4 + seed % 5  # ground sets 4..8
            fam = random_bollobas_family(n, d, seed=seed, target=8)
            seed += 1
            if not len(fam):
                continue
            assert is_bollobas(fam)
            assert bollobas_sum(fam) <= recursive_bound(n, d)
            count += 1
