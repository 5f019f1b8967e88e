"""Golden `simulate` outputs: the sha256 of stdout for fixed inputs and seeds.

The digests were recorded with the per-tuple Monte Carlo loop (one membership
closure per tuple and variant, now `tests/event_oracles.py`), so the
bit-sliced walk must reproduce every hit count, every estimate, the formula
values and the simultaneous-hit maximum byte for byte.  The inputs cover all
three modes, d = 2 to 5, empty parts, a general-mode run on pairs (no
delimiters at all), and families whose events overlap, so that `simulate`
exits 1: one with a duplicated tuple, one that is not a Bollobás system, and
pairs in general mode.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from bollobas import (
    Family,
    complete_family,
    family_to_json,
    layered_triple_family,
    random_bollobas_family,
    random_skew_family,
    relabel,
)
from bollobas.cli import main


def _scrambled(f: Family, seed: int) -> Family:
    rng = random.Random(seed)
    perm = list(range(1, f.n + 1))
    rng.shuffle(perm)
    tuples = list(relabel(f, perm).tuples)
    rng.shuffle(tuples)
    return Family(f.n, f.d, tuple(tuples))


def _family(name: str) -> Family:
    if name == "layered5":
        return _scrambled(layered_triple_family(5), 1)
    if name == "complete-1111":
        return _scrambled(complete_family((1, 1, 1, 1)), 5)
    if name == "skew-d2":
        return random_skew_family(7, 2, seed=11, target=14)
    if name == "bollobas-d5":
        return random_bollobas_family(8, 5, seed=3, target=12)
    if name == "empty-parts":
        return Family.build(5, [[[1], [], [2]], [[], [3], []], [[2, 4], [], [1]], [[4], [5], []]])
    if name == "layered4-duplicate":
        f = layered_triple_family(4)
        return Family(f.n, f.d, f.tuples + f.tuples[3:4])
    raise KeyError(name)


def _stdout(argv, tmp_path, doc) -> tuple[int, str]:
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--input", str(path), *argv])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


RUNS = [
    ("layered5", "skew", 1500),
    ("layered5", "d3", 1500),
    ("layered5", "general", 1500),
    ("complete-1111", "skew", 1000),
    ("complete-1111", "general", 1000),
    ("skew-d2", "skew", 2000),
    ("skew-d2", "general", 2000),
    ("bollobas-d5", "skew", 1000),
    ("bollobas-d5", "general", 1000),
    ("empty-parts", "d3", 2000),
    ("empty-parts", "general", 2000),
    ("layered4-duplicate", "skew", 1500),
    ("layered4-duplicate", "d3", 1500),
]

CASES = [(name, mode, trials, seed) for name, mode, trials in RUNS for seed in (0, 1, 7)]

# (exit code, sha256 of stdout)
SIMULATE_GOLDEN = {
    ('layered5', 'skew', 0): (0, '52b8566fe69a34271e98eebf17a70f271c4380523e7d926940870af9c9e36a4c'),
    ('layered5', 'skew', 1): (0, '359059e9376ef3647b1c5288bf47f8497a5f843aebe94083ef842069ada38f17'),
    ('layered5', 'skew', 7): (0, '7b63655e044df670fab15b4bda373cf856f6a8d221ffc4bc7a8e380a092f0259'),
    ('layered5', 'd3', 0): (0, '1c87fd71858b74119370a9ef27f943835b207676c3ff3bce1aef9a75d4d9a6c9'),
    ('layered5', 'd3', 1): (0, '0b36be3c566bae52401627a8ea96723e600ed13f841e7f9f8e35b30ae5a62fc0'),
    ('layered5', 'd3', 7): (0, 'f9683f0aba8b117b413c1c936f1222f1f3e7c393dc826046dd8e31534a98f2da'),
    ('layered5', 'general', 0): (0, '00db1263705cc9398d1f46a4f5d021c5c1205ec151875da5f834bf7e8b9c36ff'),
    ('layered5', 'general', 1): (0, '5d4cbf0d2825dd5e809d5be9bf46074de1bba0b97315a123559e1ea95e80406a'),
    ('layered5', 'general', 7): (0, '3738a4f9dc8083a9081eada077cca09dd8e5f0cfb9592bbef01b25340d5b9e5c'),
    ('complete-1111', 'skew', 0): (0, '6ff6273e8b5bd6735214053e08423a3a044087f5f53adc2b5af66423108edc39'),
    ('complete-1111', 'skew', 1): (0, '26f3ad2d2256ba6a34c8ec4937432247581e43b98fe1267d0e3dcea8915402d2'),
    ('complete-1111', 'skew', 7): (0, 'c64ee988f1c1d6fdae91da3e871e573526d9ef7cf9458dba6f2c6c19b8399cc7'),
    ('complete-1111', 'general', 0): (0, 'eb5ee299fcb1610043f535b54eaf62feed18392c05eafe1bee2fe2b070bd2e71'),
    ('complete-1111', 'general', 1): (0, 'add1456e77b0dc35dff075a03a9ba785e6740bb6ed11a54bacc7c6fb76664618'),
    ('complete-1111', 'general', 7): (0, '76c5f2f91592de28d19f733510609434f5da66632782424fd7af9feb57c9623a'),
    ('skew-d2', 'skew', 0): (0, '8c93c6992cefff562fb2147821b3a418dabfcaf8afcc05af7b3871f0ac02a14c'),
    ('skew-d2', 'skew', 1): (0, '9f6cdfc5319382761aab5eaec1c6bfa2252f0a0bb6cf7933b94c4622cbff08c7'),
    ('skew-d2', 'skew', 7): (0, '523dfd4c89f4ccbc6fbfc729237e39fb57d64c492c8c59ab2f0f2e7c12ec7be6'),
    ('skew-d2', 'general', 0): (1, '3079d2b75b8aa41e47cc40b2b3216ca355874190d24f9c72a08186d4fcf98319'),
    ('skew-d2', 'general', 1): (1, '7e1083c4cc38458a587b0426c5a5648bc6aad6a4ddf34fbbd5fc07977420dd26'),
    ('skew-d2', 'general', 7): (1, '397ebdaafc1074668e08339caf6b48a3ee244156b5205c94226db319917242f5'),
    ('bollobas-d5', 'skew', 0): (0, '51524e01a37e3b2016d3e26a6822bb2356ccb0789f705ab09dff2eaadf06e416'),
    ('bollobas-d5', 'skew', 1): (0, '825c6daf5acd4fad2176af3d5c0b4617ea9d3a403c3727e4eef6d36bb658fc06'),
    ('bollobas-d5', 'skew', 7): (0, 'c9b3f9bd7dd89cbca22fb926c066d1ff5e08340c0611961c72d4ffb61719e2a2'),
    ('bollobas-d5', 'general', 0): (0, 'd5a61294e5e444f6126395d0a3970c42848e37f45c412269325cc5b8f47f925b'),
    ('bollobas-d5', 'general', 1): (0, '3b8a4d754a6250a0aee8378f451e3500280c0e82264a724dbdb54375ad032a6a'),
    ('bollobas-d5', 'general', 7): (0, '699b424f73d2fcf851eeac6d217d090bee65405136125fa7dff6ff9557e9c781'),
    ('empty-parts', 'd3', 0): (1, '4c2e529d9e4818083b3f2a54a0b3d7c08cf8b598a5bef296968e800c1b720788'),
    ('empty-parts', 'd3', 1): (1, 'caf914cda07a13f3bc76f1685751ce75e44bdc6c9c72b36cbdf776e8b7c5bbad'),
    ('empty-parts', 'd3', 7): (1, 'c5a7a0202dcbd5093106dffd2fd52bcc48e78ceb24d10bab6759c0c0b451ce13'),
    ('empty-parts', 'general', 0): (1, 'ed05984ba2a52c04141f4cd4c6e233938e15a93feca314dd429e34099163fb7d'),
    ('empty-parts', 'general', 1): (1, 'a354d1359e9358a46329bb0691fd5585752248f533159e2ac52f7877171c88df'),
    ('empty-parts', 'general', 7): (1, '683328ab0e1981321977d4207debfc90a81019ee1a6a1810a8d89fd926e70728'),
    ('layered4-duplicate', 'skew', 0): (1, '3553ad378d6cfe576c4178e8433ade841f2c66c4ee4a1ee09a0f006543069d9e'),
    ('layered4-duplicate', 'skew', 1): (1, 'f99e3b20b5b390a4301a55fc4e1b1aac0369bba3f33261e53855ba24b9357f93'),
    ('layered4-duplicate', 'skew', 7): (1, '12243d6d0573dd429db3e259ffa7c37fc909b944cf730cf4c240cd577ed48005'),
    ('layered4-duplicate', 'd3', 0): (1, '6998cd5fd13ee2db2c761a508b41b5c72ee54a3e94d4e3508bd2c7a5a5c8e11c'),
    ('layered4-duplicate', 'd3', 1): (1, '4abbb0fcc7027f963d7eebd3db82d670a04647cb61a05940129230504b2565f5'),
    ('layered4-duplicate', 'd3', 7): (1, '07e7568c71d10b5a5a42a895fe3fbd8e31fc4924a3dbadcbd29e7b1995b7389b'),
}


@pytest.mark.parametrize("name,mode,trials,seed", CASES)
def test_simulate_stdout_matches_golden_digest(name, mode, trials, seed, tmp_path):
    argv = ["--seed", str(seed), "simulate", "--mode", mode, "--trials", str(trials)]
    got = _stdout(argv, tmp_path, family_to_json(_family(name)))
    assert got == SIMULATE_GOLDEN[(name, mode, seed)]

