"""Golden `sum`, `construct` and `bounds` outputs: the sha256 of stdout for fixed arguments.

The digests were recorded when every subcommand still built its own report
envelope and turned its exact results into text with `str`, so the one
report writer in `cli.main` and `cli._emit` must reproduce the envelope, the
key order and every "p/q" rational byte for byte.  The cases cover all three
sums on d = 2, 3 and 4 (the pair-weighted sum exits 2 past d = 2, with empty
stdout), sums above their bound, all four construction kinds with and without
the subspace lift at two seeds, and bound tables over a range and at one n.
"""

import contextlib
import hashlib
import io
import json

import pytest

from bollobas import Family, complete_family, family_to_json, layered_triple_family, random_skew_family
from bollobas.cli import main


def _family(name: str) -> Family:
    if name == "layered5":
        return layered_triple_family(5)
    if name == "complete-22":
        return complete_family((2, 2))
    if name == "skew-d2":
        return random_skew_family(7, 2, seed=11, target=14)
    if name == "skew-d4":
        return random_skew_family(6, 4, seed=2, target=20)
    if name == "singletons-d2":
        # three tuples of type (0, 1): every sum is 3/2 or 3, past its bound
        return Family.build(3, [[[], [1]], [[], [2]], [[], [3]]])
    raise KeyError(name)


def _stdout(argv, tmp_path, doc=None) -> tuple[int, str]:
    if doc is not None:
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        argv = ["--input", str(path), *argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


SUM_GOLDEN = {
    ("layered5", "conjecture"): (0, "daae68d2c55a2e1c7933909d00abbf4c73c63c29a9ac2f5d757c439e4779b7fe"),
    ("layered5", "skew"): (0, "8a71f20503c0ab5b52cce07774ae7b685dce5d12a29c2f06d5102c8a9ada98c1"),
    ("layered5", "pair_weighted"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("complete-22", "conjecture"): (0, "5fc8f26e73b9bf661f22b01dc0af4aae32b4b6a50306f6a4e98fbdd4fd68cd4c"),
    ("complete-22", "skew"): (0, "e18beabc0a0b735c4fb85da6fb763c95a7d4ffd4efa842ae6e7e90ba61982e5b"),
    ("complete-22", "pair_weighted"): (0, "bb453c26610ca8bdbe015a799c0535cc8b1734ae977c4a45f8d5844f59a15420"),
    ("skew-d2", "conjecture"): (1, "e05c0f0e63b67a4791601805fe978827fa1863245fd47ccc1aef36209a48a63f"),
    ("skew-d2", "skew"): (0, "759d0cf3cb9aeb2b7a416b9b2feae7ceda1a1bb717bef573f30579fe71010dcd"),
    ("skew-d2", "pair_weighted"): (0, "036d20f664e5c2b668aad9d69b4644d3251bf666804a24fdfb6b2347d8879512"),
    ("skew-d4", "conjecture"): (0, "b27e10ee4058c6197e9d95f1ee36e40e1335c0e475ce58e506ecf10d85db2f01"),
    ("skew-d4", "skew"): (0, "799871045b5cf42d8048f1933681020836263d84192a18d60573f29b238de9d2"),
    ("skew-d4", "pair_weighted"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("singletons-d2", "conjecture"): (1, "3bd4eafb3333645b152bd9414309e05aded25a82fab5acf366a7eef120f2e24b"),
    ("singletons-d2", "skew"): (1, "ffb195e32055382612b91bf820b48cd9b0d030f233125630b5b8872960dce582"),
    ("singletons-d2", "pair_weighted"): (1, "845316f3b7c1369d0e469e251a724adf6286bd13a6a3bae14d6e8d4c6d13ce18"),
}

CONSTRUCT_GOLDEN = {
    "--seed 0 construct complete-uniform --sizes 1,1,1": (0, "d006043346cc713a113f73a95d99612e9b0e27fd9c57c1e0369778d50e4e0fb7"),
    "--seed 7 construct complete-uniform --sizes 1,1,1": (0, "714459a937720f7605e830da01143276206d1c243e638e87eae205096c40e235"),
    "--seed 0 construct complete-uniform --sizes 1,1,1 --lift": (0, "8ab31d3eeb26dd8ee2d7915aea6d63f4a8196958d64cd5f370c74140ed7e52c2"),
    "--seed 7 construct complete-uniform --sizes 1,1,1 --lift": (0, "d65c39a7acc0ac504ef70420ac5404e1e18bc6f276a9d56e61dad5fd731b9e6e"),
    "--seed 0 construct complete-uniform --sizes 2,1": (0, "23094cbb86cd03076cdd3269e1f0a95ccc291d07873817695681280a863bfd53"),
    "--seed 7 construct complete-uniform --sizes 2,1": (0, "8f3bdfbae96489091b3531bf4ed92d273f49029ad051d61eda02587d1730064f"),
    "--seed 0 construct complete-uniform --sizes 2,1 --lift": (0, "5102c86012683182a9d94bcc4edcbd9ee5876092135d8ed7e74b720e5efba4c9"),
    "--seed 7 construct complete-uniform --sizes 2,1 --lift": (0, "95049c83bdc431863084b9729e1f95667bfd02a1323b1973bc654a92c97452e4"),
    "--seed 0 construct layered-triples --n 5": (0, "be097cec6a968473967488447667448f23b2b1a431fe766cf8a7e51e9f2a6bc3"),
    "--seed 7 construct layered-triples --n 5": (0, "7014b0d572aa253f4fc4d4ebae19f67993aad909a9bcb34225ad478b66bdfd4c"),
    "--seed 0 construct layered-triples --n 5 --lift": (0, "4743940f9e27ccbddc0c0d6c2c8bebfdb53c7312b9e00a9bcf6fff0ba5b2eae7"),
    "--seed 7 construct layered-triples --n 5 --lift": (0, "64a694b256c29d50ffd18e822bb7f11bf81fa89aa0c11ed3f9866f3472206757"),
    "--seed 0 construct random-skew --n 6 --d 3 --count 5": (0, "6cf3a23245baaa10a8e2df602250aef2bef939a18c8309c1c989d760a3f919c1"),
    "--seed 7 construct random-skew --n 6 --d 3 --count 5": (0, "5c2cf353abca9f1d14177aba5090bde01ea1657a37111a74bd23428a5f11c8dc"),
    "--seed 0 construct random-skew --n 6 --d 3 --count 5 --lift": (0, "267ae0f177f0e8e3dcad59d91b110cf5b155ce964b1e48836949e50ef9f471cc"),
    "--seed 7 construct random-skew --n 6 --d 3 --count 5 --lift": (0, "fe600e503a528550247072ffcc7453bb1668cc7d1221bd384f8c679105ae7e02"),
    "--seed 0 construct random-skew --n 7 --d 2 --sizes 2,1 --count 6": (0, "c96169e3a5822c9f58e4fcb335146b54f8239277b5090a3c3aeff5ae55ce55a3"),
    "--seed 7 construct random-skew --n 7 --d 2 --sizes 2,1 --count 6": (0, "9b79339c47b1a23256008ac387e17ccc4beef8c39b76bff523118c6b99db05dd"),
    "--seed 0 construct random-skew --n 7 --d 2 --sizes 2,1 --count 6 --lift": (0, "33f69adaa186a8fa03ff86e8a8e06e2b23f78f4022419196acd41507ff8928c0"),
    "--seed 7 construct random-skew --n 7 --d 2 --sizes 2,1 --count 6 --lift": (0, "a3322f58e369c324ab30c5e6165a3e4cb50fd92d2ebd37209632f4f1e02a86eb"),
    "--seed 0 construct random-bollobas --n 6 --d 3 --count 5": (0, "1bc24ccf05d746120f00bb209dde874030fd2aea2442479906167d715ff4f135"),
    "--seed 7 construct random-bollobas --n 6 --d 3 --count 5": (0, "0fcb6e8ffd3238b6c81f55c04b52a35f2a7fca7e83be07c4c61639f2f4df3948"),
    "--seed 0 construct random-bollobas --n 6 --d 3 --count 5 --lift": (0, "8ff236f4af2a63f0a9cb96a4e63a98e745ed3ef6fe35f2c587bbe75bf3b94a79"),
    "--seed 7 construct random-bollobas --n 6 --d 3 --count 5 --lift": (0, "dc77cd9e573a3d5bb8aa0fd113a4efbe7c1f5028a8eacb5ff45b2b133950ade6"),
    "--seed 0 construct random-bollobas --n 6 --d 2 --sizes 1,2": (0, "0d3077c9d4187799f6e34cb457a3ca209cf99214b1ae9f291dd8029995be6c4b"),
    "--seed 7 construct random-bollobas --n 6 --d 2 --sizes 1,2": (0, "4ebee440dd997732820572f6190841385734d3703cb72f37d3d00f76fdadb410"),
    "--seed 0 construct random-bollobas --n 6 --d 2 --sizes 1,2 --lift": (0, "d8eec70c56fdcb446c1db57634b844f3b2201767f68ec82f773e8117ceb543de"),
    "--seed 7 construct random-bollobas --n 6 --d 2 --sizes 1,2 --lift": (0, "ac67edacaa539819a9e7b1a57f93e99378dad666e9375cdccfe7a03ef2dcd751"),
}

BOUNDS_GOLDEN = {
    "bounds --n 1..8 --d 2": (0, "687b586fb7d09e85bde0a4decf3973a48c4eb02282b60e292a1ebd8dd85b7a27"),
    "bounds --n 10 --d 2": (0, "fb17c055ab17a1b09582f84cb87b8dd6bfc389812e74c61d00b5c8464f5b4b88"),
    "bounds --n 1..8 --d 3": (0, "596679c97b783a99baf5cb75b91096983e4ea7c0f228b92d1b2a01d56912208d"),
    "bounds --n 10 --d 3": (0, "4eaa2d345d04af9be802b7cbb5742cc239ee0339af24b9200622daa91494c6c1"),
    "bounds --n 1..8 --d 4": (0, "3191a6caf3de5bd7fb02e56fff8df02b6cc071157982cea1fc297aa3f651222f"),
    "bounds --n 10 --d 4": (0, "1ae5293cbb68b24797f5c45e9281903e8ee39ebf973aab1c1df79a253a4341a5"),
    "bounds --n 1..8 --d 5": (0, "59a977d48a7aded1c5be113088bfa453f29c945e3c4dc63d50d83ea9dead141c"),
    "bounds --n 10 --d 5": (0, "e839d310935463006ae86d4478457cbb8eb90a83c98a2865bf6732c7155079f2"),
}

SUM_CASES = [
    (name, which)
    for name in ("layered5", "complete-22", "skew-d2", "skew-d4", "singletons-d2")
    for which in ("conjecture", "skew", "pair_weighted")
]

CONSTRUCT_CASES = [
    f"--seed {seed} construct {kind}{lift}"
    for kind in (
        "complete-uniform --sizes 1,1,1",
        "complete-uniform --sizes 2,1",
        "layered-triples --n 5",
        "random-skew --n 6 --d 3 --count 5",
        "random-skew --n 7 --d 2 --sizes 2,1 --count 6",
        "random-bollobas --n 6 --d 3 --count 5",
        "random-bollobas --n 6 --d 2 --sizes 1,2",
    )
    for lift in ("", " --lift")
    for seed in (0, 7)
]

BOUNDS_CASES = [f"bounds --n {n} --d {d}" for d in (2, 3, 4, 5) for n in ("1..8", "10")]


@pytest.mark.parametrize("name,which", SUM_CASES)
def test_sum_stdout_matches_golden_digest(name, which, tmp_path):
    got = _stdout(["sum", "--which", which], tmp_path, family_to_json(_family(name)))
    assert got == SUM_GOLDEN[(name, which)]


@pytest.mark.parametrize("argv", CONSTRUCT_CASES)
def test_construct_stdout_matches_golden_digest(argv, tmp_path):
    assert _stdout(argv.split(), tmp_path) == CONSTRUCT_GOLDEN[argv]


@pytest.mark.parametrize("argv", BOUNDS_CASES)
def test_bounds_stdout_matches_golden_digest(argv, tmp_path):
    assert _stdout(argv.split(), tmp_path) == BOUNDS_GOLDEN[argv]
