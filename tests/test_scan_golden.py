"""Golden `verify` and `search` outputs: the sha256 of stdout for fixed inputs.

The digests were recorded with the pairwise scanners and the pairwise
adjacency build, so the bit-sliced crossing rows must reproduce the same
verdict, the same first violating pair, the same node count and the same
witness byte for byte.  The inputs cover valid families, planted duplicates
found at the first and at the last pair, seeded skew families that fail the
two-sided condition somewhere in the middle, empty parts, and d = 2, 3, 4.
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
        return layered_triple_family(5)
    if name == "layered6-scrambled":
        return _scrambled(layered_triple_family(6), 3)
    if name == "layered5-early":
        f = layered_triple_family(5)
        return Family(f.n, f.d, f.tuples[:1] + f.tuples)
    if name == "layered5-late":
        f = layered_triple_family(5)
        return Family(f.n, f.d, f.tuples + f.tuples[-1:])
    if name == "layered6-mid":
        # tuple 30 again at position 101: the only failing pair is (30, 101)
        t = _scrambled(layered_triple_family(6), 3).tuples
        return Family(6, 3, t[:100] + t[29:30] + t[100:])
    if name == "complete-22":
        return complete_family((2, 2))
    if name == "complete-1111":
        return _scrambled(complete_family((1, 1, 1, 1)), 5)
    if name == "skew-d2":
        return random_skew_family(7, 2, seed=11, target=14)
    if name == "skew-d4":
        return random_skew_family(6, 4, seed=2, target=20)
    if name == "skew-d4-reversed":
        f = random_skew_family(6, 4, seed=2, target=20)
        return Family(f.n, f.d, f.tuples[::-1])
    if name == "empty-parts":
        return Family.build(5, [[[1], [], [2]], [[], [3], []], [[2], [], [1]], [[4], [5], []]])
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


VERIFY_GOLDEN = {
    ("layered5", "bollobas"): (0, "663d88a377da798b978be502ec101eb7a9d9db9d787e3e84f3dcd19ab513205e"),
    ("layered5", "skew"): (0, "21ebf16a981be27c3bfcc60b34ca568fe804433f2aaa4e30d9a69ffe7691300c"),
    ("layered6-scrambled", "bollobas"): (0, "81e2dc090e0ee575b6086637e3ce6251bccd2d5ea6f917f1f34957a58457de87"),
    ("layered6-scrambled", "skew"): (0, "ce5010fddc278bd89625dc39d934f8cd86b5c4f7bfedafeac5ee66e83aa4a23c"),
    ("layered5-early", "bollobas"): (1, "af092d376bc4c4005e9906ab42ad42551b187b8d115fc27b9e560d3bcdf42bf1"),
    ("layered5-early", "skew"): (1, "4da3538e7dbbb49823f671cd05acf24d3276bc7a469d089f669425b4e1cda037"),
    ("layered5-late", "bollobas"): (1, "8e9c208f06f9c341f2da4ef501fa79cd8f12e868190737d5a28939fd1e56ff61"),
    ("layered5-late", "skew"): (1, "eb9c7f262139b804b03eb6f037e09b78959c7760dd252ca0e03cf32fab208440"),
    ("layered6-mid", "bollobas"): (1, "8489ec11f9f1f05ff252ef3a4a0163c7d85415528bbe00c106f4839b14c8b175"),
    ("layered6-mid", "skew"): (1, "20d7d3d423fdf401cba3c258da05d46fcb310d4295d8f8a5def1cb8ca33d1010"),
    ("complete-22", "bollobas"): (0, "ee88cc2a7410e0407da6f009704b196e4254d7a8f3a9a5e2eaedd1dce77dd3de"),
    ("complete-22", "skew"): (0, "9138a8f81ce60ebc0a08f987674c6bbc3b5a624a413097f58f7df67a432d4b3c"),
    ("complete-1111", "bollobas"): (0, "b607cdf07d60cdd659922838b3086d9331cc20e293d99c7f860fa0b6765d1ec2"),
    ("complete-1111", "skew"): (0, "70874e7565407e24673159ffb2c02ce160c06786ce87fe006516785b424d3c9f"),
    ("skew-d2", "bollobas"): (1, "99f99d8c5928c06220ee8d509054ceaf1244c22f39961de73d5bb094b5f4106c"),
    ("skew-d2", "skew"): (0, "92cadee819b2d1e95884c795043ff523f39769b8897039c3354a02675ea9b046"),
    ("skew-d4", "bollobas"): (1, "05f052ae3b256a6c6b1e3273a2deb072dd76a746d3be0670fb00542964d67b3b"),
    ("skew-d4", "skew"): (0, "05083185431722f2b095ab9e3d18a209f0c41d570a5f2a532e5a1799423401b5"),
    ("skew-d4-reversed", "bollobas"): (1, "6c83a4902b42fb7e89a809b3496cffe0ef38d3c964f1230f26caa137726afdeb"),
    ("skew-d4-reversed", "skew"): (1, "18dfdd4659c6fd6a08405bf9f362ce48bfe293c178bf23a236fc8d3538830cf7"),
    ("empty-parts", "bollobas"): (1, "215affda64b966e396e2eefb02b63664fd5e30c71996dc6d9f1d1715e98656a6"),
    ("empty-parts", "skew"): (1, "c10886a117eb7078bb93ff2fed83f683cf8317651144ff7dd54d4f22b129bfe3"),
}

SEARCH_GOLDEN = {
    ("bollobas", 4, "1,1,1"): (0, "ecb2f90f4c2d30b39bdbb3c7ae40456bd2912e5acc7b2bfd4f8a0a2970b35804"),
    ("skew", 4, "1,1,1"): (0, "aba0eed1c1c777996ad00e13b2953103264ced0b4872074a6d1c8d82c6384342"),
    ("bollobas", 5, "2,1"): (0, "3d5e938c9dab23e3afd4c4c01df00416b48c2e29d3c1d14fb1c979821e2dfd1f"),
    ("skew", 5, "2,1"): (0, "2be49de2a59bdb1bd3087293597ac924bcf4b405b693fe0c07979b372d3acb90"),
    ("bollobas", 6, "1,2,1"): (0, "e63597f8f329122fda986143ef8c6299815e94895e588cf73efa290dc9bb82f4"),
    ("skew", 6, "1,2,1"): (0, "0cb3adcfc59e469f9b2ed0648fda36223ed0f7341ee38317a6daa051bde47b6e"),
    ("bollobas", 5, "1,1,1,1"): (0, "076349413477bfad87ca2bc1ff2ac8e3f919f6c2879e8c91d5c5c2d55b985c96"),
    ("skew", 5, "1,1,1,1"): (0, "0d16ca473a18bb656b61a17f3b3dd62680c2ac905f25405e1020a9c89cd95bb4"),
    ("bollobas", 6, "2,1,1"): (0, "2619c6573259c70840d5f419229ed7381eee6a3d30a6bdad10c1eaf10b57db3f"),
    ("skew", 6, "2,1,1"): (0, "250627438b4d31f4be4d0854847c67771619379c3c69d26ab90f3205bb0dc411"),
}

VERIFY_CASES = [
    (name, mode)
    for name in (
        "layered5",
        "layered6-scrambled",
        "layered5-early",
        "layered5-late",
        "layered6-mid",
        "complete-22",
        "complete-1111",
        "skew-d2",
        "skew-d4",
        "skew-d4-reversed",
        "empty-parts",
    )
    for mode in ("bollobas", "skew")
]

SEARCH_CASES = [
    (mode, n, sizes)
    for n, sizes in ((4, "1,1,1"), (5, "2,1"), (6, "1,2,1"), (5, "1,1,1,1"), (6, "2,1,1"))
    for mode in ("bollobas", "skew")
]


@pytest.mark.parametrize("name,mode", VERIFY_CASES)
def test_verify_stdout_matches_golden_digest(name, mode, tmp_path):
    got = _stdout(["verify", "--mode", mode], tmp_path, family_to_json(_family(name)))
    assert got == VERIFY_GOLDEN[(name, mode)]


@pytest.mark.parametrize("mode,n,sizes", SEARCH_CASES)
def test_search_stdout_matches_golden_digest(mode, n, sizes, tmp_path):
    got = _stdout(["search", "--mode", mode, "--n", str(n), "--type", sizes], tmp_path)
    assert got == SEARCH_GOLDEN[(mode, n, sizes)]
