"""Golden `certify` outputs: the sha256 of stdout for fixed inputs and seeds.

The digests were recorded with the original `Fraction` pipeline, so any change
to how ranks, projections or determinants are computed must reproduce the
same retries, evaluation matrix and verdict byte for byte.  The inputs cover
lifted set families, integer-rotated subspace families, and subspace families
whose bases have non-integer rational coordinates (the only inputs here that
exercise denominator clearing).
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from bollobas import complete_family, family_to_json
from bollobas.cli import main

# row e of U is the image of element e; det U = 1
UNIMODULAR_4 = [[1, 1, 0, -1], [0, 1, 2, 0], [1, 1, 1, -1], [0, -1, 0, 1]]
RATIONAL_4 = [
    ["3/4", "-5/9", "1", "0"],
    ["1/2", "2", "-1/3", "1"],
    ["0", "1", "5/7", "-2"],
    ["-1", "0", "1/6", "3/2"],
]
RATIONAL_3 = [["3/4", "-5/9", "1"], ["1/2", "2", "-1/3"], ["-2/5", "1", "7/4"]]
# det = -1992; every entry lies in 1..64, the integer literals that a family
# document's coded decode reads as element bits
POSITIVE_4 = [[1, 2, 3, 5], [8, 13, 21, 34], [55, 64, 1, 9], [7, 4, 6, 2]]


def _through(tuples, n, d, matrix) -> dict:
    """Subspace-family JSON: element e of each part becomes row e of matrix."""
    entries = [
        [[[str(x) for x in matrix[e - 1]] for e in part] for part in t.parts()] for t in tuples
    ]
    return {"n": n, "d": d, "entries": entries}


def _input(name: str) -> dict:
    if name == "lifted-111":
        return family_to_json(complete_family((1, 1, 1)))
    if name == "lifted-211-m6":
        f = complete_family((2, 1, 1))
        return {"n": f.n, "d": f.d, "tuples": family_to_json(f)["tuples"][:6]}
    if name == "rotated-22":
        f = complete_family((2, 2))
        return _through(f.tuples, f.n, f.d, UNIMODULAR_4)
    if name == "rotated-211-m6":
        f = complete_family((2, 1, 1))
        return _through(f.tuples[:6], f.n, f.d, UNIMODULAR_4)
    if name == "rational-22":
        f = complete_family((2, 2))
        return _through(f.tuples, f.n, f.d, RATIONAL_4)
    if name == "rational-1111-m6":
        f = complete_family((1, 1, 1, 1))
        return _through(f.tuples[:6], f.n, f.d, RATIONAL_4)
    if name == "rational-planted-111":
        # a repeated tuple is not skew: the failing report carries nonzero
        # rational entries above the diagonal
        f = complete_family((1, 1, 1))
        return _through(f.tuples + f.tuples[:1], f.n, f.d, RATIONAL_3)
    raise KeyError(name)


def _stdout_for(doc: dict, seed: int, tmp_path) -> tuple[int, str]:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--input", str(path), "--seed", str(seed), "certify"])
    return code, buf.getvalue()


GOLDEN = {
    ("lifted-111", 0): (0, "f3ec438343cfb6acbcd2c214a011d103f08950e1bf4d8ec33e9b6aa6c013ccc9"),
    ("lifted-111", 1): (0, "7f21886418539cfba5da2de8e8388cf81971aebc7cf815bfcad89d29f88c6965"),
    ("lifted-111", 7): (0, "bf9e5a279b371e520cf5a3c80b9fc5d90c99c96d784b0fb277738842ddfe3655"),
    ("lifted-211-m6", 0): (0, "6e38e01349779dbd8ddbe476a2b6964a44a43e9e716355a2c7722ea01a8d4ef0"),
    ("lifted-211-m6", 1): (0, "563a402ece3a041a7c7f81be68e8718017f23996621d621ef82f7fce99871fa2"),
    ("lifted-211-m6", 7): (0, "61883f97dc88fb03005d7b0b71956d6a668086d25488d73a324009b7b21eea16"),
    ("rational-1111-m6", 0): (0, "9c20d179f828e15e3062d89211c938fecee1c75b749f40e69017781e06c79223"),
    ("rational-1111-m6", 1): (0, "e527aaad7f3874365a91c8886ce9cb09ee0471732bf6c8217935bd1dd28d6d0e"),
    ("rational-1111-m6", 7): (0, "6f62b3dd10b6da23786ff77ac3d1d3c1a9f7e230bc8ca0ec1786ad504693f90a"),
    ("rational-22", 0): (0, "1aabea12046ef7bff1941c15eaf8ead537c4ff91ff729ab0b5d88aa582a85df9"),
    ("rational-22", 1): (0, "dc7350e87f964c1a3cf6260d0c536a39589950ceb71c045f195c039ce823a25b"),
    ("rational-22", 7): (0, "00f452f56567f3a749138e43bf4d46bf1829c2a641d4732cd02372471b236898"),
    ("rational-planted-111", 0): (1, "c9aeca84a6ba366eb17846a64225d1d4d5dcfea93f3f321cb605c891e729a186"),
    ("rational-planted-111", 1): (1, "6413bec03964f47f54c2581479e3a1a9d9d5e4c77bde04b2d64a48a92b707dc6"),
    ("rational-planted-111", 7): (1, "0c63c012217138d8f5c3285eff26a2d620c40fea26afaa3c6040ce6f9900552a"),
    ("rotated-211-m6", 0): (0, "83f65e8114d41b225ee9fc6dfcc3e321ca5f315b33eefe2a52cc44dafc4f7208"),
    ("rotated-211-m6", 1): (0, "427fa35b373777c4324c461c7d2fea0ab758caa082a40ace91626f7d69ba93f0"),
    ("rotated-211-m6", 7): (0, "1253aa90bd9bd127a53915e4e4213594e9818bd1ea1cfe551d27220308861c84"),
    ("rotated-22", 0): (0, "83650094af5f703839311109c7818cfdbf853bbcc3f426de84851224bcdc815a"),
    ("rotated-22", 1): (0, "815f1fd16f481415b5145a9122e49c20f95922809599ea6a495df6593af202f0"),
    ("rotated-22", 7): (0, "90da02b4000e475aad5d3e8f738712f45f29d8d8448d6961927350b83722fcd6"),
}

CASES = [
    (name, seed)
    for name in (
        "lifted-111",
        "lifted-211-m6",
        "rotated-22",
        "rotated-211-m6",
        "rational-22",
        "rational-1111-m6",
        "rational-planted-111",
    )
    for seed in (0, 1, 7)
]


def test_rational_inputs_are_not_integral():
    rows = _input("rational-22")["entries"][0][0]
    assert any(Fraction(x).denominator > 1 for row in rows for x in row)


@pytest.mark.parametrize("name,seed", CASES)
def test_certify_stdout_matches_golden_digest(name, seed, tmp_path):
    code, out = _stdout_for(_input(name), seed, tmp_path)
    want_code, want_digest = GOLDEN[(name, seed)]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_number_coordinates_certify_as_their_string_twins(seed, tmp_path):
    # certify decodes its input with plain ints: coordinates are values, not elements
    f = complete_family((2, 2))
    strings = _through(f.tuples, f.n, f.d, POSITIVE_4)
    entries = [[[list(map(int, row)) for row in basis] for basis in entry] for entry in strings["entries"]]
    numbers = dict(strings, entries=entries)
    reports = []
    for doc in (strings, numbers):
        code, out = _stdout_for(doc, seed, tmp_path)
        report = json.loads(out)
        del report["input_digest"]
        reports.append((code, report))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and reports[0][1]["results"]["verdict"] == "pass"
