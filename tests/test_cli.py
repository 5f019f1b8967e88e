import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import cli
from bollobas.certificates import MAX_EVALUATION_CELLS, MAX_STACKED_PARTS
from bollobas.constructions import MAX_SAMPLED_ARITY, complete_family, layered_triple_family
from bollobas.cli import main
from bollobas.errors import FormatError
from bollobas.events import MAX_EVENT_ARITY, MAX_TRIAL_STEPS, MODES
from bollobas.families import bollobas_violation, family_to_json
from bollobas.spaces import MAX_AMBIENT

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The subcommands that read a JSON document.
DOCUMENT_READERS = [
    ["verify"],
    ["sum", "--which", "conjecture"],
    ["simulate", "--mode", "skew", "--trials", "5"],
    ["certify"],
]
# 10^3000: fits the 4,300-digit limit, but the product of two has 6,001 digits.
TEN_3000 = "1" + "0" * 3000
# One tuple on n = 3 (skew permutations of 5 elements) and one pair on n = 2.
ONE_TRIPLE = '{"n": 3, "d": 3, "tuples": [[[1], [2], [3]]]}'
ONE_PAIR = '{"n": 2, "d": 2, "tuples": [[[1], [2]]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_command(*argv):
    """Run a subcommand's function without `main`, so its errors propagate."""
    ns = cli.build_parser().parse_args(list(argv))
    return ns.fn(ns)


@pytest.fixture()
def layered4(tmp_path, capsys):
    code, obj = run_json(capsys, "construct", "layered-triples", "--n", "4")
    assert code == 0
    path = tmp_path / "layered4.json"
    path.write_text(json.dumps(obj["results"]["family"]))
    return str(path)


class TestVerify:
    def test_layered_family_passes(self, capsys, layered4):
        code, obj = run_json(capsys, "--input", layered4, "verify", "--mode", "bollobas")
        assert code == 0
        assert obj["results"]["valid"] is True
        assert obj["results"]["violation"] is None

    def test_adversarial_swap_reports_pair(self, capsys, tmp_path):
        bad = {"n": 4, "d": 3, "tuples": [[[1], [2], [3]], [[4], [2], [3]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, obj = run_json(capsys, "--input", str(path), "verify", "--mode", "bollobas")
        assert code == 1
        assert obj["results"]["violation"] == [1, 2]

    def test_empty_family_vacuous(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 3, "d": 2, "tuples": []}))
        code, obj = run_json(capsys, "--input", str(path), "verify", "--mode", "skew")
        assert code == 0 and obj["results"]["valid"] is True


class TestSum:
    def test_conjecture_sum_of_layered6(self, capsys, tmp_path):
        code, obj = run_json(capsys, "construct", "layered-triples", "--n", "6")
        path = tmp_path / "f6.json"
        path.write_text(json.dumps(obj["results"]["family"]))
        code, obj = run_json(capsys, "--input", str(path), "sum", "--which", "conjecture")
        assert code == 0
        assert obj["results"]["value"] == "4"
        assert obj["results"]["bound"] == "9/2"
        assert obj["results"]["within_bound"] is True

    def test_skew_sum_within_unit(self, capsys, layered4):
        code, obj = run_json(capsys, "--input", layered4, "sum", "--which", "skew")
        assert code == 0
        assert obj["results"]["bound"] == "1"

    def test_pair_weighted_needs_d2(self, capsys, layered4):
        code = main(["--input", layered4, "sum", "--which", "pair_weighted"])
        assert code == 2


class TestConstruct:
    def test_layered6_has_141_tuples(self, capsys):
        code, obj = run_json(capsys, "construct", "layered-triples", "--n", "6")
        assert code == 0 and obj["results"]["m"] == 141

    def test_complete_uniform(self, capsys):
        code, obj = run_json(capsys, "construct", "complete-uniform", "--sizes", "1,1,1")
        assert code == 0 and obj["results"]["m"] == 6

    def test_random_skew_with_lift(self, capsys):
        code, obj = run_json(
            capsys,
            "--seed", "7",
            "construct", "random-skew", "--n", "6", "--d", "3", "--count", "5", "--lift",
        )
        assert code == 0
        assert obj["results"]["m"] == len(obj["results"]["subspace_family"]["entries"])

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["construct", "layered-triples"]) == 2

    def test_complete_uniform_needs_sizes(self):
        with pytest.raises(FormatError, match="construct complete-uniform needs --sizes"):
            run_command("construct", "complete-uniform")

    def test_huge_complete_type_is_refused_within_a_second(self, capsys):
        started = time.perf_counter()
        code = main(["construct", "complete-uniform", "--sizes", "20,20,20"])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "tuples exceed the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["complete-uniform", "--sizes", "3,3,3,3"], ["layered-triples", "--n", "14"]],
    )
    def test_size_limit_is_checked_before_enumerating(self, capsys, monkeypatch, argv):
        from bollobas import constructions

        def refuse(*args):
            raise AssertionError("tuples enumerated")

        monkeypatch.setattr(constructions, "_masks_of_type", refuse)
        assert main(["construct", *argv]) == 2
        assert "tuples exceed the limit 100000" in capsys.readouterr().err

    def test_output_past_the_budget_is_refused_before_enumerating(self, capsys, monkeypatch):
        from bollobas import constructions

        def refuse(*args):
            raise AssertionError("tuples enumerated")

        monkeypatch.setattr(constructions, "_masks_of_type", refuse)
        started = time.perf_counter()
        code = main(["construct", "complete-uniform", "--sizes", "4,4,4", "--lift"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        # 34,650 tuples of 12 elements, each lifted to 12 rows of 12 coordinates
        assert err.startswith(f"error: 5405400 output coordinates exceed the limit {cli.MAX_OUTPUT_COORDINATES}")

    @pytest.mark.parametrize(
        "argv, coordinates",
        [
            # 19 triples of 4 elements, lifted to rows of 4 coordinates
            (["layered-triples", "--n", "4", "--lift"], 19 * 4 * 5),
            (["complete-uniform", "--sizes", "2,1"], 3 * 3),
            # the requested count, not the members drawn, with a tuple size of n
            (["random-skew", "--n", "6", "--d", "3", "--count", "7", "--lift"], 7 * 6 * 7),
            (["random-bollobas", "--n", "6", "--d", "2", "--sizes", "1,2", "--count", "5"], 5 * 3),
        ],
    )
    def test_output_budget_admits_exactly_its_limit(self, capsys, monkeypatch, argv, coordinates):
        monkeypatch.setattr(cli, "MAX_OUTPUT_COORDINATES", coordinates)
        assert main(["construct", *argv]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_OUTPUT_COORDINATES", coordinates - 1)
        assert main(["construct", *argv]) == 2
        assert f"{coordinates} output coordinates exceed the limit" in capsys.readouterr().err

    def test_huge_count_of_a_random_kind_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr("bollobas.constructions._sample_tuple", pytest.fail)
        code = main(["construct", "random-skew", "--n", "64", "--d", "2", "--count", "10000000000"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "640000000000 output coordinates exceed the limit" in err

    @pytest.mark.parametrize("kind", ["random-skew", "random-bollobas"])
    def test_negative_part_size_is_exit_2(self, capsys, kind):
        code = main(["--seed", "1", "construct", kind, "--n", "5", "--d", "2", "--sizes=-1,3"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "negative part size" in err

    @pytest.mark.parametrize("kind", ["random-skew", "random-bollobas"])
    def test_negative_count_is_exit_2(self, capsys, kind):
        code = main(["construct", kind, "--n", "5", "--d", "3", "--count", "-5"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: sample size must be >= 0, got -5")

    @pytest.mark.parametrize("kind", ["random-skew", "random-bollobas"])
    def test_zero_count_is_an_empty_family(self, capsys, kind):
        code, obj = run_json(capsys, "construct", kind, "--n", "5", "--d", "3", "--count", "0")
        assert code == 0
        assert obj["results"]["m"] == 0 and obj["args"]["count"] == 0

    @pytest.mark.parametrize("kind", ["random-skew", "random-bollobas"])
    def test_arity_past_the_sampling_limit_is_exit_2(self, capsys, monkeypatch, kind):
        monkeypatch.setattr("bollobas.constructions._sample_tuple", pytest.fail)
        code = main(["construct", kind, "--n", "1", "--d", "10000000000"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: d = 10000000000 exceeds the limit {MAX_SAMPLED_ARITY}")


class TestSearch:
    def test_tight_triple(self, capsys):
        code, obj = run_json(
            capsys, "search", "--mode", "bollobas", "--n", "3", "--type", "1,1,1"
        )
        assert code == 0
        assert obj["results"]["max_size"] == 6 == obj["results"]["bound"]

    def test_skew_mode(self, capsys):
        code, obj = run_json(capsys, "search", "--mode", "skew", "--n", "4", "--type", "1,1")
        assert code == 0 and obj["results"]["max_size"] == 2

    @pytest.mark.parametrize(
        "mode, sizes, bound",
        [("skew", "2,1,1,1,1,1", 2520), ("bollobas", "2,2,1,1,1", 1260)],
    )
    def test_search_deeper_than_the_recursion_limit(self, capsys, mode, sizes, bound):
        # the optimum chains or cliques more candidates than Python's
        # default recursion limit of 1,000 frames
        code, obj = run_json(capsys, "search", "--mode", mode, "--n", "7", "--type", sizes)
        assert code == 0
        assert obj["results"]["max_size"] == obj["results"]["bound"] == bound

    @pytest.mark.parametrize("mode", ["bollobas", "skew"])
    def test_node_budget_counts_the_nodes_started(self, capsys, mode):
        argv = ["search", "--mode", mode, "--n", "4", "--type", "2,2"]
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["results"]["nodes_explored"] == 7
        assert run(capsys, *argv, "--node-budget", "7") == (0, out)
        for budget, message in [
            (6, "node budget 6 exhausted"),
            (0, "node budget 0 exhausted"),
            (-1, "node budget must be >= 0, got -1"),
        ]:
            assert main([*argv, "--node-budget", str(budget)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n"

    def test_non_integer_type_is_a_format_error(self):
        with pytest.raises(FormatError, match="bad type '1,x'"):
            run_command("search", "--mode", "skew", "--n", "3", "--type", "1,x")

    def test_huge_type_is_refused_within_a_second(self, capsys):
        started = time.perf_counter()
        code = main(["search", "--mode", "bollobas", "--n", "64", "--type", "30,30"])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mode", ["bollobas", "skew"])
    def test_size_limit_is_checked_before_enumerating(self, capsys, monkeypatch, mode):
        from bollobas import search

        def refuse(*args):
            raise AssertionError("candidates enumerated")

        monkeypatch.setattr(search, "_masks_of_type", refuse)
        code = main(["search", "--mode", mode, "--n", "12", "--type", "4,4,4"])
        assert code == 2
        assert "34650 candidate tuples" in capsys.readouterr().err


class TestSimulate:
    def test_skew_disjoint(self, capsys, layered4):
        code, obj = run_json(
            capsys,
            "--input", layered4, "--seed", "5",
            "simulate", "--mode", "skew", "--trials", "3000",
        )
        assert code == 0
        assert obj["results"]["max_simultaneous_hits"] <= 1
        assert obj["results"]["events_disjoint"] is True

    def test_d3_mode(self, capsys, layered4):
        code, obj = run_json(
            capsys,
            "--input", layered4, "--seed", "5",
            "simulate", "--mode", "d3", "--trials", "2000",
        )
        assert code == 0

    def test_trial_budget_is_refused_within_a_second(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(ONE_TRIPLE))
        started = time.perf_counter()
        code = main(["--input", "-", "simulate", "--mode", "skew", "--trials", "1000000000"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: 1000000000 trials of 5 elements exceed the limit of {MAX_TRIAL_STEPS}")

    @pytest.mark.parametrize("mode", ["skew", "general"])
    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_arity_past_the_limit_is_refused_within_a_second(self, capsys, monkeypatch, mode, trials):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "d": 4000, "tuples": []}'))
        started = time.perf_counter()
        code = main(["--input", "-", "simulate", "--mode", mode, "--trials", trials])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: 4000 parts per tuple exceed the limit of {MAX_EVENT_ARITY}")

    @pytest.mark.parametrize("mode", ["skew", "general"])
    def test_arity_at_the_limit_is_admitted(self, capsys, monkeypatch, mode):
        doc = {"n": 3, "d": MAX_EVENT_ARITY, "tuples": [[[1], [2], [3]] + [[]] * (MAX_EVENT_ARITY - 3)]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, obj = run_json(capsys, "--input", "-", "simulate", "--mode", mode, "--trials", "1")
        assert code == 0 and obj["results"]["trials"] == 1


class TestCertify:
    def test_auto_lift_and_pass(self, capsys, tmp_path):
        code, obj = run_json(capsys, "construct", "complete-uniform", "--sizes", "1,1,1")
        path = tmp_path / "c111.json"
        path.write_text(json.dumps(obj["results"]["family"]))
        code, obj = run_json(capsys, "--input", str(path), "--seed", "42", "certify")
        assert code == 0
        assert obj["results"]["verdict"] == "pass"
        assert obj["results"]["m"] == 6 == obj["results"]["size_bound"]

    def test_invalid_family_fails_with_diagnostics(self, capsys, tmp_path):
        bad = {"n": 4, "d": 2, "tuples": [[[1], [2]], [[3], [4]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, obj = run_json(capsys, "--input", str(path), "certify")
        assert code == 1
        assert obj["results"]["verdict"] == "fail"
        assert obj["results"]["skew_ok"] is False

    def test_set_family_is_read_by_family_from_text(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(ONE_TRIPLE))
        with mock.patch.object(cli, "family_from_text", wraps=cli.family_from_text) as read:
            code, obj = run_json(capsys, "--input", "-", "certify")
        assert read.call_args_list == [mock.call(ONE_TRIPLE)]
        assert code == 0 and obj["results"]["verdict"] == "pass"

    @pytest.mark.parametrize(
        "doc, code",
        [
            ('{"n": 3, "d": 2, "tuples": [[[1], [true]]]}', 2),
            ('{"n": 3, "d": 2, "tuples": [[[1, 2], [2]]]}', 2),
            ('{"n": 3, "d": 2, "tuples": [[[1, 1], [2]]]}', 0),
            ('{"n": 3, "d": 2, "tuples": [[[1], [4]]]}', 2),
        ],
        ids=["bool-element", "overlap", "repeated-element", "element-above-n"],
    )
    def test_set_family_read_matches_verify(self, capsys, monkeypatch, doc, code):
        outcomes = []
        for command in ("verify", "certify"):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            got = main(["--input", "-", command])
            err = capsys.readouterr().err
            outcomes.append((got, [line for line in err.splitlines() if line.startswith("error:")]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code and len(outcomes[0][1]) == (code == 2)

    def test_ambient_dimension_limit_is_checked_within_a_second(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 5000000, "d": 2, "entries": [[[], []]]}'))
        started = time.perf_counter()
        code = main(["--input", "-", "certify"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: ambient dimension 5000000 exceeds the limit {MAX_AMBIENT}")

    def test_ambient_dimension_at_the_limit_is_read(self, capsys, monkeypatch):
        doc = {"n": MAX_AMBIENT, "d": 2, "entries": [[[], []]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, obj = run_json(capsys, "--input", "-", "certify")
        assert code == 0 and obj["results"]["verdict"] == "pass"

    def test_work_budget_is_checked_within_a_second(self, capsys, monkeypatch):
        # 5,000 one-element pairs: 25,000,000 evaluation cells
        doc = {"n": 64, "d": 2, "tuples": [[[e % 64 + 1], []] for e in range(5000)]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        started = time.perf_counter()
        code = main(["--input", "-", "certify"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: 25000000 evaluation cells exceed the limit {MAX_EVALUATION_CELLS}")

    def test_stacked_parts_are_checked_within_a_second(self, capsys, monkeypatch):
        # one entry of d = 100,001 empty parts: 100,000 evaluation cells, within
        # their limit, but each cell's stages stack 2 + 3 + ... + d parts
        d = 100_001
        doc = json.dumps({"n": 1, "d": d, "entries": [[[] for _ in range(d)]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        started = time.perf_counter()
        code = main(["--input", "-", "certify"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {d * (d + 1) // 2 - 1} stacked parts exceed the limit {MAX_STACKED_PARTS}")

    @pytest.mark.parametrize("key", ["entries", "tuples"])
    def test_stacked_parts_are_checked_before_any_subspace_is_built(self, capsys, monkeypatch, key):
        # no part of the one entry of d = 100,001 empty parts is read into a subspace
        d = 100_001
        doc = json.dumps({"n": 1, "d": d, key: [[[] for _ in range(d)]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        monkeypatch.setattr("bollobas.spaces.SubspaceRep", pytest.fail)
        code = main(["--input", "-", "certify"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {d * (d + 1) // 2 - 1} stacked parts exceed the limit {MAX_STACKED_PARTS}")

    def test_negative_max_retries_is_refused_before_any_draw(self, capsys, monkeypatch):
        triple = '{"n": 3, "d": 3, "tuples": [[[1], [2], [3]]]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(triple))
        with mock.patch("bollobas.certificates._draw", side_effect=AssertionError("drew")) as draw:
            code = main(["--input", "-", "certify", "--max-retries", "-1"])
        assert not draw.called
        assert (code, *capsys.readouterr()) == (2, "", "error: max retries must be >= 0, got -1\n")
        # 0 is a budget of no draws, not a bad value
        monkeypatch.setattr("sys.stdin", io.StringIO(triple))
        code = main(["--input", "-", "certify", "--max-retries", "0"])
        assert (code, *capsys.readouterr()) == (2, "", "error: no general-position map found in 0 draws\n")

    def test_negative_ambient_dimension_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": -1, "d": 2, "entries": [[[], []]]}'))
        code = main(["--input", "-", "certify"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ambient dimension must be >= 0, got -1")


class TestBounds:
    def test_d3_table(self, capsys):
        code, obj = run_json(capsys, "bounds", "--n", "1..8", "--d", "3")
        assert code == 0
        rows = obj["results"]["rows"]
        assert [r["bound"] for r in rows] == ["2", "5/2", "3", "7/2", "4", "9/2", "5", "11/2"]

    def test_long_range_is_refused_before_any_row(self, capsys, monkeypatch):
        from bollobas import sums

        def refuse(*args):
            raise AssertionError("bound computed")

        monkeypatch.setattr(sums, "recursive_bound", refuse)
        assert main(["bounds", "--n", "1..1000001", "--d", "3"]) == 2
        assert "more than 1000 values of n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["bounds", "--n", "1", "--d", "2000"], ["--input", "-", "sum", "--which", "conjecture"]]
    )
    def test_arity_limit_holds_for_bounds_and_the_conjecture_sum(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 1, "d": 2000, "tuples": []}'))
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: d = 2000 exceeds the limit 1560")

    def test_unprintable_bound_is_refused_within_a_second(self, capsys):
        started = time.perf_counter()
        code = main(["bounds", "--n", "1" + "0" * 50, "--d", "1560"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "more than Python prints" in err

    def test_bound_too_long_to_print_exits_within_a_second(self, capsys):
        # n = 10^4 passes the lower-bound check; the exact sum shows the length
        started = time.perf_counter()
        code = main(["bounds", "--n", "10000", "--d", "1560"])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "too large to print" in err


def _run_captured(argv):
    """Exit code and stdout of one `main` call; a usage error's SystemExit gives its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_shared_parser_gives_the_reports_of_a_fresh_one(tmp_path):
    # skew-valid, but tuple 2 does not cross into tuple 1
    path = tmp_path / "skew_only.json"
    path.write_text(json.dumps({"n": 3, "d": 2, "tuples": [[[1], [2]], [[3], [1]]]}))
    calls = [
        ["verify", "--mode", "nope"],
        ["--input", str(path), "verify", "--mode", "skew"],
        ["--input", str(path), "verify"],
        ["--seed", "5", "--input", str(path), "simulate", "--mode", "skew", "--trials", "20"],
        ["--input", str(path), "simulate", "--mode", "skew", "--trials", "20"],
    ]
    shared = [_run_captured(argv) for argv in calls]
    assert cli._shared_parser() is cli._shared_parser()
    with mock.patch.object(cli, "_shared_parser", cli.build_parser):
        fresh = [_run_captured(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _ in shared] == [2, 0, 1, 0, 0]
    assert [json.loads(out)["seed"] for _, out in shared[3:]] == [5, 0]


class TestErrorsAndDeterminism:
    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["--input", str(path), "verify", "--mode", "skew"]) == 2

    def test_missing_input_is_exit_2(self, capsys):
        assert main(["verify", "--mode", "skew"]) == 2

    def test_byte_identical_reruns(self, capsys, layered4):
        invocations = [
            ["--input", layered4, "verify", "--mode", "bollobas"],
            ["--input", layered4, "sum", "--which", "conjecture"],
            ["--input", layered4, "--seed", "3", "simulate", "--mode", "skew", "--trials", "500"],
            ["--seed", "7", "construct", "random-skew", "--n", "5", "--d", "2", "--count", "4"],
            ["search", "--mode", "bollobas", "--n", "3", "--type", "2,1"],
            ["bounds", "--n", "1..4", "--d", "4"],
        ]
        for argv in invocations:
            first_code, first = run(capsys, *argv)
            second_code, second = run(capsys, *argv)
            assert first_code == second_code
            assert first == second

    def test_output_file(self, capsys, tmp_path, layered4):
        out = tmp_path / "report.json"
        code = main(["--input", layered4, "--output", str(out), "verify", "--mode", "skew"])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["command"] == "verify"

    def test_mode_arity_mismatch_is_exit_2(self, capsys, tmp_path):
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"n": 2, "d": 2, "tuples": [[[1], [2]]]}))
        assert main(["--input", str(pair), "simulate", "--mode", "d3", "--trials", "10"]) == 2

    def test_certify_nonuniform_is_exit_2(self, capsys, tmp_path):
        fam = tmp_path / "nonuniform.json"
        fam.write_text(json.dumps({"n": 3, "d": 2, "tuples": [[[1], [2]], [[1], [2, 3]]]}))
        assert main(["--input", str(fam), "certify"]) == 2

    def test_search_type_too_large_is_exit_2(self, capsys):
        assert main(["search", "--mode", "skew", "--n", "2", "--type", "2,1"]) == 2

    def test_bad_range_is_exit_2(self, capsys):
        for text in ("x..y", "5..3"):
            assert main(["bounds", "--n", text, "--d", "3"]) == 2
            assert capsys.readouterr().out == ""

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        payload = json.dumps({"n": 2, "d": 2, "tuples": [[[1], [2]]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["--input", "-", "verify", "--mode", "skew"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["results"]["valid"] is True


class TestMalformedInput:
    """Malformed documents end in exit 2 with an error line, never a traceback."""

    def run_stdin(self, capsys, monkeypatch, payload, *argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["--input", "-", *argv])
        err = capsys.readouterr().err
        return code, err

    @pytest.mark.parametrize("payload", ["5", "[1, 2]", "null", '"tuples"'])
    def test_certify_non_object_json_is_exit_2(self, capsys, monkeypatch, payload):
        code, err = self.run_stdin(capsys, monkeypatch, payload, "certify")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "d": 2, "tuples": [[[1], [2]]]},
            {"n": 2, "d": True, "tuples": []},
            {"n": 2, "d": 2, "tuples": [[[True], [2]]]},
        ],
    )
    def test_set_family_booleans_are_exit_2(self, capsys, monkeypatch, doc):
        code, err = self.run_stdin(capsys, monkeypatch, json.dumps(doc), "verify")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "d": 2, "entries": [[[[1]], [[1]]]]},
            {"n": 2, "d": 2, "entries": [[[[True, 0]], [[0, 1]]]]},
            {"n": 2, "d": 2, "entries": [[["10"], [[0, 1]]]]},
        ],
    )
    def test_subspace_family_bad_shapes_are_exit_2(self, capsys, monkeypatch, doc):
        code, err = self.run_stdin(capsys, monkeypatch, json.dumps(doc), "certify")
        assert code == 2
        assert err.startswith("error:")

    def test_infinite_coordinate_is_exit_2(self, capsys, monkeypatch):
        payload = '{"n": 2, "d": 2, "entries": [[[[Infinity, 0]], [[0, 1]]]]}'
        code, err = self.run_stdin(capsys, monkeypatch, payload, "certify")
        assert code == 2
        assert err.startswith("error:")

    def test_non_utf8_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code = main(["--input", str(path), "verify"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def assert_refused(self, capsys, monkeypatch, payload, *argv):
        """Exit 2 with an error line on stderr and nothing on stdout."""
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", DOCUMENT_READERS)
    def test_integer_literal_past_the_digit_limit_is_exit_2(self, capsys, monkeypatch, argv):
        payload = '{"n": ' + "1" * 5000 + ', "d": 2, "tuples": []}'
        self.assert_refused(capsys, monkeypatch, payload, "--input", "-", *argv)

    @pytest.mark.parametrize(
        "payload,argv",
        [
            # B(64, 1560) has 4,305 digits
            ("", ["bounds", "--n", "64", "--d", "1560"]),
            ('{"n": 64, "d": 1560, "tuples": []}', ["--input", "-", "sum", "--which", "conjecture"]),
            (
                json.dumps({"n": 2, "d": 2, "entries": [[[[TEN_3000, "0"]], [["0", TEN_3000]]]]}),
                ["--input", "-", "certify"],
            ),
        ],
        ids=["bounds", "sum", "certify"],
    )
    def test_result_past_the_digit_limit_is_exit_2(self, capsys, monkeypatch, payload, argv):
        self.assert_refused(capsys, monkeypatch, payload, *argv)

    @pytest.mark.parametrize("exponent", ["1e100000000", "1E+100000000", "1e-100000000", "1e1_0000_0000"])
    def test_decimal_exponent_past_the_digit_limit_exits_2_at_once(self, capsys, monkeypatch, exponent):
        payload = json.dumps({"n": 2, "d": 2, "entries": [[[[exponent, 0]], [[0, 1]]]]})
        start = time.perf_counter()
        self.assert_refused(capsys, monkeypatch, payload, "--input", "-", "certify")
        assert time.perf_counter() - start < CLI_CASE_SECONDS

    def test_non_utf8_stdin_is_exit_2(self, capsys, monkeypatch):
        # a text stdin with errors="surrogateescape" hands invalid bytes on as lone surrogates
        code, err = self.run_stdin(capsys, monkeypatch, b"\xff\xfe".decode("utf-8", "surrogateescape"), "verify")
        assert code == 2
        assert err.startswith("error:")

    def test_deeply_nested_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["--input", str(path), "verify"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


# Arbitrary JSON with the keys of both family formats.  Integers stay below
# 100, so that a valid n stays cheap for certify (whose ambient dimension is
# limited only at spaces.MAX_AMBIENT, with its own test above); integer
# literals past the digit limit have their own tests above.
_SCALARS = st.one_of(
    st.integers(-2, 100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "-3", "1/0", "x", ""]),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
_KEYS = st.sampled_from(["n", "d", "tuples", "entries"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)
_SMALL = st.integers(-1, 6)
_DOCS = _JSON | st.fixed_dictionaries(
    {},
    optional={"n": _SMALL | _SCALARS, "d": _SMALL | _SCALARS, "tuples": _JSON, "entries": _JSON},
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS, argv=st.sampled_from(DOCUMENT_READERS))
def test_arbitrary_json_keeps_the_exit_contract(doc, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--input", "-", *argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")


class _Overtime(Exception):
    """A fuzz case ran past its wall-time limit."""


@contextlib.contextmanager
def _time_limit(seconds):
    """Interrupt the block with `_Overtime` once `seconds` of wall time pass."""

    def overtime(signum, frame):
        raise _Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Every simulate case must end within this limit.  An admitted run here is at
# most 5,000 trials of 5 elements, a few tens of milliseconds; a trial count
# past the budget must be refused before the first trial.
SIMULATE_CASE_SECONDS = 1.0
_TRIALS = st.one_of(
    st.integers(-10, 5000).map(str),
    st.integers(MAX_TRIAL_STEPS // 2 + 1, 10**18).map(str),
    st.sampled_from(["1e9", "1.5", "", "ten", "0x10", "--"]),
    st.text(max_size=4),
)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@settings(max_examples=150, deadline=None)
@given(
    doc=st.sampled_from([ONE_TRIPLE, ONE_PAIR]),
    seed=st.integers(),
    mode=st.sampled_from(MODES) | st.text(max_size=6),
    trials=_TRIALS,
)
def test_simulate_flag_values_keep_the_exit_contract_in_time(doc, seed, mode, trials):
    argv = ["--input", "-", "--seed", str(seed), "simulate", "--mode", mode, "--trials", trials]
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.suppress(_Overtime), _time_limit(SIMULATE_CASE_SECONDS):
        with mock.patch("sys.stdin", io.StringIO(doc)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: "<prog>: error: ..." after the usage line
                    code = exc.code
    assert code is not None, f"{argv} ran past {SIMULATE_CASE_SECONDS} s"
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert any(line.startswith("error:") or ": error: " in line for line in err.getvalue().splitlines())


# Every subcommand's flags, as the fuzz test below mixes them.
_OWN_FLAGS = {
    "verify": ["--mode"],
    "sum": ["--which"],
    "construct": ["--sizes", "--n", "--d", "--count", "--lift"],
    "search": ["--mode", "--n", "--type", "--node-budget"],
    "simulate": ["--mode", "--trials"],
    "certify": ["--max-retries"],
    "bounds": ["--n", "--d"],
}
_ALL_FLAGS = sorted({flag for flags in _OWN_FLAGS.values() for flag in flags})
# Every case must end within this limit.  Numbers stay at most 12, or are 64
# or 10^10, far past a limit that must refuse them before the work starts:
# `construct`'s output budget refuses the runs in that range that would take
# seconds, such as `construct layered-triples --n 12`; and text holds no
# decimal digits, which `int` reads in any script.
CLI_CASE_SECONDS = 1.0
_NUMBERS = st.integers(-2, 12).map(str) | st.sampled_from(["64", "10000000000"])
_TYPES = st.sampled_from(["1,1", "2,1", "1,1,1", "2,2", "2,1,1", "0,1", "-1,2", "1,,1"])
_KINDS = st.sampled_from(["complete-uniform", "layered-triples", "random-skew", "random-bollobas"])
# the values each flag takes, drawn as often as any value at all
_GOOD = {
    "--mode": st.sampled_from(sorted({"bollobas", "skew", *MODES})),
    "--which": st.sampled_from(["conjecture", "skew", "pair_weighted"]),
    "--sizes": _TYPES,
    "--type": _TYPES,
    "--n": _NUMBERS | st.sampled_from(["1..5", "3..1", "0..64"]),
}
_VALUES = st.one_of(
    _NUMBERS,
    _TYPES,
    _KINDS,
    _GOOD["--mode"],
    _GOOD["--which"],
    st.sampled_from(["", "-", "1e3", "0x10", "1..5"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
_DOCS = [ONE_TRIPLE, ONE_PAIR, '{"n": 2, "d": 2, "entries": [[[[1, 0]], [["0", "1/2"]]]]}']


def _often(draw) -> bool:
    """True three times in four."""
    return draw(st.integers(0, 3)) > 0


@st.composite
def _command_lines(draw):
    """A subcommand with its own flags, each drawn or not, and at most one
    flag of another subcommand, with values meant for the flag or any other."""
    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    argv = ["--input", "-", "--seed", draw(st.integers().map(str) if _often(draw) else _VALUES), command]
    if command == "construct":
        argv.append(draw(_KINDS if _often(draw) else _VALUES))
    flags = [flag for flag in _OWN_FLAGS[command] if _often(draw)]
    if not _often(draw):
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    for flag in flags:
        argv.extend([flag] if flag == "--lift" else [flag, draw(_GOOD.get(flag, _NUMBERS) if _often(draw) else _VALUES)])
    return argv


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@settings(max_examples=400, deadline=None)
@given(data=st.data(), argv=_command_lines())
def test_every_subcommand_keeps_the_exit_contract_in_time(data, argv):
    """Arbitrary bytes or a small family on stdin, and any subcommand's flag
    values: exit 0, 1 or 2 within the time limit, and on exit 2 no stdout and
    an error line."""
    stdin = data.draw(st.sampled_from(_DOCS).map(str.encode) if _often(data.draw) else st.binary(max_size=64))
    out, err = io.StringIO(), io.StringIO()
    code = None
    text = stdin.decode("utf-8", "surrogateescape")
    with contextlib.suppress(_Overtime), _time_limit(CLI_CASE_SECONDS):
        with mock.patch("sys.stdin", io.StringIO(text)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: usage errors, or --help
                    code = exc.code
    assert code is not None, f"{argv} ran past {CLI_CASE_SECONDS} s"
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert any(line.startswith("error:") or ": error: " in line for line in err.getvalue().splitlines())


@pytest.fixture()
def collector():
    """Give the collector back in the state the test found it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


# Two tuples with the same parts: a Bollobás violation, so `verify` exits 1.
SAME_PAIR_TWICE = '{"n": 2, "d": 2, "tuples": [[[1], [2]], [[1], [2]]]}'


class TestCollectorPause:
    """`main` pauses the cyclic collector for its command and gives it back as it found it."""

    def test_collector_is_off_inside_a_command(self, tmp_path, monkeypatch, collector):
        path = tmp_path / "triple.json"
        path.write_text(ONE_TRIPLE)
        seen = []

        def scan(fam):
            seen.append(gc.isenabled())
            return bollobas_violation(fam)

        monkeypatch.setattr(cli, "bollobas_violation", scan)
        gc.enable()
        assert _run_captured(["--input", str(path), "verify"])[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "way", ["exit 0", "exit 1", "format error", "missing output directory", "usage error", "unexpected exception"]
    )
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, collector, way, enabled):
        documents = {"valid": ONE_TRIPLE, "violated": SAME_PAIR_TWICE, "junk": "{not json"}
        for name, text in documents.items():
            (tmp_path / name).write_text(text)
        valid, violated, junk = (str(tmp_path / name) for name in documents)
        argv, expected = {
            "exit 0": (["--input", valid, "verify"], 0),
            "exit 1": (["--input", violated, "verify"], 1),
            "format error": (["--input", junk, "verify"], 2),
            "missing output directory": (["--input", valid, "--output", str(tmp_path / "no" / "r.json"), "verify"], 2),
            "usage error": (["verify", "--mode", "nope"], 2),
            "unexpected exception": (["--input", valid, "verify"], None),
        }[way]
        (gc.enable if enabled else gc.disable)()
        if expected is None:
            monkeypatch.setattr(cli, "bollobas_violation", mock.Mock(side_effect=RuntimeError("unexpected")))
            with pytest.raises(RuntimeError, match="unexpected"), contextlib.redirect_stdout(io.StringIO()):
                main(argv)
        else:
            assert _run_captured(argv)[0] == expected
        assert gc.isenabled() is enabled


# Family documents for the garbage test, by the name an argv gives in place of a path.
_GARBAGE_INPUTS = {
    "layered5": lambda: layered_triple_family(5),
    "layered8": lambda: layered_triple_family(8),
    "complete11": lambda: complete_family((1, 1)),
    "complete211": lambda: complete_family((2, 1, 1)),
}
_SKEW = ["simulate", "--mode", "skew", "--trials", "20"]
_REFUSED = ["simulate", "--mode", "d3", "--trials", str(10**9)]


@pytest.mark.parametrize(
    "small, large",
    [
        (["--input", "layered5", "verify"], ["--input", "layered8", "verify"]),
        (["--input", "layered5", "sum", "--which", "conjecture"], ["--input", "layered8", "sum", "--which", "conjecture"]),
        (["--input", "layered5", *_SKEW], ["--input", "layered8", *_SKEW]),
        (["--input", "layered5", *_REFUSED], ["--input", "layered8", *_REFUSED]),
        (["search", "--mode", "bollobas", "--n", "3", "--type", "2,1"], ["search", "--mode", "bollobas", "--n", "6", "--type", "2,2,1"]),
        (["search", "--mode", "skew", "--n", "3", "--type", "2,1"], ["search", "--mode", "skew", "--n", "6", "--type", "2,2,1"]),
        (["--input", "complete11", "certify"], ["--input", "complete211", "certify"]),
        (["construct", "layered-triples", "--n", "4"], ["construct", "layered-triples", "--n", "8"]),
        (["bounds", "--n", "1..4", "--d", "3"], ["bounds", "--n", "1..40", "--d", "3"]),
    ],
    ids=["verify", "sum", "simulate", "simulate-refused", "search-bollobas", "search-skew", "certify", "construct", "bounds"],
)
def test_cyclic_garbage_of_a_command_does_not_grow_with_its_input(tmp_path, collector, small, large):
    # the collector pause of `main` leaves a command's cycles for after it; that
    # is safe only while they stay a fixed handful, however large the input
    for name, make in _GARBAGE_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(family_to_json(make())))

    def garbage(argv):
        """The exit code of `argv` and the unreachable objects it leaves, with the collector off."""
        argv = [str(tmp_path / a) if a in _GARBAGE_INPUTS else a for a in argv]
        gc.collect()
        gc.disable()
        code, _ = _run_captured(argv)
        return code, gc.collect()

    garbage(small)  # first calls fill caches (the parser, compiled patterns) once per process
    assert garbage(small) == garbage(large)


class TestSubprocessPipeline:
    """Drive the module as a real subprocess, construct -> verify -> sum -> certify."""

    def run_cli(self, args, stdin=None):
        # the child imports the package from this checkout's src, installed or not
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "bollobas.cli", *args],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )

    def test_full_pipeline(self, tmp_path):
        proc = self.run_cli(["construct", "complete-uniform", "--sizes", "1,1,1"])
        assert proc.returncode == 0, proc.stderr
        family = json.dumps(json.loads(proc.stdout)["results"]["family"])
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(family)

        proc = self.run_cli(["--input", str(fam_path), "verify", "--mode", "bollobas"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["valid"] is True
        assert "elapsed_ms=" in proc.stderr  # timing stays off stdout

        proc = self.run_cli(["--input", "-", "sum", "--which", "skew"], stdin=family)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["within_bound"] is True

        proc = self.run_cli(["--input", str(fam_path), "--seed", "42", "certify"])
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        assert results["verdict"] == "pass" and results["m"] == 6
