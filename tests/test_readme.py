"""The README's examples give the results their comments say."""

import json
from fractions import Fraction
from pathlib import Path

from bollobas.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(section):
    """The first fenced code block after a README heading, without its fences."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```", text.index(f"\n## {section}\n"))
    body = text.index("\n", start) + 1
    return text[body : text.index("```", body)]


def test_library_quick_start_results_match_their_comments():
    # each commented line is an expression whose repr starts its comment;
    # the other lines are statements that set up the next ones
    namespace = {"Fraction": Fraction}
    expected = []
    for line in _code_block("Library quick start").splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        want = comment.strip().split("  ")[0]
        assert repr(eval(code, namespace)) == want, line
        expected.append(want)
    assert expected == ["True", "Fraction(4, 1)", "Fraction(9, 2)", "Fraction(1, 7)", "(6, 6)", "(True, 6, 6)"]


def test_command_line_sum_example(tmp_path, capsys):
    # `construct layered-triples --n 6`, then `sum --which conjecture` on its
    # family: "value 4, bound 9/2"
    assert "sum --which conjecture   # value 4, bound 9/2" in _code_block("Command line")
    assert main(["construct", "layered-triples", "--n", "6"]) == 0
    family = tmp_path / "family.json"
    family.write_text(json.dumps(json.loads(capsys.readouterr().out)["results"]["family"]))
    assert main(["--input", str(family), "sum", "--which", "conjecture"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["value"], results["bound"]) == ("4", "9/2")
