"""Rules the package source itself must follow."""

import ast
from pathlib import Path

import bollobas

SOURCE = Path(bollobas.__file__).parent


def test_no_bare_assert_in_package():
    # invariants must be real checks: python -O strips assert statements
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"



def test_json_is_decoded_in_one_place():
    # the one decoder turns every decode failure into FormatError; a second one would have to repeat that
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ]
    assert len(found) == 1, f"json.load(s) calls: {', '.join(found) or 'none'}"
