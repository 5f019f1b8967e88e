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
