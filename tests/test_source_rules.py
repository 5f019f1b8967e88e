"""Rules the package source itself must follow."""

import ast
import re
from functools import reduce
from pathlib import Path

import bollobas

SOURCE = Path(bollobas.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_bare_assert_in_package():
    # invariants must be real checks: python -O strips assert statements
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"


def test_only_the_command_line_touches_the_collector():
    # `cli.main` pauses the cyclic collector for one command; the library
    # never changes it, so a caller's setting holds across library calls
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for module in modules if module == "gc"]
    assert [where.split(":")[0] for where in found] == ["cli.py"], found


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


def test_only_families_decodes_with_a_parse_int():
    # the coded family format, its literal table and the decode that reads
    # through it, stays behind `families.family_from_text`, which the CLI
    # reads every set family's text through
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "decode" and (len(node.args) > 1 or any(k.arg == "parse_int" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert [where.split(":")[0] for where in found] == ["families.py"], found
    cli = (SOURCE / "cli.py").read_text(encoding="utf-8")
    assert "LITERAL_BIT" not in cli and "parse_int" not in cli
    assert not re.search(r"\bfamily_from_json", cli)  # `subspace_family_from_json` is another reader


def test_exterior_checks_and_clears_rows_in_one_place():
    # `_cleared` checks the length of every rational row a front end takes and
    # clears its denominators; wedge and sum_rank check only what no row shows
    tree = ast.parse((SOURCE / "exterior.py").read_text(encoding="utf-8"))
    raisers, clearers = set(), set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Raise) and any(
                isinstance(name, ast.Name) and name.id == "DimensionError" for name in ast.walk(node)
            ):
                raisers.add(function.name)
            if isinstance(node, ast.Attribute) and node.attr == "denominator":
                clearers.add(function.name)
    assert raisers == {"_cleared", "wedge", "sum_rank"}
    assert clearers == {"_cleared"}


def _calls_that_skip_constructors(tree):
    """(function, line) of each `__new__` or slot `__set__` reference, and of
    each `object.__setattr__` outside a `__post_init__`: the ways to give an
    object its fields without running its checks."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute):
            on_object = isinstance(node.value, ast.Name) and node.value.id == "object"
            setattr_outside_checks = node.attr == "__setattr__" and on_object and function != "__post_init__"
            if node.attr in ("__new__", "__set__") or setattr_outside_checks:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_function_builds_an_object_without_its_constructor():
    # every reader and construction hands its values to a constructor, which
    # runs its checks; a family's masks are taken as given there, not set past it
    where = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, line in _calls_that_skip_constructors(tree):
            where.setdefault(f"{path.name}:{function}", []).append(line)
    assert where == {}, where


def _top_level_definitions(tree):
    """The names a module defines at its top level: functions, classes and
    assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _references(tree):
    """Every name a module reads, imports from another module, or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _source_trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }


def _exported(init):
    """The names `__init__` imports from the package's modules."""
    return {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_public_name_is_exported_or_used():
    # a public name that the package neither exports nor reads is dead code
    # that still looks like part of the API
    trees = _source_trees()
    exported = _exported(trees.pop("__init__.py"))
    used = set().union(*map(_references, trees.values()))
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _top_level_definitions(tree)
        if not name.startswith("_") and name not in exported and name not in used
    ]
    assert not unused, f"public names neither exported nor used: {', '.join(unused)}"


def _public_members(tree):
    """`Class.member` for each public method, property or classmethod that a
    class of the module defines."""
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def _attributes_read(tree):
    """Every name a module reads as an attribute, `x.name`.  A bare name is a
    local or global, so a local variable named like a method does not count."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _unread_public_names(trees):
    """The exported names that no module reads, and each public method or
    property, as `Class.member`, that no module reads as an attribute."""
    trees = dict(trees)
    exported = _exported(trees.pop("__init__.py"))
    used = set().union(*map(_references, trees.values()))
    attributes = set().union(*map(_attributes_read, trees.values()))
    unread = sorted(name for name in exported if name not in used)
    return unread + [
        member
        for tree in trees.values()
        for member in _public_members(tree)
        if member.split(".")[1] not in attributes
    ]


def _public_api_names():
    """The names in backticks in the README's "Public API" section."""
    text = README.read_text(encoding="utf-8")
    start = text.find("\n## Public API\n")
    assert start >= 0, "the README has no Public API section"
    end = text.find("\n## ", start + 1)
    return set(re.findall(r"`([A-Za-z_][\w.]*)`", text[start:end if end > 0 else None]))


def test_every_public_name_is_read_or_listed_in_the_readme():
    # the README's "Public API" section is the library contract: a public
    # name or method that the package never reads is there only for callers,
    # so it must be listed, or it is dead code that only its tests call
    listed = _public_api_names()
    unlisted = [name for name in _unread_public_names(_source_trees()) if name not in listed]
    assert not unlisted, f"public names that no module reads and the README does not list: {', '.join(unlisted)}"


def test_every_name_in_the_readme_api_list_resolves():
    # a name deleted or renamed in the source must leave the list too; each
    # is an attribute of `bollobas`, of one of its modules or of a class
    stale = []
    for name in sorted(_public_api_names()):
        try:
            reduce(getattr, name.split("."), bollobas)
        except AttributeError:
            stale.append(name)
    assert not stale, f"README API names that do not resolve: {', '.join(stale)}"


def test_a_method_counts_as_read_only_through_an_attribute():
    # `image` is also a local variable of `evaluate`; a bare name load must
    # not count as a read of the method `Shape.image`
    tree = ast.parse(
        "class Shape:\n"
        "    def area(self):\n"
        "        return 1\n"
        "\n"
        "    def image(self):\n"
        "        return self\n"
        "\n"
        "\n"
        "def evaluate(shape):\n"
        "    image = shape.area()\n"
        "    return image\n"
    )
    assert _unread_public_names({"__init__.py": ast.parse(""), "shapes.py": tree}) == ["Shape.image"]


def test_every_private_name_is_used():
    # a private name that no module of the package reads is a kernel or
    # helper left behind, which only its tests still call
    trees = _source_trees()
    used = set().union(*map(_references, trees.values()))
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _top_level_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert not unused, f"private names that no module reads: {', '.join(unused)}"


def test_no_sort_in_the_monte_carlo_trial_loop():
    # each trial walks the inverse permutation that `_shuffles` keeps; a
    # per-trial sort would cost about as much as the shuffle itself
    tree = ast.parse((SOURCE / "events.py").read_text(encoding="utf-8"))
    (monte_carlo,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "monte_carlo"]
    loops = [
        node
        for node in ast.walk(monte_carlo)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "_shuffles"
    ]
    assert len(loops) == 1, "monte_carlo has no single trial loop over _shuffles"
    sorts = [
        node.lineno
        for stmt in loops[0].body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sorted"
    ]
    assert not sorts, f"sorted called in the trial loop at events.py lines {sorts}"


def _self_calls(tree):
    """(function, line) of each call a function makes to itself, by its name
    or as a method of `self` or `cls`, other than as the operand of a `yield`."""
    yielded = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Yield)}
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or id(node) in yielded:
                continue
            func = node.func
            by_name = isinstance(func, ast.Name) and func.id == function.name
            by_method = (
                isinstance(func, ast.Attribute)
                and func.attr == function.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            )
            if by_name or by_method:
                found.append((function.name, node.lineno))
    return found


def test_no_function_calls_itself():
    # a recursive call costs a Python frame per level, so its depth is capped
    # by the recursion limit, not by the package's own limits; a search node
    # instead yields its child to the explicit stack of `search._run`
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{function}:{line}" for function, line in _self_calls(tree)]
    assert not found, f"functions that call themselves: {', '.join(found)}"
