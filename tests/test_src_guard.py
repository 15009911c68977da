"""src/ runs what it holds: every private module-level function of the package
is reached from code that is not itself an unreached private function.

Reference forms that only the tests use (layer oracles and the like) belong
in tests/, next to the tests that compare against them.
"""

import ast
from pathlib import Path

import specsiam

PACKAGE = Path(specsiam.__file__).parent


def _names(node) -> set[str]:
    """Every bare name and attribute name referenced under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreached_private_functions(package: Path) -> list[str]:
    """module:name of each _-prefixed module-level function that no public
    function, class or module statement reaches, directly or through other
    private functions."""
    private = {}  # name -> (module, names its body references)
    roots = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_function and node.name.startswith("_") and not node.name.startswith("__"):
                private[node.name] = (path.stem, _names(node))
            else:
                roots |= _names(node)
    reached, frontier = set(), [name for name in private if name in roots]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(n for n in private[name][1] if n in private and n != name)
    return sorted(f"{module}:{name}" for name, (module, _) in private.items() if name not in reached)


def test_every_private_function_is_reached():
    unreached = unreached_private_functions(PACKAGE)
    assert not unreached, f"no code in {PACKAGE} reaches: {', '.join(unreached)}"


def test_the_scan_finds_an_unreached_chain(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def public():\n    return _used()\n\n"
        "def _used():\n    return 1\n\n"
        "def _oracle():\n    return _helper()\n\n"
        "def _helper():\n    return 2\n\n"
        "def _recursive():\n    return _recursive()\n"
    )
    assert unreached_private_functions(tmp_path) == ["mod:_helper", "mod:_oracle", "mod:_recursive"]
