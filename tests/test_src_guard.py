"""src/ runs what it holds: every private module-level function of the package
is reached from code that is not itself an unreached private function, and
every defaulted parameter that the program's callers could set is set by one.

Reference forms that only the tests use (layer oracles and the like) belong
in tests/, next to the tests that compare against them; a knob that only a
test turns is a module constant the test monkeypatches.
"""

import ast
from pathlib import Path

import specsiam

PACKAGE = Path(specsiam.__file__).parent
CALLERS = [PACKAGE.parents[1] / name for name in ("src", "scripts", "perfbench")]

# Defaulted parameters that no call under CALLERS passes, each kept for a reason.
UNPASSED_DEFAULTS = {
    "bayesopt.gp_fit:noise": "acceptance criterion 5 fixes the GP noise, and its test passes it",
    "cli.main:argv": "perfbench passes it through Checks.op, a call the scan cannot see",
}


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


def _package_functions(package: Path):
    """(module.qualified name, name callers call it by, FunctionDef, leading
    parameters a call does not pass) of each module-level function and method;
    a class's __init__ is called by the class name."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{node.name}", node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in sub.decorator_list)
                        called_as = node.name if sub.name == "__init__" else sub.name
                        yield f"{path.stem}.{node.name}.{sub.name}", called_as, sub, 0 if static else 1


def _defaulted(func: ast.FunctionDef, skip: int) -> list[tuple[int | None, str]]:
    """(position in a call, or None if keyword-only; name) of each defaulted parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first_default]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call sets the parameter; a ** call sets every keyword and a * call every position."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults(package: Path, callers: list[Path]) -> list[str]:
    """module.function:parameter of each defaulted parameter of a package
    function that code under callers calls (by its bare or attribute name)
    while no such call passes that parameter."""
    calls: dict[str, list[ast.Call]] = {}
    for root in callers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    calls.setdefault(name, []).append(node)
    unpassed = []
    for qualified, called_as, func, skip in _package_functions(package):
        if called_as not in calls:
            continue
        for position, name in _defaulted(func, skip):
            if not any(_passes(call, position, name) for call in calls[called_as]):
                unpassed.append(f"{qualified}:{name}")
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_by_a_caller():
    unpassed = unpassed_defaults(PACKAGE, CALLERS)
    unexcused = [name for name in unpassed if name not in UNPASSED_DEFAULTS]
    assert not unexcused, f"defaulted parameters that no caller passes: {', '.join(unexcused)}"
    stale = sorted(set(UNPASSED_DEFAULTS) - set(unpassed))
    assert not stale, f"exceptions that some caller now passes: {', '.join(stale)}"


def test_the_scan_finds_parameters_no_caller_passes(tmp_path):
    package, caller = tmp_path / "pkg", tmp_path / "caller"
    package.mkdir()
    caller.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def uncalled(x=0):\n    return x\n\n"
        "def spread(x=0, *, y=1):\n    return x\n\n"
        "class K:\n"
        "    def __init__(self, p=0):\n        self.p = p\n\n"
        "    def m(self, x, y=0):\n        return x\n\n"
        "    @staticmethod\n    def s(x, y=0):\n        return x\n"
    )
    (caller / "use.py").write_text(
        "from pkg import mod\n"
        "mod.f(1, 2)\nmod.f(0, e=5)\n"
        "mod.spread(*[1], **{})\n"
        "k = mod.K()\nk.m(1)\nmod.K.s(1, 2)\n"
    )
    assert unpassed_defaults(package, [caller]) == ["mod.K.__init__:p", "mod.K.m:y", "mod.f:c", "mod.f:d"]
