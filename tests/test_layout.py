"""The package holds what its commands run: every public function, class and
method in `src/wgelfand` is referenced somewhere in the package outside its
own definition, and every defaulted parameter of one is passed by some call
in the package, and not by every call with the same literal. Reference code
that only the tests call lives in `tests/oracles.py`. Every third-party
module the package imports is a declared dependency."""

import ast
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wgelfand"
# argparse calls it; no module names it
EXEMPT = {"cli._Parser.error"}
# the entry point: argv is None on the command line, a list in tests
KNOB_EXEMPT = {"cli.main.argv"}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of every public top-level function and
    class, and of every public method of any class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(node: ast.AST) -> Counter:
    """How often each identifier appears as a Name or an Attribute in node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_name_in_the_package_has_a_caller_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert "cli" in trees and "groups" in trees
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(module, tree)
        if used[name] == _references(node)[name] and qualified not in EXEMPT
    ]
    assert unused == []


def _defaulted(node: ast.FunctionDef, method: bool):
    """(name, position among the call's positional arguments or None) of
    every parameter of node that has a default; a method's self is not
    passed positionally."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method else 0
    for index, arg in enumerate(positional):
        if index >= first:
            yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether call passes the parameter by keyword, by position or through
    a * or ** argument."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _literal_passed(call: ast.Call, name: str, position):
    """The source of the literal that call passes for the parameter, by
    keyword or by position; None when it passes none or passes an expression."""
    node = next((k.value for k in call.keywords if k.arg == name), None)
    if node is None and position is not None and len(call.args) > position:
        node = call.args[position]
    return ast.unparse(node) if isinstance(node, ast.Constant) else None


def test_every_defaulted_parameter_is_passed_somewhere_in_the_package():
    """A default that no call in the package overrides is a knob only the
    tests turn, and one that every call overrides with the same literal is a
    knob no call turns: either way the package should read the value where
    it is used."""
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    calls = [
        node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    unused, fixed = [], []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(module, tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            method = qualified.count(".") == 2
            own = [c for c in calls if callee(c) == name]
            for param, position in _defaulted(node, method):
                if f"{qualified}.{param}" in KNOB_EXEMPT:
                    continue
                if not any(_passes(c, param, position) for c in own):
                    unused.append(f"{qualified}({param}=...)")
                values = {_literal_passed(c, param, position) for c in own}
                if len(values) == 1 and None not in values:
                    fixed.append(f"{qualified}({param}={values.pop()})")
    assert unused == []
    assert fixed == []


def test_every_third_party_import_is_a_declared_dependency():
    """A top-level module that the package imports and that is neither in
    the standard library nor the package itself is listed in
    [project].dependencies of pyproject.toml."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project["dependencies"]
    }
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"wgelfand"}
    assert "numpy" in third_party
    assert sorted(third_party - declared) == []


def test_only_the_cli_writes_the_report():
    """The JSON layout is known to one module: no function or method in the
    package is named `to_json`, and `cli` alone imports orjson."""
    to_json, orjson_users = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "to_json":
                to_json.append(f"{path.stem}.{node.name}")
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
                else []
            )
            if any(name.split(".")[0] == "orjson" for name in names):
                orjson_users.append(path.stem)
    assert to_json == []
    assert orjson_users == ["cli"]


def test_the_spectral_stages_read_no_partition():
    """The spherical functions, the Fourier table and the multipliers live on
    the double-coset basis: `spherical` and `fourier` name neither
    `DoubleCosetPartition` nor its |G|-sized `coset_of` nor a `partition`,
    and read the coset-level fields of the structure constants alone."""
    named = []
    for stem in ("spherical", "fourier"):
        path = SRC / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [node.arg] if isinstance(node, ast.arg)
                else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            named += [
                f"{stem}.{name}"
                for name in names
                if name in ("DoubleCosetPartition", "coset_of", "partition")
            ]
    assert named == []


def test_no_module_runs_an_svd():
    """The orthogonality relations certify the rank of the Fourier table and
    bracket its condition number, so no module in the package calls
    `linalg.svd`, `linalg.cond` or `linalg.matrix_rank` (the last two run
    an SVD), by attribute or by import."""
    svd = {"svd", "cond", "matrix_rank"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in svd:
                base = node.value
                base = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                if base == "linalg":
                    found.append(f"{path.stem}: linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{path.stem}: {alias.name}" for alias in node.names if alias.name in svd]
    assert found == []


def test_no_function_takes_a_bool_parameter():
    """A verdict is derived where it is used, not passed in: no function or
    method in the package has a parameter annotated `bool`."""
    flags = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg and arg.annotation and re.search(r"\bbool\b", ast.unparse(arg.annotation)):
                    flags.append(f"{path.stem}.{node.name}({arg.arg})")
    assert flags == []


def test_the_reference_closure_uses_no_closure_of_the_package():
    """`tests/oracles.py` grows a subgroup by its own breadth-first search:
    it neither imports nor names the label fixpoint of `groups`
    (`_label_round`, `_settle`) or a closure helper (`_right_closure`), so
    the reference stays independent of the code it checks."""
    path = ROOT / "tests" / "oracles.py"
    closures = {"_right_closure", "_settle", "_label_round"}
    named = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom))
            else []
        )
        named += [name for name in names if name.split(".")[-1] in closures]
    assert named == []


def test_cross_call_state_lives_in_the_cli_alone():
    """State that outlives a call sits in one audited place, where the
    benchmark's spans still time it: only `cli` has a `global` statement,
    and no function is decorated with `functools.cache` or `lru_cache` but
    `cli.build_parser`, the one parser of the process. A decorated function
    is no plain function, which the spans would skip."""
    globals_, cached = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global) and path.stem != "cli":
                globals_.append(f"{path.stem}: global {', '.join(node.names)}")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    cached.append(f"{path.stem}.{node.name}")
    assert globals_ == []
    assert cached == ["cli.build_parser"]
