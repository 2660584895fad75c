"""The package holds what its commands run: every public function, class and
method in `src/wgelfand` is referenced somewhere in the package outside its
own definition. Reference code that only the tests call lives in
`tests/oracles.py`."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wgelfand"
# argparse calls it; no module names it
EXEMPT = {"cli._Parser.error"}


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
