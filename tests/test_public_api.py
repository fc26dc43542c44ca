"""Every public name in the package has a caller in the package.

The package is what the command line and the chamber/Fock pipeline reach;
an operator that only tests call belongs with the tests (api_oracles.py).
The scan reads src/wallcross/*.py with ast and collects each public (not
underscore-prefixed) top-level function and class, and each public method
of a top-level class.  A function or class counts as used when some
ast.Name or ast.Attribute anywhere in the package spells it, outside the
definition's own body; a method only through an ast.Attribute, since a
bare Name of the same spelling (a parameter, say) cannot reach it.  Import
statements, __all__ strings and docstrings are not Name or Attribute
nodes, so they never count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wallcross"


def _public_definitions(trees):
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{mod}.{node.name}", node, (ast.Name, ast.Attribute)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{mod}.{node.name}.{sub.name}", sub, ast.Attribute


def _spellings(trees):
    """Each Name id / Attribute attr in the package, with the nodes spelling it."""
    out: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append(node)
    return out


def test_every_public_name_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert "cli" in trees, SRC
    spelled = _spellings(trees)
    unused = []
    for qualname, node, kinds in _public_definitions(trees):
        own = {id(n) for n in ast.walk(node)}
        refs = spelled.get(node.name, ())
        if not any(isinstance(ref, kinds) and id(ref) not in own for ref in refs):
            unused.append(qualname)
    assert not unused, f"public names with no caller in src/: {unused}"
