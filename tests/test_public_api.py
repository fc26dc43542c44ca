"""Every public name in the package has a caller in the package, and so
does every private top-level function and class.

The package is what the command line and the chamber/Fock pipeline reach;
an operator that only tests call belongs with the tests (api_oracles.py),
and a private helper that lost its last caller is dead code.  The scan
reads src/wallcross/*.py with ast and collects each top-level function and
class, and each public method of a top-level class.  The public scan takes
the names without a leading underscore, the private scan the others.  A
function or class counts as used when, outside the definition's own body,
some ast.Attribute anywhere in the package spells it, or some scope reads a
name of that spelling that resolves to a module global.  symtable decides
the resolution, so a parameter or a local of the same spelling does not
count.  A method counts only through an ast.Attribute, since a bare name
cannot reach it.  Import statements, __all__ strings and docstrings are
neither, so they never count.

The same scan also reads the imports: every name that an import statement
binds in a module must be read in that module, as an ast.Name load anywhere
in it, annotations included.  A stale import is dead code too.
"""

import ast
import symtable
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wallcross"


def _definitions(trees, private=False):
    """(module, qualified name, node, by_name) for the public definitions, or
    with private=True for the underscore-prefixed top-level ones."""
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") == private:
                yield mod, f"{mod}.{node.name}", node, True
            if isinstance(node, ast.ClassDef) and not private:
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield mod, f"{mod}.{node.name}.{sub.name}", sub, False


def _attributes(trees):
    """Each Attribute attr in the package, with the nodes spelling it."""
    out: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append(node)
    return out


def _global_reads(table, path=()):
    """(scope ids from the module down, names the scope reads as module globals),
    for table and every scope below it."""
    path += (table.get_id(),)
    yield path, {s.get_name() for s in table.get_symbols()
                 if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        yield from _global_reads(child, path)


def _uncalled(private):
    texts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert "cli" in texts, SRC
    trees = {mod: ast.parse(text) for mod, text in texts.items()}
    tables = {mod: symtable.symtable(text, f"{mod}.py", "exec") for mod, text in texts.items()}
    reads = [(mod, path, names) for mod, table in tables.items()
             for path, names in _global_reads(table)]
    attributes = _attributes(trees)
    unused = []
    for mod, qualname, node, by_name in _definitions(trees, private):
        own = {id(n) for n in ast.walk(node)}
        if any(id(ref) not in own for ref in attributes.get(node.name, ())):
            continue
        if by_name:
            scope, = (t.get_id() for t in tables[mod].get_children()
                      if (t.get_name(), t.get_lineno()) == (node.name, node.lineno))
            if any(node.name in names and not (m == mod and scope in path)
                   for m, path, names in reads):
                continue
        unused.append(qualname)
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    unused = _uncalled(private=False)
    assert not unused, f"public names with no caller in src/: {unused}"


def test_every_private_top_level_name_has_a_caller_in_the_package():
    unused = _uncalled(private=True)
    assert not unused, f"private functions or classes with no caller in src/: {unused}"


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loads:
                    unread.append(f"{path.stem}: {name}")
    assert not unread, f"imported names never read in their module: {unread}"
