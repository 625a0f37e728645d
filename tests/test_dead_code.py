"""Every top-level function and class of becsim has a reader.

Private helpers included: a leftover shim under an old private name is
as dead as an unused public one.  A reader is a reference, by name or as
an attribute, anywhere in src/becsim or perfbench/ outside the definition
itself.  Imports do not count, and neither do the tests: code that only
tests call is dead.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "becsim").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _referenced(node):
    """Identifiers and attribute names read anywhere under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreferenced(private):
    """Top-level definitions, public or private, that nothing reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in READERS}
    defined = {(path, node.name): node
               for path in PACKAGE for node in trees[path].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") == private}
    unreferenced = []
    for (path, name), own in defined.items():
        if not any(name in _referenced(node)
                   for tree in trees.values() for node in tree.body
                   if node is not own):
            unreferenced.append("%s.%s" % (path.stem, name))
    return unreferenced


def test_every_public_definition_is_referenced():
    unreferenced = _unreferenced(private=False)
    assert not unreferenced, unreferenced


def test_every_private_helper_is_referenced():
    unreferenced = _unreferenced(private=True)
    assert not unreferenced, unreferenced
