"""Every top-level function and class of becsim has a reader.

Private helpers included: a leftover shim under an old private name is
as dead as an unused public one.  A reader is a reference, by name or as
an attribute, anywhere in src/becsim or perfbench/ outside the definition
itself.  Imports do not count, and neither do the tests: code that only
tests call is dead.  The definitions whose only reader is the benchmark's
tracer are pinned by name, so new tracer-only code fails, and so does a
name the tracer no longer keeps alive.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "becsim").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# read only by perfbench/tracing.py, which wraps them by name
TRACER_ONLY = {"lindblad.propagate", "lindblad.SectorPropagator",
               "registers.entangled_state_analytic",
               "registers.entanglement_entropy"}


def _referenced(node):
    """Identifiers and attribute names read anywhere under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _readers():
    """{"module.name": names of the files that read it} per definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in READERS}
    refs = [(path.name, node, _referenced(node))
            for path, tree in trees.items() for node in tree.body]
    return {"%s.%s" % (path.stem, own.name):
            {name for name, node, seen in refs
             if node is not own and own.name in seen}
            for path in PACKAGE for own in trees[path].body
            if isinstance(own, (ast.FunctionDef, ast.ClassDef))}


def _unreferenced(private):
    """Top-level definitions, public or private, that nothing reads."""
    return [name for name, files in _readers().items()
            if not files
            and name.split(".", 1)[1].startswith("_") == private]


def test_every_public_definition_is_referenced():
    unreferenced = _unreferenced(private=False)
    assert not unreferenced, unreferenced


def test_every_private_helper_is_referenced():
    unreferenced = _unreferenced(private=True)
    assert not unreferenced, unreferenced


def test_tracer_only_definitions_are_the_known_list():
    tracer_only = {name for name, files in _readers().items()
                   if files == {"tracing.py"}}
    assert tracer_only == TRACER_ONLY
