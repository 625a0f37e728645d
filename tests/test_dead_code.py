"""Every function, class, method, property and module-level UPPER_CASE
constant of becsim has a reader.

Private helpers included: a leftover shim under an old private name is
as dead as an unused public one.  A reader is a reference, by name or as
an attribute, anywhere in src/becsim or perfbench/ outside the definition
itself; perfbench/tracing.py also reads the methods it wraps by their
names as strings.  Imports do not count, and neither do the tests: code
that only tests call is dead.  Dunders, and methods that override a base
class's (such as an argparse hook), are called by their base class and
are not checked.  The definitions whose only reader is the benchmark's
tracer are pinned by name, so new tracer-only code fails, and so does a
name the tracer no longer keeps alive.
"""

import ast
import collections
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "becsim").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# read only by perfbench/tracing.py, which wraps them by name
TRACER_ONLY = {"lindblad.propagate", "lindblad.SectorPropagator",
               "lindblad.SectorPropagator.evolve_block",
               "lindblad.SectorPropagator.observable_blocks",
               "registers.entangled_state_analytic",
               "registers.entanglement_entropy"}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _referenced(node, strings=False):
    """Identifiers and attribute names read under node, with their counts;
    with strings=True, string constants too."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name)
        else n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        or (strings and isinstance(n, ast.Constant)
            and isinstance(n.value, str)))


def _overrides(module, cls, name):
    """Whether a base class of module.cls defines name."""
    bases = getattr(importlib.import_module("becsim." + module),
                    cls).__mro__[1:]
    return any(name in vars(base) for base in bases)


def _constant(node):
    """The name a top-level UPPER_CASE assignment binds, else None."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name) \
            and targets[0].id.isupper():
        return targets[0].id
    return None


def _definitions(path, tree):
    """("module.name", node) for each top-level definition or
    UPPER_CASE constant and each method or property in a class body,
    dunders and overrides left out."""
    for own in tree.body:
        name = own.name if isinstance(own, DEFINITIONS) else _constant(own)
        if name is None:
            continue
        yield "%s.%s" % (path.stem, name), own
        if isinstance(own, ast.ClassDef):
            for item in own.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")
                        and not _overrides(path.stem, own.name, item.name)):
                    yield "%s.%s.%s" % (path.stem, own.name, item.name), item


def _readers():
    """{"module.name": names of the files that read it} per definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in READERS}
    seen = {path: _referenced(tree, strings=path.name == "tracing.py")
            for path, tree in trees.items()}
    readers = {}
    for path in PACKAGE:
        for qualname, own in _definitions(path, trees[path]):
            name = qualname.rsplit(".", 1)[1]
            # names inside the node (a recursive call, a constant's own
            # target) are not readers
            inside = _referenced(own)[name]
            readers[qualname] = {other.name for other, counts in seen.items()
                                 if counts[name] > (inside if other == path
                                                    else 0)}
    return readers


def _unreferenced(private):
    """Definitions, public or private, that nothing reads."""
    return [name for name, files in _readers().items()
            if not files
            and name.rsplit(".", 1)[1].startswith("_") == private]


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
