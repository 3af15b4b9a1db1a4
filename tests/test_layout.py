"""Every function, class and method in the package has a reader.

A definition counts as read when some name or attribute in the package, the
tests or the benchmark harness spells it; dunder methods are called by the
language and are left out.  The check is by name only, so a method that
shares its name with another one that is called passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meridian"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions():
    """(label, name, is_method) of each top-level function and class of the
    package and each method of its classes."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not item.name.startswith("__"):
                        yield (f"{path.stem}.{node.name}.{item.name}",
                               item.name, True)


def _references():
    """Names and attribute names spelled anywhere in src, tests, perfbench."""
    names, attributes = set(), set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_definition_is_referenced():
    names, attributes = _references()
    unread = [label for label, name, is_method in _definitions()
              if name not in attributes
              and (is_method or name not in names)]
    assert unread == []
