"""Every function, method and class in src/qsl2 is named by some code.

Code that nothing calls still has to be read, kept in step and tested, so
this fails on any definition whose name appears nowhere in src/qsl2 or
perfbench/: not as a name, an attribute or an import, nor as part of a
dotted string such as the tracer's ``"NamedAlgebra.delta_word"`` targets.
A definition's own ``def`` or ``class`` line does not name it.  Dunder
methods are exempt, since Python calls them.  When a definition loses its
last caller, delete it; an entry below stays only while its reason holds,
and the test fails on an entry whose definition has gained a caller.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsl2"
READERS = [PACKAGE, ROOT / "perfbench"]

# qualified name -> why it stays with no caller in the package or perfbench
ALLOWED = {
    "CycRat.from_coeffs": "tests build field elements from coefficients",
    "Presentation.scalar": "tests build scalars of a presentation's field",
    "NCPoly.coefficient": "tests read one coefficient of a polynomial",
    "presentation_from_json": "the inverse of Presentation.to_json, for a "
                              "checker that reads saved presentations",
    "_Parser.error": "argparse calls it on a usage error",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def definitions(tree):
    """(qualified name, name) of every def and class, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def names_used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                used.update(alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            used.update(node.value.split("."))
    return used


def trees(directory):
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.glob("*.py"))]


def unnamed_definitions():
    used = set().union(*(names_used(t) for d in READERS for t in trees(d)))
    return {qualname for tree in trees(PACKAGE)
            for qualname, name in definitions(tree)
            if name not in used
            and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_named_or_allowed():
    assert unnamed_definitions() == set(ALLOWED)


def test_the_guard_sees_a_definition_with_no_caller():
    tree = ast.parse("class K:\n    def lonely(self):\n        pass\n"
                     "    def __repr__(self):\n        return 'K.called'\n"
                     "def called():\n    return K\n")
    used = names_used(tree)
    assert {q for q, n in definitions(tree) if n not in used} == {
        "K.lonely", "K.__repr__"}
    assert "called" in used
