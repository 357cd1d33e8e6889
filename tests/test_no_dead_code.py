"""Guard against dead helpers in the package.

Every module-level function and class, and every method, defined in
``src/autrealize/*.py`` (``__init__.py`` aside) must be referenced
somewhere in those modules outside its own body: as a name, as an
attribute, or as an imported name.  Names are matched by their bare
identifier, so ``K.zero()`` counts as a use of every method called
``zero``.  This test therefore cannot see a dead method that shares its
name with a used method or attribute of another class (an unused
``Permutation.order`` beside the used ``PermGroup.order``); such methods
need a reader's eye.  Dunder methods are exempt.  Definitions that only
tests reach on purpose are listed in ``ALLOWED`` with the reason they
stay.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "autrealize"

#: qualified name -> why it stays although no package code uses it
ALLOWED = {
    "roots_in_field": (
        "the linear factors of factor_over_nf(f, K); it remains the root "
        "finder that tests/reference.automorphisms builds on, and "
        "perfbench/spans.py traces it by name"
    ),
    "are_isomorphic": (
        "public API that tests use to compare tables of groups; the pipeline "
        "lists Aut(E) in G's order instead, and perfbench/spans.py traces it "
        "by name"
    ),
    "interpolate": (
        "tests/reference.py builds q(T, X) and the family's X-discriminant "
        "with it; certify_s3 checks the discriminant at six points instead, "
        "and perfbench/spans.py traces it by name"
    ),
    "BiPoly.deg_X": (
        "tests/reference.py reads the X-degree of a bivariate polynomial, "
        "and perfbench/spans.py sizes family.bad_set's argument with it"
    ),
}


def _definitions(tree):
    """(qualified name, node) for module-level functions and classes and
    for the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(identifier, node) for every name, attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node
            if node.asname:
                yield node.asname, node


def unreferenced():
    """Qualified names of the definitions no package code refers to."""
    trees = [
        ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    refs = {}
    for tree in trees:
        for name, node in _references(tree):
            refs.setdefault(name, set()).add(id(node))
    out = []
    for tree in trees:
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not refs.get(name, set()) - inside:
                out.append(qualname)
    return sorted(out)


def test_no_unreferenced_definitions():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert dead == [], f"defined but never used in the package: {dead}"


def test_allowlist_is_current():
    # an entry that package code now uses, or that no longer exists, goes
    assert set(ALLOWED) <= set(unreferenced())
