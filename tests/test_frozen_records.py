"""Configurations are values: nothing in src/orbkit edits one in place.

SurfaceData, SingularPointData, IntersectionEvent and OrbifoldConfig
are frozen records, and a surgery move builds its result with
record.replace, sharing the records it leaves alone.  So no module
under src/orbkit imports copy, and none assigns to (or deletes) a field
of those four records, by an assignment to an attribute of that name,
or by setattr or object.__setattr__ with that name, outside the record's
own __post_init__, which normalises the fields it is given.  A field
counts by its name alone, since the AST does not say whose attribute an
assignment sets.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbkit"

CONFIG_RECORDS = ("SurfaceData", "SingularPointData", "IntersectionEvent",
                  "OrbifoldConfig")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _fields(trees):
    """The field names of the four records, read off model.py."""
    return {node.target.id
            for cls in trees["model.py"].body
            if isinstance(cls, ast.ClassDef) and cls.name in CONFIG_RECORDS
            for node in cls.body if isinstance(node, ast.AnnAssign)}


def _stores(node, where=()):
    """(enclosing class and function names, attribute name) of each
    assignment or deletion of an attribute under node, and of each
    setattr or object.__setattr__ call that names its attribute."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = (*where, child.name)
        if (isinstance(child, ast.Attribute)
                and isinstance(child.ctx, (ast.Store, ast.Del))):
            yield where, child.attr
        elif (isinstance(child, ast.Call)
              and ast.unparse(child.func) in ("setattr",
                                              "object.__setattr__")
              and len(child.args) > 1
              and isinstance(child.args[1], ast.Constant)):
            yield where, child.args[1].value
        yield from _stores(child, inner)


def _imports(tree):
    """The module each import statement in tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_module_imports_copy():
    assert [name for name, tree in _trees().items()
            if "copy" in _imports(tree)] == []
    # the check reads the imports it should: the records come from model
    assert "model" in _imports(_trees()["surgery.py"])


def test_no_module_assigns_a_field_of_a_configuration():
    trees = _trees()
    fields = _fields(trees)
    assert {"surfaces", "incident", "self_intersection", "location"} <= fields
    stores = [(name, where, attr) for name, tree in trees.items()
              for where, attr in _stores(tree) if attr in fields]
    # the one place each: a record's __post_init__ normalises its fields
    assert {(name, where) for name, where, _ in stores} == {
        ("model.py", ("SurfaceData", "__post_init__")),
        ("model.py", ("SingularPointData", "__post_init__"))}
