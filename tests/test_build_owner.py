"""One module turns a scenario into a configuration.

Scenario.built (scenario.py) is the only place that picks a builtin's
builder or runs a script's moves; every other stage reads what it
built.  So in src/orbkit only scenario.py may name the script table or
a builder, and surgery.py, which defines the builders.  A name counts
when code reads, binds or imports it, or holds it as a string, as a
getattr by name would; docstrings and comments do not count.

Likewise one place names the stage that fails: report.built for the
build, and run_pipeline's stage loop for every later stage.  So those
are the only two places in src/orbkit that construct a PipelineError.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbkit"

BUILD_NAMES = {"SCRIPT_OPS", "build_block_Y", "build_block_W", "build_Z"}
OWNERS = {"scenario.py", "surgery.py"}


def _names(tree):
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.FunctionDef):
            yield node.name
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield node.value


def test_only_the_scenario_builds():
    named = {path.name: sorted(BUILD_NAMES & set(_names(ast.parse(
                 path.read_text(encoding="utf-8")))))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in named.items()
            if hits and name not in OWNERS} == {}
    # the owners do name them: the check reads the names they use
    assert named["scenario.py"] == sorted(BUILD_NAMES)


def _pipeline_errors(node, where=None):
    """The enclosing function of each PipelineError(...) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                getattr(func, "id", None))
            if name == "PipelineError":
                yield where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _pipeline_errors(child, inner)


def test_two_places_name_a_failed_stage():
    sites = [(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _pipeline_errors(ast.parse(
                 path.read_text(encoding="utf-8")))]
    assert sites == [("report.py", "built"), ("report.py", "run_pipeline")]
