"""A library function used only by tests must be a check in its own right.

Every top-level function and method defined under src/orbkit must be
named somewhere else in src/ or perfbench/: called, imported or bound.
An operator method (__add__, __getitem__, ...) is not named where its
operator is used, and a `+` or a subscript does not say whose method it
calls, so each one orbkit defines is on ALLOWED with its operator site
as the reason.  A word of a string counts only in src/orbkit, where a
table such as OpRule.move or SCRIPT_OPS holds names looked up at run
time; docstrings do not count, and a string in perfbench/, such as the
workload name "spin_sweep", does not call the function it spells.
perfbench/tracer.py, which names every layer function in strings to
wrap it, does not count at all.  A name used nowhere else is test-only
code, and it must be on ALLOWED with the reason it stays, or on
TRACER_BOUND if the tracer is all that reaches it; otherwise delete it.

The same holds for an optional parameter of any function there: it
must be named in src/ or perfbench/ outside that function, as a call's
keyword, a name, or a word of a string in src/orbkit that is not a
docstring.  One that only tests set is a knob with one legal value in
the program, and it must be on ALLOWED_PARAMETERS with the reason it
stays.
"""

import ast
import importlib.util
import re
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# test-only names and operator methods that stay -> why
ALLOWED = {
    "IntMatrix.__matmul__": "the SNF's own check: U @ A @ V == D",
    "Mod2Class.__add__": "spin.spin_target's w2 + twist",
    "chern_class": "the oracle of scaled_chern_class",
}

# names that only the benchmark's tracer reaches -> why they stay
_TRACER_REASON = ("perfbench/tracer.py binds it; it goes with ROADMAP "
                  "item 5 once 6(c) lands")
TRACER_BOUND = dict.fromkeys(
    ["emit_scenario", "pi_star_kernel", "replay", "spin_sweep",
     "tietze_simplify", "w2_base_class"], _TRACER_REASON)

# test-only optional parameters that stay, as "function(parameter=)" -> why
ALLOWED_PARAMETERS = {}

# the methods an operator or a subscript calls; Python calls the other
# dunders itself, so they are not checked
_OPERATORS = ("__add__", "__sub__", "__mul__", "__matmul__", "__mod__",
              "__floordiv__", "__pow__", "__getitem__")


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _in_orbkit(path):
    """Is the module at path orbkit's own?  Only there are definitions
    checked and words of strings counted as uses."""
    return path.parent.name == "orbkit"


def _names_used(tree, strings):
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"\w+", node.value)


def _definitions(tree):
    """(qualified name, name) of each top-level function and method,
    leaving out the dunders no operator calls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = item.name if isinstance(item, ast.FunctionDef) else ""
                if name and (not name.startswith("__")
                             or name in _OPERATORS):
                    yield f"{node.name}.{name}", name


@cache
def _trees():
    """{path: syntax tree} of every module in src/ and perfbench/ but the
    tracer."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))
            if path != TRACER}


def test_every_test_only_function_is_allowed():
    trees = _trees()
    used = Counter(name for path, tree in trees.items()
                   for name in _names_used(tree, _in_orbkit(path)))
    unused = {qualified for path, tree in trees.items()
              if _in_orbkit(path)
              for qualified, name in _definitions(tree) if not used[name]}
    kept = set(ALLOWED) | set(TRACER_BOUND)
    assert sorted(unused - kept) == []  # delete, or allow with why
    assert sorted(kept - unused) == []  # now used: drop from the lists


def test_tracer_bound_names_are_layer_functions():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {name for names in tracer.LAYER_FUNCTIONS.values()
               for name in names}
    assert sorted(set(TRACER_BOUND) - wrapped) == []


def _parameter_uses(tree, docstrings, strings):
    """Each keyword, name and, with strings, word of a non-docstring
    string in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Name):
            yield node.id
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"\w+", node.value)


def _optional_parameters(tree, prefix=""):
    """(qualified name, function node, parameter) of each parameter with
    a default, of every function and method in tree, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                optional = positional[len(positional) - len(args.defaults):]
                optional += [arg for arg, default in zip(args.kwonlyargs,
                                                         args.kw_defaults)
                             if default]
                for arg in optional:
                    yield name, node, arg.arg
            yield from _optional_parameters(node, name + ".")
        else:
            yield from _optional_parameters(node, prefix)


def test_every_test_only_parameter_is_allowed():
    trees = _trees()
    docstrings = set().union(*map(_docstrings, trees.values()))
    used = Counter(name for path, tree in trees.items()
                   for name in _parameter_uses(tree, docstrings,
                                               _in_orbkit(path)))
    unused = {f"{function}({parameter}=)"
              for path, tree in trees.items() if _in_orbkit(path)
              for function, node, parameter in _optional_parameters(tree)
              if used[parameter] == Counter(
                  _parameter_uses(node, docstrings, True))[parameter]}
    # delete, or allow with why
    assert sorted(unused - set(ALLOWED_PARAMETERS)) == []
    # now used: drop from ALLOWED_PARAMETERS
    assert sorted(set(ALLOWED_PARAMETERS) - unused) == []
