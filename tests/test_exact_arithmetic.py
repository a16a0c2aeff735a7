"""orbkit computes with ints and Fractions only: never a float.

Walks the syntax tree of every module of the package and refuses a
float literal, any use of the name ``float``, true division (``/`` and
``/=``), and any name of ``math`` but a few exact integer functions.
Fractions divide by their constructor, ``Fraction(a, b)``, so ``/`` is
never needed.
"""

import ast
from pathlib import Path

import pytest

import orbkit

MODULES = sorted(Path(orbkit.__file__).parent.glob("*.py"))
# the functions of math that take and return ints
MATH_ALLOWED = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _offences(tree):
    """(line, what) for each inexact construct in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            yield node.lineno, f"inexact literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            yield node.lineno, "true division"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in MATH_ALLOWED:
                    yield node.lineno, f"math.{alias.name}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_ALLOWED):
            yield node.lineno, f"math.{node.attr}"


def test_every_module_is_walked():
    names = {path.stem for path in MODULES}
    assert {"exact", "seifert", "spin", "model", "fpgroup"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(_offences(tree)) == []


@pytest.mark.parametrize("source, what", [
    ("x = 0.5", "inexact literal 0.5"),
    ("x = 1j", "inexact literal 1j"),
    ("x = float(y)", "the name float"),
    ("x = a / b", "true division"),
    ("x /= 2", "true division"),
    ("from math import sqrt", "math.sqrt"),
    ("import math\nx = math.log(2)", "math.log"),
])
def test_guard_catches(source, what):
    assert [w for _, w in _offences(ast.parse(source))] == [what]


def test_guard_passes_exact_code():
    source = ("from math import gcd, lcm\nimport math\n"
              "x = math.isqrt(n) // 2 + gcd(a, b) % lcm(a, b)\n"
              "y = Fraction(1, 3)\n")
    assert list(_offences(ast.parse(source))) == []
