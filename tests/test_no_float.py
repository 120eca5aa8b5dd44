"""Floating point stays out of the package: a static guard over its source.

Every module under ``src/chaindex`` is parsed, and the guard fails on a
float or complex literal, on a call to ``float``, ``round`` or
``complex``, and on any ``math`` import other than its exact integer
functions.  ``linalg`` is held to integers: it may not import
``fractions`` at all.  Timings read from ``time.perf_counter`` are
floats the guard cannot see and does not need to: they never enter a
computed value.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chaindex"
MODULES = sorted(SOURCE.glob("*.py"))
FLOAT_CALLS = {"float", "round", "complex"}
EXACT_MATH = {"lcm", "gcd", "prod", "comb", "isqrt"}


def float_uses(tree: ast.AST) -> list[str]:
    """Line-tagged descriptions of every construct the guard rejects."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in FLOAT_CALLS):
            found.append(f"line {node.lineno}: call to {node.func.id}")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"line {node.lineno}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{a.name}"
                      for a in node.names if a.name not in EXACT_MATH]
    return found


def test_every_module_is_found():
    assert {m.name for m in MODULES} >= {"linalg.py", "spectral.py", "verify.py"}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_has_no_floating_point(module):
    assert float_uses(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 2j",
    "x = 1e3",
    "y = float(3)",
    "y = round(x, 2)",
    "y = complex(1, 2)",
    "import math",
    "import os, math",
    "from math import sqrt",
    "from math import prod, log",
])
def test_guard_rejects_each_floating_point_construct(snippet):
    assert float_uses(ast.parse(snippet))


def test_guard_accepts_exact_math():
    assert float_uses(ast.parse("from math import lcm, gcd, prod, comb, isqrt")) == []


def fraction_imports(tree: ast.AST) -> list[str]:
    """Line-tagged descriptions of every import of the ``fractions`` module."""
    return [f"line {node.lineno}: import fractions" for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
            or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))]


def test_linalg_kernels_are_integer_only():
    module = SOURCE / "linalg.py"
    assert fraction_imports(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("snippet", [
    "from fractions import Fraction",
    "import fractions",
    "import os, fractions",
    "def f():\n    from fractions import Fraction",
])
def test_fraction_guard_rejects_each_import(snippet):
    assert fraction_imports(ast.parse(snippet))
