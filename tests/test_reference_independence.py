"""The dense references stay apart from the kernels they check: a static
guard over ``tests/dense_reference.py``.

The guard parses the module and fails when it imports ``_eliminate``,
``det_bareiss``, ``char_poly_tail`` or ``adjugate_forms`` from
``chaindex.linalg``, or reads one of them as an attribute, as in
``linalg.det_bareiss``.  A reference that rode one of those kernels would
agree with it by construction, whatever the kernel did.
"""

import ast
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parent / "dense_reference.py"
KERNELS = {"_eliminate", "det_bareiss", "char_poly_tail", "adjugate_forms"}


def kernel_uses(tree: ast.AST) -> list[str]:
    """Line-tagged descriptions of every import or attribute read of a kernel."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "chaindex.linalg":
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in KERNELS]
        elif isinstance(node, ast.Attribute) and node.attr in KERNELS:
            found.append(f"line {node.lineno}: attribute {node.attr}")
    return found


def test_references_use_no_kernel_they_check():
    assert kernel_uses(ast.parse(REFERENCE.read_text(), str(REFERENCE))) == []


@pytest.mark.parametrize("snippet", [
    "from chaindex.linalg import _eliminate",
    "from chaindex.linalg import laplacian, det_bareiss",
    "from chaindex.linalg import char_poly_tail as tail",
    "def f():\n    from chaindex.linalg import adjugate_forms",
    "from chaindex import linalg\nlinalg.det_bareiss([])",
    "import chaindex.linalg\nchaindex.linalg._eliminate",
])
def test_guard_rejects_each_kernel_use(snippet):
    assert kernel_uses(ast.parse(snippet))


def test_guard_accepts_the_helpers_the_references_share():
    snippet = "from chaindex.linalg import Envelope, SingularMatrixError, _int_rows, laplacian"
    assert kernel_uses(ast.parse(snippet)) == []
