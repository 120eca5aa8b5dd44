"""The references stay apart from the kernels they check: a static guard
over ``tests/dense_reference.py`` and the test modules.

The guard parses each module and fails when it imports ``_eliminate``,
``det_bareiss``, ``char_poly_tails`` or ``adjugate_forms`` from
``chaindex.linalg``, or reads one of them as an attribute, as in
``linalg.det_bareiss``.  A reference that rode one of those kernels would
agree with it by construction, whatever the kernel did.  In the same way,
``dense_reference`` must not step the spectral pencil continuant that
its interpolated pencil checks: it reads none of ``char_poly``,
``sum_block_tails`` and ``_pencil`` from ``chaindex.spectral`` or as an
attribute.  Nor does it step ``TriDiagSym``'s continuant sweeps
(``leading_minors``, ``trailing_minors``, ``interior_det``, ``_sweep``),
which its ``continuant_minors`` checks, or read ``laplacian_rows``: its
dense ``laplacian`` is written out from the edge set, so a test comparing
the rows with it does not compare them with themselves.

The kernel tests (``test_linalg``, ``test_kernel_differential``,
``test_properties``) call the kernels to check them against references,
and ``test_graphs`` compares kernels on purpose, so they are exempt.  A
test module may read a kernel through ``oc``, the oracles module, to wrap
it with a call counter: the wrapper returns the kernel's own result to
the oracle and checks nothing with it.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "dense_reference.py"
KERNEL_TESTS = {"test_linalg.py", "test_kernel_differential.py", "test_properties.py", "test_graphs.py"}
KERNELS = {"_eliminate", "det_bareiss", "char_poly_tails", "adjugate_forms"}
PENCILS = {"char_poly", "sum_block_tails", "_pencil"}
SWEEPS = {"leading_minors", "trailing_minors", "interior_det", "_sweep"}
ROW_BUILDERS = {"laplacian_rows"}


def kernel_uses(tree: ast.AST, counted_through=(), module="chaindex.linalg",
                kernels=KERNELS) -> list[str]:
    """Line-tagged descriptions of every import from ``module`` or attribute
    read of one of ``kernels``, apart from attribute reads on a name in
    ``counted_through``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in kernels]
        elif isinstance(node, ast.Attribute) and node.attr in kernels and not (
                isinstance(node.value, ast.Name) and node.value.id in counted_through):
            found.append(f"line {node.lineno}: attribute {node.attr}")
    return found


def pencil_uses(tree: ast.AST) -> list[str]:
    return kernel_uses(tree, module="chaindex.spectral", kernels=PENCILS)


def test_references_use_no_kernel_they_check():
    tree = ast.parse(REFERENCE.read_text(), str(REFERENCE))
    assert kernel_uses(tree) == []
    assert pencil_uses(tree) == []
    assert kernel_uses(tree, module="chaindex.spectral", kernels=SWEEPS) == []
    assert kernel_uses(tree, kernels=ROW_BUILDERS) == []


@pytest.mark.parametrize("path", sorted(
    p for p in TESTS.glob("test_*.py") if p.name not in KERNEL_TESTS), ids=lambda p: p.name)
def test_tests_outside_the_kernel_tests_use_no_kernel(path):
    assert kernel_uses(ast.parse(path.read_text(), str(path)), counted_through={"oc"}) == []


@pytest.mark.parametrize("snippet", [
    "from chaindex.linalg import _eliminate",
    "from chaindex.linalg import laplacian, det_bareiss",
    "from chaindex.linalg import char_poly_tails as tails",
    "def f():\n    from chaindex.linalg import adjugate_forms",
    "from chaindex import linalg\nlinalg.det_bareiss([])",
    "import chaindex.linalg\nchaindex.linalg._eliminate",
])
def test_guard_rejects_each_kernel_use(snippet):
    assert kernel_uses(ast.parse(snippet))


def test_guard_accepts_the_helpers_the_references_share():
    snippet = "from chaindex.linalg import Envelope, SingularMatrixError, _int_rows"
    assert kernel_uses(ast.parse(snippet)) == []
    assert kernel_uses(ast.parse(snippet), kernels=ROW_BUILDERS) == []


def test_row_guard_rejects_a_laplacian_expanded_from_the_rows():
    snippet = ("from chaindex import linalg\n"
               "def laplacian(g, order):\n"
               "    return dense(linalg.laplacian_rows(g, order))")
    assert kernel_uses(ast.parse(snippet), kernels=ROW_BUILDERS) == ["line 3: attribute laplacian_rows"]


def test_guard_on_tests_rejects_a_minor_taken_with_a_kernel():
    snippet = ("from chaindex.linalg import det_bareiss, laplacian\n"
               "def minor(lap, keep):\n"
               "    return det_bareiss([[lap[i][j] for j in keep] for i in keep])\n"
               "from chaindex import linalg\nlinalg.adjugate_forms")
    assert len(kernel_uses(ast.parse(snippet), counted_through={"oc"})) == 2


def test_guard_on_tests_accepts_a_call_counter_on_the_oracles():
    snippet = ("inner = oc.det_bareiss\n"
               "def counting(matrix):\n"
               "    return inner(matrix)\n"
               "monkeypatch.setattr(oc, 'det_bareiss', counting)")
    assert kernel_uses(ast.parse(snippet), counted_through={"oc"}) == []
    assert kernel_uses(ast.parse(snippet)) == ["line 1: attribute det_bareiss"]


def test_pencil_guard_rejects_a_block_char_poly():
    snippet = ("from chaindex import spectral\n"
               "tail = spectral.mirror_blocks(1).lap_sum.char_poly()[:3]\n"
               "from chaindex.spectral import _pencil")
    assert sorted(pencil_uses(ast.parse(snippet))) == [
        "line 2: attribute char_poly", "line 3: import _pencil"]


def test_sweep_guard_rejects_minors_read_from_a_block():
    snippet = ("def fresh_interior_det(tridiag, i, j):\n"
               "    block = spectral.TriDiagSym(tridiag.diag[i:j - 1], tridiag.offdiag_sq[i:j - 2])\n"
               "    return block.leading_minors()[-1]")
    assert kernel_uses(ast.parse(snippet), module="chaindex.spectral", kernels=SWEEPS) == [
        "line 3: attribute leading_minors"]


def test_pencil_guard_accepts_the_interpolated_char_poly():
    snippet = ("def char_poly(matrix):\n"
               "    return pencil_char_poly(matrix, [1] * len(matrix))\n"
               "tail = char_poly([[2, -2], [-2, 2]])[:3]")
    assert pencil_uses(ast.parse(snippet)) == []
