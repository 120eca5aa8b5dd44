"""The package's layers stay apart: a static guard over its imports.

The oracles are the ground truth the closed forms and the mirror-block
shortcut are checked against, so neither ``oracles`` nor the kernels in
``linalg`` may import ``spectral`` or ``formulas``; ``spectral`` may not
import ``oracles`` or ``formulas``, so the shortcut never rides the
routes it is compared with; and ``graphs``, which every layer builds on,
imports no other module of the package.  Each module under
``src/chaindex`` is parsed, and every import of a package module is
read, whether relative (``from .x import``, ``from . import x``) or
absolute (``import chaindex.x``, ``from chaindex import x``), at module
level or inside a function.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chaindex"
PACKAGE_MODULES = {m.stem for m in SOURCE.glob("*.py")} - {"__init__"}
FORBIDDEN = {
    "oracles": {"spectral", "formulas"},
    "linalg": {"spectral", "formulas"},
    "spectral": {"oracles", "formulas"},
    "graphs": PACKAGE_MODULES - {"graphs"},
}


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module's source imports, by their short names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("chaindex.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "chaindex" or (
                    node.module or "").startswith("chaindex."):
                module = (node.module or "").removeprefix("chaindex").lstrip(".")
                found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found & PACKAGE_MODULES


def test_every_guarded_module_is_found():
    assert FORBIDDEN.keys() <= PACKAGE_MODULES


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_module_imports_no_layer_above_it(module):
    path = SOURCE / f"{module}.py"
    assert package_imports(ast.parse(path.read_text(), str(path))) & FORBIDDEN[module] == set()


@pytest.mark.parametrize("snippet, imported", [
    ("from .spectral import mirror_blocks", {"spectral"}),
    ("from . import formulas, oracles", {"formulas", "oracles"}),
    ("import chaindex.formulas", {"formulas"}),
    ("from chaindex import spectral as sp", {"spectral"}),
    ("from chaindex.oracles import index_bundle", {"oracles"}),
    ("def f():\n    from .linalg import det_bareiss", {"linalg"}),
    ("from .graphs import Graph\nimport json\nfrom fractions import Fraction", {"graphs"}),
])
def test_guard_reads_every_form_of_import(snippet, imported):
    assert package_imports(ast.parse(snippet)) == imported
