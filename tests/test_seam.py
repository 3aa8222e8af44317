"""Only linalg knows how a Matrix is stored.

Parses the modules above linalg and fails on any read of the storage
attribute ``_a`` and on any call of the raw ``Matrix(mode, rows, cols,
data)`` constructor; those modules build matrices through the public
constructors (``Matrix.exact``, ``Matrix.flt``, ``Matrix.column``, ...).
"""

import ast
from pathlib import Path

import pytest

import abelmod

MODULES = ("adhm", "moduli", "dalgebra", "checks", "cli", "torus")


def _violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_a":
            out.append(f"line {node.lineno}: ._a")
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "Matrix":
                out.append(f"line {node.lineno}: raw Matrix(...) constructor")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_storage_access_outside_linalg(module):
    path = Path(abelmod.__file__).with_name(f"{module}.py")
    assert _violations(path.read_text()) == []


def test_guard_sees_both_patterns():
    src = "M._a\nMatrix(EXACT, 1, 1, [[x]])\nlinalg.Matrix(FLOAT, 1, 1, a)\nMatrix.flt(a)\n"
    assert len(_violations(src)) == 3
