"""Only linalg knows how a Matrix is stored, and no module reaches into
another's private names.

Parses the modules above linalg and fails on any read of the storage
attribute ``_a`` and on any call of the raw ``Matrix(mode, rows, cols,
data)`` constructor; those modules build matrices through the public
constructors (``Matrix.exact``, ``Matrix.flt``, ``Matrix.column``, ...).
Parses every module of the package and fails on any import of an
underscore name from a sibling module, and on any call of a numpy
eigenvalue solver outside ``linalg._eigen_groups``: in float mode that
function alone decides which computed eigenvalues are one point.  In
``linalg``, numpy's norm is called only by ``_frobenius``, which rescales
where the plain sum of squares leaves the double range, and by
``_eigen_groups``; the battery's residuals in ``checks`` are its own.
Fails on any domain error class of ``errors`` that no module raises, so
an error code with no raise site shows.  Lists the functions outside
``linalg`` and ``checks`` that compare with ``EXACT`` or ``FLOAT`` and
fails when that list changes: the exact/float split lives in ``linalg``.
"""

import ast
from pathlib import Path

import pytest

import abelmod
from abelmod import errors

MODULES = ("adhm", "moduli", "dalgebra", "checks", "cli", "torus")


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_a":
            out.append(f"line {node.lineno}: ._a")
        if isinstance(node, ast.Call) and _name(node.func) == "Matrix":
            out.append(f"line {node.lineno}: raw Matrix(...) constructor")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_storage_access_outside_linalg(module):
    path = Path(abelmod.__file__).with_name(f"{module}.py")
    assert _violations(path.read_text()) == []


def test_guard_sees_both_patterns():
    src = "M._a\nMatrix(EXACT, 1, 1, [[x]])\nlinalg.Matrix(FLOAT, 1, 1, a)\nMatrix.flt(a)\n"
    assert len(_violations(src)) == 3


def _private_imports(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "abelmod"):
            out += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return out


@pytest.mark.parametrize("path", sorted(Path(abelmod.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_imports_between_modules(path):
    assert _private_imports(path.read_text()) == []


def test_guard_sees_private_imports():
    src = (
        "from __future__ import annotations\n"
        "from .adhm import _exp_scalar, expm1_matrix\n"
        "from abelmod.linalg import _EPS\n"
        "from . import _helpers\n"
        "from .linalg import Matrix\n"
    )
    assert len(_private_imports(src)) == 3


_EIGEN_SOLVERS = {"eig", "eigvals", "eigh", "eigvalsh"}


def _call_sites(source: str, hit) -> list[str | None]:
    """The innermost enclosing function (None at module level) of each call
    whose callee expression satisfies hit."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and hit(child.func):
                out.append(fn)
            visit(child, fn)

    visit(ast.parse(source), None)
    return out


def _eigen_solver_sites(source: str) -> list[str | None]:
    """The enclosing function of each call of a numpy eigenvalue solver,
    however it was imported."""
    return _call_sites(source, lambda f: _name(f) in _EIGEN_SOLVERS)


def _numpy_norm_sites(source: str) -> list[str | None]:
    """The enclosing function of each call of numpy's norm, as
    ``np.linalg.norm``, ``linalg.norm`` or a name imported from
    ``numpy.linalg``; ``M.norm()`` is no such call."""
    imported = {
        a.asname or a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
        for a in node.names
        if a.name == "norm"
    }
    return _call_sites(
        source,
        lambda f: (isinstance(f, ast.Name) and f.id in imported)
        or (isinstance(f, ast.Attribute) and f.attr == "norm" and _name(f.value) == "linalg"),
    )


def test_one_eigenvalue_solver_site():
    paths = sorted(Path(abelmod.__file__).parent.glob("*.py"))
    sites = [(p.stem, fn) for p in paths for fn in _eigen_solver_sites(p.read_text())]
    assert sites == [("linalg", "_eigen_groups")]


def test_guard_sees_eigen_solvers():
    src = (
        "from numpy.linalg import eigh\n"
        "def f(a):\n"
        "    return np.linalg.eig(a)\n"
        "w = numpy.linalg.eigvals(b)\n"
        "def g(a):\n"
        "    def h():\n"
        "        return eigh(a)\n"
        "    return np.linalg.svd(a), np.linalg.eigvalsh(a)\n"
    )
    assert _eigen_solver_sites(src) == ["f", None, "h", "g"]


def test_numpy_norm_only_in_frobenius_and_eigen_groups():
    path = Path(abelmod.__file__).with_name("linalg.py")
    assert set(_numpy_norm_sites(path.read_text())) <= {"_frobenius", "_eigen_groups"}


def test_guard_sees_numpy_norms():
    src = (
        "from numpy.linalg import norm as nrm\n"
        "def f(a):\n"
        "    return np.linalg.norm(a), a.norm()\n"
        "class S:\n"
        "    def add(self, r):\n"
        "        return nrm(r) + linalg.norm(r) + self.norm()\n"
        "x = numpy.linalg.norm(b, axis=1)\n"
    )
    assert _numpy_norm_sites(src) == ["f", "add", "add", None]


def _raised_names(source: str) -> set[str]:
    """The names of the exceptions raised, as ``raise X``, ``raise X(...)``
    or ``raise module.X(...)``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def test_every_domain_error_is_raised():
    paths = Path(abelmod.__file__).parent.glob("*.py")
    raised = set().union(*(_raised_names(p.read_text()) for p in paths))
    domain = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.AbelmodError) and cls is not errors.AbelmodError
    }
    assert sorted(domain - raised) == []


def test_guard_sees_raises():
    src = "raise A('x')\nraise B\nraise errors.C(1) from None\nraise\nx = D('y')\n"
    assert _raised_names(src) == {"A", "B", "C"}


_MODES = {"EXACT", "FLOAT"}


def _mode_branches(source: str) -> list[str]:
    """The qualified name (Class.method, function, or <module>) of each
    scope holding a comparison with EXACT or FLOAT, once each, in order."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Compare) and scope not in out:
                if {_name(x) for x in ast.walk(child)} & _MODES:
                    out.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return out


def test_mode_branches_stay_in_linalg():
    paths = sorted(p for p in Path(abelmod.__file__).parent.glob("*.py") if p.stem not in ("linalg", "checks"))
    sites = sorted(f"{p.stem}.{scope}" for p in paths for scope in _mode_branches(p.read_text()))
    assert sites == [
        "cli._in_mode",
        "cli._parse_scalar",
        "moduli._one_mode",
    ]


def test_guard_sees_mode_branches():
    src = (
        "x = mode == EXACT\n"
        "def f(a):\n"
        "    return a.mode != linalg.FLOAT or a.mode == EXACT\n"
        "class C:\n"
        "    def g(self, m):\n"
        "        return m in (EXACT, FLOAT)\n"
        "    def h(self, m):\n"
        "        return Scalar.of(EXACT, m), m == self.mode\n"
    )
    assert _mode_branches(src) == ["<module>", "f", "C.g"]
