"""The traced benchmark run wraps abelmod functions by name.

``bench/tracing.py`` lists them in ``FUNCTIONS`` (module, names, layer)
and ``METHODS`` (class, method, layer) and replaces each at install time.
A rename or deletion in the program would only show when that run fails,
so this reads the lists (the file is executed, not imported, so nothing
is written beside it) and checks that every name still exists.
"""

import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_exist():
    lists = runpy.run_path(str(TRACING))
    missing = [
        f"{module.__name__}.{name}"
        for module, names, _ in lists["FUNCTIONS"]
        for name in names
        if not callable(getattr(module, name, None))
    ]
    missing += [f"{cls.__name__}.{method}" for cls, method, _ in lists["METHODS"] if method not in cls.__dict__]
    assert not missing, f"traced names no longer in the program: {missing}"
    assert all(names for _, names, _ in lists["FUNCTIONS"])
