"""The traced benchmark run wraps abelmod functions by name.

``bench/tracing.py`` lists them in ``FUNCTIONS`` (module, names, layer)
and ``METHODS`` (class, method, layer) and replaces each at install time.
A rename or deletion in the program would only show when that run fails,
so this reads the lists (the file is executed, not imported, so nothing
is written beside it) and checks that every name still exists.
"""

import runpy
from pathlib import Path

from abelmod import adhm, linalg

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


def test_exact_support_calls_the_traced_spectral_names(monkeypatch):
    """The traced run's linalg.char_poly and linalg.exact_roots rows count
    calls made through those module names; an exact support that split
    its members some other way would leave the rows at zero."""
    calls = dict.fromkeys(("char_poly", "exact_roots"), 0)
    for name in calls:

        def counting(*args, _fn=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(linalg, name, counting)
    # the first member alone does not separate the two points, so the
    # support is found at t = 1, after one split of L at each t
    B = [linalg.Matrix.exact([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), linalg.Matrix.exact([[2, 0, 0], [0, 2, 0], [0, 0, "1/2"]])]
    support = adhm.spectrum_support(adhm.CommutingTuple(B))
    q = linalg.Scalar.exact
    assert support == [((q(1), q("1/2")), 1), ((q(1), q(2)), 2)]
    assert calls == {"char_poly": 2, "exact_roots": 2}
