"""The traced benchmark run wraps abelmod functions by name.

``bench/tracing.py`` lists them in ``FUNCTIONS`` (module, names, layer)
and ``METHODS`` (class, method, layer) and replaces each at install time.
A rename or deletion in the program would only show when that run fails,
so this reads the lists (the file is executed, not imported, so nothing
is written beside it) and checks that every name still exists.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

from abelmod import adhm, cli, linalg

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


def _count_calls(monkeypatch, *functions):
    """Replace each function, given as (module, name), in its module and in
    every abelmod module that imported it (as the traced run does) by a
    wrapper counting its calls; returns the counts by name."""
    calls = {name: 0 for _, name in functions}
    for module, name in functions:
        fn = getattr(module, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if (key == "abelmod" or key.startswith("abelmod.")) and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_exact_support_calls_the_traced_spectral_names(monkeypatch):
    """The traced run's linalg.char_poly and linalg.exact_roots rows count
    calls made through those module names; an exact support that split
    its members some other way would leave the rows at zero."""
    calls = _count_calls(monkeypatch, (linalg, "char_poly"), (linalg, "exact_roots"))
    # the first member alone does not separate the two points, so the
    # support is found at t = 1, after one split of L at each t
    B = [linalg.Matrix.exact([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), linalg.Matrix.exact([[2, 0, 0], [0, 2, 0], [0, 0, "1/2"]])]
    support = adhm.spectrum_support(adhm.CommutingTuple(B))
    q = linalg.Scalar.exact
    assert support == [((q(1), q("1/2")), 1), ((q(1), q(2)), 2)]
    assert calls == {"char_poly": 2, "exact_roots": 2}


@pytest.mark.parametrize("mode", [[], ["--mode", "float"]], ids=["exact", "float"])
def test_spectrum_command_reads_one_primary_decomposition(monkeypatch, tmp_path, mode):
    """abelmod spectrum writes the joint spectrum and the support from one
    primary decomposition, with no triangularization."""
    calls = _count_calls(monkeypatch, (linalg, "primary_decomposition"), (adhm, "triangularize"))
    doc = tmp_path / "in.json"
    B = [linalg.Matrix.exact([[1, 1, 0], [0, 1, 0], [0, 0, 2]]), linalg.Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, "1/2"]])]
    T = adhm.CommutingTuple(B)
    doc.write_text(json.dumps(T.to_json()))
    assert cli.main(["spectrum", "--in", str(doc), "--out", str(tmp_path / "out.json"), *mode]) == 0
    assert calls == {"primary_decomposition": 1, "triangularize": 0}


@pytest.mark.parametrize("mode", [[], ["--mode", "float"]], ids=["exact", "float"])
def test_rees_without_flag_reads_one_primary_decomposition(monkeypatch, tmp_path, mode):
    """abelmod rees without "g" triangularizes along the joint spectrum of
    one primary decomposition; no step solves an eigenproblem of its own."""
    calls = _count_calls(monkeypatch, (linalg, "primary_decomposition"))
    q = linalg.Scalar.exact
    B0 = [[2, 1, 0], [-1, 0, 0], [1, 3, 3]]
    B1 = [[q("1/2", 1), q("1/2"), q(0)], [q("-1/2"), q("-1/2", 1), q(0)], [q("1/2"), q("3/2", -2), q(1, -1)]]
    T = adhm.CommutingTuple([linalg.Matrix.exact(B0), linalg.Matrix.exact(B1)])
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps(T.to_json()))
    argv = ["rees", "--weights", "1,0,0", "--in", str(doc), "--out", str(tmp_path / "out.json"), *mode]
    assert cli.main(argv) == 0
    assert calls == {"primary_decomposition": 1}
