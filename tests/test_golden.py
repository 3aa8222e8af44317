"""Golden outputs of every CLI subcommand on small fixed inputs.

The expected documents below were captured from the code as it stood
before the exact/float decisions were gathered into ``linalg``; they pin
the command-line behaviour across refactors.  Exact-mode cases must
match byte for byte.  Float-mode cases must have the same keys, the same
strings, integers and booleans (staircases, multiplicities, labels), and
every float within 1e-12 relative to max(1, |a|, |b|).
"""

import json
from fractions import Fraction

import pytest

from abelmod.cli import main


def _s(x):
    """Exact JSON scalar from an int, a 'p/q' string or an (re, im) pair."""
    re, im = x if isinstance(x, tuple) else (x, 0)
    return {"re": str(Fraction(re)), "im": str(Fraction(im))}


def _m(rows):
    return [[_s(x) for x in row] for row in rows]


def _fl(doc):
    """The same document with every exact scalar written as floats."""
    if isinstance(doc, list):
        return [_fl(x) for x in doc]
    if isinstance(doc, dict):
        if set(doc) == {"re", "im"} and isinstance(doc["re"], str):
            return {"re": float(Fraction(doc["re"])), "im": float(Fraction(doc["im"]))}
        return {k: ("float" if k == "mode" else _fl(v)) for k, v in doc.items()}
    return doc


SHIFT = _m([[0, 1], [0, 0]])

PAIR = {
    "m": 2,
    "n": 2,
    "mode": "exact",
    "B": [SHIFT, _m([["1/2", 0], [0, "1/2"]])],
    "v": [_s(0), _s(1)],
}

UNSTABLE = {"m": 1, "n": 2, "mode": "exact", "B": [_m([[1, 0], [0, 2]])], "v": [_s(1), _s(0)]}

# g^-1 B g for a lower shear g, with B a Jordan block at 1 plus the point
# 3 and a Gaussian-rational polynomial partner; "g" is the invariant flag
DENSE3 = {
    "m": 2,
    "n": 3,
    "mode": "exact",
    "B": [
        _m([[2, 1, 0], [-1, 0, 0], [1, 3, 3]]),
        _m([[("1/2", 1), "1/2", 0], ["-1/2", ("-1/2", 1), 0], ["1/2", ("3/2", -2), (1, -1)]]),
    ],
    "v": [_s(0), _s(1), _s(0)],
}
DENSE3_FLAG = dict(DENSE3, g=_m([[1, 0, 0], [-1, 1, 0], [1, -1, 1]]))
PAIR_FLAG = dict(PAIR, g=_m([[1, 0], [0, 1]]))


def _triple(d, v, alpha, beta, gamma):
    return {"d": d, "v": v, "mode": "exact", "alpha": _m(alpha), "beta": _m(beta), "gamma": _m(gamma)}


Z2 = [[0, 0], [0, 0]]
I2 = [[1, 0], [0, 1]]
TRIPLES = [
    _triple(2, 2, I2, Z2, Z2),
    _triple(2, 2, [[("1/2", 1), 0], [0, ("1/2", 1)]], Z2, Z2),
    _triple(2, 2, Z2, Z2, Z2),
    _triple(2, 1, [[1], [2]], [[0], [0]], [[0]]),
    _triple(2, 2, I2, [[0, 1], [1, 0]], [[0, 1], [-1, 0]]),
    _triple(2, 2, [[1, 2], [0, 1]], [[0, 0], [1, 0]], [[0, "1/3"], ["-1/3", 0]]),
]

SQUARE_MODEL = {
    "d": 1,
    "period": [[[1.0, 0.0], [0.0, 1.0]]],
    "tolerances": {"eps_rank": 1e-9, "eps_eq": 1e-9, "eps_lattice": 1e-7},
}


def _piece(coords, N, v):
    return {"point": {"coords": [_s(c) for c in coords]}, "punctual": {"mode": "exact", "N": N, "v": v}}


BETTI_H = {
    "space": {"kind": "betti", "d": 1},
    "pieces": [
        _piece([2, (0, 1)], [SHIFT, _m([[0, "1/2"], [0, 0]])], [_s(0), _s(1)]),
        _piece(["1/2", -3], [_m([[0]]), _m([[0]])], [_s(1)]),
    ],
}

NATURAL_H = {
    "space": {"kind": "natural", "d": 1, "model": SQUARE_MODEL},
    "pieces": [
        _piece([0, "1/2"], [SHIFT, _m([[0, -2], [0, 0]])], [_s(0), _s(1)]),
        _piece([(1, 1), "-1/4"], [_m([[0]]), _m([[0]])], [_s(1)]),
    ],
}

# (name, argv, input document, exact): exact cases compare bytes
CASES = [
    ("classify", ["classify-dalgebra"], TRIPLES, True),
    ("classify-float", ["classify-dalgebra", "--mode", "float"], TRIPLES, False),
    ("classify-native-float", ["classify-dalgebra"], _fl(TRIPLES), False),
    ("stability", ["stability"], [PAIR, UNSTABLE, DENSE3], True),
    ("stability-float", ["stability", "--mode", "float"], [PAIR, UNSTABLE, DENSE3], False),
    ("spectrum", ["spectrum"], [PAIR, UNSTABLE, DENSE3], True),
    ("spectrum-float", ["spectrum", "--mode", "float"], [PAIR, UNSTABLE, DENSE3], False),
    ("spectrum-native-float", ["spectrum"], _fl([PAIR, DENSE3]), False),
    ("canonicalize", ["canonicalize"], [PAIR, UNSTABLE, DENSE3], True),
    ("canonicalize-float", ["canonicalize", "--mode", "float"], [PAIR, DENSE3], False),
    ("canonicalize-single", ["canonicalize"], DENSE3, True),
    ("rees-family", ["rees", "--weights", "2,1,0", "--t", "1/2"], DENSE3_FLAG, True),
    ("rees-limit", ["rees", "--weights", "1,1,0"], DENSE3_FLAG, True),
    ("rees-gaussian-t", ["rees", "--weights", "1,0", "--t", "1/3+i"], PAIR, True),
    ("rees-triangularized", ["rees", "--weights", "1,0,0"], DENSE3, True),
    ("rees-family-float", ["rees", "--mode", "float", "--weights", "2,1,0", "--t", "0.5"], DENSE3_FLAG, False),
    ("rees-limit-float", ["rees", "--mode", "float", "--weights", "1,0"], PAIR_FLAG, False),
    ("rees-triangularized-float", ["rees", "--weights", "1,0,0", "--t", "2i"], _fl(DENSE3), False),
    ("hilbert-chow", ["hilbert-chow"], [BETTI_H, NATURAL_H], True),
    ("hilbert-chow-float", ["hilbert-chow"], _fl([BETTI_H, NATURAL_H]), False),
    ("rh-to-derham", ["rh-transform", "--from", "betti", "--to", "derham"], BETTI_H, True),
    ("rh-to-derham-float", ["rh-transform", "--from", "betti", "--to", "derham"], _fl(BETTI_H), False),
    ("rh-to-betti", ["rh-transform", "--from", "derham", "--to", "betti"], NATURAL_H, True),
    ("rh-to-betti-float", ["rh-transform", "--from", "derham", "--to", "betti"], _fl(NATURAL_H), False),
    ("hodge-deform", ["hodge-deform", "--tau", "1/2"], NATURAL_H, True),
    ("hodge-deform-float", ["hodge-deform", "--tau", "2i"], _fl(NATURAL_H), False),
]


def _run(tmp_path, argv, doc):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    rc = main(argv + ["--in", str(inp), "--out", str(out)])
    return rc, out.read_text()


def _close(a, b, path="$"):
    if isinstance(a, float) or isinstance(b, float):
        assert isinstance(a, float) and isinstance(b, float), path
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), f"{path}: {a!r} != {b!r}"
    elif isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), path
        for k in a:
            _close(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{path}[{i}]")
    else:
        assert a == b and type(a) is type(b), f"{path}: {a!r} != {b!r}"


@pytest.mark.parametrize("name,argv,doc,exact", CASES, ids=[c[0] for c in CASES])
def test_golden(tmp_path, name, argv, doc, exact):
    rc, text = _run(tmp_path, argv, doc)
    want_rc, want_text = GOLDEN[name]
    assert rc == want_rc
    if exact:
        assert text == want_text
    else:
        _close(json.loads(text), json.loads(want_text))


def test_float_triangularization_has_the_exact_diagonal(tmp_path):
    # DENSE3's Jordan block at 1 is one point of the float spectrum, so the
    # float family carries the diagonal of the exact triangularization (the
    # family at t keeps the diagonal of its limit), not the eps^(1/2)
    # scatter of the block's computed eigenvalues
    want = json.loads(GOLDEN["rees-triangularized"][1])["B"]
    name, argv, doc, _ = next(c for c in CASES if c[0] == "rees-triangularized-float")
    for got in (json.loads(GOLDEN[name][1])["B"], json.loads(_run(tmp_path, argv, doc)[1])["B"]):
        for A, W in zip(got, want):
            for k in range(3):
                z = complex(A[k][k]["re"], A[k][k]["im"])
                w = complex(Fraction(W[k][k]["re"]), Fraction(W[k][k]["im"]))
                assert abs(z - w) <= 1e-12


GOLDEN = {
    'classify': (
        0,
        '{"results":[{"abelian":false,"fm_dual":{"alpha":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"beta":[[{"im":"0","re":"1"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1"}]],"d":2,"gamma":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"mode":"exact","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":0,"rank_gamma":0,"rank_stacked":2,"v":2},"label":"DeRham","tau":{"im":"0","re":"1"}},{"abelian":false,"fm_dual":{"alpha":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"beta":[[{"im":"1","re":"1/2"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"1","re":"1/2"}]],"d":2,"gamma":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"mode":"exact","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":0,"rank_gamma":0,"rank_stacked":2,"v":2},"label":"TauConnection","tau":{"im":"1","re":"1/2"}},{"abelian":true,"fm_dual":{"alpha":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"beta":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"d":2,"gamma":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],"mode":"exact","v":2},"invariants":{"d":2,"rank_alpha":0,"rank_beta":0,"rank_gamma":0,"rank_stacked":0,"v":2},"label":"Dolbeault","tau":{"im":"0","re":"0"}},{"abelian":false,"fm_dual":{"alpha":[[{"im":"0","re":"0"}],[{"im":"0","re":"0"}]],"beta":[[{"im":"0","re":"1"}],[{"im":"0","re":"2"}]],"d":2,"gamma":[[{"im":"0","re":"0"}]],"mode":"exact","v":1},"invariants":{"d":2,"rank_alpha":1,"rank_beta":0,"rank_gamma":0,"rank_stacked":1,"v":1},"label":"Foliation"},{"abelian":false,"fm_dual":{"alpha":[[{"im":"0","re":"0"},{"im":"0","re":"-1"}],[{"im":"0","re":"-1"},{"im":"0","re":"0"}]],"beta":[[{"im":"0","re":"1"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1"}]],"d":2,"gamma":[[{"im":"0","re":"0"},{"im":"0","re":"1"}],[{"im":"0","re":"-1"},{"im":"0","re":"0"}]],"mode":"exact","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":2,"rank_gamma":2,"rank_stacked":2,"v":2},"label":"TwistedDifferentialOperators"},{"abelian":false,"fm_dual":{"alpha":[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"-1"},{"im":"0","re":"0"}]],"beta":[[{"im":"0","re":"1"},{"im":"0","re":"2"}],[{"im":"0","re":"0"},{"im":"0","re":"1"}]],"d":2,"gamma":[[{"im":"0","re":"0"},{"im":"0","re":"1/3"}],[{"im":"0","re":"-1/3"},{"im":"0","re":"0"}]],"mode":"exact","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":1,"rank_gamma":2,"rank_stacked":2,"v":2},"label":"Generic"}],"schema":"abelmod/1"}\n',
    ),
    'classify-float': (
        0,
        '{"results":[{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":0,"rank_gamma":0,"rank_stacked":2,"v":2},"label":"DeRham","tau":{"im":0.0,"re":1.0}},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":1.0,"re":0.5},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":1.0,"re":0.5}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":0,"rank_gamma":0,"rank_stacked":2,"v":2},"label":"TauConnection","tau":{"im":1.0,"re":0.5}},{"abelian":true,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":0,"rank_beta":0,"rank_gamma":0,"rank_stacked":0,"v":2},"label":"Dolbeault","tau":{"im":0.0,"re":0.0}},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0}],[{"im":0.0,"re":2.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0}]],"mode":"float","v":1},"invariants":{"d":2,"rank_alpha":1,"rank_beta":0,"rank_gamma":0,"rank_stacked":1,"v":1},"label":"Foliation"},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-1.0}],[{"im":-0.0,"re":-1.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}],[{"im":0.0,"re":-1.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":2,"rank_gamma":2,"rank_stacked":2,"v":2},"label":"TwistedDifferentialOperators"},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-1.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0},{"im":0.0,"re":2.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.3333333333333333}],[{"im":0.0,"re":-0.3333333333333333},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":1,"rank_gamma":2,"rank_stacked":2,"v":2},"label":"Generic"}],"schema":"abelmod/1"}\n',
    ),
    'classify-native-float': (
        0,
        '{"results":[{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":0,"rank_gamma":0,"rank_stacked":2,"v":2},"label":"DeRham","tau":{"im":0.0,"re":1.0}},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":1.0,"re":0.5},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":1.0,"re":0.5}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":0,"rank_gamma":0,"rank_stacked":2,"v":2},"label":"TauConnection","tau":{"im":1.0,"re":0.5}},{"abelian":true,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":0,"rank_beta":0,"rank_gamma":0,"rank_stacked":0,"v":2},"label":"Dolbeault","tau":{"im":0.0,"re":0.0}},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0}],[{"im":0.0,"re":2.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0}]],"mode":"float","v":1},"invariants":{"d":2,"rank_alpha":1,"rank_beta":0,"rank_gamma":0,"rank_stacked":1,"v":1},"label":"Foliation"},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-1.0}],[{"im":-0.0,"re":-1.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}],[{"im":0.0,"re":-1.0},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":2,"rank_gamma":2,"rank_stacked":2,"v":2},"label":"TwistedDifferentialOperators"},{"abelian":false,"fm_dual":{"alpha":[[{"im":-0.0,"re":-0.0},{"im":-0.0,"re":-0.0}],[{"im":-0.0,"re":-1.0},{"im":-0.0,"re":-0.0}]],"beta":[[{"im":0.0,"re":1.0},{"im":0.0,"re":2.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]],"d":2,"gamma":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.3333333333333333}],[{"im":0.0,"re":-0.3333333333333333},{"im":0.0,"re":0.0}]],"mode":"float","v":2},"invariants":{"d":2,"rank_alpha":2,"rank_beta":1,"rank_gamma":2,"rank_stacked":2,"v":2},"label":"Generic"}],"schema":"abelmod/1"}\n',
    ),
    'stability': (
        0,
        '{"results":[{"stable":true,"witness_subspace":null},{"stable":false,"witness_subspace":[[{"im":"0","re":"1"}],[{"im":"0","re":"0"}]]},{"stable":true,"witness_subspace":null}],"schema":"abelmod/1"}\n',
    ),
    'stability-float': (
        0,
        '{"results":[{"stable":true,"witness_subspace":null},{"stable":false,"witness_subspace":[[{"im":0.0,"re":1.0}],[{"im":0.0,"re":0.0}]]},{"stable":true,"witness_subspace":null}],"schema":"abelmod/1"}\n',
    ),
    'spectrum': (
        0,
        '{"results":[{"joint_spectrum":[[{"im":"0","re":"0"},{"im":"0","re":"1/2"}],[{"im":"0","re":"0"},{"im":"0","re":"1/2"}]],"support":[{"multiplicity":2,"point":[{"im":"0","re":"0"},{"im":"0","re":"1/2"}]}]},{"joint_spectrum":[[{"im":"0","re":"1"}],[{"im":"0","re":"2"}]],"support":[{"multiplicity":1,"point":[{"im":"0","re":"1"}]},{"multiplicity":1,"point":[{"im":"0","re":"2"}]}]},{"joint_spectrum":[[{"im":"0","re":"1"},{"im":"1","re":"0"}],[{"im":"0","re":"1"},{"im":"1","re":"0"}],[{"im":"0","re":"3"},{"im":"-1","re":"1"}]],"support":[{"multiplicity":2,"point":[{"im":"0","re":"1"},{"im":"1","re":"0"}]},{"multiplicity":1,"point":[{"im":"0","re":"3"},{"im":"-1","re":"1"}]}]}],"schema":"abelmod/1"}\n',
    ),
    'spectrum-float': (
        0,
        '{"results":[{"joint_spectrum":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]],"support":[{"multiplicity":2,"point":[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]}]},{"joint_spectrum":[[{"im":0.0,"re":1.0}],[{"im":0.0,"re":2.0}]],"support":[{"multiplicity":1,"point":[{"im":0.0,"re":1.0}]},{"multiplicity":1,"point":[{"im":0.0,"re":2.0}]}]},{"joint_spectrum":[[{"im":-3.0357660829594124e-18,"re":0.9999999999999998},{"im":1.0000000000000004,"re":-1.8041124150158794e-16}],[{"im":-3.0357660829594124e-18,"re":0.9999999999999998},{"im":1.0000000000000004,"re":-1.8041124150158794e-16}],[{"im":0.0,"re":3.0},{"im":-1.0,"re":1.0}]],"support":[{"multiplicity":2,"point":[{"im":3.3306690738754696e-16,"re":1.0000000000000004},{"im":0.9999999999999999,"re":2.220446049250313e-16}]},{"multiplicity":1,"point":[{"im":1.81838795517425e-16,"re":3.0000000000000004},{"im":-1.0,"re":1.0000000000000002}]}]}],"schema":"abelmod/1"}\n',
    ),
    'spectrum-native-float': (
        0,
        '{"results":[{"joint_spectrum":[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]],"support":[{"multiplicity":2,"point":[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]}]},{"joint_spectrum":[[{"im":-3.0357660829594124e-18,"re":0.9999999999999998},{"im":1.0000000000000004,"re":-1.8041124150158794e-16}],[{"im":-3.0357660829594124e-18,"re":0.9999999999999998},{"im":1.0000000000000004,"re":-1.8041124150158794e-16}],[{"im":0.0,"re":3.0},{"im":-1.0,"re":1.0}]],"support":[{"multiplicity":2,"point":[{"im":3.3306690738754696e-16,"re":1.0000000000000004},{"im":0.9999999999999999,"re":2.220446049250313e-16}]},{"multiplicity":1,"point":[{"im":1.81838795517425e-16,"re":3.0000000000000004},{"im":-1.0,"re":1.0000000000000002}]}]}],"schema":"abelmod/1"}\n',
    ),
    'canonicalize': (
        2,
        '{"results":[{"mult_matrices":[[[{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"1"},{"im":"0","re":"0"}]],[[{"im":"0","re":"1/2"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1/2"}]]],"staircase":[[0,0],[1,0]],"support":[{"multiplicity":2,"point":[{"im":"0","re":"0"},{"im":"0","re":"1/2"}]}]},{"detail":"ideal normal form needs a cyclic marking","error":"NotStable"},{"mult_matrices":[[[{"im":"0","re":"0"},{"im":"1","re":"1"},{"im":"-5/2","re":"2"}],[{"im":"0","re":"1"},{"im":"-1","re":"2"},{"im":"1/2","re":"-1"}],[{"im":"0","re":"0"},{"im":"2","re":"0"},{"im":"1","re":"3"}]],[[{"im":"0","re":"0"},{"im":"-5/2","re":"2"},{"im":"-11/4","re":"1/2"}],[{"im":"0","re":"0"},{"im":"1/2","re":"-1"},{"im":"3/4","re":"-1"}],[{"im":"0","re":"1"},{"im":"1","re":"3"},{"im":"1/2","re":"2"}]]],"staircase":[[0,0],[1,0],[0,1]],"support":[{"multiplicity":2,"point":[{"im":"0","re":"1"},{"im":"1","re":"0"}]},{"multiplicity":1,"point":[{"im":"0","re":"3"},{"im":"-1","re":"1"}]}]}],"schema":"abelmod/1"}\n',
    ),
    'canonicalize-float': (
        0,
        '{"results":[{"mult_matrices":[[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.5},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]]],"staircase":[[0,0],[1,0]],"support":[{"multiplicity":2,"point":[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]}]},{"mult_matrices":[[[{"im":-1.1422459752491794e-16,"re":1.8645670366715824e-16},{"im":1.0000000000000033,"re":1.0000000000000016},{"im":-2.4999999999999996,"re":2.0000000000000067}],[{"im":1.4807806212409953e-16,"re":1.0000000000000002},{"im":-1.0000000000000029,"re":2.0},{"im":0.49999999999999867,"re":-1.0000000000000047}],[{"im":0.0,"re":1.1102230246251565e-16},{"im":2.0000000000000027,"re":-2.4424906541753444e-15},{"im":1.0000000000000056,"re":3.0000000000000027}]],[[{"im":-9.623157657599046e-16,"re":1.9392813024557066e-15},{"im":-2.4999999999999996,"re":2.0000000000000067},{"im":-2.750000000000001,"re":0.5000000000000041}],[{"im":4.440892098500626e-16,"re":-1.5543122344752192e-15},{"im":0.49999999999999867,"re":-1.0000000000000047},{"im":0.7499999999999998,"re":-1.0000000000000036}],[{"im":1.1910029972022015e-15,"re":1.0000000000000016},{"im":1.0000000000000056,"re":3.0000000000000027},{"im":0.5000000000000031,"re":2.000000000000002}]]],"staircase":[[0,0],[1,0],[0,1]],"support":[{"multiplicity":2,"point":[{"im":1.3600232051658168e-15,"re":1.0000000000000013},{"im":1.0000000000000004,"re":-3.191891195797325e-16}]},{"multiplicity":1,"point":[{"im":1.7126257986650872e-15,"re":3.0000000000000027},{"im":-1.0000000000000004,"re":1.0000000000000013}]}]}],"schema":"abelmod/1"}\n',
    ),
    'canonicalize-single': (
        0,
        '{"mult_matrices":[[[{"im":"0","re":"0"},{"im":"1","re":"1"},{"im":"-5/2","re":"2"}],[{"im":"0","re":"1"},{"im":"-1","re":"2"},{"im":"1/2","re":"-1"}],[{"im":"0","re":"0"},{"im":"2","re":"0"},{"im":"1","re":"3"}]],[[{"im":"0","re":"0"},{"im":"-5/2","re":"2"},{"im":"-11/4","re":"1/2"}],[{"im":"0","re":"0"},{"im":"1/2","re":"-1"},{"im":"3/4","re":"-1"}],[{"im":"0","re":"1"},{"im":"1","re":"3"},{"im":"1/2","re":"2"}]]],"schema":"abelmod/1","staircase":[[0,0],[1,0],[0,1]],"support":[{"multiplicity":2,"point":[{"im":"0","re":"1"},{"im":"1","re":"0"}]},{"multiplicity":1,"point":[{"im":"0","re":"3"},{"im":"-1","re":"1"}]}]}\n',
    ),
    'rees-family': (
        0,
        '{"B":[[[{"im":"0","re":"1"},{"im":"0","re":"1/2"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"},{"im":"0","re":"3"}]],[[{"im":"1","re":"0"},{"im":"0","re":"1/4"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"1","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"},{"im":"-1","re":"1"}]]],"m":2,"mode":"exact","n":3,"schema":"abelmod/1"}\n',
    ),
    'rees-limit': (
        0,
        '{"B":[[[{"im":"0","re":"1"},{"im":"0","re":"1"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"},{"im":"0","re":"3"}]],[[{"im":"1","re":"0"},{"im":"0","re":"1/2"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"1","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"0"},{"im":"-1","re":"1"}]]],"m":2,"mode":"exact","n":3,"schema":"abelmod/1"}\n',
    ),
    'rees-gaussian-t': (
        0,
        '{"B":[[[{"im":"0","re":"0"},{"im":"1","re":"1/3"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],[[{"im":"0","re":"1/2"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1/2"}]]],"m":2,"mode":"exact","n":2,"schema":"abelmod/1"}\n',
    ),
    'rees-triangularized': (
        0,
        '{"B":[[[{"im":"0","re":"1"},{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"0","re":"1"},{"im":"0","re":"-2"}],[{"im":"0","re":"0"},{"im":"0","re":"0"},{"im":"0","re":"3"}]],[[{"im":"1","re":"0"},{"im":"0","re":"0"},{"im":"0","re":"0"}],[{"im":"0","re":"0"},{"im":"1","re":"0"},{"im":"2","re":"-1"}],[{"im":"0","re":"0"},{"im":"0","re":"0"},{"im":"-1","re":"1"}]]],"m":2,"mode":"exact","n":3,"schema":"abelmod/1"}\n',
    ),
    'rees-family-float': (
        0,
        '{"B":[[[{"im":0.0,"re":1.0},{"im":0.0,"re":0.5},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0},{"im":0.0,"re":3.0}]],[[{"im":1.0,"re":0.0},{"im":0.0,"re":0.25},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":1.0,"re":-0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0},{"im":-1.0,"re":1.0}]]],"m":2,"mode":"float","n":3,"schema":"abelmod/1"}\n',
    ),
    'rees-limit-float': (
        0,
        '{"B":[[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.5},{"im":0.0,"re":0.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]]],"m":2,"mode":"float","n":2,"schema":"abelmod/1"}\n',
    ),
    'rees-triangularized-float': (
        0,
        '{"B":[[[{"im":0.0,"re":1.0},{"im":-4.242640687119283,"re":-0.0},{"im":-5.71547606649408,"re":-0.0}],[{"im":-1.0447786757298074e-16,"re":0.0},{"im":0.0,"re":0.9999999999999993},{"im":0.0,"re":-1.1547005383792521}],[{"im":1.177747336895536e-16,"re":0.0},{"im":0.0,"re":-9.080176241480612e-17},{"im":0.0,"re":3.0000000000000004}]],[[{"im":1.0,"re":1.847480548603901e-16},{"im":-2.1213203435596415,"re":-6.523034301715628e-17},{"im":-2.8577380332470397,"re":-3.265986323710903}],[{"im":-7.789058686993385e-17,"re":-8.501647830861565e-18},{"im":0.9999999999999998,"re":-3.0044740567428424e-16},{"im":1.154700538379252,"re":-0.5773502691896261}],[{"im":-8.432315718360552e-18,"re":-3.6187891333989466e-17},{"im":1.8169248636410532e-16,"re":-1.515903267033185e-17},{"im":-1.0,"re":1.0000000000000002}]]],"m":2,"mode":"float","n":3,"schema":"abelmod/1"}\n',
    ),
    'hilbert-chow': (
        0,
        '{"results":[{"space":{"d":1,"kind":"betti"},"support":[{"multiplicity":1,"point":{"coords":[{"im":"0","re":"1/2"},{"im":"0","re":"-3"}]}},{"multiplicity":2,"point":{"coords":[{"im":"0","re":"2"},{"im":"1","re":"0"}]}}]},{"space":{"d":1,"kind":"natural","model":{"d":1,"period":[[[1.0,0.0],[0.0,1.0]]],"tolerances":{"eps_eq":1e-09,"eps_lattice":1e-07,"eps_rank":1e-09}}},"support":[{"multiplicity":2,"point":{"coords":[{"im":"0","re":"0"},{"im":"0","re":"1/2"}]}},{"multiplicity":1,"point":{"coords":[{"im":"1","re":"1"},{"im":"0","re":"-1/4"}]}}]}],"schema":"abelmod/1"}\n',
    ),
    'hilbert-chow-float': (
        0,
        '{"results":[{"space":{"d":1,"kind":"betti"},"support":[{"multiplicity":1,"point":{"coords":[{"im":0.0,"re":0.5},{"im":0.0,"re":-3.0}]}},{"multiplicity":2,"point":{"coords":[{"im":0.0,"re":2.0},{"im":1.0,"re":0.0}]}}]},{"space":{"d":1,"kind":"natural","model":{"d":1,"period":[[[1.0,0.0],[0.0,1.0]]],"tolerances":{"eps_eq":1e-09,"eps_lattice":1e-07,"eps_rank":1e-09}}},"support":[{"multiplicity":2,"point":{"coords":[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}]}},{"multiplicity":1,"point":{"coords":[{"im":1.0,"re":1.0},{"im":0.0,"re":-0.25}]}}]}],"schema":"abelmod/1"}\n',
    ),
    'rh-to-derham': (
        0,
        '{"pieces":[{"point":{"coords":[{"im":0.0,"re":-0.6931471805599453},{"im":3.141592653589793,"re":1.0986122886681098}]},"punctual":{"N":[[[{"im":"0","re":"0"}]],[[{"im":"0","re":"0"}]]],"mode":"exact","v":[{"im":"0","re":"1"}]}},{"point":{"coords":[{"im":0.0,"re":0.6931471805599453},{"im":1.5707963267948966,"re":0.0}]},"punctual":{"N":[[[{"im":"0","re":"0"},{"im":"0","re":"1"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],[[{"im":"0","re":"0"},{"im":"0","re":"1/2"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]]],"mode":"exact","v":[{"im":"0","re":"0"},{"im":"0","re":"1"}]}}],"schema":"abelmod/1","space":{"d":1,"kind":"natural","model":{"d":1,"period":[[[1.0,0.0],[0.0,1.0]]],"tolerances":{"eps_eq":1e-09,"eps_lattice":1e-07,"eps_rank":1e-09}}}}\n',
    ),
    'rh-to-derham-float': (
        0,
        '{"pieces":[{"point":{"coords":[{"im":0.0,"re":-0.6931471805599453},{"im":3.141592653589793,"re":1.0986122886681098}]},"punctual":{"N":[[[{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":1.0}]}},{"point":{"coords":[{"im":0.0,"re":0.6931471805599453},{"im":1.5707963267948966,"re":0.0}]},"punctual":{"N":[[[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0},{"im":0.0,"re":0.5}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]}}],"schema":"abelmod/1","space":{"d":1,"kind":"natural","model":{"d":1,"period":[[[1.0,0.0],[0.0,1.0]]],"tolerances":{"eps_eq":1e-09,"eps_lattice":1e-07,"eps_rank":1e-09}}}}\n',
    ),
    'rh-to-betti': (
        0,
        '{"pieces":[{"point":{"coords":[{"im":"0","re":"1"},{"im":0.0,"re":1.6487212707001282}]},"punctual":{"N":[[[{"im":"0","re":"0"},{"im":"0","re":"1"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]],[[{"im":"0","re":"0"},{"im":"0","re":"-2"}],[{"im":"0","re":"0"},{"im":"0","re":"0"}]]],"mode":"exact","v":[{"im":"0","re":"0"},{"im":"0","re":"1"}]}},{"point":{"coords":[{"im":2.2873552871788423,"re":1.4686939399158851},{"im":0.0,"re":0.7788007830714049}]},"punctual":{"N":[[[{"im":"0","re":"0"}]],[[{"im":"0","re":"0"}]]],"mode":"exact","v":[{"im":"0","re":"1"}]}}],"schema":"abelmod/1","space":{"d":1,"kind":"betti"}}\n',
    ),
    'rh-to-betti-float': (
        0,
        '{"pieces":[{"point":{"coords":[{"im":0.0,"re":1.0},{"im":0.0,"re":1.6487212707001282}]},"punctual":{"N":[[[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0},{"im":0.0,"re":-2.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]}},{"point":{"coords":[{"im":2.2873552871788423,"re":1.4686939399158851},{"im":0.0,"re":0.7788007830714049}]},"punctual":{"N":[[[{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":1.0}]}}],"schema":"abelmod/1","space":{"d":1,"kind":"betti"}}\n',
    ),
    'hodge-deform': (
        0,
        '{"pieces":[{"point":{"coords":[{"im":-0.125,"re":0.0},{"im":0.25,"re":0.0}]},"punctual":{"N":[[[{"im":0.0,"re":0.0},{"im":0.5,"re":0.25}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0},{"im":-1.0,"re":0.5}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]}},{"point":{"coords":[{"im":0.3125,"re":0.25},{"im":0.375,"re":0.5}]},"punctual":{"N":[[[{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":1.0}]}}],"schema":"abelmod/1","space":{"d":1,"kind":"hodge","model":{"d":1,"period":[[[1.0,0.0],[0.0,1.0]]],"tolerances":{"eps_eq":1e-09,"eps_lattice":1e-07,"eps_rank":1e-09}},"tau":{"im":"0","re":"1/2"}}}\n',
    ),
    'hodge-deform-float': (
        0,
        '{"pieces":[{"point":{"coords":[{"im":1.0,"re":-1.25},{"im":0.375,"re":0.5}]},"punctual":{"N":[[[{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":1.0}]}},{"point":{"coords":[{"im":0.0,"re":0.5},{"im":0.25,"re":0.0}]},"punctual":{"N":[[[{"im":0.0,"re":0.0},{"im":1.0,"re":-2.0}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],[[{"im":0.0,"re":0.0},{"im":-1.0,"re":0.5}],[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]]],"mode":"float","v":[{"im":0.0,"re":0.0},{"im":0.0,"re":1.0}]}}],"schema":"abelmod/1","space":{"d":1,"kind":"hodge","model":{"d":1,"period":[[[1.0,0.0],[0.0,1.0]]],"tolerances":{"eps_eq":1e-09,"eps_lattice":1e-07,"eps_rank":1e-09}},"tau":{"im":"2","re":"0"}}}\n',
    ),
}
