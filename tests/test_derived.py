"""Checked at input, trusted when derived.

CommutingTuple, PunctualData, HilbPoint and InvariantFlag check their
data where it enters the package: the public constructors and every
from_json.  The pieces and points the package derives from checked data
(decompose_punctual, betti_marked, the Riemann-Hilbert and Hodge maps)
are wrapped without the nilpotency and cyclicity tests that their
construction guarantees.  These tests pin both halves: the boundary
still refuses bad data, the derived pieces still pass the tests they
skip, and the derivations run none of them.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from test_trace_names import _count_calls

from abelmod import adhm, checks, linalg
from abelmod.adhm import CommutingTuple, MarkedTuple, PunctualData, decompose_punctual, is_stable
from abelmod.cli import main
from abelmod.linalg import EXACT, FLOAT, Matrix, Scalar, all_nilpotent, primary_decomposition, solve
from abelmod.moduli import (
    FiberSpace,
    HilbPoint,
    assemble_pieces,
    betti_assemble,
    betti_marked,
    hodge_deform,
    hodge_rescale,
    hodge_undeform,
    rh_to_betti,
    rh_to_derham,
)
from abelmod.torus import square_model


def _trusted(P: PunctualData) -> bool:
    """The two tests a derived piece skips: nilpotent parts, cyclic marking."""
    return all_nilpotent(P.N.B) and is_stable(MarkedTuple(P.N, P.marking))


def _conjugated(M: MarkedTuple, rng) -> MarkedTuple:
    """M in another basis: a float conjugator in float mode, an integer
    shear in exact mode."""
    if M.mode == FLOAT:
        g = Matrix.flt(checks._float_conjugator(rng, M.n))
    else:
        g = checks._shear(rng, M.n)
    return MarkedTuple(M.tuple.conjugate(g), solve(g, M.v))


def _derived_points(rng, mode: str):
    """The Hilbert points the package derives from one seeded draw of the
    battery's generators, in the betti and natural charts."""
    d = rng.randint(1, 2)
    n = rng.randint(1, 5)
    model = square_model(d)
    hb = checks._hilb(rng, FiberSpace.betti(d), n, lambda: checks._annulus(rng, 0.45, 2.0), mode)
    hn = checks._hilb(
        rng, FiberSpace.natural(model), n, lambda: complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.6, 2.6)), mode
    )
    deformed = hodge_deform(hn, rng.choice([1.0, 2.0, 0.5, 1j]))
    factor = Scalar.exact(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), 4))
    return [
        betti_marked(_conjugated(betti_assemble(hb), rng)),
        rh_to_derham(hb, model),
        rh_to_betti(hn),
        rh_to_betti(rh_to_derham(hb, model)),
        deformed,
        hodge_undeform(deformed),
        hodge_rescale(deformed, factor),
        hodge_rescale(checks._hodge_hilb_exact(rng, model), factor),
    ]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_derived_pieces_pass_the_checks_they_skip(mode):
    rng = random.Random(26)
    for _ in range(12):
        for h in _derived_points(rng, mode):
            assert all(_trusted(P) for P in h.pieces), h


def test_punctual_pieces_of_planted_float_tuples_pass_the_checks_they_skip():
    rng = random.Random(2026)
    decomposed = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        mats, g = checks._float_family(rng, n, rng.randint(1, 3), defective=True)
        v = g @ np.array([[checks._cx(rng)] for _ in range(n)])
        M = MarkedTuple(CommutingTuple([Matrix.flt(A) for A in mats]), Matrix.flt(v))
        if not is_stable(M):
            continue
        pieces = decompose_punctual(M)
        assert sum(P.length for P in pieces) == n
        assert all(_trusted(P) for P in pieces)
        decomposed += 1
    assert decomposed >= 20


# ----------------------------------------------------------------------
# the boundary keeps its checks


def _shift_piece(point, v):
    """A length-2 exact piece: the shift and zero, marked by v."""
    N = CommutingTuple([Matrix.exact([[0, 1], [0, 0]]), Matrix.exact([[0, 0], [0, 0]])])
    return PunctualData(tuple(Scalar.exact(c) for c in point), N, Matrix.exact([[x] for x in v]))


def test_punctual_data_refuses_float_parts_that_are_not_nilpotent():
    # the exact case is tests/test_adhm.py::TestPunctual::test_nilpotency_enforced
    N = CommutingTuple([Matrix.flt([[0.0, 1.0], [0.0, 1e-3]])])
    with pytest.raises(ValueError, match="not nilpotent"):
        PunctualData((0,), N, Matrix.flt([[0.0], [1.0]]))


def test_hilb_point_from_json_refuses_a_marking_that_is_not_cyclic(tmp_path):
    # e_1 spans an invariant line of the shift, so it is not cyclic
    doc = HilbPoint(FiberSpace.betti(1), [_shift_piece((2, 1), [0, 1])]).to_json()
    doc["pieces"][0]["punctual"]["v"] = [Scalar.one(EXACT).to_json(), Scalar.zero(EXACT).to_json()]
    with pytest.raises(ValueError, match="not cyclic"):
        HilbPoint.from_json(doc)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    assert main(["hilbert-chow", "--in", str(inp), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["error"] == "Malformed"


def test_assemble_pieces_refuses_an_input_marking_that_is_not_cyclic():
    space = FiberSpace.betti(1)
    good, bad = _shift_piece((3, 1), [0, 1]), _shift_piece((2, 1), [1, 0])
    with pytest.raises(ValueError, match="not cyclic"):
        assemble_pieces(space, [good, bad])


def test_assemble_pieces_checks_a_piece_before_merging_it():
    # the two points are one within eps_eq; the merge would find a cyclic
    # marking for the sum, but the non-cyclic input is refused first
    fr = linalg.ToleranceFrame(eps_rank=1e-12, eps_eq=1e-6, eps_lattice=1e-5)
    space = FiberSpace.betti(1, frame=fr)
    shift = CommutingTuple([Matrix.flt([[0.0, 1.0], [0.0, 0.0]], fr), Matrix.flt([[0.0, 0.0], [0.0, 0.0]], fr)])
    point = (Scalar.flt(1.0), Scalar.flt(1.0))
    bad = PunctualData(point, shift, Matrix.flt([[1.0], [0.0]], fr))
    one = CommutingTuple([Matrix.flt([[0.0]], fr), Matrix.flt([[0.0]], fr)])
    near = PunctualData((Scalar.flt(1.0 + 1e-7), Scalar.flt(1.0)), one, Matrix.flt([[1.0]], fr))
    with pytest.raises(ValueError, match="not cyclic"):
        assemble_pieces(space, [bad, near])


# ----------------------------------------------------------------------
# the derivations run no nilpotency or cyclicity test


def _two_piece_point(space: FiberSpace) -> HilbPoint:
    return HilbPoint(space, [_shift_piece((2, "1/2"), [0, 1]), _shift_piece(("1/2", -3), [0, 1])])


@pytest.mark.parametrize(
    "chart,derive",
    [
        ("betti", lambda h: rh_to_derham(h, square_model(1))),
        ("natural", rh_to_betti),
        ("natural", lambda h: hodge_deform(h, 0.5)),
        ("hodge", hodge_undeform),
        ("hodge", lambda h: hodge_rescale(h, Scalar.exact(2, 1))),
    ],
    ids=["rh_to_derham", "rh_to_betti", "hodge_deform", "hodge_undeform", "hodge_rescale"],
)
def test_chart_maps_do_not_recheck_their_pieces(monkeypatch, chart, derive):
    model = square_model(1)
    space = {
        "betti": FiberSpace.betti(1),
        "natural": FiberSpace.natural(model),
        "hodge": FiberSpace.hodge(model, Scalar.exact(Fraction(1, 2))),
    }[chart]
    h = _two_piece_point(space)
    calls = _count_calls(monkeypatch, (linalg, "all_nilpotent"), (adhm, "is_stable"))
    out = derive(h)
    assert len(out.pieces) == 2
    assert calls == {"all_nilpotent": 0, "is_stable": 0}


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_decompose_punctual_checks_its_input_once(monkeypatch, mode):
    """One stability test of the input; every nilpotency test is the
    primary decomposition's own (the exact one-point test), none is made
    on the pieces."""
    B1 = Matrix.exact([[5, 1, 0], [0, 5, 0], [0, 0, 9]])
    B2 = Matrix.exact([[7, 0, 0], [0, 7, 0], [0, 0, 7]])
    M = MarkedTuple(CommutingTuple([B1, B2]), Matrix.exact([[0], [1], [1]]))
    if mode == FLOAT:
        M = MarkedTuple(M.tuple.to_float(), M.v.to_float())
    calls = _count_calls(monkeypatch, (linalg, "all_nilpotent"), (adhm, "is_stable"))
    primary_decomposition(M.tuple.B)
    own = calls["all_nilpotent"]
    calls.update(all_nilpotent=0, is_stable=0)
    assert [P.length for P in decompose_punctual(M)] == [2, 1]
    assert calls == {"all_nilpotent": own, "is_stable": 1}
    if mode == FLOAT:
        assert own == 0
