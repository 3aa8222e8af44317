"""Assembled length-n moduli: charts, assembly, transforms, diagrams."""

import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from abelmod.adhm import CommutingTuple, MarkedTuple, PunctualData, from_points, log1p_matrix
from abelmod.errors import (
    LogAtZeroError,
    PieceCollisionError,
    TauZeroError,
)
from abelmod.linalg import EXACT, FLOAT, Matrix, Scalar, ToleranceFrame
from abelmod.moduli import (
    FiberSpace,
    HilbPoint,
    SymPoint,
    assemble_pieces,
    betti_assemble,
    betti_marked,
    betti_unmarked,
    diagram_check,
    hilbert_chow,
    hodge_deform,
    hodge_rescale,
    hodge_undeform,
    rank1_identify,
    rh_to_betti,
    rh_to_derham,
)
from abelmod.torus import fold_imag, square_model


def _exact_pt(*vals):
    return tuple(Scalar.exact(v) for v in vals)


def _piece(point, shift_len, m):
    if shift_len == 1:
        mats = [Matrix.zeros(1, 1, EXACT) for _ in range(m)]
        mark = Matrix.column([Scalar.exact(1)])
    else:
        rows = [[0] * shift_len for _ in range(shift_len)]
        for i in range(shift_len - 1):
            rows[i][i + 1] = 1
        mats = [Matrix.exact(rows)] + [Matrix.zeros(shift_len, shift_len, EXACT) for _ in range(m - 1)]
        mark = Matrix.column([Scalar.exact(int(i == shift_len - 1)) for i in range(shift_len)])
    return PunctualData(point, CommutingTuple(mats), mark)


class TestSpaces:
    def test_chart_dims(self):
        m = square_model(2)
        assert FiberSpace.betti(2).chart_dim == 4
        assert FiberSpace.natural(m).chart_dim == 4
        assert FiberSpace.hodge(m, 1.0).chart_dim == 4
        assert FiberSpace("dual-torus", model=m).chart_dim == 2
        assert FiberSpace("product-alpha-zero", model=m, vdim=3).chart_dim == 5

    def test_json_roundtrip(self):
        sp = FiberSpace.hodge(square_model(1), Scalar.exact("1/2"))
        assert FiberSpace.from_json(sp.to_json()) == sp

    def test_natural_points_equal_mod_2pi(self):
        sp = FiberSpace.natural(square_model(1))
        a = (Scalar.flt(0.3, 1.0), Scalar.flt(0.0))
        b = (Scalar.flt(0.3, 1.0 - 2 * math.pi), Scalar.flt(0.0))
        assert sp.points_equal(a, b)

    def test_natural_difference_is_measured_by_its_modulus(self):
        # a difference of 0.8 tol in Re and in Im (modulo 2 pi) has
        # modulus 1.13 tol
        sp = FiberSpace.natural(square_model(1))
        a = (Scalar.flt(0.3, 1.0), Scalar.flt(0.0))
        b = (Scalar.flt(0.3 + 0.8e-9, 1.0 + 0.8e-9 - 2 * math.pi), Scalar.flt(0.0))
        c = (Scalar.flt(0.3 + 0.6e-9, 1.0 + 0.6e-9 - 2 * math.pi), Scalar.flt(0.0))
        assert not sp.points_equal(a, b)
        assert sp.points_equal(a, c)

    def test_exact_pair_of_a_mixed_point_is_compared_exactly(self):
        sp = FiberSpace.betti(1)
        p = (Scalar.exact(1), Scalar.flt(2.0))
        q = (Scalar.exact(1) + Scalar.exact("1/1000000000000"), Scalar.flt(2.0))
        assert not sp.points_equal(p, q)
        assert len(SymPoint(sp, [(p, 1), (q, 1)]).support) == 2
        assert sp.points_equal(p, (Scalar.exact(1), Scalar.flt(2.0 + 1e-12)))

    def test_betti_chart_json_keeps_its_tolerances(self):
        frame = ToleranceFrame(eps_eq=1e-6, eps_lattice=1e-5)
        sp = FiberSpace.betti(1, frame)
        assert FiberSpace.from_json(json.loads(json.dumps(sp.to_json()))).frame == frame
        s = SymPoint(sp, [(_exact_pt(1, 2), 1)])
        assert SymPoint.from_json(json.loads(json.dumps(s.to_json()))).space.frame == frame
        # a chart at the default frame writes no tolerances, as before
        assert FiberSpace.betti(1).to_json() == {"kind": "betti", "d": 1}


class TestPoints:
    def test_sym_orders_support(self):
        sp = FiberSpace.betti(1)
        s = SymPoint(sp, [(_exact_pt(3, 1), 2), (_exact_pt(1, 1), 1)])
        assert [k for _, k in s.support] == [1, 2]
        assert s.total == 3

    def test_sym_rejects_duplicates(self):
        sp = FiberSpace.betti(1)
        with pytest.raises(ValueError):
            SymPoint(sp, [(_exact_pt(1, 1), 1), (_exact_pt(1, 1), 2)])

    def test_hilb_requires_cyclic_markings(self):
        sp = FiberSpace.betti(1)
        P = _piece(_exact_pt(1, 1), 2, 2)
        bad = PunctualData(P.point, P.N, Matrix.column([Scalar.exact(1), Scalar.exact(0)]))
        with pytest.raises(ValueError):
            HilbPoint(sp, [bad])

    def test_hilb_json_roundtrip(self):
        sp = FiberSpace.betti(1)
        h = HilbPoint(sp, [_piece(_exact_pt(1, 1), 2, 2), _piece(_exact_pt(3, 1), 1, 2)])
        back = HilbPoint.from_json(h.to_json())
        assert back.close_to(h, 0.0)
        assert json.dumps(back.to_json(), sort_keys=True) == json.dumps(h.to_json(), sort_keys=True)

    def test_exact_collision_never_cyclic(self):
        # two cyclic modules at the same exact point never add to a
        # cyclic one (their ideals both sit inside the maximal ideal)
        sp = FiberSpace.betti(1)
        a = _piece(_exact_pt(2, 1), 1, 2)
        b = _piece(_exact_pt(2, 1), 1, 2)
        with pytest.raises(PieceCollisionError):
            assemble_pieces(sp, [a, b])

    def test_float_near_collision_merges(self):
        # a loose equality frame with a tight rank frame: the offsets
        # absorbed into the nilpotent parts keep the merged module cyclic
        fr = ToleranceFrame(eps_rank=1e-12, eps_eq=1e-6, eps_lattice=1e-5)
        sp = FiberSpace.betti(1, frame=fr)

        def one_pt(x):
            mats = [Matrix.flt([[0.0]], fr), Matrix.flt([[0.0]], fr)]
            return PunctualData(
                (Scalar.flt(x), Scalar.flt(1.0)),
                CommutingTuple(mats),
                Matrix.flt([[1.0]], fr),
            )

        h = assemble_pieces(sp, [one_pt(1.0), one_pt(1.0 + 1e-7)])
        assert len(h.pieces) == 1 and h.total == 2


def _float_unit_piece(x):
    # a length-1 float piece of the betti chart at (x, 1)
    zero = [Matrix.flt([[0.0]]), Matrix.flt([[0.0]])]
    return PunctualData((Scalar.from_complex(x), Scalar.flt(1.0)), CommutingTuple(zero), Matrix.flt([[1.0]]))


class TestChartPointGroups:
    """Pieces at one chart point are the connected components of
    points_equal, and assemble_pieces merges each into one piece."""

    def test_assembly_does_not_depend_on_the_order(self):
        # the mean of the first two points lies within tolerance of the
        # third: all three are one point in every order
        sp = FiberSpace.betti(1)
        xs = [1.0, 1 + 0.99e-9, 1 + 1.4e-9]
        docs = {
            json.dumps(assemble_pieces(sp, [_float_unit_piece(x) for x in order]).to_json(), sort_keys=True)
            for order in itertools.permutations(xs)
        }
        assert len(docs) == 1
        h = HilbPoint.from_json(json.loads(docs.pop()))
        assert [P.length for P in h.pieces] == [3]

    def test_chain_merges_into_one_point(self):
        # each point within tolerance of the next, the ends 1.8 tol apart
        sp = FiberSpace.betti(1)
        h = assemble_pieces(sp, [_float_unit_piece(x) for x in (1.0, 1 + 0.9e-9, 1 + 1.8e-9)])
        s = hilbert_chow(h)
        assert [k for _, k in s.support] == [3]
        assert s.support[0][0][0].cx == pytest.approx(1 + 0.9e-9, abs=1e-15)

    def test_merged_point_joins_an_exact_point(self):
        # two exact points never merge with each other; the float piece
        # merges with x = 1, and that mean lies within tolerance of the
        # other exact point, so it merges again
        sp = FiberSpace.betti(1)
        pieces = [_piece(_exact_pt(1, 1), 1, 2), _piece(_exact_pt(1 - Fraction(5, 10**10), 1), 1, 2)]
        for order in itertools.permutations(pieces + [_float_unit_piece(1 + 0.9e-9)]):
            s = hilbert_chow(assemble_pieces(sp, order))
            assert [k for _, k in s.support] == [3]

    def test_merged_mean_joins_another_group(self):
        # the last point is more than tolerance from each of the others,
        # but within tolerance of their merged mean: the assembly regroups
        # until no two points are one, in every order
        sp = FiberSpace.betti(1)
        xs = [1 - 0.8e-9, 1 + 0.8e-9, 1 - 0.5e-9j, 1 + 0.75e-9j]
        docs = {
            json.dumps(assemble_pieces(sp, [_float_unit_piece(x) for x in order]).to_json(), sort_keys=True)
            for order in itertools.permutations(xs)
        }
        assert len(docs) == 1
        assert [P.length for P in HilbPoint.from_json(json.loads(docs.pop())).pieces] == [4]


class TestBettiAssembly:
    def test_marked_roundtrip(self):
        M = from_points([(2, 1), (3, 1), (5, 1)])
        h = betti_marked(M)
        assert h.total == 3 and len(h.pieces) == 3
        M2 = betti_assemble(h)
        assert joint_spectrum_eq(M, M2)

    def test_unmarked_support(self):
        T = CommutingTuple([Matrix.exact([[2, 1], [0, 2]]), Matrix.exact([[3, 0], [0, 3]])])
        s = betti_unmarked(T)
        assert s.support[0][1] == 2

    def test_hilbert_chow_weights(self):
        sp = FiberSpace.betti(1)
        h = HilbPoint(sp, [_piece(_exact_pt(1, 1), 2, 2), _piece(_exact_pt(3, 1), 1, 2)])
        s = hilbert_chow(h)
        assert {(p[0], k) for p, k in s.support} == {
            (Scalar.exact(1), 2),
            (Scalar.exact(3), 1),
        }


def joint_spectrum_eq(M1, M2):
    from abelmod.adhm import joint_spectrum

    return joint_spectrum(M1.tuple) == joint_spectrum(M2.tuple)


class TestRiemannHilbert:
    def _hilb(self):
        sp = FiberSpace.betti(1)
        return HilbPoint(sp, [_piece(_exact_pt(2, 1), 2, 2), _piece(_exact_pt("1/2", 3), 1, 2)])

    def test_roundtrip_nilpotents_bitwise(self):
        h = self._hilb()
        model = square_model(1)
        back = rh_to_betti(rh_to_derham(h, model))
        assert len(back.pieces) == len(h.pieces)
        for P, Q in zip(h.pieces, back.pieces):
            for A, B in zip(P.N.B, Q.N.B):
                assert A == B  # exact nilpotent data survives bitwise
            assert max(abs(a.cx - b.cx) for a, b in zip(P.point, Q.point)) <= 1e-10

    def test_rank1_leg_matches_cmath_reference(self):
        model = square_model(1)
        sp = FiberSpace.betti(1)
        h = HilbPoint(sp, [_piece(_exact_pt(2, 1), 1, 2)])
        mid = rh_to_derham(h, model)
        want = [fold_imag(cmath.log(z)) for z in (2.0, 1.0)]
        got = [c.cx for c in mid.pieces[0].point]
        assert got == want  # bitwise: same log on both paths
        back = [cmath.exp(a) for a in want]
        assert [c.cx for c in rh_to_betti(mid).pieces[0].point] == back

    def test_unit_holonomy_and_zero_exponent_stay_exact(self):
        # log 1 = 0 and exp 0 = 1 are the base values that stay exact;
        # the other coordinate, log 2, turns float
        N = Matrix.exact([[0, "1/3", 5], [0, 0, -2], [0, 0, 0]])
        parts = CommutingTuple([N, Matrix.zeros(3, 3, EXACT)])
        mark = Matrix.column([Scalar.exact(0), Scalar.exact(0), Scalar.exact(1)])
        h = HilbPoint(FiberSpace.betti(1), [PunctualData(_exact_pt(1, 2), parts, mark)])
        mid = rh_to_derham(h, square_model(1))
        P = mid.pieces[0]
        assert P.point[0] == Scalar.exact(0) and P.point[1].mode == FLOAT
        assert mid.to_json()["pieces"][0]["point"]["coords"][0] == {"re": "0", "im": "0"}
        assert P.N.mode == EXACT and P.N[0] == log1p_matrix(N)
        Q = rh_to_betti(mid).pieces[0]
        assert Q.point[0] == Scalar.exact(1)
        assert Q.N.mode == EXACT and Q.N[0] == N and Q.N[1].is_zero()

    def test_zero_holonomy_rejected(self):
        sp = FiberSpace.betti(1)
        h = HilbPoint(sp, [_piece(_exact_pt(0, 1), 1, 2)])
        with pytest.raises(LogAtZeroError):
            rh_to_derham(h, square_model(1))


class TestHodge:
    def _natural(self):
        model = square_model(1)
        sp = FiberSpace.betti(1)
        h = HilbPoint(sp, [_piece(_exact_pt(2, 1), 2, 2)])
        return rh_to_derham(h, model)

    @pytest.mark.parametrize("tau", [1.0, 2.0, 0.5, 1j])
    def test_deform_undeform_roundtrip(self, tau):
        h = self._natural()
        assert hodge_undeform(hodge_deform(h, tau)).close_to(h, 1e-8)

    def test_tau_zero_rejected(self):
        with pytest.raises(TauZeroError):
            hodge_deform(self._natural(), 0.0)

    def test_rescale_composition_exact(self):
        # exact split coordinates with exact factors compose bitwise;
        # the float pieces a deformation produces would not
        model = square_model(1)
        sp = FiberSpace.hodge(model, Scalar.exact(1))
        shift = Matrix.exact([[0, 1], [0, 0]])
        piece = PunctualData(
            (Scalar.exact("1/3"), Scalar.exact("1/7")),
            CommutingTuple([shift, Matrix.zeros(2, 2, EXACT)]),
            Matrix.column([Scalar.exact(0), Scalar.exact(1)]),
        )
        h = HilbPoint(sp, [piece])
        f1, f2 = Scalar.exact("2/3"), Scalar.exact("-3/5", "1/2")
        a = hodge_rescale(hodge_rescale(h, f1), f2)
        b = hodge_rescale(h, f1 * f2)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


class TestRank1Identify:
    def test_betti_character(self):
        sp = FiberSpace.betti(1)
        out = rank1_identify(sp, _exact_pt(2, 3))
        assert out["kind"] == "local-system"

    def test_natural_connection(self):
        m = square_model(1)
        out = rank1_identify(FiberSpace.natural(m), (Scalar.flt(0.1), Scalar.flt(0.2)))
        assert out["kind"] == "connection" and "line_bundle" in out

    def test_hodge_kind(self):
        m = square_model(1)
        sp = FiberSpace.hodge(m, 0.5)
        out = rank1_identify(sp, (Scalar.flt(0.1), Scalar.flt(0.2)))
        assert out["kind"] == "tau-connection" and "tau" in out


class TestDiagram:
    def test_marked_square_commutes(self):
        M = from_points([(2, 1), (3, 1), (1, 2)])
        assert diagram_check(M, tol=1e-8)

    def test_float_instance(self):
        M = from_points([(2.0, 1.0), (0.5, 1.5)], mode=FLOAT)
        assert diagram_check(M, tol=1e-8)
