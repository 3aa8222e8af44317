"""Period lattices, their dual tori, and rank-1 points as length-1 chart
points of the moduli."""

import math

import numpy as np
import pytest

from abelmod.adhm import CommutingTuple, PunctualData
from abelmod.errors import (
    DegeneratePeriodMatrixError,
    LogAtZeroError,
    TauZeroError,
)
from abelmod.linalg import FLOAT, Matrix, Scalar
from abelmod.moduli import (
    FiberSpace,
    HilbPoint,
    hodge_undeform,
    rank1_identify,
    rh_to_betti,
    rh_to_derham,
)
from abelmod.torus import (
    AbelianVarietyModel,
    DualPoint,
    fold_imag,
    square_model,
)

def _length1(space, coords) -> HilbPoint:
    """The rank-1 module at a float chart point: one piece of length 1."""
    N = CommutingTuple([Matrix.zeros(1, 1, FLOAT) for _ in coords])
    point = tuple(Scalar.from_complex(c) for c in coords)
    return HilbPoint(space, [PunctualData(point, N, Matrix.column([Scalar.flt(1.0)]))])


def _cx(point) -> np.ndarray:
    return np.array([c.cx for c in point])


def _cxs(coords) -> list[complex]:
    """Float scalars back from their JSON form."""
    return [complex(c["re"], c["im"]) for c in coords]


class TestModel:
    def test_square_model_shape(self):
        m = square_model(2)
        assert m.d == 2 and m.period.shape == (2, 4)

    def test_degenerate_periods_rejected(self):
        with pytest.raises(DegeneratePeriodMatrixError):
            AbelianVarietyModel([[1.0, 2.0]])

    def test_json_roundtrip(self):
        m = AbelianVarietyModel([[1.0, 0.5 + 2j]])
        back = AbelianVarietyModel.from_json(m.to_json())
        assert back == m

    def test_split_inverts(self):
        m = square_model(2)
        a = np.array([0.3 + 1j, -0.2, 0.7, 1.1 - 0.5j])
        u, w = m.split_solve(a)
        assert np.allclose(m.split_matrix @ np.concatenate([u, w]), a)


class TestBranch:
    def test_fold_imag_range(self):
        for x in (0.0, 3.0, -3.5, 10.0):
            z = fold_imag(complex(0.1, x))
            assert -math.pi < z.imag <= math.pi

    def test_seam_lands_on_pi(self):
        assert fold_imag(complex(0, -math.pi)).imag == pytest.approx(math.pi)


class TestRiemannHilbert:
    def test_exp_log_roundtrip(self):
        m = square_model(1)
        h = _length1(FiberSpace.natural(m), [0.25 + 0.5j, -1.0 + 2.0j])
        assert rh_to_derham(rh_to_betti(h), m).close_to(h, 1e-12)

    def test_log_exp_roundtrip_multiplicative(self):
        z = [2.0 + 1.0j, 0.5j]
        back = rh_to_betti(rh_to_derham(_length1(FiberSpace.betti(1), z), square_model(1)))
        assert np.allclose(_cx(back.pieces[0].point), z)

    def test_zero_holonomy_rejected(self):
        with pytest.raises(LogAtZeroError):
            rh_to_derham(_length1(FiberSpace.betti(1), [0.0, 1.0]), square_model(1))

    def test_canonical_branch(self):
        sp = FiberSpace.natural(square_model(1))
        p = sp.canonical_point((Scalar.flt(0.0, math.pi + 0.5), Scalar.flt(1.0)))
        assert -math.pi < p[0].cx.imag <= math.pi
        assert p[0].cx.imag == pytest.approx(0.5 - math.pi)


class TestDualTorus:
    def test_lattice_count(self):
        assert square_model(2).dual_generators.shape == (2, 4)

    def test_dual_point_mod_lattice(self):
        m = square_model(1)
        w0 = np.array([0.3 + 0.4j])
        p = DualPoint(m, w0)
        q = DualPoint(m, w0 + m.dual_generators[:, 0])
        assert p.close_to(q)

    # the action of a global 1-form u translates the exponents by u . Pi:
    # the line bundle stays, the connection form moves by u
    def _gstar_pair(self):
        m = AbelianVarietyModel([[1.0, 0.5 + 2j]])
        sp = FiberSpace.natural(m)
        a = np.array([0.1 + 0.2j, -0.3])
        u = 0.7 - 0.1j
        moved = a + u * m.period[0]
        return u, rank1_identify(sp, a), rank1_identify(sp, moved)

    def test_projection_kills_linear_part(self):
        _, before, after = self._gstar_pair()
        w0, w1 = (_cxs(out["line_bundle"]["w"]) for out in (before, after))
        assert max(abs(x - y) for x, y in zip(w0, w1)) <= 1e-12

    @pytest.mark.parametrize("model", [square_model(1), AbelianVarietyModel([[1.0, 0.5 + 2j]])], ids=["square", "sheared"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_cover_representative_names_one_module(self, model, k):
        # a and a + 2 pi i e_k are one natural-chart point
        sp = FiberSpace.natural(model)
        a = np.array([0.1 + 0.2j, -0.3])
        outs = [rank1_identify(sp, b) for b in (a, a + 2j * math.pi * np.eye(2)[k])]
        before, after = ([*_cxs(out["line_bundle"]["w"]), *_cxs(out["connection_form"])] for out in outs)
        assert max(abs(x - y) for x, y in zip(before, after)) <= 1e-12

    def test_gstar_changes_linear_part(self):
        u, before, after = self._gstar_pair()
        (f0,), (f1,) = (_cxs(out["connection_form"]) for out in (before, after))
        assert abs((f1 - f0) - u) <= 1e-12


class TestHodgeChart:
    def test_scale_at_one_is_split(self):
        # at tau = 1 the natural point is the split (u, w); w's dual
        # coordinates floor to (0, -1), so rank1_identify reports the
        # canonical pair, less the shift 2 pi i (0, -1) whose (u, w) parts
        # are (-pi, pi)
        m = square_model(1)
        u, w = 0.3 + 0.1j, 0.04 + 0.03j
        nat = hodge_undeform(_length1(FiberSpace.hodge(m, Scalar.flt(1.0)), [u, w]))
        out = rank1_identify(nat.space, nat.pieces[0].point)
        assert out["kind"] == "connection"
        assert abs(_cxs(out["connection_form"])[0] - (u + math.pi)) <= 1e-12
        assert abs(_cxs(out["line_bundle"]["w"])[0] - (w - math.pi)) <= 1e-12

    def test_tau_zero_rejected(self):
        m = square_model(1)
        with pytest.raises(TauZeroError):
            hodge_undeform(_length1(FiberSpace.hodge(m, Scalar.flt(0.0)), [0.2, 0.1]))

    def test_fiber_scales_inversely(self):
        m = square_model(1)
        n1 = hodge_undeform(_length1(FiberSpace.hodge(m, Scalar.flt(2.0)), [0.8, 0.05]))
        n2 = hodge_undeform(_length1(FiberSpace.hodge(m, Scalar.flt(1.0)), [0.4, 0.05]))
        assert n1.close_to(n2, 1e-12)
