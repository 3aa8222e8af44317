"""Battery plumbing: scaling, report shape, reproducibility."""

import hashlib
import json
import random

import pytest

from abelmod.checks import SCHEMA, _annulus, _count, _hilb, run_all
from abelmod.linalg import EXACT
from abelmod.moduli import FiberSpace
from abelmod.torus import square_model


class TestScaling:
    def test_reference_scale_is_identity(self):
        assert _count(500, 1000) == 1000
        assert _count(500, 300) == 300

    def test_proportional_and_floored(self):
        assert _count(50, 1000) == 100
        assert _count(1, 300) == 2  # floor keeps every criterion alive


class TestReport:
    def test_shape_and_schema(self):
        rep = run_all(samples=4, seed=3, n_max=4, d_max=2)
        assert rep["schema"] == SCHEMA
        assert [r["criterion"] for r in rep["criteria"]] == list(range(1, 10))
        for r in rep["criteria"]:
            assert set(r) == {"criterion", "name", "pass", "detail"}

    def test_seed_reproducible_bytes(self):
        a = run_all(samples=4, seed=9, n_max=4, d_max=2)
        b = run_all(samples=4, seed=9, n_max=4, d_max=2)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        a = run_all(samples=4, seed=1, n_max=4, d_max=2)
        b = run_all(samples=4, seed=2, n_max=4, d_max=2)
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def _sha1(doc) -> str:
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestDraws:
    """The chart points the battery draws, pinned as SHA-1 digests by
    (seed, d, n).  The generators use only Python's random and exact or
    plain-double arithmetic, so the digests do not depend on the BLAS; a
    change that moves one random draw moves a digest."""

    BETTI = {
        (1, 1, 3): "bc4102aed1cbd3b4e0a37b0b2dfdd5427cf618ff",
        (2, 2, 4): "279db731eb179a03d6eaa185488cac1aacf0b894",
        (3, 1, 5): "b0cdb90818265f6f38f63ce7bf5c43bf5f715c00",
        (4, 2, 2): "f9a6ee2c4e47ad8de643c689c6d251ba57aa2d91",
        (5, 1, 4): "c8beecc9ecded961c0b69851bd0136112f4cbaee",
    }
    NATURAL = {
        (1, 1, 3): "1ef7f949954faf88a85720f01ea1ac34c7e1702e",
        (2, 2, 4): "b00f9614fd32b15bde325095051250805bd49d90",
        (3, 1, 4): "429498636cb804668ccbaccddf6c1e216e7a400d",
        (4, 2, 2): "886e5042ad8dad300b58b14f3788ed4ba6d083d8",
    }

    @pytest.mark.parametrize("seed, d, n", sorted(BETTI))
    def test_exact_betti_points(self, seed, d, n):
        # as criterion 6 draws them
        rng = random.Random(seed)
        h = _hilb(rng, FiberSpace.betti(d), n, lambda: _annulus(rng, 0.45, 2.0), EXACT)
        assert _sha1(h.to_json()) == self.BETTI[seed, d, n]

    @pytest.mark.parametrize("seed, d, n", sorted(NATURAL))
    def test_natural_points(self, seed, d, n):
        # as criterion 7 draws them
        rng = random.Random(seed)
        space = FiberSpace.natural(square_model(d))
        h = _hilb(rng, space, n, lambda: complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.6, 2.6)))
        points = [[P.length] + [(c.re.hex(), c.im.hex()) for c in P.point] for P in h.pieces]
        assert _sha1(points) == self.NATURAL[seed, d, n]
