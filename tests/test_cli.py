"""Front-end contract: schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abelmod
from abelmod.cli import main
from abelmod.torus import square_model


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _read(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def _sc(p, q="0"):
    return {"re": p, "im": q}


def _stable_pair():
    return {
        "m": 2,
        "n": 2,
        "mode": "exact",
        "B": [
            [[_sc("0"), _sc("1")], [_sc("0"), _sc("0")]],
            [[_sc("1/2"), _sc("0")], [_sc("0"), _sc("1/2")]],
        ],
        "v": [_sc("0"), _sc("1")],
    }


def _unstable_diag():
    return {
        "m": 1,
        "n": 2,
        "mode": "exact",
        "B": [[[_sc("1"), _sc("0")], [_sc("0"), _sc("2")]]],
        "v": [_sc("1"), _sc("0")],
    }


class TestStability:
    def test_unstable_with_witness(self, tmp_path):
        inp = _write(tmp_path, "in.json", _unstable_diag())
        rc = main(["stability", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        doc = _read(tmp_path, "out.json")
        assert doc["schema"] == "abelmod/1"
        assert doc["stable"] is False
        # the span of e_1: the invariant line the marking generates
        assert doc["witness_subspace"] == [[_sc("1")], [_sc("0")]]

    def test_stable(self, tmp_path):
        inp = _write(tmp_path, "in.json", _stable_pair())
        rc = main(["stability", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        doc = _read(tmp_path, "out.json")
        assert doc["stable"] is True and doc["witness_subspace"] is None


class TestClassify:
    def test_de_rham_label_and_dual(self, tmp_path):
        eye = [[_sc("1"), _sc("0")], [_sc("0"), _sc("1")]]
        zero = [[_sc("0"), _sc("0")], [_sc("0"), _sc("0")]]
        doc = {"d": 2, "v": 2, "mode": "exact", "alpha": eye, "beta": zero, "gamma": zero}
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["classify-dalgebra", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert out["label"] == "DeRham"
        # the dual triple carries alpha into beta
        assert out["fm_dual"]["beta"] == eye
        assert out["invariants"]["rank_alpha"] == 2

    def test_small_float_gamma_that_is_not_alternating(self, tmp_path):
        # gamma = 1e-12 Id is symmetric, not alternating, however small
        eye, zero = ([[_sc(x), _sc(0.0)], [_sc(0.0), _sc(x)]] for x in (1.0, 0.0))
        gamma = [[_sc(1e-12), _sc(0.0)], [_sc(0.0), _sc(1e-12)]]
        doc = {"d": 2, "v": 2, "mode": "float", "alpha": eye, "beta": zero, "gamma": gamma}
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["classify-dalgebra", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 1
        assert _read(tmp_path, "out.json")["error"] == "Malformed"

    @pytest.mark.parametrize("given", ["float", "exact-coerced"])
    def test_float_triple_reads_the_tolerance_flags(self, tmp_path, given):
        # alpha = (1 + 1e-6) Id is one Id within eps_eq = 1e-3: de Rham,
        # whether the triple is given in float or coerced from exact
        def grid(x):
            return [[_sc(x), _sc(0 * x)], [_sc(0 * x), _sc(x)]]

        if given == "float":
            doc = {"d": 2, "v": 2, "mode": "float", "alpha": grid(1 + 1e-6), "beta": grid(0.0), "gamma": grid(0.0)}
            mode = []
        else:
            z = {"re": "0", "im": "0"}
            zero = [[z, z], [z, z]]
            alpha = [[_sc("1000001/1000000"), z], [z, _sc("1000001/1000000")]]
            doc = {"d": 2, "v": 2, "mode": "exact", "alpha": alpha, "beta": zero, "gamma": zero}
            mode = ["--mode", "float"]
        inp = _write(tmp_path, "in.json", doc)
        argv = ["classify-dalgebra", *mode, "--eps-eq", "1e-3", "--eps-lattice", "1e-2", "--in", inp]
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert _read(tmp_path, "out.json")["label"] == "DeRham"


class TestCanonicalizeAndSpectrum:
    def test_canonicalize_staircase(self, tmp_path):
        inp = _write(tmp_path, "in.json", _stable_pair())
        rc = main(["canonicalize", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert out["staircase"] == [[0, 0], [1, 0]]

    def test_canonicalize_unstable_is_domain_error(self, tmp_path):
        inp = _write(tmp_path, "in.json", _unstable_diag())
        rc = main(["canonicalize", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert _read(tmp_path, "out.json")["error"] == "NotStable"

    def test_spectrum_support(self, tmp_path):
        inp = _write(tmp_path, "in.json", _stable_pair())
        rc = main(["spectrum", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert out["support"][0]["multiplicity"] == 2

    def test_float_support_of_large_entries(self, tmp_path):
        # diag(1, 2, 3) with 1e9 added to every entry: its two small
        # eigenvalues lie closer than eps_eq |B| and merge, but the input is
        # valid and must not be refused
        rows = [[_sc(str(10**9 + (i + 1) * (i == j))) for j in range(3)] for i in range(3)]
        doc = {"m": 1, "n": 3, "mode": "exact", "B": [rows], "v": [_sc("1"), _sc("0"), _sc("0")]}
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["spectrum", "--mode", "float", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert sum(s["multiplicity"] for s in out["support"]) == 3

    def test_non_split_names_the_decomposition_degree(self, tmp_path):
        # diag(8, 8, 1, 1) and a second member with eigenvalues +-sqrt 2 on
        # the first block and +-sqrt 3 on the second: the first member does
        # not separate the points, and the combination L of both does not
        # split at degree 4, where the primary decomposition stops
        rows = [[[8, 0, 0, 0], [0, 8, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]]
        doc = {"m": 2, "n": 4, "mode": "exact", "B": [[[_sc(str(x)) for x in r] for r in A] for A in rows]}
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["spectrum", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 2
        out = _read(tmp_path, "out.json")
        assert (out["error"], out["detail"]) == ("NonSplitCharPoly", "no Gaussian-rational root found at degree 4")


def _diag(values):
    n = len(values)
    return [[_sc(str(values[i] if i == j else 0)) for j in range(n)] for i in range(n)]


class TestExactBeyondTheDoubleRange:
    """Exact input whose float scales (norms, moduli, root seeds) leave
    the double range still gets its exact answer."""

    def _run(self, tmp_path, args, doc):
        inp = _write(tmp_path, "in.json", doc)
        assert main(args + ["--in", inp, "--out", str(tmp_path / "out.json")]) == 0
        return _read(tmp_path, "out.json")

    @pytest.mark.parametrize(
        "gamma, label",
        [([0, 0], "TauConnection"), ([1, -1], "Generic")],
        ids=["scalar-alpha", "alternating-gamma"],
    )
    def test_classify_dalgebra(self, tmp_path, gamma, label):
        e = 10**200
        doc = {
            "d": 2, "v": 2, "mode": "exact", "alpha": _diag([e, e]), "beta": _diag([0, 0]),
            "gamma": [[_sc("0"), _sc(str(gamma[0] * e))], [_sc(str(gamma[1] * e)), _sc("0")]],
        }
        out = self._run(tmp_path, ["classify-dalgebra"], doc)
        assert out["label"] == label
        assert out.get("tau") == (_sc(str(e)) if label == "TauConnection" else None)

    @pytest.mark.parametrize("flag", [False, True], ids=["computed-flag", "given-flag"])
    def test_rees_limit(self, tmp_path, flag):
        e = 10**200
        doc = {"m": 1, "n": 2, "mode": "exact", "B": [[[_sc(str(e)), _sc("1")], [_sc("0"), _sc(str(2 * e))]]]}
        if flag:
            doc["g"] = _diag([1, 1])
        out = self._run(tmp_path, ["rees", "--weights", "1,0"], doc)
        assert out["B"] == [_diag([e, 2 * e])]

    @pytest.mark.parametrize(
        "values",
        [[10**30 + i for i in range(11)], [10**160, 2 * 10**160]],
        ids=["seeds-past-the-range", "norms-past-the-range"],
    )
    def test_spectrum(self, tmp_path, values):
        doc = {"m": 1, "n": len(values), "mode": "exact", "B": [_diag(values)]}
        out = self._run(tmp_path, ["spectrum"], doc)
        assert out["support"] == [{"point": [_sc(str(x))], "multiplicity": 1} for x in values]

    def test_canonicalize(self, tmp_path):
        values = [10**160, 2 * 10**160]
        doc = {"m": 1, "n": 2, "mode": "exact", "B": [_diag(values)], "v": [_sc("1"), _sc("1")]}
        out = self._run(tmp_path, ["canonicalize"], doc)
        assert out["staircase"] == [[0], [1]]
        assert out["support"] == [{"point": [_sc(str(x))], "multiplicity": 1} for x in values]


class TestFloatsPastTheDoubleRange:
    """Exact values that a command must take as floats, past the double
    range, are malformed, as out-of-range flag literals are: exit 1 with
    a Malformed report in the output file and nothing on stdout."""

    def _malformed(self, tmp_path, capsys, args, doc):
        inp = _write(tmp_path, "in.json", doc)
        assert main(args + ["--in", inp, "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().out == ""
        assert _read(tmp_path, "out.json")["error"] == "Malformed"

    def test_hodge_tau(self, tmp_path, capsys):
        doc = _hilb_doc()
        doc["space"] = {"kind": "natural", "d": 1, "model": square_model(1).to_json()}
        self._malformed(tmp_path, capsys, ["hodge-deform", "--tau", "1e999"], doc)

    def test_betti_coordinate(self, tmp_path, capsys):
        doc = _hilb_doc()
        doc["pieces"][0]["point"]["coords"][0] = _sc(str(10**400))
        self._malformed(tmp_path, capsys, ["rh-transform", "--from", "betti", "--to", "derham"], doc)

    def test_float_spectrum_of_an_exact_entry(self, tmp_path, capsys):
        doc = {"m": 1, "n": 1, "mode": "exact", "B": [_diag([10**400])]}
        self._malformed(tmp_path, capsys, ["spectrum", "--mode", "float"], doc)


@pytest.mark.parametrize("tau", ["1e200", "1e300"])
def test_hodge_tau_whose_square_is_past_the_double_range(tmp_path, tau):
    """A finite tau deforms the golden natural-chart point, although
    tau^2, the bound of the nilpotency test of the tau-scaled parts, is
    past the double range: the test answers on a copy scaled by a power
    of two."""
    from test_golden import NATURAL_H

    inp = _write(tmp_path, "in.json", NATURAL_H)
    assert main(["hodge-deform", "--tau", tau, "--in", inp, "--out", str(tmp_path / "out.json")]) == 0
    out = _read(tmp_path, "out.json")
    assert [len(p["punctual"]["N"][0]) for p in out["pieces"]] == [2, 1]
    N = out["pieces"][0]["punctual"]["N"][0]
    assert math.isfinite(N[0][1]["im"]) and abs(N[0][1]["im"]) >= float(tau)


class TestRees:
    def test_family_and_limit(self, tmp_path):
        doc = {
            "m": 1,
            "n": 2,
            "mode": "exact",
            "B": [[[_sc("1"), _sc("1")], [_sc("0"), _sc("2")]]],
            "g": [[_sc("1"), _sc("0")], [_sc("0"), _sc("1")]],
        }
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["rees", "--weights", "1,0", "--t", "1/3", "--in", inp, "--out", str(tmp_path / "f.json")])
        assert rc == 0
        fam = _read(tmp_path, "f.json")
        assert fam["B"][0][0][1] == _sc("1/3")
        rc = main(["rees", "--weights", "1,0", "--in", inp, "--out", str(tmp_path / "l.json")])
        assert rc == 0
        lim = _read(tmp_path, "l.json")
        assert lim["B"][0][0][1] == _sc("0")

    def test_decimal_parameter_stays_exact(self, tmp_path):
        doc = {
            "m": 1,
            "n": 2,
            "mode": "exact",
            "B": [[[_sc("1"), _sc("1")], [_sc("0"), _sc("2")]]],
            "g": [[_sc("1"), _sc("0")], [_sc("0"), _sc("1")]],
        }
        inp = _write(tmp_path, "in.json", doc)
        for name, t in (("dec.json", "0.5"), ("rat.json", "1/2")):
            rc = main(["rees", "--weights", "1,0", "--t", t, "--in", inp, "--out", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "dec.json").read_bytes() == (tmp_path / "rat.json").read_bytes()

    def test_increasing_weights_rejected(self, tmp_path):
        doc = {
            "m": 1,
            "n": 2,
            "mode": "exact",
            "B": [[[_sc("1"), _sc("0")], [_sc("0"), _sc("2")]]],
            "g": [[_sc("1"), _sc("0")], [_sc("0"), _sc("1")]],
        }
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["rees", "--weights", "0,1", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert _read(tmp_path, "out.json")["error"] == "WeightsNotDecreasing"

    def test_float_limit_without_flag(self, tmp_path):
        # the tuple of tests/test_adhm.py::TestTriangularize::
        # test_float_tuple_with_repeated_first_coordinate: its flag is
        # computed in float mode as in exact mode
        B = [
            [["-14", "7", "14"], ["-7", "0", "14"], ["0", "0", "-7"]],
            [[("-16", "-6"), ("9", "6"), ("18", "12")], [("-9", "-6"), ("2", "6"), ("-8", "52/3")], ["0", "0", ("6", "-8/3")]],
        ]
        rows = [[[_sc(*x) if isinstance(x, tuple) else _sc(x) for x in r] for r in Bj] for Bj in B]
        inp = _write(tmp_path, "in.json", {"m": 2, "n": 3, "mode": "exact", "B": rows})
        for mode in ([], ["--mode", "float"]):
            rc = main(["rees", *mode, "--weights", "1,0,0", "--in", inp, "--out", str(tmp_path / "out.json")])
            assert rc == 0
            assert "error" not in _read(tmp_path, "out.json")

    @pytest.mark.parametrize(
        "flags, rc, error",
        [
            (["--weights", "x,y"], 1, "Malformed"),
            (["--weights", "1,0", "--t", "zz"], 1, "Malformed"),
            (["--weights", "1,0"], 2, "NonSplitCharPoly"),
        ],
        ids=["bad-weights", "bad-t", "valid-flags"],
    )
    def test_flags_are_read_before_the_flag_is_computed(self, tmp_path, flags, rc, error):
        # [[0, 2], [1, 0]] has eigenvalues +-sqrt(2): computing its flag
        # raises NonSplitCharPoly, which malformed flags must not reach
        doc = {"m": 1, "n": 2, "mode": "exact", "B": [[[_sc("0"), _sc("2")], [_sc("1"), _sc("0")]]]}
        inp = _write(tmp_path, "in.json", doc)
        assert main(["rees", *flags, "--in", inp, "--out", str(tmp_path / "out.json")]) == rc
        assert _read(tmp_path, "out.json")["error"] == error

    @pytest.mark.parametrize("c,c2", [("1e-10", "2e-10"), ("1", "2"), ("1e10", "2e10")])
    def test_float_flag_that_is_not_invariant(self, tmp_path, c, c2):
        # in the basis g = [[1, 0], [1, 1]] the member c diag(1, 2) has the
        # strict lower entry c: far above rounding at every scale
        doc = {
            "m": 1,
            "n": 2,
            "mode": "exact",
            "B": [[[_sc(c), _sc("0")], [_sc("0"), _sc(c2)]]],
            "g": [[_sc("1"), _sc("0")], [_sc("1"), _sc("1")]],
        }
        inp = _write(tmp_path, "in.json", doc)
        rc = main(["rees", "--mode", "float", "--weights", "1,0", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert _read(tmp_path, "out.json")["error"] == "FlagNotInvariant"


def _hilb_doc():
    # one punctual piece of length 2 over z = (2, 3) in the betti chart
    shift = [[_sc("0"), _sc("1")], [_sc("0"), _sc("0")]]
    zero = [[_sc("0"), _sc("0")], [_sc("0"), _sc("0")]]
    return {
        "space": {"kind": "betti", "d": 1},
        "pieces": [
            {
                "point": {"coords": [_sc("2"), _sc("3")]},
                "punctual": {"mode": "exact", "N": [shift, zero], "v": [_sc("0"), _sc("1")]},
            }
        ],
    }


class TestHilbCommands:
    def test_hilbert_chow_mult(self, tmp_path):
        inp = _write(tmp_path, "in.json", _hilb_doc())
        rc = main(["hilbert-chow", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert out["support"][0]["multiplicity"] == 2

    def test_rh_roundtrip_through_files(self, tmp_path):
        inp = _write(tmp_path, "in.json", _hilb_doc())
        rc = main(["rh-transform", "--from", "betti", "--to", "derham", "--in", inp, "--out", str(tmp_path / "mid.json")])
        assert rc == 0
        mid = _read(tmp_path, "mid.json")
        assert mid["space"]["kind"] == "natural"
        mid.pop("schema")
        inp2 = _write(tmp_path, "mid2.json", mid)
        rc = main(["rh-transform", "--from", "derham", "--to", "betti", "--in", inp2, "--out", str(tmp_path / "back.json")])
        assert rc == 0
        back = _read(tmp_path, "back.json")
        z = back["pieces"][0]["point"]["coords"]
        assert abs(z[0]["re"] - 2) < 1e-9 and abs(z[1]["re"] - 3) < 1e-9

    def test_wrong_chart_is_malformed(self, tmp_path):
        inp = _write(tmp_path, "in.json", _hilb_doc())
        rc = main(["rh-transform", "--from", "derham", "--to", "betti", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 1

    def test_hodge_deform_tau(self, tmp_path):
        inp = _write(tmp_path, "in.json", _hilb_doc())
        main(["rh-transform", "--from", "betti", "--to", "derham", "--in", inp, "--out", str(tmp_path / "mid.json")])
        mid = _read(tmp_path, "mid.json")
        mid.pop("schema")
        inp2 = _write(tmp_path, "mid2.json", mid)
        rc = main(["hodge-deform", "--tau", "1/2", "--in", inp2, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert out["space"]["kind"] == "hodge"
        assert out["space"]["tau"] == _sc("1/2")

    def test_hodge_tau_zero_is_domain_error(self, tmp_path):
        inp = _write(tmp_path, "in.json", _hilb_doc())
        main(["rh-transform", "--from", "betti", "--to", "derham", "--in", inp, "--out", str(tmp_path / "mid.json")])
        mid = _read(tmp_path, "mid.json")
        mid.pop("schema")
        inp2 = _write(tmp_path, "mid2.json", mid)
        rc = main(["hodge-deform", "--tau", "0", "--in", inp2, "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert _read(tmp_path, "out.json")["error"] == "TauZero"


def _rees_doc(mode):
    one, zero, two = ("1", "0", "2") if mode == "exact" else (1.0, 0.0, 2.0)
    return {
        "m": 1,
        "n": 2,
        "mode": mode,
        "B": [[[_sc(one, zero), _sc(one, zero)], [_sc(zero, zero), _sc(two, zero)]]],
        "g": [[_sc(one, zero), _sc(zero, zero)], [_sc(zero, zero), _sc(one, zero)]],
    }


class TestNonFiniteParameters:
    """nan, inf and literals beyond double range are malformed parameters,
    refused when parsed: exit 1 with a Malformed report in the output
    file and nothing on stdout."""

    def _rejected(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "out.json")])
        assert rc == 1
        assert capsys.readouterr().out == ""
        doc = _read(tmp_path, "out.json")
        assert doc["error"] == "Malformed"
        assert "is not finite" in doc["detail"]

    def test_hodge_tau_nan(self, tmp_path, capsys):
        inp = _write(tmp_path, "in.json", _hilb_doc())
        main(["rh-transform", "--from", "betti", "--to", "derham", "--in", inp, "--out", str(tmp_path / "mid.json")])
        mid = _read(tmp_path, "mid.json")
        mid.pop("schema")
        inp2 = _write(tmp_path, "mid2.json", mid)
        self._rejected(tmp_path, capsys, ["hodge-deform", "--tau", "nan", "--in", inp2])

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_rees_t_nan(self, tmp_path, capsys, mode):
        inp = _write(tmp_path, "in.json", _rees_doc(mode))
        self._rejected(tmp_path, capsys, ["rees", "--weights", "1,0", "--t", "nan", "--in", inp])

    def test_rees_t_overflow_in_float_mode(self, tmp_path, capsys):
        inp = _write(tmp_path, "in.json", _rees_doc("float"))
        self._rejected(tmp_path, capsys, ["rees", "--weights", "1,0", "--t", "1e999", "--in", inp])

    def test_huge_decimal_stays_exact_in_exact_mode(self, tmp_path):
        inp = _write(tmp_path, "in.json", _rees_doc("exact"))
        rc = main(["rees", "--weights", "1,0", "--t", "1e999", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        assert _read(tmp_path, "out.json")["B"][0][0][1] == _sc("1" + "0" * 999)


class TestToleranceFlags:
    """A tolerance frame the flags cannot build (a non-positive, nan or
    infinite tolerance, eps_eq above eps_lattice) is malformed input: exit
    1 with a Malformed report, no traceback."""

    @pytest.mark.parametrize(
        "flags",
        [["--eps-eq", "1e-6"], ["--eps-rank", "-1"], ["--eps-eq", "nan"]],
        ids=["eq-above-lattice", "negative-rank", "nan-eq"],
    )
    def test_bad_frame_is_malformed(self, tmp_path, capsys, flags):
        inp = _write(tmp_path, "in.json", _stable_pair())
        rc = main(["spectrum", "--mode", "float", "--in", inp, "--out", str(tmp_path / "out.json")] + flags)
        assert rc == 1
        assert capsys.readouterr().out == ""
        doc = _read(tmp_path, "out.json")
        assert doc["schema"] == "abelmod/1" and doc["error"] == "Malformed"

    @pytest.mark.parametrize("flag", ["--eps-rank", "--eps-lattice"])
    def test_infinite_tolerance_is_malformed(self, tmp_path, capsys, flag):
        # diag(1, 2) marked by (1, 1) is stable; an infinite rank
        # tolerance would call every vector dependent and report it unstable
        B = [[_sc("1"), _sc("0")], [_sc("0"), _sc("2")]]
        inp = _write(tmp_path, "in.json", {"m": 1, "n": 2, "mode": "exact", "B": [B], "v": [_sc("1"), _sc("1")]})
        rc = main(["stability", "--mode", "float", flag, "inf", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 1
        assert capsys.readouterr().out == ""
        doc = _read(tmp_path, "out.json")
        assert doc["schema"] == "abelmod/1" and doc["error"] == "Malformed"


class TestMalformedGrids:
    """Exact JSON that cannot be a matrix (a ragged or empty grid) or a
    scalar with a zero denominator is malformed input: exit 1 with a
    Malformed report, no traceback."""

    def _malformed(self, tmp_path, capsys, command, doc, extra=()):
        inp = _write(tmp_path, "in.json", doc)
        rc = main([command, "--in", inp, "--out", str(tmp_path / "out.json"), *extra])
        assert rc == 1
        assert capsys.readouterr().out == ""
        out = _read(tmp_path, "out.json")
        assert out["schema"] == "abelmod/1" and out["error"] == "Malformed"
        return out["detail"]

    @pytest.mark.parametrize(
        "command, where, scalar",
        [
            ("spectrum", "B", _sc("1/0")),
            ("spectrum", "B", _sc("0", "-3/000")),
            ("stability", "B", _sc("1/0")),
            ("stability", "v", _sc("0", "0/0")),
        ],
    )
    def test_zero_denominator(self, tmp_path, capsys, command, where, scalar):
        doc = _unstable_diag()
        if where == "B":
            doc["B"][0][1][1] = scalar
        else:
            doc["v"][1] = scalar
        assert "zero denominator" in self._malformed(tmp_path, capsys, command, doc)

    @pytest.mark.parametrize("flag", ["--t", "--tau"])
    def test_zero_denominator_parameter(self, tmp_path, capsys, flag):
        if flag == "--t":
            detail = self._malformed(tmp_path, capsys, "rees", _rees_doc("exact"), ["--weights", "1,0", "--t", "1/0"])
        else:
            detail = self._malformed(tmp_path, capsys, "hodge-deform", _hilb_doc(), ["--tau", "2+1/0i"])
        assert "zero denominator" in detail

    @pytest.mark.parametrize("command", ["spectrum", "stability"])
    def test_ragged_member(self, tmp_path, capsys, command):
        # a 2x2 member whose second row has three entries
        doc = _unstable_diag()
        doc["B"][0][1].append(_sc("1"))
        self._malformed(tmp_path, capsys, command, doc)

    @pytest.mark.parametrize("member", [[], [[]]], ids=["no-rows", "empty-row"])
    def test_empty_member(self, tmp_path, capsys, member):
        doc = _unstable_diag()
        doc["B"] = [member]
        self._malformed(tmp_path, capsys, "spectrum", doc)

    @pytest.mark.parametrize("command", ["spectrum", "stability", "classify-dalgebra", "hilbert-chow"])
    @pytest.mark.parametrize("mode", ["exakt", "Exact", None])
    def test_unknown_mode(self, tmp_path, capsys, command, mode):
        # a misspelt mode is not float mode
        if command == "classify-dalgebra":
            eye = [[_sc("1"), _sc("0")], [_sc("0"), _sc("1")]]
            doc = {"d": 2, "v": 2, "mode": mode, "alpha": eye, "beta": eye, "gamma": eye}
        elif command == "hilbert-chow":
            doc = _hilb_doc()
            doc["pieces"][0]["punctual"]["mode"] = mode
        else:
            doc = _unstable_diag()
            doc["mode"] = mode
        assert "unknown mode" in self._malformed(tmp_path, capsys, command, doc)

    @pytest.mark.parametrize("command", ["spectrum", "stability"])
    @pytest.mark.parametrize("sizes", [{"m": 4, "n": 3}, {"m": 2}, {"n": 1}, {"n": "2"}])
    def test_declared_sizes_disagree(self, tmp_path, capsys, command, sizes):
        doc = _unstable_diag()  # one 2 x 2 member
        doc.update(sizes)
        assert "declared" in self._malformed(tmp_path, capsys, command, doc)

    def test_declared_sizes_may_be_left_out(self, tmp_path):
        doc = _unstable_diag()
        del doc["m"], doc["n"]
        rc = main(["stability", "--in", _write(tmp_path, "in.json", doc), "--out", str(tmp_path / "out.json")])
        assert rc == 0 and _read(tmp_path, "out.json")["stable"] is False


class TestCheckUsage:
    @pytest.mark.parametrize(
        "flags",
        [["--n-max", "0"], ["--n-max", "1"], ["--d-max", "0"], ["--n-max", "-3"], ["--samples", "0"], ["--samples", "-5"]],
    )
    def test_sizes_below_minimum_are_usage_errors(self, tmp_path, capsys, flags):
        rc = main(["check", "--samples", "2", "--out", str(tmp_path / "out.json")] + flags)
        assert rc == 1
        assert "must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestPlumbing:
    def test_unknown_flag_rejected(self, tmp_path):
        inp = _write(tmp_path, "in.json", _unstable_diag())
        assert main(["stability", "--in", inp, "--bogus"]) == 1

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c in ("hilbert-chow", "hodge-deform") for f in ("--mode", "--eps-rank", "--eps-eq", "--eps-lattice")]
        + [("rh-transform", "--mode")],
    )
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, tmp_path, capsys, command, flag):
        args = {"hodge-deform": ["--tau", "1/2"], "rh-transform": ["--from", "betti", "--to", "derham"]}
        inp = _write(tmp_path, "in.json", _hilb_doc())
        value = "float" if flag == "--mode" else "1e-8"
        argv = [command, *args.get(command, []), flag, value, "--in", inp, "--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["stability", "--in", str(p), "--out", str(tmp_path / "o.json")]) == 1

    def test_wrong_schema_tag(self, tmp_path):
        doc = _unstable_diag()
        doc["schema"] = "abelmod/999"
        inp = _write(tmp_path, "in.json", doc)
        assert main(["stability", "--in", inp, "--out", str(tmp_path / "o.json")]) == 1

    def test_batch_ordering_and_partial_failure(self, tmp_path):
        good = {"m": 1, "n": 1, "mode": "exact", "B": [[[_sc("5")]]], "v": [_sc("1")]}
        inp = _write(tmp_path, "in.json", [good, _unstable_diag(), good])
        rc = main(["canonicalize", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 2
        out = _read(tmp_path, "out.json")
        kinds = ["error" in r and r["error"] or "ok" for r in out["results"]]
        assert kinds == ["ok", "NotStable", "ok"]

    def test_mode_coercion(self, tmp_path):
        inp = _write(tmp_path, "in.json", _stable_pair())
        rc = main(["spectrum", "--mode", "float", "--in", inp, "--out", str(tmp_path / "out.json")])
        assert rc == 0
        out = _read(tmp_path, "out.json")
        assert isinstance(out["support"][0]["point"][0]["re"], float)

    def test_float_to_exact_refused(self, tmp_path):
        doc = {"m": 1, "n": 1, "mode": "float", "B": [[[{"re": 0.5, "im": 0.0}]]], "v": [{"re": 1.0, "im": 0.0}]}
        eye, zero = ([[_sc(x, 0.0), _sc(0.0, 0.0)], [_sc(0.0, 0.0), _sc(x, 0.0)]] for x in (1.0, 0.0))
        triple = {"d": 2, "v": 2, "mode": "float", "alpha": eye, "beta": zero, "gamma": zero}
        want = {"schema": "abelmod/1", "error": "Malformed", "detail": "cannot promote float data to exact mode"}
        for command, body in (("stability", doc), ("spectrum", doc), ("classify-dalgebra", triple)):
            inp = _write(tmp_path, "in.json", body)
            assert main([command, "--mode", "exact", "--in", inp, "--out", str(tmp_path / "o.json")]) == 1
            assert _read(tmp_path, "o.json") == want

    def test_byte_determinism(self, tmp_path):
        inp = _write(tmp_path, "in.json", _stable_pair())
        main(["canonicalize", "--in", inp, "--out", str(tmp_path / "a.json")])
        main(["canonicalize", "--in", inp, "--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


_CALLS = """
import contextlib, io, json, sys
from abelmod.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    seen.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(seen))
"""


class TestReentrancy:
    """main() builds its parser once per process and reuses it: every call
    in a sequence gives the exit code and output it gives as the first
    call of a fresh process."""

    def _run(self, calls):
        env = dict(os.environ, PYTHONPATH=str(Path(abelmod.__file__).resolve().parents[1]), COLUMNS="80")
        done = subprocess.run(
            [sys.executable, "-c", _CALLS, json.dumps(calls)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path):
        inp = _write(tmp_path, "in.json", _stable_pair())
        calls = [
            ["rees", "--in", inp],
            ["--help"],
            ["check", "--samples", "0"],
            ["spectrum", "--eps-rank", "-1", "--mode", "float", "--in", inp],
            ["spectrum", "--in", inp],
        ]
        together = self._run(calls)
        alone = [self._run([argv])[0] for argv in calls]
        assert together == alone
        assert [rc for rc, _, _ in together] == [1, 0, 1, 1, 0]
        assert together[1][1].startswith("usage: abelmod")
        assert json.loads(together[3][1])["error"] == "Malformed"
        assert json.loads(together[4][1])["support"][0]["multiplicity"] == 2
