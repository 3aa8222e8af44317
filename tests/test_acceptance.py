"""Acceptance gate: the nine property criteria at their stated scales.

Each test runs one criterion through the same seeded drivers the
``abelmod check`` command uses and prints one CRITERION line; run with
``pytest -s`` to see the lines, or ``-v`` for per-criterion status."""

from abelmod import checks


def _gate(row):
    verdict = "PASS" if row["pass"] else "FAIL"
    print(f"CRITERION {row['criterion']} {verdict} {row['name']}: {row['detail']}")
    assert row["pass"], f"criterion {row['criterion']} ({row['name']}) failed: {row['detail']}"


def test_criterion_1_triangularization_completeness():
    # 1000 float tuples, n <= 6, m <= 4; residuals <= 1e-8 relative
    _gate(checks.run_triangularization())


def test_criterion_2_stability_equivalence():
    # brute-force oracle on n <= 4; 500 instances of the
    # stability/automorphism equivalence up to n = 6
    _gate(checks.run_stability())


def test_criterion_3_hilb_canonical_form():
    # 300 stable exact tuples x 50 conjugations: bit-identical normal
    # form, staircase size n, division closure
    _gate(checks.run_hilb_canonical())


def test_criterion_4_rees_degeneration():
    # 300 flagged tuples: family commutes at 5 t's, spectrum drift
    # <= 1e-8, limit equals the semisimplification up to block order
    _gate(checks.run_rees())


def test_criterion_5_marked_diagram():
    # 500 stable invertible instances, d <= 2, n <= 5, tolerance 1e-8
    _gate(checks.run_marked_diagram())


def test_criterion_6_rh_roundtrip():
    # 200 points, n <= 5: nilpotents bitwise, bases <= 1e-10, rank-1
    # legs match the inline cmath reference (principal log on the
    # canonical branch, then exp) bitwise
    _gate(checks.run_rh_roundtrip())


def test_criterion_7_hodge_deformation():
    # roundtrip for tau in {1, 2, 1/2, i} on 100 points; exact-rational
    # composition law holds to the byte
    _gate(checks.run_hodge())


def test_criterion_8_dalgebra_calculus():
    # duality square, orbit invariants, Jacobi batteries, cohomology
    # dimensions against binomials
    _gate(checks.run_dalgebra())


def test_criterion_9_determinism():
    # the full battery serializes byte-identically across two runs
    _gate(checks.run_determinism())
