"""Acceptance criteria: one test (and one printed pass/fail line) each.

Every criterion runs at 50-digit working precision on the full stated
parameter grids; the tolerances below are part of the contract and must
not be loosened.
"""

from mpmath import mp

from qcgc import verify


def _report(number, label, checks, tolerance=None):
    # the suites fix their tolerances, so the contract is asserted here
    if tolerance is not None:
        assert [c.tolerance for c in checks] == [tolerance] * len(checks)
    tightest = max(checks, key=lambda c: mp.mpf(c.residual) / c.tolerance)
    passed = all(c.passed for c in checks)
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({label}): {status} "
          f"(tightest check {tightest.name}: residual "
          f"{mp.nstr(mp.mpf(tightest.residual), 4)}, "
          f"tolerance {tightest.tolerance:.0e})")
    detail = ", ".join(
        f"{c.name}={mp.nstr(mp.mpf(c.residual), 4)}" for c in checks)
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_cross_formula_agreement():
    checks = verify.cgc_formula_suite(
        precision=50, qs=("0.3", "0.5", "0.9"), j_cap=3)
    _report(1, "cross-formula agreement", checks, 1e-35)


def test_criterion_2_oracle_equivalence():
    checks = verify.cgc_oracle_suite(
        precision=50, qs=("0.5", "0.9"), j_cap="3/2")
    _report(2, "matrix-oracle equivalence", checks, 1e-30)


def test_criterion_3_unitarity():
    checks = verify.unitarity_suite(precision=50, qs=("0.5", "0.9"), j_cap=3)
    _report(3, "per-weight-block unitarity", checks, 1e-35)


def test_criterion_4_symmetries():
    # at q = 0.5
    checks = verify.symmetry_suite(precision=50, j_cap=3, samples=100)
    assert len(checks) == 7
    _report(4, "seven label symmetries", checks, 1e-35)


def test_criterion_5_special_values():
    checks = verify.special_value_suite(
        precision=50, qs=("0.5", "0.9"), j_cap=3, dixon_cap=4)
    _report(5, "special values and classical parity zeros", checks, 1e-35)


def test_criterion_6_recurrences():
    checks = verify.recurrence_suite(
        precision=50, qs=("0.5", "0.7"), j_cap=2)
    _report(6, "three-term recurrences", checks, 1e-30)


def test_criterion_7_hahn_data():
    assert verify.HAHN_FAMILIES == ((4, 1, 1), (5, 1, 2), (6, "1/2", "3/2"))
    checks = verify.hahn_suite(precision=50, qs=("0.5", "0.9"))
    _report(7, "q-Hahn orthogonality, recurrence, difference equation",
            checks, 1e-30)


def test_criterion_8_hahn_connection():
    checks = verify.connection_suite(
        precision=50, qs=("0.5", "0.9"), j_cap=2)
    _report(8, "coupling-to-Hahn connection (both routes)", checks, 1e-30)


def test_criterion_9_series_identity_layer():
    checks = (verify.qhyper_suite(precision=50, samples=200)
              + verify.repsu_suite(precision=50))
    _report(9, "summation/transformation formulas and operator identities",
            checks, 1e-35)


def test_criterion_10_classical_limit():
    checks = verify.classical_limit_suite(precision=50, j_cap="3/2")
    assert {c.name: c.tolerance for c in checks} == {
        "classical_limit_cgc": 1e-5, "classical_limit_qnum": 1e-6}
    _report(10, "classical limit at q = 1 - 1e-6", checks)
