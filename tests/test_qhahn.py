"""Unit tests for the q-Hahn polynomial family and its coupling link."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qcgc import (
    CgcKey,
    HahnParams,
    QContext,
    cgc_from_hahn,
    delta_x_half,
    gram_entry,
    hahn_difference_residual,
    hahn_eval,
    hahn_norm_sq,
    hahn_ttrr_residual,
    hahn_weight,
    lattice_x,
    q_gamma_tilde,
)
from qcgc.cgc import admissible_keys, cgc_racah
from qcgc.halfint import HalfInt
from qcgc.qcore import QDomainError
from qcgc.qhahn import _connection_data

CTX = QContext(q="0.5", precision=50)
FAMILY = (5, 1, 2)  # N, alpha, beta


def test_params_validation():
    with pytest.raises(QDomainError):
        HahnParams(5, 5, 1, 1)  # n must stay below N
    with pytest.raises(QDomainError):
        HahnParams(-1, 5, 1, 1)
    p = HahnParams(1, 5, 1, 1)
    assert p.shifted(2).n == 3


@pytest.mark.parametrize("q", ["0.5", "1.25"])
def test_weight_at_a_negative_half_integer_gamma_argument(q):
    # beta = -3/2 at s = 0 puts Gamma_tilde(-1/2) in the weight's numerator
    ctx = QContext(q=q, precision=50)

    def gamma(x):
        return q_gamma_tilde(Fraction(x), ctx)

    expected = gamma("-1/2") * gamma(5) / (gamma(1) * gamma(4))
    value = hahn_weight(HahnParams(0, 4, 1, "-3/2"), 0, ctx)
    assert abs(value - expected) <= ctx.tol * abs(expected)


def test_lattice_classical_limit():
    ctx = QContext(q=1, precision=50)
    for s in range(5):
        assert lattice_x(s, ctx) == s


def test_lattice_step():
    with CTX.work():
        for s in range(1, 5):
            step = lattice_x(s, CTX) - lattice_x(s - 1, CTX)
            midpoint = HalfInt(twice=2 * s - 1)
            assert CTX.close(step, delta_x_half(midpoint, CTX))


def test_weight_positive_for_positive_parameters():
    params = HahnParams(0, *FAMILY)
    with CTX.work():
        for s in range(FAMILY[0]):
            assert hahn_weight(params, s, CTX) > 0


def test_degree_zero_is_constant_one():
    params = HahnParams(0, *FAMILY)
    with CTX.work():
        for s in range(FAMILY[0]):
            assert CTX.close(hahn_eval(params, s, CTX), 1)


def test_forms_agree():
    with CTX.work():
        for n in range(FAMILY[0]):
            params = HahnParams(n, *FAMILY)
            for s in range(FAMILY[0]):
                va = hahn_eval(params, s, CTX, form="A")
                vb = hahn_eval(params, s, CTX, form="B")
                assert CTX.close(va, vb)


def test_unknown_form_rejected():
    with pytest.raises(QDomainError):
        hahn_eval(HahnParams(1, *FAMILY), 0, CTX, form="C")


def test_orthogonality_and_norms():
    with CTX.work():
        cap_n = FAMILY[0]
        for n in range(cap_n):
            pn = HahnParams(n, *FAMILY)
            d_sq = hahn_norm_sq(pn, CTX)
            assert CTX.close(gram_entry(pn, pn, CTX), d_sq, scale=d_sq)
            for m in range(n + 1, cap_n):
                entry = gram_entry(pn, HahnParams(m, *FAMILY), CTX)
                assert abs(entry) < CTX.tol * mp.sqrt(
                    d_sq * hahn_norm_sq(HahnParams(m, *FAMILY), CTX))


def test_three_term_recurrence():
    with CTX.work():
        for n in range(FAMILY[0]):
            params = HahnParams(n, *FAMILY)
            for s in range(FAMILY[0]):
                assert hahn_ttrr_residual(params, s, CTX) < mpf("1e-30")


def test_difference_equation():
    with CTX.work():
        for n in range(FAMILY[0]):
            params = HahnParams(n, *FAMILY)
            for s in range(FAMILY[0]):
                assert hahn_difference_residual(params, s, CTX) < mpf("1e-30")


@pytest.mark.parametrize("q", ["0.5", "0.9", "1.25"])
def test_forms_match_high_precision(q):
    # (5, 7, 1, -3) restarts the absorbed series at k0 = 3, where
    # (beta+1+k|q)_(n-k) first has no zero bracket; (4, 6, 1/2, -5/2)
    # puts a half-integer beta below -1
    ctx, ref_ctx = QContext(q=q, precision=50), QContext(q=q, precision=130)
    for n, cap_n, alpha, beta in ((5, 7, 1, -3), (4, 6, "1/2", "-5/2"),
                                  (2, 6, "1/2", "3/2")):
        params = HahnParams(n, cap_n, alpha, beta)
        for s in range(cap_n):
            for form in "AB":
                ref = hahn_eval(params, s, ref_ctx, form=form)
                value = ref_ctx.to_mpf(hahn_eval(params, s, ctx, form=form))
                assert abs(value - ref) <= mpf("1e-50") * max(abs(ref), 1)


@pytest.mark.parametrize("q", ["0.5", "0.9", "1.25"])
def test_forms_agree_where_form_b_meets_its_pole(q):
    # the grid puts nonpositive integers N+alpha+beta+1 and beta+1 inside
    # the series' range, where form B cancels its prefactor's zero against
    # the pole (form A there: e.g. n=1, N=2, alpha=-3, beta=0, s=0 gives -2)
    ctx = QContext(q=q, precision=50)
    worst = 0
    for cap_n in range(1, 7):
        for n in range(cap_n):
            for ta in range(-6, 5):
                for tb in range(-6, 5):
                    params = HahnParams(n, cap_n, HalfInt(twice=ta),
                                        HalfInt(twice=tb))
                    for s in range(cap_n):
                        va = hahn_eval(params, s, ctx, form="A")
                        vb = hahn_eval(params, s, ctx, form="B")
                        worst = max(worst, abs(va - vb)
                                    / max(abs(va), abs(vb), 1))
    assert worst <= ctx.tol
    if q == "0.5":
        assert ctx.close(hahn_eval(HahnParams(1, 2, -3, 0), 0, ctx, form="B"),
                         -2)


def test_half_integer_parameter_family():
    with CTX.work():
        params = HahnParams(2, 6, "1/2", "3/2")
        for s in range(6):
            assert hahn_ttrr_residual(params, s, CTX) < mpf("1e-30")
            assert hahn_difference_residual(params, s, CTX) < mpf("1e-30")


def test_connection_routes_match_racah():
    with CTX.work():
        spins = [HalfInt(twice=t) for t in range(4)]
        for j1 in spins:
            for j2 in spins:
                for key in admissible_keys(j1, j2):
                    ref = cgc_racah(key, CTX)
                    assert CTX.close(cgc_from_hahn(key, CTX, route="J2"), ref)
                    assert CTX.close(cgc_from_hahn(key, CTX, route="J1"), ref)


def test_connection_handles_nonpositive_alpha_beta():
    # m < j1 - j2 pushes the substituted alpha to or below -1; the
    # integer-argument route must still reproduce the closed form
    key = CgcKey(2, 1, "1/2", "-1/2", "3/2", "1/2")
    with CTX.work():
        ref = cgc_racah(key, CTX)
        assert CTX.close(cgc_from_hahn(key, CTX, route="J2"), ref)
        assert CTX.close(cgc_from_hahn(key, CTX, route="J1"), ref)


def test_connection_zero_on_selection_failure():
    assert cgc_from_hahn(CgcKey(1, 0, 1, 1, 2, 0), CTX) == 0


def test_unknown_route_rejected():
    with pytest.raises(QDomainError):
        cgc_from_hahn(CgcKey(1, 0, 1, 0, 2, 0), CTX, route="J3")


def test_connection_data_are_integers_on_admissible_keys():
    # n = j - m, N, s and alpha, beta are sums of j -+ m labels on a key
    # that passes the selection rules, so cgc_from_hahn checks none of
    # them
    spins = [HalfInt(twice=t) for t in range(9)]
    for j1 in spins:
        for j2 in spins:
            for key in admissible_keys(j1, j2):
                for route in ("J2", "J1"):
                    data = _connection_data(key, route)[:5]
                    assert all(HalfInt(v).is_integer for v in data), (key, route)
