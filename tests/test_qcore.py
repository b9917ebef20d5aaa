"""Unit tests for the symmetric q-number primitives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qcgc import (
    HalfInt,
    QContext,
    QDomainError,
    halfint,
    q_binomial,
    q_factorial,
    q_gamma_classical,
    q_gamma_tilde,
    q_pochhammer,
    qnum,
)

CTX = QContext(q="0.5", precision=50)

half_ints = st.integers(min_value=-16, max_value=16).map(
    lambda t: HalfInt(Fraction(t, 2)))


def test_qnum_two_is_q_plus_qinv():
    with CTX.work():
        assert CTX.close(qnum(HalfInt(2), CTX), CTX.q + CTX.qinv)


def test_qnum_one_and_zero():
    with CTX.work():
        assert qnum(HalfInt(1), CTX) == 1
        assert qnum(HalfInt(0), CTX) == 0


def test_qnum_classical_branch_returns_argument():
    ctx = QContext(q=1, precision=50)
    with ctx.work():
        assert qnum(HalfInt("7/2"), ctx) == mpf(7) / 2


@given(x=half_ints)
@settings(max_examples=60, deadline=None)
def test_qnum_is_odd(x):
    with CTX.work():
        assert CTX.close(qnum(-x, CTX), -qnum(x, CTX))


@given(x=half_ints)
@settings(max_examples=60, deadline=None)
def test_qnum_invariant_under_base_inversion(x):
    flip = CTX.reciprocal()
    with CTX.work():
        assert CTX.close(qnum(x, CTX), qnum(x, flip))


@given(x=half_ints, y=half_ints)
@settings(max_examples=60, deadline=None)
def test_qnum_product_difference_identity(x, y):
    # [x][y] = [(x+y)/2]^2 - [(x-y)/2]^2 drives the Casimir eigenvalue
    with CTX.work():
        lhs = qnum(x, CTX) * qnum(y, CTX)
        half = Fraction(1, 2)
        rhs = (qnum((x + y).as_fraction() * half, CTX) ** 2
               - qnum((x - y).as_fraction() * half, CTX) ** 2)
        assert CTX.close(lhs, rhs)


def test_q_factorial_recursion_and_base():
    with CTX.work():
        assert q_factorial(0, CTX) == 1
        for n in range(1, 8):
            assert CTX.close(q_factorial(n, CTX),
                             q_factorial(n - 1, CTX) * qnum(HalfInt(n), CTX))


def test_q_factorial_negative_raises():
    with pytest.raises(QDomainError):
        q_factorial(-1, CTX)


def test_q_pochhammer_matches_factorial_ratio():
    with CTX.work():
        for a in range(1, 5):
            for n in range(0, 5):
                expected = q_factorial(a + n - 1, CTX) / q_factorial(a - 1, CTX)
                assert CTX.close(q_pochhammer(HalfInt(a), n, CTX), expected)


def test_q_binomial_pascal_rule():
    # [n,k] = q^-k [n-1,k] + q^(n-k) [n-1,k-1] (symmetric-bracket Pascal)
    with CTX.work():
        for n in range(1, 9):
            for k in range(0, n + 1):
                lhs = q_binomial(n, k, CTX)
                rhs = (CTX.qpow(-k) * q_binomial(n - 1, k, CTX)
                       + CTX.qpow(n - k) * q_binomial(n - 1, k - 1, CTX))
                assert CTX.close(lhs, rhs)


def test_q_binomial_outside_range_is_zero():
    assert q_binomial(3, 5, CTX) == 0
    assert q_binomial(3, -1, CTX) == 0


def test_q_gamma_tilde_integer_shortcut():
    with CTX.work():
        for n in range(1, 7):
            assert CTX.close(q_gamma_tilde(HalfInt(n + 1), CTX),
                             q_factorial(n, CTX))


def test_q_gamma_tilde_functional_equation_at_half_integers():
    # Gamma_tilde(s+1) = [s] Gamma_tilde(s)
    with CTX.work():
        for twice in (1, 3, 5, 7):
            s = HalfInt(Fraction(twice, 2))
            assert CTX.close(q_gamma_tilde(s + 1, CTX),
                             qnum(s, CTX) * q_gamma_tilde(s, CTX))


def test_q_gamma_pole_raises():
    with pytest.raises(QDomainError):
        q_gamma_tilde(HalfInt(0), CTX)
    with pytest.raises(QDomainError):
        q_gamma_classical(HalfInt(-2), CTX)


def test_context_rejects_low_precision_and_bad_q():
    with pytest.raises(QDomainError):
        QContext(q="0.5", precision=10)
    with pytest.raises(QDomainError):
        QContext(q="-1", precision=50)


def test_reciprocal_context_round_trip():
    flip = CTX.reciprocal()
    back = flip.reciprocal()
    with CTX.work():
        assert flip.q == CTX.qinv
        assert back.q == CTX.q


def test_reciprocal_context_is_kept_on_its_parent():
    ctx = QContext(q="0.7", precision=50)
    assert ctx.reciprocal() is ctx.reciprocal()


def test_with_precision_keeps_exact_base():
    boosted = CTX.with_precision(90)
    with boosted.work():
        assert boosted.q == mpf("0.5")
        assert boosted.dps > CTX.dps


def test_classical_limit_of_qnum():
    ctx = QContext(q="0.999999", precision=50)
    with ctx.work():
        x = Fraction(-5)
        while x <= 5:
            assert abs(qnum(HalfInt(x), ctx) - ctx.to_mpf(x)) < mpf("1e-6")
            x += Fraction(1, 2)


def test_halfint_parsing():
    assert halfint("3/2").twice == 3
    assert halfint(2).twice == 4
    assert halfint("-1/2") < halfint(0)
    with pytest.raises(ValueError):
        halfint("1/3")
