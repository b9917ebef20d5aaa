"""Unit tests for terminating q-hypergeometric series and identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qcgc import CgcKey, HalfInt, QContext, QDomainError, eval_basic, eval_terminating
from qcgc.cgc import cgc_3f2_rw1, cgc_racah
from qcgc.qhyper import (
    HyperSeriesSpec,
    SeriesIllPosed,
    _sum_with_guard,
    closed_sum_dixon,
    closed_sum_negative,
    closed_sum_positive,
    closed_sum_vandermonde,
    connection_pair,
    dixon_spec,
    negative_spec,
    transform_141,
    transform_142,
    vandermonde_spec,
)
from qcgc.qcore import qnum

CTX = QContext(q="0.5", precision=50)


def test_empty_series_is_one():
    spec = HyperSeriesSpec(numerator=(HalfInt(0), HalfInt(3)),
                           denominator=(HalfInt(2),),
                           arg_exponent=HalfInt(1))
    assert eval_terminating(spec, CTX) == 1


def test_nonterminating_series_rejected():
    spec = HyperSeriesSpec(numerator=(HalfInt(1), HalfInt(3)),
                           denominator=(HalfInt(2),),
                           arg_exponent=HalfInt(1))
    with pytest.raises(QDomainError):
        eval_terminating(spec, CTX)


def test_denominator_zero_inside_range_rejected():
    spec = HyperSeriesSpec(numerator=(HalfInt(-4), HalfInt(3)),
                           denominator=(HalfInt(-2),),
                           arg_exponent=HalfInt(1))
    with pytest.raises(SeriesIllPosed):
        eval_terminating(spec, CTX)


def test_numerator_cutoff_shields_later_denominator_zero():
    # the -2 numerator stops the sum before the -3 denominator vanishes
    spec = HyperSeriesSpec(numerator=(HalfInt(-2), HalfInt(5)),
                           denominator=(HalfInt(-3),),
                           arg_exponent=HalfInt(1))
    eval_terminating(spec, CTX)


def test_vandermonde_example():
    with CTX.work():
        series = eval_terminating(vandermonde_spec(2, 3, 7, 1), CTX)
        closed = closed_sum_vandermonde(2, 3, 7, 1, CTX)
        assert CTX.close(series, closed)


def test_vandermonde_two_term_expansion():
    # n = 1: 1 - [b] q^{sign*(b-c)} / [c]
    with CTX.work():
        for sign in (1, -1):
            for b in (2, 5):
                for c in (3, 7):
                    series = eval_terminating(
                        vandermonde_spec(1, b, c, sign), CTX)
                    direct = 1 - (qnum(HalfInt(b), CTX)
                                  * CTX.qpow(sign * (b - c))
                                  / qnum(HalfInt(c), CTX))
                    assert CTX.close(series, direct)


def test_positive_and_negative_closed_forms():
    with CTX.work():
        for sign in (1, -1):
            series = eval_terminating(vandermonde_spec(2, 3, 7, sign), CTX)
            assert CTX.close(series, closed_sum_positive(2, 3, 7, sign, CTX))
            neg_series = eval_terminating(negative_spec(2, 7, 3, sign), CTX)
            assert CTX.close(neg_series,
                             closed_sum_negative(2, 7, 3, sign, CTX))


def test_closed_form_domain_errors():
    with pytest.raises(QDomainError):
        closed_sum_positive(3, 3, 7, 1, CTX)  # needs n < min(b, c)
    with pytest.raises(QDomainError):
        closed_sum_negative(2, 3, 7, 1, CTX)  # needs b > c
    with pytest.raises(QDomainError):
        closed_sum_dixon(-1, 3, 4, CTX)


def test_dixon_n0_is_one():
    assert eval_terminating(dixon_spec(0, 3, 4), CTX) == 1
    assert closed_sum_dixon(0, 3, 4, CTX) == 1


def test_dixon_example():
    from qcgc.qcore import q_factorial, q_pochhammer
    with CTX.work():
        series = eval_terminating(dixon_spec(2, 3, 4), CTX)
        closed = (CTX.qpow(2) * q_factorial(4, CTX)
                  * q_pochhammer(HalfInt(9), 2, CTX)
                  / (q_factorial(2, CTX) * q_pochhammer(HalfInt(5), 2, CTX)
                     * q_pochhammer(HalfInt(6), 2, CTX)))
        assert CTX.close(series, closed)
        assert CTX.close(series, closed_sum_dixon(2, 3, 4, CTX))


def _random_321_spec(draw_ints):
    n, ta, tb, td, te, sign = draw_ints
    a, b = HalfInt(Fraction(ta, 2)), HalfInt(Fraction(tb, 2))
    d, e = HalfInt(Fraction(td, 2)), HalfInt(Fraction(te, 2))
    return HyperSeriesSpec(
        numerator=(HalfInt(-n), a, b), denominator=(d, e),
        arg_exponent=a + b - n - d - e + 1, arg_sign=sign)


spec_inputs = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.sampled_from((1, -1)),
)


@given(draw_ints=spec_inputs)
@settings(max_examples=40, deadline=None)
def test_transforms_preserve_value(draw_ints):
    spec = _random_321_spec(draw_ints)
    with CTX.work():
        try:
            base = eval_terminating(spec, CTX)
            for transform in (transform_142, transform_141):
                new, pre = transform(spec)
                rewritten = pre.value(CTX) * eval_terminating(new, CTX)
                assert CTX.close(base, rewritten, scale=abs(base))
        except SeriesIllPosed:
            pass


@given(draw_ints=spec_inputs)
@settings(max_examples=40, deadline=None)
def test_base_inversion_flips_argument_sign(draw_ints):
    spec = _random_321_spec(draw_ints)
    flip = CTX.reciprocal()
    with CTX.work():
        try:
            assert CTX.close(eval_terminating(spec, CTX),
                             eval_terminating(spec.reciprocal(), flip))
        except SeriesIllPosed:
            pass


def test_transform_requires_3f2_pattern():
    spec = vandermonde_spec(2, 3, 7, 1)
    with pytest.raises(QDomainError):
        transform_142(spec)


def test_connection_identity_instance():
    # the basic series at base q equals the bracket series at base sqrt(q)
    ctx = QContext(q="0.49", precision=50)
    ctx_sqrt = QContext(q="0.7", precision=50)
    basic, f_spec = connection_pair((HalfInt(-3), HalfInt(4)), (HalfInt(2),),
                                    HalfInt(5), ctx)
    with ctx.work():
        lhs = eval_basic(basic, ctx)
        rhs = eval_terminating(f_spec, ctx_sqrt)
        assert ctx.close(lhs, rhs)


def _count_boosts(monkeypatch):
    """Record the precision of every boosted context built from now on."""
    boosts = []
    build = QContext.with_precision

    def counting(self, precision):
        boosts.append(precision)
        return build(self, precision)

    monkeypatch.setattr(QContext, "with_precision", counting)
    return boosts


def test_small_summands_do_not_boost(monkeypatch):
    # a one-term sum whose summand is below 1 cancels nothing
    ctx = QContext(q="0.9", precision=50)
    boosts = _count_boosts(monkeypatch)
    key = CgcKey("1/2", "1/2", "1/2", "-1/2", 0, 0)
    value = cgc_3f2_rw1(key, ctx)
    assert boosts == []
    assert ctx.close(value, cgc_racah(key, ctx))


def test_zero_sum_converges_in_one_boost(monkeypatch):
    # (-1|q)_2 = [-1][0] = 0, so the series vanishes in exact arithmetic
    ctx = QContext(q="0.7", precision=50)
    boosts = _count_boosts(monkeypatch)
    spec = vandermonde_spec(2, 2, 1, 1)
    value = eval_terminating(spec, ctx)
    assert len(boosts) <= 1
    assert closed_sum_vandermonde(2, 2, 1, 1, ctx) == 0
    assert abs(value) <= mpf(10) ** -(2 * ctx.precision)


def test_sum_short_after_the_boost_raises():
    # summands that cancel further at the boosted precision than the
    # first pass measured: the kernel raises rather than return the total
    ctx = QContext(q="0.5", precision=100)

    def terms(c):
        return c.to_mpf(1), -1 + (c.to_mpf(10) ** -25 if c is ctx else 0)

    with pytest.raises(ArithmeticError):
        _sum_with_guard(terms, ctx)


def test_kernel_leaves_global_precision_alone():
    # the summands are built in the context the kernel hands them, so the
    # global mpmath precision stays whatever the caller set
    ctx = QContext(q="0.5", precision=50)
    seen = []

    def terms(c):
        seen.append(mp.dps)
        yield c.to_mpf(1)

    with mp.workdps(15):
        assert _sum_with_guard(terms, ctx) == 1
    assert seen == [15]
