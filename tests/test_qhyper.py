"""Unit tests for terminating q-hypergeometric series and identities."""

import functools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qcgc import CgcKey, HalfInt, QContext, QDomainError, eval_basic, eval_terminating
from qcgc import qhyper
from qcgc.cgc import cgc_3f2_rw1, cgc_racah
from qcgc.qhyper import (
    BasicSeriesSpec,
    HyperSeriesSpec,
    SeriesIllPosed,
    _live_range,
    _series_terms,
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
from qcgc.qcore import EXTRA_BITS, _qpow_pair, qnum, qnum_pairs

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


def test_a_spec_takes_labels_or_twice_not_both():
    # as CgcKey and HahnParams do; BasicSeriesSpec's z is no label
    hyper = HyperSeriesSpec(numerator=(-1, "3/2"), denominator=(2,),
                            arg_exponent=1, arg_sign=-1)
    assert hyper.twice == ((-2, 3), (4,), -2)
    assert HyperSeriesSpec(twice=hyper.twice).twice == hyper.twice
    for labels in ({"numerator": (-1,)}, {"denominator": (2,)},
                   {"arg_exponent": 1}, {"arg_sign": -1}):
        with pytest.raises(TypeError):
            HyperSeriesSpec(twice=hyper.twice, **labels)
    basic = BasicSeriesSpec((-1, "3/2"), (2,), z=0.5)
    assert basic.twice == ((-2, 3), (4,))
    assert BasicSeriesSpec(twice=basic.twice, z=0.5).twice == basic.twice
    for labels in ({"numerator": (-1,)}, {"denominator": (2,)}):
        with pytest.raises(TypeError):
            BasicSeriesSpec(twice=basic.twice, z=0.5, **labels)


def _direct_sum(spec, q, dps=120):
    """A terminating series summed term by term on plain mpmath reals,
    as (value, largest |term|); raises SeriesIllPosed when a denominator
    bracket vanishes before a numerator one does."""
    c = mpmath.MPContext()
    c.dps = dps
    qv = c.mpf(q)

    def real(x):
        x = x.as_fraction() if isinstance(x, HalfInt) else Fraction(x)
        return c.mpf(x.numerator) / x.denominator

    def bracket(x):
        return (qv ** x - qv ** -x) / (qv - 1 / qv)

    num = [a.as_fraction() for a in spec.numerator]
    den = [b.as_fraction() for b in spec.denominator]
    z = qv ** real(spec.signed_exponent())
    term = c.mpf(1)
    total, largest = term, term
    k = 0
    while all(a + k != 0 for a in num):
        if any(b + k == 0 for b in den):
            raise SeriesIllPosed(f"denominator vanishes at term {k + 1}")
        for a in num:
            term *= bracket(real(a + k))
        for b in den:
            term /= bracket(real(b + k))
        term *= z / bracket(real(k + 1))
        total += term
        largest = max(largest, abs(term))
        k += 1
    return total, largest


def test_eval_terminating_matches_a_direct_sum():
    # seeded 2F1 and 3F2 specs with half-integer parameters in -6..6, the
    # first numerator a nonpositive integer so that the series terminates
    rng = random.Random(20240907)
    ill_posed = 0
    for q in ("0.3", "0.9", "1.25"):
        ctx = QContext(q=q, precision=50)
        for i in range(100):
            p = 2 + i % 2
            numerator = ((HalfInt(-rng.randint(0, 6)),)
                         + tuple(HalfInt(twice=rng.randint(-12, 12))
                                 for _ in range(p - 1)))
            denominator = tuple(HalfInt(twice=rng.randint(-12, 12))
                                for _ in range(p - 1))
            spec = HyperSeriesSpec(numerator, denominator,
                                   HalfInt(twice=rng.randint(-12, 12)),
                                   rng.choice((1, -1)))
            try:
                expected, largest = _direct_sum(spec, q)
            except SeriesIllPosed:
                ill_posed += 1
                with pytest.raises(SeriesIllPosed):
                    eval_terminating(spec, ctx)
                continue
            value = expected.context.mpf(eval_terminating(spec, ctx))
            assert abs(value - expected) <= mpf("1e-45") * largest, spec
    assert 0 < ill_posed < 100


@pytest.mark.parametrize("q", ["0.3", "0.9", "1.25"])
def test_series_terms_are_width_bit_pairs_near_the_exact_products(q):
    # term k+1 is term k times p + q + 2 width-bit pairs (z, 1/[k+1], the
    # p numerator and q denominator brackets), renormalised after each
    # factor; each truncation loses less than 2^(1-width) relative, so
    # the term is within p + q + 2 of those units of the exact product
    ctx = QContext(q=q, precision=50)
    width = ctx.width
    rng = random.Random(14)
    checked = 0
    for i in range(90):
        p = 2 + i % 3
        numerator = ((-2 * rng.randint(1, 12),)
                     + tuple(rng.randint(-12, 12) for _ in range(p - 1)))
        denominator = tuple(rng.randint(-12, 12) for _ in range(p - 1))
        spec = HyperSeriesSpec(twice=(numerator, denominator,
                                      rng.randint(-12, 12)))
        try:
            n_eff, num, den, reach = _live_range(spec)
        except SeriesIllPosed:
            continue
        values, inverses = qnum_pairs(reach, ctx)
        z = _qpow_pair(spec.twice[2], ctx)
        terms = list(_series_terms(n_eff, num, den, z, values, inverses, width))
        assert len(terms) == n_eff + 1
        assert all(abs(m).bit_length() == width for m, _ in terms)
        for k, ((man, exp), (m1, e1)) in enumerate(zip(terms, terms[1:])):
            factors = [z, inverses[2 * k + 2], *(values[t + 2 * k] for t in num),
                       *(inverses[t + 2 * k] for t in den)]
            assert len(factors) == len(num) + len(den) + 2
            for m, e in factors:
                man, exp = man * m, exp + e
            error = abs(man - (m1 << (e1 - exp)))
            assert error << (width - 1) < len(factors) * abs(man), (spec.twice, k)
            checked += 1
    assert checked > 250


def test_eval_basic_rejects_q_1():
    # every 1 - q^t vanishes at q = 1, so the terms past the first are 0/0
    with pytest.raises(QDomainError, match="q = 1"):
        eval_basic(BasicSeriesSpec((-2, 1), (3,), z=0.5), QContext(q=1))


def test_vandermonde_example():
    with CTX.work():
        series = eval_terminating(vandermonde_spec(2, 3, 7, 1), CTX)
        closed = closed_sum_vandermonde(2, 3, 7, 1, CTX)
        assert CTX.close(series, closed)


@pytest.mark.parametrize("q", ["0.5", "1", "1.25"])
def test_zero_scale_is_an_exact_zero(q):
    # a zero mantissa has no top bit to renormalise to, so the scale is
    # read as 0 before any term is built
    ctx = QContext(q=q, precision=50)
    value = eval_terminating(vandermonde_spec(2, 3, 7, 1), ctx, scale=(0, 0))
    assert value == 0 and type(value) is type(ctx.to_mpf(0))


@pytest.mark.parametrize("q", ["0.3", "0.9", "1", "1.25"])
def test_one_term_series_is_its_scale_rounded_once(monkeypatch, q):
    # a series with cutoff 0 is its first term: the scale (or 1) rounded
    # once into the context, which is what the guarded sum of that one
    # term returns, bit for bit; no bracket table and no guard is read
    ctx = QContext(q=q, precision=50)
    # width-bit pairs, the last two at a rounding tie and just above one
    scales = [ctx.to_pair(x) for x in (1, "1e-30", "-3.25", ctx.mp.pi * 10 ** 40)]
    tie = (1 << (ctx.width - 1)) + (1 << (EXTRA_BITS - 1))
    scales += [(tie, -7), (-tie - 1, 2)]
    guarded = [_sum_with_guard(lambda c, s=s: [s], ctx) for s in scales]

    def forbidden(*args):
        raise AssertionError("a one-term series read the kernel")

    for name in ("_sum_with_guard", "qnum_pairs", "_qpow_pair"):
        monkeypatch.setattr(qhyper, name, forbidden)
    specs = [vandermonde_spec(0, 3, 7, 1), vandermonde_spec(0, "1/2", -3, -1),
             dixon_spec(0, 3, 4), dixon_spec(0, "5/2", -1), negative_spec(0, 7, 3, 1),
             HyperSeriesSpec(twice=((0, 5, -7), (-2, 3), 9))]
    for spec in specs:
        assert _live_range(spec)[0] == 0
        assert eval_terminating(spec, ctx) == 1
        for scale, reference in zip(scales, guarded):
            value = eval_terminating(spec, ctx, scale=scale)
            assert value == ctx.mp.mpf(scale) == reference
            assert type(value) is type(ctx.to_mpf(0))
        zero = eval_terminating(spec, ctx, scale=(0, 0))
        assert zero == 0 and type(zero) is type(ctx.to_mpf(0))
    # a spec that does not terminate, or whose denominator vanishes in
    # its live range, still raises before anything is summed
    with pytest.raises(QDomainError):
        eval_terminating(HyperSeriesSpec(twice=((2, 6), (4,), 2)), ctx)
    with pytest.raises(SeriesIllPosed):
        eval_terminating(HyperSeriesSpec(twice=((-4, 6), (-2,), 2)), ctx)


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


@pytest.mark.parametrize("q", ["0.3", "0.9", "1", "1.25"])
def test_factorial_closed_sums_read_the_factorial_tables(q, monkeypatch):
    # the factorial forms multiply the [n]! their docstrings print, not
    # the Pochhammer ratio that closed_sum_vandermonde reads
    def refuse(*args):
        raise AssertionError("a factorial closed sum read a Pochhammer ratio")

    monkeypatch.setattr(qhyper, "_pochhammer_pair", refuse)
    ctx = QContext(q=q, precision=50)
    for sign in (1, -1):
        for n in range(6):
            for b in range(1, 9):
                for c in range(1, 9):
                    if n >= min(b, c):
                        continue
                    if c > b:
                        assert ctx.close(
                            closed_sum_positive(n, b, c, sign, ctx),
                            eval_terminating(vandermonde_spec(n, b, c, sign), ctx))
                    if b > c:
                        assert ctx.close(
                            closed_sum_negative(n, b, c, sign, ctx),
                            eval_terminating(negative_spec(n, b, c, sign), ctx))


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
    # a one-term sum whose summand is below 1 cancels nothing; the row's
    # series here has cutoff 0 and skips the guard, so the guard also
    # gets that summand directly
    ctx = QContext(q="0.9", precision=50)
    boosts = _count_boosts(monkeypatch)
    key = CgcKey("1/2", "1/2", "1/2", "-1/2", 0, 0)
    value = cgc_3f2_rw1(key, ctx)
    assert _sum_with_guard(lambda c: [c.to_pair("1e-30")], ctx) == ctx.to_mpf("1e-30")
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
        return (c.to_pair(1),
                c.to_pair(-1 + (c.to_mpf(10) ** -25 if c is ctx else 0)))

    with pytest.raises(ArithmeticError):
        _sum_with_guard(terms, ctx)


def test_kernel_leaves_global_precision_alone():
    # the summands are built in the context the kernel hands them, so the
    # global mpmath precision stays whatever the caller set
    ctx = QContext(q="0.5", precision=50)
    seen = []

    def terms(c):
        seen.append(mp.dps)
        yield c.to_pair(1)

    with mp.workdps(15):
        assert _sum_with_guard(terms, ctx) == 1
    assert seen == [15]


def _bracket_products(q, dps=120):
    """Products of brackets on a plain mpmath context: the factorial,
    Pochhammer and q-power of labels given as Fractions or ints."""
    c = mpmath.MPContext()
    c.dps = dps
    qv = c.mpf(q)

    def real(x):
        x = Fraction(x)
        return c.mpf(x.numerator) / x.denominator

    @functools.lru_cache(maxsize=None)
    def poch(a, n):
        value = c.mpf(1)
        for i in range(n):
            x = real(Fraction(a) + i)
            value *= (qv ** x - qv ** -x) / (qv - 1 / qv)
        return value

    return (lambda n: poch(1, n)), poch, (lambda e: qv ** real(e))


def _assert_relative(value, expected, bound=mpf("1e-60")):
    value = expected.context.mpf(value)
    assert abs(value - expected) <= bound * abs(expected), (value, expected)


@pytest.mark.parametrize("q", ["0.3", "0.9", "1.25", "2"])
def test_closed_sums_match_bracket_products(q):
    # each closed sum as its display writes it, against brackets summed
    # at 120 digits; half-integer b and c wherever the domain allows
    ctx = QContext(q=q, precision=50)
    fact, poch, power = _bracket_products(q)
    halves = [Fraction(t, 2) for t in (-5, -3, -1, 1, 2, 3, 5, 8, 11)]
    for n in range(5):
        for sign in (1, -1):
            for b in halves:
                for c in halves:
                    if c.denominator == 1 and c <= 0 and n > -c:
                        continue
                    _assert_relative(
                        closed_sum_vandermonde(n, b, c, sign, ctx),
                        poch(c - b, n) / poch(c, n) * power(sign * n * b))
            for b in range(1, 8):
                for c in range(1, 8):
                    if n >= min(b, c):
                        continue
                    if c > b:
                        _assert_relative(
                            closed_sum_positive(n, b, c, sign, ctx),
                            fact(c - b - 1 + n) * fact(c - 1)
                            / (fact(c - b - 1) * fact(c - 1 + n))
                            * power(sign * b * n))
                    if b > c:
                        _assert_relative(
                            closed_sum_negative(n, b, c, sign, ctx),
                            (-1) ** n * fact(c - n) * fact(b + n - c - 1)
                            / (fact(c) * fact(b - c - 1))
                            * power(sign * b * n))
        for b in halves:
            for c in halves:
                if any(x.denominator == 1 and -2 * n < x <= -n for x in (b, c)):
                    continue  # (b+n|q)_n or (c+n|q)_n vanishes
                _assert_relative(
                    closed_sum_dixon(n, b, c, ctx),
                    power(n) * fact(2 * n) * poch(b + c + n, n)
                    / (fact(n) * poch(b + n, n) * poch(c + n, n)))


@pytest.mark.parametrize("q", ["0.3", "0.9", "1.25", "2"])
def test_transform_prefactors_match_bracket_products(q):
    ctx = QContext(q=q, precision=50)
    _, poch, power = _bracket_products(q)
    rng = random.Random(20240911)
    for _ in range(40):
        n = rng.randint(0, 4)
        a, b, d, e = (Fraction(rng.randint(1, 12), 2) for _ in range(4))
        sign = rng.choice((1, -1))
        spec = HyperSeriesSpec((-n, a, b), (d, e), a + b - n - d - e + 1, sign)
        # the rewrites read the argument's sign off the pattern, which
        # cannot tell the signs apart at q^0
        pm = sign if a + b - n - d - e + 1 else 1
        _assert_relative(transform_142(spec)[1].value(ctx),
                         power(pm * a * n) * poch(e - a, n) / poch(e, n))
        _assert_relative(transform_141(spec)[1].value(ctx),
                         poch(d - a, n) * poch(e - a, n)
                         / (poch(d, n) * poch(e, n)))


def test_series_layer_builds_no_halfint(monkeypatch):
    # labels are parsed where they enter the package: on int labels the
    # specs, their sums (a boosted one included) and the closed sums
    # are integer arithmetic, down to the bracket tables of a new context
    created = []
    build = HalfInt.__init__

    def counting(self, *args, **kwargs):
        created.append((args, kwargs))
        build(self, *args, **kwargs)

    monkeypatch.setattr(HalfInt, "__init__", counting)
    ctx = QContext(q="0.7", precision=50)
    for sign in (1, -1):
        eval_terminating(vandermonde_spec(3, 4, 9, sign), ctx)
        eval_terminating(vandermonde_spec(2, 2, 1, sign), ctx)  # sums to 0
        closed_sum_vandermonde(3, 4, 9, sign, ctx)
        closed_sum_positive(3, 4, 9, sign, ctx)
        eval_terminating(negative_spec(2, 7, 3, sign), ctx)
        closed_sum_negative(2, 7, 3, sign, ctx)
    eval_terminating(dixon_spec(3, 4, 5), ctx)
    closed_sum_dixon(3, 4, 5, ctx)
    assert created == []
