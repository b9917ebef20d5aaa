"""Terminating symmetric q-hypergeometric series and their identities.

Series arguments are carried as signed q-exponents, never as pre-evaluated
reals, so the q <-> 1/q flips and the pattern matching behind the two
3F2 transformation rewrites stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, permutations

from .halfint import HalfInt, halfint
from .qcore import (GUARD_DIGITS, QDomainError, _inverse_pair, _qpow_pair,
                    _renormalise, q_factorial, q_pochhammer, qnum_pairs)


class SeriesIllPosed(ValueError):
    """A denominator Pochhammer vanishes inside the live summation range."""


@dataclass(frozen=True)
class HyperSeriesSpec:
    """A terminating p+1_F_p instance with argument z = q^(sign*exponent)."""

    numerator: tuple
    denominator: tuple
    arg_exponent: HalfInt
    arg_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(halfint(a) for a in self.numerator))
        object.__setattr__(self, "denominator", tuple(halfint(b) for b in self.denominator))
        object.__setattr__(self, "arg_exponent", halfint(self.arg_exponent))
        if self.arg_sign not in (1, -1):
            raise ValueError("arg_sign must be +1 or -1")

    def signed_exponent(self):
        return self.arg_exponent * self.arg_sign

    def termination_order(self):
        """Smallest cutoff forced by a nonpositive-integer numerator parameter."""
        return _cutoff([a.twice for a in self.numerator])

    def reciprocal(self):
        """The same series under q -> 1/q (argument sign flips)."""
        return HyperSeriesSpec(self.numerator, self.denominator,
                               self.arg_exponent, -self.arg_sign)


@dataclass(frozen=True)
class BasicSeriesSpec:
    """A terminating basic series with parameters q^e and free argument z."""

    numerator: tuple
    denominator: tuple
    z: object

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(halfint(a) for a in self.numerator))
        object.__setattr__(self, "denominator", tuple(halfint(b) for b in self.denominator))

    termination_order = HyperSeriesSpec.termination_order


def _live_range(spec):
    """(n_eff, num, den, reach) of a terminating series: its cutoff, its
    doubled parameters and the largest |2x| of a bracket its terms read.
    Raises when a denominator vanishes inside the live range, which the
    numerator cutoffs fix a priori."""
    num = [a.twice for a in spec.numerator]
    den = [b.twice for b in spec.denominator]
    n_eff = _cutoff(num)
    for t in den:
        if t <= 0 and not t % 2 and -t < 2 * n_eff:
            raise SeriesIllPosed(f"denominator parameter {HalfInt(twice=t)} "
                                 f"vanishes at term {-t // 2 + 1}")
    return n_eff, num, den, 2 * n_eff + max(map(abs, num + den), default=0)


def _cutoff(num):
    """Smallest cutoff forced by a nonpositive-integer doubled parameter."""
    cutoffs = [-t for t in num if t <= 0 and not t % 2]
    if not cutoffs:
        raise QDomainError("series is not terminating")
    return min(cutoffs) // 2


def _series_terms(n_eff, num, den, z, values, inverses, width):
    """Terms, as ``width``-bit (man, exp) pairs, of a terminating series:
    t_0 = 1, and t_(k+1) is t_k times z / [k+1] times prod [a+k] /
    prod [b+k] for k < n_eff, renormalised after each step.

    ``num`` and ``den`` hold the doubled parameters 2a and 2b, z is a
    pair, and ``values[t]`` and ``inverses[t]`` are the pairs of the
    bracket at 2x = t and of its inverse, for t of either sign, laid out
    as in ``qnum_pairs``.
    """
    man, exp = 1 << (width - 1), 1 - width
    yield man, exp
    z_man, z_exp = z
    for k in range(0, 2 * n_eff, 2):
        m, e = inverses[k + 2]
        man *= z_man * m
        exp += z_exp + e
        for t in num:
            m, e = values[t + k]
            man *= m
            exp += e
        for t in den:
            m, e = inverses[t + k]
            man *= m
            exp += e
        shift = man.bit_length() - width  # _renormalise, inlined
        man >>= shift
        exp += shift
        yield man, exp


def eval_terminating(spec, ctx, scale=None):
    """Evaluate a terminating symmetric q-hypergeometric series.

    ``scale``, when given, is the pair of a factor multiplying every
    term, so that the guard measures the cancellation against terms of
    their true size and the product is rounded once.  It multiplies each
    finished term, so terms that cancel exactly still do, and a boosted
    pass reuses it: an error common to every term is not amplified by
    their cancellation.
    """
    n_eff, num, den, reach = _live_range(spec)
    twice = spec.arg_exponent.twice * spec.arg_sign

    def terms(c):
        values, inverses = qnum_pairs(reach, c)
        series = _series_terms(n_eff, num, den, _qpow_pair(twice, c),
                               values, inverses, c.width)
        if scale is None:
            return series
        scale_man, scale_exp = scale
        return (_renormalise(m * scale_man, e + scale_exp, c.width)
                for m, e in series)

    return _sum_with_guard(terms, ctx)


def eval_basic(spec, ctx):
    """Evaluate a terminating basic series with (a;q)_k coefficients."""
    n_eff, num, den, reach = _live_range(spec)

    def terms(c):
        # the pairs of 1 - q^(t/2), laid out as qnum_pairs lays out its
        # lists (1 - q^0 = 0 has no inverse)
        values = [c.to_pair(1 - c.qpow(Fraction(t, 2)))
                  for t in chain(range(reach + 1), range(-reach, 0))]
        inverses = [_inverse_pair(p, c.width) if p[0] else None
                    for p in values]
        return _series_terms(n_eff, num, den, c.to_pair(spec.z), values,
                             inverses, c.width)

    return _sum_with_guard(terms, ctx)


def _sum_with_guard(terms, ctx):
    """Sum the summands ``terms(c)`` to ``ctx.precision`` digits.

    A summand is a (man, exp) pair of Python ints with value man * 2^exp,
    or a real of ``c`` (converted once, by ``c.to_pair``); every caller
    in the package hands it pairs, and real summands come only from
    callers outside it.  The kernel never touches mpmath's global
    precision.  Pairs carry ``c.width`` = ``c.mp.prec`` + EXTRA_BITS
    bits, and a summand built by a chain of products (a running q-power,
    a series term from the one before it) is renormalised to that width
    after each step, or a mantissa near a power of two loses a bit per
    step.  The summands are added into one
    integer in units of 2^(peak - width), peak the top bit of the largest
    summand (the bits of a summand below that unit are dropped), and the
    total is rounded once into ``ctx``, boosted or not.

    The total is accurate relative to itself, or else to the absolute
    floor 10^-precision of the largest summand, in two passes at most.
    The guard digits of ``ctx.dps`` absorb a loss of up to GUARD_DIGITS
    between the largest summand and the total.  A larger loss, counted
    up to ``ctx.precision`` digits, reruns the summands once at that many
    more digits rounded up to a multiple of GUARD_DIGITS, in a context
    with the same deformation parameter that ``ctx`` keeps for later.
    """
    c = ctx
    while True:
        pairs = [term if type(term) is tuple else c.to_pair(term)
                 for term in terms(c)]
        tops = [e + m.bit_length() for m, e in pairs if m]
        total = base = lost = 0
        if tops:
            peak = max(tops)
            base = peak - c.width
            for m, e in pairs:
                total += m << (e - base) if e >= base else m >> (base - e)
            lost = ctx.precision
            if total:
                lost = min(lost, math.ceil(
                    (peak - base - total.bit_length()) * math.log10(2)))
        if lost <= c.dps - ctx.precision:
            return ctx.mp.mpf((total, base))
        if c is not ctx:  # the boost leaves GUARD_DIGITS to spare
            raise ArithmeticError(f"sum lost {lost} digits after a boost "
                                  f"to {c.precision}")
        precision = ctx.precision + math.ceil(lost / GUARD_DIGITS) * GUARD_DIGITS
        c = ctx._memo(("boost", precision),
                      lambda: ctx.with_precision(precision))


@dataclass(frozen=True)
class Prefactor:
    """q^exponent times a ratio of symmetric Pochhammer symbols."""

    q_exponent: Fraction
    poch_num: tuple = field(default_factory=tuple)  # pairs (a, n)
    poch_den: tuple = field(default_factory=tuple)

    def value(self, ctx):
        v = ctx.qpow(self.q_exponent)
        for a, n in self.poch_num:
            v *= q_pochhammer(a, n, ctx)
        for a, n in self.poch_den:
            v /= q_pochhammer(a, n, ctx)
        return v


def _match_321_pattern(spec):
    """Decompose a 3F2 spec as (-n, a, b; d, e | q, q^(pm*(a+b-n-d-e+1)))."""
    if len(spec.numerator) != 3 or len(spec.denominator) != 2:
        raise QDomainError("transformation requires a 3F2 spec")
    exponent = spec.signed_exponent()
    for i in range(3):
        minus_n = spec.numerator[i]
        if not (minus_n.is_integer and minus_n <= 0):
            continue
        n = -minus_n.as_int()
        rest = [spec.numerator[k] for k in range(3) if k != i]
        for a, b in permutations(rest):
            for d, e in permutations(spec.denominator):
                t = a + b - n - d - e + 1
                for pm in (1, -1):
                    if t * pm == exponent:
                        return n, a, b, d, e, pm
    raise QDomainError("spec does not match the 3F2 transformation pattern")


def transform_142(spec):
    """Rewrite via the first 3F2 transformation; value is preserved.

    Returns (new_spec, prefactor) with
    value(spec) = prefactor * value(new_spec).
    """
    n, a, b, d, e, pm = _match_321_pattern(spec)
    new = HyperSeriesSpec(
        numerator=(HalfInt(-n), a, d - b),
        denominator=(d, a - e - n + 1),
        arg_exponent=b - e,
        arg_sign=pm,
    )
    pre = Prefactor(
        q_exponent=Fraction(pm) * a.as_fraction() * n,
        poch_num=((e - a, n),),
        poch_den=((e, n),),
    )
    return new, pre


def transform_141(spec):
    """Rewrite via the second 3F2 transformation; value is preserved."""
    n, a, b, d, e, pm = _match_321_pattern(spec)
    new = HyperSeriesSpec(
        numerator=(HalfInt(-n), a, a + b - d - e - n + 1),
        denominator=(a - d - n + 1, a - e - n + 1),
        arg_exponent=b,
        arg_sign=pm,
    )
    pre = Prefactor(
        q_exponent=Fraction(0),
        poch_num=((d - a, n), (e - a, n)),
        poch_den=((d, n), (e, n)),
    )
    return new, pre


def vandermonde_spec(n, b, c, sign):
    """The 2F1 instance summed by the q-Vandermonde formula."""
    b, c = halfint(b), halfint(c)
    return HyperSeriesSpec(
        numerator=(HalfInt(-n), b),
        denominator=(c,),
        arg_exponent=b - c - n + 1,
        arg_sign=sign,
    )


def closed_sum_vandermonde(n, b, c, sign, ctx):
    """q-Vandermonde closed form (c-b|q)_n/(c|q)_n * q^(pm*n*b)."""
    b, c = halfint(b), halfint(c)
    _check_vandermonde_domain(n, b, c)
    return (q_pochhammer(c - b, n, ctx) / q_pochhammer(c, n, ctx)
            * ctx.qpow(Fraction(sign * n) * b.as_fraction()))


def _check_vandermonde_domain(n, b, c):
    if n < 0:
        raise QDomainError("vandermonde: n must be nonnegative")
    if c.is_integer and c <= 0 and n > -c.as_int():
        raise QDomainError("vandermonde: n < |c| required for negative integer c")


def closed_sum_positive(n, b, c, sign, ctx):
    """Factorial form of the q-Vandermonde sum for positive integers, c > b.

    The parent display drops a factorial mark on the [c-1+n] denominator;
    matching the series numerically confirms it must read [c-1+n]!.
    """
    n, b, c = int(n), int(b), int(c)
    if not (n >= 0 and b > 0 and c > b and n < min(b, c)):
        raise QDomainError("closed_sum_positive requires n,b,c in Z+, n<min(b,c), c>b")
    value = (q_factorial(c - b - 1 + n, ctx) * q_factorial(c - 1, ctx)
             / (q_factorial(c - b - 1, ctx) * q_factorial(c - 1 + n, ctx)))
    return value * ctx.qpow(sign * b * n)


def closed_sum_negative(n, b, c, sign, ctx):
    """Closed form of 2F1(-n,-b;-c | q, q^(pm*(b-c+n-1))) for b > c > 0."""
    n, b, c = int(n), int(b), int(c)
    if not (n >= 0 and c > 0 and b > c and n < min(b, c)):
        raise QDomainError("closed_sum_negative requires b>c>0 and n<min(b,c)")
    value = ((-1) ** n * q_factorial(c - n, ctx) * q_factorial(b + n - c - 1, ctx)
             / (q_factorial(c, ctx) * q_factorial(b - c - 1, ctx)))
    return value * ctx.qpow(sign * b * n)


def negative_spec(n, b, c, sign):
    """The 2F1 instance summed by closed_sum_negative."""
    return HyperSeriesSpec(
        numerator=(HalfInt(-n), HalfInt(-b)),
        denominator=(HalfInt(-c),),
        arg_exponent=HalfInt(b - c + n - 1),
        arg_sign=sign,
    )


def dixon_spec(n, b, c):
    """The 3F2 instance summed by the terminating q-Dixon formula."""
    b, c = halfint(b), halfint(c)
    return HyperSeriesSpec(
        numerator=(HalfInt(-2 * n), b, c),
        denominator=(1 - 2 * n - b, 1 - 2 * n - c),
        arg_exponent=HalfInt(1),
        arg_sign=1,
    )


def closed_sum_dixon(n, b, c, ctx):
    """Terminating q-Dixon sum: q^n [2n]! (b+c+n|q)_n / ([n]! (b+n|q)_n (c+n|q)_n)."""
    n = int(n)
    if n < 0:
        raise QDomainError("dixon: n must be nonnegative")
    b, c = halfint(b), halfint(c)
    return (ctx.qpow(n) * q_factorial(2 * n, ctx)
            * q_pochhammer(b + c + n, n, ctx)
            / (q_factorial(n, ctx) * q_pochhammer(b + n, n, ctx)
               * q_pochhammer(c + n, n, ctx)))


def connection_pair(num_exps, den_exps, z_exp, ctx):
    """Build both sides of the basic/symmetric connection identity.

    phi(q^a1..; q^b1.. | q, q^z) equals F(a1..; b1.. | q^(1/2), w) where
    w = q^(z + (sum a - sum b - 1)/2), i.e. w has exponent
    2*z + sum a - sum b - 1 in the base q^(1/2).

    Returns (basic_spec, f_spec); evaluate the former in ctx (base q) and
    the latter in a context at sqrt(q).
    """
    num = tuple(halfint(a) for a in num_exps)
    den = tuple(halfint(b) for b in den_exps)
    z_exp = halfint(z_exp)
    basic = BasicSeriesSpec(numerator=num, denominator=den,
                            z=ctx.qpow(z_exp.as_fraction()))
    shifted = 2 * z_exp + sum(num, HalfInt(0)) - sum(den, HalfInt(0)) - 1
    f_spec = HyperSeriesSpec(numerator=num, denominator=den,
                             arg_exponent=shifted, arg_sign=1)
    return basic, f_spec
